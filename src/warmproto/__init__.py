"""Few-shot point-cloud prototype generation at desk scale.

Synthetic episodic benchmark plus two prototype constructors: farthest
point sampling with nearest-prototype labeling, and a learnable operator
that whitens support features, cross-attends with prototypical tokens and
colors the result back. Includes the trainer, loss, metric and CLI
machinery to reproduce seed-instability, component-ablation and
attention-diagnostic experiments.

Importing the package sets two glibc allocator parameters for the whole
process, before any numpy work: blocks under 32 MiB come from the heap
instead of their own mmap, and up to 64 MiB of freed heap stays mapped.
Every step builds L x M float64 temporaries of about 400 KB; under
glibc's adaptive defaults their pages go back to the kernel after each
call and are faulted in again on the next. ``HEAP_KEPT`` records
whether the setting took (False on a C library without ``mallopt``, or
where it refuses the values). Forked workers inherit the setting.

It also sets the three BLAS thread variables to 1, over any user value:
BLAS products round differently at other thread counts. If numpy loaded
first, and so has read them, none is set and ``BLAS_PINNED`` is False.
"""

import ctypes
import os
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1


HEAP_KEPT = _keep_heap()
BLAS_PINNED = "numpy" not in sys.modules
if BLAS_PINNED:
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .episodes import (  # noqa: E402
    Episode,
    EpisodeBatch,
    GeneratorConfig,
    PointCloud,
    gen_episode,
    load_episode,
    save_episode,
    split_fg_bg,
)
from .errors import (  # noqa: E402
    ArgumentError,
    CheckpointError,
    ConfigError,
    EmptyClassError,
    FormatError,
    InsufficientPointsError,
    NumericError,
    SymmetryError,
    UndefinedMetricError,
    WarmError,
)
from .fps import farthest_point_sampling, fps_seed_sweep  # noqa: E402
from .linalg import half_powers, pairwise_distances, softmax_rows, sym_eig  # noqa: E402
from .losses import (  # noqa: E402
    DistanceField,
    margin_loss,
    point_distances,
    predict,
    simplification_loss_and_grad,
)
from .metrics import (  # noqa: E402
    MetricsReport,
    attention_diversity,
    attention_entropy,
    dispersion_metrics,
    mean_iou,
    miou,
)
from .rng import derive_rng  # noqa: E402
from .trainer import TrainConfig, apply_update, evaluate, make_eval_episodes, train, train_grid  # noqa: E402
from .warm import (  # noqa: E402
    ShotSupport,
    WarmParams,
    WhitenStats,
    ablation_forward,
    average_shots,
    color,
    compute_stats,
    episode_support,
    init_params,
    load_checkpoint,
    save_checkpoint,
    shot_support,
    warm_backward,
    whiten,
)

__version__ = "0.1.0"
