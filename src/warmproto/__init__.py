"""Few-shot point-cloud prototype generation at desk scale.

Synthetic episodic benchmark plus two prototype constructors: farthest
point sampling with nearest-prototype labeling, and a learnable operator
that whitens support features, cross-attends with prototypical tokens and
colors the result back. Includes the trainer, loss, metric and CLI
machinery to reproduce seed-instability, component-ablation and
attention-diagnostic experiments.
"""

from .episodes import (
    Episode,
    GeneratorConfig,
    PointCloud,
    gen_episode,
    load_episode,
    save_episode,
    split_fg_bg,
)
from .errors import (
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
from .fps import FpsResult, farthest_point_sampling, fps_seed_sweep
from .linalg import half_powers, pairwise_distances, softmax_rows, sym_eig
from .losses import (
    DistanceField,
    LossReport,
    margin_loss,
    point_distances,
    predict,
    simplification_loss_and_grad,
    total_loss,
)
from .metrics import (
    MetricsReport,
    attention_diversity,
    attention_entropy,
    dispersion_metrics,
    miou,
)
from .rng import derive_rng, make_rng
from .trainer import TrainConfig, apply_update, evaluate, make_eval_episodes, train, train_grid
from .warm import (
    PrototypeSet,
    WarmParams,
    WhitenStats,
    ablation_forward,
    average_shots,
    color,
    compute_stats,
    init_params,
    load_checkpoint,
    save_checkpoint,
    warm_backward,
    whiten,
)

__version__ = "0.1.0"
