"""The acceptance fixtures' numbers at full precision, against committed data.

``tests/data/acceptance_values.txt`` holds one ``repr`` value per line
for the default benchmark: mIoU, ``qk_dist`` and ``attn_entropy`` of the
35 (variant, seed) grid reports, the FPS sweep's best, worst, mean and
stdev, and a SHA-256 of the seed-0 ``warm`` parameters. The digest test
checks bytes on a small config; this one checks them at the paper's
scale (D=32, L=512, M=100, 1,000 steps), where BLAS picks other code
paths. The test reads only the session fixtures, and the file is made
from their functions (``conftest.acceptance_grid`` and
``acceptance_sweep``). The test skips by the digest test's rule: where
the numpy version, the OpenBLAS core or numpy's SIMD dispatch targets
differ from the header (``host_build``). A change that moves these
values on purpose regenerates the file in the same change, header
included, from the repository root:

    PYTHONPATH=src python -m tests.test_acceptance_values > tests/data/acceptance_values.txt
"""

import hashlib
from pathlib import Path

# before numpy: the import pins BLAS to one thread only where numpy has not
# loaded yet, and these values differ at other thread counts
import warmproto  # isort: skip

import numpy as np

from warmproto.warm import ABLATION_GRID, PARAM_NAMES

from .conftest import GRID_SEEDS
from .test_cli_digest import committed_body, header_lines

EXPECTED = Path(__file__).resolve().parent / "data" / "acceptance_values.txt"


def value_lines(report_of, warm_params, sweep) -> list[str]:
    """The file's lines: ``report_of(variant, seed)`` gives a grid report."""
    lines = [
        f"{variant} {seed} {name} {getattr(report_of(variant, seed), name)!r}"
        for seed in GRID_SEEDS
        for variant in ABLATION_GRID
        for name in ("miou", "qk_dist", "attn_entropy")
    ]
    lines += [f"fps {name} {getattr(sweep, name)!r}" for name in ("best", "worst", "mean", "stdev")]
    digest = hashlib.sha256()
    for name in PARAM_NAMES:
        digest.update(np.ascontiguousarray(getattr(warm_params, name)).tobytes())
    lines.append(f"warm 0 params_sha256 {digest.hexdigest()}")
    return lines


def test_values_match_committed_data(evaluated, trained, fps_sweep):
    expected = committed_body(EXPECTED, "the values were")
    got = value_lines(evaluated, trained("warm", 0).params, fps_sweep)
    assert len(got) == len(expected)
    for got_line, expected_line in zip(got, expected):
        assert got_line == expected_line


if __name__ == "__main__":
    # the session fixtures' recipe, outside pytest
    from warmproto import GeneratorConfig
    from warmproto.trainer import make_eval_episodes
    from warmproto.warm import resolve_variant

    from .conftest import EVAL_SEED, acceptance_grid, acceptance_sweep

    if not warmproto.BLAS_PINNED:
        raise SystemExit("numpy was loaded before warmproto, so BLAS runs at a thread count these values do not use")
    gen = GeneratorConfig()
    episodes = list(make_eval_episodes(gen, 100, EVAL_SEED))  # scored by the grid and the sweep
    grid = acceptance_grid(gen, episodes)
    lines = value_lines(
        lambda variant, seed: grid[resolve_variant(variant), seed][1],
        grid[resolve_variant("warm"), 0][0].params,
        acceptance_sweep(episodes),
    )
    print("\n".join(header_lines() + lines))
