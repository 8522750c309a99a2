"""Session-scoped fixtures for the expensive benchmark runs.

The acceptance grid, the default recipe's 5 seeds x ``ABLATION_GRID``,
is trained and scored once per pytest session by ``acceptance_grid``:
one ``run_grid`` call, as ``ablate`` makes, on ``worker_cap()`` workers
(one per CPU, since importing the package here, before numpy, pins BLAS
to one thread). ``trained`` and ``evaluated`` look runs up in it, and
``tests/test_acceptance_values.py`` regenerates its data from the same
two functions, ``acceptance_grid`` and ``acceptance_sweep``.
"""

import multiprocessing
import signal

import pytest

from warmproto import GeneratorConfig, TrainConfig
from warmproto.cli import worker_cap
from warmproto.fps import fps_seed_sweep
from warmproto.trainer import make_eval_episodes, run_grid
from warmproto.warm import ABLATION_GRID, resolve_variant

FPS_BASELINE_TOKENS = 3  # desk-scale default, matches configs/default.json
EVAL_SEED = 7700
GRID_SEEDS = range(5)


def acceptance_grid(gen: GeneratorConfig, episodes) -> dict:
    """(trained run, report) of every seed of ``GRID_SEEDS`` and variant of
    ``ABLATION_GRID`` on the default recipe, scored on ``episodes``,
    keyed by (``resolve_variant(variant)``, seed); one ``run_grid`` call,
    seed-major, so each seed's runs train in lockstep."""
    runs = [(TrainConfig(seed=seed), variant) for seed in GRID_SEEDS for variant in ABLATION_GRID]
    results = run_grid(runs, gen, episodes, worker_cap())
    return {(resolve_variant(variant), cfg.seed): result for (cfg, variant), result in zip(runs, results)}


def acceptance_sweep(episodes):
    """The 100-seed baseline sweep on ``episodes``, on ``worker_cap()`` workers."""
    return fps_seed_sweep(episodes, FPS_BASELINE_TOKENS, range(100), worker_cap())


@pytest.fixture(scope="session")
def default_gen():
    return GeneratorConfig()


@pytest.fixture(scope="session")
def bench_episodes(default_gen):
    """The default evaluation benchmark: 100 novel-class episodes, held
    in a list, since the fixtures score it many times."""
    return list(make_eval_episodes(default_gen, 100, EVAL_SEED))


@pytest.fixture(scope="session")
def grid(default_gen, bench_episodes):
    """``acceptance_grid`` on the default benchmark."""
    return acceptance_grid(default_gen, bench_episodes)


@pytest.fixture(scope="session")
def trained(grid):
    return lambda variant, seed: grid[resolve_variant(variant), seed][0]


@pytest.fixture(scope="session")
def evaluated(grid):
    return lambda variant, seed: grid[resolve_variant(variant), seed][1]


@pytest.fixture(scope="session")
def fps_sweep(bench_episodes):
    return acceptance_sweep(bench_episodes)


@pytest.fixture()
def wait_limit():
    """Fail with TimeoutError, rather than hang, when a wait in the test
    (such as the join of a child that never exits) lasts over 30 s; then
    kill the children left, so that exit does not wait on them either."""

    def expire(signum, frame):
        raise TimeoutError("the test waited over 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
