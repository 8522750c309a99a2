"""Session-scoped fixtures for the expensive benchmark runs.

Training runs and evaluations on the default benchmark are cached per
(variant, seed) so the trainer examples, the acceptance criteria and the
ablation grid never repeat a run within one pytest session. Runs go
through the same grid runner as ``ablate``: the requested runs are cut
into contiguous parts, one forked process each, at most ``worker_cap()``
of them (one unless BLAS runs fewer threads than there are CPUs), and a
part's runs of one seed train in lockstep on shared episodes.
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


@pytest.fixture(scope="session")
def default_gen():
    return GeneratorConfig()


@pytest.fixture(scope="session")
def bench_episodes(default_gen):
    """The default evaluation benchmark: 100 novel-class episodes."""
    return make_eval_episodes(default_gen, 100, EVAL_SEED, "novel")


@pytest.fixture(scope="session")
def graded(default_gen, bench_episodes):
    """Memoized (train result, eval result) per (variant, seed) on the
    default benchmark config.

    ``row=True`` trains and scores the missing members of the seed's
    whole ABLATION_GRID row (plus the variant, if it is not a member) in
    one grid call; ``row=False`` computes only the requested run.
    """
    cache = {}

    def get(variant, seed, row):
        key = (resolve_variant(variant), seed)
        if key not in cache:
            missing = {}  # key -> variant name, one run per distinct (mode, restore)
            for v in (ABLATION_GRID if row else ()) + (variant,):
                if (resolve_variant(v), seed) not in cache:
                    missing.setdefault((resolve_variant(v), seed), v)
            runs = [(TrainConfig(seed=seed), v) for v in missing.values()]
            (results,) = run_grid([runs], default_gen, bench_episodes, worker_cap())
            cache.update(zip(missing, results))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def trained(graded):
    """Memoized training on the default benchmark config; one run per
    request, since some callers want a single variant at many seeds."""
    return lambda variant, seed: graded(variant, seed, row=False)[0]


@pytest.fixture(scope="session")
def evaluated(graded):
    """Memoized evaluation on the default benchmark; the first request
    for a seed trains and scores its whole ABLATION_GRID row at once."""
    return lambda variant, seed: graded(variant, seed, row=True)[1]


@pytest.fixture(scope="session")
def fps_sweep(bench_episodes):
    """100-seed baseline sweep on the default benchmark."""
    return fps_seed_sweep(bench_episodes, FPS_BASELINE_TOKENS, range(100))


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
