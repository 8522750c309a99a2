"""Session-scoped fixtures for the expensive benchmark runs.

Training runs and evaluations on the default benchmark are cached per
(variant, seed) so the trainer examples, the acceptance criteria and the
ablation grid never repeat a run within one pytest session. Runs go
through the same grid runner as ``ablate``: the requested runs are cut
into contiguous parts, one forked process each, at most ``worker_cap()``
of them (one per CPU, since importing the package here, before numpy,
pins BLAS to one thread), and a part's runs of one seed train in
lockstep on shared episodes. The FPS seed sweep cuts its episodes over
the same workers.
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
    """The default evaluation benchmark: 100 novel-class episodes, held
    in a list, since the fixtures score it many times."""
    return list(make_eval_episodes(default_gen, 100, EVAL_SEED))


@pytest.fixture(scope="session")
def graded(default_gen, bench_episodes):
    """Memoized (train result, eval result) per (variant, seed) on the
    default benchmark config.

    ``graded(pairs)`` returns the results of the (variant, seed) pairs in
    order. The missing ones, one run per distinct (mode, restore) and
    seed, are trained and scored in one grid call, so several seeds
    spread over the workers.
    """
    cache = {}

    def get(pairs):
        by_seed = {}  # seed -> {key: run}, in request order
        for variant, seed in pairs:
            key = (resolve_variant(variant), seed)
            if key not in cache:
                by_seed.setdefault(seed, {}).setdefault(key, (TrainConfig(seed=seed), variant))
        if by_seed:
            # seed-major, so each seed's runs train in lockstep
            missing = {key: run for runs in by_seed.values() for key, run in runs.items()}
            cache.update(zip(missing, run_grid(list(missing.values()), default_gen, bench_episodes, worker_cap())))
        return [cache[resolve_variant(variant), seed] for variant, seed in pairs]

    return get


@pytest.fixture(scope="session")
def trained(graded):
    """Memoized training on the default benchmark config: the requested
    run alone, not its seed's whole ABLATION_GRID row."""
    return lambda variant, seed: graded([(variant, seed)])[0][0]


@pytest.fixture(scope="session")
def evaluated(graded):
    """Memoized evaluation on the default benchmark; the first request
    for a seed trains and scores its whole ABLATION_GRID row at once."""
    return lambda variant, seed: graded([(v, seed) for v in ABLATION_GRID + (variant,)])[-1][1]


@pytest.fixture(scope="session")
def fps_sweep(bench_episodes):
    """100-seed baseline sweep on the default benchmark, on ``worker_cap()`` workers."""
    return fps_seed_sweep(bench_episodes, FPS_BASELINE_TOKENS, range(100), worker_cap())


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
