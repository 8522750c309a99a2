"""Episodic meta-training and evaluation.

Training samples one episode per optimizer step from the base classes,
runs the chosen forward variant once per class on the support pooled
over the shots, scores the query set with the margin objective plus the
weighted simplification term, backpropagates into the tokens and
projections, and applies a decoupled-weight-decay moment update. The
learning rate drops by the decay factor at 60% and 80% of the total
step budget.

Everything is deterministic given the configs: episode streams, the
parameter init and evaluation all derive from explicit seeds.
"""

from __future__ import annotations

import signal
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, islice

import numpy as np

from .episodes import MAX_SIZE, Episode, EpisodeBatch, GeneratorConfig, PointCloud, check_counts, gen_episode
from .errors import ArgumentError, CheckpointError, ConfigError, NumericError
from .losses import margin_loss_grad, point_distances, predict, simplification_loss_and_grad
from .metrics import (
    MetricsReport,
    attention_diversity,
    attention_entropy,
    dispersion_metrics,
    fg_summaries,
    mean_iou,
    miou,
)
from .linalg import pairwise_distances
from .rng import derive_rng
from .warm import (
    ForwardResult,
    PARAM_NAMES,
    ShotSupport,
    WarmParams,
    ablation_forward,
    average_shots,
    episode_support,
    init_params,
    params_as_dict,
    resolve_variant,
    warm_backward,
)

_INIT_STREAM = 201
_TRAIN_STREAM = 202
_EVAL_STREAM = 203

# moment decay rates and the denominator's stabilizer of the optimizer update
_BETA1, _BETA2, _STAB_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    episodes_per_epoch: int = 200
    lr: float = 1e-4
    weight_decay: float = 0.01
    lr_decay_factor: float = 0.1
    lr_milestones: tuple[float, float] = (0.6, 0.8)
    lam: float = 0.5
    num_tokens: int = 100
    seed: int = 0
    margin: float = 0.0
    token_std: float = 0.02

    @property
    def total_steps(self) -> int:
        return self.epochs * self.episodes_per_epoch

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        check_counts(self, ("episodes_per_epoch", "num_tokens"))
        if self.total_steps > MAX_SIZE:
            raise ConfigError(f"epochs * episodes_per_epoch must be <= {MAX_SIZE}, got {self.total_steps}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        ms = self.lr_milestones
        if len(ms) != 2 or not (0.0 < ms[0] < ms[1] < 1.0):
            raise ConfigError(f"lr_milestones must be ascending inside (0, 1), got {ms}")
        if self.lam < 0 or self.margin < 0:
            raise ConfigError("lam and margin must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
        if not self.token_std >= 0:
            raise ConfigError(f"token_std must be >= 0, got {self.token_std}")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer(params: WarmParams) -> OptimizerState:
    zeros = {name: np.zeros_like(arr) for name, arr in params_as_dict(params).items()}
    return OptimizerState(m=zeros, v={name: arr.copy() for name, arr in zeros.items()})


def apply_update(
    params: WarmParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> tuple[WarmParams, OptimizerState]:
    """One bias-corrected moment step with decoupled weight decay.

    Pure: returns fresh parameter and state values, inputs untouched.
    The decay term lr * wd * theta is subtracted independently of the
    gradient-driven update.
    """
    t = state.step + 1
    new_m, new_v, new_params = {}, {}, {}
    for name in PARAM_NAMES:
        g = grads[name]
        theta = getattr(params, name)
        if g.shape != theta.shape:
            raise ArgumentError(f"gradient shape {g.shape} does not match {name} {theta.shape}")
        m = _BETA1 * state.m[name] + (1 - _BETA1) * g
        v = _BETA2 * state.v[name] + (1 - _BETA2) * g * g
        m_hat = m / (1 - _BETA1**t)
        v_hat = v / (1 - _BETA2**t)
        new_params[name] = theta - lr * m_hat / (np.sqrt(v_hat) + _STAB_EPS) - lr * weight_decay * theta
        new_m[name] = m
        new_v[name] = v
    return WarmParams(**new_params), OptimizerState(new_m, new_v, t)


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Step-granular schedule: decayed once past each milestone fraction of the run."""
    m1 = int(np.floor(cfg.lr_milestones[0] * cfg.total_steps))
    m2 = int(np.floor(cfg.lr_milestones[1] * cfg.total_steps))
    return cfg.lr * cfg.lr_decay_factor ** (int(step >= m1) + int(step >= m2))


def episode_forward(
    params: WarmParams, support: ShotSupport, variant: str
) -> tuple[dict[int, np.ndarray], ForwardResult]:
    """The prototypes and the forward trace of one variant on an
    episode's ``episode_support``."""
    result = ablation_forward(params, support, variant)
    # a mean of one set, bit-identical to it: the benchmark's tracer times average_shots as a layer
    return average_shots([result.prototypes]), result


def episode_loss(
    protos: dict[int, np.ndarray], query: list[PointCloud], support: ShotSupport, lam: float, margin: float
) -> tuple[float, float, float, dict[int, np.ndarray]]:
    """Margin loss over an episode's query clouds, support-coverage loss
    and their total margin + lam * coverage, with the total's gradient
    per class prototype matrix. Coverage reads the support features the
    prototypes are built from (``episode_support``)."""
    grad_by_class = {label: np.zeros_like(p) for label, p in protos.items()}
    margin_total = 0.0
    for cloud in query:
        field = point_distances(cloud.features, protos)
        loss, grads = margin_loss_grad(cloud.features, protos, field, cloud.labels, margin)
        margin_total += loss
        for label, g in grads.items():
            grad_by_class[label] += g
    sim, sim_grads = simplification_loss_and_grad(support.features, protos)
    for label, g in sim_grads.items():
        grad_by_class[label] += lam * g
    return margin_total, sim, margin_total + lam * sim, grad_by_class


@dataclass
class TrainRun:
    """One run's evolving state: parameters, optimizer moments, log rows
    (step, margin loss, simplification loss, total loss, gradient norm,
    learning rate) and wall milliseconds per step. ``train_grid`` returns
    its runs without the spent moments (``state`` None): nothing reads
    them after training."""

    cfg: TrainConfig
    variant: str
    params: WarmParams
    state: OptimizerState | None
    log: list[tuple] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)

    @classmethod
    def start(cls, cfg: TrainConfig, gen_cfg: GeneratorConfig, variant: str) -> "TrainRun":
        params = init_params(
            gen_cfg.feature_dim, cfg.num_tokens, derive_rng(cfg.seed, _INIT_STREAM), cfg.token_std
        )
        return cls(cfg, variant, params, init_optimizer(params))

    def step(self, query: list[PointCloud], support: ShotSupport, step: int) -> None:
        """Forward, loss, backward and one update on this step's episode:
        its query clouds and its ``episode_support``.

        A non-finite loss or gradient aborts with the offending episode's
        seed in the message rather than propagating NaNs.
        """
        cfg, params = self.cfg, self.params
        lr = lr_at(cfg, step)
        protos, result = episode_forward(params, support, self.variant)
        margin, sim, total, grad_by_class = episode_loss(protos, query, support, cfg.lam, cfg.margin)
        grads = warm_backward(params, result, grad_by_class)
        grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if not np.isfinite(total) or not np.isfinite(grad_norm):
            raise NumericError(
                f"non-finite loss or gradient at step {step} of variant {self.variant!r} "
                f"(episode stream seed={cfg.seed}, key=({_TRAIN_STREAM}, {step}))"
            )
        self.params, self.state = apply_update(params, grads, self.state, lr, cfg.weight_decay)
        self.log.append((step, margin, sim, total, grad_norm, lr))


def train_grid(
    runs: list[tuple[TrainConfig, str]], gen_cfg: GeneratorConfig, workers: int = 1
) -> list[TrainRun]:
    """Train (config, variant) runs, each bit-identical to a standalone
    ``train`` of it, at any worker count; the runs come back in order,
    without their spent optimizer moments.

    The training episode depends only on (seed, step) and the generator,
    so each contiguous group of runs that share the seed and the step
    count trains in lockstep: each step's episode and its
    ``episode_support`` are computed once and every run of the group
    steps on them, whatever its variant. With more than one worker the
    episodes and their support come from a forked producer (``_forked``)
    while the runs step, so a step does only parameter work; a run's wall
    time per step counts the wait for them, with one worker their
    computation.

    The error raised is that of the first failing run in run order: the
    runs of a group before a failed one keep stepping, the runs after it
    stop. So a grid cut into parts anywhere raises the same error.
    """
    if workers < 1:
        raise ArgumentError(f"workers must be >= 1, got {workers}")
    _check_runs(runs)
    trained = []
    for (seed, steps), group in groupby(runs, key=lambda run: (run[0].seed, run[0].total_steps)):
        states = [TrainRun.start(cfg, gen_cfg, variant) for cfg, variant in group]
        produce = partial(map, partial(_training_episode, gen_cfg, seed), range(steps))
        with _forked(produce) if workers > 1 else nullcontext(produce()) as episodes:
            live, error = states, None
            for step in range(steps):
                if not live:
                    break
                started = time.perf_counter()
                query, support = next(episodes)
                gen_ms = (time.perf_counter() - started) * 1e3
                for i, run in enumerate(live):
                    run_started = time.perf_counter()
                    try:
                        run.step(query, support, step)
                    except Exception as exc:
                        # the runs after it need not train: their errors come later in run order
                        live, error = live[:i], exc
                        break
                    run.wall.append(gen_ms + (time.perf_counter() - run_started) * 1e3)
            if error is not None:
                raise error
        for run in states:
            run.state = None
        trained += states
    return trained


def _check_runs(runs: list[tuple[TrainConfig, str]]) -> None:
    """Reject an empty grid, or an unknown variant, before any run trains; configs check themselves."""
    if not runs:
        raise ArgumentError("grid needs at least one run")
    for _, variant in runs:
        resolve_variant(variant)


def _training_episode(gen_cfg: GeneratorConfig, seed: int, step: int) -> tuple[list[PointCloud], ShotSupport]:
    """The query clouds and ``episode_support`` of training step ``step`` of seed ``seed``."""
    # the module binding, so a patch of ``trainer.gen_episode`` reaches the child
    episode = gen_episode(gen_cfg, derive_rng(seed, _TRAIN_STREAM, step), split="base")
    return episode.query, episode_support(episode)


@contextmanager
def _forked(produce: Callable[[], Iterable]) -> Iterator[Iterator]:
    """The items of ``produce()``, in order, computed in one forked child.

    The child sends each item, or the first exception instead, over a
    one-way pipe whose kernel buffer bounds how far ahead of the reader
    it runs. The exception is raised here with its type and message; a
    child that exits before sending what is read raises
    ``ChildProcessError`` with its exit code. On an exceptional exit the
    child is terminated. On every exit this closes its end of the pipe
    and joins the child. Where ``fork`` is unavailable ``produce()`` runs
    in this process.

    Fork, not spawn: the child gets the caller's state, ``produce``
    included, without pickling and needs no re-import; the package
    starts no threads of its own to fork.
    """
    # imported here: about 0.8 MB more in every process, which calls that never fork should not pay
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield iter(produce())
        return
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_produce, args=(produce, receiver, sender))
    child.start()
    sender.close()
    try:
        yield _received(receiver, child)
    except BaseException:
        child.terminate()  # its results would go unread
        raise
    finally:
        receiver.close()
        child.join()


def _produce(produce: Callable[[], Iterable], receiver, sender) -> None:
    """The child of ``_forked``: every item of ``produce()``, or the first
    exception, sent in order."""
    # Ctrl-C reaches the whole process group; the parent handles it and stops the child
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    receiver.close()  # else this process would hold the read end open and never see the parent leave
    try:
        for item in produce():
            sender.send(item)
    except BrokenPipeError:  # the parent stopped reading
        pass
    except Exception as exc:
        try:
            sender.send(exc)
        except BrokenPipeError:
            pass


def _received(receiver, child) -> Iterator:
    while True:
        try:
            item = receiver.recv()
        except EOFError:
            child.join()
            raise ChildProcessError(
                f"a forked worker exited with code {child.exitcode} before sending its results"
            ) from None
        if isinstance(item, Exception):
            raise item
        yield item


def train(cfg: TrainConfig, gen_cfg: GeneratorConfig, variant: str = "warm", workers: int = 1) -> TrainRun:
    """Full training run: the single-run case of ``train_grid``.

    Episodes come from the base split only; with ``workers`` above 1 a
    forked child generates them, and splits and takes the statistics of
    their support, while the run steps. The parameters and
    the log do not depend on ``workers``; the per-step wall times count
    the wait for each episode rather than its preparation.
    """
    (run,) = train_grid([(cfg, variant)], gen_cfg, workers)
    return run


def eval_episode(generate: Callable[..., Episode], gen_cfg: GeneratorConfig, seed: int, index: int) -> Episode:
    """Episode ``index`` of the evaluation batch of ``seed``: the novel-class
    episode ``generate`` (a ``gen_episode``) draws from stream (seed, index).
    ``gen`` writes these episodes and ``make_eval_episodes`` scores them,
    so gen + load reproduces an in-memory batch."""
    return generate(gen_cfg, derive_rng(seed, _EVAL_STREAM, index), split="novel")


def make_eval_episodes(gen_cfg: GeneratorConfig, count: int, seed: int) -> EpisodeBatch:
    """Deterministic evaluation batch of ``count`` novel-class episodes
    (``eval_episode``), each generated when it is read, through the
    ``gen_episode`` this module holds when the batch is made."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    return EpisodeBatch(partial(eval_episode, gen_episode, gen_cfg, seed), range(count))


def _score_episode(runs: Sequence[tuple[WarmParams, str]], episode: Episode) -> tuple:
    """One episode's share of an ``evaluate`` call: per run, on one
    ``episode_support``, its (mIoU, per-class IoU) and foreground attention
    entropies, diversities and query/key distances; then its foreground summaries."""
    support = episode_support(episode)
    truths = np.concatenate([q.labels for q in episode.query])
    scores = []
    for params, variant in runs:
        protos, result = episode_forward(params, support, variant)
        preds = np.concatenate([predict(point_distances(q.features, protos)) for q in episode.query])
        entropies, diversities, qk_dists = [], [], []
        for way in range(episode.n_way):
            trace = result.per_class[way + 1]
            entropies.append(attention_entropy(trace.weights))
            if trace.weights.shape[0] >= 2:
                diversities.append(attention_diversity(trace.weights))
            qk_dists.append(float(pairwise_distances(trace.q, trace.k).mean()))
        scores.append((miou(preds, truths, range(episode.n_way + 1)), entropies, diversities, qk_dists))
    return scores, fg_summaries(support.features, episode.class_ids)


def evaluate(
    runs: Sequence[tuple[WarmParams, str]], episodes: Sequence[Episode], workers: int = 1
) -> list[MetricsReport]:
    """Frozen-parameter evaluation of (parameters, variant) runs over an
    episode batch on at most ``workers`` forked workers (``score_batch``):
    one report per run, in run order.

    IoU aggregates per episode over the episode-local classes and is then
    averaged (``mean_iou``). Attention diagnostics (entropy, diversity,
    query/key distance) are measured on the foreground ways only,
    averaged over ways and episodes; the dispersion fields are the
    batch's, the same in every report. Every run is scored on one
    ``episode_support`` per episode; the error raised is the first in
    (episode, run) order, a run whose D differs from the episode's among
    them. ``run_grid`` scores a whole grid in one call.
    """

    def score(i: int, episode: Episode) -> tuple:
        for params, _ in runs:
            if episode.support[0].feature_dim != params.feature_dim:
                raise CheckpointError(
                    f"parameters have D={params.feature_dim} but episode {i} has D={episode.support[0].feature_dim}"
                )
        return _score_episode(runs, episode)

    per_episode, summaries = zip(*score_batch(episodes, score, workers))
    dispersion = dispersion_metrics(list(chain.from_iterable(summaries)))
    reports = []
    for scores in zip(*per_episode):
        ious, *lists = zip(*scores)
        entropies, diversities, qk_dists = (list(chain.from_iterable(parts)) for parts in lists)
        reports.append(
            MetricsReport(
                *mean_iou(ious),
                **dispersion,
                attn_entropy=float(np.mean(entropies)),
                attn_diversity=float(np.mean(diversities)) if diversities else None,
                qk_dist=float(np.mean(qk_dists)),
            )
        )
    return reports


def _slices(items: Sequence, count: int) -> list[Sequence]:
    """``items`` cut into max(1, min(count, len(items))) contiguous slices, longer ones first."""
    count = max(1, min(count, len(items)))
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def fork_map(func: Callable[[Sequence], list], items: Sequence, workers: int) -> list:
    """The results of ``func(part)``, one per item, over ``items`` cut into
    at most ``workers`` contiguous parts (``_slices``), joined in order.

    With more than one worker each part runs in its own ``_forked`` child,
    which inherits ``func`` and whatever it reads; only the results cross
    a pipe. ``func`` returns a list, so a child computes its whole part
    before it sends: were the results streamed, a full pipe would stall
    the child while this process still reads an earlier part. With one
    worker the whole list runs in this process. The parts are read back
    in order, so when parts fail, the error of the first one in order is
    raised, and the children still running are stopped.
    """
    if workers < 1:
        raise ArgumentError(f"workers must be >= 1, got {workers}")
    parts = _slices(items, workers)
    if len(parts) == 1:
        return func(items)
    with ExitStack() as stack:
        streams = [stack.enter_context(_forked(partial(func, part))) for part in parts]
        return [item for part, stream in zip(parts, streams) for item in islice(stream, len(part))]


def score_batch(episodes: Sequence[Episode], score: Callable[[int, Episode], object], workers: int = 1) -> list:
    """``score(i, episodes[i])`` for every episode of a non-empty batch,
    in episode order: the one batch loop of ``evaluate`` and the FPS verbs.

    The batch is cut into at most ``workers`` contiguous slices, each
    scored in its own forked child (``fork_map``) that inherits ``score``
    and the batch. A worker reads its episodes one at a time and drops
    each once scored, so an ``EpisodeBatch`` is loaded or generated only
    in the worker that scores it. Only the per-episode results come back,
    in episode order, before the caller takes any mean, so neither the
    result nor the error raised, the first in episode order, depends on
    the worker count.
    """
    if not episodes:
        raise ArgumentError("scoring needs at least one episode")
    return fork_map(lambda part: [score(i, episodes[i]) for i in part], range(len(episodes)), workers)


def run_grid(
    runs: list[tuple[TrainConfig, str]],
    gen_cfg: GeneratorConfig,
    episodes: Sequence[Episode],
    workers: int = 1,
) -> list[tuple[TrainRun, MetricsReport]]:
    """Train and score a grid of (config, variant) runs; returns one
    (trained run, metrics report) pair per run, in run order.

    ``train_grid`` trains the runs in at most ``workers`` contiguous
    parts, each in a forked child of ``fork_map`` (a seed cut between
    two parts trains in both); then one ``evaluate`` call on ``workers``
    scores every run, so each episode's support is built once for the
    whole grid. Every run is bit-identical to a standalone ``train`` plus
    ``evaluate`` at any worker count. The error raised is that of the
    first failing run in run order, else the first scoring error in
    (episode, run) order. Workers keep this process's BLAS thread count,
    which the import pins to one, so ``cli.worker_cap`` gives one worker
    per CPU this process may use.
    """
    _check_runs(runs)
    trained = fork_map(partial(train_grid, gen_cfg=gen_cfg), runs, workers)
    return list(zip(trained, evaluate([(run.params, run.variant) for run in trained], episodes, workers)))
