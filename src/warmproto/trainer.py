"""Episodic meta-training and evaluation.

Training samples one episode per optimizer step from the base classes,
runs the chosen forward variant per shot, averages prototypes across
shots, scores the query set with the margin objective plus the weighted
simplification term, backpropagates into the tokens and projections, and
applies a decoupled-weight-decay moment update. The learning rate drops
by the decay factor at 60% and 80% of the total step budget.

Everything is deterministic given the configs: episode streams, the
parameter init and evaluation all derive from explicit seeds.
"""

from __future__ import annotations

import signal
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .episodes import Episode, GeneratorConfig, gen_episode
from .errors import ArgumentError, CheckpointError, ConfigError, NumericError
from .files import write_csv
from .losses import margin_loss, margin_loss_grad, point_distances, predict, simplification_loss_and_grad
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
    WarmParams,
    ablation_forward,
    average_shots,
    init_params,
    params_as_dict,
    resolve_variant,
    save_checkpoint,
    warm_backward,
)

_INIT_STREAM = 201
_TRAIN_STREAM = 202
EVAL_STREAM = 203  # also the stream `gen` writes, so gen+load reproduces in-memory batches

TRAIN_LOG_COLUMNS = ("episode_idx", "loss_margin", "loss_sim", "loss_total", "grad_norm", "lr")

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
    eps: float = 1e-4
    num_tokens: int = 100
    seed: int = 0
    margin: float = 0.0
    grad_clip: float | None = None
    scale_logits: bool = False
    token_std: float = 0.02

    @property
    def total_steps(self) -> int:
        return self.epochs * self.episodes_per_epoch

    def validate(self) -> None:
        if self.epochs < 0 or self.episodes_per_epoch < 1:
            raise ConfigError("epochs must be >= 0 and episodes_per_epoch >= 1")
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
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
        if self.num_tokens < 1:
            raise ConfigError(f"num_tokens must be >= 1, got {self.num_tokens}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive when set, got {self.grad_clip}")
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
    params: WarmParams, episode: Episode, variant: str, eps: float, scale_logits: bool = False
) -> tuple[dict[int, np.ndarray], list[ForwardResult]]:
    """Per-shot forward passes, prototypes averaged across shots."""
    shots = [
        ablation_forward(params, episode.support_features_by_class(shot), variant, eps, scale_logits)
        for shot in range(episode.k_shot)
    ]
    return average_shots([s.prototypes for s in shots]), shots


def episode_loss(
    protos: dict[int, np.ndarray], episode: Episode, lam: float, margin: float
) -> tuple[float, float, float, dict[int, np.ndarray]]:
    """Query margin loss, support-coverage loss and their total
    margin + lam * coverage, with the total's gradient per class
    prototype matrix."""
    grad_by_class = {label: np.zeros_like(p) for label, p in protos.items()}
    margin_total = 0.0
    for cloud in episode.query:
        field = point_distances(cloud.features, protos)
        margin_total += margin_loss(field, cloud.labels, margin)
        for label, g in margin_loss_grad(cloud.features, protos, field, cloud.labels, margin).items():
            grad_by_class[label] += g
    support = episode.pooled_support_by_class()
    sim, sim_grads = simplification_loss_and_grad(support, protos)
    for label, g in sim_grads.items():
        grad_by_class[label] += lam * g
    return margin_total, sim, margin_total + lam * sim, grad_by_class


@dataclass
class TrainRun:
    """One run's evolving state: parameters, optimizer moments, log rows
    (TRAIN_LOG_COLUMNS) and wall milliseconds per step. ``run_grid``
    returns its runs without the moments (``state`` None)."""

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

    def step(self, episode: Episode, step: int) -> None:
        """Forward, loss, backward and one update on this step's episode.

        A non-finite loss or gradient aborts with the offending episode's
        seed in the message rather than propagating NaNs.
        """
        cfg, params = self.cfg, self.params
        lr = lr_at(cfg, step)
        protos, shots = episode_forward(params, episode, self.variant, cfg.eps, cfg.scale_logits)
        margin, sim, total, grad_by_class = episode_loss(protos, episode, cfg.lam, cfg.margin)
        per_shot = {label: g / episode.k_shot for label, g in grad_by_class.items()}
        grads = {name: np.zeros_like(arr) for name, arr in params_as_dict(params).items()}
        for shot_result in shots:
            for name, g in warm_backward(params, shot_result, per_shot).items():
                grads[name] += g
        grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if not np.isfinite(total) or not np.isfinite(grad_norm):
            raise NumericError(
                f"non-finite loss or gradient at step {step} of variant {self.variant!r} "
                f"(episode stream seed={cfg.seed}, key=({_TRAIN_STREAM}, {step}))"
            )
        if cfg.grad_clip is not None and grad_norm > cfg.grad_clip:
            scale = cfg.grad_clip / grad_norm
            grads = {name: g * scale for name, g in grads.items()}
        self.params, self.state = apply_update(params, grads, self.state, lr, cfg.weight_decay)
        self.log.append((step, margin, sim, total, grad_norm, lr))


def train_grid(
    runs: list[tuple[TrainConfig, str]], gen_cfg: GeneratorConfig, workers: int = 1
) -> list[TrainRun]:
    """Train several (config, variant) runs of one seed in lockstep.

    The training episode depends only on (seed, step) and the generator,
    so each step's episode is generated once and every run steps on it.
    Runs must share the seed and the step count. Each run is
    bit-identical to a standalone ``train`` of the same run, at any
    worker count. With more than one worker the episodes come from a
    forked producer (``_forked``) while the runs step; a
    run's wall time per step counts the wait for the episode, with one
    worker its generation.
    """
    if not runs:
        raise ArgumentError("grid needs at least one run")
    if workers < 1:
        raise ArgumentError(f"workers must be >= 1, got {workers}")
    for cfg, _ in runs:
        cfg.validate()
    gen_cfg.validate()
    for _, variant in runs:
        resolve_variant(variant)
    seed, steps = runs[0][0].seed, runs[0][0].total_steps
    if any(cfg.seed != seed or cfg.total_steps != steps for cfg, _ in runs):
        raise ArgumentError("grid runs must share the seed and the step count")
    states = [TrainRun.start(cfg, gen_cfg, variant) for cfg, variant in runs]

    def draw(step: int) -> Episode:
        # the module binding, so a patch of ``trainer.gen_episode`` reaches the child
        return gen_episode(gen_cfg, derive_rng(seed, _TRAIN_STREAM, step), split="base")

    produce = partial(map, draw, range(steps))
    with _forked(produce) if workers > 1 else nullcontext(produce()) as episodes:
        for step in range(steps):
            started = time.perf_counter()
            episode = next(episodes)
            gen_ms = (time.perf_counter() - started) * 1e3
            for run in states:
                run_started = time.perf_counter()
                run.step(episode, step)
                run.wall.append(gen_ms + (time.perf_counter() - run_started) * 1e3)
    return states


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


def train(
    cfg: TrainConfig,
    gen_cfg: GeneratorConfig,
    variant: str = "warm",
    out_dir=None,
    config_hash: str = "",
    workers: int = 1,
) -> TrainRun:
    """Full training run; optionally persists checkpoint, log and timing.

    The single-run case of ``train_grid``. Episodes come from the base
    split only; with ``workers`` above 1 a forked child generates them
    while the run steps. The parameters and the log do not depend on
    ``workers``; the per-step wall times in ``timing.csv`` count the wait
    for each episode rather than its generation.
    """
    (run,) = train_grid([(cfg, variant)], gen_cfg, workers)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / "checkpoint.json", run.params, cfg.seed, config_hash)
        write_train_log(out_dir / "training_log.csv", run.log)
        write_timing_csv(out_dir / "timing.csv", run.wall)
    return run


def write_train_log(path, rows) -> None:
    write_csv(path, TRAIN_LOG_COLUMNS, ([step] + [repr(float(v)) for v in values] for step, *values in rows))


def write_timing_csv(path, wall_ms) -> None:
    # kept apart from the training log so the log stays byte-reproducible
    write_csv(path, ["episode_idx", "wall_ms"], ([i, f"{ms:.3f}"] for i, ms in enumerate(wall_ms)))


def make_eval_episodes(
    gen_cfg: GeneratorConfig, count: int, seed: int, split: str = "novel"
) -> list[Episode]:
    """Deterministic evaluation batch: episode i uses stream (seed, i)."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    return [
        gen_episode(gen_cfg, derive_rng(seed, EVAL_STREAM, i), split=split) for i in range(count)
    ]


def _score_episode(
    params: WarmParams, episode: Episode, variant: str, eps: float, scale_logits: bool
) -> tuple:
    """One episode's share of an ``evaluate`` report: its (mIoU, per-class
    IoU), foreground attention entropies, diversities and query/key
    distances, and foreground summaries."""
    protos, shots = episode_forward(params, episode, variant, eps, scale_logits)
    preds = np.concatenate([predict(point_distances(q.features, protos)) for q in episode.query])
    truths = np.concatenate([q.labels for q in episode.query])
    ious = miou(preds, truths, range(episode.n_way + 1))
    entropies, diversities, qk_dists = [], [], []
    for shot_result in shots:
        for way in range(episode.n_way):
            trace = shot_result.per_class[way + 1]
            entropies.append(attention_entropy(trace.weights))
            if trace.weights.shape[0] >= 2:
                diversities.append(attention_diversity(trace.weights))
            qk_dists.append(float(pairwise_distances(trace.q, trace.k).mean()))
    return ious, entropies, diversities, qk_dists, fg_summaries(episode)


def evaluate(
    params: WarmParams,
    episodes: list[Episode],
    variant: str = "warm",
    eps: float = 1e-4,
    scale_logits: bool = False,
    workers: int = 1,
) -> MetricsReport:
    """Frozen-parameter evaluation over an episode batch.

    IoU aggregates per episode over the episode-local classes and is then
    averaged (``mean_iou``). Attention diagnostics (entropy, diversity,
    query/key distance) are measured on the foreground ways only,
    averaged over shots, ways and episodes.

    Episodes are scored independently, the batch cut into at most
    ``workers`` contiguous slices, each scored in its own forked child
    (``_fork_map``) that inherits the parameters and the batch; only the
    per-episode values come back, in episode order, before any mean is
    taken, so the result does not depend on the worker count.
    """
    if not episodes:
        raise ArgumentError("evaluation needs at least one episode")
    for i, episode in enumerate(episodes):
        if episode.support[0].feature_dim != params.feature_dim:
            raise CheckpointError(
                f"parameters have D={params.feature_dim} but episode {i} has "
                f"D={episode.support[0].feature_dim}"
            )

    def score(part: Sequence[Episode]) -> list[tuple]:
        return [_score_episode(params, episode, variant, eps, scale_logits) for episode in part]

    ious, *lists = zip(*_fork_map(score, episodes, workers))
    entropies, diversities, qk_dists, summaries = (list(chain.from_iterable(parts)) for parts in lists)
    return MetricsReport(
        *mean_iou(ious),
        **dispersion_metrics(summaries),
        attn_entropy=float(np.mean(entropies)),
        attn_diversity=float(np.mean(diversities)) if diversities else None,
        qk_dist=float(np.mean(qk_dists)),
    )


def _grid_slice(
    part: Sequence[tuple[int, tuple[TrainConfig, str]]], gen_cfg: GeneratorConfig, episodes: list[Episode]
) -> list[tuple[TrainRun, MetricsReport]]:
    """Train a part of a flattened grid, given as (seed group, run) pairs,
    one seed group at a time in lockstep (``train_grid``), and score each
    run in this process on the batch with its own eps and logit scaling.
    Training forks no episode producer: grid parts already own the CPUs."""
    done = []
    for _, group in groupby(part, key=itemgetter(0)):
        runs = [run for _, run in group]
        for (cfg, variant), run in zip(runs, train_grid(runs, gen_cfg)):
            report = evaluate(run.params, episodes, variant, cfg.eps, cfg.scale_logits)
            # spent moments are left behind: they would double what a worker sends back
            done.append((replace(run, state=None), report))
    return done


def _slices(items: Sequence, count: int) -> list[Sequence]:
    """``items`` cut into min(count, len(items)) contiguous slices, longer ones first."""
    count = min(count, len(items))
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _fork_map(func: Callable[[Sequence], list], items: Sequence, workers: int) -> list:
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


def run_grid(
    seed_runs: list[list[tuple[TrainConfig, str]]],
    gen_cfg: GeneratorConfig,
    episodes: list[Episode],
    workers: int = 1,
) -> list[list[tuple[TrainRun, MetricsReport]]]:
    """Train and score a grid given as one list of (config, variant) runs
    per seed; returns (trained run, metrics report) pairs in the same shape.

    The (seed, run) pairs of all seeds are cut once into at most
    ``workers`` contiguous parts, and each part runs ``_grid_slice`` in
    a forked child of ``_fork_map``, which inherits ``episodes`` rather
    than receives it over a pipe. A seed cut between two parts trains in
    both. Training and evaluation inside a part stay in its process, so
    workers never nest. The numbers do not depend on the worker count:
    every run is bit-identical to a standalone ``train`` plus
    ``evaluate``, and when parts fail, the error of the first one in
    (seed, run) order is raised. Workers keep this process's BLAS thread
    count, so ``workers`` times that count should not exceed the CPUs
    (``cli.worker_cap`` picks such a count).
    """
    if not seed_runs or not all(seed_runs):
        raise ArgumentError("grid needs at least one run per seed")
    flat = [(group, run) for group, runs in enumerate(seed_runs) for run in runs]
    done = iter(_fork_map(partial(_grid_slice, gen_cfg=gen_cfg, episodes=episodes), flat, workers))
    return [[next(done) for _ in runs] for runs in seed_runs]
