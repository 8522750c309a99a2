"""Command-line entry point.

Verbs: gen, train, eval, sweep-fps, ablate, token-sweep, report. Every
command is driven by a strict JSON config (unknown fields are rejected so
sweep typos fail loudly), writes CSV outputs plus a JSON sidecar that
embeds the config and its content hash, and never mutates its inputs.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure,
3 IO or file-format error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import BLAS_PINNED
from .episodes import (
    MAX_SIZE,
    EpisodeBatch,
    GeneratorConfig,
    check_counts,
    gen_episode,
    load_episode,
    read_header,
    save_episode,
)
from .errors import ArgumentError, ConfigError, FormatError, NumericError
from .files import atomic_write, json_int, write_csv
from .fps import evaluate_fps, fps_seed_sweep
from .trainer import TrainConfig, eval_episode, evaluate, make_eval_episodes, run_grid, train
from .warm import ABLATION_GRID, VARIANTS, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = GeneratorConfig()
    train: TrainConfig = TrainConfig()
    method: str = "warm"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_episodes: int = 100
    eval_seed: int = 7700
    fps_tokens: int = 3
    fps_seeds: int = 100
    token_counts: tuple[int, ...] = (1, 10, 100)
    num_episodes: int = 100
    gen_seed: int = 7700

    def __post_init__(self) -> None:
        if self.method != "fps-min-dist" and self.method not in VARIANTS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {['fps-min-dist', *VARIANTS]}")
        check_counts(self, ("eval_episodes", "fps_tokens", "fps_seeds", "num_episodes"))
        for name in ("eval_seed", "gen_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be a nonempty list of seeds >= 0, got {list(self.seeds)}")
        if not self.token_counts or any(not 1 <= m <= MAX_SIZE for m in self.token_counts):
            raise ConfigError(f"token_counts must be a nonempty list of counts in [1, {MAX_SIZE}]")


def _fits(value, hint) -> bool:
    """Whether a JSON value has a config field's annotated type. JSON
    integers are valid floats, non-finite floats are not; booleans are
    neither integers nor floats; a nested config is a JSON object."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # the length is left to the config's own check
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if hint is float:  # NaN, Infinity and integers past a double's range do not fit
        return (_fits(value, int) or isinstance(value, float)) and abs(value) <= sys.float_info.max
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, dict if is_dataclass(hint) else hint)


def _build_dataclass(cls, data: dict, section: str):
    """``cls`` from a JSON object, each nested config from its own (its section)."""
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in section '{section}'")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in data and not _fits(data[f.name], hints[f.name]):
            raise ConfigError(
                f"field '{f.name}' in section '{section}' must be {f.type}, got {json.dumps(data[f.name])}"
            )
    kwargs = {}
    for name, value in data.items():
        if is_dataclass(hints[name]):
            value = _build_dataclass(hints[name], value, name)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in section '{section}': {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; json.loads would keep the last of
    two equal keys, so the strict checks would never see the first value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"key '{key}' appears twice in one JSON object")
        data[key] = value
    return data


def load_experiment_config(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys, parse_int=json_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object at the top level")
    return _build_dataclass(ExperimentConfig, data, "top level")


def config_sha256(cfg: ExperimentConfig) -> str:
    # json.dumps writes asdict's tuples as lists, as the config file has them
    return hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()


def write_sidecar(path, command: str, cfg: ExperimentConfig) -> None:
    payload = {"command": command, "config": asdict(cfg), "config_sha256": config_sha256(cfg)}
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def worker_cap() -> int:
    """Worker processes for ``eval``, ``sweep-fps``, the ``ablate`` and
    ``token-sweep`` grids, and ``train``, where above 1 it turns on the
    forked episode producer.

    The CPUs this process may use when the import pinned BLAS to one
    thread (``BLAS_PINNED``), else 1, as BLAS may then thread over every
    CPU; to run on fewer, limit the CPU set (``taskset -c 0``). Each
    worker is one forked child (``trainer._forked``), never more than
    there are episodes or runs, and outputs do not depend on the count.
    ``gen`` runs in one process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if BLAS_PINNED else 1


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _eval_batch(cfg: ExperimentConfig, data_dir, ways: bool = False) -> EpisodeBatch:
    """The config's in-memory batch, or ``data_dir``'s episode files in
    name order, each episode read or generated when it is scored. Only the
    files' headers are read here: a bad header, or a D other than the
    config's (the grids train at it), fails before any work, and with
    ``ways`` an n_way other than the config's (it sets the IoU columns)."""
    if data_dir is None:
        return make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed)
    paths = sorted(Path(data_dir).glob("*.warmep"))
    if not paths:
        raise ArgumentError(f"no .warmep episode files under {data_dir}")
    headers = [read_header(p) for p in paths]
    checks = {"D": (cfg.generator.feature_dim, [h.feature_dim for h in headers])}
    if ways:
        checks["n_way"] = (cfg.generator.n_way, [h.n_way for h in headers])
    for name, (expected, values) in checks.items():
        for i, value in enumerate(values):
            if value != expected:
                raise ConfigError(f"config has {name}={expected} but episode {i} has {name}={value}")
    return EpisodeBatch(load_episode, paths)


def cmd_gen(args) -> None:
    cfg = load_experiment_config(args.config)
    names = {f"ep_{i:05d}.warmep" for i in range(cfg.num_episodes)}
    # eval --data would score another batch's leftovers with this one
    stale = sorted(p.name for p in Path(args.out).glob("*.warmep") if p.name not in names)
    if stale:
        raise ArgumentError(f"{args.out} holds {stale[0]}, which a batch of {cfg.num_episodes} does not write")
    out = _out_dir(args)
    for i in range(cfg.num_episodes):
        save_episode(eval_episode(gen_episode, cfg.generator, cfg.gen_seed, i), out / f"ep_{i:05d}.warmep")
    write_sidecar(out / "generator_config.json", "gen", cfg)
    print(f"gen: wrote {cfg.num_episodes} episodes to {out}")


def cmd_train(args) -> None:
    cfg = load_experiment_config(args.config)
    if cfg.method == "fps-min-dist":
        raise ConfigError("method 'fps-min-dist' has no learnable parameters; nothing to train")
    cfg = cfg if args.seed is None else replace(cfg, train=replace(cfg.train, seed=args.seed))
    out = _out_dir(args)
    run = train(cfg.train, cfg.generator, variant=cfg.method, workers=worker_cap())
    save_checkpoint(out / "checkpoint.json", run.params, cfg.train.seed, config_sha256(cfg))
    write_csv(
        out / "training_log.csv",
        ["episode_idx", "loss_margin", "loss_sim", "loss_total", "grad_norm", "lr"],
        ([step] + [repr(float(v)) for v in values] for step, *values in run.log),
    )
    # kept apart from the training log so the log stays byte-reproducible
    write_csv(out / "timing.csv", ["episode_idx", "wall_ms"], ([i, f"{ms:.3f}"] for i, ms in enumerate(run.wall)))
    write_sidecar(out / "train_config.json", "train", cfg)
    final = run.log[-1][3] if run.log else float("nan")
    print(f"train[{cfg.method}]: {len(run.log)} episodes, final loss {final:.4f}, checkpoint {out / 'checkpoint.json'}")


def cmd_eval(args) -> None:
    cfg = load_experiment_config(args.config)
    if cfg.method == "fps-min-dist":
        if args.checkpoint is not None:
            raise ConfigError("method 'fps-min-dist' has no learnable parameters; it does not read --checkpoint")
    elif args.checkpoint is None:
        raise ConfigError(f"method {cfg.method!r} needs --checkpoint")
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data, ways=True)
    if cfg.method == "fps-min-dist":
        report = evaluate_fps(episodes, cfg.fps_tokens, cfg.eval_seed, worker_cap())
    else:
        params, _meta = load_checkpoint(args.checkpoint)
        (report,) = evaluate([(params, cfg.method)], episodes, worker_cap())
    labels = list(range(cfg.generator.n_way + 1))
    diagnostics = ["d_intra", "d_inter", "d_instance", "attn_entropy", "attn_diversity", "qk_dist"]
    values = [report.miou] + [report.per_class_iou.get(c) for c in labels] + [getattr(report, n) for n in diagnostics]
    # None (no attention head, no same-class pair, a class absent from the batch) is a blank cell
    write_csv(
        out / "metrics.csv",
        ["miou"] + [f"iou_{c}" for c in labels] + diagnostics,
        [["" if v is None else repr(float(v)) for v in values]],
    )
    write_sidecar(out / "eval_config.json", "eval", cfg)
    print(f"eval[{cfg.method}]: mIoU {report.miou:.4f} over {len(episodes)} episodes -> {out / 'metrics.csv'}")


def cmd_sweep_fps(args) -> None:
    cfg = load_experiment_config(args.config)
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data, ways=True)
    result = fps_seed_sweep(episodes, cfg.fps_tokens, range(cfg.fps_seeds), worker_cap())
    labels = list(range(cfg.generator.n_way + 1))
    rows = [
        [seed, repr(float(report.miou))]
        + [repr(float(report.per_class_iou.get(c, float("nan")))) for c in labels]
        for seed, report in zip(result.seeds, result.reports)
    ]
    write_csv(out / "sweep.csv", ["seed", "mean_miou"] + [f"iou_{c}" for c in labels], rows)
    summary = (result.best, result.worst, result.mean, result.stdev, result.best - result.worst)
    write_csv(out / "sweep_summary.csv", ["best", "worst", "mean", "stdev", "spread"], [[repr(v) for v in summary]])
    write_sidecar(out / "sweep_config.json", "sweep-fps", cfg)
    print(
        f"sweep-fps: {cfg.fps_seeds} seeds, best {result.best:.4f}, worst {result.worst:.4f}, "
        f"spread {result.best - result.worst:.4f}"
    )


def cmd_ablate(args) -> None:
    cfg = load_experiment_config(args.config)
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    runs = [(replace(cfg.train, seed=seed), variant) for seed in cfg.seeds for variant in ABLATION_GRID]
    rows = [
        [run.variant, run.cfg.seed, repr(float(report.qk_dist)), repr(float(report.miou))]
        for run, report in run_grid(runs, cfg.generator, episodes, worker_cap())
    ]
    write_csv(out / "ablation.csv", ["variant", "seed", "qk_dist", "miou"], rows)
    write_sidecar(out / "ablation_config.json", "ablate", cfg)
    print(f"ablate: {len(rows)} rows ({len(ABLATION_GRID)} variants x {len(cfg.seeds)} seeds) -> {out / 'ablation.csv'}")


def cmd_token_sweep(args) -> None:
    cfg = load_experiment_config(args.config)
    if cfg.method == "fps-min-dist":
        raise ConfigError("token-sweep needs a trainable method")
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    counts = [int(m) for m in cfg.token_counts]
    runs = [(replace(cfg.train, seed=seed, num_tokens=m), cfg.method) for seed in cfg.seeds for m in counts]
    mious = [report.miou for _, report in run_grid(runs, cfg.generator, episodes, worker_cap())]
    # per token count, one mIoU per seed in seed order
    scores = [mious[i :: len(counts)] for i in range(len(counts))]
    rows = [[m, repr(float(np.mean(s))), repr(float(np.std(s)))] for m, s in zip(counts, scores)]
    write_csv(out / "token_sweep.csv", ["M", "miou_mean", "miou_std"], rows)
    write_sidecar(out / "token_sweep_config.json", "token-sweep", cfg)
    print(f"token-sweep: {len(rows)} token counts -> {out / 'token_sweep.csv'}")


def cmd_report(args) -> None:
    data = Path(args.data)
    if not data.exists():
        raise ArgumentError(f"no such directory: {data}")
    found = False
    for name in ("metrics.csv", "sweep_summary.csv", "ablation.csv", "token_sweep.csv", "training_log.csv"):
        path = data / name
        if not path.exists():
            continue
        found = True
        try:
            with path.open(encoding="utf-8") as fh:
                reader = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path} is not a readable CSV file: {exc}") from exc
        print(f"== {name}")
        if name == "training_log.csv" and len(reader) > 11:
            for row in reader[:1] + reader[-10:]:
                print(",".join(row))
            print(f"({len(reader) - 1} episodes total; last 10 shown)")
        else:
            for row in reader:
                print(",".join(row))
    if not found:
        raise ArgumentError(f"no known result CSVs under {data}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefixes: one spelling per option
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="warmproto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, data=False, out=True, checkpoint=False, seed=False):
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        if out:
            p.add_argument("--out", type=Path, required=True, help="output directory")
        if data:
            p.add_argument("--data", type=Path, default=None, help="directory of .warmep episode files")
        if checkpoint:
            p.add_argument("--checkpoint", type=Path, default=None, help="parameter checkpoint JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config's train.seed")
        p.set_defaults(func=func)
        return p

    add("gen", cmd_gen)
    add("train", cmd_train, seed=True)
    add("eval", cmd_eval, data=True, checkpoint=True)
    add("sweep-fps", cmd_sweep_fps, data=True)
    add("ablate", cmd_ablate, data=True)
    add("token-sweep", cmd_token_sweep, data=True)
    report = sub.add_parser("report", help="print a text summary of a result directory")
    report.add_argument("--data", type=Path, required=True, help="result directory to summarize")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # the finiteness checks report overflow in one NumericError line;
        # numpy's warnings would precede it. Forked workers inherit this.
        with np.errstate(all="ignore"):
            args.func(args)
        return 0
    except (ConfigError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config within the size bounds that still does not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"io/format failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
