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
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .episodes import GeneratorConfig, gen_episode, load_episode, save_episode
from .errors import ArgumentError, ConfigError, FormatError, NumericError
from .files import atomic_write, write_csv
from .fps import evaluate_fps, fps_seed_sweep, write_sweep_csv, write_sweep_summary_csv
from .metrics import write_metrics_csv
from .rng import derive_rng
from .trainer import EVAL_STREAM, TrainConfig, evaluate, make_eval_episodes, run_grid, train
from .warm import ABLATION_GRID, MODES, VARIANTS, load_checkpoint


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = GeneratorConfig()
    train: TrainConfig = TrainConfig()
    method: str = "warm"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_episodes: int = 100
    eval_seed: int = 7700
    eval_split: str = "novel"
    fps_tokens: int = 3
    fps_seeds: int = 100
    token_counts: tuple[int, ...] = (1, 10, 100)
    num_episodes: int = 100
    gen_split: str = "novel"
    gen_seed: int = 7700

    def validate(self) -> None:
        self.generator.validate()
        self.train.validate()
        parse_method(self.method)
        for name in ("eval_episodes", "fps_tokens", "fps_seeds", "num_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("eval_seed", "gen_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("eval_split", "gen_split"):
            if getattr(self, name) not in ("base", "novel"):
                raise ConfigError(f"{name} must be 'base' or 'novel', got {getattr(self, name)!r}")
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be a nonempty list of seeds >= 0, got {list(self.seeds)}")
        if not self.token_counts or any(m < 1 for m in self.token_counts):
            raise ConfigError("token_counts must be a nonempty list of counts >= 1")


def parse_method(method: str) -> str:
    """Normalize a method string to a ``VARIANTS`` name.

    Accepts fps-min-dist, the ``VARIANTS`` names (warm, naive and the
    grid row names), and the ablation:<mode>,<on|off> form, which names
    the grid row with that (mode, restore) pair.
    """
    if method == "fps-min-dist" or method in VARIANTS:
        return method
    if method.startswith("ablation:"):
        body = method[len("ablation:") :]
        mode, _, restore_word = body.partition(",")
        if mode not in MODES:
            raise ConfigError(f"unknown ablation mode {mode!r}; expected one of {MODES}")
        if restore_word not in ("on", "off"):
            raise ConfigError(f"ablation restore flag must be 'on' or 'off', got {restore_word!r}")
        by_pair = {VARIANTS[name]: name for name in ABLATION_GRID}
        # naive has no restoration step, so it is the row for either flag
        return by_pair.get((mode, restore_word == "on"), mode)
    raise ConfigError(
        f"unknown method {method!r}; expected warm, naive, fps-min-dist, or ablation:<mode>,<on|off>"
    )


def _fits(value, hint) -> bool:
    """Whether a JSON value has a config field's annotated type. JSON
    integers are valid floats, non-finite floats are not; booleans are
    neither integers nor floats."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # the length is left to validate()
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(_fits(value, a) for a in args)
    if hint is float:  # json.loads reads NaN and Infinity as floats
        return _fits(value, int) or isinstance(value, float) and math.isfinite(value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _build_dataclass(cls, data: dict, section: str):
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
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in section '{section}': {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    if path is None:
        cfg = ExperimentConfig()
        cfg.validate()
        return cfg
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object at the top level")
    top = dict(data)
    gen_data = top.pop("generator", {})
    train_data = top.pop("train", {})
    if not isinstance(gen_data, dict) or not isinstance(train_data, dict):
        raise ConfigError("sections 'generator' and 'train' must be JSON objects")
    cfg = _build_dataclass(ExperimentConfig, top, "top level")
    cfg = replace(
        cfg,
        generator=_build_dataclass(GeneratorConfig, gen_data, "generator"),
        train=_build_dataclass(TrainConfig, train_data, "train"),
    )
    cfg.validate()
    return cfg


def config_sha256(cfg: ExperimentConfig) -> str:
    # json.dumps writes asdict's tuples as lists, as the config file has them
    return hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()


def write_sidecar(path, command: str, cfg: ExperimentConfig) -> None:
    payload = {"command": command, "config": asdict(cfg), "config_sha256": config_sha256(cfg)}
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# BLAS thread-count variables, read when numpy loads; the first one set counts
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_cap() -> int:
    """Worker processes for ``eval`` with an attention method, for the
    ``ablate`` and ``token-sweep`` grids, and for ``train``, where above 1
    it turns on the forked episode producer.

    WARM_THREADS if set. Otherwise the CPUs this process may use divided
    by the BLAS threads each process runs, taken from BLAS_THREAD_VARS;
    with none of them set, BLAS already uses every CPU, so 1. Workers
    inherit the BLAS thread count, and more busy BLAS threads than CPUs
    made a grid several times slower. Each worker is one forked child
    (``trainer._forked``), never more than there are episodes or runs,
    and outputs do not depend on the count.
    Every verb validates it; ``gen`` and the FPS verbs run in one process.
    """
    raw = os.environ.get("WARM_THREADS")
    if raw is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        for var in BLAS_THREAD_VARS:
            value = os.environ.get(var, "")
            if value.isdigit() and int(value) >= 1:
                return max(1, cpus // int(value))
        return 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"WARM_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"WARM_THREADS must be >= 1, got {cap}")
    return cap


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _eval_batch(cfg: ExperimentConfig, data_dir):
    if data_dir is None:
        return make_eval_episodes(cfg.generator, cfg.eval_episodes, cfg.eval_seed, cfg.eval_split)
    paths = sorted(Path(data_dir).glob("*.warmep"))
    if not paths:
        raise ArgumentError(f"no .warmep episode files under {data_dir}")
    episodes = [load_episode(p) for p in paths]
    # the grids train at the config's D before they score the batch
    _check_batch(episodes, "D", cfg.generator.feature_dim, lambda e: e.support[0].feature_dim)
    return episodes


def _check_batch(episodes, name: str, expected: int, value) -> None:
    """Raise ConfigError at the first episode whose ``value(episode)``
    differs from the config's ``expected``. ``eval`` and ``sweep-fps``
    check the ways too: their per-class columns follow the config."""
    for i, episode in enumerate(episodes):
        if value(episode) != expected:
            raise ConfigError(f"config has {name}={expected} but episode {i} has {name}={value(episode)}")


def cmd_gen(args) -> None:
    cfg = load_experiment_config(args.config)
    out = _out_dir(args)
    seed = cfg.gen_seed if args.seed is None else args.seed
    for i in range(cfg.num_episodes):
        episode = gen_episode(cfg.generator, derive_rng(seed, EVAL_STREAM, i), split=cfg.gen_split)
        save_episode(episode, out / f"ep_{i:05d}.warmep")
    write_sidecar(out / "generator_config.json", "gen", cfg)
    print(f"gen: wrote {cfg.num_episodes} episodes to {out}")


def cmd_train(args) -> None:
    cfg = load_experiment_config(args.config)
    variant = parse_method(cfg.method)
    if variant == "fps-min-dist":
        raise ConfigError("method 'fps-min-dist' has no learnable parameters; nothing to train")
    train_cfg = cfg.train if args.seed is None else replace(cfg.train, seed=args.seed)
    out = _out_dir(args)
    run = train(
        train_cfg,
        cfg.generator,
        variant=variant,
        out_dir=out,
        config_hash=config_sha256(cfg),
        workers=worker_cap(),
    )
    write_sidecar(out / "train_config.json", "train", cfg)
    final = run.log[-1][3] if run.log else float("nan")
    print(f"train[{variant}]: {len(run.log)} episodes, final loss {final:.4f}, checkpoint {out / 'checkpoint.json'}")


def cmd_eval(args) -> None:
    cfg = load_experiment_config(args.config)
    variant = parse_method(cfg.method)
    if variant != "fps-min-dist":
        if args.seed is not None:
            raise ConfigError(f"--seed picks the FPS starts of method 'fps-min-dist'; method {variant!r} does not read it")
        if args.checkpoint is None:
            raise ConfigError(f"method {variant!r} needs --checkpoint")
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    _check_batch(episodes, "n_way", cfg.generator.n_way, lambda e: e.n_way)
    if variant == "fps-min-dist":
        seed = cfg.eval_seed if args.seed is None else args.seed
        report = evaluate_fps(episodes, cfg.fps_tokens, seed)
    else:
        params, _meta = load_checkpoint(args.checkpoint)
        report = evaluate(params, episodes, variant, cfg.train.eps, cfg.train.scale_logits, worker_cap())
    labels = list(range(cfg.generator.n_way + 1))
    write_metrics_csv(out / "metrics.csv", [report], labels)
    write_sidecar(out / "eval_config.json", "eval", cfg)
    print(f"eval[{variant}]: mIoU {report.miou:.4f} over {len(episodes)} episodes -> {out / 'metrics.csv'}")


def cmd_sweep_fps(args) -> None:
    cfg = load_experiment_config(args.config)
    n_seeds = cfg.fps_seeds if args.seeds is None else args.seeds
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    _check_batch(episodes, "n_way", cfg.generator.n_way, lambda e: e.n_way)
    result = fps_seed_sweep(episodes, cfg.fps_tokens, range(n_seeds))
    labels = list(range(cfg.generator.n_way + 1))
    write_sweep_csv(out / "sweep.csv", result, labels)
    write_sweep_summary_csv(out / "sweep_summary.csv", result)
    write_sidecar(out / "sweep_config.json", "sweep-fps", cfg)
    print(
        f"sweep-fps: {n_seeds} seeds, best {result.best:.4f}, worst {result.worst:.4f}, "
        f"spread {result.best - result.worst:.4f}"
    )


def cmd_ablate(args) -> None:
    cfg = load_experiment_config(args.config)
    seeds = list(cfg.seeds) if args.seeds is None else list(range(args.seeds))
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    seed_runs = [[(replace(cfg.train, seed=seed), variant) for variant in ABLATION_GRID] for seed in seeds]
    rows = [
        [variant, seed, repr(float(report.qk_dist)), repr(float(report.miou))]
        for seed, row in zip(seeds, run_grid(seed_runs, cfg.generator, episodes, worker_cap()))
        for variant, (_, report) in zip(ABLATION_GRID, row)
    ]
    write_csv(out / "ablation.csv", ["variant", "seed", "qk_dist", "miou"], rows)
    write_sidecar(out / "ablation_config.json", "ablate", cfg)
    print(f"ablate: {len(rows)} rows ({len(ABLATION_GRID)} variants x {len(seeds)} seeds) -> {out / 'ablation.csv'}")


def cmd_token_sweep(args) -> None:
    cfg = load_experiment_config(args.config)
    variant = parse_method(cfg.method)
    if variant == "fps-min-dist":
        raise ConfigError("token-sweep needs a trainable method")
    out = _out_dir(args)
    episodes = _eval_batch(cfg, args.data)
    counts = [int(m) for m in cfg.token_counts]
    seed_runs = [[(replace(cfg.train, seed=seed, num_tokens=m), variant) for m in counts] for seed in cfg.seeds]
    grid = run_grid(seed_runs, cfg.generator, episodes, worker_cap())
    # per token count, one mIoU per seed in seed order
    scores = zip(*[[report.miou for _, report in row] for row in grid])
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
        with path.open() as fh:
            reader = list(csv.reader(fh))
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
    def __init__(self, *args, **kwargs):  # no prefixes: --seed must not pass for --seeds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="warmproto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, data=False, out=True, checkpoint=False, seed=False, seeds=False):
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", type=Path, default=None, help="JSON experiment config")
        if out:
            p.add_argument("--out", type=Path, required=True, help="output directory")
        if data:
            p.add_argument("--data", type=Path, default=None, help="directory of .warmep episode files")
        if checkpoint:
            p.add_argument("--checkpoint", type=Path, default=None, help="parameter checkpoint JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the relevant seed")
        if seeds:
            p.add_argument("--seeds", type=int, default=None, help="number of seeds to run")
        p.set_defaults(func=func)
        return p

    add("gen", cmd_gen, seed=True)
    add("train", cmd_train, seed=True)
    add("eval", cmd_eval, data=True, checkpoint=True, seed=True)
    add("sweep-fps", cmd_sweep_fps, data=True, seeds=True)
    add("ablate", cmd_ablate, data=True, seeds=True)
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
        for flag, low in (("seed", 0), ("seeds", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise ConfigError(f"--{flag} must be >= {low}, got {value}")
        worker_cap()
        # the finiteness checks report overflow in one NumericError line;
        # numpy's warnings would precede it. Forked workers inherit this.
        with np.errstate(all="ignore"):
            args.func(args)
        return 0
    except (ConfigError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"io/format failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
