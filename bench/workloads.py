"""The benchmark's workloads.

Each workload drives ``warmproto.cli.main`` in-process, one verb call
after another (a closed loop with one client), on configs and episode
files it writes into its own work directory. The workload seed is the
only input: it picks the training, episode and grid seeds handed to the
program. One operation ("op") is the unit a workload's throughput
counts: a train step, an evaluated episode, an (episode, FPS seed) pair
or a grid run.

Every verb call is one attempted operation. It fails when the verb exits
non-zero or its outputs do not pass the checks below; failures are
counted, never raised.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import mean
from time import perf_counter

from warmproto import cli

TRAIN_LOG_HEADER = ["episode_idx", "loss_margin", "loss_sim", "loss_total", "grad_norm", "lr"]
METRIC_TAIL = ["d_intra", "d_inter", "d_instance", "attn_entropy", "attn_diversity", "qk_dist"]
GRID = ("naive", "center", "normalize", "whiten", "center+restore", "normalize+restore", "whiten+restore")


class CheckFailed(Exception):
    """An output of the program is missing, malformed or out of range."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path.name} is empty")
    return rows[0], rows[1:]


def _finite(text: str, what: str) -> float:
    value = float(text)
    _require(math.isfinite(value), f"{what} is not finite: {text}")
    return value


def _unit(text: str, what: str) -> float:
    value = _finite(text, what)
    _require(0.0 <= value <= 1.0, f"{what} outside [0, 1]: {text}")
    return value


def sha256_files(*paths: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class Workload:
    """Set-up, one timed iteration, and the closing checks of a workload."""

    name = ""
    op = ""
    rate = ("", 1.0, "")  # throughput under its workload-specific name: (name, scale, unit)

    def __init__(self, seed: int):
        self.seed = seed
        self.work: Path | None = None  # set by setup()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.witness: dict[str, str] = {}
        self.quality: dict[str, tuple[float, str]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def verb(self, argv: list[str], check=None) -> float | None:
        """Run one CLI call; seconds spent inside it, or None if it failed.

        Only the call itself is timed; ``check`` runs afterwards.
        """
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = cli.main(argv)
                elapsed = perf_counter() - start
        except Exception:
            self.fail(f"{argv[0]} raised:\n{traceback.format_exc()}")
            return None
        if code != 0:
            self.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return None
        if check is not None:
            try:
                check()
            except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.fail(f"{argv[0]} output check: {type(exc).__name__}: {exc}")
                return None
        return elapsed

    def write_config(self, name: str, data: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(data, sort_keys=True))
        return str(path)

    def setup(self, work: Path) -> None:
        """Write this workload's inputs under ``work`` and warm the verb up."""
        raise NotImplementedError

    def iterate(self, index: int) -> tuple[int, float | None]:
        """One timed verb call: (ops it does, seconds or None on failure)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once after the timed loop."""


class TrainDesk(Workload):
    name = "train-desk"
    op = "train step"
    rate = ("train_steps_per_s", 1.0, "steps/s")
    steps = 100
    tail = 20  # logged steps averaged into the final loss

    def setup(self, work: Path) -> None:
        self.work = work
        train = {"epochs": 1, "episodes_per_epoch": self.steps}
        self.config = self.write_config("train.json", {"train": train})
        warm = self.write_config("warm.json", {"train": {"epochs": 1, "episodes_per_epoch": 20}})
        self.out = work / "train"
        self.verb(["train", "--config", warm, "--out", str(self.out), "--seed", str(self.seed)])

    def iterate(self, index: int) -> tuple[int, float | None]:
        # every call trains from a fresh seed, so no episode repeats within a run
        train_seed = self.seed * 100_000 + index
        elapsed = self.verb(
            ["train", "--config", self.config, "--out", str(self.out), "--seed", str(train_seed)],
            lambda: self._check(index, train_seed),
        )
        return self.steps, elapsed

    def _check(self, index: int, train_seed: int) -> None:
        log_path, ckpt_path = self.out / "training_log.csv", self.out / "checkpoint.json"
        header, rows = _read_csv(log_path)
        _require(header == TRAIN_LOG_HEADER, f"training_log.csv header {header}")
        _require(len(rows) == self.steps, f"training_log.csv has {len(rows)} rows, expected {self.steps}")
        losses = []
        for step, row in enumerate(rows):
            _require(int(row[0]) == step, f"training_log.csv row {step} is numbered {row[0]}")
            values = [_finite(v, f"training_log.csv row {step}") for v in row[1:]]
            losses.append(values[2])
        ckpt = json.loads(ckpt_path.read_text())
        _require(ckpt["seed"] == train_seed, f"checkpoint seed {ckpt['seed']}, expected {train_seed}")
        _require(len(ckpt["tokens"]) == 2 * ckpt["num_tokens"], "checkpoint token count")
        for name in ("tokens", "w_q", "w_k", "w_v"):
            for row in ckpt[name]:
                _require(len(row) == ckpt["feature_dim"] and all(map(math.isfinite, row)), f"checkpoint {name}")
        if index == 0:
            self.witness = sha256_files(log_path, ckpt_path)
            self.quality["train_final_loss"] = (mean(losses[-self.tail :]), "loss")


class _EpisodeBatch(Workload):
    """Workloads over a 3-way 2-shot batch of novel episodes on disk."""

    episodes = 30
    generator = {"n_way": 3, "k_shot": 2}

    def write_batch(self, work: Path, extra: dict) -> None:
        self.work = work
        top = {
            "generator": self.generator,
            "num_episodes": self.episodes,
            "eval_episodes": self.episodes,
            # eval_seed == gen_seed: in-memory eval draws the same batch gen wrote
            "gen_seed": self.seed,
            "eval_seed": self.seed,
            **extra,
        }
        self.config = self.write_config("batch.json", top)
        self.data = work / "episodes"
        self.verb(["gen", "--config", self.config, "--out", str(self.data)])

    def same_bytes(self, path: Path, reference: str) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        _require(digest == reference, f"{path.name} differs from the first call's ({digest[:12]} != {reference[:12]})")


class InferMultishot(_EpisodeBatch):
    name = "infer-multishot"
    op = "eval episode"
    rate = ("eval_episodes_per_s", 1.0, "episodes/s")
    train_steps = 20

    def setup(self, work: Path) -> None:
        self.write_batch(work, {"train": {"epochs": 1, "episodes_per_epoch": self.train_steps, "seed": self.seed}})
        self.checkpoint = work / "train" / "checkpoint.json"
        self.verb(["train", "--config", self.config, "--out", str(self.checkpoint.parent)])
        self.out = work / "eval"
        self.verb(self._argv(self.out, data=True))

    def _argv(self, out: Path, data: bool) -> list[str]:
        argv = ["eval", "--config", self.config, "--checkpoint", str(self.checkpoint), "--out", str(out)]
        return argv + (["--data", str(self.data)] if data else [])

    def iterate(self, index: int) -> tuple[int, float | None]:
        return self.episodes, self.verb(self._argv(self.out, data=True), self._check)

    def _check(self) -> None:
        path = self.out / "metrics.csv"
        if "metrics.csv" in self.witness:
            self.same_bytes(path, self.witness["metrics.csv"])
            return
        header, rows = _read_csv(path)
        classes = self.generator["n_way"] + 1
        _require(header == ["miou"] + [f"iou_{c}" for c in range(classes)] + METRIC_TAIL, f"metrics.csv header {header}")
        _require(len(rows) == 1, f"metrics.csv has {len(rows)} rows")
        row = rows[0]
        miou = _unit(row[0], "miou")
        for c in range(classes):
            if row[1 + c]:
                _unit(row[1 + c], f"iou_{c}")
        for name, text in zip(METRIC_TAIL, row[1 + classes :]):
            _finite(text, name)
        self.witness = sha256_files(path)
        self.quality["eval_miou"] = (miou, "mIoU")

    def finish(self) -> None:
        # the README's claim: eval over gen'd files equals the in-memory eval on the same seed
        memory = self.work / "eval-memory"
        self.verb(
            self._argv(memory, data=False),
            lambda: self.same_bytes(memory / "metrics.csv", self.witness.get("metrics.csv", "")),
        )


class FpsSweep(_EpisodeBatch):
    name = "fps-sweep"
    op = "(episode, FPS seed) evaluation"
    rate = ("fps_evals_per_s", 1.0, "(episode x seed)/s")
    fps_seeds = 10

    def setup(self, work: Path) -> None:
        self.write_batch(work, {"fps_seeds": self.fps_seeds})
        self.out = work / "sweep"
        self.verb(self._argv())

    def _argv(self) -> list[str]:
        return ["sweep-fps", "--config", self.config, "--data", str(self.data), "--out", str(self.out)]

    def iterate(self, index: int) -> tuple[int, float | None]:
        return self.episodes * self.fps_seeds, self.verb(self._argv(), self._check)

    def _check(self) -> None:
        sweep, summary = self.out / "sweep.csv", self.out / "sweep_summary.csv"
        if "sweep.csv" in self.witness:
            self.same_bytes(sweep, self.witness["sweep.csv"])
            return
        header, rows = _read_csv(sweep)
        classes = self.generator["n_way"] + 1
        _require(header == ["seed", "mean_miou"] + [f"iou_{c}" for c in range(classes)], f"sweep.csv header {header}")
        _require([int(r[0]) for r in rows] == list(range(self.fps_seeds)), "sweep.csv seeds")
        scores = [_unit(r[1], f"sweep.csv seed {r[0]} mean_miou") for r in rows]
        header, rows = _read_csv(summary)
        _require(header == ["best", "worst", "mean", "stdev", "spread"] and len(rows) == 1, "sweep_summary.csv layout")
        best, worst, avg = (_unit(v, "sweep summary") for v in rows[0][:3])
        _require(best == max(scores) and worst == min(scores), "sweep summary disagrees with sweep.csv")
        self.witness = sha256_files(sweep)
        self.quality["fps_miou_mean"] = (avg, "mIoU")


class AblateGrid(Workload):
    name = "ablate-grid"
    op = "grid run (train + eval)"
    rate = ("grid_runs_per_min", 60.0, "runs/min")
    steps = 15
    eval_episodes = 8

    def setup(self, work: Path) -> None:
        self.work = work
        self.data = work / "episodes"
        batch = self.write_config(
            "batch.json", {"num_episodes": self.eval_episodes, "gen_seed": self.seed}
        )
        self.verb(["gen", "--config", batch, "--out", str(self.data)])
        self.out = work / "ablate"
        warm = self._config(0, steps=2)
        self.verb(["ablate", "--config", warm, "--data", str(self.data), "--out", str(self.out)])

    def _seeds(self, index: int) -> list[int]:
        # each call trains one fresh seed, so a call stays near 1 s and a 20 s
        # run takes its median over ~17 calls; the 7 variants share its episodes
        return [self.seed * 100_000 + index]

    def _config(self, index: int, steps: int) -> str:
        data = {"train": {"epochs": 1, "episodes_per_epoch": steps}, "seeds": self._seeds(index)}
        return self.write_config("ablate.json", data)

    def iterate(self, index: int) -> tuple[int, float | None]:
        config = self._config(index, self.steps)
        argv = ["ablate", "--config", config, "--data", str(self.data), "--out", str(self.out)]
        return len(GRID), self.verb(argv, lambda: self._check(index))

    def _check(self, index: int) -> None:
        path = self.out / "ablation.csv"
        header, rows = _read_csv(path)
        _require(header == ["variant", "seed", "qk_dist", "miou"], f"ablation.csv header {header}")
        expected = [(v, str(s)) for s in self._seeds(index) for v in GRID]
        _require([(r[0], r[1]) for r in rows] == expected, "ablation.csv rows are not the grid in order")
        scores = []
        for r in rows:
            _require(_finite(r[2], f"{r[0]} qk_dist") >= 0.0, f"{r[0]} qk_dist is negative")
            scores.append(_unit(r[3], f"{r[0]} miou"))
        if index == 0:
            self.witness = sha256_files(path)
            self.quality["grid_mean_miou"] = (mean(scores), "mIoU")


WORKLOADS = {w.name: w for w in (TrainDesk, InferMultishot, FpsSweep, AblateGrid)}
