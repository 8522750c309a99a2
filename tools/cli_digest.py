#!/usr/bin/env python3
"""Digest of what every CLI verb writes, to check two trees for byte identity.

Runs a fixed set of verbs on a small 2-way 2-shot config, plus ``gen`` on
a tiny one whose background distractors can draw no points, each in its own
``python -m warmproto.cli`` subprocess, with the package imported from
``--src`` (default: the ``src`` beside this script); the package's import
pins BLAS to 1 thread. The whole set runs twice, each time in a fresh
temporary directory that is the verbs' working directory: first with
every verb pinned to one CPU (``os.sched_setaffinity``), so at one worker,
then on all the CPUs this script may use, one worker each. For each verb
it prints the command under a fixed label (``cpus=1`` or ``cpus=all``, so
hosts with other CPU counts print the same lines), its stdout, and one
``sha256  path`` line per file under its ``--out``; ``timing.csv`` is left
out, since it holds wall times. It exits 1 at the first verb that exits
non-zero, after printing that verb's stderr.

Two trees write the same bytes when their digests diff clean:

    python tools/cli_digest.py --src OTHER/src > other.txt
    python tools/cli_digest.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "generator": {"feature_dim": 8, "points_per_cloud": 128, "min_fg_points": 16, "n_way": 2, "k_shot": 2},
    "train": {"epochs": 1, "episodes_per_epoch": 6, "num_tokens": 6},
    "eval_episodes": 4,
    "num_episodes": 4,
    "fps_seeds": 4,
    "seeds": [0, 1],
    "token_counts": [2, 4],
}
# a background of 4-8 points over 6 distractors, so some distractors draw no points
TINY = dict(CONFIG, generator=dict(CONFIG["generator"], points_per_cloud=12, min_fg_points=2, bg_components=6))

# (arguments, output directory); paths are relative to the working directory
VERBS = [
    (["gen", "--config", "warm.json"], "gen"),
    (["gen", "--config", "tiny.json"], "gen-tiny"),
    (["train", "--config", "warm.json"], "train"),
    (["eval", "--config", "warm.json", "--checkpoint", "train/checkpoint.json"], "eval-warm"),
    (["eval", "--config", "warm.json", "--checkpoint", "train/checkpoint.json", "--data", "gen"], "eval-warm-data"),
    (["eval", "--config", "fps.json"], "eval-fps"),
    (["sweep-fps", "--config", "warm.json"], "sweep-fps"),
    (["sweep-fps", "--config", "warm.json", "--data", "gen"], "sweep-fps-data"),
    (["ablate", "--config", "warm.json"], "ablate"),
    (["ablate", "--config", "warm.json", "--data", "gen"], "ablate-data"),
    (["token-sweep", "--config", "warm.json"], "token-sweep"),
    (["token-sweep", "--config", "warm.json", "--data", "gen"], "token-sweep-data"),
]


def run_verbs(src: Path, cpus: str) -> bool:
    """Run every verb on one CPU (``cpus`` "1") or on all usable ones ("all")."""
    env = dict(os.environ, PYTHONPATH=str(src))
    one_cpu = {min(os.sched_getaffinity(0))}
    pin = (lambda: os.sched_setaffinity(0, one_cpu)) if cpus == "1" else None
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        work = Path(tmp)
        (work / "warm.json").write_text(json.dumps(CONFIG))
        (work / "fps.json").write_text(json.dumps(dict(CONFIG, method="fps-min-dist")))
        (work / "tiny.json").write_text(json.dumps(TINY))
        for argv, out in VERBS:
            argv = [*argv, "--out", out]
            print(f"$ cpus={cpus} warmproto {' '.join(argv)}")
            done = subprocess.run(
                [sys.executable, "-m", "warmproto.cli", *argv],
                cwd=work,
                env=env,
                preexec_fn=pin,
                capture_output=True,
                text=True,
            )
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stdout.flush()
                sys.stderr.write(f"exit {done.returncode}: {done.stderr}")
                return False
            for path in sorted((work / out).rglob("*")):
                if path.is_file() and path.name != "timing.csv":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {path.relative_to(work)}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory that holds the warmproto package",
    )
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "warmproto" / "cli.py").is_file():
        parser.error(f"no warmproto package under {src}")
    if not hasattr(os, "sched_setaffinity"):
        parser.error("pinning the first pass to one CPU needs os.sched_setaffinity")
    return 0 if all(run_verbs(src, cpus) for cpus in ("1", "all")) else 1


if __name__ == "__main__":
    raise SystemExit(main())
