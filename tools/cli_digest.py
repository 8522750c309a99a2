#!/usr/bin/env python3
"""Digest of what every CLI verb writes, to check two trees for byte identity.

Runs a fixed set of verbs on a small 2-way 2-shot config, each in its own
``python -m warmproto.cli`` subprocess, with the package imported from
``--src`` (default: the ``src`` beside this script). BLAS runs at 1 thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``): the
package pins these at import, but the script sets them too, so that a tree
from before that pin runs at the same thread count and still diffs clean.
The whole set runs twice, at ``WARM_THREADS`` 1 and then 2, each time in a
fresh temporary directory that is the verbs' working directory. For each
verb it prints the command, its stdout, and one ``sha256  path`` line per
file under its ``--out``; ``timing.csv`` is left out, since it holds wall
times. It exits 1 at the first verb that exits non-zero, after printing
that verb's stderr.

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

# (arguments, output directory); paths are relative to the working directory
VERBS = [
    (["gen", "--config", "warm.json"], "gen"),
    (["train", "--config", "warm.json"], "train"),
    (["eval", "--config", "warm.json", "--checkpoint", "train/checkpoint.json"], "eval-warm"),
    (["eval", "--config", "warm.json", "--checkpoint", "train/checkpoint.json", "--data", "gen"], "eval-warm-data"),
    (["eval", "--config", "fps.json"], "eval-fps"),
    (["sweep-fps", "--config", "warm.json"], "sweep-fps"),
    (["ablate", "--config", "warm.json"], "ablate"),
    (["token-sweep", "--config", "warm.json"], "token-sweep"),
]


def run_verbs(src: Path, workers: int) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), WARM_THREADS=str(workers))
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        work = Path(tmp)
        (work / "warm.json").write_text(json.dumps(CONFIG))
        (work / "fps.json").write_text(json.dumps(dict(CONFIG, method="fps-min-dist")))
        for argv, out in VERBS:
            argv = [*argv, "--out", out]
            print(f"$ WARM_THREADS={workers} warmproto {' '.join(argv)}")
            done = subprocess.run(
                [sys.executable, "-m", "warmproto.cli", *argv], cwd=work, env=env, capture_output=True, text=True
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
    return 0 if all(run_verbs(src, workers) for workers in (1, 2)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
