"""warmproto benchmark runner.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Runs one workload from the checkout this file sits in, against the
package in its ``src/``; ``--workload all`` runs each workload in turn,
each in a fresh interpreter so that its ``peak_rss_mb`` is its own. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it splits the time between an
untraced and a traced phase and reports the per-layer metrics. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record (the
environment, output hashes, result quality) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported: the
# program's bytes and speed both depend on the thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(ROOT),
    }


def measure(workload, clock, seconds: float, first_index: int) -> dict:
    """Closed loop of timed iterations until ``seconds`` have passed.

    Throughput is the median over iterations of ops / seconds in the verb,
    each call scaled to nominal host speed by the clock samples around it.
    """
    raw, scaled, ops, index = [], [], 0, first_index
    start = perf_counter()
    before = clock.sample()
    while index == first_index or perf_counter() - start < seconds:
        count, elapsed = workload.iterate(index)
        index += 1
        after = clock.sample()
        if elapsed is not None:
            raw.append(count / elapsed)
            scaled.append(count / elapsed / clock.speed(before, after))
            ops += count
        before = after
    return {
        "throughput": median(scaled) if scaled else 0.0,
        "throughput_raw": median(raw) if raw else 0.0,
        "rates": scaled,
        "raw_rates": raw,
        "ops": ops,
        "iterations": index - first_index,
        "wall_s": perf_counter() - start,
        "next_index": index,
    }


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    ops, wall = max(traced["ops"], 1), traced["wall_s"]
    metrics, total_self = {}, 0.0
    for name, (calls, self_s) in tracer.self_times().items():
        total_self += self_s
        metrics[f"{name}.calls"] = (calls / ops, "1/op")
        metrics[f"{name}.self_ms"] = (1e3 * self_s / ops, "ms/op")
        metrics[f"{name}.share"] = (self_s / wall, "ratio")

    def unique_ratio(keys):
        # no calls means nothing was repeated: 1, the same as all-distinct calls
        return len(set(keys)) / len(keys) if keys else 1.0

    metrics["episodes.gen_unique_ratio"] = (unique_ratio(tracer.probes["episodes.gen"]), "ratio")
    metrics["warm.stats_unique_ratio"] = (unique_ratio(tracer.probes["warm.stats"]), "ratio")
    loaded = sum(size for _, size in tracer.probes["episodes.load"])
    metrics["episodes.load_mb"] = (loaded / 1e6 / ops, "MB/op")
    overhead = traced["throughput"] / untraced["throughput"] if untraced["throughput"] else 0.0
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    metrics["bench.trace_coverage"] = (total_self / wall, "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostclock import HostClock
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed)
        clock = HostClock()
        setup_raw, setup_scaled = [], []
        for repeat in range(SETUP_REPEATS):
            (work / f"setup-{repeat}").mkdir()
            before = clock.sample()
            started = perf_counter()
            workload.setup(work / f"setup-{repeat}")
            elapsed = perf_counter() - started
            setup_raw.append(elapsed)
            setup_scaled.append(elapsed * clock.speed(before, clock.sample()))
        # a traced run gives half its time to an untraced phase, for the overhead
        untraced = measure(workload, clock, seconds / 2 if trace else seconds, 0)
        tracer = None
        if trace:
            with Tracer() as tracer:
                traced = measure(workload, clock, seconds / 2, untraced["next_index"])
        workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # this process ran only this workload; waited-for children count too
    peak_rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    peak_rss_mb = peak_rss_kb / 1024
    attempted, failed = workload.attempted, workload.failed
    end_to_end = {
        "setup_s": (median(setup_scaled), "s"),
        "throughput": (untraced["throughput"], "op/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    layers = per_layer(tracer, traced, untraced) if trace else {}
    record = {
        "environment": environment(name, seed),
        "op": workload.op,
        "rate": workload.rate,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": workload.problems,
        "witness_sha256": workload.witness,
        "quality": workload.quality,
        "untraced": untraced,
        "unscaled": {"setup_s": median(setup_raw), "throughput": untraced["throughput_raw"]},
        "host_kernel_ms": 1e3 * median(clock.samples),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    if trace:
        record["traced"] = traced
        record["problems"] += [f"span binding not found: {t}" for t in tracer.missing]
        record["problems"] += [f"probe for {n} failed {k} times" for n, k in tracer.probe_errors.items()]
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if trace:
        tracer.write(OUT / f"{stem}-spans.json")
    return record


def report(name: str, record: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    print(f"== {name}: one op = {record['op']}; {record['attempted']} verb calls, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")
    rows = dict(record["end_to_end"])
    rate_name, scale, unit = record["rate"]
    rows[rate_name] = (scale * rows["throughput"][0], unit)
    rows["throughput_samples"] = (len(record["untraced"]["rates"]), "calls")
    rows["setup_s_unscaled"] = (record["unscaled"]["setup_s"], "s")
    rows["throughput_unscaled"] = (record["unscaled"]["throughput"], "op/s")
    rows["host_kernel_ms"] = (record["host_kernel_ms"], "ms")
    rows["error_rate"] = (record["failed"] / record["attempted"], "failed/attempted")
    rows.update(record["quality"])
    rows.update(record["per_layer"])
    for metric, (value, unit) in rows.items():
        print(f"   {metric:32s} {value:14.6g} {unit}")
    for file, digest in sorted(record["witness_sha256"].items()):
        print(f"   sha256 {file:25s} {digest}")
    print("   env " + json.dumps(record["environment"], sort_keys=True))


def run_child(name: str, args) -> dict | None:
    """Run one workload in a fresh interpreter; its result, or None if it failed."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "warmproto" / "__init__.py").is_file():
        print(f"error: no warmproto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import warmproto
    from workloads import WORKLOADS

    if not Path(warmproto.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported warmproto from {warmproto.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)} or 'all'")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            result = run_child(name, args)
            if result is None:
                return 1
            results[name] = result
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v for name, r in results.items() for metric, v in r["metrics"].items()},
        }
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, record)
        section = "per_layer" if args.trace else "end_to_end"
        result = {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in record[section].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
