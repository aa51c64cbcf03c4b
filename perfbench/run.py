"""Benchmark of record for the packet-scheduling reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serial-resume-markov --seed 0 \\
        --seconds 45 --trace 0

One invocation runs one workload in this fresh process, so that
``peak_rss_mb`` belongs to that workload alone. It builds the
workload's inputs once untimed, runs one untimed reference job (the
warm-up, and the run every timed job must reproduce), then repeats
the job for about ``--seconds`` seconds, at least ``MIN_JOBS`` times:
a job starts while the run is more than half a median job short of
``--seconds``. Before each job it builds the inputs
``BUILDS_PER_JOB`` times, the last build being the job's; ``setup_s``
is the median of all those builds, spread over the run as the jobs
are. ``run_s`` and ``delivered_per_s`` are medians over the jobs.
Every job's outputs are checked (see ``workloads.py``); the process
exits 1 if any check fails.

``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``. ``--trace 1`` alternates untraced and traced jobs,
reports the per-layer metrics and writes the last traced job's spans
to ``perfbench/out/``. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``error_rate`` (failed / attempted units)
is carried by those two counts and printed; it is not a metric because
it reads 0 on every correct run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing  # no numpy: safe before the thread caps are set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Thread pools are capped before numpy is imported: the host has two
#: cores and every workload is single-threaded by design.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BUILDS_PER_JOB = 8
MIN_JOBS = 3
MIN_TRACED_PAIRS = 2


def _git_commit():
    """HEAD of the checkout, read from ``.git``; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    from repro.staticsched.runloop import numba_available, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": numba_available(),
        "backend": resolve_backend(None),
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _failed_units(units, reference, pinned):
    """Names of the units that fail conservation or a digest check."""
    failed = []
    for position, unit in enumerate(units):
        ok = unit.conserved and unit.digest == reference[position].digest
        if pinned is not None:
            ok = ok and unit.digest == pinned[position]
        if not ok:
            failed.append(unit.name)
    return failed


class Results:
    """Job samples, build times, units attempted and failed, and every
    reason the run is not correct. A sample is (seconds, packets
    delivered)."""

    def __init__(self) -> None:
        self.builds = []
        self.untraced = []
        self.traced = []
        self.layer_samples = []
        self.recorder = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, units, failed_names, label="") -> None:
        self.attempted += len(units)
        self.failed += len(failed_names)
        self.failures += [f"{label}{name}" for name in failed_names]


def _build(workload, builds):
    """``BUILDS_PER_JOB`` timed builds; returns the last one."""
    for _ in range(BUILDS_PER_JOB):
        start = time.perf_counter()
        built = workload.build()
        builds.append(time.perf_counter() - start)
    return built


def _measure(args, workload, pinned, results):
    """Reference job, then timed jobs for about ``args.seconds``."""
    untraced, traced = results.untraced, results.traced
    reference = workload.reference(OUT)
    results.add(reference, _failed_units(reference, reference, pinned),
                "reference ")
    for unit in reference:
        print(f"digest {unit.name} {unit.digest}")
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_job = args.trace == 1 and len(untraced) > len(traced)
        built = _build(workload, results.builds)
        gc.collect()
        if trace_job:
            recorder = results.recorder = tracing.Recorder()
            classes = {type(p) for p in workload.injections(built)}
            with tracing.instrument(recorder, classes, workload.job_builds):
                start = time.perf_counter()
                root = recorder.enter("job")
                units = workload.run(built, OUT)
                failed = _failed_units(units, reference, pinned)
                recorder.exit(root)
                seconds = time.perf_counter() - start
        else:
            start = time.perf_counter()
            units = workload.run(built, OUT)
            failed = _failed_units(units, reference, pinned)
            seconds = time.perf_counter() - start
        results.add(units, failed)
        sample = (seconds, sum(unit.delivered for unit in units))
        if trace_job:
            traced.append(sample)
            results.layer_samples.append(
                tracing.layer_metrics(recorder, seconds)
            )
        else:
            untraced.append(sample)
        if args.trace:
            done = min(len(untraced), len(traced)) >= MIN_TRACED_PAIRS
        else:
            done = len(untraced) >= MIN_JOBS
        job = statistics.median(s for s, _ in untraced + traced)
        if done and time.perf_counter() + job / 2 >= deadline:
            return


def _write_spans(recorder, env, args) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as handle:
        header = {"env": env, "workload": args.workload, "seed": args.seed}
        handle.write(json.dumps(header) + "\n")
        for record in recorder.records():
            handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_file.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_file.read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    pinned = None
    results = Results()
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text()).get(args.workload)
        if pinned is None:
            results.failures.append("no pinned digest for the default seed")
    OUT.mkdir(exist_ok=True)
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))

    workload.build()  # untimed: imports and lazy caches
    try:
        _measure(args, workload, pinned, results)
    except Exception:  # the job raised: count one failed unit
        traceback.print_exc()
        results.add(["job"], ["job raised"])
    finally:
        for path in OUT.glob("*.ckpt*"):
            path.unlink()

    untraced, traced = results.untraced, results.traced
    if args.trace:
        declared = benchmark["per_layer"]
        metrics = {}
        if results.layer_samples:
            metrics = {
                name: statistics.median_low(s[name] for s in results.layer_samples)
                for name in results.layer_samples[0]
            }
            metrics["trace.overhead"] = (
                statistics.median(s for s, _ in traced)
                / statistics.median(s for s, _ in untraced) - 1.0
            )
            _write_spans(results.recorder, env, args)
    else:
        declared = benchmark["end_to_end"]
        metrics = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if results.builds:
            metrics["setup_s"] = statistics.median(results.builds)
        if untraced:
            metrics["run_s"] = statistics.median(s for s, _ in untraced)
            metrics["delivered_per_s"] = statistics.median(
                delivered / s for s, delivered in untraced
            )

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not results.failures:
        results.failures.append(f"metrics not measured: {', '.join(missing)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced) + len(traced)} timed job(s), {results.attempted} "
          f"unit(s) attempted, {results.failed} failed "
          f"(error_rate {results.failed / max(results.attempted, 1):.6g})")
    for label, samples in (("untraced", untraced), ("traced", traced)):
        if samples:
            times = " ".join(f"{seconds:.3f}" for seconds, _ in samples)
            print(f"{label} job seconds: {times}")
    for name in results.failures:
        print(f"FAILED: {name}")
    result = {}
    for entry in declared:
        if entry["name"] in metrics:
            value = metrics[entry["name"]]
            print(f"{entry['name']:34s} {value:>16.6g} {entry['unit']}")
            result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not results.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(results.attempted, 1),
        "failed": results.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
