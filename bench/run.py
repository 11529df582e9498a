"""Run one benchmark workload against the clusterforge sources in ../src.

    python3 bench/run.py --workload verify_battery --seed 1 --seconds 30 --trace 0

Each workload is a single-process closed loop: one caller, the next op only
after the previous one returned, no threads.  With ``--trace 0`` it times
whole passes over the workload's ops until ``--seconds`` have passed, at
least 100 ops ran and at least 3 passes finished, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics of the traced pass, with the tracing
overhead.  Reported end-to-end times are calibrated against host-speed
drift (see CALIBRATION_REF_NS).  Every op's output is checked.  The last
line of stdout is one JSON object; a human-readable summary comes before
it.  Without ``--workload`` it runs every workload, each in a fresh
process.

A run record (git SHA, Python version, CPU count, seed, per-op size and
latency) goes to ``bench/out/``, and so do the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("verify_battery", "fpoly_large", "stabilize_limits")
MIN_OPS = 100
MIN_PASSES = 3
# Set-up is measured in this many fresh processes besides the measuring one.
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 60

# Host speed on a shared machine drifts by a third within minutes, and it
# moves the program and any other pure-Python work together.  So a fixed
# slice of the program's kind of work (a sparse product on exponent tuples)
# runs before every op, and every reported time is scaled to the speed at
# which the slice takes CALIBRATION_REF_NS: time * REF / (median of the
# slices nearest to it).  Raw wall times are kept in the run record.
CALIBRATION_TERMS = {(i, j, k): i + 2 * j + 3 * k + 1
                     for i in range(4) for j in range(4) for k in range(2)}
CALIBRATION_REF_NS = 1_000_000
CALIBRATION_RADIUS = 7  # slices on each side of an op in its median
SETUP_CALIBRATION_SLICES = 15  # before and again after a set-up


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _threads_setting() -> str:
    # the stabilization thread pool must not change the measured path
    value = os.environ.get("CLUSTER_FORGE_THREADS")
    if value not in (None, "1"):
        raise BenchError(f"CLUSTER_FORGE_THREADS={value}; unset it or set it to 1")
    return "unset" if value is None else value


def calibration_slice() -> int:
    """Run the fixed calibration slice; returns its wall time in ns."""
    start = time.perf_counter_ns()
    terms = {}
    for e1, c1 in CALIBRATION_TERMS.items():
        for e2, c2 in CALIBRATION_TERMS.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return time.perf_counter_ns() - start


def calibrated(values_ns, slices_ns):
    """Scale each time by REF over the median of the slices nearest to it.

    ``slices_ns[i]`` ran just before the work timed in ``values_ns[i]``.
    """
    out = []
    for i, value in enumerate(values_ns):
        near = slices_ns[max(0, i - CALIBRATION_RADIUS): i + CALIBRATION_RADIUS + 1]
        out.append(value * CALIBRATION_REF_NS / statistics.median(near))
    return out


def setup(workload, seed, scratch):
    """Import the program and build one pass of ops.

    Returns (ops, wall seconds, calibrated seconds).
    """
    slices = [calibration_slice() for _ in range(SETUP_CALIBRATION_SLICES)]
    start = time.perf_counter()
    if not (SRC / "clusterforge" / "__init__.py").is_file():
        raise BenchError(f"no clusterforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports clusterforge

    ops = workloads.WORKLOADS[workload](seed, scratch)
    wall = time.perf_counter() - start
    slices += [calibration_slice() for _ in range(SETUP_CALIBRATION_SLICES)]
    return ops, wall, wall * CALIBRATION_REF_NS / statistics.median(slices)


def _setup_in_fresh_processes(workload, seed) -> list[tuple[float, float]]:
    """(wall, calibrated) set-up seconds from SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed in a fresh process: {proc.stderr.strip()}")
        wall, calibrated_s = proc.stdout.split()[-2:]
        samples.append((float(wall), float(calibrated_s)))
    return samples


def _run_op(op):
    """Run one op; returns (output or None, latency ns, Failure or None)."""
    from workloads import Failure

    start = time.perf_counter_ns()
    try:
        output = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return None, time.perf_counter_ns() - start, Failure(
            f"raised {type(exc).__name__}: {exc}", True)
    elapsed = time.perf_counter_ns() - start
    return output, elapsed, op.check(output)


class Loop:
    """Closed-loop passes over one list of ops, with per-op records.

    A calibration slice runs before each op; ``samples`` holds
    ``(pass, op index, latency ns, slice ns)`` for every op run.
    """

    def __init__(self, ops):
        self.ops = ops
        self.samples = []
        self.failures = {}  # op_id -> reason of its latest failure
        self.last_output = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.exact_failures = 0

    def one_pass(self, before_op=None):
        for index, op in enumerate(self.ops):
            slice_ns = calibration_slice()
            if before_op is not None:
                before_op(op)
            output, elapsed, failure = _run_op(op)
            self.samples.append((self.passes, index, elapsed, slice_ns))
            self.last_output[op.op_id] = output
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                self.exact_failures += failure.exact
                self.failures[op.op_id] = failure.reason
        self.passes += 1

    def latencies_ns(self, calibrate):
        """Latency of every op run, in sample order, calibrated or wall."""
        latencies = [sample[2] for sample in self.samples]
        if calibrate:
            latencies = calibrated(latencies, [sample[3] for sample in self.samples])
        return latencies

    def pass_seconds(self, calibrate):
        """Total op time of each pass, calibrated or wall."""
        totals = [0.0] * self.passes
        for sample, latency in zip(self.samples, self.latencies_ns(calibrate)):
            totals[sample[0]] += latency / 1e9
        return totals

    def op_records(self):
        runs = {}  # op index -> [(calibrated ns, wall ns)]
        for sample, value in zip(self.samples, self.latencies_ns(True)):
            runs.setdefault(sample[1], []).append((value, sample[2]))
        records = []
        for index, op in enumerate(self.ops):
            size = dict(op.size)
            output = self.last_output[op.op_id]
            if output is not None:
                size.update(op.measure(output))
            records.append({
                "op_id": op.op_id,
                "kind": op.kind,
                "size": size,
                "latency_ms_median": statistics.median(r[0] for r in runs[index]) / 1e6,
                "wall_latency_ms_median": statistics.median(r[1] for r in runs[index]) / 1e6,
                "samples": len(runs[index]),
                "failure": self.failures.get(op.op_id),
            })
        return records


def end_to_end(loop, setup_samples, calibrate):
    """End-to-end metrics, calibrated or as wall times."""
    lat_ms = sorted(x / 1e6 for x in loop.latencies_ns(calibrate))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(loop.ops) / statistics.median(loop.pass_seconds(calibrate)), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(s[1 if calibrate else 0] for s in setup_samples), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "clusterforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _write_record(name, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def run_workload(workload, seed, seconds, trace):
    """Returns (summary lines, result dict for the JSON line)."""
    threads = _threads_setting()
    setup_samples = [] if trace else _setup_in_fresh_processes(workload, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as scratch:
        ops, wall, calibrated_s = setup(workload, seed, scratch)
        setup_samples.append((wall, calibrated_s))
        loop = Loop(ops)
        if trace:
            import tracer as tracing

            loop.one_pass()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                loop.one_pass(before_op=lambda op: setattr(tracer, "op_id", op.op_id))
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            untraced, traced = loop.pass_seconds(calibrate=True)
            metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
            wall_metrics = {}
        else:
            started = time.perf_counter()
            while (time.perf_counter() - started < seconds
                   or loop.attempted < MIN_OPS or loop.passes < MIN_PASSES):
                loop.one_pass()
            metrics = end_to_end(loop, setup_samples, calibrate=True)
            wall_metrics = end_to_end(loop, setup_samples, calibrate=False)
        records = loop.op_records()

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cluster_forge_threads": threads,
        "ops_per_pass": len(ops),
        "passes": loop.passes,
        "pass_op_seconds_wall": loop.pass_seconds(calibrate=False),
        "pass_op_seconds_calibrated": loop.pass_seconds(calibrate=True),
        "calibration_ref_ns": CALIBRATION_REF_NS,
        "calibration_slice_ns_median": statistics.median(x[3] for x in loop.samples),
        "setup_samples_s": [{"wall": w, "calibrated": c} for w, c in setup_samples],
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall_metrics.items()},
        "ops": records,
    }
    files = [_write_record(f"record-{tag}.json", record)]
    if trace:
        files.append(OUT / f"spans-{tag}.json")
        tracer.write_spans(files[-1])

    lines = [
        f"workload {workload}: seed {seed}, one client, closed loop, "
        f"{len(ops)} ops per pass x {loop.passes} passes = "
        f"{loop.attempted} ops (latency samples), CLUSTER_FORGE_THREADS {threads}",
        f"  error_rate {loop.failed}/{loop.attempted} = "
        f"{loop.failed / loop.attempted:.6f} (ratio)",
    ]
    for op_id, reason in sorted(loop.failures.items()):
        lines.append(f"  failed op {op_id}: {reason}")
    if trace:
        untraced, traced = loop.pass_seconds(calibrate=True)
        lines.append(f"  tracing overhead: traced pass {traced:.3f} s "
                     f"vs untraced pass {untraced:.3f} s of calibrated op time")
    for name, (value, unit) in metrics.items():
        wall = (f"  (wall {wall_metrics[name][0]:.6g})"
                if name in wall_metrics and name != "peak_rss_mb" else "")
        lines.append(f"  {name} = {value:.6g} {unit}{wall}")
    lines.append("  record: " + ", ".join(str(p.relative_to(ROOT)) for p in files))
    result = {
        "correct": loop.exact_failures == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def run_all(args):
    """Run every workload, each in its own fresh process, and relay its output."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them when left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up in this process, print its seconds")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload is None:
        parser.error("--setup-only needs --workload")
    try:
        if args.setup_only:
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as scratch:
                _, wall, calibrated_s = setup(args.workload, args.seed, scratch)
            print(wall, calibrated_s)
            return 0
        if args.workload is None:
            return run_all(args)
        lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
