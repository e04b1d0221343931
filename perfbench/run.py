"""Benchmark of the frozen-spectra CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json gives the reason for each):
  forward  `eigs` on seeded potentials
  inverse  `reconstruct` from spectra computed during set-up
  dense    `forward-w` then `invert` through CSV files of 25-35k rows
  exact    `verify`, exact integer identity sweeps

One caller drives the CLI in-process through frozen_spectra.cli.dispatch,
one command at a time (a closed loop).  A run repeats a fixed cycle of
commands; the number of cycles is derived from --seconds and the cycle
duration measured on the reference machine (2 cores), so every run of a
workload times the same commands.  Every command's output is checked.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics instead, from cycles that alternate untraced and traced.  All files
live in a temporary directory inside the checkout that is removed at exit.
The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import frozen_spectra  # noqa: E402
from frozen_spectra import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import CAL_REF_S, SpeedProbe  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1
MIN_CYCLES = 4  # the traced run needs two traced cycles to compare counts
HARD_STOP_S = 120.0  # start no new cycle after this long, to end within 180 s
CAL_EVERY_S = 0.1  # calibration interval between ops
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "FROZEN_SPECTRA_THREADS",
)

@dataclass
class OpRecord:
    cycle: int
    op_id: int
    traced: bool
    check: workloads.Check
    wall_s: float
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


def cycles_for(workload: workloads.Workload, ops_per_cycle: int, seconds: int, traced: bool) -> int:
    n = max(MIN_CYCLES, round(seconds / workload.cycle_s), -(-MIN_OPS // ops_per_cycle))
    return n + n % 2 if traced else n  # a traced run alternates untraced and traced cycles


def run_op(op: workloads.Op, tracer=None, op_id: int = 0) -> tuple[int | None, str, str, float]:
    """Run one CLI command; returns (exit code or None if it raised, stdout, stderr, seconds)."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    span = tracer.root(op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.dispatch(op.argv)
        except Exception:
            rc = None
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def check_op(op: workloads.Op, rc, stdout: str, stderr: str, cache: dict) -> workloads.Check:
    """Check an op's output; output byte-identical to one already checked gets its verdict."""
    if rc != 0:
        return workloads.Check(False, reason=f"exit code {rc}: {stderr.strip()[-500:]}")
    h = hashlib.sha256(stdout.encode())
    for path in op.outputs + op.depends:
        h.update(path.encode() + b"\0")
        with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
            h.update(fh.read())
    key = (id(op), h.hexdigest())
    if key not in cache:
        try:
            cache[key] = op.check(stdout)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            cache[key] = workloads.Check(False, reason=f"{type(exc).__name__}: {exc}")
    return cache[key]


def import_cli_fresh() -> tuple[float, float]:
    """Import the CLI in a fresh interpreter, as every command does on start-up.

    Returns the (wall, reference) seconds of the import, scaled by a
    calibration that the fresh interpreter runs right after it.
    """
    code = (
        f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "t0 = time.perf_counter(); import frozen_spectra.cli; dt = time.perf_counter() - t0; "
        "import speed; print(dt, speed.kernel_seconds())"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    wall, kernel = map(float, out.stdout.split())
    return wall, wall * CAL_REF_S / kernel


def run_quiet(commands: list[list[str]]) -> None:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.dispatch(argv)


def set_up(
    workload: workloads.Workload, seed: int, d: str, probe: SpeedProbe
) -> tuple[workloads.Setup, float, float]:
    """Import the CLI afresh, generate inputs into directory d, warm up.

    Returns (setup, wall seconds, reference seconds); each stage is scaled
    by the calibration samples on either side of it.
    """
    wall, ref = import_cli_fresh()

    def stage(fn, *args):
        nonlocal wall, ref
        i = probe.sample()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        probe.sample()
        wall += dt
        ref += dt * probe.scale(i)
        return result

    setup = stage(workload.build, seed, d)
    stage(run_quiet, setup.warmup)
    return setup, wall, ref


def input_digest(setup: workloads.Setup, d: str) -> str:
    h = hashlib.sha256()
    for path in sorted(setup.inputs):
        h.update(os.path.relpath(path, d).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "frozen_spectra").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(setup: workloads.Setup, seed: int, cycles: int, probe: SpeedProbe, tracer=None):
    """Run the cycles; traced cycles alternate with untraced ones when a tracer is given."""
    rng = random.Random(seed)
    cache: dict = {}
    ops: list[OpRecord] = []
    failures = []
    probes = []  # calibration sample preceding each op
    gc.collect()
    start = time.perf_counter()
    probe.sample()
    for c in range(cycles):
        traced = tracer is not None and c % 2 == 1
        order = list(range(len(setup.groups)))
        rng.shuffle(order)
        for g in order:
            for op in setup.groups[g]:
                if probe.since_last() > CAL_EVERY_S:
                    probe.sample()
                probes.append(len(probe.samples) - 1)
                op_id = len(ops)
                if traced:
                    tracer.install()
                try:
                    rc, stdout, stderr, dt = run_op(op, tracer if traced else None, op_id)
                finally:
                    if traced:
                        tracer.uninstall()
                check = check_op(op, rc, stdout, stderr, cache)
                ops.append(OpRecord(c, op_id, traced, check, dt))
                if not check.ok:
                    failures.append(f"{op.argv[0]} (cycle {c}): {check.reason}")
        if time.perf_counter() - start > HARD_STOP_S and c % 2 == 1:
            break
    probe.sample()
    for rec, i in zip(ops, probes):
        rec.scale = probe.scale(i)
    return ops, failures


def end_to_end(ops: list[OpRecord], setup_s: float) -> dict:
    latencies = [r.seconds for r in ops]
    units = sum(r.check.units for r in ops if r.check.ok)
    errors = [r.check.error for r in ops if r.check.error is not None]
    return {
        "setup_s": setup_s,
        "work_per_s": units / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "error": max(errors) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops: list[OpRecord], tracer) -> tuple[dict, dict, bool]:
    """Layer metrics per traced cycle: counts of the first (checked equal across
    cycles) and times averaged over cycles, plus the tracing overhead per op.
    Returns (metrics, counts, whether the counts repeated)."""
    scale = {r.op_id: r.scale for r in ops}
    counts, times = [], []
    cycle_s: dict[bool, list[float]] = {True: [], False: []}
    for c in sorted({r.cycle for r in ops}):
        rows = [r for r in ops if r.cycle == c]
        cycle_s[rows[0].traced].append(sum(r.seconds for r in rows))
        if rows[0].traced:
            stats = tracer.layer_stats({r.op_id for r in rows}, scale)
            cnt, tms = tracing.layer_metrics(stats)
            counts.append(cnt)
            times.append(tms)
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.fmean(t[name] for t in times)
    ops_per_cycle = len(ops) / (len(cycle_s[True]) + len(cycle_s[False]))
    metrics["bench.trace_overhead_s"] = (
        statistics.fmean(cycle_s[True]) - statistics.fmean(cycle_s[False])
    ) / ops_per_cycle
    return metrics, counts[0], all(cnt == counts[0] for cnt in counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(frozen_spectra.__file__).resolve().parents:
        raise SystemExit(f"frozen_spectra was imported from outside {src}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[spec_key]}
    workload = workloads.WORKLOADS[args.workload]

    # SIGTERM exits through the finally below, which removes the temporary directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    probe = SpeedProbe()
    dirs = []
    try:
        setup_wall, setup_ref = [], []
        for _ in range(1 if args.trace else SETUPS):
            d = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            dirs.append(d)
            setup, wall, ref = set_up(workload, args.seed, d, probe)
            setup_wall.append(wall)
            setup_ref.append(ref)
        cycles = cycles_for(workload, sum(len(g) for g in setup.groups), args.seconds, bool(args.trace))
        tracer = tracing.Tracer() if args.trace else None
        ops, failures = measure(setup, args.seed, cycles, probe, tracer)
        counts, repeatable = {}, True
        if args.trace:
            metrics, counts, repeatable = per_layer(ops, tracer)
            if not repeatable:
                failures.append("per-layer counts differ between traced cycles of the same inputs")
        else:
            metrics = end_to_end(ops, statistics.median(setup_ref))
        digest = input_digest(setup, d)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = sum(1 for r in ops if not r.check.ok)
    wall = [r.wall_s for r in ops]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "input_sha256": digest,
        "cycles": len({r.cycle for r in ops}),
        "ops": len(ops),
        "failed_frac": failed / len(ops),
        "latency_tail_percentile": tail(wall)[1],
        "latency_tail_samples_beyond": TAIL_BEYOND,
        "wall_setup_s": setup_wall,
        "wall_latency_p50_s": statistics.median(wall),
        "wall_latency_tail_s": tail(wall)[0],
        "wall_op_s": sum(wall),
        "speed_scale_median": statistics.median(r.scale for r in ops),
    }
    if args.trace:
        record["counts_sha256"] = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
        record["counts_repeat"] = repeatable
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
