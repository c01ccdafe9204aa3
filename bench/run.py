"""braidcryst benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload {group_law,decide,lattice,cli} \\
        --seed N --seconds S --trace {0,1}

One client, closed loop, no threads: each op starts when the previous one has
returned.  The runner imports ``braidcryst`` from ``src/`` of the checkout it
lives in, builds the workload's seeded input stream, warms up, then times ops
whole cycles at a time until their summed latency reaches ``--seconds``.
Every answer is checked after the timed region.

Times are CPU times: of the benchmark thread for an in-process op, of the
child process for a CLI call, and of a fresh process up to its first timed
op for ``setup_s``.  Every op is single-threaded, CPU-bound work, so its CPU
time is its latency on an idle core; wall time on a shared virtual machine
also counts time the hypervisor gives to other guests.  Even CPU time drifts
there: on the 2-core virtual machine the bounds were set on, a fixed loop's
CPU time moved between 2.4 and 3.8 ms within one minute, as other guests
loaded the same physical cores.  So between cycles the runner times a fixed
reference loop, and reports every time scaled to the speed at which that
loop takes ``REFERENCE_S``: scaled time = CPU time * REFERENCE_S / reference
loop CPU time.  The scaling cancelled most of the drift (group_law op_p50_ms
over six runs: 1.21-1.94 ms raw, within +-3% scaled).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer wrappers installed (see ``tracing.py``) and prints the
per-layer metrics, including the ratio of traced to untraced throughput,
which it gets from an untraced run of the same seed in a child process.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` explain the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Cycles generated before the first timed op (counted in ``setup_s``);
#: a run that needs more draws them from the stream between timed ops.
PREGENERATED_CYCLES = {"group_law": 12, "decide": 20, "lattice": 8, "cli": 8}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: An op still running after this long is stopped and counted as failed.
OP_TIMEOUT_S = 60
#: CPU seconds of ``reference_loop`` at the reference speed.
REFERENCE_S = 3.0e-4
#: Op time between two timings of the reference loop.
SEGMENT_S = 0.05
MUL_SIZES = (8, 16, 32, 64)
#: Environment of a CLI call.  numpy starts a BLAS thread pool on import that
#: braidcryst never uses; its threads' CPU time is not latency, and made the
#: CLI figures twice as noisy, so the pool gets one thread.
CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
CLI_PROBES = 3


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def import_package():
    """Import ``braidcryst`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "braidcryst" / "__init__.py").is_file():
        sys.exit(f"error: no braidcryst sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import braidcryst

    if Path(braidcryst.__file__).resolve().parent != SRC / "braidcryst":
        sys.exit(f"error: imported braidcryst from {braidcryst.__file__}, not {SRC}")
    return braidcryst


# --- timing and ops ---------------------------------------------------------------


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the engine's inner loops: compose
    tuple permutations, hash them, sum slices.  It must never change, or
    figures before and after the change stop being comparable."""
    images = tuple(range(1, 65))
    shift = images[1:] + images[:1]
    seen = {}
    acc = 0
    for step in range(60):
        images = tuple(shift[i - 1] for i in images)
        seen[images] = step
        acc += sum(images[::3])
    return acc


def speed_factor(repeats: int = 3) -> float:
    """Multiplier taking a CPU time measured now to the reference speed."""
    times = []
    for _ in range(repeats):
        start = time.thread_time()
        reference_loop()
        times.append(time.thread_time() - start)
    return REFERENCE_S / max(statistics.median(times), 1e-9)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def call_op(bc, op):
    """Run one op; return ``(result, seconds)``.  A raised exception or a
    timeout is returned as the result."""
    if op.func == "cli":
        start = children_cpu()
        try:
            result = subprocess.run(
                [sys.executable, "-m", "braidcryst.cli", *op.args],
                capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                env=CLI_ENV, cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            result = exc
        return result, children_cpu() - start
    fn = getattr(bc, op.func)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.thread_time()
    try:
        result = fn(*op.args)
    except Exception as exc:  # a failed op is data, not a crash of the runner
        result = exc
    elapsed = time.thread_time() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed


def check_cli(op, result) -> bool:
    """Exit code 0, JSON output, and equal to the same call made in-process."""
    from braidcryst import cli

    if result.returncode != 0:
        return False
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.args))
    return code == 0 and json.loads(result.stdout) == json.loads(out.getvalue())


def check(op, result) -> bool:
    if isinstance(result, BaseException):
        return False
    try:
        if op.func == "cli":
            return check_cli(op, result)
        return bool(op.check(op, result))
    except Exception:  # a malformed answer fails its check
        return False


# --- phases -----------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import, generate the first cycles and warm up: everything before the
    first timed op.  Warm-up calls each function once on inputs of another
    seed, so it fills no cache the timed ops could hit."""
    bc = import_package()
    import workloads

    stream = workloads.WORKLOADS[workload](seed)
    pool = [next(stream) for _ in range(PREGENERATED_CYCLES[workload])]
    seen = set()
    for op in next(workloads.WORKLOADS[workload](-1 - seed)):
        if op.func not in seen:
            seen.add(op.func)
            call_op(bc, op)
    return bc, pool, stream


def timed_loop(bc, pool, stream, seconds: float):
    """Whole cycles until the summed scaled op time reaches ``seconds``.

    The reference loop is timed again after every ``SEGMENT_S`` of op time
    and at the end of each cycle; the ops in between are scaled by the mean
    of the speed factors measured before and after them.  Returns records
    ``(op, result, cpu_s, scaled_s)`` and the summed scaled time.
    """
    records = []
    busy = 0.0
    cycles = iter(pool)
    factor = speed_factor()
    while busy < seconds:
        cycle = next(cycles, None) or next(stream)
        segment, cpu = [], 0.0
        for i, op in enumerate(cycle):
            result, elapsed = call_op(bc, op)
            segment.append((op, result, elapsed))
            cpu += elapsed
            if cpu < SEGMENT_S and i + 1 < len(cycle):
                continue
            # calibrating for ~2% of the segment's time keeps the factor's
            # own noise small next to the drift it corrects
            after = speed_factor(max(3, min(100, int(0.02 * cpu / REFERENCE_S))))
            scale = (factor + after) / 2
            records += [(o, r, e, e * scale) for o, r, e in segment]
            busy += cpu * scale
            factor = after
            segment, cpu = [], 0.0
    return records, busy


def run_child(args: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=170, cwd=ROOT
    )
    if proc.returncode != 0:
        sys.exit(f"error: child {args} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def measure_setup(workload: str, seed: int) -> float:
    """Median CPU time from the start of a fresh interpreter until its first
    timed op is ready, over ``SETUP_REPEATS`` fresh processes."""
    return statistics.median(
        float(run_child([str(BENCH / "run.py"), "--workload", workload,
                         "--seed", str(seed), "--setup-only"])[-1])
        for _ in range(SETUP_REPEATS)
    )


def probe_cli() -> dict[str, float]:
    """CPU times of a fresh interpreter's start-up and of ``import
    braidcryst`` in one (medians)."""
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        start = children_cpu()
        run_child(["-c", "pass"])
        interp.append(children_cpu() - start)
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
                "import braidcryst; print(time.process_time() - t)")
        imports.append(float(run_child(["-c", code, str(SRC)])[-1]))
    factor = speed_factor()
    return {"cli.interpreter_s": statistics.median(interp) * factor,
            "cli.import_s": statistics.median(imports) * factor}


# --- metrics ----------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples above it,
    and that percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(records, failed, setup_s, peak_rss_kb):
    latencies = [r[3] for r in records]
    tail_s, _ = tail(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "pass_ratio": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, records, untraced_ops_per_s, cache_deltas, cli_probe):
    from tracing import TRACED, span_name

    out = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        out[f"{name}.errors"] = (tracer.errors[name], "count")
    for key in ("braidword.linking_vector.letters", "subgroups.is_bieberbach.elements_listed",
                "frobenius.subgroup_closure.elements"):
        out[key] = (int(tracer.extra[key]), "count")
    out["zlinalg.snf.max_entry_digits"] = (int(tracer.extra["zlinalg.snf.max_entry_digits"]), "digits")
    out["zlinalg.hnf.max_entry_digits"] = (int(tracer.extra["zlinalg.hnf.max_entry_digits"]), "digits")
    out["zlinalg.snf.max_shape"] = (int(tracer.extra["zlinalg.snf.max_shape"]), "entries")
    for n in MUL_SIZES:
        samples = tracer.mul_by_n.get(n)
        out[f"quotient.mul.n{n}.p50_us"] = (statistics.median(samples) * 1e6 if samples else 0.0, "us")
    lift, cocycle = cache_deltas
    out["quotient.canonical_lift.calls"] = (lift[0] + lift[1], "count")
    out["quotient.cocycle_cache.hit_ratio"] = (
        cocycle[0] / (cocycle[0] + cocycle[1]) if sum(cocycle) else 0.0, "ratio")
    verbs = {}
    for op, _, _, elapsed in records:
        if op.func == "cli":
            verbs.setdefault(op.kind, []).append(elapsed)
    import workloads

    for verb in workloads.CLI_VERBS:
        samples = verbs.get(verb)
        out[f"cli.{verb}.p50_ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    for key in ("cli.interpreter_s", "cli.import_s"):
        out[key] = (cli_probe.get(key, 0.0), "s")
    op_time = sum(r[2] for r in records)
    qb_self = sum(v for k, v in tracer.self_s.items() if k.startswith(("quotient.", "braidword.")))
    ops_per_s = len(records) / sum(r[3] for r in records)
    out["trace.ops_per_s_ratio"] = (ops_per_s / untraced_ops_per_s, "ratio")
    out["trace.op_time_s"] = (op_time, "s")
    out["trace.quotient_braidword_self_s"] = (qb_self, "s")
    out["trace.unaccounted_s"] = (op_time - qb_self, "s")
    return out


def cache_info(fn) -> tuple[int, int]:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return (0, 0)
    i = info()
    return (i.hits, i.misses)


def cache_counters(bc) -> list[tuple[int, int]]:
    """(hits, misses) of the lift and cocycle caches; zeros once a cache is
    gone, which is not a failure."""
    q = bc.quotient
    return [cache_info(getattr(q, "canonical_lift", None)), cache_info(getattr(q, "_cocycle", None))]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("group_law", "decide", "lattice", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the scaled set-up CPU time, and exit (for setup_s)")
    return parser.parse_args(argv)


def run(args) -> dict:
    if args.setup_only:
        # main-thread CPU time since process start (numpy's helper threads
        # left out) plus the CLI warm-up child, scaled by the speed measured
        # before and after; the first measurement's own cost is left out
        start = time.thread_time()
        before = speed_factor(9)
        calibration = time.thread_time() - start
        setup(args.workload, args.seed)
        used = time.thread_time() - calibration + children_cpu()
        print(used * (before + speed_factor(9)) / 2)
        return {}
    bc, pool, stream = setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        untraced = run_child([str(BENCH / "run.py"), "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", "0"])
        untraced_ops_per_s = json.loads(untraced[-1])["metrics"]["ops_per_s"]["value"]
        tracer = Tracer()
        before = cache_counters(bc)
        tracer.install()
    records, busy = timed_loop(bc, pool, stream, args.seconds)
    if tracer is not None:
        tracer.uninstall()
        after = cache_counters(bc)
        deltas = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = child_kb if args.workload == "cli" else self_kb

    failed = sum(1 for op, result, _, _ in records if not check(op, result))
    n = len(records)
    _, pct = tail([r[3] for r in records])
    print(f"# {args.workload} seed {args.seed}: {n} ops, {busy:.3f} s of scaled op time, "
          f"fail_ratio {failed}/{n} = {failed / n:.6f}")
    print(f"# op_tail_ms is the p{pct:.2f} latency: {min(10, n - 1)} of {n} samples lie above it")
    if tracer is None:
        metrics = end_to_end(records, failed, measure_setup(args.workload, args.seed), peak_kb)
    else:
        cli_probe = probe_cli() if args.workload == "cli" else {}
        metrics = per_layer(tracer, records, untraced_ops_per_s, deltas, cli_probe)
        m = metrics
        print(f"# trace overhead: traced/untraced ops_per_s = {m['trace.ops_per_s_ratio'][0]:.3f}; "
              f"quotient+braidword self time {m['trace.quotient_braidword_self_s'][0]:.3f} s of "
              f"{m['trace.op_time_s'][0]:.3f} s op time, "
              f"{m['trace.unaccounted_s'][0]:.3f} s elsewhere")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    args = parse_args()
    result = run(args)
    if result:
        print(json.dumps(result))
