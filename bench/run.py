#!/usr/bin/env python3
"""Benchmark for mplf: one workload per process, end to end or traced.

    python3 bench/run.py --workload feeder-study --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Full results (and, when traced, the spans) go to
``bench/_out/``.  See ``bench/README.md``.
"""

import os

# One BLAS thread, set before numpy loads: two threads double CPU time and
# move the median op by about 10% on a 2-vCPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

# Set-ups per run (setup_s is their median) and the fewest timed ops.
SETUPS = 3
MIN_OPS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(workload, state, failures, peaks, tracer=None, op=None):
    """One op and its checks; returns (op seconds, raised?, wrong answer?).

    With a tracer, spans are recorded under ``op`` while the op runs and not
    while it is checked, so the checks' own calls into mplf stay out of the
    per-layer metrics.  The process's peak resident set after the op, before
    its check, is appended to ``peaks``.
    """
    gc.collect()
    if tracer:
        tracer.op = op
    start = time.perf_counter()
    try:
        result = workload.op(state)
    except Exception:  # an op that raises is a failed op, not a crashed run
        failures.append(traceback.format_exc(limit=3))
        return time.perf_counter() - start, True, False
    finally:
        if tracer:
            tracer.op = None
    elapsed = time.perf_counter() - start
    peaks.append(peak_rss_mb())
    checker = checks.Checker()
    try:
        workload.check(state, result, checker)
    except Exception:  # a malformed answer fails the op
        checker.failures.append(traceback.format_exc(limit=3))
    failures.extend(checker.failures)
    return elapsed, False, bool(checker.failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mplf" / "__init__.py").is_file():
        print(f"error: no mplf sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    inputs_mb = peak_rss_mb()
    failures, peaks = [], []
    try:
        # Set-up: the program's reusable work plus one untimed warm-up op.
        setup_times = []
        wrong = False
        for _ in range(SETUPS):
            start = time.perf_counter()
            state = workload.setup()
            warm_start = time.perf_counter()
            warm, _, bad = run_op(workload, state, failures, peaks)
            setup_times.append(warm_start - start + warm)
            wrong |= bad

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        durations, attempted, failed = [], 0, 0
        window = time.perf_counter()
        rounds = []
        while True:
            spent = time.perf_counter() - window
            if attempted >= MIN_OPS and spent + statistics.median(rounds) > args.seconds:
                break
            round_start = time.perf_counter()
            elapsed, raised, bad = run_op(workload, state, failures, peaks, tracer, attempted)
            attempted += 1
            failed += raised or bad
            wrong |= bad
            durations.append(elapsed)
            rounds.append(time.perf_counter() - round_start)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    op_s = statistics.median(durations)
    if tracer:
        metrics = {m: (v, tracing.metric_unit(m)) for m, v in tracer.metrics(range(attempted)).items()}
    else:
        values = {"setup_s": statistics.median(setup_times), "op_s": op_s, "peak_rss_mb": peak_rss_mb()}
        metrics = {m: (values[m], END_TO_END_UNITS[m]) for m in END_TO_END_UNITS}
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, op_s=op_s, op_durations=durations,
                  setup_durations=setup_times, failures=failures,
                  # peak resident set after input generation, and after each
                  # op before its check: the first op's mark is free of checks
                  inputs_rss_mb=inputs_mb, op_peak_rss_mb=peaks)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.dump(run_dir / "spans.json", {"op_durations": durations})
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
