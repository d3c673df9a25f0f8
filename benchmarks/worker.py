"""One timed pass over a workload's batch, in a fresh interpreter.

    python3 benchmarks/worker.py --workload NAME --seed N [--trace]
    python3 benchmarks/worker.py --probe

Prints one JSON line: each operation's latency and outcome, one
calibration round timed after each operation (see ``calibrate``), the
process's peak resident set and, with --trace, the per-layer metrics.
Without --trace nothing of ``layertrace`` is imported, so the timed code
runs exactly as shipped.  ``run.py`` starts one worker per pass.  With
--probe the worker instead runs the known-defect probe of
``workloads.deep_chain_probe`` once, untimed, and prints its outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# A traced coeff adds one wrapper frame to the two frames (coeff and the
# convolution closure) that each level of a product chain costs, so the
# traced limit is raised by half: a chain that fits the stack untraced
# still fits it traced.
TRACED_RECURSION_LIMIT = sys.getrecursionlimit() * 3 // 2


def _untouched() -> bool:
    """True when no function of genseries runs code from layertrace."""
    def traced(obj):
        code = getattr(obj, "__code__", None)
        return code is not None and code.co_filename.endswith("layertrace.py")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "genseries":
            continue
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            if any(traced(m) for m in members):
                return False
    return "layertrace" not in sys.modules


def calibrate(perf=time.perf_counter) -> float:
    """Seconds taken by one round of fixed interpreter work shaped like the
    library's inner loop, but independent of genseries: a memoized
    convolution over tuple keys, through a closure and a generator.
    Collection is paused so that no heap walk lands in it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    memo = {}

    def coeff(a, b):
        key = (a, b)
        value = memo.get(key)
        if value is None:
            value = memo[key] = (a * 31 + b) % 97
        return value

    total = 0
    for m in range(70):
        total += sum(coeff(a, m - a) for a in range(m + 1) if (a + m) % 5 != 3)
    dt = perf() - t0
    if was_enabled:
        gc.enable()
    return dt


def outcome(op, run) -> str:
    """'ok', 'wrong', or 'raised <exception type>' for one operation."""
    status, value = run
    if status == "raised":
        return f"raised {value}"
    return "ok" if op.check(value) else "wrong"


def _attempt(op, genseries):
    try:
        return "ok", op.run(genseries)
    except Exception as exc:  # an uncaught library exception is a failed op
        return "raised", type(exc).__name__


def probe() -> int:
    import genseries
    import genseries.cli

    import workloads

    op = workloads.deep_chain_probe()
    print(json.dumps({"kind": op.kind, "outcome": outcome(op, _attempt(op, genseries))}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        return probe()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --probe")

    import genseries
    import genseries.cli

    import workloads

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        sys.setrecursionlimit(TRACED_RECURSION_LIMIT)
    elif not _untouched():
        print("error: untraced worker found wrapped hooks", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    workdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        gc.collect()
        results, latencies, rounds = [], [], []
        perf = time.perf_counter
        for op in ops:
            t0 = perf()
            result = _attempt(op, genseries)
            latencies.append(perf() - t0)
            results.append(result)
            rounds.append(calibrate())
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other worker still uses it

    report = {
        "op_s": latencies,
        "cal_s": rounds,
        "kinds": [op.kind for op in ops],
        "outcomes": [outcome(op, run) for op, run in zip(ops, results)],
        "coeffs": sum(op.coeffs for op in ops),
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
