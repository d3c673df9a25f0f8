"""genseries benchmark: one workload, one seed, every output checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: window-render, point-query,
checker (see README.md).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name with its unit.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  For
S seconds the benchmark alternates cold starts of the CLI (set-up) with a
pass over the workload's fixed batch, each in a fresh interpreter with a
fixed hash seed.  Every timing is reported at reference host speed: it is
multiplied by the reference time of a fixed calibration round over the mean
time of the rounds run beside it (``worker.calibrate``; README.md gives the
measurements behind this).  Each operation's latency is the median of its
scaled latencies over the passes, ``wall_s`` their sum, and ``setup_s`` the
median cold start, scaled by the median speed factor of the passes between
which the cold starts ran.  With --trace 1
the metrics are the per-layer counts and self times of traced passes, plus
the traced to untraced wall-time ratio.

One process and one thread run the operations; the loop is closed with one
client: each operation starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("window-render", "point-query", "checker")
SERIES_WORKLOADS = ("window-render", "point-query")

MIN_PASSES = 3
COLD_STARTS_PER_PASS = 2
REF_CAL_S = 0.001         # a calibration round's time at reference host speed
SPEED_REACH = 10          # rounds on each side of an operation that scale it
PASS_TIMEOUT_S = 170
BUDGET_S = 150            # no new pass starts once this much of the run is spent
TRACED_PASSES = 2         # their counts must agree exactly

# what every CLI call pays before its command runs: interpreter, import, parser
SETUP_SNIPPET = ("import time\n"
                 "import genseries.cli\n"
                 "genseries.cli.build_parser()\n"
                 "print(time.perf_counter())\n")


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # same string hashes, so same set orders, in every pass
    return env


def _run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[:2])} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _speed(rounds) -> float:
    """Factor taking times measured beside these calibration rounds to
    reference host speed."""
    return REF_CAL_S / statistics.fmean(rounds)


def _scaled(report) -> list[float]:
    """The pass's operation latencies at reference speed, each scaled by the
    calibration rounds timed just before and after it."""
    rounds = report["cal_s"]
    return [t * _speed(rounds[max(0, i - SPEED_REACH):i + SPEED_REACH + 1])
            for i, t in enumerate(report["op_s"])]


def cold_start() -> float:
    """Seconds from spawning a fresh interpreter to a built CLI parser.

    perf_counter is CLOCK_MONOTONIC, which parent and child share.
    """
    t0 = time.perf_counter()
    return float(_run([sys.executable, "-c", SETUP_SNIPPET], 60).strip()) - t0


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    report = json.loads(_run(cmd, PASS_TIMEOUT_S).strip().splitlines()[-1])
    report["speed"] = _speed(report["cal_s"])
    report["scaled_s"] = _scaled(report)
    return report


def run_probe() -> dict:
    """The known-defect probe, once and untimed (see workloads.deep_chain_probe)."""
    return json.loads(_run([sys.executable, WORKER, "--probe"], 60).strip().splitlines()[-1])


def run_passes(workload, seed, seconds, started, min_passes=MIN_PASSES):
    """Untraced passes for the given seconds, each after a few cold starts."""
    cold_start()  # the first start after a checkout also writes bytecode caches
    starts, passes = [], []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        before = time.perf_counter()
        starts += [cold_start() for _ in range(COLD_STARTS_PER_PASS)]
        passes.append(run_pass(workload, seed, trace=False))
        now = time.perf_counter()
        if (now - started) + (now - before) > BUDGET_S:
            break
    return starts, passes


# ---------------------------------------------------------------------------
# aggregation


def summarize(passes: list[dict]) -> dict:
    """Per-operation latencies at reference speed, each the median over the
    passes, and the batch time they add up to."""
    outcomes = passes[0]["outcomes"]
    n_ops = len(outcomes)
    per_op = [statistics.median(p["scaled_s"][i] for p in passes) for i in range(n_ops)]
    p90 = statistics.quantiles(per_op, n=10)[8]
    failures = Counter(f"{kind}: {o}" for kind, o in zip(passes[0]["kinds"], outcomes)
                       if o != "ok")
    return {
        "passes": len(passes),
        "ops": n_ops,
        "deterministic": all(p["outcomes"] == outcomes and p["kinds"] == passes[0]["kinds"]
                             for p in passes),
        "outcomes": outcomes,
        "failures": failures,
        "wall_s": sum(per_op),
        "raw_wall_s": statistics.median(sum(p["op_s"]) for p in passes),
        "speed": statistics.median(p["speed"] for p in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(t > p90 for t in per_op),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "coeffs": passes[0]["coeffs"],
    }


def cross_workload_zeros(workload: str, counts: dict) -> list[str]:
    """Counts that must be zero on this workload: the series layers do no
    work in the checker, and the category checker none on series workloads."""
    if workload in SERIES_WORKLOADS:
        quiet = ("finspace.",)
    else:
        quiet = ("cli.", "series.", "monoids.", "rings.")
    return [f"{name} = {value} on {workload}, expected 0"
            for name, value in counts.items() if name.startswith(quiet) and value]


def probe_line(workload: str) -> tuple[str, bool]:
    """The probe's outcome as a line of its own, and whether it is acceptable:
    it may fail, as the known defect does, but a value it returns must be right."""
    if workload != "point-query":
        return "", True
    probe = run_probe()
    return (f"known-defect probe {probe['kind']} (untimed, outside the batch): "
            f"{probe['outcome']}"), probe["outcome"] != "wrong"


# ---------------------------------------------------------------------------
# output


def _metric(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def _print_lines(rows):
    for name, value, unit, note in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>14} {unit:<6} {note}".rstrip())


def untraced_run(args, spec) -> dict:
    starts, passes = run_passes(args.workload, args.seed, args.seconds, args.started)
    s = summarize(passes)
    probe, probe_ok = probe_line(args.workload)
    values = {
        "setup_s": statistics.median(starts) * s["speed"],
        "wall_s": s["wall_s"],
        "op_p50_ms": s["op_p50_ms"],
        "op_p90_ms": s["op_p90_ms"],
        "peak_rss_mb": s["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {
        "setup_s": f"median of {len(starts)} cold starts; raw "
                   f"{statistics.median(starts):.4g} s",
        "wall_s": f"sum of {s['ops']} latencies, each a median of {s['passes']} passes; "
                  f"raw median pass {s['raw_wall_s']:.4g} s at speed factor {s['speed']:.3f}",
        "op_p50_ms": f"{s['ops']} samples",
        "op_p90_ms": f"{s['ops']} samples, {s['beyond_p90']} beyond",
        "peak_rss_mb": f"median over {s['passes']} worker processes",
    }
    print(f"workload {args.workload}, seed {args.seed}: {s['passes']} passes of "
          f"{s['ops']} operations, closed loop, one client; times at reference speed")
    rows = [(name, values[name], units[name], notes[name]) for name in units]
    if args.workload in SERIES_WORKLOADS:
        rows.append(("coeffs_per_s", s["coeffs"] / s["wall_s"], "1/s",
                     f"{s['coeffs']} coefficients per pass"))
    failed = s["failures"].total()
    rows.append(("failed_ratio", failed / s["ops"], "ratio",
                 f"{failed} of {s['ops']} per pass "
                 + "; ".join(f"{n} x {what}" for what, n in sorted(s["failures"].items()))))
    _print_lines(rows)
    if probe:
        print(probe)
    return {
        "correct": s["deterministic"] and failed == 0 and probe_ok,
        "attempted": s["ops"] * s["passes"],
        "failed": failed * s["passes"],
        "metrics": {name: _metric(values[name], units[name]) for name in units},
    }


def traced_run(args, spec) -> dict:
    _, plain = run_passes(args.workload, args.seed, args.seconds / 2, args.started)
    traced = [run_pass(args.workload, args.seed, trace=True) for _ in range(TRACED_PASSES)]
    probe, probe_ok = probe_line(args.workload)
    base = summarize(plain)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first = traced[0]["layers"]
    counts = {name: first[name] for name in units if units[name] == "count"}
    problems = [f"{name} differs between traced passes: {value} vs {t['layers'][name]}"
                for t in traced[1:] for name, value in counts.items()
                if t["layers"][name] != value]
    if any(t["outcomes"] != base["outcomes"] for t in traced):
        problems.append("tracing changed operation outcomes")
    problems += cross_workload_zeros(args.workload, counts)
    layers = dict(first)
    for name, value in first.items():
        if name.endswith(".self_s") and value is not None:
            layers[name] = statistics.median(t["layers"][name] * t["speed"] for t in traced)
    layers["trace_overhead"] = summarize(traced)["wall_s"] / base["wall_s"]

    print(f"workload {args.workload}, seed {args.seed}: {len(traced)} traced passes, "
          f"{base['passes']} untraced passes of {base['ops']} operations; "
          f"self times at reference speed")
    _print_lines([(name, layers[name], units[name], "") for name in units])
    for line in problems:
        print(f"check failed: {line}")
    if probe:
        print(probe)
    passes = base["passes"] + len(traced)
    failed = base["failures"].total()
    return {
        "correct": base["deterministic"] and failed == 0 and probe_ok and not problems,
        "attempted": base["ops"] * passes,
        "failed": failed * passes,
        "metrics": {name: _metric(layers[name], units[name]) for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "genseries", "cli.py")):
            raise BenchError(f"no genseries source tree under {ROOT}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        result = traced_run(args, spec) if args.trace else untraced_run(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
