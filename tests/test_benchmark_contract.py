"""The benchmark's contract with this code: an untraced and a traced pass
of each workload and the known-defect probe, run through
``benchmarks/run.py``'s own helpers, end with a JSON line in which every
operation is ``ok``; the traced passes read every per-layer metric; the CLI cold start that
``setup_s`` times runs; and a whole ``run.py`` run, untraced and traced,
ends with a correct result line naming every metric of BENCHMARK.json."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("benchmark_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["window-render", "point-query", "checker"])
def test_one_pass_of_each_workload_is_all_ok(run, workload):
    report = run.run_pass(workload, 7, trace=False)
    assert report["outcomes"] and set(report["outcomes"]) == {"ok"}
    assert len(report["op_s"]) == len(report["cal_s"]) == len(report["outcomes"])


def test_known_defect_probe_is_ok(run):
    assert run.run_probe()["outcome"] == "ok"


def test_cold_start_snippet_runs(run):
    assert run.cold_start() > 0


@pytest.mark.parametrize("workload", ["window-render", "point-query", "checker"])
def test_traced_pass_reads_every_layer(run, workload):
    # the tracer nulls the metrics of any hook it no longer finds, so a
    # renamed or removed hook shows up here as a None
    report = run.run_pass(workload, 7, trace=True)
    assert report["outcomes"] and set(report["outcomes"]) == {"ok"}
    assert [name for name, value in report["layers"].items() if value is None] == []
    if workload == "checker":
        # the tracer wraps finspace._mediators and calls its check with one point
        assert report["layers"]["finspace.cones"] > 0
        assert report["layers"]["posets.longest_chain.self_s"] > 0
        assert report["layers"]["posets.largest_antichain.self_s"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_whole_run_ends_with_its_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "window-render", "--seed", "7",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]]
    assert [name for name in names if name not in result["metrics"]] == []
