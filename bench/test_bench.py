"""Self-tests of the benchmark: span arithmetic, the percentile rule, fail
counting, the tracer's patching, and a tiny smoke run of every workload.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS, Call

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_self_time_on_a_hand_built_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("e", 2.0, 3.0, 1),
        ("c", 3.0, 6.0, 0),    # overlaps b: the overlap counts once for a
        ("d", 8.0, 12.0, 0),   # runs past a's end: clipped to a
        ("b", 20.0, 25.0, -1),  # a second root with the same name as a child
    ]
    got = tracing.self_time(spans)
    # a is covered on [1, 6] and [8, 10]
    assert got == pytest.approx({"a": 3.0, "b": 2.0 + 5.0, "c": 3.0, "d": 4.0, "e": 1.0})


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (19, None),
    (20, (50.0, 10.0)),
    (99, (50.0, 50.0)),
    (100, (90.0, 90.0)),
    (1000, (99.0, 990.0)),
    (10000, (99.9, 9990.0)),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]  # 1..n, unsorted
    assert run.tail_percentile(samples) == expected


def _call(tmp_path, name, lines, rows):
    csv = tmp_path / f"{name}.csv"
    csv.write_text("\n".join(["# seed=0", "distortion,method,snr_db,runtime_s,seed"] + lines))
    return Call(("synth",), csv, None, rows, 1)


def test_fail_counting_on_injected_bad_rows(tmp_path):
    checker = run.Checker({"clip:0.2/fixed": 5.0, "clip:0.4/fixed": 9.0}, tolerance_db=0.1)
    good = _call(tmp_path, "good", ["clip:0.2,fixed,4.95,1.5,0", "clip:0.4,fixed,11,1.5,0"],
                 ("clip:0.2/fixed", "clip:0.4/fixed"))
    checker.check(0, good, 0)
    assert checker.failures == []  # above the reference, or within the tolerance

    bad = _call(tmp_path, "bad", ["clip:0.2,fixed,4.8,1.5,0", "clip:0.4,fixed,nan,1.5,0",
                                  "clip:0.6,fixed,3,1.5,0"],
                ("clip:0.2/fixed", "clip:0.4/fixed", "clip:0.6/fixed", "clip:0.8/fixed"))
    checker.check(1, bad, 0)
    reasons = dict(checker.failures)
    assert set(reasons) == {"clip:0.2/fixed", "clip:0.4/fixed", "clip:0.8/fixed"}
    assert "below reference" in reasons["clip:0.2/fixed"]
    assert "non-finite" in reasons["clip:0.4/fixed"]
    assert "missing" in reasons["clip:0.8/fixed"]

    checker.check(2, good, RuntimeError("boom"))
    assert checker.failures[-2:] == [("clip:0.2/fixed", "raised RuntimeError"),
                                     ("clip:0.4/fixed", "raised RuntimeError")]
    assert checker.attempted == 2 + 4 + 2


def test_rerun_compare_ignores_only_the_runtime_column(tmp_path):
    checker = run.Checker(None, 0.1)
    call = _call(tmp_path, "x", ["quant:2,fixed,7.5,1.0,0"], ("quant:2/fixed",))
    checker.check(0, call, 0)
    call.csv.write_text(call.csv.read_text().replace(",1.0,", ",2.5,"))  # runtime only
    checker.check(0, call, 0)
    assert checker.failures == []
    call.csv.write_text(call.csv.read_text().replace("7.5", "7.50001"))
    checker.check(0, call, 0)
    assert checker.failures == [("quant:2/fixed", "rerun output differs")]


def test_tracer_patches_every_namespace_and_counts_solves():
    sys.path.insert(0, str(run.SRC))
    nlcs = run.fresh_import()
    solvers = nlcs.solvers
    original = solvers.prox_l1
    rng = np.random.default_rng(0)
    d = nlcs.dct_dictionary(8, 16)
    obs = nlcs.apply_measurement(nlcs.Clip(0.3, -0.3), d @ rng.standard_normal(16) / 4)
    hcfg = nlcs.HomotopyConfig(nlcs.SolverConfig(nlcs.L1(1.0), max_iters=50))

    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        assert solvers.prox_l1 is not original
        _, trace = nlcs.experiments.sparse_code_adaptive(d, obs, np.zeros(16), hcfg)
    finally:
        tracing.uninstall(undo)
    assert solvers.prox_l1 is original and missing == []

    spans = tracer.spans()
    summary = tracer.summary(spans)
    assert summary["solvers.sparse_code_adaptive.calls"] == 1
    assert summary["solvers.sparse_code_adaptive.stages"] == len(trace.stages)
    assert summary["solvers.sparse_code_fixed.calls"] == len(trace.stages)
    assert summary["solvers.sparse_code_fixed.iters"] == trace.iterations
    assert summary["linops.prox_l1.calls"] == trace.iterations
    assert summary["solvers.converged_frac"] == float(trace.converged)
    assert all(spans[p][0] == "solvers.sparse_code_fixed"
               for name, _, _, p in spans if name == "linops.prox_l1")


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", str(trace), "--tiny"], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "synth-sweep", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
