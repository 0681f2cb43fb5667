"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import qmetrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Inputs per workload small enough for a test: 11 points, 2 Monte Carlo calls, 1 scan.
SMALL = {"points": 11, "montecarlo": 2, "gauge": 1}


def _loop(name, seed=5, record=None):
    workload = workloads.WORKLOADS[name](seed)
    return workload, worker.timed_loop(qmetrics, workload, 0.0, 0, record, keep=SMALL[name])


def test_self_times_on_a_hand_built_tree():
    spans = [
        ("op", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("op", 10.0, 12.0, None, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_checks_and_records(name, tmp_path):
    path = tmp_path / "r.jsonl"
    with open(path, "w") as fh:
        workload, loop = _loop(name, record=fh)
    assert loop["attempted"] >= SMALL[name]
    # Two Monte Carlo calls are too few for the pooled-variance check.
    per_op = [f for f in loop["failures"] if not f.startswith("pooled variance")]
    assert per_op == []
    assert len(compare.load(path)) == len(loop["call_times"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name):
    workload, loop = _loop(name)
    runs = [worker.traced_pass(qmetrics, workload, SMALL[name], loop) for _ in range(2)]
    for tracer, _, failures in runs:
        assert failures == [] and tracer.missing == []
    counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".unique_frac"))}
              for _, m, _ in runs]
    assert counts[0] == counts[1]
    assert len(counts[0]) == len(tracing.SPAN_NAMES) + len(tracing.FAMILY_CALLABLES)


def test_missing_names_are_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(qmetrics.linalg, "central_difference")
    monkeypatch.delattr(qmetrics.gauge.PhaseAssignment, "alphas")
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + ("nosuchmodule.f",))
    tracer = tracing.Tracer()
    with tracer.install():
        pass
    assert tracer.missing == ["linalg.central_difference", "nosuchmodule.f", "gauge.alphas"]
    assert tracer.layer_metrics(1)["linalg.central_difference.calls"] == (0.0, "calls/op")


def test_install_rebinds_everywhere_and_restores():
    original = qmetrics.linalg.eig_hermitian
    with tracing.Tracer().install():
        wrapped = qmetrics.linalg.eig_hermitian
        assert wrapped is not original
        assert qmetrics.metrics.eig_hermitian is wrapped and qmetrics.eig_hermitian is wrapped
    assert qmetrics.metrics.eig_hermitian is original and qmetrics.eig_hermitian is original


def test_failure_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in (0.0, 2.0):
        loop = worker.timed_loop(qmetrics, workloads.Points(3), seconds, 44)
        counts.append((loop["attempted"], loop["failed"]))
    assert counts[0] == counts[1] and counts[0][0] == 44
    assert loop["ops_run"] > 44


def test_same_seed_records_agree_exactly(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        with open(path, "w") as fh:
            _loop("points", seed=9, record=fh)
    report = compare.compare(compare.load(paths[0]), compare.load(paths[1]))
    assert report["common"] == SMALL["points"]
    assert (report["mismatched"], report["max_abs"], report["max_rel"]) == (0, 0.0, 0.0)
    other = tmp_path / "c.jsonl"
    with open(other, "w") as fh:
        _loop("points", seed=10, record=fh)
    assert compare.compare(compare.load(paths[0]), compare.load(other))["max_abs"] > 0.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |       pickle",
        "import time:       100 |        150 |     numpy.core",
        "import time:        20 |        170 |   numpy",
        "import time:        30 |         30 |     scipy.linalg._x",
        "import time:        40 |         70 |   scipy.linalg",
        "import time:        10 |        250 | qmetrics",
    ])
    out = run.parse_importtime(text)
    assert out["import.numpy_s"] == (170e-6, "s")
    assert out["import.scipy_s"] == (70e-6, "s")
    assert out["import.qmetrics_s"] == (250e-6, "s")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_contract_line(trace, section):
    proc = _run("--workload", "points", "--seed", "2", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("records", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "points", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
