import json
import math

from dataclasses import replace

import numpy as np
import pytest

from qmetrics import families, verify
from qmetrics.cli import _emit, main
from qmetrics.errors import NumericalError
from qmetrics.families import bloch3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_metric_json(capsys):
    code, out, _ = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.6,0.7,0.2",
        "--metrics", "sld,cl,cupsilon",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data["metrics"]) == {"sld", "cl", "cupsilon"}
    sld = np.array(data["metrics"]["sld"])
    assert sld.shape == (3, 3)
    assert abs(sld[0, 0] - 1.0 / (1.0 - 0.36)) < 1e-6


def test_metric_csv(capsys):
    code, out, _ = run(
        capsys, "metric", "--family", "diagonal-simplex", "--theta", "0.2",
        "--metrics", "sld", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,m00"
    assert abs(float(lines[1].split(",")[1]) - 1.0 / (1.0 - 0.04)) < 1e-6


def test_unknown_metric_exits_2(capsys):
    code, _, err = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.6,0.7,0.2",
        "--metrics", "nope",
    )
    assert code == 2
    assert "nope" in err


def test_wrong_theta_length_exits_2(capsys):
    code, _, err = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.6,0.7", "--metrics", "sld",
    )
    assert code == 2


def test_stencil_leaving_the_domain_exits_2(capsys, monkeypatch):
    # The registry's bloch3 without its exact tangents: its stencil leaves the domain.
    monkeypatch.setitem(families._REGISTRY, "bloch3", lambda param: replace(bloch3(), tangents=None))
    code, _, err = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.9999999,0.7,0.2", "--metrics", "sld",
    )
    assert code == 2
    assert "'bloch3' at theta [0.9999999, 0.7, 0.2] with step h=1e-05" in err


def test_a_near_bound_point_with_exact_tangents_exits_0(capsys):
    code, out, _ = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.9999999,1,0", "--metrics", "sld",
    )
    assert code == 0
    r, t = 0.9999999, 1.0
    expected = [1.0 / (1.0 - r * r), r * r, (r * math.sin(t)) ** 2]
    sld = np.array(json.loads(out)["metrics"]["sld"])
    assert np.allclose(np.diag(sld), expected, rtol=1e-6, atol=0)
    assert np.all(np.abs(sld - np.diag(np.diag(sld))) <= 1e-6 * np.sqrt(np.outer(expected, expected)))


def test_numerical_failure_exits_3(capsys):
    # full-rank-only information on a rank-1 family
    code, _, err = run(
        capsys, "metric", "--family", "pure-rotation", "--theta", "0.3", "--metrics", "kmb",
    )
    assert code == 3


def test_a_difference_step_that_rounds_away_exits_3(capsys):
    # theta + h rounded back to theta and the bound read 0.0 with exit 0.
    code, out, err = run(capsys, "channel-bound", "--channel-family", "rotation-z", "--theta", "1e12")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: difference step h=1e-05 rounds away at theta [1000000000000.0]")
    code, out, _ = run(capsys, "channel-bound", "--channel-family", "rotation-z", "--theta", "1e4")
    assert code == 0 and abs(json.loads(out)["bound"] - 1.0) < 1e-6


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""], ids=["numpy", "bare"])
def test_an_allocation_failure_exits_3_with_one_line(capsys, monkeypatch, message):
    # The allocation is never tried: an OS that grants it lazily kills the process instead.
    def too_large(param):
        raise MemoryError(message)

    monkeypatch.setitem(families._REGISTRY, "random-full-rank", too_large)
    code, out, err = run(capsys, "metric", "--family", "random-full-rank", "--params", '{"d":100000}',
                         "--theta", "0.1", "--metrics", "sld")
    assert code == 3 and out == ""
    assert err == f"numerical failure: {message or 'out of memory'}\n"


def test_examples_bloch3_gauges(capsys):
    code, out, _ = run(capsys, "examples", "--which", "bloch3-gauges")
    assert code == 0
    data = json.loads(out)
    assert data["max_deviation"] < 1e-6
    assert len(data["rows"]) == 18


def test_examples_depolarize(capsys):
    code, out, _ = run(capsys, "examples", "--which", "depolarize-cl")
    assert code == 0
    data = json.loads(out)
    by_key = {(r["epsilon"], r["r"]): r for r in data["rows"]}
    row = by_key[(0.1, 0.5)]
    assert abs(row["delta"] - (1 - 0.5) * (8 / 3 - 8 * 0.1)) < 1e-6
    assert abs(by_key[(0.1, 1.0)]["delta"]) < 1e-9  # identity channel


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sandwich")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


@pytest.mark.parametrize("failed", [False, np.False_], ids=["bool", "numpy-bool"])
def test_a_failing_suite_exits_1_with_its_report(capsys, monkeypatch, failed):
    monkeypatch.setitem(verify.SUITES, "kmb-limit", lambda seed: {"seed": seed, "passed": failed})
    code, out, err = run(capsys, "verify", "--suite", "kmb-limit", "--seed", "3")
    assert code == 1 and err == ""
    assert json.loads(out) == {"seed": 3, "passed": False}


def test_verify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "kmb-limit", "--seed", "42")
    _, out2, _ = run(capsys, "verify", "--suite", "kmb-limit", "--seed", "42")
    assert out1 == out2


def test_gauge_check_verdicts(capsys):
    code, out, _ = run(capsys, "gauge-check", "--family", "bloch3", "--theta", "0.5,1.2,0.5")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "FAIL"
    worst = max(abs(e["imag"]) for e in data["entries"])
    assert abs(worst - math.sin(1.2) / 4.0) < 1e-6


def test_gauge_min_reports_closed_gap(capsys):
    code, out, _ = run(
        capsys, "gauge-min", "--family", "random-full-rank", "--params",
        '{"d": 2, "seed": 9}', "--theta0", "-0.5", "--theta1", "0.5", "--eval-at", "0.0",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["cupsilon_after"] - data["cl"]) < 1e-6


@pytest.mark.parametrize("eval_at", ["0.5", "0.6"])
def test_gauge_min_outside_the_sampled_grid_exits_2(capsys, eval_at):
    # At the grid's end the stencil leaves the samples; beyond it so does the point.
    code, out, err = run(
        capsys, "gauge-min", "--family", "random-full-rank", "--params", '{"d": 3, "seed": 5}',
        "--theta0", "-0.5", "--theta1", "0.5", "--eval-at", eval_at,
    )
    assert code == 2 and out == ""
    assert "outside the sampled phase grid [-0.5, 0.5]" in err


def test_channel_bound(capsys):
    code, out, _ = run(capsys, "channel-bound", "--channel-family", "rotation-z", "--theta", "0.7")
    assert code == 0
    assert abs(json.loads(out)["bound"] - 1.0) < 1e-6


def test_channel_bound_reference_states(capsys):
    code, out, _ = run(capsys, "channel-bound", "--channel-family", "rotation-z", "--theta", "0.7",
                       "--rho0", "zero")
    assert code == 0
    assert abs(json.loads(out)["bound"]) < 1e-6  # |0> is fixed by a z rotation
    with pytest.raises(SystemExit) as exc:
        main(["channel-bound", "--channel-family", "rotation-z", "--theta", "0.7", "--rho0", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_estimate_small(capsys, monkeypatch):
    monkeypatch.setenv("QML_SEED", "7")
    code, out, _ = run(
        capsys, "estimate", "--family", "bloch3", "--at", "0.5,0.8,0.3",
        "--direction", "1,0,0", "--theta-true", "0.0", "--n", "500", "--reps", "10",
        "--interval=-0.4,0.4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 7
    assert abs(data["fisher"] - 1.0 / 0.75) < 1e-6
    assert len(data["estimates"]) == 10


def test_estimate_multiparameter_needs_direction(capsys):
    code, _, err = run(
        capsys, "estimate", "--family", "bloch3", "--theta-true", "0.0", "--n", "10",
        "--reps", "2",
    )
    assert code == 2
    assert "direction" in err


def test_estimate_slices_a_one_parameter_family_along_its_direction(capsys):
    # --direction was ignored on a one-parameter family; the slice t -> 0.5 t
    # of diag((1+t)/2, (1-t)/2) has Fisher information 0.25 / (1 - (0.5 t)^2).
    code, out, _ = run(
        capsys, "estimate", "--family", "diagonal-simplex", "--direction", "0.5", "--at", "0",
        "--theta-true", "0.2", "--n", "100", "--reps", "2", "--interval=-0.4,0.4",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["fisher"] - 0.25 / 0.99) < 1e-9
    assert abs(data["sld_bound"] - 0.25 / 0.99) < 1e-9


def test_estimate_default_interval_stays_inside_the_slice(capsys):
    # The slice t -> 0.9 + t of diagonal-simplex has domain (-1.9, 0.1); its
    # default interval used to reach t = 0.45, outside the base family.
    code, out, err = run(
        capsys, "estimate", "--family", "diagonal-simplex", "--direction", "1", "--at", "0.9",
        "--theta-true", "0.05", "--n", "100", "--reps", "2",
    )
    assert code == 0, err
    assert all(-0.35 <= t < 0.1 for t in json.loads(out)["estimates"])


@pytest.mark.parametrize("bad", [("--n", "-5"), ("--n", "0"), ("--reps", "0"), ("--reps", "-2")])
def test_estimate_bad_counts_exit_2(capsys, bad):
    code, out, err = run(
        capsys, "estimate", "--family", "bloch3", "--direction", "1,0,0", "--at", "0.5,0.8,0.3",
        "--theta-true", "0", *bad,
    )
    assert code == 2
    assert out == ""
    assert bad[0][2:] in err


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "metric", "--family", "diagonal-simplex", "--theta", "0.2",
        "--metrics", "cl", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert "cl" in data["metrics"]


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_an_unwritable_out_exits_2_with_an_error_line(tmp_path, capsys, where):
    # A missing directory, or a directory in place of a file: exit 2, not a
    # traceback with the suite-failure code 1.
    code, out, err = run(
        capsys, "metric", "--family", "bloch3", "--theta", "0.5,1,0", "--metrics", "sld",
        "--out", str(tmp_path / where),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {tmp_path / where}: ")


_ESTIMATE = ("estimate", "--family", "diagonal-simplex", "--theta-true", "0.1",
             "--n", "100", "--reps", "5")
_GAUGE_MIN = ("gauge-min", "--family", "random-full-rank", "--theta0", "-0.5", "--theta1", "0.5")
_RANDOM = ("metric", "--family", "random-full-rank", "--theta", "0.1", "--metrics", "sld",
           "--params")

MALFORMED = [
    (("metric", "--family", "bloch3", "--theta", "abc", "--metrics", "sld"),
     "expected comma-separated numbers, got 'abc'"),
    (("metric", "--family", "bloch3", "--theta", "0.5,1,0", "--metrics", ","),
     "no metric names given"),
    (("gauge-min", "--family", "bloch3", "--at", "0.5,0.8,0.3", "--direction", "0,x,0",
      "--theta0", "0", "--theta1", "0.1"), "expected comma-separated numbers, got '0,x,0'"),
    ((*_ESTIMATE, "--interval", "0.1"), "interval must be two finite numbers lo,hi, got '0.1'"),
    ((*_ESTIMATE, "--interval", "0.1,abc"), "expected comma-separated numbers, got '0.1,abc'"),
    ((*_ESTIMATE, "--interval", "0.3,0.5"), "theta_true 0.1 must lie inside the interval"),
    # A grid step of inf used to reach the family as theta nan.
    ((*_ESTIMATE, "--interval=-1e308,1e308"),
     "interval (-1e+308, 1e+308) needs finite ends and a finite grid step"),
    ((*_ESTIMATE, "--direction", "5", "--at", "9"), "theta [9.0] outside domain of 'diagonal-simplex'"),
    ((*_RANDOM, '{"d":"x"}'), "parameter 'd' must be int"),
    ((*_RANDOM, '{"d":2.5}'), "parameter 'd' must be int, got 2.5"),
    ((*_RANDOM, '{"d":true}'), "parameter 'd' must be int, got True"),
    (("metric", "--family", "rot3-mixture", "--theta", "0.1", "--metrics", "sld",
      "--params", '{"epsilon":"a"}'), "parameter 'epsilon' must be float"),
    ((*_RANDOM, '{"d":0}'), "parameter 'd' must be >= 1"),
    ((*_RANDOM, '{"nparams":0}'), "parameter 'nparams' must be >= 1"),
    ((*_RANDOM, '{"seed":-1}'), "parameter 'seed' must be >= 0"),
    # Unknown keys used to be ignored: a misspelled seed ran seed 0.
    ((*_RANDOM, '{"sed":3}'),
     "family 'random-full-rank': unknown parameter 'sed'; it takes d, nparams, seed"),
    (("metric", "--family", "bloch3", "--theta", "0.5,1,0", "--metrics", "sld", "--params", '{"d":5}'),
     "family 'bloch3': unknown parameter 'd'; it takes none"),
    # --at alone used to be ignored, and --direction alone misreported the point's shape.
    ((*_ESTIMATE, "--at", "0.3"), "--at and --direction go together: give both or neither"),
    ((*_ESTIMATE, "--direction", "1"), "--at and --direction go together: give both or neither"),
    (("verify", "--suite", "sandwich", "--seed", "-1"), "seed must be non-negative"),
    (("QML_SEED=abc", "verify", "--suite", "kmb-limit"), "seed must be an integer, got 'abc'"),
    ((*_ESTIMATE, "--seed", "-1"), "seed must be non-negative"),
    (("channel-bound", "--channel-family", "mixed-rotation", "--theta", "0.3", "--seed", "-1"),
     "seed must be non-negative"),
    ((*_GAUGE_MIN, "--steps", "-1"), "steps must be an integer >= 1, got -1"),
    (("gauge-min", "--family", "random-full-rank", "--theta0", "0.5", "--theta1", "-0.5"),
     "scan interval must be finite and strictly increasing"),
    (("channel-bound", "--channel-family", "rotation-z", "--theta", "nan"), "theta must be finite"),
    (("channel-bound", "--channel-family", "mixed-rotation", "--theta", "inf"),
     "theta must be finite"),
    (("gauge-check", "--family", "bloch3", "--theta", "0.5,1.2,0.5", "--tol", "nan"),
     "tolerance must be finite and non-negative"),
    (("gauge-check", "--family", "bloch3", "--theta", "0.5,1.2,0.5", "--tol", "-1"),
     "tolerance must be finite and non-negative"),
]


@pytest.mark.parametrize("argv,message", MALFORMED, ids=[" ".join(a[:1] + a[-2:]) for a, _ in MALFORMED])
def test_malformed_arguments_exit_2_with_an_error_line(capsys, monkeypatch, argv, message):
    # Each used to exit 1 with a traceback, or 0 with a NaN or a FAIL verdict.
    # Leading NAME=value items set the environment, as in a shell.
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_emit_refuses_a_number_json_cannot_hold(capsys, bad):
    with pytest.raises(NumericalError, match="not finite"):
        _emit({"bound": bad})
    assert capsys.readouterr().out == ""
