import math

import pytest

from qmetrics import verify
from qmetrics.errors import ValidationError


def test_suite_registry_names():
    assert set(verify.SUITES) == {
        "sandwich", "gauge", "monotone", "crlb", "kmb-limit", "achievability"
    }


def test_sandwich_suite_passes_and_reports_margins():
    report = verify.sandwich_suite(n_families=30, seed=42)
    assert report["passed"]
    assert report["worst_lower_margin"] >= -1e-8
    assert report["worst_upper_margin"] >= -1e-8
    assert report["worst_engine_deviation"] <= 1e-8


def test_monotone_suite_finds_the_expected_violation():
    report = verify.monotone_suite(n_channels=20, seed=42)
    assert report["passed"]
    assert report["cl_violation_delta"] > 0
    assert report["worst_sld_increase"] <= 1e-8


def test_achievability_suite_small():
    report = verify.achievability_suite(n_families=10, seed=42)
    assert report["passed"]


def test_suites_deterministic_per_seed():
    a = verify.kmb_limit_suite(n_families=3, seed=5)
    b = verify.kmb_limit_suite(n_families=3, seed=5)
    assert a == b


def test_family_seed_base_defaults_to_the_suites_own_seeds():
    # Family i of a suite has seed seed * k + i unless a base is given.
    assert (verify.kmb_limit_suite(n_families=3, seed=5)
            == verify.kmb_limit_suite(n_families=3, seed=5, family_seed_base=85_000))
    assert (verify.achievability_suite(n_families=3, seed=5)
            == verify.achievability_suite(n_families=3, seed=5, family_seed_base=115_000))
    assert (verify.gauge_suite(n_families=1, n_gauges=2, seed=5)
            == verify.gauge_suite(n_families=1, n_gauges=2, seed=5, family_seed_base=35_000))
    assert (verify.kmb_limit_suite(n_families=3, seed=5)
            != verify.kmb_limit_suite(n_families=3, seed=5, family_seed_base=6_000_000))


@pytest.mark.parametrize("suite,seed", [("crlb", 1), ("crlb", 7), ("kmb-limit", 15), ("kmb-limit", 34)])
def test_suites_pass_a_correct_library_at_seeds_the_old_gates_failed(suite, seed):
    # crlb's separate 0.95 floor sat 0.8 sd under the mean variance, and
    # kmb-limit's [5, 20] window on err(1e-2) / err(1e-3) assumed a nonzero
    # first-order term: both failed about a fifth of the seeds.
    report = verify.SUITES[suite](seed=seed)
    assert report["passed"], report


def test_crlb_reports_its_z_score_and_false_failure_rate():
    # 2 000 replicates put the +-15% band at 4.7 sd of the sample variance.
    report = verify.crlb_suite(seed=42)
    assert report["reps"] == 2_000 and report["passed"]
    rel_sd = math.sqrt(2.0 / 1_999)
    assert report["z_score"] == pytest.approx(
        (report["empirical_variance"] / report["target_variance"] - 1.0) / rel_sd)
    assert report["false_failure_rate"] == pytest.approx(2.1e-6, rel=0.05)
    with pytest.raises(ValidationError, match="reps must be an integer >= 2"):
        verify.crlb_suite(reps=1)


def test_kmb_limit_fails_when_the_curvature_is_compared_with_the_sld_information(monkeypatch):
    # The relative entropy's Hessian is the KMB metric, not the SLD one: the
    # gate's constant is at most 3.7 for KMB over seeds 0-99, at least 28.6 for SLD.
    monkeypatch.setattr(verify, "kmb_information", verify.sld_information)
    for seed in (15, 34, 42):
        assert not verify.kmb_limit_suite(seed=seed)["passed"]


def test_gauge_suite_gates_the_gap_off_the_grid_nodes():
    # 5.3e-8 at seed 42: the chord error of the minimizing gauge's linear
    # interpolant at 0.3 of a cell, against 2e-14 at the node.
    report = verify.gauge_suite(seed=42)
    assert report["passed"] and report["worst_offnode_gap"] <= 1e-7
    assert report["worst_minimized_gap"] <= 1e-10
