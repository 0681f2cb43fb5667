"""Acceptance gate: twelve end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines; each
test also asserts, so the suite fails loudly if any criterion regresses.
"""

import functools
import math
import time

import numpy as np
import pytest

from qmetrics import (
    C_FUNCTIONS,
    ParametricFamily,
    SpectralPresentation,
    bloch3,
    c_l_decomposition,
    c_l_information,
    diagonal_simplex,
    f_function_scan,
    integrability_test,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
    sld_information,
)
from qmetrics import verify


def verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} — {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_two_gauges_of_the_two_level_family():
    start = time.perf_counter()
    rows = verify.EXAMPLES["bloch3-gauges"]()["rows"]
    worst = 0.0
    for row in rows:
        r, t = row["r"], row["theta"]
        ref_plain = np.diag([1 / (1 - r * r), 1.0, 1.0])
        ref_pp = 2 + 2 * r * math.cos(t)
        worst = max(worst, float(np.max(np.abs(row["plain_gauge"] - ref_plain))),
                    abs(row["shifted_gauge"][2, 2] - ref_pp))
    elapsed = time.perf_counter() - start
    verdict(1, "gauge pair closed forms", len(rows) == 18 and worst < 1e-6 and elapsed < 5.0,
            f"max deviation {worst:.2e} over {len(rows)} grid points in {elapsed:.2f}s")


def test_criterion_02_depolarized_mixture_lower_bound():
    start = time.perf_counter()
    rows = verify.EXAMPLES["depolarize-cl"]()["rows"]
    worst = 0.0
    deltas_positive = True
    for row in rows:
        eps, r, delta = row["epsilon"], row["r"], row["delta"]
        worst = max(worst, abs(row["before"] - 8 * eps),
                    abs(row["after"] - (8 * r * eps + 8 * (1 - r) / 3)),
                    abs(delta - (1 - r) * (8 / 3 - 8 * eps)),
                    abs(row["expected_delta"] - (1 - r) * (8 / 3 - 8 * eps)))
        if r < 1:
            deltas_positive &= delta > 0
    elapsed = time.perf_counter() - start
    verdict(2, "depolarized mixture values",
            len(rows) == 12 and worst < 1e-6 and deltas_positive and elapsed < 2.0,
            f"max deviation {worst:.2e}, all deltas positive for r < 1, {elapsed:.2f}s")


@functools.cache
def _sandwich_report():
    """The default sandwich suite (200 families, seeds 4 200 000 + i) and its
    wall time; criteria 3 and 4 read the same run."""
    start = time.perf_counter()
    report = verify.sandwich_suite()
    return report, time.perf_counter() - start


def test_criterion_03_matrix_sandwich_on_200_families():
    report, elapsed = _sandwich_report()
    worst = min(report["worst_lower_margin"], report["worst_upper_margin"])
    verdict(3, "ordering on 200 random families", worst >= -1e-8 and elapsed < 60.0,
            f"min difference eigenvalue {worst:.2e} in {elapsed:.1f}s")


def test_criterion_04_engine_equivalence_on_200_families():
    worst = _sandwich_report()[0]["worst_engine_deviation"]
    verdict(4, "two SLD routes agree", worst < 1e-8, f"max deviation {worst:.2e}")


def test_criterion_05_optimal_measurement_achievability():
    # The achievability suite on 50 families with seeds 5 000 000 + i.
    report = verify.achievability_suite(seed=42, family_seed_base=5_000_000)
    worst_gap, worst_res = report["worst_fisher_gap"], report["worst_equality_residual"]
    verdict(5, "optimal measurement attains the bound",
            worst_gap < 1e-6 and worst_res <= 1e-7,
            f"max Fisher gap {worst_gap:.2e}, max equality residual {worst_res:.2e}")


def test_criterion_06_relative_entropy_hessian_limit():
    # The kmb-limit suite on 10 families with seeds 6 000 000 + i.
    ratios = verify.kmb_limit_suite(seed=42, family_seed_base=6_000_000)["error_ratios"]
    ok = all(5.0 <= r <= 20.0 for r in ratios)
    verdict(6, "O(eps) curvature error", ok,
            f"error ratios across a decade in [{min(ratios):.1f}, {max(ratios):.1f}]")


def test_criterion_07_gauge_minimization():
    # The gauge suite on 20 families with seeds 7 000 000 + i and 50 random
    # gauges each, evaluated at its grid midpoint t = 0 and 0.3 of a cell past it.
    report = verify.gauge_suite(seed=42, family_seed_base=7_000_000)
    worst_gap, worst_violation = report["worst_minimized_gap"], report["worst_lower_violation"]
    offnode_gap = report["worst_offnode_gap"]
    verdict(7, "minimizing gauge closes the gap",
            worst_gap <= 1e-6 and offnode_gap <= 1e-6 and worst_violation >= -1e-9,
            f"max minimized gap {worst_gap:.2e} at the node, {offnode_gap:.2e} off it, "
            f"worst random-gauge margin {worst_violation:.2e}")


def test_criterion_08_coefficient_function_scan():
    grid = np.logspace(-3, 3, 100)
    reports = {name: f_function_scan(C_FUNCTIONS[name], grid) for name in ("sld", "kmb", "rld", "cl")}
    monotone_ok = all(reports[n].nondecreasing for n in ("sld", "kmb", "rld"))
    cl = C_FUNCTIONS["cl"]
    nonmono_ok = (not reports["cl"].nondecreasing
                  and abs(cl.f(1e-6) - 0.5) < 1e-5 and cl.f(1.0) == 0.0)
    duality_ok = all(r.max_duality_defect <= 1e-10 for r in reports.values())
    verdict(8, "f-function scan", monotone_ok and nonmono_ok and duality_ok,
            "three nondecreasing, lower-bound coefficient non-monotone "
            f"(f(1e-6)={cl.f(1e-6):.4f} > f(1)=0), "
            f"max duality defect {max(r.max_duality_defect for r in reports.values()):.1e}")


def test_criterion_09_pure_states():
    worst = 0.0
    for i in range(50):
        fam = random_pure(2 + i % 3, 1, seed=9_000_000 + i)
        t = [0.1]
        worst = max(worst, float(np.max(np.abs(
            c_l_information(fam, t) - sld_information(fam, t)))))
    verdict(9, "pure-state lower bound equals SLD information", worst < 1e-9,
            f"max deviation {worst:.2e} on 50 families")


def test_criterion_10_decomposition_identity():
    cases = [
        ("bloch3", bloch3(), [0.5, 1.2, 0.5]),
        ("rot3-mixture", rot3_mixture(0.1), [0.3]),
        ("pure-rotation", pure_rotation(), [0.4]),
        ("diagonal-simplex", diagonal_simplex(), [0.2]),
        ("random-full-rank", random_full_rank(3, 2, seed=7), [0.1, -0.2]),
    ]
    worst = 0.0
    for _, fam, th in cases:
        classical, pure = c_l_decomposition(fam, th)
        worst = max(worst, float(np.max(np.abs(classical + pure - c_l_information(fam, th)))))
    verdict(10, "classical + pure decomposition", worst < 1e-8,
            f"max identity defect {worst:.2e} on all registry families")


def test_criterion_11_integrability_obstruction():
    theta = np.array([0.5, 1.2, 0.5])
    rep = integrability_test(bloch3(), theta)
    values = {(j, l, k): v for (j, l, k, v) in rep.entries}
    expected = 0.5 * math.sin(0.6) * math.cos(0.6)  # sin(theta)/4 at theta=1.2
    dev = abs(abs(values[(0, 1, 2)]) - expected)
    fail_ok = (not rep.passed) and dev < 1e-6

    def rotation(t, i, j):
        r = np.broadcast_to(np.eye(3), np.shape(t) + (3, 3)).copy()
        r[..., i, i] = r[..., j, j] = np.cos(t)
        r[..., i, j], r[..., j, i] = -np.sin(t), np.sin(t)
        return r

    def real_frame(th):
        th = np.asarray(th, dtype=float)
        return (rotation(th[..., 0], 0, 1) @ rotation(th[..., 1], 1, 2)).astype(complex)

    p = np.array([0.5, 0.3, 0.2])
    real_fam = ParametricFamily(
        dim=3,
        evaluate=lambda th: (real_frame(th) * p) @ real_frame(th).conj().swapaxes(-1, -2),
        spectral=lambda th: SpectralPresentation(eigenvalues=np.broadcast_to(p, np.shape(th)[:-1] + (3,)),
                                                 eigenvectors=real_frame(th)),
        domain=((-math.inf, math.inf),) * 2, name="real-frame",
    )
    pass_ok = integrability_test(real_fam, np.array([0.4, 0.7])).passed
    verdict(11, "integrability obstruction", fail_ok and pass_ok,
            f"two-level family FAILs with entry dev {dev:.2e}; real-frame family PASSes")


def test_criterion_12_cramer_rao_monte_carlo():
    # The crlb suite: bloch3's radial slice at r = 0.5 with the score
    # measurement, N = 10 000, 500 replicates on (-0.4, 0.4).
    start = time.perf_counter()
    report = verify.crlb_suite(seed=42, n=10_000, reps=500)
    elapsed = time.perf_counter() - start
    variance, rel = report["empirical_variance"], report["relative_error"]
    floor_ok = variance >= 0.95 / (report["n"] * report["fisher"])
    # In the normal approximation (relative sd sqrt(2 / 499), 6.3%), a
    # correct library falls below the floor, 0.79 sd under the target, or
    # above the band's upper edge, 2.37 sd over it, at this rate.
    rel_sd = math.sqrt(2.0 / (report["reps"] - 1))
    false_failure = sum(math.erfc(edge / rel_sd / math.sqrt(2.0)) / 2.0 for edge in (0.05, 0.15))
    verdict(12, "Cramer-Rao Monte Carlo",
            report["passed"] and rel <= 0.15 and floor_ok and elapsed < 30.0,
            f"empirical variance {variance:.3e} vs target {report['target_variance']:.3e} "
            f"(rel {rel:.1%}), floor {'respected' if floor_ok else 'broken'}, "
            f"false-failure rate {false_failure:.3f}, {elapsed:.1f}s")
