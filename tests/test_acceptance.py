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
    PhaseAssignment,
    SpectralPresentation,
    apply_gauge,
    bloch3,
    c_l_decomposition,
    c_l_information,
    c_upsilon_states,
    classical_fisher,
    depolarizing_channel,
    diagonal_simplex,
    equality_condition_residual,
    f_function_scan,
    integrability_test,
    minimizing_gauge_1p,
    pure_rotation,
    pushforward_family,
    random_full_rank,
    random_pure,
    rot3_mixture,
    sld_information,
    sld_optimal_povm,
)
from qmetrics import verify


def verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} — {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_two_gauges_of_the_two_level_family():
    start = time.perf_counter()
    fam = bloch3()
    shifted = apply_gauge(
        fam, PhaseAssignment.from_callable(lambda th: np.array([-th[2] / 2, -th[2] / 2]))
    )
    worst = 0.0
    for r in [0.1 * k for k in range(1, 10)]:
        for t in (0.3, 1.2):
            theta = np.array([r, t, 0.5])
            plain = c_upsilon_states(fam, theta)
            ref_plain = np.diag([1 / (1 - r * r), 1.0, 1.0])
            alt_pp = c_upsilon_states(shifted, theta)[2, 2]
            ref_pp = 2 + 2 * r * math.cos(t)
            worst = max(worst, float(np.max(np.abs(plain - ref_plain))), abs(alt_pp - ref_pp))
    elapsed = time.perf_counter() - start
    verdict(1, "gauge pair closed forms", worst < 1e-6 and elapsed < 5.0,
            f"max deviation {worst:.2e} over 18 grid points in {elapsed:.2f}s")


def test_criterion_02_depolarized_mixture_lower_bound():
    start = time.perf_counter()
    worst = 0.0
    deltas_positive = True
    for eps in (0.05, 0.1, 0.2):
        fam = rot3_mixture(eps)
        theta = np.array([0.3])
        before = c_l_information(fam, theta)[0, 0]
        worst = max(worst, abs(before - 8 * eps))
        for r in (0.2, 0.5, 0.8):
            pushed = pushforward_family(depolarizing_channel(3, r), fam)
            after = c_l_information(pushed, theta)[0, 0]
            worst = max(worst, abs(after - (8 * r * eps + 8 * (1 - r) / 3)))
            delta = after - before
            deltas_positive &= delta > 0
            worst = max(worst, abs(delta - (1 - r) * (8 / 3 - 8 * eps)))
    elapsed = time.perf_counter() - start
    verdict(2, "depolarized mixture values", worst < 1e-6 and deltas_positive and elapsed < 2.0,
            f"max deviation {worst:.2e}, all deltas positive, {elapsed:.2f}s")


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
    worst_gap, worst_res = 0.0, 0.0
    rng = np.random.default_rng(42)
    for i in range(50):
        fam = random_full_rank(d=2 + i % 3, nparams=1, seed=5_000_000 + i)
        theta = np.array([float(rng.uniform(-0.2, 0.2))])
        povm = sld_optimal_povm(fam, theta)
        f = classical_fisher(fam, theta, povm)[0, 0]
        h = sld_information(fam, theta)[0, 0]
        worst_gap = max(worst_gap, abs(f - h))
        worst_res = max(worst_res, equality_condition_residual(fam, theta, povm))
    verdict(5, "optimal measurement attains the bound",
            worst_gap < 1e-6 and worst_res <= 1e-7,
            f"max Fisher gap {worst_gap:.2e}, max equality residual {worst_res:.2e}")


def test_criterion_06_relative_entropy_hessian_limit():
    from qmetrics import kmb_information, relative_entropy

    rng = np.random.default_rng(42)
    ratios = []
    for i in range(10):
        fam = random_full_rank(d=2 + i % 3, nparams=1, seed=6_000_000 + i)
        t0 = float(rng.uniform(-0.2, 0.2))
        k = kmb_information(fam, [t0])[0, 0]
        errs = []
        for eps in (1e-2, 1e-3):
            d = relative_entropy(fam.rho([t0]), fam.rho([t0 + eps]))
            errs.append(abs(2 * d / eps**2 - k))
        ratios.append(errs[0] / errs[1])
    ok = all(5.0 <= r <= 20.0 for r in ratios)
    verdict(6, "O(eps) curvature error", ok,
            f"error ratios across a decade in [{min(ratios):.1f}, {max(ratios):.1f}]")


def test_criterion_07_gauge_minimization():
    rng = np.random.default_rng(42)
    worst_gap, worst_violation = 0.0, 0.0
    for i in range(20):
        d = 2 + i % 3
        fam = random_full_rank(d=d, nparams=1, seed=7_000_000 + i)
        a, b, c = (rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d), rng.uniform(0, 2 * math.pi, d))
        perturbed = apply_gauge(
            fam, PhaseAssignment.from_callable(lambda th, a=a, b=b, c=c: a * np.sin(b * th[0] + c))
        )
        pa = minimizing_gauge_1p(perturbed, -0.5, 0.5, steps=512)
        t = np.array([0.0])
        cl = c_l_information(fam, t)[0, 0]
        cu_min = c_upsilon_states(apply_gauge(perturbed, pa), t)[0, 0]
        worst_gap = max(worst_gap, abs(cu_min - cl))
        for _ in range(50):
            a2, b2, c2 = (rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d),
                          rng.uniform(0, 2 * math.pi, d))
            gauged = apply_gauge(
                fam, PhaseAssignment.from_callable(
                    lambda th, a=a2, b=b2, c=c2: a * np.sin(b * th[0] + c))
            )
            worst_violation = min(worst_violation, c_upsilon_states(gauged, t)[0, 0] - cl)
    verdict(7, "minimizing gauge closes the gap",
            worst_gap <= 1e-6 and worst_violation >= -1e-9,
            f"max minimized gap {worst_gap:.2e}, worst random-gauge margin {worst_violation:.2e}")


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

    def real_frame(th):
        a, b = float(th[0]), float(th[1])
        ra = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1.0]])
        rb = np.array([[1.0, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
        return (ra @ rb).astype(complex)

    p = np.array([0.5, 0.3, 0.2])
    real_fam = ParametricFamily(
        dim=3, nparams=2,
        evaluate=lambda th: (real_frame(th) * p) @ real_frame(th).conj().T,
        spectral=lambda th: SpectralPresentation(eigenvalues=p.copy(), eigenvectors=real_frame(th)),
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
    verdict(12, "Cramer-Rao Monte Carlo",
            report["passed"] and rel <= 0.15 and floor_ok and elapsed < 30.0,
            f"empirical variance {variance:.3e} vs target {report['target_variance']:.3e} "
            f"(rel {rel:.1%}), floor respected, {elapsed:.1f}s")
