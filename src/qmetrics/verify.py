"""Seeded property suites and the worked-example tables.

Each suite returns a plain dict with a `passed` flag and the worst observed
margins, so the CLI can emit it as JSON and the test suite can assert on it.
Sizes and seeds are fixed so CI runs are deterministic. Each example returns
its table as a dict with a `rows` list; the CLI prints it and the acceptance
tests check its rows against the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import depolarizing_channel, pushforward_family, random_tpcp
from .estimation import _check_count, cramer_rao_experiment, equality_condition_residual, sld_optimal_povm
from .families import bloch3, random_full_rank, rot3_mixture
from .gauge import PhaseAssignment, apply_gauge, minimizing_gauge_1p
from .linalg import relative_entropy
from .metrics import (
    CF_SLD,
    c_l_information,
    c_upsilon_states,
    classical_fisher,
    kmb_information,
    mc_metric,
    sld_information,
)


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.T) / 2.0).min())


def sandwich_suite(n_families: int = 200, seed: int = 42) -> dict:
    """Matrix ordering bound <= invariant lower bound <= gauged information,
    plus agreement of the two SLD computation routes, on seeded random
    full-rank families (d <= 4, p <= 3)."""
    rng = np.random.default_rng(seed)
    worst_lower = math.inf   # min eig of (C_L - H)
    worst_upper = math.inf   # min eig of (C_Upsilon - C_L)
    worst_engine = 0.0       # max deviation between the two SLD routes
    for i in range(n_families):
        d = 2 + i % 3
        p = 1 + i % 3
        fam = random_full_rank(d=d, nparams=p, seed=seed * 100_000 + i)
        theta = rng.uniform(-0.3, 0.3, size=p)
        h_sld = sld_information(fam, theta)
        cl = c_l_information(fam, theta)
        cu = c_upsilon_states(fam, theta)
        engine = mc_metric(fam, theta, CF_SLD)
        worst_lower = min(worst_lower, _min_eig(cl - h_sld))
        worst_upper = min(worst_upper, _min_eig(cu - cl))
        worst_engine = max(worst_engine, float(np.max(np.abs(engine - h_sld))))
    passed = worst_lower >= -1e-8 and worst_upper >= -1e-8 and worst_engine <= 1e-8
    return {
        "suite": "sandwich",
        "n_families": n_families,
        "worst_lower_margin": worst_lower,
        "worst_upper_margin": worst_upper,
        "worst_engine_deviation": worst_engine,
        "passed": passed,
    }


def gauge_suite(
    n_families: int = 20, n_gauges: int = 50, seed: int = 42, family_seed_base: int | None = None
) -> dict:
    """Minimizing gauge closes the gap to the invariant lower bound on
    one-parameter families, at the grid midpoint and at 0.3 of a cell past
    it; random gauges never go below it. Each family is first re-phased by
    a smooth random gauge, which the minimizing gauge replaces (a gauge sets
    the phases). Family i has seed family_seed_base + i (default seed * 7000)."""
    rng = np.random.default_rng(seed)
    if family_seed_base is None:
        family_seed_base = seed * 7_000
    worst_gap = 0.0
    worst_offnode_gap = 0.0
    worst_violation = 0.0
    for i in range(n_families):
        d = 2 + i % 3
        fam = random_full_rank(d=d, nparams=1, seed=family_seed_base + i)
        # Smooth random phase perturbation so the starting gauge is generic.
        a = rng.uniform(-1.0, 1.0, size=d)
        b = rng.uniform(0.5, 2.0, size=d)
        c = rng.uniform(0.0, 2.0 * math.pi, size=d)
        perturbed = apply_gauge(
            fam, PhaseAssignment(lambda th, a=a, b=b, c=c: a * np.sin(b * th[:, :1] + c))
        )
        lo, hi = -0.5, 0.5
        pa = minimizing_gauge_1p(perturbed, lo, hi, steps=512)
        minimized = apply_gauge(perturbed, pa)
        grid = np.linspace(lo, hi, 513)
        t_eval = np.array([grid[256]])
        cl = float(c_l_information(fam, t_eval)[0, 0])
        cu_min = float(c_upsilon_states(minimized, t_eval)[0, 0])
        worst_gap = max(worst_gap, abs(cu_min - cl))
        t_off = t_eval + 0.3 * (grid[1] - grid[0])
        offnode_gap = c_upsilon_states(minimized, t_off) - c_l_information(fam, t_off)
        worst_offnode_gap = max(worst_offnode_gap, abs(float(offnode_gap[0, 0])))
        for g in range(n_gauges):
            a2 = rng.uniform(-1.0, 1.0, size=d)
            b2 = rng.uniform(0.5, 2.0, size=d)
            c2 = rng.uniform(0.0, 2.0 * math.pi, size=d)
            gauged = apply_gauge(
                fam, PhaseAssignment(lambda th, a=a2, b=b2, c=c2: a * np.sin(b * th[:, :1] + c))
            )
            cu = float(c_upsilon_states(gauged, t_eval)[0, 0])
            worst_violation = min(worst_violation, cu - cl)
    passed = worst_gap <= 1e-6 and worst_offnode_gap <= 1e-6 and worst_violation >= -1e-9
    return {
        "suite": "gauge",
        "n_families": n_families,
        "n_gauges": n_gauges,
        "worst_minimized_gap": worst_gap,
        "worst_offnode_gap": worst_offnode_gap,
        "worst_lower_violation": worst_violation,
        "passed": passed,
    }


def monotone_suite(
    n_channels: int = 100, n_families: int = 10, seed: int = 42
) -> dict:
    """The bound metric never increases under random channels, while the
    invariant lower bound does increase in the depolarized-mixture
    configuration (the suite asserts that the violation exists)."""
    rng = np.random.default_rng(seed)
    worst_sld_increase = -math.inf
    families = [random_full_rank(d=3, nparams=1, seed=seed * 11_000 + i) for i in range(n_families)]
    thetas = rng.uniform(-0.3, 0.3, size=n_families)
    for j in range(n_channels):
        ch = random_tpcp(3, kraus_count=1 + j % 4, seed=seed * 13_000 + j)
        fam = families[j % n_families]
        theta = np.array([thetas[j % n_families]])
        before = float(sld_information(fam, theta)[0, 0])
        after = float(sld_information(pushforward_family(ch, fam), theta)[0, 0])
        worst_sld_increase = max(worst_sld_increase, after - before)
    mixture, theta = rot3_mixture(0.1), np.array([0.3])
    pushed = pushforward_family(depolarizing_channel(3, 0.5), mixture)
    cl_delta = float((c_l_information(pushed, theta) - c_l_information(mixture, theta))[0, 0])
    expected_delta = (1 - 0.5) * (8.0 / 3.0 - 8.0 * 0.1)
    passed = (
        worst_sld_increase <= 1e-8
        and cl_delta > 0.0
        and abs(cl_delta - expected_delta) <= 1e-6
    )
    return {
        "suite": "monotone",
        "n_channels": n_channels,
        "worst_sld_increase": worst_sld_increase,
        "cl_violation_delta": cl_delta,
        "cl_violation_expected": expected_delta,
        "passed": passed,
    }


def crlb_suite(seed: int = 42, n: int = 10_000, reps: int = 2_000) -> dict:
    """Monte Carlo Cramer-Rao check on the two-level family along its radial
    parameter with the optimal measurement: the variance is within 15% of
    (1 - r^2) / n = 1 / (n F), so the band's lower edge is the Cramer-Rao floor.

    The sample variance of reps normal estimates has relative sd
    sqrt(2 / (reps - 1)), 3.2% at 2000 replicates. z_score is the variance's
    distance from the target in those sds; false_failure_rate is the chance,
    in the normal approximation, that a correct library lands outside the
    band: 4.7 sd and 2.1e-6 at 2000 replicates."""
    from .families import directional_family

    reps = _check_count("reps", reps, 2)

    base = bloch3()
    anchor = np.array([0.5, 0.8, 0.3])
    fam = directional_family(base, anchor, np.array([1.0, 0.0, 0.0]))
    povm = sld_optimal_povm(fam, [0.0])
    report = cramer_rao_experiment(
        fam, 0.0, povm, n=n, reps=reps, seed=seed, interval=(-0.4, 0.4)
    )
    target = (1.0 - 0.5 ** 2) / n
    rel_err = abs(report.empirical_variance - target) / target
    band, rel_sd = 0.15, math.sqrt(2.0 / (reps - 1))
    residual = equality_condition_residual(fam, [0.0], povm)
    passed = rel_err <= band and report.fisher <= report.sld_bound + 1e-8
    return {
        "suite": "crlb",
        "n": n,
        "reps": reps,
        "empirical_variance": report.empirical_variance,
        "target_variance": target,
        "relative_error": rel_err,
        "z_score": (report.empirical_variance - target) / (target * rel_sd),
        "false_failure_rate": math.erfc(band / rel_sd / math.sqrt(2.0)),
        "fisher": report.fisher,
        "sld_bound": report.sld_bound,
        "equality_residual": residual,
        "passed": passed,
    }


def kmb_limit_suite(
    n_families: int = 10, seed: int = 42, family_seed_base: int | None = None
) -> dict:
    """Relative entropy curvature converges to the logarithmic-mean
    information with an O(eps) error: |2 D / eps^2 - H_KMB| <= 10 eps H_KMB at
    eps = 1e-2 and 1e-3 (error_ratios, err(1e-2) / err(1e-3), is reported only).
    Family i has seed family_seed_base + i (default seed * 17000)."""
    rng = np.random.default_rng(seed)
    if family_seed_base is None:
        family_seed_base = seed * 17_000
    ratios, passed = [], True
    for i in range(n_families):
        d = 2 + i % 3
        fam = random_full_rank(d=d, nparams=1, seed=family_seed_base + i)
        t0 = float(rng.uniform(-0.2, 0.2))
        h_kmb = float(kmb_information(fam, [t0])[0, 0])
        errs = {}
        for eps in (1e-2, 1e-3):
            dval = relative_entropy(fam.rho([t0]), fam.rho([t0 + eps]))
            errs[eps] = abs(2.0 * dval / eps ** 2 - h_kmb)
            passed = passed and errs[eps] <= 10.0 * eps * h_kmb
        ratios.append(errs[1e-2] / errs[1e-3])
    return {
        "suite": "kmb-limit",
        "n_families": n_families,
        "error_ratios": ratios,
        "passed": passed,
    }


def achievability_suite(
    n_families: int = 50, seed: int = 42, family_seed_base: int | None = None
) -> dict:
    """The score-diagonalizing measurement attains the quantum bound on
    one-parameter families, with vanishing attainment-condition residual.
    Family i has seed family_seed_base + i (default seed * 23000)."""
    rng = np.random.default_rng(seed)
    if family_seed_base is None:
        family_seed_base = seed * 23_000
    worst_gap = 0.0
    worst_residual = 0.0
    for i in range(n_families):
        d = 2 + i % 3
        fam = random_full_rank(d=d, nparams=1, seed=family_seed_base + i)
        theta = np.array([float(rng.uniform(-0.2, 0.2))])
        povm = sld_optimal_povm(fam, theta)
        f = float(classical_fisher(fam, theta, povm)[0, 0])
        h_sld = float(sld_information(fam, theta)[0, 0])
        worst_gap = max(worst_gap, abs(f - h_sld))
        worst_residual = max(worst_residual, equality_condition_residual(fam, theta, povm))
    passed = worst_gap <= 1e-6 and worst_residual <= 1e-7
    return {
        "suite": "achievability",
        "n_families": n_families,
        "worst_fisher_gap": worst_gap,
        "worst_equality_residual": worst_residual,
        "passed": passed,
    }


def bloch3_gauges_example() -> dict:
    """The gauge-dependent information of the two-level family in two gauges,
    the plain half-angle frame and the frame re-phased by -phi/2, on 18 points
    (r, theta, phi = 0.5). Closed forms: diag(1/(1-r^2), 1, 1) and
    diag(1/(1-r^2), 1, 2 + 2 r cos(theta)); max_deviation is the largest
    entrywise distance from them."""
    fam = bloch3()
    shifted = apply_gauge(fam, PhaseAssignment(lambda th: np.repeat(-th[:, 2:] / 2, 2, axis=1)))
    rows = []
    worst = 0.0
    for r in [0.1 * k for k in range(1, 10)]:
        for t in (0.3, 1.2):
            theta = np.array([r, t, 0.5])
            plain = c_upsilon_states(fam, theta)
            alt = c_upsilon_states(shifted, theta)
            ref_plain = np.diag([1.0 / (1.0 - r * r), 1.0, 1.0])
            ref_alt = np.diag([1.0 / (1.0 - r * r), 1.0, 2.0 + 2.0 * r * math.cos(t)])
            worst = max(
                worst,
                float(np.max(np.abs(plain - ref_plain))),
                float(np.max(np.abs(alt - ref_alt))),
            )
            rows.append(
                {"r": r, "theta": t, "phi": 0.5, "plain_gauge": plain, "shifted_gauge": alt}
            )
    return {"rows": rows, "max_deviation": worst}


def depolarize_cl_example() -> dict:
    """The invariant lower bound of the three-level rotation mixture before
    and after the depolarizing channel of strength r, at theta = 0.3. It rises
    by the expected (1 - r)(8/3 - 8 epsilon): the bound is not monotone."""
    rows = []
    theta = np.array([0.3])
    for eps in (0.05, 0.1, 0.2):
        fam = rot3_mixture(eps)
        before = float(c_l_information(fam, theta)[0, 0])
        for r in (0.2, 0.5, 0.8, 1.0):
            pushed = pushforward_family(depolarizing_channel(3, r), fam)
            after = float(c_l_information(pushed, theta)[0, 0])
            rows.append({"epsilon": eps, "r": r, "before": before, "after": after,
                         "delta": after - before,
                         "expected_delta": (1.0 - r) * (8.0 / 3.0 - 8.0 * eps)})
    return {"rows": rows}


EXAMPLES = {
    "bloch3-gauges": bloch3_gauges_example,
    "depolarize-cl": depolarize_cl_example,
}

SUITES = {
    "sandwich": sandwich_suite,
    "gauge": gauge_suite,
    "monotone": monotone_suite,
    "crlb": crlb_suite,
    "kmb-limit": kmb_limit_suite,
    "achievability": achievability_suite,
}
