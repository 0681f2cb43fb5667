"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a grid + ternary-refinement maximum-likelihood estimator, and a
Monte Carlo harness compares empirical variance against 1/(N F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlatLikelihood, ValidationError
from .families import ParametricFamily
from .linalg import DEFAULT_H, eig_hermitian, sld_solve
from .metrics import born_probabilities, classical_fisher, sld_information, validate_povm


def sld_optimal_povm(family: ParametricFamily, theta, h: float = DEFAULT_H) -> list[np.ndarray]:
    """Projective POVM diagonalizing the score operator of a one-parameter
    family; eigenvalues within 1e-8 are merged into a single eigenspace
    projector. Attains the quantum information bound at theta."""
    if family.nparams != 1:
        raise ValidationError("optimal measurement construction is one-parameter")
    rho = family.rho(theta)
    drho = family.drho(theta, h=h)[0]
    score = sld_solve(rho, drho)
    es = eig_hermitian(score)
    povm = []
    start = 0
    for i in range(1, es.values.size + 1):
        if i == es.values.size or abs(es.values[i] - es.values[start]) > 1e-8:
            block = es.vectors[:, start:i]
            povm.append(block @ block.conj().T)
            start = i
    return povm


def equality_condition_residual(family: ParametricFamily, theta, povm, h: float = DEFAULT_H) -> float:
    """Residual of the bound-attainment condition for each POVM element.

    For each element M, minimizes || M^(1/2) L rho^(1/2) - xi M^(1/2) rho^(1/2) ||_F
    over real xi and returns the largest residual. Near zero implies the
    measured Fisher information equals the quantum bound.
    """
    elements = validate_povm(povm, family.dim)
    rho = family.rho(theta)
    drho = family.drho(theta, h=h)[0]
    score = sld_solve(rho, drho)

    def psd_sqrt(m):
        es = eig_hermitian(m, check=False)
        vals = np.clip(es.values, 0.0, None)
        return (es.vectors * np.sqrt(vals)) @ es.vectors.conj().T

    rho_sqrt = psd_sqrt(rho)
    worst = 0.0
    for m in elements:
        m_sqrt = psd_sqrt(m)
        a = m_sqrt @ score @ rho_sqrt
        b = m_sqrt @ rho_sqrt
        bb = float(np.real(np.vdot(b, b)))
        xi = float(np.real(np.vdot(b, a))) / bb if bb > 1e-14 else 0.0
        worst = max(worst, float(np.linalg.norm(a - xi * b)))
    return worst


def sample_outcomes(
    family: ParametricFamily, theta_true, povm, n: int, seed=0
) -> np.ndarray:
    """Multinomial outcome counts for n repeated measurements; deterministic
    per seed (an int or a sequence of ints for derived streams)."""
    elements = validate_povm(povm, family.dim)
    p = born_probabilities(family.rho(theta_true), elements)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, p)


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    Dense 256-point grid followed by 60 ternary-search steps on the
    bracketing cell; ties on the grid break toward the interval midpoint.
    """
    elements = validate_povm(povm, family.dim)
    counts = np.asarray(counts, dtype=float)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValidationError("interval must satisfy lo < hi")
    mid = (lo + hi) / 2.0

    def loglik(t):
        p = born_probabilities(family.rho(np.array([t])), elements)
        ll = 0.0
        for c, q in zip(counts, p):
            if c > 0.0:
                if q <= 0.0:
                    return -math.inf
                ll += c * math.log(q)
        return ll

    grid = np.linspace(lo, hi, 256)
    values = np.array([loglik(t) for t in grid])
    finite = values[np.isfinite(values)]
    if finite.size == 0 or float(finite.max() - finite.min()) < 1e-12:
        raise FlatLikelihood("likelihood does not vary across the search grid")
    best_val = values.max()
    candidates = np.flatnonzero(values >= best_val)
    best = int(candidates[np.argmin(np.abs(grid[candidates] - mid))])
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if loglik(m1) < loglik(m2):
            a = m1
        else:
            b = m2
    return (a + b) / 2.0


@dataclass(frozen=True)
class EstimationReport:
    n_samples: int
    theta_true: float
    estimates: np.ndarray
    empirical_variance: float
    fisher: float
    sld_bound: float
    cr_rhs: float           # 1 / (N * fisher)
    variance_reliable: bool  # False for degenerate runs (N or reps too small)


def cramer_rao_experiment(
    family: ParametricFamily,
    theta_true: float,
    povm,
    n: int,
    reps: int,
    seed: int = 0,
    interval=None,
    h: float = DEFAULT_H,
) -> EstimationReport:
    """Monte Carlo Cramer-Rao comparison for a one-parameter family.

    Replication r uses an RNG stream derived from (seed, r), so results are
    deterministic regardless of evaluation order.
    """
    if family.nparams != 1:
        raise ValidationError("estimation harness is one-parameter")
    theta_true = float(np.atleast_1d(theta_true)[0])
    if interval is None:
        lo, hi = family.domain[0]
        lo = max(lo + 1e-6, theta_true - 0.4)
        hi = min(hi - 1e-6, theta_true + 0.4)
        interval = (lo, hi)
    fisher = float(classical_fisher(family, [theta_true], povm, h=h)[0, 0])
    bound = float(sld_information(family, [theta_true], h=h)[0, 0])
    estimates = np.empty(reps)
    for r in range(reps):
        counts = sample_outcomes(family, [theta_true], povm, n, seed=[seed, r])
        estimates[r] = mle_1p(family, povm, counts, interval)
    reliable = n > 1 and reps > 1
    variance = float(np.var(estimates, ddof=1)) if reps > 1 else 0.0
    return EstimationReport(
        n_samples=n,
        theta_true=theta_true,
        estimates=estimates,
        empirical_variance=variance,
        fisher=fisher,
        sld_bound=bound,
        cr_rhs=1.0 / (n * fisher),
        variance_reliable=reliable,
    )
