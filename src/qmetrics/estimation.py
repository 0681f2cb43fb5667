"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a maximum-likelihood estimator (a 256-point grid scored from a
log-Born table tabulated once per family, POVM and interval, then
golden-section refinement), and a Monte Carlo harness compares empirical
variance against 1/(N F).
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


def _outcome_distribution(family: ParametricFamily, theta, elements: np.ndarray) -> np.ndarray:
    p = born_probabilities(family.rho(theta), elements)
    return p / p.sum()


def sample_outcomes(
    family: ParametricFamily, theta_true, povm, n: int, seed=0
) -> np.ndarray:
    """Multinomial outcome counts for n repeated measurements; deterministic
    per seed (an int or a sequence of ints for derived streams)."""
    p = _outcome_distribution(family, theta_true, validate_povm(povm, family.dim))
    return np.random.default_rng(seed).multinomial(n, p)


GRID_POINTS = 256
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The fewest golden-section steps whose bracket is no wider than that of 60
# ternary steps: the smallest k with _INV_PHI**k <= (2/3)**60, which is 51.
GOLDEN_STEPS = math.ceil(60 * math.log(2.0 / 3.0) / math.log(_INV_PHI))


class Likelihood:
    """Multinomial log-likelihood of outcome counts for one (family, POVM,
    search interval).

    The POVM is validated and stacked once, and the log Born probabilities
    at GRID_POINTS evenly spaced points of the interval are tabulated once,
    from one batched family evaluation. Every set of counts then scores the
    whole grid with one matrix-vector product before its refinement.
    """

    def __init__(self, family: ParametricFamily, povm, interval):
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValidationError("interval must satisfy lo < hi")
        self.family = family
        self.elements = validate_povm(povm, family.dim)
        self.grid = np.linspace(lo, hi, GRID_POINTS)
        self.mid = (lo + hi) / 2.0
        with np.errstate(divide="ignore"):
            self.log_born = np.log(born_probabilities(family.rhos(self.grid[:, None]), self.elements))

    def _grid_scores(self, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mask of the outcomes counted at least once, their counts, and the
        log-likelihood at every grid point (-inf where a counted outcome has
        zero probability)."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (len(self.elements),):
            raise ValidationError(
                f"counts have shape {counts.shape}; expected one entry per POVM element "
                f"({len(self.elements)},)"
            )
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValidationError("counts must be finite and non-negative")
        counted = counts > 0.0
        c = counts[counted]
        return counted, c, self.log_born[:, counted] @ c

    def _loglik(self, t: float, counted: np.ndarray, c: np.ndarray) -> float:
        q = born_probabilities(self.family.rho([t]), self.elements)[counted]
        if np.any(q <= 0.0):
            return -math.inf
        return float(np.log(q) @ c)

    def estimate(self, counts) -> float:
        """Maximum-likelihood estimate: the best grid point, ties broken
        toward the interval midpoint, refined by golden-section search on the
        two grid cells around it."""
        counted, c, values = self._grid_scores(counts)
        finite = values[np.isfinite(values)]
        if finite.size == 0 or float(finite.max() - finite.min()) < 1e-12:
            raise FlatLikelihood("likelihood does not vary across the search grid")
        candidates = np.flatnonzero(values >= values.max())
        best = int(candidates[np.argmin(np.abs(self.grid[candidates] - self.mid))])
        a = self.grid[max(best - 1, 0)]
        b = self.grid[min(best + 1, self.grid.size - 1)]
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        f1 = self._loglik(x1, counted, c)
        f2 = self._loglik(x2, counted, c)
        for _ in range(GOLDEN_STEPS):
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INV_PHI * (b - a)
                f2 = self._loglik(x2, counted, c)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INV_PHI * (b - a)
                f1 = self._loglik(x1, counted, c)
        return (a + b) / 2.0


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    Dense 256-point grid, ties breaking toward the interval midpoint, then
    51 golden-section steps on the two grid cells around the best point,
    which leave a bracket no wider than 60 ternary steps would. Counts must
    be finite and non-negative, one per POVM element.
    """
    return Likelihood(family, povm, interval).estimate(counts)


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
    deterministic regardless of evaluation order; replicate r equals
    mle_1p on sample_outcomes(..., seed=[seed, r]). All replicates share one
    Likelihood and one sampling distribution.
    """
    if family.nparams != 1:
        raise ValidationError("estimation harness is one-parameter")
    theta_true = float(np.atleast_1d(theta_true)[0])
    if interval is None:
        lo, hi = family.bounds[0]
        lo = max(lo + 1e-6, theta_true - 0.4)
        hi = min(hi - 1e-6, theta_true + 0.4)
        interval = (lo, hi)
    likelihood = Likelihood(family, povm, interval)
    fisher = float(classical_fisher(family, [theta_true], povm, h=h)[0, 0])
    bound = float(sld_information(family, [theta_true], h=h)[0, 0])
    p = _outcome_distribution(family, [theta_true], likelihood.elements)
    estimates = np.array([
        likelihood.estimate(np.random.default_rng([seed, r]).multinomial(n, p))
        for r in range(reps)
    ])
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
