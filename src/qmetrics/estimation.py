"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a maximum-likelihood estimator (a 256-point grid scored from a
log-Born table tabulated once per family, POVM and interval, then safeguarded
Fisher scoring from the multinomial score at one family point per step, with
nested sub-grids where no score can be formed), and a Monte Carlo harness
compares empirical variance against 1/(N F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainExit, FlatLikelihood, NoConvergence, ValidationError
from .families import ParametricFamily
from .linalg import eig_hermitian
from .metrics import _measured_fisher, born_probabilities, sld_information, validate_povm


def sld_optimal_povm(family: ParametricFamily, theta) -> list[np.ndarray]:
    """Projective POVM diagonalizing the score operator of a one-parameter
    family; eigenvalues within 1e-8 are merged into a single eigenspace
    projector. Attains the quantum information bound at theta."""
    if family.nparams != 1:
        raise ValidationError("optimal measurement construction is one-parameter")
    es = eig_hermitian(family.point(theta).scores[0])
    povm = []
    start = 0
    for i in range(1, es.values.size + 1):
        if i == es.values.size or abs(es.values[i] - es.values[start]) > 1e-8:
            block = es.vectors[:, start:i]
            povm.append(block @ block.conj().T)
            start = i
    return povm


def equality_condition_residual(family: ParametricFamily, theta, povm) -> float:
    """Residual of the bound-attainment condition for each POVM element.

    For each element M, minimizes || M^(1/2) L rho^(1/2) - xi M^(1/2) rho^(1/2) ||_F
    over real xi and returns the largest residual. Near zero implies the
    measured Fisher information equals the quantum bound. One parameter only.
    """
    if family.nparams != 1:
        raise ValidationError("equality condition residual is one-parameter")
    elements = validate_povm(povm, family.dim)
    point = family.point(theta)
    score, rho_sqrt = point.scores[0], _psd_sqrt(point.eig.values, point.eig.vectors)
    try:  # validate_povm has made every check that eig_hermitian makes
        m_sqrt = _psd_sqrt(*np.linalg.eigh((elements + elements.conj().swapaxes(-1, -2)) / 2.0))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    a, b = m_sqrt @ score @ rho_sqrt, m_sqrt @ rho_sqrt
    bb = np.sum(np.abs(b) ** 2, axis=(-2, -1))
    ba = np.real(np.sum(b.conj() * a, axis=(-2, -1)))
    xi = np.divide(ba, bb, out=np.zeros_like(bb), where=bb > 1e-14)
    return float(np.linalg.norm(a - xi[:, None, None] * b, axis=(-2, -1)).max())


def _psd_sqrt(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """V sqrt(max(values, 0)) V^dagger of an eigensystem, or of a stack of them."""
    root = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    return root @ vectors.conj().swapaxes(-1, -2)


def _outcome_distribution(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    p = born_probabilities(rho, elements)
    return p / p.sum()


def _check_count(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def sample_outcomes(
    family: ParametricFamily, theta_true, povm, n: int, seed=0
) -> np.ndarray:
    """Multinomial outcome counts for n >= 0 repeated measurements;
    deterministic per seed (an int or a sequence of ints for derived streams)."""
    n = _check_count("n", n, 0)
    elements = validate_povm(povm, family.dim)
    p = _outcome_distribution(family.rho(theta_true), elements)
    return np.random.default_rng(seed).multinomial(n, p)


GRID_POINTS = 256
# Fisher scoring stops at a step no longer than SCORE_TOL * max(1, |t|), or
# after SCORE_STEPS steps. Over 2400 seeded replicates (N = 10 000, bloch3
# radial slices and random_full_rank d <= 4) the exact score took a median of
# 3 steps and at most 7. The stencil's differencing noise moves its steps by
# about 1e-11 near the root, so it took a median of 8 and at most 17.
SCORE_TOL = 1e-12
SCORE_STEPS = 24
# The sub-grid fallback: points per level, chosen by timing (random_full_rank
# d=4); the fewest levels whose bracket, shrunk by 2 / (REFINE_POINTS - 1) per
# level, is no wider than that of 60 ternary steps: k with (1/8)**k <= (2/3)**60, so 12.
REFINE_POINTS = 17
REFINE_LEVELS = math.ceil(60 * math.log(2.0 / 3.0) / math.log(2.0 / (REFINE_POINTS - 1)))


def _best_cells(points: np.ndarray, values: np.ndarray, mid: float) -> tuple[float, float, float]:
    """The best-scoring of evenly spaced points, ties broken toward mid, and
    the two cells around it: (a, best, b), with one cell when the best is the
    first or last point."""
    candidates = np.flatnonzero(values >= values.max())
    best = int(candidates[np.argmin(np.abs(points[candidates] - mid))])
    return points[max(best - 1, 0)], points[best], points[min(best + 1, points.size - 1)]


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
        self.log_born = self._log_born(self.grid, self.elements)

    def _log_born(self, ts: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """Log Born table (n, m) of n parameter values, -inf at probability 0."""
        with np.errstate(divide="ignore"):
            return np.log(born_probabilities(self.family.rhos(ts[:, None]), elements))

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

    def _score(self, t: float, elements: np.ndarray, c: np.ndarray) -> tuple[float, float] | None:
        """The score g = sum_m c_m dp_m / p_m of the counted outcomes at t and
        the information I = sum_m c_m (dp_m / p_m)^2, from one family point
        (exact tangents, or the Richardson stencil). None where no scoring step
        can be formed: I = 0 (a plateau, where no counted probability moves),
        a counted outcome with probability 0, a non-finite g or I, or a stencil
        leaving the domain. A g of exactly 0 with I > 0 is a root, not a plateau."""
        try:
            point = self.family.point([t])
            rho, drho = point.rho, point.drho[0]
        except DomainExit:
            return None
        p = born_probabilities(rho, elements)
        if not np.all(p > 0.0):
            return None
        r = np.real(np.einsum("ij,mji->m", drho, elements)) / p
        g, info = float(c @ r), float(c @ (r * r))
        if not (math.isfinite(g) and 0.0 < info < math.inf):
            return None
        return g, info

    def estimate(self, counts) -> float:
        """Maximum-likelihood estimate by safeguarded Fisher scoring.

        Starts at the best grid point (ties toward the interval midpoint), in
        the bracket of the two grid cells around it. Each step moves the end
        of the bracket that the score g points away from to t and steps to
        t + g / I (see _score), or to the bracket's midpoint when a step longer
        than SCORE_TOL * max(1, |t|) leaves the bracket. The first step no
        longer than that ends the search, inside the bracket, so a best grid
        point at an end of the interval whose score points out is returned as
        it is. Where no step can be formed, or after SCORE_STEPS steps,
        REFINE_LEVELS levels of REFINE_POINTS-point sub-grids refine the
        bracket (one stacked family evaluation each, keeping the two cells
        around the best, ties toward the bracket midpoint) to its midpoint.
        """
        counted, c, values = self._grid_scores(counts)
        finite = values[np.isfinite(values)]
        if finite.size == 0 or float(finite.max() - finite.min()) < 1e-12:
            raise FlatLikelihood("likelihood does not vary across the search grid")
        a, t, b = _best_cells(self.grid, values, self.mid)
        elements = self.elements[counted]
        for _ in range(SCORE_STEPS):
            score = self._score(t, elements, c)
            if score is None:
                break
            g, info = score
            if g > 0.0:
                a = t
            else:
                b = t
            tol = SCORE_TOL * max(1.0, abs(t))
            new = t + g / info
            if abs(new - t) > tol and not a < new < b:
                new = (a + b) / 2.0
            if abs(new - t) <= tol:
                return min(max(new, a), b)
            t = new
        for _ in range(REFINE_LEVELS):
            ts = np.linspace(a, b, REFINE_POINTS)
            a, _, b = _best_cells(ts, self._log_born(ts, elements) @ c, (a + b) / 2.0)
        return (a + b) / 2.0


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    Dense 256-point grid, ties breaking toward the interval midpoint, then
    safeguarded Fisher scoring inside the two grid cells around the best
    point, with nested sub-grids where the score cannot be formed (see
    Likelihood.estimate). Counts must be finite and non-negative, one per
    POVM element.
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
) -> EstimationReport:
    """Monte Carlo Cramer-Rao comparison for a one-parameter family.

    Replication r uses an RNG stream derived from (seed, r), so results are
    deterministic regardless of evaluation order; replicate r equals
    mle_1p on sample_outcomes(..., seed=[seed, r]). All replicates share one
    Likelihood and one sampling distribution. n and reps are integers >= 1,
    theta_true is one number (shape () or (1,)) and lies strictly inside the
    interval: otherwise every estimate is pinned at an end of it and the
    variance measures the interval. A measurement without Fisher information
    at theta_true (1 / (N F) undefined) raises before any replicate runs.
    """
    if family.nparams != 1:
        raise ValidationError("estimation harness is one-parameter")
    n = _check_count("n", n, 1)
    reps = _check_count("reps", reps, 1)
    theta = np.asarray(theta_true, dtype=float)
    if theta.shape not in ((), (1,)):
        raise ValidationError(f"theta_true must be one number, got shape {theta.shape}")
    theta_true = theta.item()
    if interval is None:
        lo, hi = family.bounds[0]
        lo = max(lo + 1e-6, theta_true - 0.4)
        hi = min(hi - 1e-6, theta_true + 0.4)
        interval = (lo, hi)
    likelihood = Likelihood(family, povm, interval)
    lo, hi = likelihood.grid[0], likelihood.grid[-1]
    if not lo < theta_true < hi:
        raise ValidationError(f"theta_true {theta_true} must lie inside the interval ({lo}, {hi})")
    point = family.point(theta_true)
    fisher = float(_measured_fisher(point, likelihood.elements)[0, 0])
    bound = float(sld_information(family, theta_true)[0, 0])
    if fisher <= 0.0:
        raise ValidationError(f"the measurement has no Fisher information at theta_true {theta_true}")
    p = _outcome_distribution(point.rho, likelihood.elements)
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
