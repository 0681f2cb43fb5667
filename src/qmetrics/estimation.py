"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a maximum-likelihood estimator (a 256-point grid scored from a
log-Born table tabulated once per family, POVM and interval, then safeguarded
Fisher scoring from the multinomial score, with nested sub-grids where no
score can be formed), and a Monte Carlo harness compares empirical variance
against 1/(N F). The estimator takes a stack of counts, one row per
replicate, and scores all of its still-active rows with one stacked family
call per step; each row's estimate is that of its counts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlatLikelihood, NoConvergence, ValidationError
from .families import ParametricFamily, _states
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
# A short step is a root only if |g| <= ROOT_SCORE sqrt(I), the step in units
# of the standard error 1 / sqrt(I): at most 1.7e-10 at the stops above (exact
# and stencil), about 22 beside a counted outcome whose probability vanishes.
ROOT_SCORE = 1e-6
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
    lo, hi = max(best - 1, 0), min(best + 1, points.size - 1)
    return float(points[lo]), float(points[best]), float(points[hi])


class Likelihood:
    """Multinomial log-likelihood of outcome counts for one (family, POVM,
    search interval).

    The POVM is validated and stacked once, and the log Born probabilities
    at GRID_POINTS evenly spaced points of the interval are tabulated once,
    from one batched family evaluation. Every set of counts then scores the
    whole grid with one matrix-vector product before its refinement, and
    the sets of a stack are refined together (see estimate).
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
        self._transposed = np.ascontiguousarray(self.elements.swapaxes(-1, -2))

    def _log_born(self, ts: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """Log Born table (n, m) of n parameter values, -inf at probability 0."""
        with np.errstate(divide="ignore"):
            return np.log(born_probabilities(self.family.rhos(ts[:, None]), elements))

    def _grid_scores(self, counts) -> np.ndarray:
        """The log-likelihood of one set of counts at every grid point (-inf
        where a counted outcome has zero probability)."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (len(self.elements),):
            raise ValidationError(
                f"counts have shape {counts.shape}; expected one entry per POVM element "
                f"({len(self.elements)},)"
            )
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValidationError("counts must be finite and non-negative")
        counted = counts > 0.0
        return self.log_born[:, counted] @ counts[counted]

    def _scores(self, ts: np.ndarray, counts: np.ndarray, counted: np.ndarray):
        """The score g = sum_m c_m dp_m / p_m of each row's counted outcomes at
        its t, the information I = sum_m c_m (dp_m / p_m)^2, and whether a
        scoring step can be formed there, from one stacked family call over
        the rows of the (n, 1) stack of ts where rho and its tangent can be
        formed (see families._states). No step can be formed where I = 0 (a
        plateau, where no counted probability moves), a counted outcome has
        probability 0, g or I is not finite, or rho and its tangent cannot
        be formed. A g of exactly 0 with I > 0 is a root, not a plateau.
        Each row's numbers do not depend on the other rows."""
        rho, drho, steps = _states(self.family, ts.reshape(len(ts), 1), partial=True)
        # tr(A M_m) as a sum over the (d, d) entries of each row: unlike an
        # einsum over the stack, its rows do not change with the stack size.
        p = np.maximum((rho[:, None] * self._transposed).sum((-2, -1)).real, 0.0)
        dp = (drho[:, 0, None] * self._transposed).sum((-2, -1)).real
        live = counted & (p > 0.0)
        r = np.divide(dp, p, out=np.zeros_like(p), where=live)
        g, info = (counts * r).sum(-1), (counts * (r * r)).sum(-1)
        steps = steps & (live == counted).all(-1) & np.isfinite(g) & (0.0 < info) & (info < np.inf)
        return g, info, steps

    def estimate(self, counts):
        """Maximum-likelihood estimate by safeguarded Fisher scoring: a float
        for one set of counts (m,), and for a stack (R, m) of them the (R,)
        estimates, row r equal to the estimate of counts[r] bit for bit.

        Rows are checked in order: the first with malformed counts raises
        ValidationError, the first whose likelihood is flat across the grid
        FlatLikelihood. Each row starts at its best grid point (ties toward
        the interval midpoint), in the bracket of the two grid cells around
        it. Each step scores every still-active row at once (see _scores).
        It moves the end of a row's bracket that its score g points away
        from to its t and steps to t + g / I, or to the bracket's midpoint
        when a step longer than SCORE_TOL * max(1, |t|) leaves the bracket
        or a step no longer than that is not at a root (see ROOT_SCORE). A
        row's first step no longer than that ends its search, inside the
        bracket, so a best grid point at an end of the interval whose score
        points out is returned as it is. A row where no step can be formed,
        or still active after SCORE_STEPS steps, leaves the stack:
        REFINE_LEVELS levels of REFINE_POINTS-point sub-grids refine its
        bracket (one stacked family evaluation each, keeping the two cells
        around the best, ties toward the bracket midpoint) to its midpoint.
        An error raised by the family itself propagates from the stacked
        step that meets it.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.ndim == 2:
            return self._estimates(counts)
        return float(self._estimates(counts[None])[0])

    def _estimates(self, counts: np.ndarray) -> np.ndarray:
        """The estimates of the rows of a stack of counts (see estimate)."""
        brackets = []
        for row in counts:
            values = self._grid_scores(row)
            finite = values[np.isfinite(values)]
            if finite.size == 0 or float(finite.max() - finite.min()) < 1e-12:
                raise FlatLikelihood("likelihood does not vary across the search grid")
            brackets.append(_best_cells(self.grid, values, self.mid))
        counted = counts > 0.0
        estimates = np.full(len(counts), np.nan)
        # (row, a, t, b) of the rows still scoring, in row order, with their
        # counts; (row, a, b) of the rows left to the sub-grids.
        active = [(r, a, t, b) for r, (a, t, b) in enumerate(brackets)]
        active_counts, active_counted, refine = counts, counted, []
        for _ in range(SCORE_STEPS):
            if not active:
                break
            ts = np.array([t for _, _, t, _ in active])
            g, info, steps = self._scores(ts, active_counts, active_counted)
            kept, moved = [], []
            for i, ((r, a, t, b), g_i, info_i, step) in enumerate(
                    zip(active, g.tolist(), info.tolist(), steps.tolist())):
                if not step:
                    refine.append((r, a, b))
                    continue
                if g_i > 0.0:
                    a = t
                else:
                    b = t
                tol = SCORE_TOL * max(1.0, abs(t))
                new = t + g_i / info_i
                short = abs(new - t) <= tol
                if not (abs(g_i) <= ROOT_SCORE * math.sqrt(info_i) if short else a < new < b):
                    new = (a + b) / 2.0
                if abs(new - t) <= tol:
                    estimates[r] = min(max(new, a), b)
                else:
                    kept.append(i)
                    moved.append((r, a, new, b))
            if moved and len(kept) < len(active):
                active_counts, active_counted = active_counts[kept], active_counted[kept]
            active = moved
        for r, a, b in refine + [(r, a, b) for r, a, _, b in active]:
            elements, c = self.elements[counted[r]], counts[r, counted[r]]
            for _ in range(REFINE_LEVELS):
                ts = np.linspace(a, b, REFINE_POINTS)
                a, _, b = _best_cells(ts, self._log_born(ts, elements) @ c, (a + b) / 2.0)
            estimates[r] = (a + b) / 2.0
        return estimates


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    Dense 256-point grid, ties breaking toward the interval midpoint, then
    safeguarded Fisher scoring inside the two grid cells around the best
    point, with nested sub-grids where the score cannot be formed (see
    Likelihood.estimate). Counts must be finite and non-negative, one per
    POVM element.
    """
    # The one-row stack, so that a 2-D array is rejected as a row of the wrong shape.
    counts = np.asarray(counts, dtype=float)
    return float(Likelihood(family, povm, interval)._estimates(counts[None])[0])


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
    mle_1p on sample_outcomes(..., seed=[seed, r]) bit for bit. All
    replicates share one Likelihood and one sampling distribution, and are
    estimated as one stack of counts: each scoring step reads rho and its
    tangent at every still-active replicate from one family call. n and
    reps are integers >= 1, theta_true is one number (shape () or (1,)) and lies strictly inside the
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
    estimates = likelihood.estimate(
        np.array([np.random.default_rng([seed, r]).multinomial(n, p) for r in range(reps)]))
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
