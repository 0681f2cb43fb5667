"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a maximum-likelihood estimator (a start on a 256-point grid
found coarse to fine, from a log-Born table whose rows are built as the
search needs them, then safeguarded Fisher scoring from the multinomial
score, with nested sub-grids where no score can be formed), and a Monte
Carlo harness compares empirical variance against 1/(N F). The estimator
takes a stack of counts, one row per replicate, and scores all of its
still-active rows with one stacked family call per step; each row's
estimate is that of its counts alone.
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
# The start search scores the grid's coarse nodes, every COARSE_STRIDE-th
# point, then the points within one node of each coarse local maximum: the
# divisor s of GRID_POINTS - 1 that builds the fewest table rows for one
# maximum, (GRID_POINTS - 1) / s + 1 nodes and 2 s - 2 more points, so 15.
COARSE_STRIDE = min((s for s in range(1, GRID_POINTS) if (GRID_POINTS - 1) % s == 0),
                    key=lambda s: (GRID_POINTS - 1) // s + 2 * s)
# Row k holds the grid points strictly inside coarse cell k, which runs from
# node k to node k + 1.
_INSIDE = np.arange(GRID_POINTS - 1).reshape(-1, COARSE_STRIDE)[:, 1:]
# The grid points before, at and after each grid point, within the grid.
_AROUND = np.clip(np.arange(GRID_POINTS)[:, None] + (-1, 0, 1), 0, GRID_POINTS - 1)
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


def _row_scores(table: np.ndarray, counts: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """The log-likelihood (R, n) of each of R sets of counts at each of n
    points of an outcome-major log Born table (m, n), from the counted
    outcomes (-inf where a counted outcome has probability 0). Each value is
    the sum over its outcomes in order, so it does not depend on the other
    rows or points of the stacks."""
    return (np.where(counted[:, :, None], table, 0.0) * counts[:, :, None]).sum(1)


class Likelihood:
    """Multinomial log-likelihood of outcome counts for one (family, POVM,
    search interval).

    The POVM is validated and stacked once. log_born (GRID_POINTS, m) holds
    the log Born probabilities at GRID_POINTS evenly spaced points of the
    interval, -inf at probability 0. Its rows are built as the start search
    needs them, so it is partial: the coarse nodes (every COARSE_STRIDE-th
    point) when the likelihood is made, then the windows that a stack of
    counts opens, in one batched family evaluation per stack; rows not yet
    built are NaN. The sets of a stack are refined together (see estimate).
    """

    def __init__(self, family: ParametricFamily, povm, interval):
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValidationError("interval must satisfy lo < hi")
        self.family = family
        self.elements = validate_povm(povm, family.dim)
        self._transposed = np.ascontiguousarray(self.elements.swapaxes(-1, -2))
        self.grid = np.linspace(lo, hi, GRID_POINTS)
        self.mid = (lo + hi) / 2.0
        self._distance = np.abs(self.grid - self.mid)
        # Outcome-major in memory, so that a score sums whole rows (see _row_scores).
        self.log_born = np.full((len(self.elements), GRID_POINTS), np.nan).T
        self._build(np.arange(0, GRID_POINTS, COARSE_STRIDE))

    def _log(self, p: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """log p of the Born probabilities p (n, m) at the n values ts, -inf at
        probability 0. Probabilities that are not finite raise
        ValidationError naming the family and the first such t."""
        if not np.isfinite(p).all():
            t = float(ts[np.argmin(np.isfinite(p).all(-1))])
            raise ValidationError(
                f"family {self.family.name!r}: Born probabilities are not finite at theta {t!r}")
        with np.errstate(divide="ignore"):
            return np.log(p)

    def _born(self, rho: np.ndarray) -> np.ndarray:
        """The Born probabilities (n, m) of a stack of n states, clamped at 0.
        tr(rho M_m) as a sum over the (d, d) entries of each state: unlike an
        einsum over the stack, its rows do not change with the stack size."""
        return np.maximum((rho[:, None] * self._transposed).sum((-2, -1)).real, 0.0)

    def _build(self, rows: np.ndarray) -> None:
        """Build the table rows of the grid points rows, from one family call."""
        ts = self.grid[rows]
        self.log_born[rows] = self._log(self._born(self.family.rhos(ts[:, None])), ts)

    def _start_cells(self, counts: np.ndarray, counted: np.ndarray):
        """The starts (R, 3) of a stack of checked counts, row r (a, t, b):
        t its best grid point, ties toward the interval midpoint, between
        its neighbours a and b (t itself at an end of the grid).

        Each row scores the coarse nodes. A node above -inf and no lower
        than its neighbours is a coarse local maximum, and the grid points
        from the node before it to the node after it are one of the row's
        windows; a row whose finite node values span less than 1e-12 (or
        that has none) takes the whole grid. The missing table rows of all
        windows are built in one family call, and each row's best point is
        the best of its nodes and windows. That is the best of the whole
        grid unless it lies between coarse nodes that are not local maxima,
        which a grid log-likelihood that rises to its maximum and then falls
        never has. A row flat across the whole grid raises FlatLikelihood."""
        coarse = _row_scores(self.log_born[::COARSE_STRIDE].T, counts, counted)
        finite = coarse > -np.inf
        flat = coarse.max(1) - np.where(finite, coarse, np.inf).min(1) < 1e-12
        padded = np.full((len(counts), coarse.shape[1] + 2), -np.inf)
        padded[:, 1:-1] = coarse
        peak = finite & (coarse >= np.maximum(padded[:, :-2], padded[:, 2:]))
        cells = peak[:, :-1] | peak[:, 1:]
        cells[flat] = True
        # A cell is built whole, so its first inside point tells whether it is.
        missing = cells.any(0) & np.isnan(self.log_born[1::COARSE_STRIDE, 0])
        if missing.any():
            self._build(_INSIDE[missing].ravel())
        values = _row_scores(self.log_born.T, counts, counted)
        # The cells (R, 17, 15) of the grid points but the last, node first.
        values[:, :-1].reshape(len(counts), len(_INSIDE), COARSE_STRIDE)[:, :, 1:][~cells] = -np.inf
        top = values.max(1)
        if flat.any() and (top - np.where(values > -np.inf, values, np.inf).min(1) < 1e-12).any():
            raise FlatLikelihood("likelihood does not vary across the search grid")
        best = np.where(values >= top[:, None], self._distance, np.inf).argmin(1)
        return self.grid[_AROUND[best]]

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
        # dp_m = tr(drho M_m) row by row, as p is (see _born).
        p = self._born(rho)
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
        FlatLikelihood. Each row starts at the best grid point of a coarse to
        fine search (ties toward the interval midpoint; see _start_cells),
        in the bracket of the two grid cells around it. Each step scores
        every still-active row at once (see _scores). It moves the end of a
        row's bracket that its score g points away from to its t and steps
        to t + g / I, or to the bracket's midpoint when a step longer than
        SCORE_TOL * max(1, |t|) leaves the bracket or a step no longer than
        that is not at a root (see ROOT_SCORE). A row's first step no longer
        than that ends its search, inside the bracket, so a best grid point
        at an end of the interval whose score points out is returned as it
        is. A row where no step can be formed, or still active after
        SCORE_STEPS steps, leaves the stack: REFINE_LEVELS levels of
        REFINE_POINTS-point sub-grids refine its bracket (one stacked family
        evaluation each, keeping the two cells around the best, ties toward
        the bracket midpoint) to its midpoint. An error raised by the family
        itself propagates from the stacked step that meets it; states whose
        Born probabilities are not finite raise ValidationError where the
        grid table or a sub-grid meets them.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.ndim == 2:
            return self._estimates(counts)
        return float(self._estimates(counts[None])[0])

    def _estimates(self, counts: np.ndarray) -> np.ndarray:
        """The estimates of the rows of a stack of counts (see estimate)."""
        m = len(self.elements)
        if counts.ndim != 2 or counts.shape[1] != m:
            raise ValidationError(
                f"counts have shape {counts.shape[1:]}; expected one entry per POVM element ({m},)")
        counted = counts > 0.0
        valid = np.isfinite(counts) & (counts >= 0.0)
        if not valid.all():
            first = int(np.argmin(valid.all(1)))
            self._start_cells(counts[:first], counted[:first])  # a flat row before it raises first
            raise ValidationError("counts must be finite and non-negative")
        estimates = np.full(len(counts), np.nan)
        # (row, a, t, b) of the rows still scoring, in row order, with their
        # counts; (row, a, b) of the rows left to the sub-grids.
        starts = self._start_cells(counts, counted).tolist()
        active = [(r, a, t, b) for r, (a, t, b) in enumerate(starts)]
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
                p = born_probabilities(self.family.rhos(ts[:, None]), elements)
                a, _, b = _best_cells(ts, self._log(p, ts) @ c, (a + b) / 2.0)
            estimates[r] = (a + b) / 2.0
        return estimates


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    The best point of a 256-point grid searched coarse to fine, ties
    breaking toward the interval midpoint, then safeguarded Fisher scoring
    inside the two grid cells around it, with nested sub-grids where the
    score cannot be formed (see Likelihood.estimate). Counts must be finite
    and non-negative, one per POVM element.
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
        lo, hi = family.domain[0]
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
