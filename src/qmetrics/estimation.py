"""Measurement simulation and one-parameter estimation.

Connects the information matrices to operational meaning: the projective
measurement built from the score operator attains the quantum bound, sampled
outcomes feed a maximum-likelihood estimator (the best point of a
256-point grid found coarse to fine, from a log-Born table whose rows are
built as the search needs them; a start at the peak of the polynomial
through the log-likelihood at the seven grid points around it; then
safeguarded Fisher scoring from the multinomial score, with nested
sub-grids where no score can be formed), and a Monte Carlo harness
compares empirical variance against 1/(N F). The estimator
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
from .metrics import _measured_fisher, _traces, born_probabilities, sld_information, validate_povm


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
    deterministic per seed."""
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
# Fisher scoring stops at a step no longer than SCORE_TOL * max(1, |t|), or
# after SCORE_STEPS steps. Over the 2400 replicates of the benchmark's
# montecarlo inputs at seeds 0 and 9 (N = 10 000, the bloch3 radial slice and
# random_full_rank d = 4), from the peak start (see _peak_starts) the exact
# score took one step and at most 2; from the best grid point it took a
# median of 4 and at most 7. The stencil's differencing noise moves its steps
# by about 1e-11 near the root, so it took a median of 1, a mean of 2.5 and
# at most 11 steps (from the grid point: 4, 5.5 and 16).
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
# Scoring starts at the maximum of the degree-6 polynomial P(u) through the
# log-likelihood at a row's best grid point and the three grid points on each
# side, u in grid steps from it. _DERIVATIVES (2, 6, 7) takes those seven
# values to the coefficients of u**0 .. u**5 in P' and in P'': the inverse
# Vandermonde matrix of the offsets (the Lagrange basis) with each power's
# factor, each entry one rounding of a ratio of integers. PEAK_STEPS Newton
# steps on P' from u = 0, the first to the vertex of P's quadratic part, reach
# the maximum to rounding: on the 600 calls of the seed-0 montecarlo inputs
# two steps leave 1.89 scoring calls per bloch3 call and three leave 1.00;
# the fourth reaches it where P's cubic term moves it a third of a step from
# the vertex. A polynomial of lower degree starts far enough from the root
# for scoring to take more steps (3 points: 3.00 scoring calls per bloch3
# call and 3.30 per d=4 call; 5 points: 2.00 and 1.73).
_OFFSETS = np.arange(-3, 4)


def _derivative_weights() -> np.ndarray:
    weights = np.zeros((2, 6, 7))
    for n, x in enumerate(_OFFSETS):
        others = np.delete(_OFFSETS, n)
        # Basis polynomial n over its integer denominator; np.poly puts the highest power first.
        numerator, denominator = np.poly(others), np.prod(x - others)
        weights[0, :, n] = np.polyder(numerator)[::-1] / denominator
        weights[1, :5, n] = np.polyder(numerator, 2)[::-1] / denominator
    return weights


_DERIVATIVES = _derivative_weights()
_POWERS = np.arange(6.0)[:, None]
PEAK_STEPS = 4


def _best_cells(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For R rows of n evenly spaced points (R, n) and their values (R, n):
    each row's best-scoring point, ties broken toward the row's midpoint,
    and the two cells around it, (a, best, b) in a row of (R, 3), with one
    cell when the best is the first or last point."""
    mid = (points[:, :1] + points[:, -1:]) / 2.0
    best = np.where(values >= values.max(1, keepdims=True), np.abs(points - mid), np.inf).argmin(1)
    around = np.clip(best[:, None] + (-1, 0, 1), 0, points.shape[1] - 1)
    return np.take_along_axis(points, around, 1)


def _row_scores(table: np.ndarray, counts: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """The log-likelihood (R, n) of each of R sets of counts at each of n
    points of a C-contiguous, outcome-major log Born table: one (m, n) for
    every row, or one (R, m, n) per row. It sums the counted outcomes (-inf
    where one has probability 0) in order, so a value does not depend on
    the other rows or points of the stacks."""
    return (np.where(counted[:, :, None], table, 0.0) * counts[:, :, None]).sum(1)


class Likelihood:
    """Multinomial log-likelihood of outcome counts for one (family, POVM,
    search interval).

    The POVM is validated and stacked once, and the grid checked against the
    domain once: the table rows and the sub-grids inside it evaluate without
    checks. log_born (GRID_POINTS, m) holds the log Born probabilities at
    GRID_POINTS evenly spaced points of the interval, -inf at probability 0. Its rows are built as the start search
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
        self.step = (hi - lo) / (GRID_POINTS - 1)
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(self.step)):
            raise ValidationError(f"interval ({lo!r}, {hi!r}) needs finite ends and a finite grid step")
        self.grid = np.linspace(lo, hi, GRID_POINTS)
        family.check_thetas(self.grid[:, None])
        # Outcome-major in memory, so that a score sums whole rows (see _row_scores).
        self.log_born = np.full((len(self.elements), GRID_POINTS), np.nan).T
        self.log_born[::COARSE_STRIDE] = self._log_born(self.grid[::COARSE_STRIDE])

    def _log_born(self, ts: np.ndarray) -> np.ndarray:
        """log p (n, m), -inf at p = 0, of the Born probabilities at n values ts
        inside the grid, from one family call. Probabilities that are not
        finite raise ValidationError naming the family and the first such t."""
        p = born_probabilities(self.family._evaluate_stack(ts[:, None]), self.elements)
        if not np.isfinite(p).all():
            t = float(ts[np.argmin(np.isfinite(p).all(-1))])
            raise ValidationError(
                f"family {self.family.name!r}: Born probabilities are not finite at theta {t!r}")
        with np.errstate(divide="ignore"):
            return np.log(p)

    def _searched_values(self, counts: np.ndarray, counted: np.ndarray) -> np.ndarray:
        """The log-likelihood (R, GRID_POINTS) of each row of a stack of
        checked counts at the grid points its coarse to fine search scores,
        -inf at the points it does not. A row's values do not depend on the
        other rows or on the table rows they built.

        Each row scores the coarse nodes. A node above -inf and no lower
        than its neighbours is a coarse local maximum, and the grid points
        from the node before it to the node after it are one of the row's
        windows; a row whose finite node values span less than 1e-12 (or
        that has none) takes the whole grid. The missing table rows of all
        windows are built in one family call, and each row's best point
        (_best_cells) is the best of its nodes and windows. That is the best
        of the whole grid unless it lies between coarse nodes that are not
        local maxima, which a grid log-likelihood that rises to its maximum
        and then falls never has. A row flat across the whole grid raises
        FlatLikelihood."""
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
            inside = _INSIDE[missing].ravel()
            self.log_born[inside] = self._log_born(self.grid[inside])
        values = _row_scores(self.log_born.T, counts, counted)
        # The cells (R, 17, 15) of the grid points but the last, node first.
        values[:, :-1].reshape(len(counts), len(_INSIDE), COARSE_STRIDE)[:, :, 1:][~cells] = -np.inf
        top = values.max(1)
        if flat.any() and (top - np.where(values > -np.inf, values, np.inf).min(1) < 1e-12).any():
            raise FlatLikelihood("likelihood does not vary across the search grid")
        return values

    def _peak_starts(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Each row's scoring start (R,): the maximum of the degree-6
        interpolant through its searched values (R, GRID_POINTS) at its best
        grid point k and at k +- 1, 2, 3, from the starts (R, 3) of those
        values, or the grid point itself unless all seven values are finite
        (the row searched them all), 3 <= k <= GRID_POINTS - 4, and the
        interpolant's second derivative at that maximum is negative and it
        lies strictly inside the cell around k and strictly inside the
        bracket. The maximum is PEAK_STEPS Newton steps on the interpolant's
        derivative from k, the first to the vertex of its quadratic part,
        each clipped to that cell. Each row's start does not depend on the
        other rows."""
        a, t, b = starts.T
        k = np.searchsorted(self.grid, t)
        inner = np.clip(k, 3, GRID_POINTS - 4)
        seven = values.take((np.arange(len(t)) * GRID_POINTS + inner)[:, None] + _OFFSETS)
        fit = (k == inner) & (seven > -np.inf).all(1)
        seven = np.where(fit[:, None], seven, 0.0)
        # Less the value at k, so that equal values give P' = P'' = 0. The
        # coefficients (2, 6, R) are each summed in order over the seven
        # values, as _row_scores sums.
        coefficients = (_DERIVATIVES[..., None] * (seven - seven[:, 3:4]).T).sum(2)

        def derivatives(u):
            return (coefficients * u ** _POWERS).sum(1)

        u = np.zeros_like(t)
        with np.errstate(over="ignore"):  # a step that overflows is clipped to the cell
            for _ in range(PEAK_STEPS):
                slope, curvature = derivatives(u)
                # No step where P'' >= 0: the step is slope / inf = 0.
                u = np.minimum(np.maximum(u - slope / np.where(curvature < 0.0, curvature, -np.inf), -1.0), 1.0)
        peak = t + u * self.step
        ok = fit & (derivatives(u)[1] < 0.0) & (np.abs(u) < 1.0) & (a < peak) & (peak < b)
        return np.where(ok, peak, t)

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
        p, dp = born_probabilities(rho, self.elements), _traces(drho[:, 0], self.elements)
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
        FlatLikelihood. Each row's bracket is the two grid cells around the
        best grid point of a coarse to fine search (ties toward the interval
        midpoint; see _searched_values), and it starts at the maximum of the
        degree-6 polynomial through its log-likelihood at that point and the
        three grid points on each side, or at the grid point itself where
        that maximum is not formed (see _peak_starts). Each step scores
        every still-active row at once (see _scores). It moves the end of a
        row's bracket that its score g points away from to its t and steps
        to t + g / I, or to the bracket's midpoint when a step longer than
        SCORE_TOL * max(1, |t|) leaves the bracket or a step no longer than
        that is not at a root (see ROOT_SCORE). A row's first step no longer
        than that ends its search, inside the bracket, so a best grid point
        at an end of the interval whose score points out is returned as it
        is. A row where no step can be formed, or still active after
        SCORE_STEPS steps, leaves the stack: REFINE_LEVELS levels of
        REFINE_POINTS-point sub-grids refine its bracket (keeping the two
        cells around the best, ties toward the bracket midpoint) to its
        midpoint, all such rows together in one family call per level. An
        error raised by the family itself propagates from the stacked step
        that meets it; states whose
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
            self._searched_values(counts[:first], counted[:first])  # a flat row before it raises first
            raise ValidationError("counts must be finite and non-negative")
        estimates = np.full(len(counts), np.nan)
        values = self._searched_values(counts, counted)
        starts = _best_cells(np.broadcast_to(self.grid, values.shape), values)
        starts[:, 1] = self._peak_starts(values, starts)
        # Each row's bracket (a, b) and point t; rows is the stack still
        # scoring, in row order, and left marks the rows for the sub-grids.
        a, t, b = starts.T.copy()
        left = np.zeros(len(counts), dtype=bool)
        rows = np.arange(len(counts))
        for _ in range(SCORE_STEPS):
            if not rows.size:
                break
            now = t[rows]
            g, info, steps = self._scores(now, counts[rows], counted[rows])
            if np.count_nonzero(steps) < rows.size:
                left[rows[~steps]] = True
                rows, now, g, info = rows[steps], now[steps], g[steps], info[steps]
            up = g > 0.0
            a[rows[up]], b[rows[~up]] = now[up], now[~up]
            lo, hi = a[rows], b[rows]
            # A short step must be at a root and a long one inside the
            # bracket, or the row steps to the bracket's midpoint.
            tol = SCORE_TOL * np.maximum(1.0, np.abs(now))
            new = now + g / info
            ok = (lo < new) & (new < hi)
            np.copyto(ok, np.abs(g) <= ROOT_SCORE * np.sqrt(info), where=np.abs(new - now) <= tol)
            np.copyto(new, (lo + hi) / 2.0, where=~ok)
            t[rows] = new
            # Every scored row's estimate, kept by the rows whose step is short.
            estimates[rows] = np.minimum(np.maximum(new, lo), hi)
            rows = rows[np.abs(new - now) > tol]
        left[rows] = True
        rows = np.flatnonzero(left)
        if rows.size:
            a, b = a[rows], b[rows]
            for _ in range(REFINE_LEVELS):
                # Each row has the bits of its own linspace: linspace changes its formula
                # if a step is 0, to the same bits while REFINE_POINTS - 1 is a power of 2.
                ts = np.linspace(a, b, REFINE_POINTS, axis=1)
                table = self._log_born(ts.ravel()).reshape(*ts.shape, m).swapaxes(1, 2)
                values = _row_scores(np.ascontiguousarray(table), counts[rows], counted[rows])
                a, _, b = _best_cells(ts, values).T
            estimates[rows] = (a + b) / 2.0
        return estimates


def mle_1p(family: ParametricFamily, povm, counts, interval) -> float:
    """Maximum-likelihood estimate over a search interval.

    The best point of a 256-point grid searched coarse to fine, ties
    breaking toward the interval midpoint, then safeguarded Fisher scoring
    inside the two grid cells around it, from the peak of the polynomial
    through the log-likelihood at the seven grid points around the best one,
    with nested sub-grids where the score cannot be formed (see
    Likelihood.estimate). The interval's ends and grid step must be finite.
    Counts must be finite and non-negative, one per POVM element.
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

    The counts of all replicates are one multinomial draw of reps rows from
    one generator seeded with seed, and replicate r is mle_1p on row r bit
    for bit. Rows are drawn in order, so the first k replicates are those of
    the run with reps=k, and replicate 0 is mle_1p on
    sample_outcomes(..., seed=seed). All replicates share one Likelihood and
    one sampling distribution, and are estimated as one stack of counts:
    each scoring step reads rho and its tangent at every still-active
    replicate from one family call. n and
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
    estimates = likelihood.estimate(np.random.default_rng(seed).multinomial(n, p, size=reps))
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
