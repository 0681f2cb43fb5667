import math
import re
from dataclasses import replace

import numpy as np
import pytest

import qmetrics.estimation
import qmetrics.families
import qmetrics.linalg
import qmetrics.metrics
from qmetrics.errors import DomainExit, FlatLikelihood, ValidationError
from qmetrics.estimation import (
    COARSE_STRIDE,
    GRID_POINTS,
    REFINE_LEVELS,
    REFINE_POINTS,
    ROOT_SCORE,
    SCORE_STEPS,
    SCORE_TOL,
    Likelihood,
    _best_cells,
    _row_scores,
    cramer_rao_experiment,
    equality_condition_residual,
    mle_1p,
    sample_outcomes,
    sld_optimal_povm,
)
from qmetrics.families import (
    ParametricFamily,
    bloch3,
    diagonal_simplex,
    directional_family,
    pure_rotation,
    random_full_rank,
)
from qmetrics.metrics import (
    basis_povm,
    born_probabilities,
    classical_fisher,
    random_povm,
    sld_information,
    validate_povm,
)


def radial_slice(r=0.5):
    return directional_family(bloch3(), np.array([r, 0.8, 0.3]), np.array([1.0, 0.0, 0.0]))


def _distribution(family, theta, povm):
    """The outcome probabilities that cramer_rao_experiment samples at theta."""
    return qmetrics.estimation._outcome_distribution(family.rho([theta]), validate_povm(povm, family.dim))


def test_optimal_povm_is_valid_projective():
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    elements = validate_povm(povm, 2)
    for m in elements:
        assert np.allclose(m @ m, m, atol=1e-10)  # projector


def test_optimal_povm_attains_quantum_bound():
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    f = classical_fisher(fam, [0.0], povm)[0, 0]
    h = sld_information(fam, [0.0])[0, 0]
    assert abs(f - h) < 1e-6
    assert equality_condition_residual(fam, [0.0], povm) < 1e-7


def test_optimal_povm_requires_one_parameter():
    with pytest.raises(ValidationError):
        sld_optimal_povm(bloch3(), [0.5, 0.8, 0.3])


def test_equality_residual_requires_one_parameter():
    # It used to read parameter 0 only and return 0.84 here.
    with pytest.raises(ValidationError, match="one-parameter"):
        equality_condition_residual(bloch3(), [0.5, 1.2, 0.5], basis_povm(2))


def test_random_povm_has_nonzero_equality_residual():
    fam = random_full_rank(d=2, nparams=1, seed=3)
    residual = equality_condition_residual(fam, [0.1], basis_povm(2))
    assert residual > 1e-4


def _reference_residual(family, theta, povm):
    """The residual as a loop over the POVM elements, each square root from
    its own eig_hermitian."""
    point = family.point(theta)

    def psd_sqrt(es):
        return (es.vectors * np.sqrt(np.clip(es.values, 0.0, None))) @ es.vectors.conj().T

    rho_sqrt, worst = psd_sqrt(point.eig), 0.0
    for m in validate_povm(povm, family.dim):
        m_sqrt = psd_sqrt(qmetrics.linalg.eig_hermitian(m))
        a, b = m_sqrt @ point.scores[0] @ rho_sqrt, m_sqrt @ rho_sqrt
        bb = float(np.real(np.vdot(b, b)))
        xi = float(np.real(np.vdot(b, a))) / bb if bb > 1e-14 else 0.0
        worst = max(worst, float(np.linalg.norm(a - xi * b)))
    return worst


def test_stacked_equality_residual_matches_the_element_loop():
    # One stacked eigh and per-element reductions in place of the loop: the
    # same residual within rounding, on attaining and non-attaining POVMs.
    for seed in range(60):
        d = 2 + seed % 4
        fam = random_full_rank(d=d, nparams=1, seed=500 + seed)
        theta = [float(np.random.default_rng(seed).uniform(-0.3, 0.3))]
        for povm in (sld_optimal_povm(fam, theta), basis_povm(d), random_povm(d, 5, seed=seed)):
            reference = _reference_residual(fam, theta, povm)
            assert abs(equality_condition_residual(fam, theta, povm) - reference) <= 1e-15


def test_sampling_is_deterministic_per_seed():
    fam = diagonal_simplex()
    povm = basis_povm(2)
    a = sample_outcomes(fam, [0.2], povm, 1000, seed=5)
    b = sample_outcomes(fam, [0.2], povm, 1000, seed=5)
    c = sample_outcomes(fam, [0.2], povm, 1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.sum() == 1000
    # derived streams: sequence seeds work too
    d = sample_outcomes(fam, [0.2], povm, 1000, seed=[5, 0])
    assert d.sum() == 1000


def test_mle_recovers_truth_on_exact_counts():
    # counts proportional to the model distribution peak the likelihood at truth
    fam = diagonal_simplex()
    povm = basis_povm(2)
    t_true = 0.2
    counts = np.array([(1 + t_true) / 2, (1 - t_true) / 2]) * 1_000_000
    est = mle_1p(fam, povm, counts, (-0.9, 0.9))
    assert abs(est - t_true) < 1e-3


def test_mle_rejects_flat_likelihood():
    # outcome distribution of the basis measurement is independent of the
    # rotation angle for the maximally mixed diagonal direction
    fam = directional_family(bloch3(), np.array([0.5, 0.8, 0.3]), np.array([0.0, 0.0, 1.0]))
    povm = [np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2]
    with pytest.raises(FlatLikelihood):
        mle_1p(fam, povm, np.array([500, 500]), (-0.3, 0.3))
    with pytest.raises(ValidationError):
        mle_1p(fam, povm, np.array([500, 500]), (0.3, -0.3))


def test_cramer_rao_experiment_small_run():
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    report = cramer_rao_experiment(
        fam, 0.0, povm, n=2_000, reps=40, seed=7, interval=(-0.4, 0.4)
    )
    assert report.variance_reliable
    assert abs(report.fisher - 1.0 / 0.75) < 1e-6
    # generous band for a small run: within a factor 2 of the bound, never
    # far below it
    assert 0.5 * report.cr_rhs < report.empirical_variance < 2.0 * report.cr_rhs
    # deterministic per seed
    again = cramer_rao_experiment(
        fam, 0.0, povm, n=2_000, reps=40, seed=7, interval=(-0.4, 0.4)
    )
    assert np.array_equal(report.estimates, again.estimates)


def test_one_score_solve_per_point(monkeypatch):
    solves = []
    solve = qmetrics.linalg.sld_solve
    for module in (qmetrics.linalg, qmetrics.families, qmetrics.metrics, qmetrics.estimation):
        if hasattr(module, "sld_solve"):
            monkeypatch.setattr(module, "sld_solve", lambda *args: solves.append(1) or solve(*args))
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.1])
    report = cramer_rao_experiment(fam, 0.1, povm, n=100, reps=2, interval=(-0.3, 0.3))
    assert solves == [1]
    assert report.sld_bound == sld_information(fam, [0.1])[0, 0]


def test_experiment_without_fisher_information_raises_before_any_replicate(monkeypatch):
    # The basis measurement of |w(0)> = (1, 0) has zero Fisher information;
    # 1 / (n F) raised a bare ZeroDivisionError after the replicates.
    monkeypatch.setattr(Likelihood, "estimate", lambda self, counts: pytest.fail("replicate ran"))
    with pytest.raises(ValidationError, match="has no Fisher information at theta_true 0.0"):
        cramer_rao_experiment(pure_rotation(), 0.0, basis_povm(2), n=100, reps=3)


def test_experiment_requires_one_parameter():
    with pytest.raises(ValidationError):
        cramer_rao_experiment(bloch3(), 0.5, basis_povm(2), n=10, reps=2)


@pytest.mark.parametrize("n,reps", [(-5, 4), (0, 4), (2.5, 4), (True, 4), (100, 0), (100, -2),
                                    (100, 3.0)])
def test_experiment_rejects_bad_sample_and_replicate_counts(n, reps):
    fam = radial_slice()
    with pytest.raises(ValidationError):
        cramer_rao_experiment(fam, 0.0, basis_povm(2), n=n, reps=reps, interval=(-0.4, 0.4))


@pytest.mark.parametrize("theta", [[0.1, 0.7], [[0.1]], np.zeros((1, 1))])
def test_experiment_rejects_a_theta_that_is_not_one_number(theta):
    # [0.1, 0.7] used to run at 0.1 and report theta_true 0.1.
    with pytest.raises(ValidationError, match="theta_true must be one number"):
        cramer_rao_experiment(diagonal_simplex(), theta, basis_povm(2), n=100, reps=3)


def test_experiment_takes_theta_as_a_number_or_a_one_vector():
    fam, povm = diagonal_simplex(), basis_povm(2)
    reports = [cramer_rao_experiment(fam, theta, povm, n=100, reps=3, seed=2)
               for theta in (0.1, [0.1], np.array(0.1))]
    for report in reports:
        assert report.theta_true == 0.1
        assert np.array_equal(report.estimates, reports[0].estimates)


def test_sampling_rejects_a_negative_count():
    fam = diagonal_simplex()
    with pytest.raises(ValidationError):
        sample_outcomes(fam, [0.2], basis_povm(2), -1)
    assert np.array_equal(sample_outcomes(fam, [0.2], basis_povm(2), np.int64(0)), [0, 0])


def ternary_mle(family, povm, counts, interval):
    """Reference: the grid + 60-step ternary-search estimator with the
    per-element Born formula tr(rho M), as it stood before the golden-section
    estimator replaced it."""
    counts = np.asarray(counts, dtype=float)
    lo, hi = float(interval[0]), float(interval[1])
    mid = (lo + hi) / 2.0

    def loglik(t):
        rho = family.rho(np.array([t]))
        ll = 0.0
        for c, m in zip(counts, povm):
            q = max(float(np.real(np.trace(rho @ m))), 0.0)
            if c > 0.0:
                if q <= 0.0:
                    return -math.inf
                ll += c * math.log(q)
        return ll

    grid = np.linspace(lo, hi, 256)
    values = np.array([loglik(t) for t in grid])
    candidates = np.flatnonzero(values >= values.max())
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


def _estimation_cases():
    yield radial_slice(), 0.0, (-0.4, 0.4)
    # The truth lies below (above) the interval: the best grid point is the
    # first (last) one, and refinement starts from a one-cell bracket.
    yield radial_slice(), 0.0, (0.05, 0.45)
    yield radial_slice(), 0.0, (-0.45, -0.05)
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4):
        for k in range(2):
            theta = float(rng.uniform(-0.2, 0.2))
            yield random_full_rank(d=d, nparams=1, seed=100 * d + k), theta, (theta - 0.4, theta + 0.4)


def test_estimates_match_the_ternary_reference():
    for fam, theta, interval in _estimation_cases():
        povm = sld_optimal_povm(fam, [theta])
        likelihood = Likelihood(fam, povm, interval)
        for r in range(3):
            counts = sample_outcomes(fam, [theta], povm, 10_000, seed=[7, r])
            est = likelihood.estimate(counts)
            assert est == mle_1p(fam, povm, counts, interval)
            assert abs(est - ternary_mle(fam, povm, counts, interval)) < 1e-7, fam.name


def dense_table(likelihood):
    """Reference: the whole log Born table (GRID_POINTS, m) of a likelihood,
    from one batched family evaluation, as the dense search built it."""
    states = likelihood.family.evaluate(likelihood.grid[:, None])
    with np.errstate(divide="ignore"):
        return np.log(born_probabilities(states, likelihood.elements))


def dense_scores(table, counts):
    """Reference: the log-likelihood of one set of counts at every grid point
    of a dense table (-inf where a counted outcome has zero probability)."""
    counts = np.asarray(counts, dtype=float)
    counted = counts > 0.0
    return table[:, counted] @ counts[counted]


def dense_start(likelihood, values):
    """Reference: the start (a, t, b) of the dense search from the grid
    values of one row, t the best of all GRID_POINTS points (ties toward
    the interval midpoint)."""
    finite = values[np.isfinite(values)]
    if finite.size == 0 or float(finite.max() - finite.min()) < 1e-12:
        raise FlatLikelihood("likelihood does not vary across the search grid")
    return tuple(_best_cells(likelihood.grid[None], values[None])[0].tolist())


def test_edge_cases_start_from_a_one_cell_bracket():
    for fam, theta, interval in list(_estimation_cases())[1:3]:
        povm = sld_optimal_povm(fam, [theta])
        likelihood = Likelihood(fam, povm, interval)
        counts = sample_outcomes(fam, [theta], povm, 10_000, seed=[7, 0])
        best = int(np.argmax(dense_scores(dense_table(likelihood), counts)))
        assert best in (0, likelihood.grid.size - 1)
        assert abs(likelihood.estimate(counts) - likelihood.grid[best]) < 1e-12


def test_ties_on_a_likelihood_plateau_break_toward_the_midpoint():
    # The state is constant for |t| <= 0.1, so balanced counts tie on the
    # whole plateau: every level keeps the point nearest its bracket's
    # midpoint, and the estimate stays at the grid point nearest 0.
    base = diagonal_simplex()
    fam = ParametricFamily(
        dim=2, domain=base.domain, name="plateau",
        evaluate=lambda th: base.evaluate(np.sign(th) * np.maximum(np.abs(th) - 0.1, 0.0)),
    )
    likelihood = Likelihood(fam, basis_povm(2), (-0.4, 0.4))
    assert abs(likelihood.estimate([500, 500])) <= 0.4 / 255 + 1e-12


def _counted_calls(base):
    """base with its evaluate and tangents logging (name, argument shape) to a list."""
    calls = []

    def counted(name, fn):
        return lambda th: calls.append((name, np.shape(th))) or fn(th)

    tangents = None if base.tangents is None else counted("tangents", base.tangents)
    return replace(base, evaluate=counted("evaluate", base.evaluate), tangents=tangents), calls


def test_one_experiment_scores_its_replicates_in_stacked_calls():
    # An exact-tangent family: the 18 coarse nodes when the likelihood is
    # made, the point at theta_true, one call for the windows of all
    # replicates (here the 14 inside points of each of 3 coarse cells), then
    # one scoring step reads the tangents and the states of all replicates in
    # one call each: every replicate starts at the peak of its tabled
    # log-likelihood and is a root there. No sub-grid stack and no
    # per-replicate (1, 1) call is made.
    assert (GRID_POINTS - 1) // COARSE_STRIDE + 1 == 18
    base = random_full_rank(d=3, nparams=1, seed=9)
    fam, calls = _counted_calls(base)
    povm = sld_optimal_povm(base, [0.1])
    report = cramer_rao_experiment(fam, 0.1, povm, n=10_000, reps=5, seed=0, interval=(-0.3, 0.5))
    assert calls == [("evaluate", (18, 1)), ("tangents", (1, 1)), ("evaluate", (1, 1)),
                     ("evaluate", (3 * 14, 1)), ("tangents", (5, 1)), ("evaluate", (5, 1))]
    rows = np.random.default_rng(0).multinomial(10_000, _distribution(base, 0.1, povm), size=5)
    for r in range(5):
        assert report.estimates[r] == mle_1p(base, povm, rows[r], (-0.3, 0.5))


def scored(monkeypatch, likelihood, counts):
    """The estimates of a stack of counts, and the t of each row at its first
    score (every row is in the first scoring call)."""
    first = []
    score = Likelihood._scores

    def recorded(self, ts, *rest):
        if not first:
            first.append(ts.tolist())
        return score(self, ts, *rest)

    with monkeypatch.context() as m:
        m.setattr(Likelihood, "_scores", recorded)
        estimates = likelihood.estimate(np.array(counts, dtype=float))
    return estimates, first[0] if first else []


@pytest.mark.parametrize("seed", range(4))
def test_the_benchmark_shapes_make_one_verifying_score_per_call(monkeypatch, seed):
    # Three replicates on the bloch3 slice and one on a random d=4 family, at
    # N = 10 000: each row starts at the peak of its tabled log-likelihood,
    # strictly inside its grid cell, and the one scoring call finds it a root.
    calls = []
    score = Likelihood._scores
    monkeypatch.setattr(Likelihood, "_scores",
                        lambda self, ts, *rest: calls.append(ts.tolist()) or score(self, ts, *rest))
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    report = cramer_rao_experiment(fam, 0.0, povm, n=10_000, reps=3, seed=seed, interval=(-0.4, 0.4))
    grid = np.linspace(-0.4, 0.4, GRID_POINTS).tolist()
    assert len(calls) == 1 and len(calls[0]) == 3 and not set(calls[0]) & set(grid)
    assert np.abs(report.estimates - calls[0]).max() < 1e-12
    calls.clear()
    fam = random_full_rank(d=4, nparams=1, seed=seed)
    cramer_rao_experiment(fam, 0.1, sld_optimal_povm(fam, [0.1]), n=10_000, reps=1, seed=seed)
    assert len(calls) == 1 and len(calls[0]) == 1


@pytest.mark.parametrize("counts,k,on_grid", [
    ([560, 9440], 2, True), ([9440, 560], GRID_POINTS - 3, True),
    ([600, 9400], 3, False), ([9400, 600], GRID_POINTS - 4, False),
])
def test_a_best_grid_point_within_three_of_an_end_starts_at_the_grid_point(
        monkeypatch, counts, k, on_grid):
    # diag((1 + t) / 2, (1 - t) / 2) peaks at t = (c0 - c1) / N: the best grid
    # point has fewer than three points on one side, or just three.
    likelihood = Likelihood(diagonal_simplex(), basis_povm(2), (-0.9, 0.9))
    estimates, (start,) = scored(monkeypatch, likelihood, [counts])
    values = likelihood._searched_values(np.array([counts], float), np.array([counts]) > 0)
    a, t, b = _best_cells(likelihood.grid[None], values)[0]
    assert t == likelihood.grid[k]
    assert (start == t) if on_grid else (a < start < b and start != t)
    assert abs(estimates[0] - (counts[0] - counts[1]) / 10_000) < 1e-12


def kink():
    """diag(1 - q, q), q = 1/2 at a point 1.4 grid steps above coarse node
    120 of (-0.4, 0.4), with slope 1 below it and 0.05 above: balanced
    counts peak there, and q moves 20 times faster below it, so that grid
    point 122 is their best and node 135, 13.6 steps above the peak, scores
    higher than node 120."""
    grid = np.linspace(-0.4, 0.4, GRID_POINTS)
    center = grid[120] + 1.4 * (grid[1] - grid[0])

    def q(th):
        x = np.asarray(th)[..., 0] - center
        return 0.5 + np.where(x < 0.0, 1.0, 0.05) * x

    def diagonal(x, y):
        out = np.zeros(np.shape(x) + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = x, y
        return out

    def tangents(th):
        dq = np.where(np.asarray(th)[..., 0] < center, 1.0, 0.05)
        return diagonal(-dq, dq)[..., None, :, :]

    return ParametricFamily(dim=2, domain=((-1.0, 1.0),), name="kink",
                            evaluate=lambda th: diagonal(1.0 - q(th), q(th)), tangents=tangents)


def test_a_neighbour_the_row_did_not_search_starts_at_the_grid_point(monkeypatch):
    # The balanced row's windows are the two coarse cells around node 135,
    # so grid point 119, three below its best point 122, is not one of its
    # searched points. That holds after another row has built the cell below
    # node 120: the row's start and estimate are those of the row alone.
    likelihood = Likelihood(kink(), basis_povm(2), (-0.4, 0.4))
    values = likelihood._searched_values(np.array([[500.0, 500.0]]), np.ones((1, 2), dtype=bool))[0]
    assert int(np.argmax(values)) == 122 and values[119] == -np.inf
    assert np.isfinite(values[120:126]).all() and values[135] > values[120]
    assert np.isnan(likelihood.log_born[119, 0])
    alone, (start,) = scored(monkeypatch, likelihood, [[500, 500]])
    assert start == likelihood.grid[122]
    # The peak of these counts is about 11.5 steps below grid point 122.
    likelihood.estimate([536, 464])
    assert not np.isnan(likelihood.log_born[119]).any()
    stacked, starts = scored(monkeypatch, likelihood, [[536, 464], [500, 500]])
    assert starts[1] == likelihood.grid[122] and stacked[1] == alone[0]


def test_a_best_grid_point_beside_minus_infinity_starts_at_the_grid_point(monkeypatch):
    # The hinge's counted outcome 1 has probability zero for t <= 0, so the
    # grid point below the best one, 0.0016, scores -inf.
    likelihood = Likelihood(hinge(), basis_povm(2), (-0.4, 0.4))
    estimates, (start,) = scored(monkeypatch, likelihood, [[999_500, 500]])
    assert start == likelihood.grid[128] and likelihood.grid[127] < 0.0
    assert abs(estimates[0] - 5e-4) < 1e-9


def test_a_best_grid_point_where_the_interpolant_is_not_concave_starts_at_the_grid_point(monkeypatch):
    # On the plateau the seven values are equal, a zero interpolant. On the
    # notch, q moves about 0.002 at the best grid point's neighbours, 0.2
    # two points out and about 0.01 three out: the interpolant is convex
    # there, and a little asymmetric, so its vertex is off the grid point.
    plateau = next(_mixed_batches())[0]
    grid = np.linspace(-0.4, 0.4, GRID_POINTS)
    offsets = [0.3, 0.01, 0.2, 0.003, 0.0, 0.002, 0.2, 0.012, 0.3]
    points = np.concatenate([[-0.4], grid[125:132], [0.4]])

    def notch(th):
        q = 0.5 + np.interp(np.asarray(th)[..., 0], points, offsets)
        out = np.zeros(q.shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = 1.0 - q, q
        return out

    notched = ParametricFamily(dim=2, domain=((-1.0, 1.0),), name="notch", evaluate=notch)
    for family, k in ((plateau, 127), (notched, 128)):
        likelihood = Likelihood(family, basis_povm(2), (-0.4, 0.4))
        counts = np.array([[500.0, 500.0]])
        values = likelihood._searched_values(counts, counts > 0.0)[0]
        assert _best_cells(likelihood.grid[None], values[None])[0, 1] == grid[k]
        assert np.isfinite(values[k - 3:k + 4]).all()
        assert scored(monkeypatch, likelihood, counts)[1] == [grid[k]]


def test_one_replicate_builds_the_coarse_nodes_and_one_window():
    # A random d=4 replicate builds 46 of the 256 grid rows: the 18 nodes and
    # the 28 inside points of the two coarse cells around its coarse maximum.
    for seed in range(3):
        base = random_full_rank(d=4, nparams=1, seed=seed)
        fam, calls = _counted_calls(base)
        povm = sld_optimal_povm(base, [0.1])
        report = cramer_rao_experiment(fam, 0.1, povm, n=10_000, reps=1, seed=seed)
        grid_rows = [shape[0] for name, shape in calls if shape[0] > 1]
        assert grid_rows == [18, 28] and calls[3] == ("evaluate", (28, 1))
        likelihood = Likelihood(base, povm, (0.1 - 0.4, 0.1 + 0.4))
        counts = sample_outcomes(base, [0.1], povm, 10_000, seed=[seed, 0])
        assert likelihood.estimate(counts) == report.estimates[0]
        assert np.count_nonzero(~np.isnan(likelihood.log_born[:, 0])) == 46


def hinge():
    """diag(1 - q, q) with q = max(t, 0) and its exact tangents: outcome 1 has
    probability zero for t <= 0."""

    def diagonal(x, y):
        out = np.zeros(np.shape(x) + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = x, y
        return out

    def q(th):
        return np.maximum(np.asarray(th)[..., 0], 0.0)

    def dq(th):
        return (np.asarray(th)[..., 0] > 0.0).astype(float)

    return ParametricFamily(
        dim=2, domain=((-1.0, 1.0),), name="hinge",
        evaluate=lambda th: diagonal(1.0 - q(th), q(th)),
        tangents=lambda th: diagonal(-dq(th), dq(th))[..., None, :, :],
    )


def tent():
    """diag(1 - q, q), q a tent of height 1/2 over grid points 1 to 13 of the
    interval (-0.4, 0.4): outcome 1 has probability zero at every coarse node."""
    grid = np.linspace(-0.4, 0.4, GRID_POINTS)
    center, half_width = grid[7], 6.5 * (grid[1] - grid[0])

    def evaluate(th):
        q = 0.5 * np.maximum(0.0, 1.0 - np.abs(np.asarray(th)[..., 0] - center) / half_width)
        out = np.zeros(q.shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = 1.0 - q, q
        return out

    return ParametricFamily(dim=2, domain=((-1.0, 1.0),), name="tent", evaluate=evaluate)


def _start_cases():
    """(family, POVM, interval, stack of counts, whether every row's best grid
    point must be a node or inside a window): the estimation and oracle
    cases, the mixed batches (plateau, hinge, stencil edge), the
    zero-probability node and the tent, then a sweep of 1 800 rows with
    random POVMs over wide intervals, where the likelihood has several peaks."""
    for cases, stream in ((_estimation_cases(), 7), (_oracle_cases(), 13)):
        for fam, theta, interval in cases:
            povm = sld_optimal_povm(fam, [theta])
            counts = [sample_outcomes(fam, [theta], povm, 10_000, seed=[stream, r])
                      for r in range(5)]
            yield fam, povm, interval, counts, True
    for fam, interval, counts, _ in _mixed_batches():
        yield fam, basis_povm(2), interval, counts, True
    counts = [[500, 500], [1000, 0], [0, 1000], [2, 998]]
    yield pure_rotation(), basis_povm(2), (0.0, 1.0), counts, True
    yield tent(), basis_povm(2), (-0.4, 0.4), [[600, 400], [999, 1], [1000, 0]], True
    rng = np.random.default_rng(1800)
    for d in (2, 3, 4):
        for k in range(10):
            fam = random_full_rank(d=d, nparams=1, seed=900 + 10 * d + k)
            for interval in ((-3.0, 3.0), (-1.0, 1.0)):
                povm = random_povm(d, d + 1, seed=int(rng.integers(2**31)))
                counts = [sample_outcomes(fam, [rng.uniform(*interval)], povm, n,
                                          seed=int(rng.integers(2**31)))
                          for n in (50, 1_000, 100_000) for _ in range(10)]
                yield fam, povm, interval, counts, False


def searched(values):
    """Reference: the grid points the coarse-to-fine search scores for one
    row of grid values, the coarse nodes and every coarse cell next to a
    node that is a coarse local maximum (finite and no lower than its
    neighbours), or the whole grid when the finite node values span less
    than 1e-12."""
    nodes = values[::COARSE_STRIDE]
    finite = nodes[np.isfinite(nodes)]
    if finite.size == 0 or finite.max() - finite.min() < 1e-12:
        return np.ones(GRID_POINTS, dtype=bool)
    seen = np.arange(GRID_POINTS) % COARSE_STRIDE == 0
    for k, v in enumerate(nodes):
        if np.isfinite(v) and v >= nodes[max(k - 1, 0)] and v >= nodes[min(k + 1, len(nodes) - 1)]:
            seen[max(k - 1, 0) * COARSE_STRIDE:(k + 1) * COARSE_STRIDE + 1] = True
    return seen


def test_the_coarse_to_fine_start_is_the_dense_start():
    # Where the best of all 256 grid points is a coarse node or lies in a
    # window, the search starts from it. A global peak hidden between coarse
    # nodes that are not local maxima (two peaks within about two coarse
    # cells) is the declared exception: the search then starts at the best
    # point it scored. That holds for none of the fixed cases and for 7 of
    # the sweep's 1 800 rows, all on a likelihood with two peaks, their
    # log-likelihoods from 6e-7 to 0.7 apart. A window around the best
    # node alone misses peaks next to the other local maxima.
    rows = hidden = 0
    for fam, povm, interval, counts, unhidden in _start_cases():
        likelihood = Likelihood(fam, povm, interval)
        counts = np.array(counts, dtype=float)
        starts = _best_cells(likelihood.grid[None], likelihood._searched_values(counts, counts > 0.0))
        table = dense_table(likelihood)
        for row, start in zip(counts, starts.tolist()):
            values = dense_scores(table, row)
            dense = dense_start(likelihood, values)
            seen = searched(values)
            if seen[likelihood.grid.tolist().index(dense[1])]:
                assert tuple(start) == dense, (fam.name, interval, row)
            else:
                assert not unhidden, (fam.name, interval, row)
                best = _best_cells(likelihood.grid[None], np.where(seen, values, -np.inf)[None])
                assert start == best[0].tolist() and start != list(dense)
                hidden += 1
            rows += not unhidden
    assert rows == 1_800 and hidden <= 0.01 * rows


def interpolant_peak(seven):
    """Reference: the one local maximum in (-1, 1) of the polynomial through
    seven values at the offsets -3..3 (numpy's fit and derivative roots), or
    None where it has none or several."""
    poly = np.polynomial.Polynomial.fit(np.arange(-3, 4), seven - seven[3], 6, domain=[-1, 1], window=[-1, 1])
    if not poly.coef.any():
        return None
    roots = poly.deriv().roots()
    peaks = [r.real for r in roots
             if abs(r.imag) < 1e-12 and abs(r.real) < 1 and poly.deriv(2)(r.real) < 0]
    return peaks[0] if len(peaks) == 1 else None


def test_each_start_is_the_maximum_of_its_interpolant_or_its_grid_point():
    # Over the 1 886 rows of the start cases, a row starts at the local
    # maximum of its interpolant, to 1e-7 grid steps, where the interpolant
    # has one and the row searched its seven values (1 652 rows); at its best
    # grid point where it has none or several. The rows with a maximum within 1e-6 steps
    # of the cell's ends are not checked.
    rows = moved = 0
    for fam, povm, interval, counts, _ in _start_cases():
        likelihood = Likelihood(fam, povm, interval)
        counts = np.array(counts, dtype=float)
        values = likelihood._searched_values(counts, counts > 0.0)
        starts = _best_cells(likelihood.grid[None], values)
        step = likelihood.grid[1] - likelihood.grid[0]
        for row, (a, t, b), start in zip(values, starts.tolist(), likelihood._peak_starts(values, starts)):
            rows += 1
            k = likelihood.grid.tolist().index(t)
            seven = row[max(k - 3, 0):k + 4]
            peak = interpolant_peak(seven) if 3 <= k <= GRID_POINTS - 4 and np.isfinite(seven).all() else None
            if peak is None:
                assert start == t, (fam.name, k)
            elif abs(peak) < 1 - 1e-6:
                assert a < start < b and abs(start - (t + peak * step)) < 1e-7 * step, (fam.name, k)
                moved += 1
    assert rows == 1_886 and moved == 1_652


def _reference_estimates(likelihood, counts):
    """Reference: the estimates (R,) of a stack of counts by Fisher scoring
    that walks the still-active rows one at a time, from the same starts and
    with the same stacked score call per step, then the sub-grids over the
    rows in the order they left; and a tally of the bisecting steps, the
    rows where a step could not be formed, the rows still active after
    SCORE_STEPS steps, and the rows whose last step left the bracket."""
    counts = np.asarray(counts, dtype=float)
    counted = counts > 0.0
    m = len(likelihood.elements)
    estimates = np.full(len(counts), np.nan)
    tally = {"bisections": 0, "no step": 0, "capped": 0, "clipped": 0}
    values = likelihood._searched_values(counts, counted)
    starts = _best_cells(np.broadcast_to(likelihood.grid, values.shape), values)
    starts[:, 1] = likelihood._peak_starts(values, starts)
    active = [(r, a, t, b) for r, (a, t, b) in enumerate(starts.tolist())]
    active_counts, active_counted, refine = counts, counted, []
    for _ in range(SCORE_STEPS):
        if not active:
            break
        ts = np.array([t for _, _, t, _ in active])
        g, info, steps = likelihood._scores(ts, active_counts, active_counted)
        kept, moved = [], []
        for i, ((r, a, t, b), g_i, info_i, step) in enumerate(
                zip(active, g.tolist(), info.tolist(), steps.tolist())):
            if not step:
                tally["no step"] += 1
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
                tally["bisections"] += 1
                new = (a + b) / 2.0
            if abs(new - t) <= tol:
                tally["clipped"] += not a <= new <= b
                estimates[r] = min(max(new, a), b)
            else:
                kept.append(i)
                moved.append((r, a, new, b))
        if moved and len(kept) < len(active):
            active_counts, active_counted = active_counts[kept], active_counted[kept]
        active = moved
    tally["capped"] = len(active)
    left = refine + [(r, a, b) for r, a, _, b in active]
    if left:
        rows, a, b = map(np.array, zip(*left))
        for _ in range(REFINE_LEVELS):
            ts = np.linspace(a, b, REFINE_POINTS, axis=1)
            table = likelihood._log_born(ts.ravel()).reshape(*ts.shape, m).swapaxes(1, 2)
            values = _row_scores(np.ascontiguousarray(table), counts[rows], counted[rows])
            a, _, b = _best_cells(ts, values).T
        estimates[rows] = (a + b) / 2.0
    return estimates, tally


def test_scoring_on_row_arrays_is_the_row_at_a_time_loop():
    # Every stack of the start cases, and the stencil copies of the sweep's
    # d = 2 families, whose rows take more steps, has the bits of the
    # reference loop. Without the stencil copies the cases bisect (959
    # steps) and have rows that cannot step (6, all in the fixed cases) and
    # rows that reach the step cap (22, all in the sweep). The root at 0.2,
    # 1e-14 past the interval's end, ends with a short step out of the
    # bracket [end, end], clipped to the end: each path of the loop is compared.
    cases = list(_start_cases())
    cases.append((diagonal_simplex(), basis_povm(2), (-0.5, 0.2 - 1e-14), [[600, 400]], True))
    totals = dict.fromkeys(("bisections", "no step", "capped", "clipped"), 0)
    for fam, povm, interval, counts, unhidden in cases:
        counts = np.array(counts, dtype=float)
        for family in [fam] + [replace(fam, tangents=None)] * (not unhidden and fam.dim == 2):
            likelihood = Likelihood(family, povm, interval)
            reference, tally = _reference_estimates(likelihood, counts)
            assert likelihood.estimate(counts).tobytes() == reference.tobytes(), (family.name, interval)
            for key in totals:
                totals[key] += tally[key]
    assert all(totals.values()), totals


def test_a_row_whose_nodes_all_score_minus_infinity_searches_the_whole_grid():
    # A counted outcome 1 has probability zero at every coarse node of the
    # tent: the row takes the whole grid and finds the tent, where the
    # dense search found it.
    likelihood = Likelihood(tent(), basis_povm(2), (-0.4, 0.4))
    estimate = likelihood.estimate([600, 400])
    assert likelihood.grid[1] < estimate < likelihood.grid[13]
    assert not np.isnan(likelihood.log_born).any()
    assert likelihood.grid[6] <= likelihood.estimate([0, 400]) <= likelihood.grid[8]


def nan_band(half_width):
    """diagonal_simplex with NaN states for |t - 0.2| < half_width."""
    base = diagonal_simplex()

    def evaluate(th):
        states = base.evaluate(th)
        states[np.abs(np.asarray(th)[..., 0] - 0.2) < half_width] = np.nan
        return states

    return replace(base, evaluate=evaluate, name=f"nan-band-{half_width}")


@pytest.mark.parametrize("half_width,theta", [(0.01, np.linspace(-0.5, 0.5, 256)[180]),
                                              (np.inf, -0.5)])
def test_states_that_are_not_finite_raise_naming_the_family_and_theta(half_width, theta):
    # The first grid point with NaN states is coarse node 12 (t = 0.2059), or
    # with NaN everywhere the first node. The partial band used to raise a
    # bare ValueError from an empty argmin, and the whole-NaN family a
    # FlatLikelihood that said the likelihood does not vary.
    message = (f"family 'nan-band-{half_width}': Born probabilities are not finite "
               f"at theta {float(theta)!r}")
    with pytest.raises(ValidationError, match=re.escape(message)):
        mle_1p(nan_band(half_width), basis_povm(2), [600, 400], (-0.5, 0.5))


def test_states_that_are_not_finite_between_grid_points_raise_from_the_sub_grids(monkeypatch):
    # NaN states only for |t - 0.2| < 1e-3, between grid points 178 and 179:
    # the grid is finite, the score steps toward the peak at 0.2 cannot be
    # formed there, and the sub-grid level that meets the band raises.
    for steps in (SCORE_STEPS, 0):
        monkeypatch.setattr(qmetrics.estimation, "SCORE_STEPS", steps)
        with pytest.raises(ValidationError, match="not finite at theta 0.1") as raised:
            mle_1p(nan_band(1e-3), basis_povm(2), [600, 400], (-0.5, 0.5))
        assert abs(float(str(raised.value).split()[-1]) - 0.2) < 1e-3


def test_a_short_step_beside_a_vanishing_probability_is_not_a_root():
    # The step from 0.0016 bisects to 2.8e-17, where outcome 1 has probability
    # 2.8e-17 and g / I equals t: the step is short, but no root is near. The
    # estimate used to stop there, at 5.6e-17; the likelihood peaks at 5e-4.
    estimate = mle_1p(hinge(), basis_povm(2), [999_500, 500], (-0.4, 0.4))
    assert abs(estimate - 5e-4) < 1e-9


def test_a_step_on_a_stencil_only_family_evaluates_the_rows_that_can_step_in_one_call():
    # Row 1 lies within DEFAULT_H of the domain bound 1, so its stencil would
    # leave the domain: it is not evaluated, and it cannot step.
    fam = replace(diagonal_simplex(), tangents=None)
    seen = []
    counted = replace(fam, evaluate=lambda th: seen.append(np.array(th)) or fam.evaluate(th))
    likelihood = Likelihood(counted, basis_povm(2), (-0.9, 1.0 - 1e-6))
    seen.clear()
    ts = np.array([0.2, 1.0 - 2e-6, -0.5])
    counts = np.array([[600.0, 400.0]] * 3)
    g, info, steps = likelihood._scores(ts, counts, counts > 0.0)
    assert steps.tolist() == [True, False, True]
    assert len(seen) == 1 and seen[0].shape == (2 + 4 * 2, 1)
    assert seen[0][:2, 0].tolist() == [0.2, -0.5]
    for i in (0, 2):
        alone = likelihood._scores(ts[i:i + 1], counts[:1], counts[:1] > 0.0)
        assert (g[i], info[i]) == (alone[0][0], alone[1][0])


def _mixed_batches():
    """(family, interval, counts, the rows left to the sub-grids): each batch
    mixes rows that score with rows where no step can be formed."""
    # The plateau family is constant for |t| <= 0.1: balanced counts have
    # I = 0 at their best grid point, unbalanced ones score outside it.
    base = diagonal_simplex()
    plateau = ParametricFamily(
        dim=2, domain=base.domain, name="plateau",
        evaluate=lambda th: base.evaluate(np.sign(th) * np.maximum(np.abs(th) - 0.1, 0.0)),
    )
    yield plateau, (-0.4, 0.4), [[640, 360], [500, 500], [380, 620]], [1]
    # Counts [999 350, 650] peak between the grid points -0.0016 and 0.0016:
    # the step from 0.0016 lands below 0, where the counted outcome 1 has
    # probability zero.
    yield hinge(), (-0.4, 0.4), [[990_000, 10_000], [999_350, 650], [950_000, 50_000]], [1]
    # The best grid point of the second row is the interval's end, 2e-6
    # below the domain bound 1: its stencil leaves the domain, the others' do not.
    fam = replace(diagonal_simplex(), tangents=None)
    counts = [sample_outcomes(fam, [theta], basis_povm(2), 10_000, seed=4)
              for theta in (0.8, 0.99999, 0.7)]
    yield fam, (0.5, 1.0 - 2e-6), counts, [1]


def test_rows_of_a_stack_are_their_own_estimates():
    # Row r of a stack is the estimate of row r alone, bit for bit, whether
    # the rows around it score or leave for the sub-grids. The rows left to
    # the sub-grids are refined together, one family call per level: two
    # balanced rows on the plateau make REFINE_LEVELS calls on
    # 2 REFINE_POINTS points, not 2 REFINE_LEVELS calls on REFINE_POINTS.
    batches = list(_mixed_batches())
    plateau, interval = batches[0][:2]
    batches.append((plateau, interval, [[500, 500], [640, 360], [3, 3]], [0, 2]))
    for family, interval, counts, falls_back in batches:
        fam, calls = _counted_calls(family)
        likelihood = Likelihood(fam, basis_povm(2), interval)
        calls.clear()
        stack = likelihood.estimate(np.array(counts))
        assert stack.shape == (len(counts),)
        assert calls.count(("evaluate", (len(falls_back) * REFINE_POINTS, 1))) == REFINE_LEVELS
        assert calls.count(("evaluate", (REFINE_POINTS, 1))) == REFINE_LEVELS * (len(falls_back) == 1)
        refined = []
        for r, row in enumerate(counts):
            assert likelihood.estimate(np.array(counts[r:])).tolist() == stack[r:].tolist()
            calls.clear()
            assert likelihood.estimate(row) == stack[r]
            if ("evaluate", (REFINE_POINTS, 1)) in calls:
                refined.append(r)
        assert refined == falls_back, family.name


@pytest.mark.parametrize("rows,error", [
    ([[600, 400], [600, -1], [0, 0]], ValidationError),
    ([[600, 400], [0, 0], [600, np.nan]], FlatLikelihood),
    ([[600, 400], [600, np.inf], [500, 500], [0, 0]], ValidationError),
])
def test_a_stack_raises_the_error_of_its_first_bad_row(rows, error):
    # As the replicates one by one did: the middle row's error, with the
    # message of that row alone.
    likelihood = Likelihood(diagonal_simplex(), basis_povm(2), (-0.9, 0.9))
    with pytest.raises(error) as alone:
        likelihood.estimate(rows[1])
    with pytest.raises(error) as stacked:
        likelihood.estimate(np.array(rows, dtype=float))
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_a_stack_of_the_wrong_width_names_the_row_shape():
    likelihood = Likelihood(diagonal_simplex(), basis_povm(2), (-0.9, 0.9))
    with pytest.raises(ValidationError, match=r"counts have shape \(3,\); expected one entry"):
        likelihood.estimate(np.array([[600, 400, 5], [600, 400, 5]]))


def _oracle_cases():
    rng = np.random.default_rng(31)
    for r in rng.uniform(0.2, 0.8, size=2):
        yield radial_slice(r), 0.0, (-0.15, 0.15)
    for d in (2, 3, 4):
        theta = float(rng.uniform(-0.2, 0.2))
        yield random_full_rank(d=d, nparams=1, seed=500 + d), theta, (theta - 0.4, theta + 0.4)


def _oracle_estimates():
    """(family, POVM, interval, counts, estimate) for 5 replicates of each oracle case."""
    for fam, theta, interval in _oracle_cases():
        povm = sld_optimal_povm(fam, [theta])
        likelihood = Likelihood(fam, povm, interval)
        for r in range(5):
            counts = sample_outcomes(fam, [theta], povm, 10_000, seed=[13, r])
            yield fam, povm, interval, counts, likelihood.estimate(counts)


def test_exact_and_stencil_scores_give_the_same_estimate():
    for fam, povm, interval, counts, est in _oracle_estimates():
        stencil = mle_1p(replace(fam, tangents=None), povm, counts, interval)
        assert abs(est - stencil) < 1e-8, fam.name


def test_scoring_agrees_with_the_sub_grid_fallback(monkeypatch):
    for fam, povm, interval, counts, est in _oracle_estimates():
        with monkeypatch.context() as m:
            m.setattr(qmetrics.estimation, "SCORE_STEPS", 0)
            fallback = mle_1p(fam, povm, counts, interval)
        assert est != fallback
        assert abs(est - fallback) < 1e-7, fam.name


def test_a_stencil_leaving_the_domain_falls_back_to_sub_grids(monkeypatch):
    # The truth lies in the last grid cell and the best grid point is the
    # interval's upper end, 2e-6 below the domain bound 1: the stencil there
    # (step 1e-5) leaves the domain, and the sub-grid levels refine instead.
    fam = replace(diagonal_simplex(), tangents=None)
    povm, interval = basis_povm(2), (0.5, 1.0 - 2e-6)
    likelihood = Likelihood(fam, povm, interval)
    counts = sample_outcomes(fam, [0.99999], povm, 10_000, seed=4)
    assert int(np.argmax(dense_scores(dense_table(likelihood), counts))) == likelihood.grid.size - 1
    with pytest.raises(DomainExit):
        fam.point([likelihood.grid[-1]]).drho
    est = likelihood.estimate(counts)
    monkeypatch.setattr(qmetrics.estimation, "SCORE_STEPS", 0)
    assert est == likelihood.estimate(counts)
    assert likelihood.grid[-2] <= est <= likelihood.grid[-1]


def test_replicates_are_mle_of_the_rows_of_one_draw():
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    kwargs = dict(n=2_000, seed=11, interval=(-0.4, 0.4))
    five = cramer_rao_experiment(fam, 0.0, povm, reps=5, **kwargs).estimates
    three = cramer_rao_experiment(fam, 0.0, povm, reps=3, **kwargs).estimates
    assert np.array_equal(five[:3], three)
    rows = np.random.default_rng(11).multinomial(2_000, _distribution(fam, 0.0, povm), size=5)
    for r in range(5):
        assert five[r] == mle_1p(fam, povm, rows[r], (-0.4, 0.4))
    counts = sample_outcomes(fam, [0.0], povm, 2_000, seed=11)
    assert five[0] == mle_1p(fam, povm, counts, (-0.4, 0.4))


def test_one_experiment_draws_its_counts_from_one_generator(monkeypatch):
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    draws = []
    make = np.random.default_rng

    class Logged:
        def __init__(self, seed):
            draws.append(("generator", seed))
            self.rng = make(seed)

        def multinomial(self, n, p, size=None):
            draws.append(("multinomial", size))
            return self.rng.multinomial(n, p, size=size)

    monkeypatch.setattr(np.random, "default_rng", Logged)
    report = cramer_rao_experiment(fam, 0.0, povm, n=2_000, reps=4, seed=11, interval=(-0.4, 0.4))
    assert draws == [("generator", 11), ("multinomial", 4)]
    assert report.estimates.shape == (4,)


def test_counted_zero_probability_outcome_scores_minus_infinity():
    # Basis measurement of (cos t, sin t): outcome 1 has probability zero at
    # t = 0, the first grid point and coarse node.
    fam = pure_rotation()
    likelihood = Likelihood(fam, basis_povm(2), (0.0, 1.0))
    assert likelihood.log_born[0].tolist() == [0.0, -math.inf]
    counts = np.array([[500.0, 500.0], [1000.0, 0.0]])
    nodes = _row_scores(likelihood.log_born[::COARSE_STRIDE].T, counts, counts > 0.0)
    assert nodes[0, 0] == -math.inf
    assert np.all(np.isfinite(nodes[0, 1:])) and np.all(np.isfinite(nodes[1]))
    assert abs(likelihood.estimate([500, 500]) - math.pi / 4) < 1e-3


@pytest.mark.parametrize("interval", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)])
def test_an_interval_whose_grid_is_not_finite_is_rejected(interval):
    # np.linspace used to warn and build a grid of inf or nan.
    with pytest.raises(ValidationError, match=r"interval \(.*\) needs finite ends and a finite grid"):
        mle_1p(diagonal_simplex(), basis_povm(2), [600, 400], interval)


@pytest.mark.parametrize("counts", [[600, 400, 5000], [600, -400], [600], [[600, 400]],
                                    [600, np.nan], [600, np.inf]])
def test_mle_rejects_malformed_counts(counts):
    with pytest.raises(ValidationError):
        mle_1p(diagonal_simplex(), basis_povm(2), counts, (-0.9, 0.9))


def test_default_interval_for_an_unbounded_family():
    base = pure_rotation()
    bare = ParametricFamily(dim=2, evaluate=base.evaluate, domain=((-np.inf, np.inf),), name="bare")
    report = cramer_rao_experiment(bare, 0.3, basis_povm(2), n=1_000, reps=4, seed=1)
    assert report.estimates.shape == (4,)
    assert np.all(np.abs(report.estimates - 0.3) < 0.4)
