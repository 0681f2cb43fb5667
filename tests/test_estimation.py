import math

import numpy as np
import pytest

from qmetrics.errors import FlatLikelihood, ValidationError
from qmetrics.estimation import (
    Likelihood,
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
from qmetrics.metrics import basis_povm, classical_fisher, sld_information, validate_povm


def radial_slice(r=0.5):
    return directional_family(bloch3(), np.array([r, 0.8, 0.3]), np.array([1.0, 0.0, 0.0]))


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


def test_random_povm_has_nonzero_equality_residual():
    fam = random_full_rank(d=2, nparams=1, seed=3)
    residual = equality_condition_residual(fam, [0.1], basis_povm(2))
    assert residual > 1e-4


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


def test_experiment_requires_one_parameter():
    with pytest.raises(ValidationError):
        cramer_rao_experiment(bloch3(), 0.5, basis_povm(2), n=10, reps=2)


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


def test_replicates_are_mle_of_their_own_stream():
    fam = radial_slice()
    povm = sld_optimal_povm(fam, [0.0])
    kwargs = dict(n=2_000, seed=11, interval=(-0.4, 0.4))
    five = cramer_rao_experiment(fam, 0.0, povm, reps=5, **kwargs).estimates
    three = cramer_rao_experiment(fam, 0.0, povm, reps=3, **kwargs).estimates
    assert np.array_equal(five[:3], three)
    for r in range(5):
        counts = sample_outcomes(fam, [0.0], povm, 2_000, seed=[11, r])
        assert five[r] == mle_1p(fam, povm, counts, (-0.4, 0.4))


def test_counted_zero_probability_outcome_scores_minus_infinity():
    # Basis measurement of (cos t, sin t): outcome 1 has probability zero at
    # t = 0, the first grid point.
    fam = pure_rotation()
    likelihood = Likelihood(fam, basis_povm(2), (0.0, 1.0))
    values = likelihood._grid_scores([500, 500])[2]
    assert values[0] == -math.inf
    assert np.all(np.isfinite(values[1:]))
    assert np.isfinite(likelihood._grid_scores([1000, 0])[2][0])
    assert abs(likelihood.estimate([500, 500]) - math.pi / 4) < 1e-3


@pytest.mark.parametrize("counts", [[600, 400, 5000], [600, -400], [600], [[600, 400]],
                                    [600, np.nan], [600, np.inf]])
def test_mle_rejects_malformed_counts(counts):
    with pytest.raises(ValidationError):
        mle_1p(diagonal_simplex(), basis_povm(2), counts, (-0.9, 0.9))


def test_default_interval_for_a_family_without_a_domain():
    base = pure_rotation()
    bare = ParametricFamily(dim=2, nparams=1, evaluate=base.evaluate, name="bare")
    report = cramer_rao_experiment(bare, 0.3, basis_povm(2), n=1_000, reps=4, seed=1)
    assert report.estimates.shape == (4,)
    assert np.all(np.abs(report.estimates - 0.3) < 0.4)
