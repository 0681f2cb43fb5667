import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetrics.errors import (
    MissingGauge,
    NotHermitian,
    RankDeficient,
    UnknownMetric,
    ValidationError,
)
from qmetrics.families import (
    ParametricFamily,
    bloch3,
    diagonal_simplex,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
)
from qmetrics.linalg import relative_entropy
from qmetrics.metrics import (
    C_FUNCTIONS,
    CF_CL,
    CF_SLD,
    METRIC_NAMES,
    basis_povm,
    born_probabilities,
    c_l_decomposition,
    c_l_information,
    c_upsilon_states,
    classical_fisher,
    evaluate_metric,
    f_function_scan,
    kmb_information,
    mc_metric,
    random_povm,
    rld_information,
    sld_information,
    validate_povm,
)

LOG_GRID = np.logspace(-3, 3, 100)


# -- coefficient / f-function structure --------------------------------------


@pytest.mark.parametrize("name", ["sld", "kmb", "rld", "cl"])
def test_c_functions_symmetric_and_homogeneous(name):
    cf = C_FUNCTIONS[name]
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(0.05, 2.0, size=2)
        if name == "cl" and abs(x - y) < 1e-3:
            continue
        assert math.isclose(cf.c(x, y), cf.c(y, x), rel_tol=1e-12)
        s = rng.uniform(0.1, 3.0)
        assert math.isclose(cf.c(s * x, s * y), cf.c(x, y) / s, rel_tol=1e-10)
        # f(t) = 1/c(t, 1)
        assert math.isclose(cf.f(x / y), 1.0 / (y * cf.c(x, y)), rel_tol=1e-10)


def test_f_scan_monotone_metrics_nondecreasing_and_self_dual():
    for name in ("sld", "kmb", "rld"):
        rep = f_function_scan(C_FUNCTIONS[name], LOG_GRID)
        assert rep.nondecreasing
        assert rep.self_dual
        assert rep.max_duality_defect <= 1e-10


def test_f_scan_lower_bound_coefficient_is_non_monotone():
    cf = CF_CL
    rep = f_function_scan(cf, LOG_GRID)
    assert not rep.nondecreasing
    assert abs(cf.f(1e-6) - 0.5) < 1e-5
    assert cf.f(1.0) == 0.0
    assert rep.self_dual


def test_c_function_ordering_pointwise():
    # RLD >= SLD >= KMB coefficients pointwise is equivalent to the reversed
    # ordering of the metrics on off-diagonal tangents.
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.uniform(0.01, 1.0, size=2)
        c_s = C_FUNCTIONS["sld"].c(x, y)
        c_k = C_FUNCTIONS["kmb"].c(x, y)
        c_r = C_FUNCTIONS["rld"].c(x, y)
        assert c_s <= c_k + 1e-12 <= c_r + 1e-12


# -- POVMs and classical Fisher ----------------------------------------------


def test_random_povm_is_valid_and_deterministic():
    a = random_povm(3, 5, seed=4)
    b = random_povm(3, 5, seed=4)
    validate_povm(a, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_validate_povm_rejects_bad_sets():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError):
        validate_povm([eye, eye], 2)  # sums to 2I
    with pytest.raises(ValidationError):
        validate_povm([], 2)
    # The stacked checks raise the error of the first failing element.
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    not_hermitian = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError, match="not positive semidefinite") as err:
        validate_povm([not_psd, not_hermitian], 2)
    assert not isinstance(err.value, NotHermitian)
    with pytest.raises(NotHermitian, match="not Hermitian"):
        validate_povm([not_hermitian, not_psd], 2)
    with pytest.raises(NotHermitian):
        validate_povm([not_hermitian, np.eye(3)], 2)
    with pytest.raises(ValidationError, match=r"shape \(3, 3\)"):
        validate_povm([np.eye(2), np.eye(3), not_hermitian], 2)
    one = np.diag([0.0, 1.0]).astype(complex)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            validate_povm([np.array([[bad, 0.0], [0.0, 0.0]]), one], 2)


def test_born_probabilities_normalized():
    fam = bloch3()
    p = born_probabilities(fam.rho([0.5, 1.2, 0.5]), basis_povm(2))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)


def test_classical_fisher_diagonal_family_closed_form():
    # Basis measurement of diag((1+t)/2, (1-t)/2) has Fisher 1/(1-t^2).
    fam = diagonal_simplex()
    for t in (0.0, 0.3, -0.6):
        f = classical_fisher(fam, [t], basis_povm(2))[0, 0]
        assert abs(f - 1.0 / (1.0 - t * t)) < 1e-8


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 5_000))
def test_classical_fisher_never_exceeds_quantum_bound(seed):
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    povm = random_povm(3, 4, seed=seed + 1)
    f = classical_fisher(fam, [0.1], povm)[0, 0]
    h = sld_information(fam, [0.1])[0, 0]
    assert f <= h + 1e-8


# -- quantum informations -----------------------------------------------------


def test_bloch3_closed_forms():
    fam = bloch3()
    r, t, phi = 0.5, 1.2, 0.5
    theta = np.array([r, t, phi])
    h = sld_information(fam, theta)
    expected = np.diag([1 / (1 - r * r), r * r, r * r * math.sin(t) ** 2])
    assert np.allclose(h, expected, atol=1e-8)
    cl = c_l_information(fam, theta)
    assert np.allclose(cl, np.diag([1 / (1 - r * r), 1.0, math.sin(t) ** 2]), atol=1e-8)
    cu = c_upsilon_states(fam, theta)
    assert np.allclose(cu, np.diag([1 / (1 - r * r), 1.0, 1.0]), atol=1e-8)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 5_000), d=st.integers(2, 4))
def test_engine_matches_score_route(seed, d):
    fam = random_full_rank(d=d, nparams=2, seed=seed)
    theta = [0.07, -0.11]
    a = mc_metric(fam, theta, CF_SLD)
    b = sld_information(fam, theta)
    assert np.max(np.abs(a - b)) < 1e-8
    # The engine's 2(x+y)/(x-y)^2 coefficient is the oracle for the overlap form of cl.
    cl = c_l_information(fam, theta)
    assert np.max(np.abs(mc_metric(fam, theta, CF_CL) - cl)) <= 1e-8 * np.max(np.abs(cl))


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5_000))
def test_metric_ordering_sandwich(seed):
    fam = random_full_rank(d=3, nparams=2, seed=seed)
    theta = [0.05, -0.04]
    h = sld_information(fam, theta)
    cl = c_l_information(fam, theta)
    cu = c_upsilon_states(fam, theta)
    assert np.linalg.eigvalsh(cl - h).min() >= -1e-8
    assert np.linalg.eigvalsh(cu - cl).min() >= -1e-8


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5_000))
def test_kmb_between_sld_and_rld(seed):
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    h = sld_information(fam, [0.1])[0, 0]
    k = kmb_information(fam, [0.1])[0, 0]
    r = rld_information(fam, [0.1])[0, 0]
    assert h <= k + 1e-9 <= r + 1e-9


def test_kmb_is_relative_entropy_hessian():
    fam = random_full_rank(d=3, nparams=1, seed=13)
    k = kmb_information(fam, [0.0])[0, 0]
    eps = 1e-3
    d = relative_entropy(fam.rho([0.0]), fam.rho([eps]))
    assert abs(2 * d / eps**2 - k) < 30 * eps * k


def test_full_rank_required_metrics_reject_pure_states():
    fam = pure_rotation()
    with pytest.raises(RankDeficient):
        kmb_information(fam, [0.3])
    with pytest.raises(RankDeficient):
        rld_information(fam, [0.3])


def test_sld_defined_for_pure_states():
    # |w> = (cos t, sin t) has information 4 <dw|dw> = 4.
    fam = pure_rotation()
    assert abs(sld_information(fam, [0.3])[0, 0] - 4.0) < 1e-8
    assert abs(c_l_information(fam, [0.3])[0, 0] - 4.0) < 1e-8


def test_gauge_dependent_information_requires_presentation():
    fam = bloch3()
    blind = ParametricFamily(
        dim=2, nparams=3, evaluate=fam.evaluate, spectral=None,
        domain=fam.domain, name="blind",
    )
    with pytest.raises(MissingGauge):
        c_upsilon_states(blind, [0.5, 1.2, 0.5])
    # the invariant lower bound still works
    cl = c_l_information(blind, [0.5, 1.2, 0.5])
    assert np.allclose(cl, np.diag([1 / 0.75, 1.0, math.sin(1.2) ** 2]), atol=1e-6)


def test_lower_bound_on_degenerate_mixture():
    eps = 0.1
    fam = rot3_mixture(eps)
    assert abs(c_l_information(fam, [0.3])[0, 0] - 8 * eps) < 1e-9


def test_decomposition_identity_on_registry_families():
    cases = [
        (bloch3(), [0.5, 1.2, 0.5]),
        (rot3_mixture(0.1), [0.3]),
        (pure_rotation(), [0.4]),
        (diagonal_simplex(), [0.2]),
        (random_full_rank(3, 2, seed=7), [0.1, -0.2]),
    ]
    for fam, th in cases:
        classical, pure = c_l_decomposition(fam, th)
        cl = c_l_information(fam, th)
        assert np.max(np.abs(classical + pure - cl)) < 1e-8


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5_000))
def test_pure_state_lower_bound_equals_sld(seed):
    fam = random_pure(3, 1, seed=seed)
    cl = c_l_information(fam, [0.1])
    h = sld_information(fam, [0.1])
    assert np.max(np.abs(cl - h)) < 1e-9


def test_evaluate_metric_dispatch():
    fam = bloch3()
    theta = [0.5, 1.2, 0.5]
    direct = {
        "fisher": classical_fisher(fam, theta, basis_povm(fam.dim)),
        "sld": sld_information(fam, theta),
        "kmb": kmb_information(fam, theta),
        "rld": rld_information(fam, theta),
        "cupsilon": c_upsilon_states(fam, theta),
        "cl": c_l_information(fam, theta),
    }
    assert set(METRIC_NAMES) == set(direct)
    for name in METRIC_NAMES:
        assert np.array_equal(evaluate_metric(fam, theta, name), direct[name])
    with pytest.raises(UnknownMetric):
        evaluate_metric(fam, theta, "nope")
