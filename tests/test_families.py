import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetrics.errors import (
    DegeneracyUnresolved,
    DomainExit,
    ParamOutOfDomain,
    UnknownFamily,
    ValidationError,
)
from qmetrics.families import (
    REGISTRY_NAMES,
    ParametricFamily,
    bloch3,
    diagonal_simplex,
    directional_family,
    family_registry,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
    tangent_data,
    validate_density,
)

ALL_REGISTRY = [
    ("bloch3", {}, [0.5, 1.2, 0.5]),
    ("rot3-mixture", {"epsilon": 0.1}, [0.3]),
    ("pure-rotation", {}, [0.4]),
    ("diagonal-simplex", {}, [0.2]),
    ("random-full-rank", {"d": 3, "seed": 7}, [0.1]),
]


@pytest.mark.parametrize("name,params,theta", ALL_REGISTRY)
def test_registry_families_produce_valid_states(name, params, theta):
    fam = family_registry(name, params)
    rho = fam.rho(theta)
    validate_density(rho)
    assert rho.shape == (fam.dim, fam.dim)


@pytest.mark.parametrize("name,params,theta", ALL_REGISTRY)
def test_spectral_presentation_reconstructs_state(name, params, theta):
    fam = family_registry(name, params)
    sp = fam.spectral(np.atleast_1d(np.asarray(theta, float)))
    assert np.allclose(sp.reconstruct(), fam.rho(theta), atol=1e-10)
    v = sp.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(fam.dim), atol=1e-10)


def test_registry_cases_cover_every_name():
    assert {name for name, _, _ in ALL_REGISTRY} == set(REGISTRY_NAMES)


def test_registry_rejects_unknown_name():
    with pytest.raises(UnknownFamily):
        family_registry("nope")


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        validate_density(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_domain_checks():
    fam = bloch3()
    with pytest.raises(ParamOutOfDomain):
        fam.rho([1.5, 0.0, 0.0])
    with pytest.raises(ValidationError):
        fam.rho([0.5, 0.0])
    with pytest.raises(ParamOutOfDomain):
        rot3_mixture(0.4)


def test_tangent_data_spectral_vs_generic_agree_off_degeneracy():
    # Same family with and without its closed-form presentation: eigenvalue
    # derivatives and |off-diagonal overlaps| must agree (diagonal overlaps are
    # gauge, so only the generic path pins them to zero).
    fam = random_full_rank(d=3, nparams=2, seed=11)
    blind = ParametricFamily(
        dim=fam.dim, nparams=fam.nparams, evaluate=fam.evaluate,
        spectral=None, domain=fam.domain, name="blind",
    )
    theta = np.array([0.13, -0.07])
    td_s = tangent_data(fam, theta)
    td_g = tangent_data(blind, theta)
    assert np.allclose(td_s.eigenvalues, td_g.eigenvalues, atol=1e-10)
    assert np.allclose(td_s.dp, td_g.dp, atol=1e-7)
    off = ~np.eye(fam.dim, dtype=bool)
    assert np.allclose(np.abs(td_s.overlaps[:, off]), np.abs(td_g.overlaps[:, off]), atol=1e-6)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 5_000))
def test_overlap_tensor_antisymmetry(seed):
    # d/dtheta <w_j|w_k> = 0 implies O_jk = -conj(O_kj) and Re O_jj = 0.
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    o = tangent_data(fam, [0.1]).overlaps[0]
    assert np.max(np.abs(o + o.conj().T)) < 1e-7


def test_degenerate_family_without_presentation_raises():
    # A tangent that couples two exactly degenerate eigenvalues cannot be
    # resolved by perturbation theory without a supplied presentation.
    def evaluate(th):
        m = np.diag([0.5, 0.25, 0.25]).astype(complex)
        m[1, 2] = m[2, 1] = 0.1 * float(th[0])
        return m

    blind = ParametricFamily(dim=3, nparams=1, evaluate=evaluate, name="split")
    with pytest.raises(DegeneracyUnresolved):
        tangent_data(blind, [0.0])


def test_constant_degenerate_family_generic_path_is_silent():
    # The rotating mixture is constant as a matrix function (the rotation acts
    # inside the degenerate eigenspace), so without a presentation the tangent
    # data is legitimately zero.
    base = rot3_mixture(0.1)
    blind = ParametricFamily(
        dim=3, nparams=1, evaluate=base.evaluate, spectral=None,
        domain=base.domain, name="blind-mixture",
    )
    td = tangent_data(blind, [0.3])
    assert np.max(np.abs(td.dp)) < 1e-8
    assert np.max(np.abs(td.overlaps)) < 1e-8


def test_directional_family_slices():
    fam = bloch3()
    sliced = directional_family(fam, [0.5, 0.8, 0.3], [1.0, 0.0, 0.0])
    assert sliced.nparams == 1
    assert np.allclose(sliced.rho([0.1]), fam.rho([0.6, 0.8, 0.3]))
    with pytest.raises(ValidationError):
        directional_family(fam, [0.5, 0.8, 0.3], [0.0, 0.0, 0.0])
    with pytest.raises(DomainExit):
        sliced.rho([0.6])  # r = 1.1 leaves the domain


def test_random_families_are_deterministic_per_seed():
    a = random_full_rank(d=3, nparams=1, seed=5)
    b = random_full_rank(d=3, nparams=1, seed=5)
    assert np.array_equal(a.rho([0.2]), b.rho([0.2]))
    c = random_full_rank(d=3, nparams=1, seed=6)
    assert not np.allclose(a.rho([0.2]), c.rho([0.2]))


def test_pure_families_are_rank_one():
    for fam, th in [(pure_rotation(), [0.4]), (random_pure(3, 1, seed=2), [0.1])]:
        vals = np.linalg.eigvalsh(fam.rho(th))
        assert abs(vals[-1] - 1.0) < 1e-10
        assert np.all(np.abs(vals[:-1]) < 1e-10)


def test_diagonal_simplex_matches_closed_form():
    fam = diagonal_simplex()
    td = tangent_data(fam, [0.2])
    assert np.allclose(td.dp[0], [0.5, -0.5], atol=1e-10)
    assert np.max(np.abs(td.overlaps)) < 1e-10
