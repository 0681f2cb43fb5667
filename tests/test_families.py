from dataclasses import fields, replace

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
from qmetrics.channels import (
    ChannelFamily,
    depolarizing_channel,
    induced_state_family,
    pushforward_family,
    random_tpcp,
)
from qmetrics.families import (
    REGISTRY_NAMES,
    ParametricFamily,
    SpectralPresentation,
    bloch3,
    diagonal_simplex,
    directional_family,
    family_registry,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
    spectral_tangents,
    tangent_data,
    validate_density,
    _random_hermitian,
)
from qmetrics.gauge import PhaseAssignment, apply_gauge
from qmetrics.linalg import DEFAULT_H, unitary
from qmetrics.metrics import sld_information

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


@pytest.mark.parametrize("name,params,message", [
    ("random-full-rank", {"d": "x"}, "parameter 'd' must be int, got 'x'"),
    ("random-full-rank", {"d": None}, "parameter 'd' must be int, got None"),
    ("random-full-rank", {"seed": float("inf")}, "parameter 'seed' must be int, got inf"),
    ("rot3-mixture", {"epsilon": "a"}, "parameter 'epsilon' must be float, got 'a'"),
    ("random-full-rank", {"d": 0}, "parameter 'd' must be >= 1, got 0"),
    ("random-full-rank", {"nparams": 0}, "parameter 'nparams' must be >= 1, got 0"),
    ("random-full-rank", {"seed": -1}, "parameter 'seed' must be >= 0, got -1"),
])
def test_registry_rejects_bad_parameters_naming_the_family_and_key(name, params, message):
    with pytest.raises(ValidationError) as err:
        family_registry(name, params)
    assert str(err.value) == f"family {name!r}: {message}"


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        validate_density(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    # These used to pass, or fail with a raw numpy error.
    with pytest.raises(ValidationError, match="non-finite"):
        validate_density(np.diag([np.nan, 1.0]))
    for shape in ((3,), (2, 3), (1, 2, 2)):
        with pytest.raises(ValidationError, match="must be square"):
            validate_density(np.ones(shape) / 2)


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
        dim=fam.dim, evaluate=fam.evaluate,
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
        t = np.asarray(th, dtype=float)[..., 0]
        m = np.broadcast_to(np.diag([0.5, 0.25, 0.25]).astype(complex), t.shape + (3, 3)).copy()
        m[..., 1, 2] = m[..., 2, 1] = 0.1 * t
        return m

    blind = ParametricFamily(dim=3, evaluate=evaluate, domain=((-np.inf, np.inf),), name="split")
    with pytest.raises(DegeneracyUnresolved):
        tangent_data(blind, [0.0])


def test_constant_degenerate_family_generic_path_is_silent():
    # The rotating mixture is constant as a matrix function (the rotation acts
    # inside the degenerate eigenspace), so without a presentation the tangent
    # data is legitimately zero.
    base = rot3_mixture(0.1)
    blind = ParametricFamily(
        dim=3, evaluate=base.evaluate, spectral=None,
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
    assert sliced.domain == ((-0.5, 0.5),)  # 0 < r < 1
    assert directional_family(fam, [0.5, 0.8, 0.3], [-2.0, 1.0, 0.0]).domain == ((-0.25, 0.25),)
    with pytest.raises(ParamOutOfDomain, match=r"theta \[0.6\] outside domain of 'bloch3@dir'"):
        sliced.rho([0.6])  # r = 1.1 leaves the domain


def test_a_slice_whose_stencil_leaves_the_domain_raises_when_evaluated():
    # The slice's domain ends at t = 5e-6; the stencil at t = 0 reaches
    # t = 1e-5 (r = 1 + 5e-6), and evaluating it there raises. The stencil-only
    # copy is the slice without its exact tangents.
    sliced = directional_family(bloch3(), [1 - 5e-6, 0.8, 0.3], [1.0, 0.0, 0.0])
    with pytest.raises(DomainExit, match=r"stencil of 'bloch3@dir' at theta \[0.0\] .* leaves the domain"):
        sld_information(replace(sliced, tangents=None), [0.0])
    # With them nothing leaves the point: the radial SLD 1/(1 - r^2).
    r = 1 - 5e-6
    assert sld_information(sliced, [0.0])[0, 0] == pytest.approx(1.0 / (1.0 - r * r), rel=1e-6)


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


def test_pure_rotation_state_is_the_outer_product_of_its_vector():
    # The rotation builder's V P V^dagger with P = (1, 0), bit for bit, on
    # one point and on a stack.
    fam = pure_rotation()
    ts = np.linspace(-np.pi, np.pi, 41)
    w = np.stack([np.cos(ts), np.sin(ts)], axis=-1)
    expected = (w[:, :, None] * w[:, None, :]).astype(complex)
    assert _stack(fam, ts[:, None]).tobytes() == expected.tobytes()
    for t, rho in zip(ts, expected):
        assert fam.rho([t]).tobytes() == rho.tobytes()


def test_diagonal_simplex_matches_closed_form():
    fam = diagonal_simplex()
    td = tangent_data(fam, [0.2])
    assert np.allclose(td.dp[0], [0.5, -0.5], atol=1e-10)
    assert np.max(np.abs(td.overlaps)) < 1e-10


def _loop(fam, thetas):
    return np.array([fam.rho(t) for t in thetas])


def _stack(fam, thetas):
    """The states at an (n, p) stack, from one evaluate call on the checked stack."""
    return np.asarray(fam.evaluate(fam.check_thetas(thetas)), dtype=complex)


def _two_branch_channels():
    g1 = _random_hermitian(np.random.default_rng(1), 2)
    g2 = _random_hermitian(np.random.default_rng(2), 2)
    c, s = np.cos(0.6), np.sin(0.6)
    return ChannelFamily(dim=2, name="two-branch", evaluate=lambda ts: np.stack(
        [c * unitary(ts[:, None, None] * g1), s * unitary((0.4 + 0.7 * ts[:, None, None]) * g2)],
        axis=1))


def _sampled_gauge(d, seed):
    grid = np.linspace(-0.6, 0.6, 41)
    rng = np.random.default_rng(seed)
    samples = np.sin(np.outer(rng.uniform(0.5, 2, d), grid) + rng.uniform(0, 2 * np.pi, (d, 1)))
    return PhaseAssignment.from_samples(grid, samples)


# Every library constructor, with a box of parameters inside its domain.
CONTRACT = [
    (bloch3(), [(0.05, 0.95), (-7.0, 7.0), (-7.0, 7.0)]),
    (rot3_mixture(0.1), [(-7.0, 7.0)]),
    (pure_rotation(), [(-7.0, 7.0)]),
    (diagonal_simplex(), [(-0.95, 0.95)]),
    *((random_full_rank(d=d, nparams=p, seed=3 + d), [(-0.5, 0.5)] * p)
      for d in (2, 4, 8) for p in (1, 3)),
    *((random_pure(d, p, seed=5), [(-0.5, 0.5)] * p) for d, p in ((3, 1), (4, 2))),
    (pushforward_family(depolarizing_channel(3, 0.6), random_full_rank(3, 2, seed=9)),
     [(-0.5, 0.5)] * 2),
    (pushforward_family(random_tpcp(3, 2, seed=1), random_full_rank(3, 1, seed=4)), [(-0.5, 0.5)]),
    (induced_state_family(_two_branch_channels(), np.array([1.0, 1.0]), 0.3), [(-0.5, 0.5)]),
    (directional_family(bloch3(), [0.5, 0.8, 0.3], [1.0, 0.0, 0.0]), [(-0.4, 0.4)]),
    (directional_family(random_full_rank(d=4, nparams=3, seed=2), [0.1, 0.2, -0.1],
                        [0.3, 1.0, -0.5]), [(-0.4, 0.4)]),
    (apply_gauge(random_full_rank(d=3, nparams=1, seed=1), PhaseAssignment.from_callable(
        lambda th: np.array([0.4, -0.8, 0.2]) * np.sin(np.array([1.0, 2.0, 0.5]) * th[0]))),
     [(-0.5, 0.5)]),
    (apply_gauge(random_full_rank(d=4, nparams=1, seed=2), _sampled_gauge(4, 2)), [(-0.5, 0.5)]),
    (apply_gauge(apply_gauge(random_full_rank(d=3, nparams=1, seed=1), PhaseAssignment.from_callable(
        lambda th: np.array([0.4, -0.8, 0.2]) * np.sin(th[0]))), _sampled_gauge(3, 4)), [(-0.5, 0.5)]),
]


@pytest.mark.parametrize("fam,box", CONTRACT, ids=[f"{f.name}-p{f.nparams}" for f, _ in CONTRACT])
def test_stacked_calls_equal_point_by_point_calls_bit_for_bit(fam, box):
    lo, hi = np.array(box).T
    thetas = np.random.default_rng(0).uniform(lo, hi, size=(64, fam.nparams))
    batch = _stack(fam, thetas)
    assert batch.shape == (64, fam.dim, fam.dim)
    assert np.array_equal(batch, _loop(fam, thetas))
    if fam.spectral is not None:
        sp = fam.spectral(thetas)
        assert sp.eigenvalues.shape == (64, fam.dim)
        assert sp.eigenvectors.shape == (64, fam.dim, fam.dim)
        for i, th in enumerate(thetas):
            one = fam.spectral(th)
            assert np.array_equal(sp.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(sp.eigenvectors[i], one.eigenvectors)
        assert np.allclose(sp.reconstruct(), batch, atol=1e-10)
        if fam.tangents is not None:
            # Every exact-tangent family here presents with its slopes.
            assert sp.eigenvalue_slopes.shape == (64, fam.nparams, fam.dim)
            assert sp.eigenvector_slopes.shape == (64, fam.nparams, fam.dim, fam.dim)
            for i, th in enumerate(thetas):
                one = fam.spectral(th)
                assert np.array_equal(sp.eigenvalue_slopes[i], one.eigenvalue_slopes)
                assert np.array_equal(sp.eigenvector_slopes[i], one.eigenvector_slopes)
    if fam.tangents is not None:
        tangents = fam.tangents(thetas)
        assert tangents.shape == (64, fam.nparams, fam.dim, fam.dim)
        for i, th in enumerate(thetas):
            assert np.array_equal(tangents[i], fam.tangents(th))
    if fam.phases is not None:
        a = fam.phases(thetas)
        assert a.shape == (64, fam.dim)
        for i, th in enumerate(thetas):
            assert np.array_equal(a[i], fam.phases(th[None])[0])


# Every built-in constructor and composition that carries exact tangents.
ORACLE = [
    (bloch3(), [0.5, 1.2, 0.5]),
    (rot3_mixture(0.1), [0.3]),
    (pure_rotation(), [0.4]),
    (diagonal_simplex(), [0.2]),
    *((random_full_rank(d=d, nparams=p, seed=40 + d), [0.1, -0.2, 0.05][:p])
      for d in (2, 3, 4, 8) for p in (1, 3)),
    *((random_pure(d, p, seed=6), [0.2, -0.1][:p]) for d, p in ((3, 1), (4, 2))),
    (directional_family(random_full_rank(d=4, nparams=3, seed=2), [0.1, 0.2, -0.1],
                        [0.3, 1.0, -0.5]), [0.2]),
    (pushforward_family(depolarizing_channel(3, 0.6), random_full_rank(3, 2, seed=9)), [0.2, -0.1]),
    (pushforward_family(random_tpcp(3, 2, seed=1), random_full_rank(3, 1, seed=4)), [0.3]),
    (apply_gauge(random_full_rank(d=3, nparams=1, seed=1), PhaseAssignment.from_callable(
        lambda th: np.array([0.4, -0.8, 0.2]) * np.sin(np.array([1.0, 2.0, 0.5]) * th[0]))), [0.1]),
]


def _agree(exact, differenced):
    # Within 1e-8 of the largest entry; 1e-12 absolute where the tangent
    # vanishes (rot3_mixture's state does not move) and the stencil leaves noise.
    return np.max(np.abs(exact - differenced)) <= 1e-8 * np.max(np.abs(differenced)) + 1e-12


@pytest.mark.parametrize("fam,theta", ORACLE, ids=[f"{f.name}-p{f.nparams}" for f, _ in ORACLE])
def test_exact_tangents_agree_with_the_stencil(fam, theta):
    # The stencil is the oracle: the same family without its exact tangents.
    stencil = replace(fam, tangents=None)
    assert fam.tangents is not None
    assert _agree(fam.drho(theta), stencil.drho(theta))
    exact, differenced = tangent_data(fam, theta), tangent_data(stencil, theta)
    assert np.array_equal(exact.eigenvalues, differenced.eigenvalues)
    assert _agree(exact.dp, differenced.dp)
    assert _agree(exact.overlaps, differenced.overlaps)


def _per_point_random_full_rank(d, nparams, seed, th):
    # The one-point form of random_full_rank's arithmetic (b @ th, q.sum(),
    # v.conj().T) on the same draws: its broadcasting evaluate and spectral
    # must match it bit for bit.
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.6, 1.4))
    lam = np.exp(-c * np.arange(d))
    lam = lam / lam.sum()
    b = rng.uniform(0.5, 2.0, size=(d, nparams))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
    h0 = _random_hermitian(rng, d)
    gens = [_random_hermitian(rng, d) for _ in range(nparams)]
    q = lam + np.minimum(0.004, lam * (1.0 - np.exp(-c)) / 2.0) * np.sin(b @ th + phase)
    q = q / q.sum()
    v = unitary(h0 + sum(t * g for t, g in zip(th, gens)))
    rho = (v * q) @ v.conj().T
    return q, v, rho / np.real(np.trace(rho))


@pytest.mark.parametrize("d,p", [(d, p) for d in (2, 4, 8) for p in (1, 3)])
def test_random_full_rank_broadcast_equals_its_per_point_arithmetic(d, p):
    fam = random_full_rank(d=d, nparams=p, seed=30 + d)
    thetas = np.random.default_rng(d + p).uniform(-0.5, 0.5, size=(8, p))
    batch = fam.spectral(thetas)
    for i, th in enumerate(thetas):
        q, v, rho = _per_point_random_full_rank(d, p, 30 + d, th)
        sp = fam.spectral(th)
        assert np.array_equal(sp.eigenvalues, q) and np.array_equal(sp.eigenvectors, v)
        assert np.array_equal(batch.eigenvalues[i], q) and np.array_equal(batch.eigenvectors[i], v)
        assert np.array_equal(fam.rho(th), rho)


@pytest.mark.parametrize("d", [5, 6, 8, 12])
def test_random_full_rank_is_positive_and_ordered_in_any_dimension(d):
    # The wiggle's amplitude is capped per eigenvalue: before, 1, 17, 29 and
    # 50 of these 50 states had a non-positive eigenvalue.
    theta = np.array([0.1, 0.2, -0.1])
    for seed in range(50):
        fam = random_full_rank(d, 3, seed=seed)
        p = fam.spectral(theta).eigenvalues
        assert np.all(np.diff(p) < 0) and p[-1] > 0, seed
        assert np.allclose(np.linalg.eigvalsh(fam.rho(theta))[::-1], p, rtol=0.0, atol=1e-12), seed


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_random_pure_stacked_norm_equals_numpy_norm(d):
    # The one-point arithmetic: the first frame column over np.linalg.norm.
    rng = np.random.default_rng(d)
    h0 = _random_hermitian(rng, d)
    gens = [_random_hermitian(rng, d) for _ in range(2)]
    fam = random_pure(d, 2, seed=d)
    for th in np.random.default_rng(7).uniform(-0.5, 0.5, size=(16, 2)):
        psi = unitary(h0 + sum(t * g for t, g in zip(th, gens)))[:, 0]
        psi = psi / np.linalg.norm(psi)
        # The family divides V P V^dagger by its trace instead: the same state
        # within rounding.
        assert np.max(np.abs(fam.rho(th) - np.outer(psi, psi.conj()))) <= 1e-15


def test_a_stack_of_the_wrong_shape_raises_a_validation_error_naming_the_family():
    # One-point callables that do not broadcast: on a stack they give one matrix.
    fam = ParametricFamily(dim=2, domain=((-np.inf, np.inf),), name="per-point",
                           evaluate=lambda th: np.diag([0.6, 0.4]),
                           spectral=lambda th: SpectralPresentation(np.array([0.6, 0.4]), np.eye(2)))
    assert np.array_equal(fam.rho([0.1]), np.diag([0.6, 0.4]))
    expected = r"'per-point': evaluate gives shape \(2, 2\) for a stack of 5 points, expected \(5, 2, 2\)"
    with pytest.raises(ValidationError, match=expected):
        fam.drho([0.1])
    with pytest.raises(ValidationError, match=r"'per-point': spectral eigenvalues gives shape \(2,\)"):
        tangent_data(fam, [0.1])
    with pytest.raises(ValidationError, match=r"'per-point': spectral eigenvectors"):
        spectral_tangents(replace(fam, spectral=lambda th: SpectralPresentation(
            np.tile([0.6, 0.4], (len(th), 1)), np.eye(2))), np.array([[0.1]]))


def test_a_built_in_family_keeps_its_last_presentation_read_only():
    fam = random_full_rank(d=3, nparams=2, seed=1)
    thetas = np.array([[0.1, -0.2]])
    sp = fam.spectral(thetas)
    assert fam.spectral(thetas.copy()) is sp  # the same stack: kept, not recomputed
    with pytest.raises(ValueError):
        sp.eigenvector_slopes[0, 0, 0, 0] = 1.0
    # The tangents at the same stack read the kept presentation.
    fam.tangents(thetas)
    assert fam.spectral(thetas) is sp
    # Another stack, even the same point unstacked, is presented anew.
    assert fam.spectral(np.array([0.1, -0.2])) is not sp


@pytest.mark.parametrize("build", [random_full_rank, random_pure])
def test_a_fresh_point_decomposes_its_generator_once(build, monkeypatch):
    # The state takes its frame from the presentation its tangents came from.
    fam, theta = build(d=4, nparams=2, seed=5), np.array([0.3, -0.1])
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(np.shape(m)) or eigh(m))
    point = fam.point(theta)
    point.rho, point.drho
    assert shapes == [(1, 4, 4)]
    monkeypatch.undo()
    fresh = build(d=4, nparams=2, seed=5)
    assert point.rho.tobytes() == fresh.evaluate(theta[None])[0].tobytes()
    assert point.rho.tobytes() == fresh.rho(theta).tobytes()


def test_a_presentation_without_slopes_is_differenced_and_wrong_shapes_raise():
    base, theta = bloch3(), [0.5, 1.2, 0.5]

    def bare(th):
        sp = base.spectral(th)
        return SpectralPresentation(sp.eigenvalues, sp.eigenvectors)

    # Exact tangents, but a presentation without slopes: the frame is differenced.
    no_slopes = replace(base, spectral=bare)
    differenced = tangent_data(replace(base, tangents=None), theta)
    assert np.array_equal(tangent_data(no_slopes, theta).overlaps, differenced.overlaps)
    assert np.array_equal(no_slopes.drho(theta), base.drho(theta))
    wrong = replace(base, spectral=lambda th: replace(base.spectral(th), eigenvalue_slopes=np.zeros((1, 2))))
    with pytest.raises(ValidationError, match=r"'bloch3': spectral eigenvalue slopes gives shape \(1, 2\)"):
        tangent_data(wrong, theta)
    wrong = replace(base, tangents=lambda th: np.zeros((3, 2, 2)))
    with pytest.raises(ValidationError, match=r"'bloch3': tangents gives shape \(3, 2, 2\) for a stack of 1"):
        wrong.drho(theta)


def test_a_stencil_leaving_the_domain_raises_domain_exit():
    # r + h > 1: the stencil would evaluate a state with a negative eigenvalue.
    # bloch3 without its exact tangents is differenced, as a user family is.
    fam = replace(bloch3(), tangents=None)
    theta = [0.9999999, 0.7, 0.2]
    expected = r"'bloch3' at theta \[0\.9999999, 0\.7, 0\.2\] with step h=1e-05 leaves the domain"
    for call in (fam.drho, lambda th: tangent_data(fam, th)):
        with pytest.raises(DomainExit, match=expected):
            call(theta)
    inside = [1.0 - 2.0 * DEFAULT_H, 0.7, 0.2]
    assert np.all(np.isfinite(fam.drho(inside)))
    with pytest.raises(DomainExit, match=r"'diagonal-simplex' at theta \[-0\.999999\]"):
        spectral_tangents(replace(diagonal_simplex(), tangents=None), np.array([[0.0], [-0.999999]]))


def test_exact_tangents_hold_up_to_the_bound():
    # The same points with the exact tangents: their closed forms, no DomainExit.
    r, t, phi = theta = [0.9999999, 0.7, 0.2]
    drho = bloch3().drho(theta)
    half = np.array([[np.cos(t), np.sin(t) * np.exp(-1j * phi)],
                     [np.sin(t) * np.exp(1j * phi), -np.cos(t)]]) / 2
    assert np.allclose(drho[0], half, rtol=0, atol=1e-15)
    td = tangent_data(bloch3(), theta)
    assert np.array_equal(td.dp, [[0.5, -0.5], [0.0, 0.0], [0.0, 0.0]])
    dp, overlaps, values = spectral_tangents(diagonal_simplex(), np.array([[0.0], [-0.999999]]))
    assert np.array_equal(dp, [[[0.5, -0.5]]] * 2) and not overlaps.any()
    assert np.allclose(values[1], [5e-7, 0.9999995], rtol=1e-9, atol=0)


def test_check_thetas_checks_the_whole_stack_like_rho():
    fam = bloch3()
    thetas = np.array([[0.5, 1.0, 0.0], [1.5, 0.0, 0.0], [0.2, 0.0, 0.0]])
    with pytest.raises(ParamOutOfDomain) as per_point:
        fam.rho(thetas[1])
    with pytest.raises(ParamOutOfDomain) as batch:
        fam.check_thetas(thetas)
    assert str(batch.value) == str(per_point.value)
    with pytest.raises(ValidationError):
        fam.check_thetas(thetas[:, :2])

    sliced = directional_family(fam, [0.5, 0.8, 0.3], [1.0, 0.0, 0.0])
    with pytest.raises(ParamOutOfDomain) as per_point:
        sliced.rho([0.6])
    with pytest.raises(ParamOutOfDomain) as batch:
        sliced.check_thetas(np.array([[0.1], [0.6], [0.2]]))
    assert str(batch.value) == str(per_point.value)
    with pytest.raises(DomainExit):  # unchecked, the line itself leaves the base domain
        sliced.spectral(np.array([[0.1], [0.6], [0.2]]))


@pytest.mark.parametrize("fam", [bloch3(), random_full_rank(d=3, nparams=3, seed=1)],
                         ids=["bounded", "unbounded"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_is_out_of_domain(fam, bad):
    theta = [0.5, 0.2, bad]
    message = f"theta {[0.5, 0.2, bad]} outside domain of {fam.name!r}"
    for call in (fam.check_theta, fam.rho, lambda th: fam.check_thetas([th])):
        with pytest.raises(ParamOutOfDomain) as err:
            call(theta)
        assert str(err.value) == message


def test_the_domain_is_the_parameter_count_and_may_not_be_empty():
    # One (lo, hi) per parameter: the count cannot disagree with the bounds,
    # and an unbounded parameter is written (-inf, inf).
    base = pure_rotation()
    bare = ParametricFamily(dim=2, evaluate=base.evaluate, domain=((-np.inf, np.inf),), name="bare")
    assert bare.nparams == 1
    thetas = np.array([[-40.0], [0.3], [40.0]])
    assert np.array_equal(_stack(bare, thetas), _loop(base, thetas))
    assert [f.name for f in fields(ParametricFamily)] == [
        "dim", "evaluate", "domain", "spectral", "name", "phases", "tangents"]
    with pytest.raises(ValidationError, match="family 'boxed' has an empty domain"):
        ParametricFamily(dim=2, evaluate=base.evaluate, domain=(), name="boxed")
    with pytest.raises(TypeError, match="nparams"):
        ParametricFamily(dim=2, nparams=1, evaluate=base.evaluate, domain=((-np.inf, np.inf),))


# The per-coordinate stencil that central_difference's single stacked call
# replaced, kept as a reference: four calls of a function of one coordinate.
def _scalar_stencil(f, t, h=DEFAULT_H):
    d_h = (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)
    hh = h / 2.0
    d_hh = (np.asarray(f(t + hh)) - np.asarray(f(t - hh))) / (2.0 * hh)
    return (4.0 * d_hh - d_h) / 3.0


def _per_coordinate(f, theta):
    def along(l):
        def at(t):
            th = theta.copy()
            th[l] = t
            return f(th)
        return at

    return [_scalar_stencil(along(l), theta[l]) for l in range(theta.size)]


def _reference_drho(fam, theta):
    return np.array(_per_coordinate(fam.evaluate, fam.check_theta(theta)), dtype=complex)


def _reference_spectral_tangents(fam, theta):
    theta = fam.check_theta(theta)
    w0 = fam.spectral(theta).eigenvectors

    def stacked(th):
        sp = fam.spectral(th)
        return np.vstack([sp.eigenvalues, sp.eigenvectors])

    d_stacks = _per_coordinate(stacked, theta)
    return (np.array([np.real(d[0]) for d in d_stacks]),
            np.array([d[1:].conj().T @ w0 for d in d_stacks]))


# Each family without its exact tangents, so its stencil is what is compared.
STENCIL_CASES = [(replace(f, tangents=None), theta) for f, theta in [
    (bloch3(), [0.5, 1.2, 0.5]),
    *((random_full_rank(d=d, nparams=p, seed=20 + d), [0.1, -0.2, 0.05][:p])
      for d in (2, 4, 8) for p in (1, 3)),
    (pushforward_family(depolarizing_channel(3, 0.6), random_full_rank(3, 2, seed=9)), [0.2, -0.1]),
    (pushforward_family(random_tpcp(3, 2, seed=1), random_full_rank(3, 1, seed=4)), [0.3]),
    (directional_family(bloch3(), [0.5, 0.8, 0.3], [1.0, 0.0, 0.0]), [0.1]),
    (directional_family(random_full_rank(d=4, nparams=3, seed=2), [0.1, 0.2, -0.1],
                        [0.3, 1.0, -0.5]), [0.2]),
]]


@pytest.mark.parametrize("fam,theta", STENCIL_CASES,
                         ids=[f"{f.name}-p{f.nparams}" for f, _ in STENCIL_CASES])
def test_stacked_stencil_equals_the_per_coordinate_loops_bit_for_bit(fam, theta):
    assert np.array_equal(fam.drho(theta), _reference_drho(fam, theta))
    if fam.spectral is not None:
        dp, overlaps = _reference_spectral_tangents(fam, theta)
        td = tangent_data(fam, theta)
        assert np.array_equal(td.dp, dp)
        assert np.array_equal(td.overlaps, overlaps)
