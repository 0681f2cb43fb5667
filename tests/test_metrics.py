import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmetrics.metrics
from qmetrics.errors import (
    DegeneracyUnresolved,
    DomainExit,
    MissingGauge,
    NotHermitian,
    ParamOutOfDomain,
    QMetricsError,
    RankDeficient,
    UnknownMetric,
    UnsupportedTangent,
    ValidationError,
    VanishingProbabilityWithFlow,
)
from qmetrics.channels import depolarizing_channel, pushforward_family, random_tpcp
from qmetrics.families import (
    FamilyPoint,
    ParametricFamily,
    SpectralPresentation,
    _random_hermitian,
    bloch3,
    diagonal_simplex,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
)
from qmetrics.gauge import apply_gauge, zero_gauge
from qmetrics.linalg import DEGEN_GAP, RANK_TOL, eig_hermitian, relative_entropy, unitary_slopes
from qmetrics.metrics import (
    C_FUNCTIONS,
    CF_CL,
    CF_KMB,
    CF_RLD,
    CF_SLD,
    METRIC_NAMES,
    basis_povm,
    born_probabilities,
    c_l_decomposition,
    c_l_information,
    c_upsilon_states,
    classical_fisher,
    evaluate_metric,
    evaluate_metrics,
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


# The closed forms of f = 1/c(t, 1) and the flags that each coefficient
# function used to declare next to its c.
FORMER_F = {
    "sld": (lambda t: (1.0 + t) / 2.0, False, False),
    "kmb": (lambda t: (t - 1.0) / np.log(t), True, False),
    "rld": (lambda t: 2.0 * t / (1.0 + t), True, False),
    "cl": (lambda t: (t - 1.0) ** 2 / (2.0 * (1.0 + t)), False, True),
}


@pytest.mark.parametrize("name", ["sld", "kmb", "rld", "cl"])
def test_f_and_the_flags_are_worked_out_from_c(name):
    cf, (f, full_rank, singular) = C_FUNCTIONS[name], FORMER_F[name]
    assert np.allclose(cf.f(LOG_GRID), f(LOG_GRID), rtol=1e-12, atol=0.0)
    assert cf.full_rank_required is full_rank
    assert cf.singular_at_equal_args is singular


def test_a_c_function_given_by_its_c_alone_gets_its_f_and_scan():
    # Wigner-Yanase: c = 4/(sqrt x + sqrt y)^2, f = ((1 + sqrt t)/2)^2.
    wy = qmetrics.metrics.CFunction("wy", lambda x, y: 4.0 / (np.sqrt(x) + np.sqrt(y)) ** 2)
    assert np.allclose(wy.f(LOG_GRID), ((1.0 + np.sqrt(LOG_GRID)) / 2.0) ** 2, rtol=1e-12, atol=0.0)
    rep = f_function_scan(wy, LOG_GRID)
    assert rep.nondecreasing and rep.self_dual
    assert not wy.full_rank_required and not wy.singular_at_equal_args


def _loewner_min(cf, x, delta=1e-5):
    """lambda_min / max |lambda| of the Loewner matrix [(f(x_i) - f(x_j)) / (x_i - x_j)]
    of cf.f at the points x, its diagonal f'(x_i) a central difference."""
    fx, i = cf.f(x), np.arange(x.size)
    gap = x[:, None] - x[None, :]
    gap[i, i] = 1.0
    m = (fx[:, None] - fx[None, :]) / gap
    m[i, i] = (cf.f(x * (1 + delta)) - cf.f(x * (1 - delta))) / (2 * delta * x)
    w = np.linalg.eigvalsh((m + m.T) / 2)
    return w[0] / np.abs(w).max()


def test_the_loewner_matrix_witnesses_that_only_the_lower_bound_is_not_monotone():
    # Petz-Sudar: the metric is monotone iff f is operator monotone, iff every
    # Loewner matrix of f is positive semidefinite; no channel is involved.
    # Measured over these sets: >= -4e-9 for sld, kmb and rld; -1.0 for cl.
    rng = np.random.default_rng(0)
    sets = [np.exp(rng.uniform(-6.0, 6.0, size=6)) for _ in range(200)]
    least = {name: min(_loewner_min(cf, x) for x in sets) for name, cf in C_FUNCTIONS.items()}
    assert all(least[name] >= -1e-6 for name in ("sld", "kmb", "rld")), least
    assert least["cl"] <= -0.5, least


def _diagonal_family(d, p, seed):
    """Commuting family diag(softmax(a + theta B)) over a fixed basis, with its
    exact eigenvalue slopes dq_li = q_i (B_li - sum_j B_lj q_j)."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=d), rng.normal(size=(p, d))

    def spectrum(th):
        z = np.exp(a + np.asarray(th, dtype=float) @ b)
        q = z / z.sum(axis=-1, keepdims=True)
        return q, q[..., None, :] * (b - (b * q[..., None, :]).sum(axis=-1, keepdims=True))

    def spectral(th):
        q, dq = spectrum(th)
        return SpectralPresentation(eigenvalues=q, eigenvectors=np.broadcast_to(np.eye(d), q.shape + (d,)),
                                    eigenvalue_slopes=dq, eigenvector_slopes=np.zeros(dq.shape + (d,)))

    return ParametricFamily(dim=d, domain=((-np.inf, np.inf),) * p, name=f"diagonal-{d}-{seed}",
                            evaluate=lambda th: spectrum(th)[0][..., None] * np.eye(d),
                            spectral=spectral, tangents=lambda th: spectrum(th)[1][..., None] * np.eye(d))


COMMUTING = [
    (diagonal_simplex(), [0.3]),
    *((_diagonal_family(d, 1 + seed % 3, seed), np.linspace(-0.4, 0.4, 1 + seed % 3))
      for d in (2, 3, 4, 6) for seed in range(5)),
]


@pytest.mark.parametrize("fam,theta", COMMUTING, ids=[f"{f.name}-p{f.nparams}" for f, _ in COMMUTING])
def test_every_information_is_the_basis_fisher_information_on_a_commuting_family(fam, theta):
    # Morozova-Chentsov: on commuting states every monotone metric, and the
    # gauge-dependent information and its lower bound, reduce to the classical
    # Fisher information of the eigenbasis measurement. Measured: 2.9e-16 relative.
    out = evaluate_metrics(fam, theta, METRIC_NAMES)
    scale = np.abs(out["fisher"]).max()
    for name in ("sld", "kmb", "rld", "cupsilon", "cl"):
        assert np.abs(out[name] - out["fisher"]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("grid", [[0.5, 1.0, math.inf], [0.5, math.nan, 1.0]])
def test_f_scan_rejects_a_non_finite_grid(grid):
    # [0.5, 1.0, inf] reported self_dual with defect 0.0 (its NaN defect was
    # dropped by max), and a NaN point passed the ascending check.
    with pytest.raises(ValidationError, match="finite"):
        f_function_scan(CF_SLD, grid)


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


@pytest.mark.parametrize("d,n_outcomes", [(2, 0), (0, 3), (-1, 2)])
def test_random_povm_rejects_an_empty_shape_before_drawing(monkeypatch, d, n_outcomes):
    # (2, 0) used to raise NotHermitian for the sum of no elements, a shape ().
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValidationError, match="needs d >= 1 and n_outcomes >= 1"):
        random_povm(d, n_outcomes)


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


def test_born_probabilities_of_a_stack_are_those_of_each_state_alone():
    # Bit for bit: an einsum over the stack gave 1 834 of these 1 850 rows
    # other bits than the state alone.
    povm = random_povm(4, 5, seed=0)
    for seed in range(50):
        rho = random_full_rank(d=4, seed=seed).evaluate(np.linspace(-0.9, 0.9, 37)[:, None])
        p = born_probabilities(rho, povm)
        assert p.shape == (37, 5)
        assert all(np.array_equal(p[i], born_probabilities(rho[i], povm)) for i in range(37))


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
        dim=2, evaluate=fam.evaluate, spectral=None,
        domain=fam.domain, name="blind",
    )
    with pytest.raises(MissingGauge):
        c_upsilon_states(blind, [0.5, 1.2, 0.5])
    with pytest.raises(MissingGauge):
        c_l_decomposition(blind, [0.5, 1.2, 0.5])
    # theta is checked before the presentation
    for needs_gauge in (c_upsilon_states, c_l_decomposition):
        with pytest.raises(ParamOutOfDomain):
            needs_gauge(blind, [2.0, 1.2, 0.5])
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
    together = evaluate_metrics(fam, theta, METRIC_NAMES)
    for name in METRIC_NAMES:
        assert np.array_equal(evaluate_metric(fam, theta, name), direct[name])
        assert np.array_equal(together[name], direct[name])
    with pytest.raises(UnknownMetric):
        evaluate_metric(fam, theta, "nope")
    with pytest.raises(UnknownMetric):
        evaluate_metrics(fam, [2.0, 0.0, 0.0], ["sld", "nope"])
    with pytest.raises(ParamOutOfDomain):
        evaluate_metrics(fam, [2.0, 0.0, 0.0], ["sld"])


def test_every_registry_name_maps_to_a_public_function():
    for fn in qmetrics.metrics._METRICS.values():
        assert not fn.__name__.startswith("_")
        assert getattr(qmetrics.metrics, fn.__name__) is fn


@pytest.mark.parametrize("theta", [[0.5, 1.2, 0.5], [2.0, 0.0, 0.0]])
def test_an_empty_metric_list_is_a_validation_error(theta):
    # An empty list gave {} (and would check nothing once each name checks theta).
    with pytest.raises(ValidationError, match="no metric names given"):
        evaluate_metrics(bloch3(), theta, [])


def _counted(family):
    """family with its evaluate, spectral and (when it has them) tangents
    calls recorded by argument shape."""
    calls = {"evaluate": [], "spectral": []}

    def counting(name, fn):
        calls[name] = []

        def call(th):
            calls[name].append(np.shape(th))
            return fn(th)
        return call

    exact = {} if family.tangents is None else {"tangents": counting("tangents", family.tangents)}
    return replace(family, evaluate=counting("evaluate", family.evaluate),
                   spectral=counting("spectral", family.spectral), **exact), calls


# bloch3 without its exact tangents: its derivatives come from the stencil.
STENCIL_BLOCH3 = replace(bloch3(), tangents=None)


@pytest.mark.parametrize("base,expected", [
    # One evaluate of the point and its 12 stencil points, one presentation of them.
    (STENCIL_BLOCH3, {"evaluate": [(13, 3)], "spectral": [(13, 3)]}),
    # One evaluate of the point, one exact-tangent call, one presentation.
    (bloch3(), {"evaluate": [(1, 3)], "spectral": [(1, 3)], "tangents": [(1, 3)]}),
], ids=["stencil", "exact"])
def test_one_stacked_family_evaluation_per_metric(monkeypatch, base, expected):
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(np.shape(m)) or eigh(m))
    fam, calls = _counted(base)
    theta = [0.5, 1.2, 0.5]
    # bloch3's states and presentations are closed forms: every eigh is rho's.
    for name in METRIC_NAMES:
        evaluate_metric(fam, theta, name)
    # The per-name calls share the family's last point, and one eigh.
    assert calls == expected
    assert eighs == [(2, 2)]

    fam, calls = _counted(base)
    eighs.clear()
    evaluate_metrics(fam, theta, METRIC_NAMES)
    assert calls == expected
    assert eighs == [(2, 2)]


def test_the_tangents_are_rotated_into_the_eigenbasis_once_per_point(monkeypatch):
    # A rotation reads drho: sld_solve's, for the scores, and the one kept as
    # drho_eigenbasis, which kmb, rld and the perturbative cl share.
    reads = []
    drho = FamilyPoint.drho
    monkeypatch.setattr(FamilyPoint, "drho", property(
        lambda point: reads.append(point.theta.tolist()) or drho.fget(point)))
    fam = replace(random_full_rank(d=3, nparams=2, seed=1), spectral=None)
    for name in ("sld", "kmb", "rld", "cl"):
        evaluate_metric(fam, [0.1, -0.2], name)
    assert reads == [[0.1, -0.2]] * 2
    point = fam.point([0.1, -0.2])
    v = point.eig.vectors
    assert np.array_equal(point.drho_eigenbasis, v.conj().T @ point.drho @ v)


def test_another_theta_recomputes_and_minus_zero_is_another_theta():
    fam, calls = _counted(bloch3())
    plus, minus = [0.5, 1.2, 0.0], [0.5, 1.2, -0.0]
    for theta, evaluations in ((plus, 1), (plus, 1), (minus, 2), (minus, 2), (plus, 3)):
        sld_information(fam, theta)
        assert len(calls["evaluate"]) == evaluations
    assert fam.point(minus).eig is fam.point(np.array(minus)).eig
    assert fam.point(plus).eig is not fam.point(minus).eig


@pytest.mark.parametrize("base,shape", [(STENCIL_BLOCH3, (13, 3)), (bloch3(), (1, 3))],
                         ids=["stencil", "exact"])
def test_a_replaced_or_gauged_family_has_its_own_point(base, shape):
    fam, calls = _counted(base)
    theta = [0.5, 1.2, 0.5]
    c_l_information(fam, theta)
    for other in (replace(fam), apply_gauge(fam, zero_gauge(2))):
        assert other.point(theta).tangent_data is not fam.point(theta).tangent_data
    assert calls["spectral"] == [shape] * 3


def test_a_point_whose_stencil_leaves_the_domain_raises_on_every_call():
    fam, calls = _counted(STENCIL_BLOCH3)
    theta = [0.9999999, 0.7, 0.2]
    for _ in range(2):
        for name in METRIC_NAMES:
            with pytest.raises(DomainExit, match="leaves the domain"):
                evaluate_metric(fam, theta, name)
    assert calls == {"evaluate": [], "spectral": []}


def test_exact_tangents_give_the_near_bound_point_its_closed_forms():
    # The same point with bloch3's exact tangents: nothing is evaluated off it.
    fam, calls = _counted(bloch3())
    r, t, _ = theta = [0.9999999, 0.7, 0.2]
    out = evaluate_metrics(fam, theta, METRIC_NAMES)
    for name, diag in (("sld", [1.0 / (1.0 - r * r), r * r, (r * np.sin(t)) ** 2]),
                       ("cupsilon", [1.0 / (1.0 - r * r), 1.0, 1.0])):
        # Within 1e-6 of sqrt(M_ii M_jj), the scale of entry (i, j) of a metric.
        scale = np.sqrt(np.outer(diag, diag))
        assert np.all(np.abs(out[name] - np.diag(diag)) <= 1e-6 * scale)
    assert calls == {"evaluate": [(1, 3)], "spectral": [(1, 3)], "tangents": [(1, 3)]}


def test_a_dropped_family_is_freed_without_the_cycle_collector():
    fam = random_full_rank(d=3, nparams=2, seed=1)
    for name in METRIC_NAMES:
        evaluate_metric(fam, [0.1, -0.2], name)
    family_ref = weakref.ref(fam)
    gc.disable()
    try:
        del fam
        assert family_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fam", [random_full_rank(d=3, nparams=2, seed=1),
                                 replace(random_full_rank(d=3, nparams=2, seed=1), spectral=None)],
                         ids=["presented", "perturbative"])
def test_the_arrays_a_point_shares_are_read_only(fam):
    theta = [0.1, -0.2]
    point = fam.point(theta)
    td = point.tangent_data
    shared = (point.theta, point.rho, point.drho, point.eig.values, point.eig.vectors, point.scores,
              td.dp, td.overlaps, td.eigenvalues, fam.drho(theta))
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert fam.drho(theta) is point.drho and fam.point(theta).eig is point.eig


def test_default_fisher_skips_povm_validation(monkeypatch):
    fam, theta = random_full_rank(d=3, nparams=2, seed=4), [0.1, -0.2]
    validated = []
    validate = qmetrics.metrics.validate_povm
    monkeypatch.setattr(qmetrics.metrics, "validate_povm",
                        lambda *args: validated.append(1) or validate(*args))
    default = classical_fisher(fam, theta)
    assert validated == []
    assert np.array_equal(default, classical_fisher(fam, theta, basis_povm(3)))
    assert validated == [1]


def test_default_fisher_reads_the_diagonals_with_the_bits_of_the_basis_projectors():
    # The default measurement reads diag(rho) and diag(drho); the projector
    # stack's other products are exact zeros, so the bits are those of the
    # explicit basis POVM.
    rng = np.random.default_rng(15)
    for d, p in ((1, 1), (2, 1), (2, 3), (3, 2), (4, 1), (4, 3), (8, 1)):
        for k in range(4):
            fam = random_full_rank(d=d, nparams=p, seed=int(rng.integers(2**31)))
            theta = rng.uniform(-0.3, 0.3, size=p)
            default = classical_fisher(fam, theta)
            assert default.tobytes() == classical_fisher(fam, theta, basis_povm(d)).tobytes()


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_povm_equals_the_validated_projectors_bit_for_bit(d):
    eye = np.eye(d, dtype=complex)
    reference = validate_povm([np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)])
    stack = np.array(basis_povm(d))
    assert stack.dtype == reference.dtype and stack.shape == reference.shape
    assert stack.tobytes() == reference.tobytes()


# -- the array engine against the pairwise loop it replaced -------------------


def _scalar_c_kmb(x, y):
    if abs(x - y) <= 1e-9 * max(x, y):
        return 1.0 / x
    return (math.log(x) - math.log(y)) / (x - y)


def _reference_fisher_sum(p, dp, flow_error):
    out = np.zeros((dp.shape[0], dp.shape[0]))
    for i, pi in enumerate(p):
        if pi > RANK_TOL:
            out += np.outer(dp[:, i], dp[:, i]) / pi
        elif np.max(np.abs(dp[:, i])) > 1e-9:
            raise flow_error(i)
    return out


def _within(ours, reference, rel):
    """Whether ours matches reference entrywise within rel of its largest entry."""
    return np.max(np.abs(ours - reference)) <= rel * np.max(np.abs(reference))


# A matrix product adds the terms in another order than the loop does, which
# moves a sum within its rounding bound: a few eps of the largest entry.
SUM_ORDER_REL = 4e-15


def test_fisher_sum_matches_its_loop_and_names_the_first_flowing_outcome():
    def flow(i):
        return VanishingProbabilityWithFlow(f"outcome {i}")

    rng = np.random.default_rng(8)
    for m in range(1, 17):
        p = rng.dirichlet(np.ones(m))
        dp = rng.normal(size=(3, m))
        ours = qmetrics.metrics._fisher_sum(p, dp, flow)
        assert _within(ours, _reference_fisher_sum(p, dp, flow), SUM_ORDER_REL)
        assert np.array_equal(ours, ours.T)  # as the loop's sum is
        p[rng.random(m) < 0.2] = 0.0
        vanishing = np.flatnonzero(p == 0.0)
        dp[:, vanishing[: len(vanishing) // 2]] = 0.0  # some vanishing outcomes do not flow
        try:
            reference = _reference_fisher_sum(p, dp, flow)
        except VanishingProbabilityWithFlow as err:
            with pytest.raises(VanishingProbabilityWithFlow, match=f"^{err}$"):
                qmetrics.metrics._fisher_sum(p, dp, flow)
            continue
        assert _within(qmetrics.metrics._fisher_sum(p, dp, flow), reference, SUM_ORDER_REL)


def _reference_mc_metric(family, theta, cf):
    es = eig_hermitian(family.rho(theta))
    p = np.clip(es.values, 0.0, None)
    if cf.full_rank_required and float(es.values.min()) < RANK_TOL:
        raise RankDeficient(f"{cf.name} information requires a full-rank state")
    v = es.vectors
    a = np.einsum("ij,ljk,km->lim", v.conj().T, family.drho(theta), v)
    diag = np.real(np.einsum("lii->li", a))
    m_out = _reference_fisher_sum(p, diag, lambda i: RankDeficient(
        "tangent flows out of the support of the state"))
    d = family.dim
    for j in range(d):
        for k in range(j + 1, d):
            coupling = a[:, j, k]
            cmax = float(np.max(np.abs(coupling)))
            if p[j] + p[k] <= RANK_TOL:
                if cmax > 1e-8:
                    raise UnsupportedTangent("tangent has weight outside the support of the state")
                continue
            if cf.singular_at_equal_args and abs(p[j] - p[k]) < DEGEN_GAP:
                if cmax > 1e-8:
                    raise DegeneracyUnresolved(
                        f"{cf.name} coefficient diverges on the degenerate pair ({j},{k})"
                    )
                continue
            m_out += 2.0 * cf.c(p[j], p[k]) * np.real(np.outer(coupling, coupling.conj()))
    return (m_out + m_out.T) / 2.0


def _affine(rho0, x):
    """One-parameter family rho0 + t x (not a state family away from t = 0)."""
    rho0, x = np.asarray(rho0, dtype=complex), np.asarray(x, dtype=complex)
    return ParametricFamily(dim=len(rho0), domain=((-np.inf, np.inf),), name="affine",
                            evaluate=lambda th: rho0 + np.asarray(th)[..., 0, None, None] * x)


def _sigma_y(d, *blocks):
    """Hermitian d x d tangent with sigma_y on each (j, k) block."""
    x = np.zeros((d, d), dtype=complex)
    for j, k in blocks:
        x[j, k], x[k, j] = -1j, 1j
    return x


ENGINE_CASES = [
    *((random_full_rank(d=d, nparams=1 + seed % 3, seed=100 * d + seed),
       np.random.default_rng(seed).uniform(-0.3, 0.3, 1 + seed % 3))
      for d in (2, 3, 4, 8) for seed in range(4)),
    # Two coupled zero eigenvalues: weight outside the support.
    (_affine(np.diag([1.0, 0.0, 0.0]), _sigma_y(3, (1, 2))), [0.0]),
    # Probability flowing into a zero eigenvalue.
    (_affine(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, -1.0, 1.0])), [0.0]),
    # Two degenerate pairs, both coupled, and only the second one coupled.
    (_affine(np.diag([0.3, 0.3, 0.2, 0.2]), _sigma_y(4, (0, 1), (2, 3))), [0.0]),
    (_affine(np.diag([0.3, 0.3, 0.2, 0.2]), _sigma_y(4, (2, 3))), [0.0]),
]


@pytest.mark.parametrize("cf", [CF_KMB, CF_RLD, CF_SLD, CF_CL], ids=lambda cf: cf.name)
def test_array_engine_matches_the_pairwise_loop(cf):
    raised = []
    for fam, theta in ENGINE_CASES:
        try:
            reference = _reference_mc_metric(fam, theta, cf)
        except QMetricsError as err:
            with pytest.raises(type(err)) as ours:
                mc_metric(fam, theta, cf)
            assert str(ours.value) == str(err)
            raised.append(type(err).__name__)
            continue
        ours = mc_metric(fam, theta, cf)
        # np.log in place of math.log may differ in the last bit, which the
        # log difference quotient amplifies.
        assert _within(ours, reference, 1e-12 if cf is CF_KMB else SUM_ORDER_REL)
    # The hand-made cases fail for every coefficient: off the support, flow
    # out of it, and (for the singular cl coefficient) a degenerate pair.
    assert len(raised) >= 2
    if cf is CF_CL:
        assert raised.count("DegeneracyUnresolved") == 2


def test_degenerate_pair_error_names_the_first_coupled_pair():
    both, second = ENGINE_CASES[-2][0], ENGINE_CASES[-1][0]
    with pytest.raises(DegeneracyUnresolved, match=r"pair \(0,1\)"):
        mc_metric(both, [0.0], CF_CL)
    with pytest.raises(DegeneracyUnresolved, match=r"pair \(2,3\)"):
        mc_metric(second, [0.0], CF_CL)


@pytest.mark.parametrize("name", ["sld", "kmb", "rld", "cl"])
def test_c_functions_work_elementwise(name):
    cf = C_FUNCTIONS[name]
    rng = np.random.default_rng(2)
    x, y = rng.uniform(0.01, 1.0, (2, 200))
    # KMB's coincident-argument branch |x - y| <= 1e-9 max(x, y), on and off its edge.
    x = np.concatenate([x, [0.3, 0.3, 0.3, 0.7, 0.7]])
    y = np.concatenate([y, [0.3, 0.3 * (1 + 5e-10), 0.3 * (1 + 2e-9), 0.7 * (1 - 1e-10), 0.7 * (1 - 1e-8)]])
    if name == "cl":  # diverges on equal arguments
        keep = np.abs(x - y) > 1e-3
        x, y = x[keep], y[keep]
    values = cf.c(x, y)
    assert np.array_equal(values, [cf.c(a, b) for a, b in zip(x, y)])
    if name == "kmb":
        for a, b, value in zip(x, y, values):
            # The log difference quotient amplifies a last-digit log difference by 1/|x - y|.
            tol = 1e-15 * abs(value) + 4e-16 * max(abs(math.log(a)), 1.0) / max(abs(a - b), 1e-300)
            assert abs(value - _scalar_c_kmb(a, b)) <= tol
        # Inside the band the value is exactly 1/x; the difference quotient
        # there rounds to something else for some of these pairs.
        x = np.repeat([0.05, 0.3, 0.7, 0.93], 6)
        y = x * (1 + np.tile([2e-10, 3e-10, 4.5e-10, 6e-10, 8e-10, 9.5e-10], 4))
        assert np.array_equal(cf.c(x, y), 1.0 / x)


def _close_pair(g, seed):
    """A user family with frame exp(-i (H0 + t G)) and the constant spectrum
    (0.45 + g/2, 0.45 - g/2, 0.1), with its exact tangents and the presentation
    that carries its slopes."""
    rng = np.random.default_rng(seed)
    h0, gen = (_random_hermitian(rng, 3) for _ in range(2))
    p = np.array([0.45 + g / 2, 0.45 - g / 2, 0.1])

    def spectral(th):
        th = np.asarray(th, dtype=float)
        v, dv = unitary_slopes(h0 + th[..., :, None] * gen, gen[None])
        return SpectralPresentation(eigenvalues=np.broadcast_to(p, v.shape[:-1]), eigenvectors=v,
                                    eigenvalue_slopes=np.zeros(dv.shape[:-1]), eigenvector_slopes=dv)

    def evaluate(th):
        v = spectral(th).eigenvectors
        return (v * p) @ v.conj().swapaxes(-1, -2)

    def tangents(th):
        sp = spectral(th)
        x = (sp.eigenvector_slopes * p) @ sp.eigenvectors[..., None, :, :].conj().swapaxes(-1, -2)
        return x + x.conj().swapaxes(-1, -2)

    return ParametricFamily(dim=3, evaluate=evaluate, spectral=spectral, domain=((-np.inf, np.inf),),
                            tangents=tangents, name=f"close-pair-{g}")


@pytest.mark.parametrize("g", [1e-2, 1e-4, 1e-5])
def test_exact_tangents_keep_the_perturbative_cl_of_a_close_pair(g):
    # Without a presentation the overlaps are <w_j|drho|w_k> / g; the
    # stencil's noise in drho (about 1e-10) is divided by g, exact tangents
    # carry none. The presented C_L reads the frame's slopes directly.
    for seed in range(5):
        fam = _close_pair(g, seed)
        presented = c_l_information(fam, [0.2])[0, 0]
        perturbative = c_l_information(replace(fam, spectral=None), [0.2])[0, 0]
        assert abs(perturbative - presented) <= 1e-9 * presented
        if g == 1e-5:  # the stencil's error there is about 1e-5 relative
            stencil = c_l_information(replace(fam, spectral=None, tangents=None), [0.2])[0, 0]
            assert abs(stencil - presented) > 1e-8 * presented


# -- shared parts at a point against the unshared formulas --------------------


def _unshared_mc_metric(point, cf):
    """mc_metric as one call that shares nothing with another."""
    es = point.eig
    p = np.clip(es.values, 0.0, None)
    if cf.full_rank_required and float(es.values.min()) < RANK_TOL:
        raise RankDeficient(f"{cf.name} information requires a full-rank state")
    a = point.drho_eigenbasis
    m_out = qmetrics.metrics._fisher_sum(p, np.real(np.einsum("lii->li", a)), lambda i: RankDeficient(
        "tangent flows out of the support of the state"))
    off_support = p[:, None] + p <= RANK_TOL
    skipped = off_support
    if cf.singular_at_equal_args:
        skipped = skipped | (np.abs(p[:, None] - p) < DEGEN_GAP)
    upper = np.arange(p.size)[:, None] < np.arange(p.size)
    failing = upper & skipped & (np.abs(a).max(axis=0) > 1e-8)
    if failing.any():
        j, k = np.argwhere(failing)[0]
        if off_support[j, k]:
            raise UnsupportedTangent("tangent has weight outside the support of the state")
        raise DegeneracyUnresolved(f"{cf.name} coefficient diverges on the degenerate pair ({j},{k})")
    j, k = np.nonzero(upper & ~skipped)
    w = a[:, j, k]
    m_out = m_out + np.real((2.0 * cf.c(p[j], p[k]) * w) @ w.conj().T)
    return (m_out + m_out.T) / 2.0


def _unshared_overlap_sums(td, with_diagonal):
    """C_L, plus the diagonal-overlap term for C_Upsilon, as one left-to-right sum."""
    p = np.clip(td.eigenvalues, 0.0, None)
    o = td.overlaps
    classical = qmetrics.metrics._fisher_sum(p, td.dp, lambda i: RankDeficient(
        "eigenvalue flow out of the support of the state"))
    off = 4.0 * np.real(np.einsum("ajk,bjk,jk->ab", o, o.conj(), np.triu(p[:, None] + p, 1)))
    if not with_diagonal:
        return classical + (off + off.T) / 2.0
    o_diag = np.einsum("ljj->lj", o)
    diag = 4.0 * np.real(np.einsum("aj,bj,j->ab", o_diag, o_diag.conj(), p))
    return classical + (off + off.T) / 2.0 + (diag + diag.T) / 2.0


def _unshared(family, theta, name):
    """The metric called name at a point of its own (a fresh copy of family)."""
    if name == "fisher":
        return classical_fisher(replace(family), theta, basis_povm(family.dim))
    point = replace(family).point(theta)
    if name == "sld":
        scores = point.scores
        m_out = np.real(np.trace((point.rho @ scores)[:, None] @ scores, axis1=-2, axis2=-1))
        return np.triu(m_out) + np.triu(m_out, 1).T
    if name in ("kmb", "rld", "engine-sld", "engine-cl"):
        return _unshared_mc_metric(point, C_FUNCTIONS[name.removeprefix("engine-")])
    if name == "cupsilon" and family.spectral is None:
        raise MissingGauge("family supplies no spectral presentation (no gauge to use)")
    return _unshared_overlap_sums(point.tangent_data, name == "cupsilon")


def _shared_metric(family, theta, name):
    if name.startswith("engine-"):
        return mc_metric(family, theta, C_FUNCTIONS[name.removeprefix("engine-")])
    return evaluate_metric(family, theta, name)


def _bench_points():
    """Seeded points of every kind the benchmark's points workload draws."""
    rng = np.random.default_rng(25)
    yield bloch3(), [rng.uniform(0.1, 0.9), rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2 * np.pi)]
    yield rot3_mixture(float(rng.uniform(0.02, 0.3))), [rng.uniform(-np.pi, np.pi)]
    for d in (2, 3, 4, 8):
        for p in (1, 3):
            yield random_full_rank(d=d, nparams=p, seed=int(rng.integers(2**31))), rng.uniform(-0.3, 0.3, p)
    for p in (1, 3):
        base = random_full_rank(d=3, nparams=p, seed=int(rng.integers(2**31)))
        channel = random_tpcp(3, kraus_count=int(rng.integers(1, 5)), seed=int(rng.integers(2**31)))
        yield pushforward_family(channel, base), rng.uniform(-0.3, 0.3, p)


SHARING_CASES = [
    *_bench_points(),
    (rot3_mixture(0.1), [0.3]),
    (pure_rotation(), [0.3]),
    (diagonal_simplex(), [0.2]),
    (pushforward_family(depolarizing_channel(3, 0.5), rot3_mixture(0.1)), [0.3]),
    *ENGINE_CASES[-4:],
]
# The bench's names, then the engine under both skip rules (2/(x+y) skips
# nothing on the support; the lower bound's coefficient skips degenerate pairs).
SHARED_NAMES = ("fisher", "sld", "kmb", "rld", "cupsilon", "cl", "engine-sld", "engine-cl")


@pytest.mark.parametrize("names", [SHARED_NAMES, SHARED_NAMES[::-1]], ids=["bench-order", "reversed"])
def test_the_shared_parts_give_every_metric_the_bits_of_its_unshared_formula(names):
    raised = set()
    for family, theta in SHARING_CASES:
        family = replace(family)  # a point of its own for this order
        for _ in range(2):  # the second round reads what the first kept
            for name in names:
                try:
                    reference = _unshared(family, theta, name)
                except QMetricsError as err:
                    with pytest.raises(type(err)) as ours:
                        _shared_metric(family, theta, name)
                    assert str(ours.value) == str(err)
                    raised.add((family.name, name, type(err).__name__))
                    continue
                ours = _shared_metric(family, theta, name)
                assert ours.dtype == reference.dtype and ours.shape == reference.shape
                assert ours.tobytes() == reference.tobytes(), (family.name, name)
    # Every error path of the engine is taken: rank, flow, support and degeneracy.
    # (rot3-mixture's degenerate pair has no coupling: the skip rule passes it.)
    assert ("pure-rotation", "kmb", "RankDeficient") in raised
    assert ("affine", "engine-sld", "RankDeficient") in raised
    assert {"UnsupportedTangent", "DegeneracyUnresolved"} <= {
        e for f, n, e in raised if (f, n) == ("affine", "engine-cl")}


def test_kmb_and_rld_share_the_diagonal_and_cl_and_cupsilon_share_one_c_l_sum(monkeypatch):
    calls = []
    for name in ("_fisher_sum", "_offdiag_part", "_diag_part"):
        fn = getattr(qmetrics.metrics, name)
        monkeypatch.setattr(qmetrics.metrics, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    fam, theta = random_full_rank(d=4, nparams=2, seed=3), [0.1, -0.2]
    kmb_information(fam, theta)
    rld_information(fam, theta)
    assert calls == ["_fisher_sum"]
    calls.clear()
    c_l_information(fam, theta)
    c_upsilon_states(fam, theta)
    c_l_information(fam, theta)
    # One C_L sum (its classical part is a _fisher_sum), one diagonal-overlap term.
    assert calls == ["_fisher_sum", "_offdiag_part", "_diag_part"]


def test_a_returned_matrix_is_the_callers_and_errors_repeat():
    fam, theta = random_full_rank(d=3, nparams=2, seed=5), [0.1, -0.2]
    for name in METRIC_NAMES:
        first = evaluate_metric(fam, theta, name)
        kept = first.copy()
        first[...] = np.nan
        assert np.array_equal(evaluate_metric(fam, theta, name), kept)
    assert np.array_equal(c_upsilon_states(fam, theta), evaluate_metric(fam, theta, "cupsilon"))
    for d in (1, 3):
        povm = basis_povm(d)
        povm[0][...] = 7.0
        assert basis_povm(d)[0][0, 0] == 1.0
    for before in ((), ("sld",), ("cl",), ("sld", "cl")):
        fam = pure_rotation()
        if before:
            evaluate_metrics(fam, [0.3], before)
        for _ in range(2):
            with pytest.raises(RankDeficient, match="requires a full-rank state"):
                evaluate_metric(fam, [0.3], "kmb")


def test_evaluate_metrics_reads_its_names_once_and_rejects_a_bare_string():
    fam, theta = bloch3(), [0.5, 1.0, 0.0]
    out = evaluate_metrics(fam, theta, (n for n in ["sld", "cl"]))
    assert list(out) == ["sld", "cl"]
    assert np.array_equal(out["sld"], sld_information(fam, theta))
    with pytest.raises(UnknownMetric, match="'nope'"):
        evaluate_metrics(fam, theta, (n for n in ["sld", "nope"]))
    with pytest.raises(ValidationError, match="not the string 'sld'"):
        evaluate_metrics(fam, theta, "sld")


def test_the_last_point_is_not_checked_again_but_another_shape_is(monkeypatch):
    fam = bloch3()
    theta = [0.5, 1.2, 0.5]
    point = fam.point(theta)
    checked = []
    check = ParametricFamily.check_theta
    monkeypatch.setattr(ParametricFamily, "check_theta",
                        lambda self, th: checked.append(1) or check(self, th))
    assert fam.point(np.array(theta)).eig is point.eig
    assert checked == []
    with pytest.raises(ValidationError, match="takes 3 parameters"):
        fam.point([theta])
    with pytest.raises(ParamOutOfDomain):
        fam.point([2.0, 1.2, 0.5])
    # A theta that fails its check replaces nothing.
    assert fam.point(theta).eig is point.eig and len(checked) == 2


def test_a_callers_theta_changed_after_point_does_not_move_the_kept_parts():
    fam, theta = random_full_rank(d=3, nparams=1, seed=1), np.array([0.1])
    point = fam.point(theta)
    theta[0] = 0.2  # the parts are computed after this
    point.rho
    assert np.array_equal(sld_information(fam, [0.1]),
                          sld_information(random_full_rank(d=3, nparams=1, seed=1), [0.1]))
