import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetrics.channels import depolarizing_channel, pushforward_family, random_tpcp
from qmetrics.errors import (
    DomainExit,
    MissingGauge,
    NonImaginaryOverlap,
    ParamOutOfDomain,
    ValidationError,
)
from qmetrics.families import (
    ParametricFamily,
    SpectralPresentation,
    bloch3,
    diagonal_simplex,
    directional_family,
    pure_rotation,
    random_full_rank,
    random_pure,
    rot3_mixture,
    tangent_data,
)
from qmetrics.gauge import (
    PhaseAssignment,
    apply_gauge,
    integrability_test,
    minimizing_gauge_1p,
    zero_gauge,
)
from qmetrics.linalg import DEFAULT_H
from qmetrics.metrics import c_l_information, c_upsilon_states, sld_information


def sin_gauge(a, b, c):
    return PhaseAssignment.from_callable(lambda th: a * np.sin(b * th[0] + c))


def test_apply_gauge_preserves_the_state():
    fam = random_full_rank(d=3, nparams=1, seed=1)
    gauged = apply_gauge(fam, sin_gauge(np.array([0.4, -0.8, 0.2]),
                                        np.array([1.0, 2.0, 0.5]),
                                        np.array([0.1, 0.2, 0.3])))
    for t in (-0.2, 0.0, 0.3):
        assert np.allclose(gauged.rho([t]), fam.rho([t]), atol=1e-12)
        sp = _rephased_frame(gauged).spectral(np.array([t]))
        assert np.allclose(sp.reconstruct(), fam.rho([t]), atol=1e-12)


def test_apply_gauge_keeps_the_presentation_and_sets_the_phases():
    fam = random_full_rank(d=3, nparams=1, seed=1)
    pa = sin_gauge(np.array([0.4, -0.8, 0.2]), np.ones(3), np.zeros(3))
    gauged = apply_gauge(fam, pa)
    assert fam.phases is None
    assert gauged.spectral is fam.spectral
    assert np.array_equal(gauged.phases(np.array([[0.3]]))[0], pa.alphas([0.3]))


def test_apply_gauge_requires_presentation():
    fam = bloch3()
    blind = ParametricFamily(dim=2, evaluate=fam.evaluate,
                             spectral=None, domain=fam.domain, name="blind")
    with pytest.raises(MissingGauge):
        apply_gauge(blind, zero_gauge(2))


def test_zero_gauge_is_identity():
    fam = random_full_rank(d=2, nparams=1, seed=2)
    gauged = apply_gauge(fam, zero_gauge(2))
    a = c_upsilon_states(fam, [0.1])
    b = c_upsilon_states(gauged, [0.1])
    assert np.max(np.abs(a - b)) < 1e-12


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2_000))
def test_lower_bound_is_gauge_invariant_but_gauged_information_is_not(seed):
    rng = np.random.default_rng(seed)
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    gauged = apply_gauge(fam, sin_gauge(rng.uniform(-1, 1, 3),
                                        rng.uniform(0.5, 2, 3),
                                        rng.uniform(0, 2 * math.pi, 3)))
    t = [0.1]
    assert np.max(np.abs(c_l_information(gauged, t) - c_l_information(fam, t))) < 1e-8
    assert c_upsilon_states(gauged, t)[0, 0] >= c_l_information(fam, t)[0, 0] - 1e-9


def test_minimizing_gauge_closes_the_gap():
    fam = random_full_rank(d=3, nparams=1, seed=4)
    perturbed = apply_gauge(fam, sin_gauge(np.array([0.9, -0.5, 0.3]),
                                           np.array([1.7, 0.6, 1.1]),
                                           np.array([0.0, 1.0, 2.0])))
    pa = minimizing_gauge_1p(perturbed, -0.5, 0.5, steps=512)
    minimized = apply_gauge(perturbed, pa)
    for t in (-0.25, 0.0, 0.37):  # nodes and off-node points
        cu = c_upsilon_states(minimized, [t])[0, 0]
        cl = c_l_information(fam, [t])[0, 0]
        assert abs(cu - cl) < 1e-6


def test_minimizing_gauge_requires_one_parameter():
    with pytest.raises(ValidationError):
        minimizing_gauge_1p(bloch3(), 0.0, 1.0)


@pytest.mark.parametrize("steps", [-1, 0, 2.5, True])
def test_minimizing_gauge_requires_a_positive_integer_step_count(steps):
    # -1 used to fail in numpy with a zero-size reduction, 0 to return a
    # one-point grid, and True (a numbers.Integral) to run a one-step scan.
    with pytest.raises(ValidationError, match="steps must be an integer >= 1"):
        minimizing_gauge_1p(random_full_rank(d=3, nparams=1, seed=5), -0.5, 0.5, steps=steps)


@pytest.mark.parametrize("theta0,theta1", [(0.5, -0.5), (0.5, 0.5), (math.nan, 0.5),
                                           (-0.5, math.inf), (-math.inf, 0.5)])
def test_minimizing_gauge_rejects_a_bad_interval_before_presenting_anything(theta0, theta1):
    # A decreasing interval used to scan the whole grid before it raised.
    base = random_full_rank(d=3, nparams=1, seed=5)
    calls = []
    counted = replace(base, spectral=lambda th: calls.append(np.shape(th)) or base.spectral(th))
    with pytest.raises(ValidationError, match="scan interval must be finite and strictly increasing"):
        minimizing_gauge_1p(counted, theta0, theta1, steps=4000)
    assert calls == []


def test_phase_assignment_sample_interpolation():
    grid = np.linspace(0.0, 1.0, 5)
    samples = np.vstack([grid**2, -grid])
    pa = PhaseAssignment.from_samples(grid, samples)
    a = pa.alphas([0.5])
    assert np.allclose(a, [0.25, -0.5], atol=0.05)  # piecewise linear
    with pytest.raises(ValidationError):
        PhaseAssignment.from_samples(grid, samples[:, :3])
    with pytest.raises(ValidationError, match="strictly increasing"):
        PhaseAssignment.from_samples(grid[::-1], samples)
    # A scan from theta0 > theta1 used to return phases np.interp could not read.
    with pytest.raises(ValidationError, match="strictly increasing"):
        minimizing_gauge_1p(random_full_rank(d=3, nparams=1, seed=5), 0.5, -0.5, steps=64)


def test_integrability_obstruction_on_two_level_family():
    theta = np.array([0.5, 1.2, 0.5])
    rep = integrability_test(bloch3(), theta)
    assert not rep.passed
    # the (theta, phi) pair for each eigenvector carries the obstruction
    values = {(j, l, k): v for (j, l, k, v) in rep.entries}
    expected = math.sin(1.2) / 4.0
    assert abs(abs(values[(0, 1, 2)]) - expected) < 1e-6
    assert abs(abs(values[(1, 1, 2)]) - expected) < 1e-6


@pytest.mark.parametrize("fam,theta", [
    (bloch3(), [0.5, 1.2, 0.5]),
    (random_full_rank(d=4, nparams=3, seed=2), [0.1, -0.2, 0.05]),
    (random_full_rank(d=6, nparams=2, seed=0), [0.1, 0.1]),
    (random_pure(3, 3, seed=3), [0.1, 0.1, 0.1]),
], ids=["bloch3", "full-rank-d4", "full-rank-d6", "pure-d3"])
def test_integrability_entries_equal_the_per_entry_loop(fam, theta):
    # The reference: one overlap sum per (j, l, k), in that order.
    o = tangent_data(fam, theta).overlaps
    expected = tuple(
        (j, l, k, float(np.imag(complex(np.sum(o[l, j, :] * np.conj(o[k, j, :]))))))
        for j in range(fam.dim) for l in range(fam.nparams) for k in range(l + 1, fam.nparams)
    )
    assert integrability_test(fam, theta).entries == expected


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_integrability_test_rejects_a_bad_tolerance(tol):
    # A NaN or negative tolerance used to give the verdict FAIL.
    with pytest.raises(ValidationError, match="tolerance must be finite and non-negative"):
        integrability_test(bloch3(), np.array([0.5, 1.2, 0.5]), tol=tol)


def test_real_frame_family_passes_integrability():
    # Two-parameter family with a real rotating frame: all obstruction
    # entries vanish, so a globally minimizing gauge exists.
    def rotation(t, i, j):
        r = np.broadcast_to(np.eye(3), np.shape(t) + (3, 3)).copy()
        r[..., i, i] = r[..., j, j] = np.cos(t)
        r[..., i, j], r[..., j, i] = -np.sin(t), np.sin(t)
        return r

    def frame(th):
        th = np.asarray(th, dtype=float)
        return (rotation(th[..., 0], 0, 1) @ rotation(th[..., 1], 1, 2)).astype(complex)

    p = np.array([0.5, 0.3, 0.2])

    def evaluate(th):
        v = frame(th)
        return (v * p) @ v.conj().swapaxes(-1, -2)

    fam = ParametricFamily(
        dim=3, evaluate=evaluate,
        spectral=lambda th: SpectralPresentation(eigenvalues=np.broadcast_to(p, np.shape(th)[:-1] + (3,)),
                                                 eigenvectors=frame(th)),
        domain=((-math.inf, math.inf),) * 2, name="real-frame",
    )
    rep = integrability_test(fam, np.array([0.4, 0.7]))
    assert rep.passed
    assert all(abs(v) < 1e-6 for (_, _, _, v) in rep.entries)


def test_minimized_family_dominates_sld_information():
    fam = random_full_rank(d=3, nparams=1, seed=8)
    pa = minimizing_gauge_1p(fam, -0.5, 0.5, steps=512)
    minimized = apply_gauge(fam, pa)
    t = [0.0]
    cu = c_upsilon_states(minimized, t)[0, 0]
    h = sld_information(fam, t)[0, 0]
    assert cu >= h - 1e-8


def test_pure_rotation_already_minimal():
    fam = pure_rotation()
    t = [0.3]
    assert abs(c_upsilon_states(fam, t)[0, 0] - c_l_information(fam, t)[0, 0]) < 1e-10


# The per-point scan that the stacked blocks replaced, kept as a reference: at
# each grid point the frame's slope (the one-point presentation's exact slope,
# or else the one-parameter stencil over four one-point presentations), then
# the overlap with the frame at the point. A re-phased family is scanned in
# its presentation frame, and its phases are not read. Returns the grid and
# the sampled integral, (d, n).
def _reference_scan(family, theta0, theta1, steps, h=DEFAULT_H):
    grid = np.linspace(theta0, theta1, steps + 1)

    def frame(t):
        return family.spectral(np.array([t])).eigenvectors

    def slope(t):
        if family.tangents is not None:
            return family.spectral(np.array([t])).eigenvector_slopes[0]
        d_h = (frame(t + h) - frame(t - h)) / (2.0 * h)
        hh = h / 2.0
        d_hh = (frame(t + hh) - frame(t - hh)) / (2.0 * hh)
        return (4.0 * d_hh - d_h) / 3.0

    diag = np.empty((grid.size, family.dim), dtype=complex)
    for i, t in enumerate(grid):
        diag[i] = np.diagonal(slope(t).conj().T @ frame(t))
    integrand = np.imag(diag)
    areas = np.diff(grid)[:, None] * (integrand[1:] + integrand[:-1]) / 2.0
    integral = np.vstack([np.zeros((1, family.dim)), np.cumsum(areas, axis=0)])
    return grid, integral.T


def _perturbed(d, seed):
    rng = np.random.default_rng(seed)
    return apply_gauge(random_full_rank(d=d, nparams=1, seed=seed),
                       sin_gauge(rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d),
                                 rng.uniform(0, 2 * math.pi, d)))


def _sampled(d, seed):
    grid = np.linspace(-0.6, 0.6, 41)
    rng = np.random.default_rng(seed)
    samples = np.sin(np.outer(rng.uniform(0.5, 2, d), grid) + rng.uniform(0, 2 * math.pi, (d, 1)))
    return apply_gauge(random_full_rank(d=d, nparams=1, seed=seed),
                       PhaseAssignment.from_samples(grid, samples))


SCANS = [
    *((_perturbed(d, 50 + d), 512) for d in (2, 3, 4)),
    *((_perturbed(3, 60), steps) for steps in (1, 63, 64, 65)),
    # Blocks of 64 points at d = 32: the grid ends at, and just past, a block edge.
    *((_perturbed(32, 70), steps) for steps in (63, 64)),
    (_sampled(3, 61), 200),
    (rot3_mixture(0.1), 65),
    (pure_rotation(), 64),
    (directional_family(bloch3(), [0.5, 0.8, 0.3], [0.0, 1.0, 0.7]), 130),
]


@pytest.mark.parametrize("exact", [False, True], ids=["stencil", "exact"])
@pytest.mark.parametrize("fam,steps", SCANS,
                         ids=[f"{f.name}-{steps}" for f, steps in SCANS])
def test_blocked_scan_equals_the_per_point_scan_bit_for_bit(fam, steps, exact):
    if not exact:
        fam = replace(fam, tangents=None)
    # The scan runs first: run second, its uninitialised buffer could reuse
    # the reference's memory and hide a grid point no block filled.
    pa = minimizing_gauge_1p(fam, -0.5, 0.5, steps=steps)
    grid, integral = _reference_scan(fam, -0.5, 0.5, steps)
    assert np.array_equal(pa.grid, grid)
    # The samples are the scan's own integral, and the whole gauge at the nodes.
    assert np.array_equal(pa.samples, integral)
    assert np.array_equal(pa.phases(grid[:, None]).T, integral)


@pytest.mark.parametrize("d,exact,blocks", [
    # One presentation of each block with its stencil: at d = 3 the 513 grid
    # points are one block, at d = 32 nine blocks of at most 64 points.
    (3, False, [(2565, 1)]),
    (32, False, [(320, 1)] * 8 + [(5, 1)]),
    # One presentation of each block, with its slopes and no stencil points.
    (3, True, [(513, 1)]),
    (32, True, [(64, 1)] * 8 + [(1, 1)]),
], ids=["stencil-d3", "stencil-d32", "exact-d3", "exact-d32"])
def test_scan_makes_no_one_point_presentation_on_a_batched_family(d, exact, blocks):
    base = random_full_rank(d=d, nparams=1, seed=5)
    if not exact:
        base = replace(base, tangents=None)
    calls, phase_calls = [], []

    def spectral(th):
        calls.append(np.shape(th))
        return base.spectral(th)

    def phases(th):
        phase_calls.append(np.shape(th))
        return np.linspace(0.3, -0.2, d) * np.sin(th[0])

    counted = replace(base, spectral=spectral)
    minimizing_gauge_1p(apply_gauge(counted, PhaseAssignment.from_callable(phases)),
                        -0.5, 0.5, steps=512)
    assert calls == blocks
    # The family's phases are not read.
    assert phase_calls == []


@pytest.mark.parametrize("make", [_perturbed, _sampled], ids=["perturbed", "sampled"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_minimizing_a_rephased_family_cancels_its_own_phases_exactly(make, d):
    # A gauge sets the phases, so the re-phased family F and its frame B have
    # one minimizing gauge: the same samples, and the same phases at the
    # nodes and off them, where a gauge reading F's phases would differ.
    fam = make(d, 50 + d)
    lo, hi, steps = -0.5, 0.5, 128
    pa = minimizing_gauge_1p(fam, lo, hi, steps=steps)
    pa_base = minimizing_gauge_1p(replace(fam, phases=None, name="base"), lo, hi, steps=steps)
    assert np.array_equal(pa.samples, pa_base.samples)
    off_node = (pa.grid[:-1] + 0.3 * (pa.grid[1] - pa.grid[0]))[:, None]
    for t in (pa.grid[:, None], off_node):
        assert np.array_equal(pa.phases(t), pa_base.phases(t))
    assert np.array_equal(pa.phases(pa.grid[:, None]).T, pa.samples)


@pytest.mark.parametrize("bad,message", [(np.zeros(2), r"expected \(3,\)"),
                                         (np.array([0.1, np.nan, 0.2]), "non-finite phases")],
                         ids=["misshaped", "non-finite"])
def test_phases_bad_past_theta0_are_not_read_by_the_minimizing_gauge(bad, message):
    # The gauge replaces the family's phases, bad ones included: they raise
    # only where the family itself is used with them.
    good = np.array([0.1, -0.2, 0.3])
    fam = random_full_rank(d=3, nparams=1, seed=5)
    gauged = apply_gauge(fam, PhaseAssignment.from_callable(lambda th: good * th[0] if th[0] < 0.2 else bad))
    pa = minimizing_gauge_1p(gauged, -0.5, 0.5, steps=64)
    with pytest.raises(ValidationError, match=message):
        c_upsilon_states(gauged, [0.3])
    minimized = c_upsilon_states(apply_gauge(gauged, pa), [0.3])
    assert np.array_equal(minimized, c_upsilon_states(apply_gauge(fam, pa), [0.3]))


def test_the_minimized_family_reads_none_of_the_family_phases():
    # The scan and the minimized family used to call them on (1, 1), (5, 1)
    # and (5, 1) stacks, and cancel the last two in floating point.
    calls = []

    def phases(th):
        calls.append(th.shape)
        return np.array([0.3, -0.2, 0.1]) * np.sin(th[:, :1])

    fam = apply_gauge(random_full_rank(d=3, nparams=1, seed=5), PhaseAssignment(phases))
    minimized = apply_gauge(fam, minimizing_gauge_1p(fam, -0.5, 0.5, steps=512))
    c_upsilon_states(minimized, [0.0])
    assert calls == []


def _rephased_frame(family):
    # The re-phased presentation as one complex frame, with column k of the
    # frame multiplied by exp(i a_k), and no phases left apart.
    def spectral(th):
        sp = family.spectral(th)
        th = np.asarray(th, dtype=float)
        a = family.phases(th.reshape(-1, th.shape[-1])).reshape(th.shape[:-1] + (1, -1))
        return SpectralPresentation(eigenvalues=sp.eigenvalues,
                                    eigenvectors=sp.eigenvectors * np.exp(1j * a))

    return replace(family, spectral=spectral, phases=None)


def test_gauged_tangents_agree_with_the_differenced_rephased_frame():
    # Differencing exp(i a) w as one complex frame is the route the exact phase
    # identity replaced; away from kinks the two agree to the stencil's error.
    for fam, t in [(_perturbed(3, 60), 0.1), (_perturbed(4, 54), -0.3), (_sampled(3, 61), 0.01),
                   (apply_gauge(_perturbed(2, 52), sin_gauge(np.array([0.5, -1.0]),
                                                              np.array([1.5, 0.7]),
                                                              np.array([0.3, 0.9]))), 0.2)]:
        # Both without the exact base tangents: the frame is differenced in both.
        fam = replace(fam, tangents=None)
        exact, differenced = tangent_data(fam, [t]), tangent_data(_rephased_frame(fam), [t])
        assert np.array_equal(exact.dp, differenced.dp)
        assert np.max(np.abs(exact.overlaps - differenced.overlaps)) < 1e-9


def test_rephasing_a_rephased_family_sets_the_phases_on_one_base():
    fam = random_full_rank(d=3, nparams=1, seed=7)
    a = sin_gauge(np.array([0.4, -0.8, 0.2]), np.ones(3), np.zeros(3))
    b = sin_gauge(np.array([-0.1, 0.5, 0.9]), np.full(3, 2.0), np.ones(3))
    twice = apply_gauge(apply_gauge(fam, a), b)
    assert twice.spectral is fam.spectral
    thetas = np.array([[-0.2], [0.3]])
    assert np.array_equal(twice.phases(thetas), apply_gauge(fam, b).phases(thetas))
    assert not apply_gauge(apply_gauge(fam, a), zero_gauge(3)).phases(thetas).any()


def test_a_pushforward_that_drops_the_presentation_drops_the_phases():
    rephased = _perturbed(3, 60)
    pushed = pushforward_family(random_tpcp(3, 2, seed=1), rephased)
    assert pushed.spectral is None and pushed.phases is None
    with pytest.raises(MissingGauge):
        apply_gauge(pushed, zero_gauge(3))


def _kinked(fam):
    # Piecewise-linear phases with large slope changes at their nodes.
    grid = np.linspace(-0.6, 0.6, 41)
    samples = np.random.default_rng(61).uniform(-1.0, 1.0, (3, grid.size))
    return apply_gauge(fam, PhaseAssignment.from_samples(grid, samples))


def test_scan_through_a_kinked_sampled_gauge_returns_a_minimizing_gauge():
    # The scan used to difference exp(i a) across a node and raise
    # NonImaginaryOverlap on this orthonormal frame.
    fam = random_full_rank(d=3, nparams=1, seed=61)
    kinked = _kinked(fam)
    pa = minimizing_gauge_1p(kinked, -0.5, 0.5, steps=200)
    t = [pa.grid[100]]
    gap = c_upsilon_states(apply_gauge(kinked, pa), t)[0, 0] - c_l_information(fam, t)[0, 0]
    assert abs(gap) <= 1e-9


@pytest.mark.parametrize("wrap", [
    lambda fam: directional_family(fam, [0.0], [1.0]),
    lambda fam: pushforward_family(depolarizing_channel(3, 0.5), fam),
], ids=["slice", "pushforward"])
def test_slices_and_pushforwards_of_a_rephased_family_stay_rephased(wrap):
    # Folding the phases into the frame made the scan difference exp(i a) w
    # across the kinks again and raise NonImaginaryOverlap.
    wrapped = wrap(_kinked(random_full_rank(d=3, nparams=1, seed=61)))
    assert wrapped.phases is not None
    pa = minimizing_gauge_1p(wrapped, -0.5, 0.5, steps=200)
    t = [pa.grid[100]]
    gap = c_upsilon_states(apply_gauge(wrapped, pa), t)[0, 0] - c_l_information(wrapped, t)[0, 0]
    assert abs(gap) <= 1e-6


def test_scan_leaving_the_domain_raises_the_per_point_error():
    fam = diagonal_simplex()
    with pytest.raises(ParamOutOfDomain) as per_point:
        fam.check_theta([1.0])
    with pytest.raises(ParamOutOfDomain) as scan:
        minimizing_gauge_1p(fam, -0.5, 1.5, steps=8)
    assert str(scan.value) == str(per_point.value) == "theta [1.0] outside domain of 'diagonal-simplex'"


def test_scan_rejects_a_frame_that_is_not_orthonormal():
    # The frame (1 + t) I has Re<w_k'|w_k> = 1 + t.
    def spectral(th):
        t = np.asarray(th, dtype=float)[..., 0]
        return SpectralPresentation(eigenvalues=np.broadcast_to([0.6, 0.4], t.shape + (2,)),
                                    eigenvectors=(1.0 + t[..., None, None]) * np.eye(2, dtype=complex))

    fam = ParametricFamily(dim=2, domain=((-np.inf, np.inf),), spectral=spectral, name="stretched",
                           evaluate=lambda th: np.broadcast_to(np.diag([0.6, 0.4]), np.shape(th)[:-1] + (2, 2)))
    with pytest.raises(NonImaginaryOverlap):
        minimizing_gauge_1p(fam, -0.5, 0.5, steps=100)


BAD_PHASES = {
    "too-short": PhaseAssignment.from_callable(lambda th: np.zeros(2)),
    "column": PhaseAssignment.from_callable(lambda th: np.zeros((3, 1))),
    "one-entry": PhaseAssignment.from_callable(lambda th: np.zeros(1)),
    "two-level-samples": PhaseAssignment.from_samples(np.linspace(-1, 1, 5), np.zeros((2, 5))),
}


@pytest.mark.parametrize("name", BAD_PHASES)
@pytest.mark.parametrize("base", [random_full_rank(d=3, nparams=1, seed=3), rot3_mixture(0.1)],
                         ids=["random-full-rank", "rot3-mixture"])
def test_misshaped_phases_raise_a_validation_error(name, base):
    gauged = apply_gauge(base, BAD_PHASES[name])
    with pytest.raises(ValidationError, match=r"expected \(3,\)"):
        gauged.phases(np.array([[0.1]]))
    with pytest.raises(ValidationError, match=r"expected \(3,\)"):
        gauged.phases(np.array([[0.1], [0.2]]))
    with pytest.raises(ValidationError, match=r"expected \(3,\)"):
        c_upsilon_states(gauged, [0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_phases_raise_a_validation_error(bad):
    # A NaN phase used to give cupsilon [[nan]]: NaN fails no `>` check.
    gauged = apply_gauge(random_full_rank(d=3, nparams=1, seed=3),
                         PhaseAssignment.from_callable(lambda th: np.array([0.1, bad, th[0]])))
    with pytest.raises(ValidationError, match="non-finite phases"):
        c_upsilon_states(gauged, [0.1])
    grid = np.linspace(-1.0, 1.0, 5)
    samples = np.zeros((3, 5))
    samples[1, 2] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        PhaseAssignment.from_samples(grid, samples)
    grid[-1] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        PhaseAssignment.from_samples(grid, np.zeros((3, 5)))


@pytest.mark.parametrize("wrap", [np.exp, lambda z: z], ids=["unit-modulus", "imaginary"])
def test_complex_phases_raise_a_validation_error_naming_their_theta(wrap):
    # e^{i alpha} used to be read as cos(alpha) (C_Upsilon 3.2038 here), and
    # i alpha as zeros (3.1942, the frame's own value), with a ComplexWarning.
    gauged = apply_gauge(random_full_rank(d=2, seed=3),
                         PhaseAssignment.from_callable(lambda th: wrap(1j * np.array([0.4, -0.7]) * th[0])))
    with pytest.raises(ValidationError, match=r"complex phases .* at theta \[0.1\]"):
        c_upsilon_states(gauged, [0.1])


@pytest.mark.parametrize("wrap", [np.exp, lambda z: z], ids=["unit-modulus", "imaginary"])
def test_complex_phase_samples_raise_a_validation_error_naming_their_theta(wrap):
    grid = np.linspace(-1.0, 1.0, 5)
    samples = np.zeros((3, 5), dtype=complex)
    samples[1, 3:] = wrap(0.5j)
    with pytest.raises(ValidationError, match=r"complex phases .* at theta \[0.5\]"):
        PhaseAssignment.from_samples(grid, samples)


@pytest.mark.parametrize("t", [0.5, 0.6])
def test_sampled_gauge_outside_its_grid_raises_domain_exit(t):
    # Clamped samples used to give the phases a slope of zero past the grid:
    # at 0.5 the stencil leaves the grid, at 0.6 the point itself does.
    fam = random_full_rank(d=3, nparams=1, seed=5)
    pa = minimizing_gauge_1p(fam, -0.5, 0.5, steps=512)
    with pytest.raises(DomainExit, match=r"outside the sampled phase grid \[-0.5, 0.5\]"):
        c_upsilon_states(apply_gauge(fam, pa), [t])
    assert np.array_equal(pa.alphas([0.5]), pa.samples[:, -1])
    with pytest.raises(DomainExit):
        pa.alphas([0.5 + DEFAULT_H / 2])
    with pytest.raises(DomainExit):
        pa.alphas([np.nan])


def test_a_stack_phase_function_is_called_once_per_stack():
    calls = []

    def phases(th):
        calls.append(th.copy())
        return np.array([0.3, -0.2, 0.1]) * np.sin(th[:, :1])

    gauged = apply_gauge(random_full_rank(d=3, nparams=1, seed=5), PhaseAssignment(phases))
    gauged.phases(np.array([[0.1], [0.2]]))
    assert len(calls) == 1 and np.array_equal(calls[0], [[0.1], [0.2]])
    calls.clear()
    c_upsilon_states(gauged, [0.1])
    # One gauged point: the point and its 4 stencil points in one call.
    assert [c.shape for c in calls] == [(5, 1)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stack_and_per_point_phases_give_the_same_minimizing_gauge(d):
    rng = np.random.default_rng(70 + d)
    a, b, c = rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d), rng.uniform(0, 2 * math.pi, d)
    fam = random_full_rank(d=d, nparams=1, seed=70 + d)
    stacked = PhaseAssignment(lambda th: a * np.sin(b * th[:, :1] + c))
    per_point = PhaseAssignment.from_callable(lambda th: a * np.sin(b * th[0] + c))
    grid = np.linspace(-0.5, 0.5, 129)
    off_node = (grid[:-1] + 0.3 * (grid[1] - grid[0]))[:, None]
    gauged = [apply_gauge(fam, pa) for pa in (stacked, per_point)]
    assert gauged[0].phases(off_node).tobytes() == gauged[1].phases(off_node).tobytes()
    # Off the grid nodes too, both are the frame's own minimizing gauge.
    phases = [minimizing_gauge_1p(g, -0.5, 0.5, steps=128).phases(off_node) for g in gauged]
    assert phases[0].tobytes() == phases[1].tobytes()


def test_a_ragged_phase_callable_raises_a_validation_error():
    ragged = PhaseAssignment.from_callable(lambda th: np.zeros(2 if th[0] < 0.2 else 3))
    with pytest.raises(ValidationError, match=r"rows of shapes \[\(2,\), \(3,\)\]"):
        ragged.phases(np.array([[0.1], [0.3]]))
    gauged = apply_gauge(random_full_rank(d=3, nparams=1, seed=3), ragged)
    # A one-point stack where the phases have 2 entries.
    with pytest.raises(ValidationError, match=r"gives shape \(2,\) at theta \[-0.5\], expected \(3,\)"):
        gauged.phases(np.array([[-0.5]]))
    # A stack function that forgets the stack axis.
    flat = apply_gauge(random_full_rank(d=3, nparams=1, seed=3), PhaseAssignment(lambda th: np.zeros(3)))
    with pytest.raises(ValidationError, match=r"gives shape \(3,\) for a stack of 5 points"):
        c_upsilon_states(flat, [0.1])


def test_zero_gauge_gives_zeros_for_a_whole_stack():
    a = zero_gauge(3).phases(np.zeros((7, 2)))
    assert a.shape == (7, 3) and not a.any()
    assert np.array_equal(zero_gauge(3).alphas([0.1, 0.2]), np.zeros(3))


def test_phases_are_differenced_inside_the_domain_only():
    # bloch3 has exact tangents, so only its phases take a stencil; at r = 0.999999
    # that stencil reaches r = 1.000009 and used to be evaluated there.
    gauged = apply_gauge(bloch3(), PhaseAssignment.from_callable(lambda th: np.array([th[0], -th[0]])))
    with pytest.raises(DomainExit, match=r"'bloch3\+gauge' at theta \[0.999999, 1.0, 0.3\] with step "
                                         r"h=1e-05 leaves the domain at \[1.000009, 1.0, 0.3\]"):
        c_upsilon_states(gauged, [0.999999, 1.0, 0.3])


def test_phases_undefined_past_the_bound_raise_domain_exit_not_a_nan_message():
    # sqrt(1 - t) is NaN past t = 1: the stencil at 1 - 2e-6 used to report
    # non-finite phases at a theta the caller never passed.
    gauged = apply_gauge(diagonal_simplex(), PhaseAssignment(lambda th: np.hstack([np.sqrt(1 - th), 0 * th])))
    with pytest.raises(DomainExit, match=r"'diagonal-simplex\+gauge' at theta \[0.999998\] with step "
                                         r"h=1e-05 leaves the domain at \[1.000008\]"):
        c_upsilon_states(gauged, [1 - 2e-6])
