import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetrics.channels import (
    ChannelFamily,
    apply_channel,
    canonical_kraus,
    depolarizing_channel,
    induced_state_family,
    monotonicity_experiment,
    pushforward_family,
    random_tpcp,
    sm_channel_bound,
    unitary_channel,
)
from qmetrics.errors import DimensionMismatch, NotHermitian, ParamOutOfDomain, ValidationError
from qmetrics.families import random_full_rank, rot3_mixture, validate_density
from qmetrics.linalg import unitary
from qmetrics.metrics import c_l_information, sld_information


def plus_state():
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    return psi, np.outer(psi, psi.conj())


def rotation_z_family():
    sz = np.diag([1.0, -1.0]).astype(complex)
    return ChannelFamily(
        dim=2, evaluate=lambda t: unitary_channel(unitary(t * sz / 2)), name="rz"
    )


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 5_000), k=st.integers(1, 4))
def test_random_channels_trace_preserving(seed, k):
    ch = random_tpcp(3, kraus_count=k, seed=seed)
    assert ch.tp_defect() < 1e-12
    fam = random_full_rank(d=3, nparams=1, seed=seed + 1)
    out = apply_channel(ch, fam.rho([0.1]))
    validate_density(out)


def test_depolarizing_matches_affine_action():
    d, r = 3, 0.35
    ch = depolarizing_channel(d, r)
    assert ch.tp_defect() < 1e-12
    rho = random_full_rank(d=d, nparams=1, seed=3).rho([0.2])
    out = apply_channel(ch, rho)
    assert np.allclose(out, r * rho + (1 - r) * np.eye(d) / d, atol=1e-12)


def test_depolarizing_domain():
    with pytest.raises(ParamOutOfDomain):
        depolarizing_channel(2, 1.5)
    with pytest.raises(ParamOutOfDomain):
        depolarizing_channel(2, -0.5)  # below -1/(d^2-1)
    depolarizing_channel(2, -1.0 / 3.0)  # boundary is allowed


def test_apply_channel_dimension_check():
    ch = depolarizing_channel(2, 0.5)
    with pytest.raises(DimensionMismatch):
        apply_channel(ch, np.eye(3) / 3)
    with pytest.raises(DimensionMismatch):
        apply_channel(ch, np.tile(np.eye(3) / 3, (4, 1, 1)))
    with pytest.raises(DimensionMismatch):
        apply_channel(ch, np.full(2, 0.5))


def test_apply_channel_on_a_stack_equals_state_by_state_bit_for_bit():
    ch = random_tpcp(3, kraus_count=3, seed=2)
    states = random_full_rank(d=3, nparams=1, seed=3).rhos(np.linspace(-0.5, 0.5, 12)[:, None])
    out = apply_channel(ch, states)
    assert out.shape == (12, 3, 3)
    assert np.array_equal(out, np.array([apply_channel(ch, rho) for rho in states]))
    assert np.array_equal(apply_channel(ch, states.reshape(3, 4, 3, 3)), out.reshape(3, 4, 3, 3))


def test_pushforward_evaluates_composed_family():
    fam = random_full_rank(d=3, nparams=1, seed=5)
    ch = random_tpcp(3, kraus_count=2, seed=6)
    pushed = pushforward_family(ch, fam)
    assert pushed.spectral is None  # generic channels scramble the eigenbasis
    assert np.allclose(pushed.rho([0.1]), apply_channel(ch, fam.rho([0.1])), atol=1e-12)


def test_pushforward_carries_presentation_for_depolarizing():
    fam = rot3_mixture(0.1)
    pushed = pushforward_family(depolarizing_channel(3, 0.5), fam)
    assert pushed.spectral is not None
    sp = pushed.spectral(np.array([0.3]))
    assert np.allclose(sp.reconstruct(), pushed.rho([0.3]), atol=1e-12)


def test_lower_bound_increases_under_depolarizing_mixture():
    eps, r = 0.1, 0.5
    report = monotonicity_experiment(
        rot3_mixture(eps), "cl", depolarizing_channel(3, r), np.array([0.3])
    )
    delta = report.delta[0, 0]
    assert abs(report.before[0, 0] - 8 * eps) < 1e-8
    assert abs(report.after[0, 0] - (8 * r * eps + 8 * (1 - r) / 3)) < 1e-8
    assert delta > 0
    assert abs(delta - (1 - r) * (8 / 3 - 8 * eps)) < 1e-8


def test_identity_depolarizing_changes_nothing():
    report = monotonicity_experiment(
        rot3_mixture(0.1), "cl", depolarizing_channel(3, 1.0), np.array([0.3])
    )
    assert np.max(np.abs(report.delta)) < 1e-10


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5_000))
def test_sld_information_monotone_under_channels(seed):
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    ch = random_tpcp(3, kraus_count=1 + seed % 4, seed=seed + 7)
    before = sld_information(fam, [0.1])[0, 0]
    after = sld_information(pushforward_family(ch, fam), [0.1])[0, 0]
    assert after <= before + 1e-8


def test_canonical_kraus_diagonalizes_gram():
    chf = ChannelFamily(dim=2, evaluate=lambda t: random_tpcp(2, 3, seed=9), name="c")
    _, rho0 = plus_state()
    ops = canonical_kraus(chf, 0.0, rho0)
    n = len(ops)
    gram = np.array([[np.trace(a @ rho0 @ b.conj().T) for b in ops] for a in ops])
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-10
    # branches with zero weight on rho0 are dropped (a rank-1 reference state
    # supports at most dim of them), so only the action on rho0 is preserved
    assert n <= 2
    out = sum(e @ rho0 @ e.conj().T for e in ops)
    ref = apply_channel(chf.evaluate(0.0), rho0)
    assert np.allclose(out, ref, atol=1e-10)
    probs = np.real(np.diag(gram))
    assert abs(probs.sum() - 1.0) < 1e-10


def test_canonical_kraus_rejects_a_non_hermitian_reference_state():
    # Its Gram matrix is not Hermitian; it used to be symmetrized without a check.
    chf = ChannelFamily(dim=2, evaluate=lambda t: random_tpcp(2, 3, seed=9), name="c")
    rho0 = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian, match="deviates from Hermitian"):
        canonical_kraus(chf, 0.0, rho0)
    with pytest.raises(NotHermitian, match="deviates from Hermitian"):
        sm_channel_bound(chf, 0.0, rho0)


def test_unitary_rotation_bound_is_one():
    chf = rotation_z_family()
    _, rho0 = plus_state()
    for t in (0.0, 0.7, 1.9):
        assert abs(sm_channel_bound(chf, t, rho0) - 1.0) < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_bound_rejects_a_non_finite_theta(bad):
    # A NaN theta used to give a bound of NaN.
    _, rho0 = plus_state()
    with pytest.raises(ValidationError, match="must be finite"):
        sm_channel_bound(rotation_z_family(), bad, rho0)


def test_channel_bound_matches_induced_family_lower_bound():
    # Two-branch channel family: the derivative-based bound equals the
    # invariant lower bound of the induced output-state family in the
    # canonical gauge.
    rng = np.random.default_rng(21)

    def rand_herm(d):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (x + x.conj().T) / 2
        return h / np.linalg.norm(h, 2)

    g1, g2 = rand_herm(2), rand_herm(2)
    c, s = math.cos(0.6), math.sin(0.6)

    def evaluate(t):
        from qmetrics.channels import KrausChannel

        return KrausChannel(operators=(c * unitary(t * g1), s * unitary((0.4 + 0.7 * t) * g2)))

    chf = ChannelFamily(dim=2, evaluate=evaluate, name="two-branch")
    psi, rho0 = plus_state()
    t0 = 0.3
    bound = sm_channel_bound(chf, t0, rho0)
    induced = induced_state_family(chf, psi, base_theta=t0)
    cl = c_l_information(induced, [t0])[0, 0]
    assert abs(bound - cl) < 1e-5
    # and the bound dominates the SLD information of the output family
    h = sld_information(induced, [t0])[0, 0]
    assert h <= bound + 1e-6
