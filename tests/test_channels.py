import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetrics.channels import (
    ChannelFamily,
    KrausChannel,
    apply_channel,
    canonical_kraus,
    depolarizing_channel,
    induced_state_family,
    mixed_rotation_family,
    pushforward_family,
    random_tpcp,
    rotation_z_family,
    sm_channel_bound,
    unitary_channel,
)
from qmetrics.cli import CHANNEL_FAMILIES
from qmetrics.errors import (
    DegeneracyUnresolved,
    DimensionMismatch,
    NotHermitian,
    NumericalError,
    ParamOutOfDomain,
    ValidationError,
)
from qmetrics.families import _random_hermitian, random_full_rank, rot3_mixture, validate_density
from qmetrics.linalg import (
    HERM_TOL,
    RANK_TOL,
    central_difference,
    eig_hermitian,
    unitary,
)
from qmetrics.metrics import c_l_information, c_upsilon_states, evaluate_metrics, sld_information


def plus_state():
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    return psi, np.outer(psi, psi.conj())


def tp_defect(ops):
    """Largest entry of sum_k E_k^dagger E_k - I over a (K, d, d) Kraus set."""
    return np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - np.eye(ops.shape[-1])).max()


def constant_family(ch, name="c"):
    """The channel ch at every theta."""
    ops = ch.operators
    return ChannelFamily(dim=ch.dim, name=name,
                         evaluate=lambda ts: np.broadcast_to(ops, (len(ts),) + ops.shape))


def kraus_at(chf, theta):
    """The family's channel at one theta, from the one-point stack."""
    return KrausChannel(chf.evaluate(np.array([float(theta)]))[0])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 5_000), k=st.integers(1, 4))
def test_random_channels_trace_preserving(seed, k):
    ch = random_tpcp(3, kraus_count=k, seed=seed)
    assert tp_defect(ch.operators) < 1e-12
    fam = random_full_rank(d=3, nparams=1, seed=seed + 1)
    out = apply_channel(ch, fam.rho([0.1]))
    validate_density(out)


def test_depolarizing_matches_affine_action():
    d, r = 3, 0.35
    ch = depolarizing_channel(d, r)
    assert tp_defect(ch.operators) < 1e-12
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
    states = random_full_rank(d=3, nparams=1, seed=3).evaluate(np.linspace(-0.5, 0.5, 12)[:, None])
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
    eps, r, fam = 0.1, 0.5, rot3_mixture(0.1)
    before = c_l_information(fam, [0.3])[0, 0]
    after = c_l_information(pushforward_family(depolarizing_channel(3, r), fam), [0.3])[0, 0]
    assert abs(before - 8 * eps) < 1e-8
    assert abs(after - (8 * r * eps + 8 * (1 - r) / 3)) < 1e-8
    assert after - before > 0
    assert abs(after - before - (1 - r) * (8 / 3 - 8 * eps)) < 1e-8


def test_identity_depolarizing_changes_nothing():
    fam = rot3_mixture(0.1)
    pushed = pushforward_family(depolarizing_channel(3, 1.0), fam)
    assert np.max(np.abs(c_l_information(pushed, [0.3]) - c_l_information(fam, [0.3]))) < 1e-10


def test_a_channel_given_by_its_operators_alone_keeps_the_depolarized_lower_bound():
    # The eigenvalue map is read off the operators: the per-operator set, and
    # the same channel in another Kraus representation, carry the presentation
    # as depolarizing_channel does (before, a bare operator set gave 4.5e-35).
    eps, r, fam = 0.1, 0.5, rot3_mixture(0.1)
    ops = np.array(_depolarizing_reference(3, r))
    mixing = random_tpcp(9, 1, seed=4).operators[0]  # a 9 x 9 unitary
    expected = c_l_information(pushforward_family(depolarizing_channel(3, r), fam), [0.3])[0, 0]
    assert abs(expected - (8 * r * eps + 8 * (1 - r) / 3)) < 1e-8
    for operators in (ops, np.einsum("jk,kab->jab", mixing, ops)):
        pushed = pushforward_family(KrausChannel(operators), fam)
        assert pushed.spectral is not None
        assert abs(c_l_information(pushed, [0.3])[0, 0] - expected) <= 1e-12 * expected


def test_eigenvalue_map_is_read_off_the_operators():
    for d in (2, 3, 4):
        for r in np.linspace(-1.0 / (d * d - 1), 1.0, 25):
            a, b = depolarizing_channel(d, r).eigenvalue_map()
            assert abs(a - r) <= 1e-15 and abs(b - (1.0 - r) / d) <= 1e-15
    for k in (1, 2, 3, 4):
        assert random_tpcp(3, k, seed=k).eigenvalue_map() is None
    u = unitary(np.diag([0.3, -0.2, 0.5]))
    assert unitary_channel(u).eigenvalue_map() is None
    a, b = unitary_channel(np.exp(0.7j) * np.eye(3)).eigenvalue_map()
    assert abs(a - 1.0) <= 1e-15 and b == 0.0


def test_metrics_are_invariant_under_a_unitary_channel():
    # The paper's "invariant": the pushed family has no presentation, so its
    # informations come from the perturbative route, the family's from its frame.
    names = ["sld", "kmb", "rld", "cl"]
    rng = np.random.default_rng(23)
    for seed in range(60):
        d, p = 2 + seed % 3, 1 + (seed // 3) % 3
        fam = random_full_rank(d, p, seed=seed)
        pushed = pushforward_family(unitary_channel(unitary(np.pi * _random_hermitian(rng, d))), fam)
        assert pushed.spectral is None
        theta = rng.uniform(-0.5, 0.5, size=p)
        before, after = evaluate_metrics(fam, theta, names), evaluate_metrics(pushed, theta, names)
        for name in names:
            scale = np.abs(before[name]).max()
            assert np.abs(after[name] - before[name]).max() <= 1e-9 * scale, (seed, name)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5_000))
def test_sld_information_monotone_under_channels(seed):
    fam = random_full_rank(d=3, nparams=1, seed=seed)
    ch = random_tpcp(3, kraus_count=1 + seed % 4, seed=seed + 7)
    before = sld_information(fam, [0.1])[0, 0]
    after = sld_information(pushforward_family(ch, fam), [0.1])[0, 0]
    assert after <= before + 1e-8


def test_canonical_kraus_diagonalizes_gram():
    ch = random_tpcp(2, 3, seed=9)
    chf = constant_family(ch)
    _, rho0 = plus_state()
    ops = canonical_kraus(chf, 0.0, rho0)
    n = len(ops)
    gram = np.array([[np.trace(a @ rho0 @ b.conj().T) for b in ops] for a in ops])
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-10
    # branches with zero weight on rho0 are dropped (a rank-1 reference state
    # supports at most dim of them), so only the action on rho0 is preserved
    assert n <= 2
    out = sum(e @ rho0 @ e.conj().T for e in ops)
    ref = apply_channel(ch, rho0)
    assert np.allclose(out, ref, atol=1e-10)
    probs = np.real(np.diag(gram))
    assert abs(probs.sum() - 1.0) < 1e-10


def test_canonical_kraus_rejects_a_non_hermitian_reference_state():
    # Its Gram matrix is not Hermitian; it used to be symmetrized without a check.
    chf = constant_family(random_tpcp(2, 3, seed=9))
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

    def evaluate(ts):
        t = ts[:, None, None]
        return np.stack([c * unitary(t * g1), s * unitary((0.4 + 0.7 * t) * g2)], axis=1)

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


# The per-operator forms that channels.py replaced with (K, d, d) stacks, kept
# as the reference the stacked code reproduces bit for bit.


def _apply_reference(ch, rho):
    out = np.zeros_like(rho)
    for e in ch.operators:
        out += e @ rho @ e.conj().T
    return out


def _depolarizing_reference(d, r):
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(np.exp(2j * math.pi * np.arange(d) / d))
    ops = [math.sqrt(max(r + (1.0 - r) / (d * d), 0.0)) * np.eye(d, dtype=complex)]
    xa = np.eye(d, dtype=complex)
    for a in range(d):
        zb = np.eye(d, dtype=complex)
        for b in range(d):
            if (a, b) != (0, 0):
                ops.append(math.sqrt(max((1.0 - r) / (d * d), 0.0)) * (xa @ zb))
            zb = zb @ z
        xa = xa @ x
    return ops


def _canonical_reference(ch, rho0):
    ops = ch.operators
    n = len(ops)
    gram = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            gram[j, k] = np.trace(ops[j] @ rho0 @ ops[k].conj().T)
    es = eig_hermitian(gram)
    return [sum(np.conj(es.vectors[j, k]) * ops[j] for j in range(n))
            for k in range(n) if es.values[k] > RANK_TOL]


def _align_branch(candidate, reference, rho0):
    z = complex(np.trace(candidate @ rho0 @ reference.conj().T))
    if abs(z) < 1e-14:
        return candidate
    return candidate * (np.conj(z) / abs(z))


def _sm_bound_reference(chf, theta, rho0):
    def aligned(thetas):
        branches = [_canonical_reference(kraus_at(chf, t), rho0) for (t,) in thetas]
        return np.array([[_align_branch(u, ref, rho0) for u, ref in zip(ops, branches[0])]
                         for ops in branches])

    der = central_difference(aligned, theta)[1][0]
    return 4.0 * float(np.real(sum(np.trace(u @ rho0 @ u.conj().T) for u in der)))


def random_mixed_state(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def drifting_family(ch, h):
    """theta -> the channel with Kraus operators E_k exp(-i theta h)."""
    ops = ch.operators
    return ChannelFamily(
        dim=ch.dim, evaluate=lambda ts: ops @ unitary(ts[:, None, None] * h)[:, None]
    )


def test_canonical_kraus_and_bound_equal_the_per_branch_reference_bit_for_bit():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        chf = drifting_family(random_tpcp(d, k, seed=seed), _random_hermitian(rng, d))
        rho0 = random_mixed_state(rng, d)
        theta = float(rng.uniform(-1.0, 1.0))
        ops, ref = canonical_kraus(chf, theta, rho0), _canonical_reference(kraus_at(chf, theta), rho0)
        assert len(ops) == len(ref) == k
        assert all(np.array_equal(a, b) for a, b in zip(ops, ref))
        assert sm_channel_bound(chf, theta, rho0) == _sm_bound_reference(chf, theta, rho0)


def test_depolarizing_operators_equal_the_per_operator_reference_bit_for_bit():
    for d in (2, 3, 4, 5):
        for r in (1.0, 0.35, 0.0, -1.0 / (d * d - 1)):
            ops = depolarizing_channel(d, r).operators
            ref = _depolarizing_reference(d, r)
            assert len(ops) == len(ref) == d * d
            assert all(np.array_equal(a, b) for a, b in zip(ops, ref))


def test_apply_channel_equals_the_operator_loop_bit_for_bit():
    channels = [random_tpcp(d, k, seed=10 * d + k) for d in (2, 3, 4) for k in (1, 2, 3, 4)]
    channels += [depolarizing_channel(3, r) for r in (-0.1, 0.35, 1.0)]  # K = 9
    rng = np.random.default_rng(5)
    for ch in channels:
        states = np.array([random_mixed_state(rng, ch.dim) for _ in range(6)])
        for rho in (states[0], states.reshape(2, 3, ch.dim, ch.dim)):
            assert np.array_equal(apply_channel(ch, rho), _apply_reference(ch, rho))
    assert len(channels[-1].operators) == 9


def mixed_rotation():
    return mixed_rotation_family(0)


@pytest.mark.parametrize("call", [canonical_kraus, sm_channel_bound])
def test_reference_state_of_trace_two_is_rejected(call):
    # sm_channel_bound used to return 4.99 for the identity.
    with pytest.raises(ValidationError, match="trace"):
        call(mixed_rotation(), 0.3, np.eye(2))


@pytest.mark.parametrize("call", [canonical_kraus, sm_channel_bound])
def test_reference_state_with_a_negative_eigenvalue_is_rejected(call):
    # sm_channel_bound used to return 2.56 for it.
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        call(mixed_rotation(), 0.3, np.diag([1.5, -0.5]))


@pytest.mark.parametrize("call", [canonical_kraus, sm_channel_bound])
def test_reference_state_of_the_wrong_size_is_rejected(call):
    # It used to raise a raw numpy ValueError.
    with pytest.raises(DimensionMismatch):
        call(mixed_rotation(), 0.3, np.eye(3) / 3)


@pytest.mark.parametrize("call", [canonical_kraus, sm_channel_bound])
def test_reference_state_with_a_nan_entry_is_rejected(call):
    # sm_channel_bound used to return 0.0 for it.
    with pytest.raises(ValidationError, match="non-finite"):
        call(mixed_rotation(), 0.3, np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_reference_vector_of_the_wrong_size_is_rejected():
    with pytest.raises(DimensionMismatch):
        induced_state_family(mixed_rotation(), np.ones(3) / math.sqrt(3), 0.3)
    with pytest.raises(DimensionMismatch):
        induced_state_family(mixed_rotation(), np.eye(2) / 2, 0.3)


@pytest.mark.parametrize("psi0", [np.zeros(2), np.array([math.nan, 1.0]), np.array([math.inf, 0.0])])
def test_zero_or_non_finite_reference_vector_is_rejected(psi0):
    # A zero vector used to build a family of NaN.
    with pytest.raises(ValidationError, match="finite and nonzero"):
        induced_state_family(mixed_rotation(), psi0, 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_induced_family_rejects_a_non_finite_base_theta(bad):
    # A NaN base point used to leave every branch unaligned without an error.
    with pytest.raises(ValidationError, match="must be finite"):
        induced_state_family(mixed_rotation(), plus_state()[0], bad)


def test_induced_family_presents_an_empty_stack():
    for chf in (mixed_rotation(), rotation_z_family()):  # two branches, and one completed by QR
        sp = induced_state_family(chf, plus_state()[0], 0.3).spectral(np.zeros((0, 1)))
        assert sp.eigenvalues.shape == (0, 2) and sp.eigenvectors.shape == (0, 2, 2)


def test_branch_count_change_raises_one_error_for_bound_and_family():
    # The second branch has no weight at theta = 0 and some at theta != 0.
    _, rho0 = plus_state()
    g = np.diag([1.0, -1.0]).astype(complex)
    chf = ChannelFamily(dim=2, evaluate=lambda ts: np.stack(
        [np.cos(ts)[:, None, None] * np.eye(2, dtype=complex),
         np.sin(ts)[:, None, None] * unitary(g)], axis=1))
    with pytest.raises(NumericalError, match="canonical branch count changes across theta"):
        sm_channel_bound(chf, 0.0, rho0)
    family = induced_state_family(chf, plus_state()[0], 0.0)
    with pytest.raises(NumericalError, match="canonical branch count changes across theta"):
        family.spectral(np.array([[0.0], [0.1]]))


def test_induced_family_of_the_package_channel_has_traceless_tangents():
    # seed 7, |+>, theta = 0.3: the differenced trace error of the eigh-built
    # unitaries used to reach tr drho = -1.2e-10 and fail the SLD's check.
    family = induced_state_family(CHANNEL_FAMILIES["mixed-rotation"](7), plus_state()[0], 0.3)
    drho = family.point([0.3]).drho
    assert abs(np.trace(drho[0])) < HERM_TOL
    # every seed, both reference states, 9 base points: SLD and KMB exist
    for seed in range(40):
        chf = CHANNEL_FAMILIES["mixed-rotation"](seed)
        for psi in (np.array([1.0, 1.0]), np.array([1.0, 0.0])):
            for t in np.linspace(-1.0, 1.0, 9):
                out = evaluate_metrics(induced_state_family(chf, psi, t), [t], ["sld", "kmb"])
                assert all(np.isfinite(m).all() for m in out.values())


def crossing_branches():
    """Kraus operators cos(pi/4 + 0.3 t) U and sin(pi/4 + 0.3 t) U sigma_x with
    U = exp(-i t sigma_z / 2): against |0><0| the Gram matrix is diagonal, its
    eigenvalues cos^2 and sin^2 cross at t = 0, and the bound is 0.36 elsewhere."""
    sz, sx = np.diag([1.0, -1.0]).astype(complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def evaluate(ts):
        u = unitary(ts[:, None, None] * sz / 2)
        c, s = np.cos(math.pi / 4 + 0.3 * ts), np.sin(math.pi / 4 + 0.3 * ts)
        return np.stack([c[:, None, None] * u, s[:, None, None] * u @ sx], axis=1)

    return ChannelFamily(dim=2, evaluate=evaluate, name="crossing")


def test_a_gram_crossing_raises_instead_of_a_silent_bound():
    # The bound used to read 1.09e11 at 0 and +-3e-6 and 2.2e9 at 1e-5, and
    # the induced family's C_L half of that, all with exit 0: the stencil
    # differenced the canonical branches across their swap.
    chf, psi = crossing_branches(), np.array([1.0, 0.0])
    rho0 = np.outer(psi, psi)
    message = r"channel family 'crossing': .* theta"
    for t in (0.0, 3e-6, -3e-6, 1e-5, -1e-5):
        with pytest.raises(DegeneracyUnresolved, match=message):
            sm_channel_bound(chf, t, rho0)
    for t in (1e-4, -1e-4, 1e-2, -1e-2):
        assert abs(sm_channel_bound(chf, t, rho0) - 0.36) < 1e-8
    with pytest.raises(DegeneracyUnresolved, match=r"closer than 1e-06"):
        induced_state_family(chf, psi, 0.0)
    for base in (0.01, -0.01):
        family = induced_state_family(chf, psi, base)
        for t in (0.0, 3e-6, -3e-6, 1e-5, -1e-5, 1e-4, -1e-4, 1e-2, -1e-2):
            try:
                cl = c_l_information(family, [t])[0, 0]
            except DegeneracyUnresolved:
                continue
            assert abs(cl - 0.36) < 1e-8
        # Across the crossing from the base point: the stencil does not span it.
        assert abs(c_l_information(family, [-base])[0, 0] - 0.36) < 1e-8
    with pytest.raises(DegeneracyUnresolved, match=r"change order between theta -?[0-9.e-]+ and"):
        c_l_information(induced_state_family(chf, psi, 0.01), [3e-6])


def test_branches_far_from_the_base_point_are_not_held_to_its_order():
    # Far from base_theta the branches of mixed-rotation seed 0 overlap the
    # base branches most in the other order, with no crossing between: the
    # induced family's C_L is still the bound at that theta.
    chf, psi = CHANNEL_FAMILIES["mixed-rotation"](0), np.array([1.0, 0.0])
    family = induced_state_family(chf, psi, 0.0)
    for t in (-2.0, -1.5, 1.5, 2.0, 2.5):
        bound = sm_channel_bound(chf, t, np.outer(psi, psi))
        assert abs(c_l_information(family, [t])[0, 0] - bound) <= 1e-8 * bound


def lossy_rotation():
    """rotation-z scaled by 0.9: sum_k E_k^dagger E_k = 0.81 I at every theta."""
    rotation = rotation_z_family()
    return ChannelFamily(dim=2, evaluate=lambda ts: 0.9 * rotation.evaluate(ts), name="lossy")


def test_a_channel_family_that_loses_trace_raises_for_bound_kraus_and_induced_family():
    # sm_channel_bound used to give 0.8100 here, the rotation's 1 scaled by 0.81,
    # and the induced family raised only when first evaluated.
    psi, rho0 = plus_state()
    message = r"channel family 'lossy' does not preserve trace at theta = .*differs from I by 1\.900e-01"
    with pytest.raises(ValidationError, match=message):
        sm_channel_bound(lossy_rotation(), 0.7, rho0)
    with pytest.raises(ValidationError, match=message):
        canonical_kraus(lossy_rotation(), 0.7, rho0)
    with pytest.raises(ValidationError, match=message):
        induced_state_family(lossy_rotation(), psi, 0.0)


def test_the_trace_check_names_the_first_theta_of_the_stack_that_fails():
    # Trace-preserving for theta <= 1, lossy above: the stencil at 1 - 1e-6
    # reaches past 1 on one side only.
    rotation = rotation_z_family()
    chf = ChannelFamily(dim=2, name="edge", evaluate=lambda ts: np.where(
        ts[:, None, None, None] > 1.0, 0.9, 1.0) * rotation.evaluate(ts))
    _, rho0 = plus_state()
    assert abs(sm_channel_bound(chf, 0.5, rho0) - 1.0) < 1e-6
    with pytest.raises(ValidationError, match=r"'edge' does not preserve trace at theta = 1\.0000"):
        sm_channel_bound(chf, 1.0 - 1e-6, rho0)


def random_unitary_mixture(seed):
    """A 3-level channel family of 2-3 weighted unitary branches exp(-i (a_k + b_k t) G_k),
    with a random pure reference vector."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    weights = np.sqrt(rng.dirichlet(np.ones(k)))
    gens = [_random_hermitian(rng, 3) for _ in range(k)]
    offsets, rates = rng.uniform(-1.0, 1.0, k), rng.uniform(0.5, 1.5, k)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)

    def evaluate(ts):
        t = ts[:, None, None]
        return np.stack([w * unitary((a + b * t) * g)
                         for w, g, a, b in zip(weights, gens, offsets, rates)], axis=1)

    return ChannelFamily(dim=3, evaluate=evaluate, name=f"mixture{seed}"), psi


def test_channel_bound_is_the_canonical_gauge_information_over_seeded_channels():
    # Sarovar and Milburn's bound equals C_Upsilon and C_L of the induced
    # family presented in the canonical gauge at its base point.
    cases = [(CHANNEL_FAMILIES["mixed-rotation"](seed), plus_state()[0]) for seed in range(20)]
    cases += [random_unitary_mixture(seed) for seed in range(20)]
    for chf, psi in cases:
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        for t in (-0.7, 0.0, 0.3, 0.9):
            bound = sm_channel_bound(chf, t, rho0)
            family = induced_state_family(chf, psi, t)
            for info in (c_upsilon_states(family, [t]), c_l_information(family, [t])):
                assert abs(info[0, 0] - bound) <= 1e-8 * bound


def test_stacked_channel_families_give_the_one_point_kraus_sets_bit_for_bit():
    families = [rotation_z_family(), *(mixed_rotation_family(seed) for seed in range(5)),
                *(random_unitary_mixture(seed)[0] for seed in range(5))]
    thetas = np.linspace(-1.3, 2.0, 12)
    for chf in families:
        stack = chf.evaluate(thetas)
        assert stack.ndim == 4 and stack.shape[0] == 12 and stack.shape[2:] == (chf.dim,) * 2
        for theta, row in zip(thetas, stack):
            assert row.tobytes() == chf.evaluate(np.array([theta]))[0].tobytes(), chf.name
        assert chf.evaluate(np.zeros(0)).shape == (0,) + stack.shape[1:]


@pytest.mark.parametrize("evaluate", [
    lambda ts: KrausChannel((unitary(ts[0] * np.eye(2)),)),  # one channel, as for one theta
    lambda ts: unitary(ts[:, None, None] * np.eye(2)),        # no Kraus axis
    lambda ts: unitary(np.append(ts, 0.0)[:, None, None] * np.eye(2))[:, None],  # a row too many
    lambda ts: np.zeros((len(ts), 1, 3, 3)),                  # the wrong dimension
    lambda ts: np.zeros((len(ts), 0, 2, 2)),                  # no operators
], ids=["channel", "no-kraus-axis", "extra-row", "wrong-dim", "empty"])
def test_a_channel_family_of_the_wrong_shape_raises_naming_it(evaluate):
    chf = ChannelFamily(dim=2, evaluate=evaluate, name="misshapen")
    psi, rho0 = plus_state()
    message = r"family 'misshapen': evaluate gives shape .* expected \(\d+, \d+, 2, 2\)"
    with pytest.raises(ValidationError, match=message):
        sm_channel_bound(chf, 0.3, rho0)
    with pytest.raises(ValidationError, match=message):
        canonical_kraus(chf, 0.3, rho0)
    with pytest.raises(ValidationError, match=message):
        induced_state_family(chf, psi, 0.3)


def test_a_kraus_channel_is_one_read_only_complex_stack():
    u = unitary(np.diag([0.3, -0.2]))
    for operators in ((u,), [u], u[None], (np.eye(2),), ([[1, 0], [0, 1]],)):
        ch = KrausChannel(operators)
        assert ch.operators.shape == (1, 2, 2) and ch.operators.dtype == complex
        assert not ch.operators.flags.writeable and ch.dim == 2
    given = u[None]
    assert np.array_equal(KrausChannel(given).operators, given)
    assert given.flags.writeable  # the stack is a copy; the caller's array is left as it was


SHAPE = "Kraus operators must be K >= 1 square matrices of one shape"


@pytest.mark.parametrize("operators,message", [
    ((0.9 * np.eye(3),), r"the Kraus channel does not preserve trace: .* by 1\.900e-01"),
    ((np.eye(2), np.eye(2)), r"does not preserve trace: .* by 1\.000e\+00"),
    ((np.array([[math.nan, 0.0], [0.0, 1.0]]),), "does not preserve trace: .* by nan"),
    ((np.array([[math.inf, 0.0], [0.0, 1.0]]),), "does not preserve trace: .* by (nan|inf)"),
    ((np.array([[1e200, 0.0], [0.0, 1.0]]),), "does not preserve trace: .* by inf"),
    ((np.eye(2), np.eye(3)), SHAPE),
    ((np.eye(2)[:1],), SHAPE),
    ((), SHAPE),
    (np.eye(2), SHAPE),
    (("a",), SHAPE),
], ids=["lossy", "gaining", "nan", "inf", "overflow", "ragged", "not-square", "empty", "no-kraus-axis",
        "not-numbers"])
def test_an_invalid_kraus_set_raises_when_the_channel_is_made(operators, message):
    # The lossy set used to be pushed through families with exit 0: through
    # random_full_rank(3, 1, seed=1) it gave SLD 0.1805 at theta = 0.1, not 0.2228.
    with pytest.raises(ValidationError, match=message):
        KrausChannel(operators)
