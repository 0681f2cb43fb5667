"""Trace-preserving completely positive maps as Kraus operator sets, acted on
as one (K, d, d) stack of operators.

Includes the depolarizing channel (generalized Pauli twirl realization),
random channels for fuzzing monotonicity claims, channel families (stack
functions of theta), canonical Kraus operators (the set whose Gram matrix
against a reference state is diagonal), the channel-level information bound
and the induced state family built from them, and pushforward of state families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    GramNotPSD,
    NumericalError,
    ParamOutOfDomain,
    ValidationError,
)
from .families import (
    ParametricFamily,
    SpectralPresentation,
    _random_hermitian,
    _stack_of,
    validate_density,
)
from .linalg import HERM_TOL, RANK_TOL, central_difference, eig_hermitian, unitary


def _trace_preserving(sets: np.ndarray, name: str, thetas=None) -> np.ndarray:
    """sets, an (n, K, d, d) stack of Kraus sets, unless some set's
    sum_k E_k^dagger E_k differs from I by more than HERM_TOL, or is not finite
    (a non-finite entry makes it NaN or inf): then ValidationError naming the
    channel and, given the thetas of the sets, the first theta that fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram = (sets.conj().swapaxes(-1, -2) @ sets).sum(axis=-3)
        defect = np.abs(gram - np.eye(sets.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~(defect <= HERM_TOL))
    if bad.size:
        at = "" if thetas is None else f" at theta = {thetas[bad[0]]}"
        raise ValidationError(f"{name} does not preserve trace{at}: sum_k E_k^dagger E_k "
                              f"differs from I by {defect[bad[0]]:.3e}")
    return sets


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """TP-CP map rho -> sum_k E_k rho E_k^dagger. The operators are converted
    once to a read-only complex (K, d, d) stack, checked to hold K >= 1 square
    matrices of one shape with finite entries and sum_k E_k^dagger E_k = I
    within HERM_TOL (ValidationError otherwise)."""

    operators: np.ndarray

    def __post_init__(self):
        try:
            ops = np.array(self.operators, dtype=complex)
        except (TypeError, ValueError):  # ragged, or not numbers
            ops = np.empty(0)
        if ops.ndim != 3 or not ops.shape[0] or ops.shape[1] != ops.shape[2]:
            raise ValidationError("Kraus operators must be K >= 1 square matrices of one shape")
        _trace_preserving(ops[None], "the Kraus channel")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def eigenvalue_map(self) -> Optional[tuple]:
        """(a, b) if the channel is X -> a X + b tr(X) I within HERM_TOL, which
        keeps every eigenbasis and maps eigenvalues p -> a p + b; else None. Row
        (j, m) of images is the image sum_k E_k E_jm E_k^dagger of a matrix unit."""
        d, ops = self.dim, self.operators
        images = np.einsum("kij,klm->jmil", ops, ops.conj()).reshape(d * d, d * d)
        b = images[0, -1].real  # E_00 -> a E_00 + b I
        a = images[0, 0].real - b
        # np.outer flattens: outer(I, I) is vec(I) vec(I)^T, the map X -> tr(X) I.
        if np.abs(images - a * np.eye(d * d) - b * np.outer(np.eye(d), np.eye(d))).max() > HERM_TOL:
            return None
        return float(a), float(b)


@dataclass(frozen=True)
class ChannelFamily:
    """Smooth one-parameter family of channels: evaluate maps an (n,) stack
    of theta to the (n, K, d, d) stack of their Kraus sets, row i equal to
    the one-point stack at theta[i] bit for bit."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def _kraus_sets(chf: ChannelFamily, thetas) -> np.ndarray:
    """The Kraus sets at the raveled thetas from one evaluate call, checked to
    be an (n, K, d, d) stack with K >= 1 whose every set preserves trace
    (ValidationError naming the family, and the first theta that fails)."""
    thetas = np.ravel(np.asarray(thetas, dtype=float))
    ops = np.asarray(chf.evaluate(thetas))
    k = ops.shape[1] if ops.ndim == 4 and ops.shape[1] else 1
    sets = _stack_of(chf, "evaluate", ops, (len(thetas), k, chf.dim, chf.dim))
    return _trace_preserving(sets, f"channel family {chf.name!r}", thetas)


def _act(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dagger for Kraus sets (..., K, d, d) and states (..., d, d)."""
    return (ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """The channel applied to a state (d, d) or to each state of a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise DimensionMismatch(
            f"channel dimension {ch.dim} does not match state shape {rho.shape}"
        )
    return _act(ch.operators, rho)


def depolarizing_channel(d: int, r: float) -> KrausChannel:
    """Kraus realization of rho -> r rho + (1 - r) I / d via the generalized
    Pauli twirl. Valid for -1/(d^2 - 1) <= r <= 1."""
    lo = -1.0 / (d * d - 1)
    if not (lo - 1e-12 <= r <= 1.0 + 1e-12):
        raise ParamOutOfDomain(f"depolarizing parameter {r} outside [{lo}, 1]")
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # shift
    z = np.diag(np.exp(2j * math.pi * np.arange(d) / d))  # clock
    xs, zs = [np.eye(d, dtype=complex)], [np.eye(d, dtype=complex)]
    for _ in range(d - 1):  # the powers as running products
        xs.append(xs[-1] @ x)
        zs.append(zs[-1] @ z)
    weights = np.full(d * d, (1.0 - r) / (d * d))
    weights[0] += r
    # X^a Z^b for a, b < d in row-major order, X^0 Z^0 = I first
    paulis = (np.array(xs)[:, None] @ np.array(zs)).reshape(d * d, d, d)
    ops = np.sqrt(np.maximum(weights, 0.0))[:, None, None] * paulis
    return KrausChannel(operators=ops)


def random_tpcp(d: int, kraus_count: int, seed: int = 0) -> KrausChannel:
    """Random channel from blocks of a Haar-ish random isometry; deterministic
    per seed. A single Kraus operator yields a random unitary channel."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(kraus_count * d, d)) + 1j * rng.normal(size=(kraus_count * d, d))
    q, _ = np.linalg.qr(z)
    return KrausChannel(operators=q.reshape(kraus_count, d, d))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel(operators=(u,))


def rotation_z_family(seed: int = 0) -> ChannelFamily:
    """The qubit rotation theta -> exp(-i theta sigma_z / 2); seed is unused,
    taken so that every built-in channel family is built alike."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    return ChannelFamily(dim=2, name="rotation-z",
                         evaluate=lambda ts: unitary(ts[:, None, None] * sz / 2)[:, None])


def mixed_rotation_family(seed: int = 0) -> ChannelFamily:
    """Two weighted qubit rotations theta -> (cos 0.6 exp(-i theta G_1),
    sin 0.6 exp(-i (0.4 + 0.7 theta) G_2)), the generators G drawn from the seed."""
    rng = np.random.default_rng(seed)
    g1, g2 = _random_hermitian(rng, 2), _random_hermitian(rng, 2)
    c, s = math.cos(0.6), math.sin(0.6)

    def evaluate(ts):
        t = ts[:, None, None]
        return np.stack([c * unitary(t * g1), s * unitary((0.4 + 0.7 * t) * g2)], axis=1)

    return ChannelFamily(dim=2, evaluate=evaluate, name="mixed-rotation")


def pushforward_family(ch: KrausChannel, family: ParametricFamily) -> ParametricFamily:
    """Family theta -> channel(rho(theta)).

    A spectral presentation is carried through only when the channel's
    eigenvalue_map is not None; otherwise the gauge must be recomputed
    downstream. A re-phased family stays re-phased: the channel maps the
    presentation's eigenvalues and the family's phases are passed on as they
    are. Exact tangents are mapped by the channel, which is linear, and an
    affine map p -> a p + b scales the eigenvalue slopes by a.
    """
    if ch.dim != family.dim:
        raise DimensionMismatch(
            f"channel dimension {ch.dim} does not match family dimension {family.dim}"
        )

    def evaluate(th):
        return apply_channel(ch, family.evaluate(th))

    spectral = None
    if family.spectral is not None and (affine := ch.eigenvalue_map()) is not None:
        a, b = affine

        def spectral(th):
            sp = family.spectral(th)
            slopes = sp.eigenvalue_slopes
            return replace(sp, eigenvalues=a * sp.eigenvalues + b,
                           eigenvalue_slopes=None if slopes is None else a * np.asarray(slopes))

    def tangents(th):
        return apply_channel(ch, family.tangents(th))

    return ParametricFamily(
        dim=family.dim,
        evaluate=evaluate,
        spectral=spectral,
        domain=family.domain,
        name=f"push({family.name})",
        phases=None if spectral is None else family.phases,
        tangents=None if family.tangents is None else tangents,
    )


def _reference_state(chf: ChannelFamily, rho0) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (chf.dim, chf.dim):
        raise DimensionMismatch(
            f"channel dimension {chf.dim} does not match reference state shape {rho0.shape}"
        )
    return validate_density(rho0)


def _canonical(ops: np.ndarray, rho0: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """canonical_kraus of each set of an (n, K, d, d) stack, as an (n, k, d, d)
    stack, rho0 taken as checked; every row keeps k branches (NumericalError)."""
    gram = np.trace((ops @ rho0)[:, :, None] @ ops.conj().swapaxes(-1, -2)[:, None],
                    axis1=-2, axis2=-1)
    es = eig_hermitian(gram)
    least = es.values.min(axis=-1)
    bad = np.flatnonzero(least < -1e-8)
    if bad.size:
        raise GramNotPSD(f"Gram matrix has eigenvalue {least[bad[0]]:.3e}")
    counts = set((es.values > RANK_TOL).sum(axis=-1).tolist()) | (set() if k is None else {k})
    if len(counts) > 1:
        raise NumericalError(f"canonical branch count changes across theta: {sorted(counts)}")
    # Kept branches come first, the eigenvalues falling; eig_hermitian pinned their phases.
    coeffs = np.conj(es.vectors[..., :max(counts, default=0)]).transpose(1, 0, 2)
    # U_m = sum_j conj(u_jm) E_j, added over j (now the first axis) in order
    return (coeffs[..., None, None] * ops.swapaxes(0, 1)[:, :, None]).sum(axis=0)


def canonical_kraus(chf: ChannelFamily, theta: float, rho0: np.ndarray) -> list[np.ndarray]:
    """Kraus set with diagonal Gram matrix against the density matrix rho0.

    Diagonalizes G_jk = tr(E_j rho0 E_k^dagger) and mixes the operators by the
    conjugated eigenvector matrix; branches with vanishing Gram eigenvalue are
    dropped. Phases are pinned by the deterministic eigenvector gauge.
    """
    rho0 = _reference_state(chf, rho0)
    return list(_canonical(_kraus_sets(chf, theta), rho0)[0])


def _canonical_branches(chf: ChannelFamily, thetas, rho0: np.ndarray, reference=None):
    """Canonical Kraus sets at the points thetas, an (n, k, d, d) stack, with the
    unit phases making each tr(U_k rho0 R_k^dagger) real non-negative (fixed for
    differencing); R is reference (k, d, d), else the first point's set."""
    ops = _canonical(_kraus_sets(chf, thetas), rho0, None if reference is None else len(reference))
    reference = ops[0] if reference is None else reference
    z = np.trace(ops @ rho0 @ reference.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    a = np.hypot(z.real, z.imag)  # abs of each overlap; np.abs can differ in the last bit
    return ops * np.divide(np.conj(z), a, out=np.ones_like(z), where=a >= 1e-14)[..., None, None]


def sm_channel_bound(chf: ChannelFamily, theta: float, rho0: np.ndarray) -> float:
    """Channel-level information bound 4 sum_k tr(U'_k rho0 U'_k^dagger) from
    Richardson central differences of the canonical Kraus operators, their
    phases aligned to the branches at theta."""
    if not math.isfinite(theta):
        raise ValidationError(f"channel parameter theta must be finite, got {theta}")
    rho0 = _reference_state(chf, rho0)
    der = central_difference(lambda ts: _canonical_branches(chf, ts, rho0), theta)[1][0]
    traces = np.trace(der @ rho0 @ der.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    return 4.0 * float(np.real(sum(traces)))  # summed over the branches in order


def induced_state_family(
    chf: ChannelFamily, psi0: np.ndarray, base_theta: float
) -> ParametricFamily:
    """State family theta -> channel_theta(|psi0><psi0|) presented in the
    canonical-Kraus gauge, phases aligned to the branches at base_theta.

    psi0, a finite nonzero vector, is normalised. The frame vectors are
    U_k |psi0> / sqrt(p_k); if fewer branches than the dimension survive, the
    frame is completed deterministically with zero eigenvalues. The channel
    family's Kraus sets are checked to preserve trace (see _kraus_sets), and
    states are divided by their trace, which renormalises its rounding.
    """
    if not math.isfinite(base_theta):
        raise ValidationError(f"base theta must be finite, got {base_theta}")
    d = chf.dim
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (d,):
        raise DimensionMismatch(f"channel dimension {d} does not match vector shape {psi0.shape}")
    if not (np.isfinite(psi0).all() and psi0.any()):
        raise ValidationError(f"reference vector must be finite and nonzero, got {psi0}")
    psi0 = psi0 / np.linalg.norm(psi0)
    rho0 = np.outer(psi0, psi0.conj())
    base = _canonical(_kraus_sets(chf, base_theta), rho0)[0]

    def evaluate(th):
        ts = np.asarray(th, dtype=float)[..., 0]
        states = _act(_kraus_sets(chf, ts), rho0).reshape(ts.shape + (d, d))
        return states / np.real(np.trace(states, axis1=-2, axis2=-1))[..., None, None]

    def spectral(th):
        ts = np.asarray(th, dtype=float)[..., 0]
        vecs = _canonical_branches(chf, ts, rho0, base) @ psi0  # (n, k, d)
        probs = np.real(np.sum(vecs.conj() * vecs, axis=-1))
        frames = (vecs / np.sqrt(probs)[..., None]).swapaxes(-1, -2)
        k = probs.shape[-1]
        if k < d:
            # complete with an orthonormal basis of the unused subspace
            eye = np.broadcast_to(np.eye(d), frames.shape[:-1] + (d,))
            q = np.linalg.qr(np.concatenate([frames, eye], axis=-1))[0]
            frames = np.concatenate([frames, q[..., k:]], axis=-1)
            probs = np.concatenate([probs, np.zeros(probs.shape[:-1] + (d - k,))], axis=-1)
        return SpectralPresentation(eigenvalues=probs.reshape(ts.shape + (d,)),
                                    eigenvectors=frames.reshape(ts.shape + (d, d)))

    return ParametricFamily(
        dim=d, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),), name=f"induced({chf.name})",
    )

