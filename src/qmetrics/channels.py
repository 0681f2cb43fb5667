"""Trace-preserving completely positive maps as Kraus operator sets.

Includes the depolarizing channel (generalized Pauli twirl realization),
random channels for fuzzing monotonicity claims, canonical Kraus operators
(the set whose Gram matrix against a reference state is diagonal), the
channel-level information bound built from their derivatives, and pushforward
of state families.
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
from .families import ParametricFamily, SpectralPresentation
from .linalg import RANK_TOL, central_difference, eig_hermitian, fix_phases
from .metrics import evaluate_metric


@dataclass(frozen=True)
class KrausChannel:
    """TP-CP map rho -> sum_k E_k rho E_k^dagger.

    eigenvalue_affine, when set to (a, b), declares that the channel preserves
    every eigenbasis and maps eigenvalues p -> a p + b (true for depolarizing
    maps); pushforwards can then carry a spectral presentation through.
    """

    operators: tuple
    eigenvalue_affine: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def tp_defect(self) -> float:
        d = self.dim
        total = sum(e.conj().T @ e for e in self.operators)
        return float(np.max(np.abs(total - np.eye(d))))


@dataclass(frozen=True)
class ChannelFamily:
    """Smooth one-parameter family of channels theta -> KrausChannel."""

    dim: int
    evaluate: Callable[[float], KrausChannel]
    name: str = ""


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """The channel applied to a state (d, d) or to each state of a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise DimensionMismatch(
            f"channel dimension {ch.dim} does not match state shape {rho.shape}"
        )
    out = np.zeros_like(rho)
    for e in ch.operators:
        out += e @ rho @ e.conj().T
    return out


def _shift_clock(d: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(np.exp(2j * math.pi * np.arange(d) / d))
    return x, z


def depolarizing_channel(d: int, r: float) -> KrausChannel:
    """Kraus realization of rho -> r rho + (1 - r) I / d via the generalized
    Pauli twirl. Valid for -1/(d^2 - 1) <= r <= 1."""
    lo = -1.0 / (d * d - 1)
    if not (lo - 1e-12 <= r <= 1.0 + 1e-12):
        raise ParamOutOfDomain(f"depolarizing parameter {r} outside [{lo}, 1]")
    x, z = _shift_clock(d)
    w_id = r + (1.0 - r) / (d * d)
    w_rest = (1.0 - r) / (d * d)
    ops = [math.sqrt(max(w_id, 0.0)) * np.eye(d, dtype=complex)]
    xa = np.eye(d, dtype=complex)
    for a in range(d):
        zb = np.eye(d, dtype=complex)
        for b in range(d):
            if (a, b) != (0, 0):
                ops.append(math.sqrt(max(w_rest, 0.0)) * (xa @ zb))
            zb = zb @ z
        xa = xa @ x
    return KrausChannel(operators=tuple(ops), eigenvalue_affine=(r, (1.0 - r) / d))


def random_tpcp(d: int, kraus_count: int, seed: int = 0) -> KrausChannel:
    """Random channel from blocks of a Haar-ish random isometry; deterministic
    per seed. A single Kraus operator yields a random unitary channel."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(kraus_count * d, d)) + 1j * rng.normal(size=(kraus_count * d, d))
    q, _ = np.linalg.qr(z)
    ops = tuple(q[k * d:(k + 1) * d, :].copy() for k in range(kraus_count))
    return KrausChannel(operators=ops)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel(operators=(np.asarray(u, dtype=complex),))


def pushforward_family(ch: KrausChannel, family: ParametricFamily) -> ParametricFamily:
    """Family theta -> channel(rho(theta)).

    A spectral presentation is carried through only for eigenbasis-preserving
    channels (eigenvalue_affine set); otherwise the gauge must be recomputed
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
    if ch.eigenvalue_affine is not None and family.spectral is not None:
        a, b = ch.eigenvalue_affine

        def spectral(th):
            sp = family.spectral(th)
            slopes = sp.eigenvalue_slopes
            return replace(sp, eigenvalues=a * sp.eigenvalues + b,
                           eigenvalue_slopes=None if slopes is None else a * np.asarray(slopes))

    def tangents(th):
        return apply_channel(ch, family.tangents(th))

    return ParametricFamily(
        dim=family.dim,
        nparams=family.nparams,
        evaluate=evaluate,
        spectral=spectral,
        domain=family.domain,
        name=f"push({family.name})",
        phases=None if spectral is None else family.phases,
        tangents=None if family.tangents is None else tangents,
    )


def canonical_kraus(chf: ChannelFamily, theta: float, rho0: np.ndarray) -> list[np.ndarray]:
    """Kraus set with diagonal Gram matrix against rho0.

    Diagonalizes G_jk = tr(E_j rho0 E_k^dagger) and mixes the operators by the
    conjugated eigenvector matrix; branches with vanishing Gram eigenvalue are
    dropped. Phases are pinned by the deterministic eigenvector gauge.
    """
    ch = chf.evaluate(theta)
    ops = ch.operators
    n = len(ops)
    gram = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            gram[j, k] = np.trace(ops[j] @ rho0 @ ops[k].conj().T)
    es = eig_hermitian(gram)
    if float(es.values.min()) < -1e-8:
        raise GramNotPSD(f"Gram matrix has eigenvalue {es.values.min():.3e}")
    u = fix_phases(es.vectors)
    out = []
    for k in range(n):
        if es.values[k] <= RANK_TOL:
            continue
        ups = sum(np.conj(u[j, k]) * ops[j] for j in range(n))
        out.append(ups)
    return out


def _align_branch(candidate: np.ndarray, reference: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Multiply candidate by the unit phase making tr(candidate rho0 ref^dagger)
    real non-negative (the free canonical-Kraus phase, fixed for differencing)."""
    z = complex(np.trace(candidate @ rho0 @ reference.conj().T))
    if abs(z) < 1e-14:
        return candidate
    return candidate * (np.conj(z) / abs(z))


def sm_channel_bound(chf: ChannelFamily, theta: float, rho0: np.ndarray) -> float:
    """Channel-level information bound 4 sum_k tr(U'_k rho0 U'_k^dagger) from
    Richardson central differences of the phase-aligned canonical Kraus
    operators."""
    if not math.isfinite(theta):
        raise ValidationError(f"channel parameter theta must be finite, got {theta}")

    def aligned(thetas):
        branches = [canonical_kraus(chf, t, rho0) for (t,) in thetas]
        base = branches[0]  # theta itself (see central_difference): the phase reference
        if any(len(ops) != len(base) for ops in branches):
            raise NumericalError("canonical branch count changed across the differencing step")
        return np.array([[_align_branch(u, ref, rho0) for u, ref in zip(ops, base)]
                         for ops in branches])

    der = central_difference(aligned, theta)[1][0]
    return 4.0 * float(np.real(sum(np.trace(u @ rho0 @ u.conj().T) for u in der)))


def induced_state_family(
    chf: ChannelFamily, psi0: np.ndarray, base_theta: float
) -> ParametricFamily:
    """State family theta -> channel_theta(|psi0><psi0|) presented in the
    canonical-Kraus gauge, phases aligned to the branches at base_theta.

    The frame vectors are U_k |psi0> / sqrt(p_k); if fewer branches than the
    dimension survive, the frame is completed deterministically with zero
    eigenvalues.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    rho0 = np.outer(psi0, psi0.conj())
    d = chf.dim
    base_ops = canonical_kraus(chf, base_theta, rho0)

    # canonical_kraus takes one theta at a time, so both callables loop over
    # the points of a stack.
    def evaluate(th):
        ts = np.asarray(th, dtype=float)[..., 0]
        states = [apply_channel(chf.evaluate(float(t)), rho0) for t in ts.ravel()]
        return np.reshape(states, ts.shape + (d, d))

    def present(t):
        ops = canonical_kraus(chf, t, rho0)
        if len(ops) != len(base_ops):
            raise NumericalError("canonical branch count changed across the family")
        cols, probs = [], []
        for k, ups in enumerate(ops):
            ups = _align_branch(ups, base_ops[k], rho0)
            vec = ups @ psi0
            p = float(np.real(np.vdot(vec, vec)))
            probs.append(p)
            cols.append(vec / math.sqrt(p))
        frame = np.stack(cols, axis=1)
        if frame.shape[1] < d:
            # complete with an orthonormal basis of the unused subspace
            q, _ = np.linalg.qr(np.concatenate([frame, np.eye(d, dtype=complex)], axis=1))
            frame = np.concatenate([frame, q[:, len(cols):d]], axis=1)
            probs += [0.0] * (d - len(cols))
        return np.array(probs), frame

    def spectral(th):
        ts = np.asarray(th, dtype=float)[..., 0]
        probs, frames = zip(*(present(float(t)) for t in ts.ravel()))
        return SpectralPresentation(eigenvalues=np.reshape(probs, ts.shape + (d,)),
                                    eigenvectors=np.reshape(frames, ts.shape + (d, d)))

    return ParametricFamily(
        dim=d, nparams=1, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),), name=f"induced({chf.name})",
    )


@dataclass(frozen=True)
class MonotonicityReport:
    metric: str
    before: np.ndarray
    after: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.after - self.before


def monotonicity_experiment(
    family: ParametricFamily, metric: str, ch: KrausChannel, theta
) -> MonotonicityReport:
    """Evaluate a metric before and after pushing the family through a channel."""
    before = evaluate_metric(family, theta, metric)
    after = evaluate_metric(pushforward_family(ch, family), theta, metric)
    return MonotonicityReport(metric=metric, before=before, after=after)
