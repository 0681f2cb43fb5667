"""Dense complex Hermitian kernel.

Gauged eigendecompositions, the symmetric-logarithmic-derivative solve,
quantum relative entropy, unitaries generated by Hermitian matrices with
their exact derivatives, and the Richardson central difference that every
derivative without a closed form goes through, over one stack of shifted
parameter vectors. Everything here is a pure
function of its arguments; matrices are small (d <= 64) and dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NoConvergence,
    NotHermitian,
    NumericalError,
    SingularSecondArgument,
    UnsupportedTangent,
)

# Shared numerical conventions.
HERM_TOL = 1e-10       # max-entry tolerance for Hermiticity checks
RANK_TOL = 1e-12       # eigenvalues below this count as zero
DEGEN_GAP = 1e-6       # eigenvalue pairs closer than this are "degenerate"
DEFAULT_H = 1e-5       # finite-difference step (entries are O(1))


def herm_defect(m: np.ndarray):
    """Max-entry deviation of m from its own adjoint; per matrix of a stack."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted descending; orthonormal column eigenvectors with the
    largest-modulus component of each vector made real and non-negative."""

    values: np.ndarray   # (d,) real; (..., d) for a stack
    vectors: np.ndarray  # (d, d) complex, columns; (..., d, d) for a stack


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real non-negative;
    each matrix of a stack (..., d, d) as it would be alone, bit for bit when
    d >= 2 (1 x 1 matrices share one vector loop, which can round apart).

    This pins the otherwise arbitrary eigenvector phases deterministically,
    so repeated decompositions of the same matrix agree bit for bit.
    """
    v = np.array(vectors, dtype=complex, copy=True)
    rows = np.argmax(np.abs(v), axis=-2)
    if v.ndim == 2:  # take_along_axis costs one matrix microseconds
        z = v[rows, np.arange(v.shape[1])]
    else:
        z = np.take_along_axis(v, rows[..., None, :], axis=-2)
    a = np.hypot(z.real, z.imag)  # abs of each complex number; np.abs can differ in the last bit
    v *= np.divide(np.conj(z), a, out=np.ones_like(z), where=a > 0.0)
    return v


def eig_hermitian(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge; of
    each matrix of a stack (..., d, d) bit for bit as alone, after the first
    matrix that is not Hermitian has raised with its defect."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)  # herm_defect's, formed once for the symmetrisation too
    defects = np.abs(m - adjoint).max(axis=(-2, -1))
    if (defects > HERM_TOL).any():
        first = np.ravel(defects)[np.argmax(np.ravel(defects) > HERM_TOL)]
        raise NotHermitian(f"matrix deviates from Hermitian by {first:.3e}")
    try:
        vals, vecs = np.linalg.eigh((m + adjoint) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-vals, axis=-1, kind="stable")
    if m.ndim == 2:
        vals, vecs = vals[order], vecs[:, order]
    else:
        # Sorted as rows, then viewed as columns: each matrix keeps the
        # column-major layout of vecs[:, order], which products downstream round by.
        vals = np.take_along_axis(vals, order, axis=-1)
        vecs = np.take_along_axis(vecs.swapaxes(-1, -2), order[..., :, None], axis=-2).swapaxes(-1, -2)
    return EigenSystem(values=vals, vectors=fix_phases(vecs))


def sld_solve(es: EigenSystem, tangents: np.ndarray) -> np.ndarray:
    """Solve drho_l = (rho L_l + L_l rho) / 2 for the Hermitian scores L_l of a
    (p, d, d) stack of tangents, given rho's eigensystem; shape (p, d, d).

    Works in the eigenbasis of rho: L_jk = 2 A_jk / (p_j + p_k) with A the
    tangent in that basis. Entries with p_j + p_k below RANK_TOL are set to
    zero; if the tangent has weight there, the score does not determine the
    metric and UnsupportedTangent is raised. Each tangent is checked in turn
    (Hermitian, traceless, supported); the first failing check raises.
    """
    tangents = np.asarray(tangents, dtype=complex)
    p = np.clip(es.values, 0.0, None)
    v = es.vectors
    a = v.conj().T @ tangents @ v
    denom = p[:, None] + p[None, :]
    off_support = denom <= RANK_TOL
    not_hermitian = herm_defect(tangents) > HERM_TOL
    not_traceless = np.abs(np.trace(tangents, axis1=-2, axis2=-1)) > HERM_TOL
    unsupported = (np.abs(a) * off_support).max(axis=(-2, -1)) > 1e-8
    failing = np.flatnonzero(not_hermitian | not_traceless | unsupported)
    if failing.size and not_hermitian[failing[0]]:
        raise NotHermitian("tangent matrix is not Hermitian")
    if failing.size and not_traceless[failing[0]]:
        raise NotHermitian("tangent matrix is not traceless")
    if failing.size:
        raise UnsupportedTangent("tangent has weight outside the support of the state")
    lam = np.where(off_support, 0.0, 2.0 * a / np.where(off_support, 1.0, denom))
    lam = v @ lam @ v.conj().T
    return (lam + lam.conj().swapaxes(-1, -2)) / 2.0


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy tr(rho (ln rho - ln sigma)) in nats.

    sigma must be full rank; rho may be rank deficient (0 ln 0 := 0).
    """
    er = eig_hermitian(rho)
    esig = eig_hermitian(sigma)
    if float(esig.values.min()) < RANK_TOL:
        raise SingularSecondArgument("second argument is rank deficient")
    p = np.clip(er.values, 0.0, None)
    pos = p > RANK_TOL
    s_rho = float(np.sum(p[pos] * np.log(p[pos])))
    # tr(rho ln sigma) via sigma's eigenbasis
    u = esig.vectors
    weights = np.real(np.einsum("ij,ik,kj->j", u.conj(), rho, u))
    s_cross = float(np.sum(weights * np.log(esig.values)))
    return s_rho - s_cross


# The phase e^{-i lam} of an eigenvalue lam is known to about eps |lam| radians.
PHASE_TOL = 1e-7


def _exp_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The eigh of a Hermitian h (or stack) as (lam, W, W^dagger) plus
    W e^{-i Lambda} W^dagger, unless an eigenvalue is so large that
    eps |lam| > PHASE_TOL: then its phases are rounding noise, and
    NumericalError gives |lam| and that resolution."""
    vals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    largest = float(np.abs(vals).max(initial=0.0))
    resolution = np.finfo(float).eps * largest
    if resolution > PHASE_TOL:
        raise NumericalError(
            f"exp(-i h) at an eigenvalue |lambda| = {largest:.3e} resolves its phases only "
            f"to {resolution:.1e} rad (above {PHASE_TOL})")
    adj = vecs.conj().swapaxes(-1, -2)
    return vals, vecs, adj, (vecs * np.exp(-1j * vals)[..., None, :]) @ adj


def unitary(h: np.ndarray) -> np.ndarray:
    """exp(-i h) of a Hermitian matrix h, as V e^{-i Lambda} V^dagger from eigh;
    a stack (n, d, d) gives the stack of unitaries. An eigenvalue with
    eps |lambda| > PHASE_TOL raises NumericalError.

    Unitary to about d * machine epsilon, which is not exact: callers that
    difference states built from it renormalise the trace themselves.
    """
    return _exp_eigh(h)[3]


def unitary_slopes(h: np.ndarray, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i h) and its derivatives d/dt exp(-i (h + t G_l)) at t = 0 along
    each Hermitian generator of gens (p, d, d): shapes (d, d) and (p, d, d),
    or (n, d, d) and (n, p, d, d) for a stack of h. The unitary is unitary(h)'s
    bit for bit, from the same eigh and the same PHASE_TOL check.

    With h = W diag(lam) W^dagger the derivative is W [(W^dagger G_l W) o Phi] W^dagger
    (Daleckii-Krein), Phi_jk = (e^{-i lam_j} - e^{-i lam_k}) / (lam_j - lam_k) and
    Phi_jj = -i e^{-i lam_j}, formed as -i e^{-i (lam_j + lam_k)/2} sinc((lam_j - lam_k)/2),
    which has no cancellation on close eigenvalues.
    """
    vals, vecs, adj, u = _exp_eigh(h)
    mean = (vals[..., :, None] + vals[..., None, :]) / 2.0
    phi = -1j * np.exp(-1j * mean) * np.sinc((vals[..., :, None] - vals[..., None, :]) / (2.0 * np.pi))
    w, w_adj = vecs[..., None, :, :], adj[..., None, :, :]
    return u, w @ ((w_adj @ gens @ w) * phi[..., None, :, :]) @ w_adj


# Steps +h, -h, +h/2, -h/2 of the four stencil blocks, in units of h (exact in binary).
_STENCIL_STEPS = np.array([1.0, -1.0, 0.5, -0.5])[:, None, None]


def central_difference(f: Callable[[np.ndarray], np.ndarray], theta) -> tuple[np.ndarray, np.ndarray]:
    """Value and partial derivatives of f at theta, shapes (...) and (p, ...):
    symmetric differences D_h = (f(theta + h e_l) - f(theta - h e_l)) / 2h with
    one Richardson step (4 D_{h/2} - D_h) / 3, the step h the constant DEFAULT_H.

    f maps an (n, p) stack of parameter vectors to the (n, ...) stack of its
    values. It is called once, on theta itself followed by the 4p points
    theta +- h e_l, theta +- (h/2) e_l, so the value at theta comes from the
    same call as the stencil. An (n, p) stack of base points gives shapes
    (n, ...) and (n, p, ...) from one call of f on the n base points and all
    4np shifted points; a single point is the stack n = 1. Row n + (s n + i) p + l
    of f's argument is base point i with coordinate l moved by step s of
    (+h, -h, +h/2, -h/2). A step that rounds away, where (theta_l + s h) - theta_l
    differs from s h by more than 1e-6 of s h, raises NumericalError before f
    is called.
    """
    h = DEFAULT_H
    theta = np.asarray(theta, dtype=float)
    thetas = np.atleast_2d(theta)
    n, p = thetas.shape
    points = np.empty((n + 4 * n * p, p))
    points[:n] = thetas
    shifted = points[n:].reshape(4, n, p, p)
    shifted[...] = thetas[:, None, :]
    # Row l of each point moves coordinate l: the stride p + 1 walks the diagonals.
    moved = shifted.reshape(4, n, p * p)[..., :: p + 1]
    moved += h * _STENCIL_STEPS
    # Far from zero theta + s h rounds, and the step taken is not the one divided by.
    rounded = np.abs((moved - thetas) - h * _STENCIL_STEPS) > 1e-6 * h * np.abs(_STENCIL_STEPS)
    if rounded.any():
        s, i, l = np.argwhere(rounded)[0]
        raise NumericalError(
            f"difference step h={h} rounds away at theta {thetas[i].tolist()}: parameter {l} "
            f"moves by {moved[s, i, l] - thetas[i, l]} instead of {h * _STENCIL_STEPS[s, 0, 0]}"
        )
    values = np.asarray(f(points))
    value, values = values[:n], values[n:].reshape((4, n, p) + values.shape[1:])
    d_h = (values[0] - values[1]) / (2.0 * h)
    d_hh = (values[2] - values[3]) / h  # the half steps span h
    partials = (4.0 * d_hh - d_h) / 3.0
    return (value, partials) if theta.ndim == 2 else (value[0], partials[0])
