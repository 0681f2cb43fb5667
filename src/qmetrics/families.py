"""Parametric families of density matrices.

A family maps a parameter vector theta to a density matrix, optionally with a
closed-form spectral presentation (eigenvalues plus a *gauged* eigenvector
frame, i.e. a chosen smooth phase section). Tangent data holds the eigenvalue
derivatives dp_i/dtheta^l and the overlap tensor O^(l)_{jk} = <dw_j/dtheta^l | w_k>
that all the metrics downstream are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegeneracyUnresolved,
    DomainExit,
    NotHermitian,
    ParamOutOfDomain,
    UnknownFamily,
    ValidationError,
)
from .linalg import (
    DEFAULT_H,
    DEGEN_GAP,
    HERM_TOL,
    central_difference,
    eig_hermitian,
    herm_defect,
    unitary,
)


def validate_density(rho: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity (within tolerance)."""
    rho = np.asarray(rho, dtype=complex)
    if herm_defect(rho) > tol:
        raise NotHermitian(f"density matrix deviates from Hermitian by {herm_defect(rho):.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"density matrix trace is {tr}, expected 1")
    wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if wmin < -tol:
        raise ValidationError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


@dataclass(frozen=True)
class SpectralPresentation:
    """Eigenvalues p_i and a gauged orthonormal eigenvector frame |w_i> (columns)."""

    eigenvalues: np.ndarray   # (d,)
    eigenvectors: np.ndarray  # (d, d), columns

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class ParametricFamily:
    """Map theta in R^p -> density matrix, with optional spectral presentation.

    domain holds per-parameter (lo, hi) bounds; infinite bounds mean the
    parameter is unconstrained, and an empty domain leaves every parameter
    unconstrained. evaluate_many, when given, maps an (n, p) stack of
    parameters to the (n, d, d) stack of states evaluate gives one by one.
    Families are immutable value objects.
    """

    dim: int
    nparams: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    spectral: Optional[Callable[[np.ndarray], SpectralPresentation]] = None
    domain: tuple = ()
    name: str = ""
    evaluate_many: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def bounds(self) -> tuple:
        """Per-parameter (lo, hi), unbounded where the domain is empty."""
        return self.domain or ((-math.inf, math.inf),) * self.nparams

    @cached_property
    def _limits(self) -> np.ndarray:
        """The bounds as a (2, p) array of lower and upper limits."""
        return np.array(self.bounds, dtype=float).T

    def _inside(self, thetas: np.ndarray) -> np.ndarray:
        """Whether each parameter vector (the last axis) lies in the open domain."""
        lo, hi = self._limits
        return ((lo < thetas) & (thetas < hi)).all(axis=-1)

    def in_domain(self, theta: np.ndarray) -> bool:
        return bool(self._inside(np.atleast_1d(np.asarray(theta, dtype=float))))

    def _domain_error(self, theta: np.ndarray) -> ParamOutOfDomain:
        return ParamOutOfDomain(f"theta {theta.tolist()} outside domain of {self.name!r}")

    def check_theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.nparams,):
            raise ValidationError(
                f"family {self.name!r} takes {self.nparams} parameters, got {theta.shape}"
            )
        if not self.in_domain(theta):
            raise self._domain_error(theta)
        return theta

    def rho(self, theta) -> np.ndarray:
        return np.asarray(self.evaluate(self.check_theta(theta)), dtype=complex)

    def rhos(self, thetas) -> np.ndarray:
        """States at an (n, p) stack of parameters, shape (n, d, d).

        The whole stack is checked against the domain before anything is
        evaluated, raising what rho raises for the first bad point. Uses
        evaluate_many when the family has it, else evaluates point by point.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.nparams:
            raise ValidationError(
                f"family {self.name!r} takes stacks of shape (n, {self.nparams}), got {thetas.shape}"
            )
        outside = np.flatnonzero(~self._inside(thetas))
        if outside.size:
            raise self._domain_error(thetas[outside[0]])
        return self._evaluate_stack(thetas)

    def _evaluate_stack(self, thetas: np.ndarray) -> np.ndarray:
        if self.evaluate_many is None:
            return np.array([self.evaluate(theta) for theta in thetas], dtype=complex)
        return np.asarray(self.evaluate_many(thetas), dtype=complex)

    def drho(self, theta, h: float = DEFAULT_H) -> np.ndarray:
        """Tangents d(rho)/d(theta^l) via central differences, shape (p, d, d)."""
        theta = self.check_theta(theta)
        out = np.empty((self.nparams, self.dim, self.dim), dtype=complex)
        for l in range(self.nparams):
            def along(t, l=l):
                th = theta.copy()
                th[l] = t
                return self.evaluate(th)

            out[l] = central_difference(along, theta[l], h=h)
        return out


@dataclass(frozen=True)
class TangentData:
    """dp[l, i] = dp_i/dtheta^l; overlaps[l, j, k] = <dw_j/dtheta^l | w_k>."""

    dp: np.ndarray          # (p, d) real
    overlaps: np.ndarray    # (p, d, d) complex
    eigenvalues: np.ndarray  # (d,) at the evaluation point


def tangent_data(family: ParametricFamily, theta, h: float = DEFAULT_H) -> TangentData:
    """Eigenvalue derivatives and eigenvector-derivative overlaps at theta.

    With a spectral presentation the frame is differenced directly, so the
    result reflects the family's own gauge (phases are taken as supplied; the
    closed-form presentations used here are smooth by construction). Without
    one, eigenvalue derivatives come from first-order perturbation theory,
    off-diagonal overlaps from <w_j|drho|w_k> / (p_j - p_k), and diagonal
    overlaps are zero by the deterministic gauge convention.
    """
    theta = family.check_theta(theta)
    p_n, d = family.nparams, family.dim
    if family.spectral is not None:
        sp0 = family.spectral(theta)
        w0 = sp0.eigenvectors
        dp = np.empty((p_n, d))
        overlaps = np.empty((p_n, d, d), dtype=complex)
        for l in range(p_n):
            def along(t, l=l):
                th = theta.copy()
                th[l] = t
                sp = family.spectral(th)
                return np.vstack([sp.eigenvalues, sp.eigenvectors])

            # Row 0 differences the eigenvalues, rows 1.. the frame.
            d_stack = central_difference(along, theta[l], h=h)
            dp[l] = np.real(d_stack[0])
            overlaps[l] = d_stack[1:].conj().T @ w0
        return TangentData(dp=dp, overlaps=overlaps, eigenvalues=np.asarray(sp0.eigenvalues, float))

    es = eig_hermitian(family.rho(theta))
    p = es.values
    v = es.vectors
    tangents = family.drho(theta, h=h)
    a = np.einsum("ij,ljk,km->lim", v.conj().T, tangents, v)
    dp = np.real(np.einsum("lii->li", a))
    overlaps = np.zeros((p_n, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            if j == k:
                continue
            gap = p[j] - p[k]
            if abs(gap) < DEGEN_GAP:
                if np.max(np.abs(a[:, j, k])) > 1e-8:
                    raise DegeneracyUnresolved(
                        f"eigenvalues {j},{k} degenerate with nonzero coupling and "
                        "no spectral presentation supplied"
                    )
                continue
            overlaps[:, j, k] = a[:, j, k] / gap
    return TangentData(dp=dp, overlaps=overlaps, eigenvalues=p)


def directional_family(family: ParametricFamily, theta, v, h: float = DEFAULT_H) -> ParametricFamily:
    """One-parameter slice t -> rho(theta + t v) through a multi-parameter family."""
    theta = family.check_theta(theta)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (family.nparams,):
        raise ValidationError(f"direction has shape {v.shape}, expected ({family.nparams},)")
    if not np.any(v != 0.0):
        raise ValidationError("direction vector must be nonzero")
    for t in (-h, h):
        if not family.in_domain(theta + t * v):
            raise DomainExit("segment leaves the family domain")

    def evaluate(tv):
        # One t of shape (1,) or a stack (n, 1).
        th = theta + np.asarray(tv, dtype=float) * v
        if not family._inside(th).all():
            raise DomainExit("segment leaves the family domain")
        return family.evaluate(th) if th.ndim == 1 else family._evaluate_stack(th)

    spectral = None
    if family.spectral is not None:
        def spectral(tv, _sp=family.spectral):
            t = float(np.atleast_1d(tv)[0])
            return _sp(theta + t * v)

    return ParametricFamily(
        dim=family.dim,
        nparams=1,
        evaluate=evaluate,
        spectral=spectral,
        domain=((-math.inf, math.inf),),
        name=f"{family.name}@dir",
        evaluate_many=evaluate,
    )


# ---------------------------------------------------------------------------
# Built-in families


def bloch3() -> ParametricFamily:
    """Two-level family rho(r, theta, phi) with the half-angle eigenvector frame.

    Eigenvalues (1+r)/2, (1-r)/2; frame
      w1 = (cos(t/2) e^{-i phi/2},  sin(t/2) e^{i phi/2}),
      w2 = (sin(t/2) e^{-i phi/2}, -cos(t/2) e^{i phi/2}).
    """

    def evaluate(th):
        # One parameter vector (3,) or a stack (n, 3).
        r, t, phi = np.asarray(th, dtype=float).T
        z, off = r * np.cos(t), r * np.sin(t)
        out = np.empty(np.shape(r) + (2, 2), dtype=complex)
        out[..., 0, 0] = 1 + z
        out[..., 0, 1] = off * np.exp(-1j * phi)
        out[..., 1, 0] = off * np.exp(1j * phi)
        out[..., 1, 1] = 1 - z
        return 0.5 * out

    def spectral(th):
        r, t, phi = th
        c, s = math.cos(t / 2), math.sin(t / 2)
        em, ep = np.exp(-1j * phi / 2), np.exp(1j * phi / 2)
        w = np.array([[c * em, s * em], [s * ep, -c * ep]], dtype=complex)
        return SpectralPresentation(
            eigenvalues=np.array([(1 + r) / 2, (1 - r) / 2]),
            eigenvectors=w,
        )

    return ParametricFamily(
        dim=2,
        nparams=3,
        evaluate=evaluate,
        spectral=spectral,
        domain=((0.0, 1.0), (-math.inf, math.inf), (-math.inf, math.inf)),
        name="bloch3",
        evaluate_many=evaluate,
    )


def rot3_mixture(epsilon: float = 0.1) -> ParametricFamily:
    """Qutrit mixture (1-2e)|v1><v1| + e|v2><v2| + e|v3><v3| with v2, v3
    rotating in the lower block. Eigenvalues are constant and degenerate in
    the rotating pair; the closed-form frame keeps the overlaps finite."""
    if not (0.0 < epsilon < 1.0 / 3.0):
        raise ParamOutOfDomain(f"epsilon must lie in (0, 1/3), got {epsilon}")

    def frame(t):
        c, s = math.cos(t), math.sin(t)
        return np.array(
            [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]], dtype=complex
        )

    p = np.array([1.0 - 2.0 * epsilon, epsilon, epsilon])

    def evaluate(th):
        v = frame(float(th[0]))
        return (v * p) @ v.conj().T

    def spectral(th):
        return SpectralPresentation(eigenvalues=p.copy(), eigenvectors=frame(float(th[0])))

    return ParametricFamily(
        dim=3, nparams=1, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),), name="rot3-mixture",
    )


def pure_rotation() -> ParametricFamily:
    """Rank-1 family |w(t)><w(t)| with w = (cos t, sin t)."""

    def frame(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def evaluate(th):
        w = frame(float(th[0]))[:, 0]
        return np.outer(w, w.conj())

    def spectral(th):
        return SpectralPresentation(
            eigenvalues=np.array([1.0, 0.0]), eigenvectors=frame(float(th[0]))
        )

    return ParametricFamily(
        dim=2, nparams=1, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),), name="pure-rotation",
    )


def diagonal_simplex() -> ParametricFamily:
    """Commuting family diag((1+t)/2, (1-t)/2)."""

    def evaluate(th):
        t = float(th[0])
        return np.diag([(1 + t) / 2, (1 - t) / 2]).astype(complex)

    def spectral(th):
        t = float(th[0])
        return SpectralPresentation(
            eigenvalues=np.array([(1 + t) / 2, (1 - t) / 2]),
            eigenvectors=np.eye(2, dtype=complex),
        )

    return ParametricFamily(
        dim=2, nparams=1, evaluate=evaluate, spectral=spectral,
        domain=((-1.0, 1.0),), name="diagonal-simplex",
    )


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (x + x.conj().T) / 2.0
    return h / max(np.linalg.norm(h, 2), 1e-12)


def random_full_rank(d: int = 3, nparams: int = 1, seed: int = 0) -> ParametricFamily:
    """Smooth random full-rank family with a closed-form spectral presentation.

    Spectrum is geometric (bounded away from zero and from degeneracy) with a
    small smooth wiggle; the frame is the unitary exp(-i (H0 + sum_l t_l G_l)).
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.6, 1.4))
    lam = np.exp(-c * np.arange(d))
    lam = lam / lam.sum()
    b = rng.uniform(0.5, 2.0, size=(d, nparams))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=d)
    amp = 0.004
    h0 = _random_hermitian(rng, d)
    gens = [_random_hermitian(rng, d) for _ in range(nparams)]

    def probs(th):
        q = lam + amp * np.sin(b @ th + phase)
        return q / q.sum()

    def frame(th):
        return unitary(h0 + sum(t * g for t, g in zip(th, gens)))

    def evaluate(th):
        v = frame(th)
        rho = (v * probs(th)) @ v.conj().T
        # The frame is unitary only to ~d eps; differencing would amplify the
        # resulting trace error past the traceless-tangent check.
        return rho / np.real(np.trace(rho))

    def evaluate_many(ths):
        # evaluate's arithmetic on a stack, in the same order, so each state
        # is the same bits. One broadcasting form could serve both, but its
        # indexing overhead cut the points benchmark's ops/s by 8% (ten
        # pairs, 2-vCPU x86 host), which evaluates one point at a time.
        v = unitary(h0 + sum(ths[:, l, None, None] * g for l, g in enumerate(gens)))
        q = lam + amp * np.sin((b @ ths[:, :, None])[:, :, 0] + phase)
        q = q / q.sum(axis=1, keepdims=True)
        rho = (v * q[:, None, :]) @ v.conj().swapaxes(1, 2)
        return rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]

    def spectral(th):
        return SpectralPresentation(eigenvalues=probs(th), eigenvectors=frame(th))

    return ParametricFamily(
        dim=d, nparams=nparams, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),) * nparams, name=f"random-full-rank-{d}-{seed}",
        evaluate_many=evaluate_many,
    )


def random_pure(d: int = 3, nparams: int = 1, seed: int = 0) -> ParametricFamily:
    """Rank-1 family |psi(theta)><psi(theta)| carried by a random rotating frame."""
    rng = np.random.default_rng(seed)
    h0 = _random_hermitian(rng, d)
    gens = [_random_hermitian(rng, d) for _ in range(nparams)]
    p = np.zeros(d)
    p[0] = 1.0

    def frame(th):
        return unitary(h0 + sum(t * g for t, g in zip(th, gens)))

    def evaluate(th):
        psi = frame(th)[:, 0]
        # Normalised because the frame is unitary only to ~d eps (see above).
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    def spectral(th):
        return SpectralPresentation(eigenvalues=p.copy(), eigenvectors=frame(th))

    return ParametricFamily(
        dim=d, nparams=nparams, evaluate=evaluate, spectral=spectral,
        domain=((-math.inf, math.inf),) * nparams, name=f"random-pure-{d}-{seed}",
    )


_REGISTRY = {
    "bloch3": lambda params: bloch3(),
    "rot3-mixture": lambda params: rot3_mixture(float(params.get("epsilon", 0.1))),
    "pure-rotation": lambda params: pure_rotation(),
    "diagonal-simplex": lambda params: diagonal_simplex(),
    "random-full-rank": lambda params: random_full_rank(
        d=int(params.get("d", 3)),
        nparams=int(params.get("nparams", 1)),
        seed=int(params.get("seed", 0)),
    ),
}
REGISTRY_NAMES = tuple(_REGISTRY)


def family_registry(name: str, params: dict | None = None) -> ParametricFamily:
    """Build a named family from a parameter dictionary (CLI entry point)."""
    build = _REGISTRY.get(name)
    if build is None:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(REGISTRY_NAMES)}")
    return build(dict(params or {}))
