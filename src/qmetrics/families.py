"""Parametric families of density matrices.

A family maps a parameter vector theta to a density matrix, optionally with a
closed-form spectral presentation (eigenvalues plus a *gauged* eigenvector
frame, i.e. a chosen smooth phase section). Tangent data holds the eigenvalue
derivatives dp_i/dtheta^l and the overlap tensor O^(l)_{jk} = <dw_j/dtheta^l | w_k>
that all the metrics downstream are built from. Every built-in family gives
these derivatives exactly (its tangents and its presentation's slopes); any
other family is differenced by the Richardson stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    EigenSystem,
    central_difference,
    eig_hermitian,
    herm_defect,
    sld_solve,
    unitary,
    unitary_slopes,
)


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check shape, finiteness, Hermiticity, unit trace and positivity (within tolerance)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has non-finite entries")
    if herm_defect(rho) > HERM_TOL:
        raise NotHermitian(f"density matrix deviates from Hermitian by {herm_defect(rho):.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > HERM_TOL:
        raise ValidationError(f"density matrix trace is {tr}, expected 1")
    wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if wmin < -HERM_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


@dataclass(frozen=True)
class SpectralPresentation:
    """Eigenvalues p_i and a gauged orthonormal eigenvector frame |w_i> (columns),
    optionally with their exact slopes dp_i/dtheta^l and d|w_i>/dtheta^l."""

    eigenvalues: np.ndarray   # (d,); (n, d) for a stack of points
    eigenvectors: np.ndarray  # (d, d), columns; (n, d, d) for a stack
    eigenvalue_slopes: Optional[np.ndarray] = None   # (p, d); (n, p, d) for a stack
    eigenvector_slopes: Optional[np.ndarray] = None  # (p, d, d); (n, p, d, d) for a stack

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ParametricFamily:
    """Map theta in R^p -> density matrix, with optional spectral presentation.

    domain holds one (lo, hi) bound per parameter, and so fixes the parameter
    count nparams; infinite bounds leave a parameter unconstrained, and an
    empty domain raises ValidationError naming the family. evaluate and
    spectral broadcast over a stack of points: evaluate maps a (p,) parameter
    vector to a (d, d) state and an (n, p) stack to the (n, d, d) stack of
    states; spectral maps (p,) to one SpectralPresentation and (n, p) to one
    with eigenvalues (n, d) and eigenvectors (n, d, d). Row i of a stack
    equals the one-point result at row i of the parameters bit for bit.
    Families are immutable value objects.

    phases, when set, maps an (n, p) stack to the (n, d) real phases alpha_k
    that re-phase column k of spectral's frame by exp(i alpha_k); spectral
    stays un-re-phased, so the two are differenced apart (spectral_tangents).

    tangents, when set, gives the exact tangents d(rho)/d(theta^l): (p, d, d)
    at a (p,) vector, (n, p, d, d) for an (n, p) stack. A family that sets it
    should also give its presentation's slopes (SpectralPresentation's
    eigenvalue_slopes and eigenvector_slopes), which are read only then.
    Without tangents, every derivative comes from the Richardson stencil
    (linalg.central_difference), which stays the oracle of the exact route.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: tuple
    spectral: Optional[Callable[[np.ndarray], SpectralPresentation]] = None
    name: str = ""
    phases: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tangents: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not len(self.domain):
            raise ValidationError(f"family {self.name!r} has an empty domain")

    @property
    def nparams(self) -> int:
        return len(self.domain)

    @cached_property
    def _limits(self) -> tuple:
        """The domain as a pair of (p,) arrays of lower and upper limits."""
        lo, hi = np.array(self.domain, dtype=float).T
        return lo, hi

    def _inside(self, thetas: np.ndarray) -> np.ndarray:
        """Whether each parameter vector (the last axis) lies in the open domain."""
        lo, hi = self._limits
        return ((lo < thetas) & (thetas < hi)).all(axis=-1)

    def _domain_error(self, theta: np.ndarray) -> ParamOutOfDomain:
        return ParamOutOfDomain(f"theta {theta.tolist()} outside domain of {self.name!r}")

    def check_theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.nparams,):
            raise ValidationError(
                f"family {self.name!r} takes {self.nparams} parameters, got {theta.shape}"
            )
        if not self._inside(theta):
            raise self._domain_error(theta)
        return theta

    def check_thetas(self, thetas) -> np.ndarray:
        """An (n, p) stack of parameters, checked as a whole against the
        domain before anything is evaluated: raises what check_theta raises
        for the first bad point."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.nparams:
            raise ValidationError(
                f"family {self.name!r} takes stacks of shape (n, {self.nparams}), got {thetas.shape}"
            )
        outside = np.flatnonzero(~self._inside(thetas))
        if outside.size:
            raise self._domain_error(thetas[outside[0]])
        return thetas

    def rho(self, theta) -> np.ndarray:
        return np.asarray(self.evaluate(self.check_theta(theta)), dtype=complex)

    def rhos(self, thetas) -> np.ndarray:
        """States at an (n, p) stack of parameters, shape (n, d, d), from one
        evaluate call on the stack checked by check_thetas."""
        return self._evaluate_stack(self.check_thetas(thetas))

    def _evaluate_stack(self, thetas: np.ndarray) -> np.ndarray:
        states = np.asarray(self.evaluate(thetas), dtype=complex)
        return _stack_of(self, "evaluate", states, (len(thetas), self.dim, self.dim))

    def point(self, theta) -> "FamilyPoint":
        """The family at theta, checked once. The family keeps what its last
        point computed: asked again at a theta with the same bytes once
        checked (so -0.0 and 0.0 differ), it gives a point that shares it. A
        replaced, gauged or sliced family is a new object and starts empty.
        The last point's theta, of shape (p,), is not checked again: the
        point holds the family's read-only copy of it, which no caller can
        change under the parts kept for it."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        key = theta.tobytes()
        last = self.__dict__.get("_point")
        if last is None or last[0] != key or theta.shape != (self.nparams,):
            theta = self.check_theta(theta).copy()
            _read_only(theta)
            last = self.__dict__["_point"] = (key, theta, {})
        return FamilyPoint(self, last[1], last[2])

    def drho(self, theta) -> np.ndarray:
        """Tangents d(rho)/d(theta^l), shape (p, d, d), read-only (see FamilyPoint.drho)."""
        return self.point(theta).drho


def _stack_of(family: ParametricFamily, what: str, array: np.ndarray, shape: tuple) -> np.ndarray:
    """array, unless a family's (or channel family's) callable gave the wrong shape."""
    if array.shape != shape:
        raise ValidationError(
            f"family {family.name!r}: {what} gives shape {array.shape} for a stack "
            f"of {shape[0]} points, expected {shape}"
        )
    return array


def _stencil_exits(family: ParametricFamily, thetas: np.ndarray) -> np.ndarray:
    """exits[s, i, l]: whether point i of an (n, p) stack, its coordinate l moved by
    step s of (+h, -h) as in central_difference, leaves the open domain."""
    lo, hi = family._limits
    moved = thetas + np.array([DEFAULT_H, -DEFAULT_H])[:, None, None]
    return ~((lo < moved) & (moved < hi))


def _stencil(family: ParametricFamily, f: Callable[[np.ndarray], np.ndarray],
             thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """central_difference of f at checked points of the family, after checking the
    stencil points theta +- h e_l (theta +- (h/2) e_l lie between) against the domain:
    one within DEFAULT_H of a finite bound raises DomainExit, and f is not called."""
    base = np.atleast_2d(thetas)
    outside = np.flatnonzero(_stencil_exits(family, base))
    if outside.size:
        s, i, l = np.unravel_index(outside[0], (2,) + base.shape)
        step = (DEFAULT_H, -DEFAULT_H)[s]
        point = np.where(np.arange(base.shape[1]) == l, base[i, l] + step, base[i])
        raise DomainExit(
            f"the difference stencil of {family.name!r} at theta {base[i].tolist()} "
            f"with step h={DEFAULT_H} leaves the domain at {point.tolist()}"
        )
    return central_difference(f, thetas)


def _states(family: ParametricFamily, thetas: np.ndarray,
            partial: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho (n, d, d), drho (n, p, d, d) and which rows were formed, at an (n, p)
    stack of checked points: the family's tangents, then its states (a
    built-in family's evaluate reuses the frame the tangents came from, see
    _exact), or else one _stencil of the states. A stencil leaving the domain
    raises DomainExit; with partial set, its rows are left zero and unformed."""
    n, p, d = len(thetas), family.nparams, family.dim
    formed = np.ones(n, dtype=bool)
    if family.tangents is not None:
        drho = _stack_of(family, "tangents", np.asarray(family.tangents(thetas), dtype=complex),
                         (n, p, d, d))
        return family._evaluate_stack(thetas), drho, formed
    if partial:
        formed = ~_stencil_exits(family, thetas).any(axis=(0, 2))
    rho, drho = np.zeros((n, d, d), dtype=complex), np.zeros((n, p, d, d), dtype=complex)
    if formed.any():
        rho[formed], drho[formed] = _stencil(family, family._evaluate_stack, thetas[formed])
    return rho, drho, formed


@dataclass(frozen=True)
class TangentData:
    """dp[l, i] = dp_i/dtheta^l; overlaps[l, j, k] = <dw_j/dtheta^l | w_k>."""

    dp: np.ndarray          # (p, d) real
    overlaps: np.ndarray    # (p, d, d) complex
    eigenvalues: np.ndarray  # (d,) at the evaluation point


def spectral_tangents(family: ParametricFamily, thetas: np.ndarray):
    """Spectral tangents at an (n, p) stack of checked points.

    Returns dp (n, p, d), overlaps (n, p, d, d) and the eigenvalues (n, d) at
    the points. A family with tangents takes them from one stacked
    presentation of the points and its slopes, with overlaps (dV)^dagger V.
    Otherwise (or when that presentation carries no slopes) the presentation
    is differenced: one stacked presentation of the points and their 4np
    stencil points. A re-phased family's frame is taken without its phases,
    and the phases alpha are differenced as real functions (one more checked
    stencil), through <d(e^{i a_j} w_j)|e^{i a_k} w_k> = e^{i(a_k - a_j)} O_jk - i delta_jk da_k,
    so its frame is never differenced across the complex phase factors.
    """
    n, p, d = len(thetas), family.nparams, family.dim

    def eigensystems(points):
        # Row 0 of each point holds the eigenvalues, rows 1.. the frame; and the presentation.
        sp = family.spectral(points)
        values = _stack_of(family, "spectral eigenvalues", np.asarray(sp.eigenvalues), (len(points), d))
        frames = _stack_of(family, "spectral eigenvectors", np.asarray(sp.eigenvectors), (len(points), d, d))
        return np.concatenate([values[:, None], frames], axis=1), sp

    sp = None
    if family.tangents is not None:
        at, sp = eigensystems(thetas)
    if sp is None or sp.eigenvalue_slopes is None or sp.eigenvector_slopes is None:
        at, d_stack = _stencil(family, lambda points: eigensystems(points)[0], thetas)
        dp, d_frames = np.real(d_stack[:, :, 0]), d_stack[:, :, 1:]
    else:
        dp = _stack_of(family, "spectral eigenvalue slopes",
                       np.asarray(sp.eigenvalue_slopes, dtype=float), (n, p, d))
        d_frames = _stack_of(family, "spectral eigenvector slopes",
                             np.asarray(sp.eigenvector_slopes, dtype=complex), (n, p, d, d))
    overlaps = d_frames.conj().swapaxes(-1, -2) @ at[:, None, 1:]
    if family.phases is not None:
        a, slopes = _stencil(family, family.phases, thetas)
        overlaps = overlaps * np.exp(1j * (a[:, None, None, :] - a[:, None, :, None]))
        diag = np.arange(family.dim)
        overlaps[..., diag, diag] -= 1j * slopes
    return dp, overlaps, np.real(at[:, 0])


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


class FamilyPoint:
    """A family at one checked point, with what every metric there is built
    from: rho, its tangents and eigensystem, the SLD scores, the tangent data.

    Made by ParametricFamily.point, which checks theta and keeps the parts of
    the family's last point, so the per-name metric calls at one theta share
    them. Each part is computed on first use and kept; a part whose
    computation raises is not kept, so it raises again on the next use. The
    arrays the point hands out are read-only, since later callers share them.
    rho and drho come from _states on the one-point stack: the family's
    tangents at the point alone, or one evaluation of the point and its 4p
    Richardson stencil points, all checked against the domain first.
    """

    __slots__ = ("family", "theta", "__dict__")

    def __init__(self, family: ParametricFamily, theta: np.ndarray, parts: dict):
        self.family = family
        self.theta = theta
        # The cached properties (and metrics._shared, for the terms the
        # metrics at a point have in common) keep each part in the family's
        # parts dict, which holds nothing that refers back to the family: no
        # reference cycle, so a dropped family and its parts are freed at once.
        self.__dict__ = parts

    @cached_property
    def _state(self) -> tuple[np.ndarray, np.ndarray]:
        rho, drho, _ = _states(self.family, self.theta[None])
        _read_only(rho, drho)
        return rho[0], drho[0]

    @property
    def rho(self) -> np.ndarray:
        """The state, shape (d, d)."""
        return self._state[0]

    @property
    def drho(self) -> np.ndarray:
        """Tangents d(rho)/d(theta^l), shape (p, d, d)."""
        return self._state[1]

    @cached_property
    def eig(self) -> EigenSystem:
        """eig_hermitian of rho."""
        es = eig_hermitian(self.rho)
        _read_only(es.values, es.vectors)
        return es

    @cached_property
    def drho_eigenbasis(self) -> np.ndarray:
        """The tangents in rho's eigenbasis, V^dagger drho_l V (sld_solve's product), (p, d, d)."""
        v = self.eig.vectors
        a = v.conj().T @ self.drho @ v
        _read_only(a)
        return a

    @cached_property
    def scores(self) -> np.ndarray:
        """SLD scores L_l of the tangents, shape (p, d, d) (see linalg.sld_solve)."""
        scores = sld_solve(self.eig, self.drho)
        _read_only(scores)
        return scores

    @cached_property
    def tangent_data(self) -> TangentData:
        """Eigenvalue derivatives and eigenvector-derivative overlaps.

        With a spectral presentation they come from the frame itself (its
        exact slopes, or else the frame differenced), so the result reflects
        the family's own gauge (phases are taken as supplied; the closed-form
        presentations used here are smooth by construction); a re-phased
        family takes its frame and its real phases apart (see
        spectral_tangents). Without one, they come from rho's eigensystem and
        tangents (see _perturbative_tangent_data).
        """
        if self.family.spectral is None:
            td = _perturbative_tangent_data(self.eig.values, self.drho_eigenbasis)
        else:
            dp, overlaps, eigenvalues = spectral_tangents(self.family, self.theta[None])
            td = TangentData(dp=dp[0], overlaps=overlaps[0], eigenvalues=eigenvalues[0])
        _read_only(td.dp, td.overlaps, td.eigenvalues)
        return td


def tangent_data(family: ParametricFamily, theta) -> TangentData:
    """Eigenvalue derivatives and eigenvector-derivative overlaps at theta
    (see FamilyPoint.tangent_data)."""
    return family.point(theta).tangent_data


def _perturbative_tangent_data(p: np.ndarray, a: np.ndarray) -> TangentData:
    """Tangent data from rho's eigenvalues p and its (p, d, d) tangents a in
    rho's eigenbasis: eigenvalue derivatives from first-order perturbation
    theory, off-diagonal overlaps <w_j|drho|w_k> / (p_j - p_k), and diagonal
    overlaps zero by the deterministic gauge convention. A degenerate pair
    (j, k) with coupling raises DegeneracyUnresolved; the first such pair in
    row order is named.
    """
    dp = np.real(np.einsum("lii->li", a))
    gap = p[:, None] - p[None, :]
    degenerate = np.abs(gap) < DEGEN_GAP
    coupled = degenerate & ~np.eye(p.size, dtype=bool) & (np.abs(a).max(axis=0) > 1e-8)
    if coupled.any():
        j, k = np.argwhere(coupled)[0]
        raise DegeneracyUnresolved(
            f"eigenvalues {j},{k} degenerate with nonzero coupling and "
            "no spectral presentation supplied"
        )
    overlaps = np.where(degenerate, 0.0, a / np.where(degenerate, 1.0, gap))
    return TangentData(dp=dp, overlaps=overlaps, eigenvalues=p)


def directional_family(family: ParametricFamily, theta, v) -> ParametricFamily:
    """One-parameter slice t -> rho(theta + t v) through a multi-parameter family.

    evaluate, spectral, phases and tangents are each sliced along the same
    line, so a re-phased family's slice stays re-phased; the tangents and the
    presentation's slopes are contracted with v. The slice's domain is the open
    t-interval on which theta + t v stays inside the family's box; a point
    that rounding still carries out of the box raises DomainExit when it is
    evaluated."""
    theta = family.check_theta(theta)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (family.nparams,):
        raise ValidationError(f"direction has shape {v.shape}, expected ({family.nparams},)")
    moving = v != 0.0
    if not np.any(moving):
        raise ValidationError("direction vector must be nonzero")
    # t at which each moving coordinate meets its lower and its upper bound.
    ends = (np.stack(family._limits)[:, moving] - theta[moving]) / v[moving]
    t_domain = (float(ends.min(axis=0).max()), float(ends.max(axis=0).min()))

    def along(tv):
        # One t of shape (1,) or a stack (n, 1), to the points of the family.
        th = theta + np.asarray(tv, dtype=float) * v
        if not family._inside(th).all():
            raise DomainExit("segment leaves the family domain")
        return th

    def sliced(fn):
        return None if fn is None else lambda tv: fn(along(tv))

    def along_v(slopes, matrix_ndim):
        # sum_l v_l slopes_l over the parameter axis, kept as the one axis of t.
        if slopes is None:
            return None
        weights = v.reshape((-1,) + (1,) * matrix_ndim)
        return (weights * slopes).sum(axis=-1 - matrix_ndim, keepdims=True)

    def spectral(tv):
        sp = family.spectral(along(tv))
        return replace(sp, eigenvalue_slopes=along_v(sp.eigenvalue_slopes, 1),
                       eigenvector_slopes=along_v(sp.eigenvector_slopes, 2))

    def tangents(tv):
        return along_v(family.tangents(along(tv)), 2)

    return ParametricFamily(
        dim=family.dim,
        evaluate=sliced(family.evaluate),
        spectral=None if family.spectral is None else spectral,
        domain=(t_domain,),
        name=f"{family.name}@dir",
        phases=sliced(family.phases),
        tangents=None if family.tangents is None else tangents,
    )


# ---------------------------------------------------------------------------
# Built-in families


def _exact(spectral: Callable[[np.ndarray], SpectralPresentation],
           evaluate: Optional[Callable[[np.ndarray, Optional[SpectralPresentation]], np.ndarray]] = None,
           ) -> dict:
    """The spectral and tangents fields of a built-in family rho = V P V^dagger
    from its presentation with slopes: tangents dV P V^dagger + V dP V^dagger + V P dV^dagger.

    The presentation of the last stack asked for is kept, read-only, so a
    point's tangents and its presentation come from one computation. evaluate,
    when given, becomes the evaluate field: it is called with the stack and
    the kept presentation when that is of the same stack (None otherwise), so
    a state whose frame costs a decomposition takes it from there."""
    last = [None]

    def kept(th):
        entry = last[0]
        return entry[1] if entry is not None and entry[0] == (th.shape, th.tobytes()) else None

    def presented(th):
        th = np.asarray(th, dtype=float)
        sp = kept(th)
        if sp is None:
            sp = spectral(th)
            _read_only(sp.eigenvalues, sp.eigenvectors, sp.eigenvalue_slopes, sp.eigenvector_slopes)
            last[0] = (th.shape, th.tobytes()), sp
        return sp

    def evaluated(th):
        th = np.asarray(th, dtype=float)
        return evaluate(th, kept(th))

    def tangents(th):
        # (dV P + V dP / 2) V^dagger plus its adjoint: Hermitian by construction.
        sp = presented(th)
        v = sp.eigenvectors[..., None, :, :]
        x = (sp.eigenvector_slopes * sp.eigenvalues[..., None, None, :]
             + v * (sp.eigenvalue_slopes[..., None, :] / 2)) @ v.conj().swapaxes(-1, -2)
        return x + x.conj().swapaxes(-1, -2)

    fields = {"spectral": presented, "tangents": tangents}
    if evaluate is not None:
        fields["evaluate"] = evaluated
    return fields


# bloch3's frame slopes along (r, theta, phi) are L_l V R_l: 0, V J and S V,
# with J = [[0, 1/2], [-1/2, 0]] and S = diag(-i/2, i/2).
_BLOCH3_LEFT = np.array([np.zeros((2, 2)), np.eye(2), np.diag([-0.5j, 0.5j])])
_BLOCH3_RIGHT = np.array([np.eye(2), [[0.0, 0.5], [-0.5, 0.0]], np.eye(2)])
# The rotation generator of the rotating families: d/dt R(t) = R(t) Z.
_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def bloch3() -> ParametricFamily:
    """Two-level family rho(r, theta, phi) with the half-angle eigenvector frame.

    Eigenvalues (1+r)/2, (1-r)/2; frame
      w1 = (cos(t/2) e^{-i phi/2},  sin(t/2) e^{i phi/2}),
      w2 = (sin(t/2) e^{-i phi/2}, -cos(t/2) e^{i phi/2}),
    with its trigonometric slopes, so no derivative leaves the point: the
    tangents exist up to the bound r -> 1.
    """

    def evaluate(th):
        r, t, phi = np.asarray(th, dtype=float).T
        z, off = r * np.cos(t), r * np.sin(t)
        return 0.5 * _matrices(1 + z, off * np.exp(-1j * phi), off * np.exp(1j * phi), 1 - z)

    def spectral(th):
        r, t, phi = np.asarray(th, dtype=float).T
        c, s = np.cos(t / 2), np.sin(t / 2)
        em, ep = np.exp(-1j * phi / 2), np.exp(1j * phi / 2)
        frame = _matrices(c * em, s * em, s * ep, -c * ep)
        return SpectralPresentation(
            eigenvalues=np.stack([(1 + r) / 2, (1 - r) / 2], axis=-1),
            eigenvectors=frame,
            eigenvalue_slopes=_constant(np.array([[0.5, -0.5], [0.0, 0.0], [0.0, 0.0]]), th),
            eigenvector_slopes=_BLOCH3_LEFT @ frame[..., None, :, :] @ _BLOCH3_RIGHT,
        )

    return ParametricFamily(
        dim=2,
        evaluate=evaluate,
        domain=((0.0, 1.0), (-math.inf, math.inf), (-math.inf, math.inf)),
        name="bloch3",
        **_exact(spectral),
    )


def _matrices(a, b, c, d) -> np.ndarray:
    """The complex 2x2 matrices [[a, b], [c, d]] over the broadcast shape of the entries."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _constant(values: np.ndarray, th) -> np.ndarray:
    """values, repeated over the points of a (p,) vector or an (n, p) stack."""
    out = np.empty(np.shape(th)[:-1] + values.shape, dtype=values.dtype)
    out[...] = values
    return out


def _rotation_family(p, name: str) -> ParametricFamily:
    """One-parameter family with the constant spectrum p over the frame that
    rotates its last two eigenvectors by t; its state is V P V^dagger of the
    presentation."""
    p = np.asarray(p, dtype=float)

    def spectral(th):
        t = np.asarray(th, dtype=float)[..., 0]
        v = _constant(np.eye(p.size, dtype=complex), th)
        v[..., -2:, -2:] = _matrices(np.cos(t), -np.sin(t), np.sin(t), np.cos(t))
        slopes = np.zeros_like(v)
        slopes[..., -2:, -2:] = v[..., -2:, -2:] @ _ROTATION
        return SpectralPresentation(eigenvalues=_constant(p, th), eigenvectors=v,
                                    eigenvalue_slopes=_constant(np.zeros((1, p.size)), th),
                                    eigenvector_slopes=slopes[..., None, :, :])

    def evaluate(th, sp):
        return (spectral(th) if sp is None else sp).reconstruct()

    return ParametricFamily(dim=p.size, domain=((-math.inf, math.inf),), name=name,
                            **_exact(spectral, evaluate))


def rot3_mixture(epsilon: float = 0.1) -> ParametricFamily:
    """Qutrit mixture (1-2e)|v1><v1| + e|v2><v2| + e|v3><v3| with v2, v3
    rotating in the lower block. Eigenvalues are constant and degenerate in
    the rotating pair; the closed-form frame keeps the overlaps finite."""
    if not (0.0 < epsilon < 1.0 / 3.0):
        raise ParamOutOfDomain(f"epsilon must lie in (0, 1/3), got {epsilon}")
    return _rotation_family([1.0 - 2.0 * epsilon, epsilon, epsilon], "rot3-mixture")


def pure_rotation() -> ParametricFamily:
    """Rank-1 family |w(t)><w(t)| with w = (cos t, sin t)."""
    return _rotation_family([1.0, 0.0], "pure-rotation")


def diagonal_simplex() -> ParametricFamily:
    """Commuting family diag((1+t)/2, (1-t)/2)."""

    def evaluate(th):
        t = np.asarray(th, dtype=float)[..., 0]
        return _matrices((1 + t) / 2, 0.0, 0.0, (1 - t) / 2)

    def spectral(th):
        t = np.asarray(th, dtype=float)[..., 0]
        return SpectralPresentation(
            eigenvalues=np.stack([(1 + t) / 2, (1 - t) / 2], axis=-1),
            eigenvectors=_constant(np.eye(2, dtype=complex), th),
            eigenvalue_slopes=_constant(np.array([[0.5, -0.5]]), th),
            eigenvector_slopes=_constant(np.zeros((1, 2, 2), dtype=complex), th),
        )

    return ParametricFamily(
        dim=2, evaluate=evaluate,
        domain=((-1.0, 1.0),), name="diagonal-simplex", **_exact(spectral),
    )


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (x + x.conj().T) / 2.0
    return h / max(np.linalg.norm(h, 2), 1e-12)


def _random_frame_family(rng: np.random.Generator, d: int, nparams: int, name: str,
                         spectrum: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                         ) -> ParametricFamily:
    """The family V P V^dagger over its trace, with the frame
    V = exp(-i (H0 + sum_l t_l G_l)) and H0, G_l drawn next from rng.
    spectrum maps a (p,) vector or an (n, p) stack to P and its slopes dP,
    shapes (..., d) and (..., p, d); the frame's slopes come from one eigh of
    H0 + sum_l t_l G_l (linalg.unitary_slopes)."""
    h0 = _random_hermitian(rng, d)
    gens = np.array([_random_hermitian(rng, d) for _ in range(nparams)])

    def generator(th):
        return h0 + sum(th[..., l, None, None] * g for l, g in enumerate(gens))

    def spectral(th):
        p, dp = spectrum(th)
        v, dv = unitary_slopes(generator(th), gens)
        return SpectralPresentation(eigenvalues=p, eigenvectors=v,
                                    eigenvalue_slopes=dp, eigenvector_slopes=dv)

    def evaluate(th, sp):
        if sp is None:  # a kept frame is unitary(generator(th))'s bits (linalg.unitary_slopes)
            sp = SpectralPresentation(spectrum(th)[0], unitary(generator(th)))
        rho = sp.reconstruct()
        # The frame is unitary only to ~d eps; differencing would amplify the
        # resulting trace error past the traceless-tangent check.
        return rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None]

    return ParametricFamily(dim=d, domain=((-math.inf, math.inf),) * nparams,
                            name=name, **_exact(spectral, evaluate))


def random_full_rank(d: int = 3, nparams: int = 1, seed: int = 0) -> ParametricFamily:
    """Smooth random family with a closed-form spectral presentation.

    The spectrum is the normalised geometric sequence lam_k ~ exp(-c k) plus
    a smooth wiggle of amplitude min(0.004, lam_k (1 - e^-c) / 2), 0.004 when
    d <= 4: eigenvalues stay above lam_k / 2 and apart by lam_k (1 - e^-c)^2 / 2,
    so the state is positive with a descending spectrum for every d. The
    frame is the unitary exp(-i (H0 + sum_l t_l G_l)).
    The presentation carries exact slopes: the wiggle's in closed form, and
    the frame's from one eigh of H0 + sum_l t_l G_l (linalg.unitary_slopes).
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.6, 1.4))
    lam = np.exp(-c * np.arange(d))
    lam = lam / lam.sum()
    b = rng.uniform(0.5, 2.0, size=(d, nparams))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=d)
    amp = np.minimum(0.004, lam * (1.0 - np.exp(-c)) / 2.0)

    def spectrum(th):
        # The normalised wiggled spectrum p = q / sum q and its slopes
        # (dq - p sum dq) / sum q, with dq_l = amp cos(arg) b[:, l].
        arg = (b @ th[..., None])[..., 0] + phase
        q = lam + amp * np.sin(arg)
        total = q.sum(axis=-1, keepdims=True)
        p = q / total
        dq = amp * np.cos(arg)[..., None, :] * b.T
        return p, (dq - p[..., None, :] * dq.sum(axis=-1, keepdims=True)) / total[..., None, :]

    return _random_frame_family(rng, d, nparams, f"random-full-rank-{d}-{seed}", spectrum)


def random_pure(d: int = 3, nparams: int = 1, seed: int = 0) -> ParametricFamily:
    """Rank-1 family |psi(theta)><psi(theta)|, psi the first column of a
    random rotating frame, with the frame's exact slopes (see random_full_rank)."""
    e0 = np.eye(d)[0]
    return _random_frame_family(np.random.default_rng(seed), d, nparams, f"random-pure-{d}-{seed}",
                                lambda th: (_constant(e0, th), _constant(np.zeros((nparams, d)), th)))


_REGISTRY = {
    "bloch3": lambda param: bloch3(),
    "rot3-mixture": lambda param: rot3_mixture(param("epsilon", float, 0.1)),
    "pure-rotation": lambda param: pure_rotation(),
    "diagonal-simplex": lambda param: diagonal_simplex(),
    "random-full-rank": lambda param: random_full_rank(
        d=param("d", int, 3, least=1),
        nparams=param("nparams", int, 1, least=1),
        seed=param("seed", int, 0, least=0),
    ),
}
REGISTRY_NAMES = tuple(_REGISTRY)


def family_registry(name: str, params: dict | None = None) -> ParametricFamily:
    """Build a named family from a parameter dictionary (CLI entry point).

    A parameter that does not convert to its type (a bool never does, nor a
    non-integral number to int), or an integer below its least value, raises
    ValidationError naming the family and the key. So does a key that the
    family does not take, with the keys it does take."""
    build = _REGISTRY.get(name)
    if build is None:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(REGISTRY_NAMES)}")
    params = dict(params or {})
    taken = []

    def param(key, convert, default, least=None):
        taken.append(key)
        raw = params.get(key, default)
        try:
            value = convert(raw)
            # int() would truncate 2.5 to 2 and read true as 1.
            if isinstance(raw, bool) or (convert is int and not isinstance(raw, str) and value != raw):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"family {name!r}: parameter {key!r} must be {convert.__name__}, got {params[key]!r}"
            ) from None
        if least is not None and value < least:
            raise ValidationError(f"family {name!r}: parameter {key!r} must be >= {least}, got {value}")
        return value

    family = build(param)
    unknown = next((key for key in params if key not in taken), None)
    if unknown is not None:
        takes = ", ".join(taken) or "none"
        raise ValidationError(f"family {name!r}: unknown parameter {unknown!r}; it takes {takes}")
    return family
