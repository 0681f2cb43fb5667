"""Scalar and matrix quantum informations.

Two deliberately independent computation routes are kept side by side:

* a generic engine driven by a symmetric (-1)-homogeneous coefficient
  function c(x, y) evaluated on the eigenbasis tangent components, and
* definition-specific formulas (score-operator solve for the SLD route,
  overlap sums for the presentation-based informations).

The overlap-based informations come in a gauge-dependent flavour (needs the
family's spectral presentation) and a gauge-invariant lower bound, plus the
decomposition of the latter into classical Fisher of the spectrum and a
weighted sum of pure-state informations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegeneracyUnresolved,
    MissingGauge,
    NotHermitian,
    RankDeficient,
    UnknownMetric,
    UnsupportedTangent,
    ValidationError,
    VanishingProbabilityWithFlow,
)
from .families import ParametricFamily, TangentData, tangent_data
from .linalg import (
    DEFAULT_H,
    DEGEN_GAP,
    HERM_TOL,
    RANK_TOL,
    eig_hermitian,
    herm_defect,
    sld_solve,
)


# ---------------------------------------------------------------------------
# Coefficient functions


@dataclass(frozen=True)
class CFunction:
    """Symmetric, (-1)-homogeneous coefficient c(x, y) with f(t) = 1/c(t, 1).

    The constant multiplying the classical (diagonal) block is 1 for every
    named information; the engine accepts other values.
    """

    name: str
    c: Callable[[float, float], float]
    f: Callable[[float], float]
    C: float = 1.0
    full_rank_required: bool = False
    singular_at_equal_args: bool = False


def _c_kmb(x: float, y: float) -> float:
    if abs(x - y) <= 1e-9 * max(x, y):
        return 1.0 / x
    return (math.log(x) - math.log(y)) / (x - y)


def _f_kmb(t: float) -> float:
    if abs(t - 1.0) < 1e-12:
        return 1.0
    return (t - 1.0) / math.log(t)


CF_SLD = CFunction("sld", c=lambda x, y: 2.0 / (x + y), f=lambda t: (1.0 + t) / 2.0)
CF_KMB = CFunction("kmb", c=_c_kmb, f=_f_kmb, full_rank_required=True)
CF_RLD = CFunction(
    "rld",
    c=lambda x, y: 0.5 * (1.0 / x + 1.0 / y),
    f=lambda t: 2.0 * t / (1.0 + t),
    full_rank_required=True,
)
# Coefficient of the gauge-invariant lower bound; diverges on coincident
# eigenvalues, where the overlap form must be used instead.
CF_CL = CFunction(
    "cl",
    c=lambda x, y: 2.0 * (x + y) / (x - y) ** 2,
    f=lambda t: (t - 1.0) ** 2 / (2.0 * (1.0 + t)),
    singular_at_equal_args=True,
)

C_FUNCTIONS = {cf.name: cf for cf in (CF_SLD, CF_KMB, CF_RLD, CF_CL)}


# ---------------------------------------------------------------------------
# Measurements


def validate_povm(povm: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Check a POVM and return its elements stacked, shape (m, d, d)."""
    elements = [np.asarray(m, dtype=complex) for m in povm]
    if not elements:
        raise ValidationError("POVM must have at least one element")
    d = elements[0].shape[0]
    if dim is not None and d != dim:
        raise ValidationError(f"POVM dimension {d} does not match state dimension {dim}")
    total = np.zeros((d, d), dtype=complex)
    for m in elements:
        if m.shape != (d, d):
            raise ValidationError(f"POVM element has shape {m.shape}, expected ({d}, {d})")
        if herm_defect(m) > HERM_TOL:
            raise NotHermitian("POVM element is not Hermitian")
        if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < -1e-10:
            raise ValidationError("POVM element is not positive semidefinite")
        total += m
    if np.max(np.abs(total - np.eye(d))) > 1e-9:
        raise ValidationError("POVM elements do not sum to the identity")
    return np.array(elements)


def random_povm(d: int, n_outcomes: int, seed: int = 0) -> list[np.ndarray]:
    """Random informationally scrambled POVM: normalized random PSD elements."""
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(x @ x.conj().T)
    total = sum(raw)
    es = eig_hermitian(total)
    inv_sqrt = (es.vectors / np.sqrt(es.values)) @ es.vectors.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in raw]


def basis_povm(d: int) -> list[np.ndarray]:
    """Computational-basis projectors."""
    eye = np.eye(d, dtype=complex)
    return [np.outer(eye[:, i], eye[:, i].conj()) for i in range(d)]


def born_probabilities(rho: np.ndarray, povm: Sequence[np.ndarray]) -> np.ndarray:
    """Outcome probabilities Re tr(rho M_m), clamped at zero.

    rho may be a stack (..., d, d) of states; the result is (..., m).
    """
    p = np.real(np.einsum("...ij,mji->...m", rho, np.asarray(povm, dtype=complex)))
    return np.clip(p, 0.0, None)


def classical_fisher(
    family: ParametricFamily,
    theta,
    povm: Sequence[np.ndarray],
    h: float = DEFAULT_H,
) -> np.ndarray:
    """Fisher information matrix of the measured outcome distribution.

    Born probabilities are linear in rho, so their derivatives are
    Re tr(drho_l M_m) from the state tangents; outcomes with vanishing
    probability contribute zero only if their derivative also vanishes.
    """
    theta = family.check_theta(theta)
    elements = validate_povm(povm, family.dim)
    p0 = born_probabilities(family.rho(theta), elements)
    dp = np.real(np.einsum("lij,mji->lm", family.drho(theta, h=h), elements))

    fisher = np.zeros((family.nparams, family.nparams))
    for m, p in enumerate(p0):
        if p <= 1e-12:
            if np.max(np.abs(dp[:, m])) > 1e-9:
                raise VanishingProbabilityWithFlow(
                    f"outcome {m} has zero probability but nonzero derivative"
                )
            continue
        fisher += np.outer(dp[:, m], dp[:, m]) / p
    return (fisher + fisher.T) / 2.0


# ---------------------------------------------------------------------------
# Generic coefficient-function engine


def mc_metric(
    family: ParametricFamily,
    theta,
    cf: CFunction,
    h: float = DEFAULT_H,
) -> np.ndarray:
    """Information matrix from the eigenbasis quadratic form.

    In the eigenbasis of rho(theta), with tangents A^(k) = d rho / d theta^k:

        M_kl = C sum_i A^(k)_ii A^(l)_ii / p_i
             + 2 sum_{j<m} c(p_j, p_m) Re(A^(k)_jm conj(A^(l)_jm)).
    """
    theta = family.check_theta(theta)
    rho = family.rho(theta)
    es = eig_hermitian(rho)
    p = np.clip(es.values, 0.0, None)
    if cf.full_rank_required and float(es.values.min()) < RANK_TOL:
        raise RankDeficient(f"{cf.name} information requires a full-rank state")
    tangents = family.drho(theta, h=h)
    v = es.vectors
    a = np.einsum("ij,ljk,km->lim", v.conj().T, tangents, v)
    diag = np.real(np.einsum("lii->li", a))
    d = family.dim
    m_out = np.zeros((family.nparams, family.nparams))
    for i in range(d):
        if p[i] > RANK_TOL:
            m_out += cf.C * np.outer(diag[:, i], diag[:, i]) / p[i]
        elif np.max(np.abs(diag[:, i])) > 1e-9:
            raise RankDeficient("tangent flows out of the support of the state")
    for j in range(d):
        for k in range(j + 1, d):
            coupling = a[:, j, k]
            cmax = float(np.max(np.abs(coupling)))
            if p[j] + p[k] <= RANK_TOL:
                if cmax > 1e-8:
                    raise UnsupportedTangent(
                        "tangent has weight outside the support of the state"
                    )
                continue
            if cf.singular_at_equal_args and abs(p[j] - p[k]) < DEGEN_GAP:
                if cmax > 1e-8:
                    raise DegeneracyUnresolved(
                        f"{cf.name} coefficient diverges on the degenerate pair ({j},{k})"
                    )
                continue
            m_out += 2.0 * cf.c(p[j], p[k]) * np.real(np.outer(coupling, coupling.conj()))
    return (m_out + m_out.T) / 2.0


# ---------------------------------------------------------------------------
# Named informations


def sld_information(family: ParametricFamily, theta, h: float = DEFAULT_H) -> np.ndarray:
    """SLD information via the score-operator route: M_kl = Re tr(rho L_k L_l).

    Independent of mc_metric with the 2/(x+y) coefficient; the two are used
    as mutual oracles in the test suite. Defined for pure states through the
    support-restricted score.
    """
    theta = family.check_theta(theta)
    rho = family.rho(theta)
    tangents = family.drho(theta, h=h)
    scores = [sld_solve(rho, t) for t in tangents]
    n = family.nparams
    m_out = np.empty((n, n))
    for k in range(n):
        for l in range(k, n):
            val = float(np.real(np.trace(rho @ scores[k] @ scores[l])))
            m_out[k, l] = m_out[l, k] = val
    return m_out


def kmb_information(family: ParametricFamily, theta, h: float = DEFAULT_H) -> np.ndarray:
    return mc_metric(family, theta, CF_KMB, h=h)


def rld_information(family: ParametricFamily, theta, h: float = DEFAULT_H) -> np.ndarray:
    return mc_metric(family, theta, CF_RLD, h=h)


def _classical_part(td: TangentData) -> np.ndarray:
    p = np.clip(td.eigenvalues, 0.0, None)
    n = td.dp.shape[0]
    out = np.zeros((n, n))
    for i, pi in enumerate(p):
        if pi > RANK_TOL:
            out += np.outer(td.dp[:, i], td.dp[:, i]) / pi
        elif np.max(np.abs(td.dp[:, i])) > 1e-9:
            raise RankDeficient("eigenvalue flow out of the support of the state")
    return out


def _offdiag_part(td: TangentData) -> np.ndarray:
    p = np.clip(td.eigenvalues, 0.0, None)
    d = p.size
    weights = np.triu(p[:, None] + p[None, :], k=1)
    o = td.overlaps
    out = 4.0 * np.real(np.einsum("ajk,bjk,jk->ab", o, o.conj(), np.triu(np.ones((d, d)), 1) * weights))
    return (out + out.T) / 2.0


def _diag_part(td: TangentData) -> np.ndarray:
    p = np.clip(td.eigenvalues, 0.0, None)
    o_diag = np.einsum("ljj->lj", td.overlaps)
    out = 4.0 * np.real(np.einsum("aj,bj,j->ab", o_diag, o_diag.conj(), p))
    return (out + out.T) / 2.0


def c_upsilon_states(family: ParametricFamily, theta, h: float = DEFAULT_H) -> np.ndarray:
    """Gauge-dependent channel-derived information of a presented state family.

    Requires the family's spectral presentation; the result depends on the
    eigenvector phase choice by design (the diagonal-overlap term is not
    gauge invariant).
    """
    if family.spectral is None:
        raise MissingGauge("family supplies no spectral presentation (no gauge to use)")
    td = tangent_data(family, theta, h=h)
    return _classical_part(td) + _offdiag_part(td) + _diag_part(td)


def c_l_information(family: ParametricFamily, theta, h: float = DEFAULT_H) -> np.ndarray:
    """Gauge-invariant lower bound among the gauge-dependent informations.

    Computed from the overlap form, which stays finite on degenerate spectra
    whenever a spectral presentation is available; agrees with the engine
    route (coefficient 2(x+y)/(x-y)^2) on non-degenerate families.
    """
    td = tangent_data(family, theta, h=h)
    return _classical_part(td) + _offdiag_part(td)


def c_l_decomposition(family: ParametricFamily, theta, h: float = DEFAULT_H):
    """Split the lower-bound information into (classical Fisher of the
    spectrum, weighted sum of pure-state SLD informations of the frame)."""
    if family.spectral is None:
        raise MissingGauge("decomposition needs a spectral presentation")
    td = tangent_data(family, theta, h=h)
    classical = _classical_part(td)
    p = np.clip(td.eigenvalues, 0.0, None)
    o = td.overlaps
    # Pure-state information of |w_i>: 4 Re(<dw_i|dw_i> - <dw_i|w_i><w_i|dw_i>),
    # with <dw_i|dw_i> expanded over the complete frame.
    gram = np.einsum("aij,bij->abi", o, o.conj())
    o_diag = np.einsum("ljj->lj", o)
    pure = 4.0 * np.real(
        np.einsum("abi,i->ab", gram, p) - np.einsum("ai,bi,i->ab", o_diag, o_diag.conj(), p)
    )
    pure = (pure + pure.T) / 2.0
    return classical, pure


def f_function_scan(cf: CFunction, grid) -> "FScanReport":
    """Evaluate f on a positive grid; report monotonicity and self-duality."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be ascending and strictly positive")
    values = np.array([cf.f(t) for t in grid])
    nondecreasing = bool(np.all(np.diff(values) >= -1e-12))
    duality = float(max(abs(cf.f(t) - t * cf.f(1.0 / t)) for t in grid))
    return FScanReport(
        name=cf.name,
        grid=grid,
        values=values,
        nondecreasing=nondecreasing,
        self_dual=duality <= 1e-10,
        max_duality_defect=duality,
    )


@dataclass(frozen=True)
class FScanReport:
    name: str
    grid: np.ndarray
    values: np.ndarray
    nondecreasing: bool
    self_dual: bool
    max_duality_defect: float


def evaluate_metric(
    family: ParametricFamily,
    theta,
    name: str,
    povm: Sequence[np.ndarray] | None = None,
    h: float = DEFAULT_H,
) -> np.ndarray:
    """Dispatch a metric by its registry name (CLI and experiment entry point).

    The POVM is used by "fisher" only and defaults to the computational basis.
    """
    metric = _METRICS.get(name)
    if metric is None:
        raise UnknownMetric(f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}")
    return metric(family, theta, povm, h)


_METRICS = {
    "fisher": lambda family, theta, povm, h: classical_fisher(
        family, theta, basis_povm(family.dim) if povm is None else povm, h=h
    ),
    "sld": lambda family, theta, povm, h: sld_information(family, theta, h=h),
    "kmb": lambda family, theta, povm, h: kmb_information(family, theta, h=h),
    "rld": lambda family, theta, povm, h: rld_information(family, theta, h=h),
    "cupsilon": lambda family, theta, povm, h: c_upsilon_states(family, theta, h=h),
    "cl": lambda family, theta, povm, h: c_l_information(family, theta, h=h),
}
METRIC_NAMES = tuple(_METRICS)
