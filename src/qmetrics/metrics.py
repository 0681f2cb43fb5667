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

Each information has one implementation: its public (family, theta)
function, which the name registry behind evaluate_metrics maps to directly.
Each builds on the family's families.FamilyPoint at theta (rho, its tangents,
its eigensystem, the SLD scores, the tangent data). A family keeps its last
point, so the calls at one theta compute each of those once. The terms of a
metric that do not depend on its coefficient are kept on the point too
(_shared), so each metric pays only for what is its own: the engine's
diagonal Fisher term and, per skip rule, its pairs (j, k) with p_j, p_k and
the tangent rows there, which kmb and rld share; and the sum C_L, which
cupsilon extends by its diagonal-overlap term. Sharing stays within a route:
the score route and the overlap form never read the engine's terms, so each
remains the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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
from .families import FamilyPoint, ParametricFamily, TangentData, _read_only
from .linalg import DEGEN_GAP, HERM_TOL, RANK_TOL, eig_hermitian


# ---------------------------------------------------------------------------
# Coefficient functions


@dataclass(frozen=True)
class CFunction:
    """Symmetric, (-1)-homogeneous coefficient c(x, y), which fixes the
    Petz-Sudar f(t) = 1/c(t, 1) and what the engine reads off f: c needs a
    full-rank state when f(0) = 0 and diverges on equal arguments when f(1) = 0.

    c works elementwise on arrays of x and y as well as on two numbers."""

    name: str
    c: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def f(self, t):
        """f(t) = 1/c(t, 1), elementwise; a divergent c gives f = 0."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / self.c(t, np.ones_like(t))

    @cached_property
    def full_rank_required(self) -> bool:
        return bool(self.f(0.0) == 0.0)

    @cached_property
    def singular_at_equal_args(self) -> bool:
        return bool(self.f(1.0) == 0.0)


def _c_kmb(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    diff = x - y
    close = np.abs(diff) <= 1e-9 * np.maximum(x, y)
    return np.where(close, 1.0 / x, (np.log(x) - np.log(y)) / np.where(close, 1.0, diff))


CF_SLD = CFunction("sld", lambda x, y: 2.0 / (x + y))
CF_KMB = CFunction("kmb", _c_kmb)
CF_RLD = CFunction("rld", lambda x, y: 0.5 * (1.0 / x + 1.0 / y))
# Coefficient of the gauge-invariant lower bound; diverges on coincident
# eigenvalues, where the overlap form must be used instead.
CF_CL = CFunction("cl", lambda x, y: 2.0 * (x + y) / (x - y) ** 2)

C_FUNCTIONS = {cf.name: cf for cf in (CF_SLD, CF_KMB, CF_RLD, CF_CL)}


# ---------------------------------------------------------------------------
# Measurements


def validate_povm(povm: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Check a POVM and return its elements stacked, shape (m, d, d).

    Non-finite entries are rejected first. Hermiticity and positivity are
    checked on the whole stack at once; the error raised is that of the first
    failing element.
    """
    elements = [np.asarray(m, dtype=complex) for m in povm]
    if not elements:
        raise ValidationError("POVM must have at least one element")
    d = elements[0].shape[0]
    if dim is not None and d != dim:
        raise ValidationError(f"POVM dimension {d} does not match state dimension {dim}")
    shaped = next((i for i, m in enumerate(elements) if m.shape != (d, d)), len(elements))
    stack = np.array(elements[:shaped]).reshape(shaped, d, d)
    if not np.isfinite(stack).all():  # NaN would pass every comparison below
        raise ValidationError("POVM element has a non-finite entry")
    adjoint = stack.conj().swapaxes(-1, -2)
    not_hermitian = np.abs(stack - adjoint).max(axis=(-2, -1)) > HERM_TOL
    not_psd = np.linalg.eigvalsh((stack + adjoint) / 2).min(axis=-1) < -1e-10
    failing = np.flatnonzero(not_hermitian | not_psd)
    if failing.size and not_hermitian[failing[0]]:
        raise NotHermitian("POVM element is not Hermitian")
    if failing.size:
        raise ValidationError("POVM element is not positive semidefinite")
    if shaped < len(elements):
        raise ValidationError(f"POVM element has shape {elements[shaped].shape}, expected ({d}, {d})")
    if np.max(np.abs(stack.sum(axis=0) - np.eye(d))) > 1e-9:
        raise ValidationError("POVM elements do not sum to the identity")
    return stack


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
    """Computational-basis projectors, fresh writable arrays."""
    return [np.diag(e) for e in np.eye(d, dtype=complex)]


def born_probabilities(rho: np.ndarray, povm: Sequence[np.ndarray]) -> np.ndarray:
    """Outcome probabilities Re tr(rho M_m), clamped at zero.

    rho may be a stack (..., d, d) of states; the result is (..., m).
    """
    p = np.real(np.einsum("...ij,mji->...m", rho, np.asarray(povm, dtype=complex)))
    return np.clip(p, 0.0, None)


def _fisher_sum(
    p: np.ndarray, dp: np.ndarray, flow_error: Callable[[int], Exception]
) -> np.ndarray:
    """Sum of dp[:, i] dp[:, i]^T / p_i over the i with p_i > RANK_TOL.

    An entry at or below RANK_TOL whose derivative exceeds 1e-9 raises
    flow_error(i) for the first such i: probability would flow out of the
    support.
    """
    support = p > RANK_TOL
    flowing = ~support & (np.abs(dp).max(axis=0) > 1e-9)
    if flowing.any():
        raise flow_error(int(np.argmax(flowing)))
    w = dp[:, support]
    m = (w / p[support]) @ w.T
    return (m + m.T) / 2.0  # the product is symmetric only to rounding


def _measured_fisher(point: FamilyPoint, elements: np.ndarray | None) -> np.ndarray:
    """Fisher information at a point for a validated, stacked POVM, or with
    None for the computational basis, whose probabilities and slopes are the
    diagonals of rho and its tangents: the same bits as the projector stack,
    whose other products are exact zeros."""
    if elements is None:
        p0 = np.clip(np.diagonal(point.rho).real, 0.0, None)
        dp = np.diagonal(point.drho, axis1=-2, axis2=-1).real
    else:
        p0 = born_probabilities(point.rho, elements)
        dp = np.real(np.einsum("lij,mji->lm", point.drho, elements))
    return _fisher_sum(p0, dp, lambda m: VanishingProbabilityWithFlow(
        f"outcome {m} has zero probability but nonzero derivative"))


def classical_fisher(
    family: ParametricFamily, theta, povm: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Fisher information matrix of the measured outcome distribution.

    Born probabilities are linear in rho, so their derivatives are
    Re tr(drho_l M_m) from the state tangents; outcomes with vanishing
    probability contribute zero only if their derivative also vanishes.
    A POVM passed in is validated; the default is the computational basis.
    """
    point = family.point(theta)
    return _measured_fisher(point, None if povm is None else validate_povm(povm, family.dim))


# ---------------------------------------------------------------------------
# Parts shared at a point


def _shared(point: FamilyPoint, key: str, compute: Callable[[], object]):
    """The part key of the point: compute() on first use, kept read-only in
    the point's parts (see FamilyPoint), so it is dropped with the point. A
    compute() that raises keeps nothing, and raises again on the next use."""
    parts = vars(point)
    if key not in parts:
        part = compute()
        _read_only(*(part if isinstance(part, tuple) else (part,)))
        parts[key] = part
    return parts[key]


@cache
def _upper(d: int, strict: bool) -> np.ndarray:
    """The (d, d) mask of the upper triangle, without the diagonal when strict;
    read-only and kept per size. np.where(mask, m, 0.0) is np.triu(m, strict)."""
    rows, cols = np.indices((d, d))
    mask = rows < cols if strict else rows <= cols
    _read_only(mask)
    return mask


# ---------------------------------------------------------------------------
# Generic coefficient-function engine


def _engine_diagonal(point: FamilyPoint) -> np.ndarray:
    """sum_i A^(k)_ii A^(l)_ii / p_i, the engine's term without c."""
    return _fisher_sum(np.clip(point.eig.values, 0.0, None),
                       np.real(np.einsum("lii->li", point.drho_eigenbasis)),
                       lambda i: RankDeficient("tangent flows out of the support of the state"))


def _engine_pairs(point: FamilyPoint, cf: CFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_j, p_k and the tangent rows A[:, j, k] over the pairs j < k, in row
    order, that cf's skip rule keeps. Pairs off the support, and for a
    singular coefficient degenerate pairs, are skipped; the first of them
    with coupling raises."""
    p = np.clip(point.eig.values, 0.0, None)
    a = point.drho_eigenbasis
    off_support = p[:, None] + p <= RANK_TOL
    skipped = off_support
    if cf.singular_at_equal_args:
        skipped = skipped | (np.abs(p[:, None] - p) < DEGEN_GAP)
    upper = _upper(p.size, True)
    failing = upper & skipped & (np.abs(a).max(axis=0) > 1e-8)
    if failing.any():
        j, k = np.argwhere(failing)[0]
        if off_support[j, k]:
            raise UnsupportedTangent("tangent has weight outside the support of the state")
        raise DegeneracyUnresolved(f"{cf.name} coefficient diverges on the degenerate pair ({j},{k})")
    j, k = np.nonzero(upper & ~skipped)
    return p[j], p[k], a[:, j, k]


def mc_metric(family: ParametricFamily, theta, cf: CFunction) -> np.ndarray:
    """Information matrix from the eigenbasis quadratic form.

    In the eigenbasis of rho(theta), with tangents A^(k) = d rho / d theta^k:

        M_kl = sum_i A^(k)_ii A^(l)_ii / p_i
             + 2 sum_{j<m} c(p_j, p_m) Re(A^(k)_jm conj(A^(l)_jm)).

    Only c is the metric's own: the diagonal term and the pairs kept by each
    skip rule are computed once per point. A call raises in the order full
    rank, flow out of the support, first failing pair.
    """
    point = family.point(theta)
    if cf.full_rank_required and float(point.eig.values.min()) < RANK_TOL:
        raise RankDeficient(f"{cf.name} information requires a full-rank state")
    diagonal = _shared(point, "_engine_diagonal", lambda: _engine_diagonal(point))
    pj, pk, w = _shared(point, f"_engine_pairs_{cf.singular_at_equal_args}",
                        lambda: _engine_pairs(point, cf))
    m_out = diagonal + np.real((2.0 * cf.c(pj, pk) * w) @ w.conj().T)
    return (m_out + m_out.T) / 2.0


# ---------------------------------------------------------------------------
# Named informations


def sld_information(family: ParametricFamily, theta) -> np.ndarray:
    """SLD information via the score-operator route: M_kl = Re tr(rho L_k L_l).

    Independent of mc_metric with the 2/(x+y) coefficient; the two are used
    as mutual oracles in the test suite. Defined for pure states through the
    support-restricted score.
    """
    point = family.point(theta)
    scores = point.scores
    m_out = np.real(np.trace((point.rho @ scores)[:, None] @ scores, axis1=-2, axis2=-1))
    # Re tr(rho L_k L_l) for k <= l, mirrored below the diagonal: exactly symmetric.
    size = m_out.shape[0]
    return np.where(_upper(size, False), m_out, 0.0) + np.where(_upper(size, True), m_out, 0.0).T


def kmb_information(family: ParametricFamily, theta) -> np.ndarray:
    return mc_metric(family, theta, CF_KMB)


def rld_information(family: ParametricFamily, theta) -> np.ndarray:
    return mc_metric(family, theta, CF_RLD)


def _classical_part(td: TangentData) -> np.ndarray:
    return _fisher_sum(np.clip(td.eigenvalues, 0.0, None), td.dp, lambda i: RankDeficient(
        "eigenvalue flow out of the support of the state"))


def _offdiag_part(td: TangentData) -> np.ndarray:
    p = np.clip(td.eigenvalues, 0.0, None)
    o = td.overlaps
    weights = np.where(_upper(p.size, True), p[:, None] + p, 0.0)
    out = 4.0 * np.real(np.einsum("ajk,bjk,jk->ab", o, o.conj(), weights))
    return (out + out.T) / 2.0


def _diag_part(td: TangentData) -> np.ndarray:
    p = np.clip(td.eigenvalues, 0.0, None)
    o_diag = np.einsum("ljj->lj", td.overlaps)
    out = 4.0 * np.real(np.einsum("aj,bj,j->ab", o_diag, o_diag.conj(), p))
    return (out + out.T) / 2.0


def _c_l(point: FamilyPoint) -> np.ndarray:
    """C_L from the overlap form, kept on the point (read-only): cupsilon adds
    its diagonal-overlap term to it, the association of the sum written out."""
    td = point.tangent_data
    return _shared(point, "_c_l", lambda: _classical_part(td) + _offdiag_part(td))


def c_upsilon_states(family: ParametricFamily, theta) -> np.ndarray:
    """Gauge-dependent channel-derived information of a presented state family.

    Requires the family's spectral presentation; the result depends on the
    eigenvector phase choice by design (the diagonal-overlap term is not
    gauge invariant).
    """
    point = family.point(theta)  # theta is checked before the presentation
    if family.spectral is None:
        raise MissingGauge("family supplies no spectral presentation (no gauge to use)")
    return _c_l(point) + _diag_part(point.tangent_data)


def c_l_information(family: ParametricFamily, theta) -> np.ndarray:
    """Gauge-invariant lower bound among the gauge-dependent informations.

    Computed from the overlap form, which stays finite on degenerate spectra
    whenever a spectral presentation is available; agrees with the engine
    route (coefficient 2(x+y)/(x-y)^2) on non-degenerate families.
    """
    return _c_l(family.point(theta)).copy()


def c_l_decomposition(family: ParametricFamily, theta):
    """Split the lower-bound information into (classical Fisher of the
    spectrum, weighted sum of pure-state SLD informations of the frame)."""
    point = family.point(theta)  # theta is checked before the presentation
    if family.spectral is None:
        raise MissingGauge("decomposition needs a spectral presentation")
    td = point.tangent_data
    p = np.clip(td.eigenvalues, 0.0, None)
    o = td.overlaps
    # Pure-state information of |w_i>: 4 Re(<dw_i|dw_i> - <dw_i|w_i><w_i|dw_i>),
    # with <dw_i|dw_i> expanded over the complete frame. The second term,
    # weighted by p_i and summed over i, is _diag_part.
    frame = 4.0 * np.real(np.einsum("aij,bij,i->ab", o, o.conj(), p))
    return _classical_part(td), (frame + frame.T) / 2.0 - _diag_part(td)


def f_function_scan(cf: CFunction, grid) -> "FScanReport":
    """Evaluate f on a finite positive grid; report monotonicity and self-duality."""
    grid = np.asarray(grid, dtype=float)
    # NaN fails no comparison, and f at inf or 1/inf gives no finite defect.
    if grid.size < 2 or not np.isfinite(grid).all() or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be finite, ascending and strictly positive")
    values = cf.f(grid)
    nondecreasing = bool(np.all(np.diff(values) >= -1e-12))
    duality = float(np.max(np.abs(values - grid * cf.f(1.0 / grid))))
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


def evaluate_metrics(family: ParametricFamily, theta, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Metrics by registry name at one point, as a dict name -> matrix.

    names is read once, so any iterable of names will do; a bare string
    raises ValidationError. At least one name must be given; every name is
    checked before anything is computed. Each name calls its public function
    with (family, theta), and those share the family's point there: rho, its
    tangents, its eigensystem, the SLD scores, the tangent data, the engine's
    terms without c and the sum C_L are each computed at most once. "fisher"
    measures in the computational basis.
    """
    if isinstance(names, str):
        raise ValidationError(f"metric names must be a sequence of names, not the string {names!r}")
    names = tuple(names)
    if not names:
        raise ValidationError(f"no metric names given; known: {', '.join(METRIC_NAMES)}")
    for name in names:
        if name not in _METRICS:
            raise UnknownMetric(f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}")
    return {name: _METRICS[name](family, theta) for name in names}


def evaluate_metric(family: ParametricFamily, theta, name: str) -> np.ndarray:
    """One metric by its registry name (see evaluate_metrics)."""
    return evaluate_metrics(family, theta, [name])[name]


_METRICS = {
    "fisher": classical_fisher,
    "sld": sld_information,
    "kmb": kmb_information,
    "rld": rld_information,
    "cupsilon": c_upsilon_states,
    "cl": c_l_information,
}
METRIC_NAMES = tuple(_METRICS)
