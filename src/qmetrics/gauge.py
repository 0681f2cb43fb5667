"""Eigenvector phase gauges.

A phase assignment multiplies each eigenvector of a spectral presentation by
exp(i alpha_k(theta)); the density matrix is unchanged but the gauge-dependent
information is not. A gauge is absolute: one phase choice relative to the
presentation frame. A re-phased family holds its real phases in the family's
phases field, apart from its spectral presentation, so tangents and scans
difference the phases as real functions, never through exp(i alpha) w. The
one-parameter minimizing gauge integrates the (purely imaginary) diagonal
overlaps so that they cancel; the multi-parameter integrability test checks
whether such a gauge can exist at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainExit, MissingGauge, NonImaginaryOverlap, ValidationError
from .estimation import _check_count
from .families import ParametricFamily, spectral_tangents, tangent_data

# Frame entries per stacked presentation in minimizing_gauge_1p. Unblocked, the
# scan's memory grows with --steps x d^2: one random d=32 scan of 2048 steps
# peaked at 51 MB RSS in blocks of 64 points and 281 MB without.
_SCAN_ENTRIES = 64 * 32 * 32


@dataclass(frozen=True)
class PhaseAssignment:
    """Per-eigenvector phase functions alpha_k(theta), in radians, relative to
    a family's presentation frame.

    phases maps an (n, p) stack of points to their (n, d) real phases, as
    ParametricFamily.phases does. from_callable stacks a function of one
    point; from_samples interpolates real samples on an increasing
    one-parameter grid linearly and raises DomainExit outside the grid.
    grid and samples, when set, are the whole gauge that phases interpolates.

    Only the slope of alpha enters a metric, and between nodes a linear
    interpolant has the chord slope, not the node slopes. So a sampled
    minimizing gauge minimizes at nodes and cell midpoints only: on the gauge
    suite's families (seed 42, 512 steps) |C_Upsilon(min) - C_L| is at most
    7.1e-14 at a node and 1.7e-14 at a cell midpoint, but 5.5e-8 at 0.3 of a
    cell, the chord error of the sampled integral. Exact node slopes
    with a cubic Hermite interpolant are ROADMAP direction 5.
    """

    phases: Callable[[np.ndarray], np.ndarray]
    grid: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None  # (d, n)

    @classmethod
    def from_callable(cls, func) -> "PhaseAssignment":
        def phases(thetas):
            rows = [np.asarray(func(theta)) for theta in thetas]
            shapes = {row.shape for row in rows}
            if len(shapes) > 1:
                raise ValidationError(f"phase assignment gives rows of shapes {sorted(shapes)}")
            return np.array(rows)

        return cls(phases)

    @classmethod
    def from_samples(cls, grid, samples) -> "PhaseAssignment":
        grid = np.asarray(grid)
        if np.iscomplexobj(grid):  # cast, the grid would read as its real part
            raise ValidationError(f"complex sample grid {grid.tolist()}")
        grid = grid.astype(float)
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != grid.size:
            raise ValidationError("samples must have shape (d, len(grid))")
        samples = _real_phases(samples.T, grid[:, None]).T
        if not (np.isfinite(grid).all() and np.isfinite(samples).all()):
            raise ValidationError("phase samples and their grid must be finite")
        if not np.all(np.diff(grid) > 0):  # np.interp needs an increasing grid
            raise ValidationError("sample grid must be strictly increasing")

        def phases(thetas):
            t = thetas[:, 0]
            outside = ~((grid[0] <= t) & (t <= grid[-1]))
            if outside.any():
                # np.interp would clamp t and give the phases a slope of zero there.
                raise DomainExit(
                    f"theta {t[outside][0]} outside the sampled phase grid [{grid[0]}, {grid[-1]}]"
                )
            return np.stack([np.interp(t, grid, row) for row in samples], axis=-1)

        return cls(phases, grid, samples)

    def alphas(self, theta) -> np.ndarray:
        """Phases at one point, shape (d,)."""
        return self.phases(np.atleast_1d(np.asarray(theta, dtype=float))[None])[0]


def _real_phases(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The (n, d) phases at the (n, p) thetas as floats, or ValidationError if
    complex: cast, e^{i alpha} would read as cos(alpha) and i alpha as zero."""
    if np.iscomplexobj(a):
        i = int(np.argmax(np.imag(a).any(axis=1)))  # the first complex row, else row 0
        raise ValidationError(f"complex phases {a[i].tolist()} at theta {thetas[i].tolist()}")
    return np.asarray(a, dtype=float)


def zero_gauge(d: int) -> PhaseAssignment:
    return PhaseAssignment(lambda thetas: np.zeros((len(thetas), d)))


def apply_gauge(family: ParametricFamily, pa: PhaseAssignment) -> ParametricFamily:
    """Re-phase the eigenvector frame of a presented family; rho is unchanged.

    The result keeps the family's spectral and sets its phases to pa's,
    replacing any the family had, and a re-phased family keeps its name (one
    "+gauge"). The phases are taken once per stack of points, which must give
    d finite real phases at every point, or ValidationError is raised.
    """
    if family.spectral is None:
        raise MissingGauge("family supplies no spectral presentation to re-gauge")
    d = family.dim

    def phases(thetas):
        a, n = np.asarray(pa.phases(thetas)), len(thetas)
        if a.shape[:1] != (n,):
            raise ValidationError(f"phase assignment gives shape {a.shape} for a stack of {n} points")
        if a.shape[1:] != (d,):
            raise ValidationError(
                f"phase assignment gives shape {a.shape[1:]} at theta {thetas[0].tolist()}, expected ({d},)"
            )
        a = _real_phases(a, thetas)
        bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if bad.size:
            raise ValidationError(
                f"phase assignment gives non-finite phases {a[bad[0]].tolist()} "
                f"at theta {thetas[bad[0]].tolist()}"
            )
        return a

    name = family.name if family.phases is not None else f"{family.name}+gauge"
    return replace(family, phases=phases, name=name)


def minimizing_gauge_1p(
    family: ParametricFamily, theta0: float, theta1: float, steps: int = 512
) -> PhaseAssignment:
    """Phase assignment cancelling the diagonal overlaps of a one-parameter
    presented family: alpha_k(t) = integral of Im<w_k'|w_k> from theta0 to t,
    by composite trapezoid on a uniform grid.

    theta0 < theta1 must both be finite, checked before the grid is built.
    The whole grid is checked against the domain first; the overlaps then
    come from stacked presentations of blocks of grid points: their slopes
    for a family with exact tangents, else the frames differenced.

    A gauge sets a family's phases (apply_gauge), so a re-phased family is
    scanned in its presentation frame, without reading its phases: the result
    is the sampled integral, and the same for the family with or without them.
    """
    if family.nparams != 1:
        raise ValidationError("minimizing gauge is defined for one-parameter families")
    steps = _check_count("steps", steps, 1)
    if not (math.isfinite(theta0) and math.isfinite(theta1) and theta0 < theta1):
        raise ValidationError(
            f"scan interval must be finite and strictly increasing, got theta0={theta0}, theta1={theta1}"
        )
    if family.spectral is None:
        raise MissingGauge("minimizing gauge needs a spectral presentation")
    grid = np.linspace(theta0, theta1, steps + 1)
    thetas = family.check_thetas(grid[:, None])
    family = replace(family, phases=None)
    diag = np.empty((grid.size, family.dim), dtype=complex)
    size = max(1, _SCAN_ENTRIES // family.dim ** 2)
    for start in range(0, grid.size, size):
        block = slice(start, start + size)
        overlaps = spectral_tangents(family, thetas[block])[1]
        diag[block] = np.diagonal(overlaps[:, 0], axis1=-2, axis2=-1)
    worst_re = float(np.max(np.abs(np.real(diag))))
    if worst_re > 1e-6:
        raise NonImaginaryOverlap(
            f"diagonal overlap has real part {worst_re:.3e}; frame is not orthonormal"
        )
    integrand = np.imag(diag)  # alpha_k' = Im<w_k'|w_k>
    areas = np.diff(grid)[:, None] * (integrand[1:] + integrand[:-1]) / 2.0
    alphas = np.vstack([np.zeros((1, family.dim)), np.cumsum(areas, axis=0)])
    return PhaseAssignment.from_samples(grid, alphas.T)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Im<dw_j/dtheta^l | dw_j/dtheta^k> for every eigenvector j and pair l < k.

    All magnitudes within tolerance means a globally minimizing gauge exists
    for the multi-parameter family; any large entry is an obstruction.
    """

    entries: tuple  # of (j, l, k, imag_value)
    tolerance: float
    passed: bool


def integrability_test(family: ParametricFamily, theta, tol: float = 1e-6) -> IntegrabilityReport:
    """Check the mixed-derivative condition for a minimizing gauge to exist.

    The inner products of eigenvector derivatives are assembled from the
    overlap tensor by completeness of the frame, so only first derivatives
    are differenced.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tolerance must be finite and non-negative, got {tol}")
    o = tangent_data(family, theta).overlaps
    # imag[l, k, j] = Im sum_m o[l, j, m] conj(o[k, j, m]) = Im<dw_j/dtheta^l | dw_j/dtheta^k>
    imag = np.imag((o[:, None] * o.conj()[None]).sum(-1))
    pairs = list(itertools.combinations(range(family.nparams), 2))
    entries = tuple((j, l, k, float(imag[l, k, j])) for j in range(family.dim) for l, k in pairs)
    passed = all(abs(e[3]) <= tol for e in entries)
    return IntegrabilityReport(entries=entries, tolerance=tol, passed=passed)
