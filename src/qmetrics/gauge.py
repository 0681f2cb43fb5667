"""Eigenvector phase gauges.

A phase assignment multiplies each eigenvector of a spectral presentation by
exp(i alpha_k(theta)); the density matrix is unchanged but the gauge-dependent
information is not. The one-parameter minimizing gauge integrates the
(purely imaginary) diagonal overlaps so that they cancel; the multi-parameter
integrability test checks whether such a gauge can exist at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainExit, MissingGauge, NonImaginaryOverlap, ValidationError
from .families import ParametricFamily, SpectralPresentation, spectral_tangents, tangent_data
from .linalg import DEFAULT_H

# Grid points differenced per stacked presentation in minimizing_gauge_1p.
# Blocks keep the scan's peak memory at the per-point level; stacking a whole
# 513-point grid at once raised the gauge benchmark's peak RSS by about 9%.
_SCAN_BLOCK = 64


@dataclass(frozen=True)
class PhaseAssignment:
    """Per-eigenvector phase functions alpha_k(theta), in radians.

    Either a closed-form callable theta -> (d,) array, or samples on an
    increasing one-parameter grid interpolated linearly (only the local slope
    of alpha enters any metric, so linear interpolation suffices); sampled
    phases raise DomainExit outside the grid.
    """

    func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grid: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None  # (d, n)

    @classmethod
    def from_callable(cls, func) -> "PhaseAssignment":
        return cls(func=func)

    @classmethod
    def from_samples(cls, grid, samples) -> "PhaseAssignment":
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != grid.size:
            raise ValidationError("samples must have shape (d, len(grid))")
        if not np.all(np.diff(grid) > 0):  # np.interp needs an increasing grid
            raise ValidationError("sample grid must be strictly increasing")
        return cls(grid=grid, samples=samples)

    def alphas(self, theta) -> np.ndarray:
        if self.func is not None:
            return np.asarray(self.func(np.atleast_1d(np.asarray(theta, float))), dtype=float)
        t = float(np.atleast_1d(np.asarray(theta, float))[0])
        if not self.grid[0] <= t <= self.grid[-1]:
            # np.interp would clamp t and give the phases a slope of zero there.
            raise DomainExit(
                f"theta {t} outside the sampled phase grid [{self.grid[0]}, {self.grid[-1]}]"
            )
        return np.array([np.interp(t, self.grid, row) for row in self.samples])


def zero_gauge(d: int) -> PhaseAssignment:
    return PhaseAssignment.from_callable(lambda th: np.zeros(d))


def apply_gauge(family: ParametricFamily, pa: PhaseAssignment) -> ParametricFamily:
    """Re-phase the eigenvector frame of a presented family; rho is unchanged.

    The re-phased spectral broadcasts like the family's. The phases are still
    taken point by point, since a phase callable maps one theta to a (d,)
    array; any other shape raises ValidationError.
    """
    if family.spectral is None:
        raise MissingGauge("family supplies no spectral presentation to re-gauge")

    def phases(th):
        a = pa.alphas(th)
        if a.shape != (family.dim,):
            raise ValidationError(
                f"phase assignment gives shape {a.shape} at theta {np.asarray(th).tolist()}, "
                f"expected ({family.dim},)"
            )
        return a

    def spectral(th, _sp=family.spectral):
        sp = _sp(th)
        th = np.asarray(th, dtype=float)
        a = np.array([phases(row) for row in th.reshape(-1, family.nparams)])
        return SpectralPresentation(
            eigenvalues=sp.eigenvalues,
            eigenvectors=sp.eigenvectors * np.exp(1j * a.reshape(th.shape[:-1] + (1, -1))),
        )

    return replace(family, spectral=spectral, name=f"{family.name}+gauge")


def minimizing_gauge_1p(
    family: ParametricFamily,
    theta0: float,
    theta1: float,
    steps: int = 512,
    h: float = DEFAULT_H,
) -> PhaseAssignment:
    """Phase assignment cancelling the diagonal overlaps of a one-parameter
    presented family: alpha_k(t) = integral of Im<w_k'|w_k> from theta0 to t,
    by composite trapezoid on a uniform grid.

    The whole grid is checked against the domain first; the overlaps are then
    differenced from stacked presentations of blocks of grid points.
    """
    if family.nparams != 1:
        raise ValidationError("minimizing gauge is defined for one-parameter families")
    if family.spectral is None:
        raise MissingGauge("minimizing gauge needs a spectral presentation")
    grid = np.linspace(theta0, theta1, steps + 1)
    thetas = family.check_thetas(grid[:, None])
    diag = np.empty((grid.size, family.dim), dtype=complex)
    for start in range(0, grid.size, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        overlaps = spectral_tangents(family, thetas[block], h=h)[1]
        diag[block] = np.diagonal(overlaps[:, 0], axis1=-2, axis2=-1)
    worst_re = float(np.max(np.abs(np.real(diag))))
    if worst_re > 1e-6:
        raise NonImaginaryOverlap(
            f"diagonal overlap has real part {worst_re:.3e}; frame is not orthonormal"
        )
    integrand = np.imag(diag)  # alpha_k' = Im<w_k'|w_k>
    areas = np.diff(grid)[:, None] * (integrand[1:] + integrand[:-1]) / 2.0
    samples = np.vstack([np.zeros((1, family.dim)), np.cumsum(areas, axis=0)]).T
    return PhaseAssignment.from_samples(grid, samples)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Im<dw_j/dtheta^l | dw_j/dtheta^k> for every eigenvector j and pair l < k.

    All magnitudes within tolerance means a globally minimizing gauge exists
    for the multi-parameter family; any large entry is an obstruction.
    """

    entries: tuple  # of (j, l, k, imag_value)
    tolerance: float
    passed: bool


def integrability_test(
    family: ParametricFamily, theta, tol: float = 1e-6, h: float = DEFAULT_H
) -> IntegrabilityReport:
    """Check the mixed-derivative condition for a minimizing gauge to exist.

    The inner products of eigenvector derivatives are assembled from the
    overlap tensor by completeness of the frame, so only first derivatives
    are differenced.
    """
    td = tangent_data(family, theta, h=h)
    o = td.overlaps
    entries = []
    n = family.nparams
    for j in range(family.dim):
        for l in range(n):
            for k in range(l + 1, n):
                inner = complex(np.sum(o[l, j, :] * np.conj(o[k, j, :])))
                entries.append((j, l, k, float(np.imag(inner))))
    passed = all(abs(e[3]) <= tol for e in entries)
    return IntegrabilityReport(entries=tuple(entries), tolerance=tol, passed=passed)
