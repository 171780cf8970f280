"""Closed-form state generators and their phase-space distributions.

Every generator has an analytic counterpart evaluated directly on the
lattice, so numeric pipelines can be checked against exact expressions:
Gaussian packets, two-hump superpositions ("cat" states), and the outputs
of Gaussian coordinate slits acting on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _checked_fields, _checked_kind, _finite, _positive
from .grid import EDGE_LEVEL, POSITION, Grid, WaveFunction, _adopt
from .wigner import WignerFunction


@dataclass(frozen=True)
class GaussianSpec:
    """Packet of spatial extent ``width``, centered at ``center`` and boosted by ``momentum_offset``."""

    width: float
    center: float = 0.0
    momentum_offset: float = 0.0

    def __post_init__(self):
        _checked_fields(self, width=_positive, center=_finite, momentum_offset=_finite)


@dataclass(frozen=True)
class CatSpec:
    """Even superposition of two packets of extent ``width`` centered at +-``separation``."""

    width: float
    separation: float

    def __post_init__(self):
        _checked_fields(self, width=_positive, separation=_finite)
        if self.separation < 0:
            raise ValueError(f"separation must be nonnegative, got {self.separation}")


def _check_axis(grid: Grid, axis: str, c: float, width: float, what: str = "packet") -> None:
    """Refuse a Gaussian centred at ``c`` beyond the lattice ends of ``axis``, or with more than ``EDGE_LEVEL``
    of its peak at an end; its extent is ``width`` on q and ``hbar/width`` on p."""
    ends = (grid.q if axis == "q" else grid.p)[[0, -1]]
    extent = np.float64(width) if axis == "q" else grid.hbar / np.float64(width)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an extent of 0 or inf fails
        edge = np.exp(-((ends - c) ** 2) / (2 * extent**2)).max()
    if not (ends[0] <= c <= ends[1] and edge <= EDGE_LEVEL):
        raise ValueError(
            f"{what} of width {width} centred at {axis} = {c} does not fit the {axis} range "
            f"[{ends[0]:.6g}, {ends[1]:.6g}] of the lattice (relative edge amplitude {edge:.2e})"
        )


def _check_fit(spec: GaussianSpec | CatSpec, kind: type, grid: Grid) -> None:
    """Refuse a spec not of ``kind``, a grid not a Grid, then each packet of the spec that does not fit the lattice."""
    _checked_kind(spec, kind, "spec")
    _checked_kind(grid, Grid, "grid")
    packets = ([(spec.center, spec.momentum_offset)] if kind is GaussianSpec
               else [(spec.separation, 0.0), (-spec.separation, 0.0)])
    for center, momentum_offset in packets:
        _check_axis(grid, "q", center, spec.width)
        _check_axis(grid, "p", momentum_offset, spec.width)


def _check_slit(q_m: float, offset: float, grid: Grid) -> None:
    """Refuse a slit unless its width is positive with a square, which the filtered forms divide by, that is a
    positive finite float64, its momentum extent ``hbar/q_m`` fits the p range, as an inline Gaussian device's must,
    and its offset is a finite number."""
    with np.errstate(over="ignore", under="ignore"):
        square = np.float64(_positive("q_m", q_m)) ** 2
    if not (np.isfinite(square) and square > 0):
        raise ValueError(f"q_m must have a square that is a positive finite float64, got {q_m!r}")
    _check_axis(grid, "p", 0.0, q_m, "slit")
    _finite("offset", offset)


def gaussian_wavefunction(spec: GaussianSpec, grid: Grid) -> WaveFunction:
    """Samples of ``(pi w^2)^(-1/4) exp(-(q-c)^2 / 2w^2) exp(i p0 q / hbar)``."""
    _check_fit(spec, GaussianSpec, grid)
    q = grid.q
    values = (np.pi * spec.width**2) ** (-0.25) * np.exp(
        -((q - spec.center) ** 2) / (2 * spec.width**2)
        + 1j * spec.momentum_offset * q / grid.hbar
    )
    return WaveFunction(grid, values, POSITION)


def gaussian_wdf_closed_form(spec: GaussianSpec, grid: Grid) -> WignerFunction:
    """Exact distribution ``(2/h) exp(-(q-c)^2/w^2 - (p-p0)^2 w^2/hbar^2)``."""
    _check_fit(spec, GaussianSpec, grid)
    q, p = grid.q[:, None], grid.p  # broadcast to the lattice: rows q, columns p
    values = (2.0 / grid.h) * np.exp(
        -((q - spec.center) ** 2) / spec.width**2
        - ((p - spec.momentum_offset) ** 2) * spec.width**2 / grid.hbar**2
    )
    return WignerFunction(grid, _adopt(values))


def cat_wavefunction(spec: CatSpec, grid: Grid) -> WaveFunction:
    """Two-hump state ``N [exp(-(q-d)^2/2w^2) + exp(-(q+d)^2/2w^2)]``, normalized by
    ``N = (4 pi w^2)^(-1/4) [1 + exp(-d^2/w^2)]^(-1/2)``."""
    _check_fit(spec, CatSpec, grid)
    q = grid.q
    norm = float(
        (4 * np.pi * spec.width**2) ** (-0.25)
        * (1.0 + np.exp(-(spec.separation**2) / spec.width**2)) ** (-0.5)
    )
    values = norm * (
        np.exp(-((q - spec.separation) ** 2) / (2 * spec.width**2))
        + np.exp(-((q + spec.separation) ** 2) / (2 * spec.width**2))
    )
    return WaveFunction(grid, values, POSITION)


def _cat_family(spec: CatSpec, grid: Grid, slit=1.0, compression=1.0, damping=1.0, scale=1.0) -> WignerFunction:
    """``scale * slit(q) [humps(q) + 2 damping exp(-q^2/w^2) cos(2 c d p/hbar)] exp(-c w^2 p^2/hbar^2)
    / (h [1 + exp(-d^2/w^2)])``, ``c = compression``: the two-term product ``a(q) e(p) + b(q) f(p)``,
    built as one (n, 2) @ (2, n) matrix product, so no N x N temporary is made; the caller checks the fit."""
    q, p, d, w2 = grid.q, grid.p, spec.separation, spec.width**2
    envelope = scale * np.exp(-(p**2) * w2 * compression / grid.hbar**2) / (grid.h * (1.0 + np.exp(-(d**2) / w2)))
    humps = slit * (np.exp(-((q - d) ** 2) / w2) + np.exp(-((q + d) ** 2) / w2))
    cross = slit * 2.0 * damping * np.exp(-(q**2) / w2)
    fringes = envelope * np.cos(2.0 * d * compression * p / grid.hbar)
    return WignerFunction(grid, _adopt(np.stack([humps, cross], axis=1) @ np.stack([envelope, fringes])))


def cat_wdf_closed_form(spec: CatSpec, grid: Grid) -> WignerFunction:
    """Exact two-hump distribution with its oscillatory cross term.

    Two displaced Gaussian blobs plus an interference term
    ``2 exp(-q^2/w^2) cos(2 d p / hbar)`` centered at the origin, all under
    a shared momentum envelope.  The cross term peaks at the phase-space
    origin with value 2/h regardless of the separation.
    """
    _check_fit(spec, CatSpec, grid)
    return _cat_family(spec, grid)


def filtered_gaussian_wdf_closed_form(q_i: float, q_m: float, grid: Grid) -> WignerFunction:
    """Exact output distribution of a centered Gaussian slit on a Gaussian packet: the filtered cat at d = 0.

    The result is not renormalized: its total mass equals the transmitted
    fraction ``1/sqrt(pi (q_i^2 + q_m^2))`` of the slit, so it can be
    compared directly against the raw numeric filtering pipeline.
    """
    return filtered_cat_wdf_closed_form(CatSpec(q_i, 0.0), q_m, 0.0, grid)


def filtered_cat_wdf_closed_form(spec: CatSpec, q_m: float, offset: float, grid: Grid) -> WignerFunction:
    """Exact output distribution of a Gaussian slit at ``q = offset`` on a two-hump state.

    The slit multiplies the distribution by ``exp(-(q-offset)^2/q_m^2)`` and
    convolves it along p with the slit's own momentum Gaussian: that damps
    the cross term by ``exp(-d^2/(q_i^2+q_m^2))``, compresses its oscillation
    frequency and the momentum envelope's exponent by ``q_m^2/(q_i^2+q_m^2)``,
    and sets the constant to ``1 / (h [1 + exp(-d^2/q_i^2)] sqrt(pi (q_i^2+q_m^2)))``.
    The result is not renormalized: its mass is the transmitted fraction.
    """
    _check_fit(spec, CatSpec, grid)
    _check_slit(q_m, offset, grid)
    sum_sq = spec.width**2 + q_m**2
    return _cat_family(
        spec, grid, slit=np.exp(-((grid.q - offset) ** 2) / q_m**2), compression=q_m**2 / sum_sq,
        damping=np.exp(-(spec.separation**2) / sum_sq), scale=1.0 / np.sqrt(np.pi * sum_sq),
    )
