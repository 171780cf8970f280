"""Closed-form state generators and their phase-space distributions.

Every generator has an analytic counterpart evaluated directly on the
lattice, so numeric pipelines can be checked against exact expressions:
Gaussian packets, two-hump superpositions ("cat" states), and the outputs
of Gaussian coordinate slits acting on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import POSITION, Grid, WaveFunction, _adopt
from .wigner import WignerFunction

#: Relative edge amplitude beyond which a state is rejected as not fitting.
_FIT_ERROR_LEVEL = 1e-6


@dataclass(frozen=True)
class GaussianSpec:
    """Packet of spatial extent ``width``, centered at ``center`` and boosted by ``momentum_offset``."""

    width: float
    center: float = 0.0
    momentum_offset: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class CatSpec:
    """Even superposition of two packets of extent ``width`` centered at +-``separation``."""

    width: float
    separation: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")


def _check_fit(grid: Grid, center: float, width: float, momentum_offset: float = 0.0) -> None:
    """Refuse a Gaussian packet centred beyond the lattice ends, or with more than ``_FIT_ERROR_LEVEL``
    of its peak at an end, on q (centre ``center``, extent ``width``) or p (``momentum_offset``, ``hbar/width``)."""
    for axis, points, c, extent in (
        ("q", grid.q, center, np.float64(width)),
        ("p", grid.p, momentum_offset, grid.hbar / np.float64(width)),
    ):
        ends = points[[0, -1]]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an extent of 0 or inf fails
            edge = np.exp(-((ends - c) ** 2) / (2 * extent**2)).max()
        if not (ends[0] <= c <= ends[1] and edge <= _FIT_ERROR_LEVEL):
            raise ValueError(
                f"packet of width {width} centred at {axis} = {c} does not fit the {axis} range "
                f"[{ends[0]:.6g}, {ends[1]:.6g}] of the lattice (relative edge amplitude {edge:.2e})"
            )


def _check_slit(q_m: float) -> None:
    """Refuse a slit width unless its square, which the filtered forms divide by, is a positive finite float64."""
    with np.errstate(over="ignore", under="ignore"):
        square = np.float64(q_m) ** 2
    if not (q_m > 0 and np.isfinite(square) and square > 0):
        raise ValueError(f"slit width {q_m} must be positive with a square that is a positive finite float64")


def gaussian_wavefunction(spec: GaussianSpec, grid: Grid) -> WaveFunction:
    """Samples of ``(pi w^2)^(-1/4) exp(-(q-c)^2 / 2w^2) exp(i p0 q / hbar)``."""
    _check_fit(grid, spec.center, spec.width, spec.momentum_offset)
    q = grid.q
    values = (np.pi * spec.width**2) ** (-0.25) * np.exp(
        -((q - spec.center) ** 2) / (2 * spec.width**2)
        + 1j * spec.momentum_offset * q / grid.hbar
    )
    return WaveFunction(grid, values, POSITION)


def gaussian_wdf_closed_form(spec: GaussianSpec, grid: Grid) -> WignerFunction:
    """Exact distribution ``(2/h) exp(-(q-c)^2/w^2 - (p-p0)^2 w^2/hbar^2)``."""
    _check_fit(grid, spec.center, spec.width, spec.momentum_offset)
    q, p = grid.q[:, None], grid.p  # broadcast to the lattice: rows q, columns p
    values = (2.0 / grid.h) * np.exp(
        -((q - spec.center) ** 2) / spec.width**2
        - ((p - spec.momentum_offset) ** 2) * spec.width**2 / grid.hbar**2
    )
    return WignerFunction(grid, _adopt(values))


def cat_norm_constant(spec: CatSpec) -> float:
    """Normalization ``(4 pi w^2)^(-1/4) [1 + exp(-d^2/w^2)]^(-1/2)``."""
    return float(
        (4 * np.pi * spec.width**2) ** (-0.25)
        * (1.0 + np.exp(-(spec.separation**2) / spec.width**2)) ** (-0.5)
    )


def cat_wavefunction(spec: CatSpec, grid: Grid) -> WaveFunction:
    """Two-hump state ``N [exp(-(q-d)^2/2w^2) + exp(-(q+d)^2/2w^2)]``."""
    for hump in (spec.separation, -spec.separation):
        _check_fit(grid, hump, spec.width)
    q = grid.q
    norm = cat_norm_constant(spec)
    values = norm * (
        np.exp(-((q - spec.separation) ** 2) / (2 * spec.width**2))
        + np.exp(-((q + spec.separation) ** 2) / (2 * spec.width**2))
    )
    return WaveFunction(grid, values, POSITION)


def cat_wdf_closed_form(spec: CatSpec, grid: Grid) -> WignerFunction:
    """Exact two-hump distribution with its oscillatory cross term.

    Two displaced Gaussian blobs plus an interference term
    ``2 exp(-q^2/w^2) cos(2 d p / hbar)`` centered at the origin, all under
    a shared momentum envelope.  The cross term peaks at the phase-space
    origin with value 2/h regardless of the separation.
    """
    for hump in (spec.separation, -spec.separation):
        _check_fit(grid, hump, spec.width)
    q, p = grid.q[:, None], grid.p
    w2 = spec.width**2
    d = spec.separation
    envelope = np.exp(-(p**2) * w2 / grid.hbar**2) / (
        grid.h * (1.0 + np.exp(-(d**2) / w2))
    )
    bracket = (
        np.exp(-((q - d) ** 2) / w2)
        + np.exp(-((q + d) ** 2) / w2)
        + 2.0 * np.exp(-(q**2) / w2) * np.cos(2.0 * d * p / grid.hbar)
    )
    return WignerFunction(grid, _adopt(envelope * bracket))


def filtered_gaussian_wdf_closed_form(q_i: float, q_m: float, grid: Grid) -> WignerFunction:
    """Exact output distribution of a centered Gaussian slit on a Gaussian packet.

    The result is not renormalized: its total mass equals the transmitted
    fraction of the slit, so it can be compared directly against the raw
    numeric filtering pipeline.
    """
    if not q_i > 0:
        raise ValueError(f"input width must be positive, got {q_i}")
    _check_fit(grid, 0.0, q_i)
    _check_slit(q_m)
    q, p = grid.q[:, None], grid.p
    sum_sq = q_i**2 + q_m**2
    values = (
        2.0
        / (grid.h * np.sqrt(np.pi * sum_sq))
        * np.exp(-(q**2) / q_i**2 - (q**2) / q_m**2)
        * np.exp(-(p**2) / grid.hbar**2 * (q_i**2 * q_m**2 / sum_sq))
    )
    return WignerFunction(grid, _adopt(values))


def filtered_cat_wdf_closed_form(
    spec: CatSpec, q_m: float, offset: float, grid: Grid
) -> WignerFunction:
    """Exact output distribution of a Gaussian slit at ``q = offset`` on a two-hump state.

    The slit damps the cross term by ``exp(-d^2/(q_i^2+q_m^2))`` and
    compresses its oscillation frequency by ``q_m^2/(q_i^2+q_m^2)``.  The
    overall constant is not available in closed form here; it is fixed by
    matching the total mass of the numerically filtered state, which equals
    the transmitted fraction of the slit.
    """
    _check_slit(q_m)
    q, p = grid.q[:, None], grid.p
    d = spec.separation
    w2 = spec.width**2
    sum_sq = w2 + q_m**2
    shape = (
        np.exp(-((q - offset) ** 2) / q_m**2)
        * np.exp(-(p**2) / grid.hbar**2 * (w2 * q_m**2 / sum_sq))
        * (
            np.exp(-((q - d) ** 2) / w2)
            + np.exp(-((q + d) ** 2) / w2)
            + 2.0
            * np.exp(-(q**2) / w2)
            * np.exp(-(d**2) / sum_sq)
            * np.cos(2.0 * d * p / grid.hbar * (q_m**2 / sum_sq))
        )
    )
    # transmitted fraction of the raw filtered state fixes the constant
    cat = cat_wavefunction(spec, grid)
    slit = (np.pi * q_m**2) ** (-0.25) * np.exp(-((grid.q - offset) ** 2) / (2 * q_m**2))
    transmitted = float(np.sum(np.abs(cat.values * slit) ** 2) * grid.delta_q)
    shape_mass = float(np.sum(shape) * grid.delta_q * grid.delta_p)
    return WignerFunction(grid, _adopt(shape * (transmitted / shape_mass)))
