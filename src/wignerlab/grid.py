"""Uniform coordinate/momentum lattices and sampled wavefunctions.

The momentum spacing is ``pi*hbar/(n_points*delta_q)``, half the naive
spectral spacing.  Phase-space correlation samples live on even multiples
of ``delta_q``, which halves the reachable momentum band; adopting that
band grid-wide keeps wavefunctions and phase-space distributions on one
consistent lattice with no resampling between operations.  States are
expected to be negligible at the lattice edges; nothing here windows or
periodizes the data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvariantViolation

POSITION = "position"
MOMENTUM = "momentum"

#: Relative edge amplitude above which a diagnostic warning is emitted.
EDGE_WARN_LEVEL = 1e-8

_EDGE_WARNING = (
    "wavefunction edge amplitude exceeds 1e-8 of the peak; "
    "periodization artifacts possible, consider a wider grid"
)


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D coordinate lattice with its derived momentum lattice.

    Samples are ``q_j = q_min + j*delta_q`` for ``j in [0, n_points)`` and
    ``p_k = (k - n_points/2)*delta_p`` with
    ``delta_p = pi*hbar/(n_points*delta_q)``, so that
    ``delta_q*delta_p*n_points == pi*hbar`` exactly.
    """

    q_min: float
    delta_q: float
    n_points: int
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise ValueError(
                f"n_points must be even and >= 8, got {self.n_points}"
            )
        if not self.delta_q > 0:
            raise ValueError("delta_q must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def h(self) -> float:
        return 2.0 * np.pi * self.hbar

    @property
    def delta_p(self) -> float:
        return np.pi * self.hbar / (self.n_points * self.delta_q)

    @property
    def q_max(self) -> float:
        return self.q_min + self.n_points * self.delta_q

    @cached_property
    def q(self) -> np.ndarray:
        values = self.q_min + self.delta_q * np.arange(self.n_points)
        values.setflags(write=False)
        return values

    @cached_property
    def p(self) -> np.ndarray:
        values = (np.arange(self.n_points) - self.n_points // 2) * self.delta_p
        values.setflags(write=False)
        return values

    def origin_index(self) -> int:
        """Index of the lattice point q = 0.

        Convolution-style operations evaluate a device at coordinate
        differences, which lie on the lattice only when q = 0 does.
        """
        j = round(-self.q_min / self.delta_q)
        if not 0 <= j < self.n_points or abs(self.q_min + j * self.delta_q) > 1e-9 * self.delta_q:
            raise ValueError("q = 0 is not a point of this lattice")
        return int(j)

    def steps_of(self, offset: float, spacing: float) -> int:
        """Express ``offset`` as an integer number of lattice cells."""
        ratio = offset / spacing
        n = round(ratio)
        if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"offset {offset} is not an integer multiple of the lattice spacing {spacing}"
            )
        return int(n)


def make_grid(q_min: float, q_max: float, n_points: int, hbar: float = 1.0) -> Grid:
    """Build the lattice covering [q_min, q_max) with ``n_points`` samples."""
    if not q_max > q_min:
        raise ValueError("q_max must exceed q_min")
    return Grid(
        q_min=float(q_min),
        delta_q=(float(q_max) - float(q_min)) / n_points,
        n_points=int(n_points),
        hbar=float(hbar),
    )


def _frozen_array(values, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Read-only copy of ``values`` as ``dtype``, checked for shape and finiteness."""
    array = np.array(values, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"expected {what} of shape {shape}, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise InvariantViolation(f"non-finite {what}")
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes sampled on a :class:`Grid`, in one representation."""

    grid: Grid
    values: np.ndarray
    representation: str = POSITION

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown representation {self.representation!r}")
        n = self.grid.n_points
        values = _frozen_array(self.values, np.complex128, (n,), "amplitudes in wavefunction")
        object.__setattr__(self, "values", values)
        peak = float(np.max(np.abs(values)))
        if peak > 0:
            edge = max(abs(values[0]), abs(values[-1])) / peak
            if edge > EDGE_WARN_LEVEL:
                # stacklevel skips the dataclass-generated __init__ frame
                warnings.warn(_EDGE_WARNING, stacklevel=3)

    @property
    def quadrature_delta(self) -> float:
        return self.grid.delta_q if self.representation == POSITION else self.grid.delta_p

    @property
    def coordinates(self) -> np.ndarray:
        return self.grid.q if self.representation == POSITION else self.grid.p


def squared_norm(psi: WaveFunction) -> float:
    """Quadrature squared norm sum(|psi_j|^2) * delta."""
    return float(np.sum(np.abs(psi.values) ** 2) * psi.quadrature_delta)


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale to unit quadrature norm; rejects the zero wavefunction."""
    norm2 = squared_norm(psi)
    if not norm2 > 0 or not np.isfinite(norm2):
        raise InvariantViolation(f"cannot normalize a wavefunction with squared norm {norm2}")
    return WaveFunction(psi.grid, psi.values / np.sqrt(norm2), psi.representation)


def _require_compatible(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("wavefunctions live on different grids")
    if a.representation != b.representation:
        raise GridMismatchError("wavefunctions are in different representations")


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """Quadrature inner product <a|b>; conjugate-linear in the first slot."""
    _require_compatible(a, b)
    return complex(np.sum(np.conj(a.values) * b.values) * a.quadrature_delta)


def _quarter_phases(n: int) -> np.ndarray:
    # exact powers of i, period four
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n) % 4]


def _half_dft(values: np.ndarray) -> np.ndarray:
    """``sum_j values[..., j] * exp(-i*pi*j*(k - n/2)/n)`` for ``k in [0, n)``.

    The transform over the last axis onto the half-spaced momentum lattice,
    relative to ``q_min``: one length-2N FFT of quarter-phased samples.
    """
    n = values.shape[-1]
    return np.fft.fft(values * _quarter_phases(n), 2 * n)[..., :n]


def _zero_extended(values: np.ndarray, index: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gather ``values`` along ``axis`` at ``index``, reading zero off the lattice.

    The axis of length n is extended by n zeros, so any index in
    ``[-n, 2n)`` is valid: ``[0, n)`` reads the samples, ``[n, 2n)`` the
    zeros, and ``[-n, 0)`` wraps around onto the zeros.
    """
    n = values.shape[axis]
    widths = [(0, 0)] * values.ndim
    widths[axis] = (0, n)
    return np.take(np.pad(values, widths), index, axis=axis)


def _pair_correlation(values: np.ndarray) -> np.ndarray:
    """``c_j(m) = conj(values[j-m]) * values[j+m]`` for ``m in [0, n/2]``, zero off the lattice."""
    n = values.shape[-1]
    j, m = np.arange(n)[:, None], np.arange(n // 2 + 1)
    return np.conj(_zero_extended(values, j - m)) * _zero_extended(values, j + m)


def _linear_convolution(a: np.ndarray, b: np.ndarray, starts: dict[int, int]) -> np.ndarray:
    """Zero-extended convolution of two arrays over the axes in ``starts``.

    Each key of ``starts`` is a convolved axis of length n, and its value
    the first index of the n-long window kept from the full convolution;
    the remaining axes are broadcast elementwise.  Padding to 2n rather than
    2n - 1 keeps the FFT length even, which is faster, and the extra
    sample is exactly zero.  Real operands take the real-input FFT.
    """
    axes = tuple(starts)
    sizes = [2 * a.shape[axis] for axis in axes]
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        full = np.fft.ifftn(np.fft.fftn(a, sizes, axes) * np.fft.fftn(b, sizes, axes), axes=axes)
    else:
        full = np.fft.irfftn(np.fft.rfftn(a, sizes, axes) * np.fft.rfftn(b, sizes, axes), sizes, axes)
    window = [slice(None)] * full.ndim
    for axis, start in starts.items():
        window[axis] = slice(start, start + a.shape[axis])
    return full[tuple(window)]


def fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Momentum representation ``h^(-1/2) * integral psi(q) exp(-ipq/hbar) dq``.

    The half-spaced momentum lattice makes this a fractional-frequency sum,
    computed as a phase-corrected length-2N spectral transform.  Exactly
    invertible (to spectral accuracy) for states contained in both windows.
    """
    if psi.representation != POSITION:
        raise ValueError("fourier_transform expects a position-representation input")
    g = psi.grid
    values = (g.delta_q / np.sqrt(g.h)) * np.exp(-1j * g.p * g.q_min / g.hbar) * _half_dft(psi.values)
    return WaveFunction(g, values, MOMENTUM)


def inverse_fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Position representation ``h^(-1/2) * integral psi(p) exp(+ipq/hbar) dp``."""
    if psi.representation != MOMENTUM:
        raise ValueError("inverse_fourier_transform expects a momentum-representation input")
    g = psi.grid
    n = g.n_points
    pre = psi.values * np.exp(1j * g.p * g.q_min / g.hbar)
    spectrum = np.fft.ifft(pre, 2 * n)[:n] * (2 * n)
    values = (g.delta_p / np.sqrt(g.h)) * np.conj(_quarter_phases(n)) * spectrum
    return WaveFunction(g, values, POSITION)


def to_position(psi: WaveFunction) -> WaveFunction:
    return psi if psi.representation == POSITION else inverse_fourier_transform(psi)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    return psi if psi.representation == MOMENTUM else fourier_transform(psi)
