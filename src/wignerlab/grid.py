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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, _checked_fields, _checked_kind, _count, _finite, _positive

POSITION = "position"
MOMENTUM = "momentum"

#: The containment rule, two refusal levels: a state fits while its amplitude at a lattice end is at most EDGE_LEVEL
#: of its peak (the generators' fit rule and the propagators' aborts), and its momentum density at or beyond a p end
#: at most P_BAND_LEVEL (the band rule: wigner._band_edge, read by every state reader and by the propagator's checks).
EDGE_LEVEL = 1e-6
P_BAND_LEVEL = 1e-7


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D coordinate lattice with its derived momentum lattice.

    Samples are ``q_j = q_min + j*delta_q`` for ``j in [0, n_points)`` and
    ``p_k = (k - n_points/2)*delta_p`` with
    ``delta_p = pi*hbar/(n_points*delta_q)``, so that
    ``delta_q*delta_p*n_points == pi*hbar`` exactly.  The count
    ``n_points`` is an integer, stored as an ``int``; the rest are floats.
    """

    q_min: float
    delta_q: float
    n_points: int
    hbar: float = 1.0

    def __post_init__(self):
        _checked_fields(self, q_min=_finite, delta_q=_positive, n_points=_count, hbar=_positive)
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * np.pi * self.hbar

    @property
    def delta_p(self) -> float:
        return np.pi * self.hbar / (self.n_points * self.delta_q)

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
    q_min, q_max, n = _finite("q_min", q_min), _finite("q_max", q_max), _count("n_points", n_points)
    if not q_max > q_min:
        raise ValueError("q_max must exceed q_min")
    return Grid(q_min, (q_max - q_min) / max(n, 1), n, hbar)  # a count below 8 meets Grid's refusal, not a 1/0


class _Adopted(np.ndarray):
    """The view type of :func:`_adopt`: marks an array the library has just built and hands over."""


def _adopt(values: np.ndarray) -> np.ndarray:
    """``values`` marked for its value type to keep rather than copy, when it spans all the memory it views."""
    owner = values
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    return values.view(_Adopted) if memoryview(owner).nbytes == values.nbytes else values


def _frozen_array(values, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as read-only ``dtype``, checked for shape and finiteness: frozen in place if adopted, else a copy."""
    array = np.asarray(values.base, dtype) if type(values) is _Adopted else np.array(values, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"expected {what} of shape {shape}, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise InvariantViolation(f"non-finite {what}")
    array.setflags(write=False)
    return array


def _edge_ratio(values: np.ndarray, ends=([0, -1],), peaks=...) -> float:
    """The edge levels' measure: the largest magnitude of ``values`` at ``ends`` (by default, both ends of a 1-D
    array) over the largest at ``peaks`` (by default, anywhere)."""
    return float(np.max(np.abs(values[ends])) / np.max(np.abs(values[peaks])))


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes sampled on a :class:`Grid`, in one representation."""

    grid: Grid
    values: np.ndarray
    representation: str = POSITION

    def __post_init__(self):
        _checked_kind(self.grid, Grid, "grid")
        if self.representation not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown representation {self.representation!r}")
        n = self.grid.n_points
        values = _frozen_array(self.values, np.complex128, (n,), "amplitudes in wavefunction")
        object.__setattr__(self, "values", values)

    @property
    def quadrature_delta(self) -> float:
        return self.grid.delta_q if self.representation == POSITION else self.grid.delta_p

    @property
    def coordinates(self) -> np.ndarray:
        return self.grid.q if self.representation == POSITION else self.grid.p


def squared_norm(psi: WaveFunction) -> float:
    """Quadrature squared norm sum(|psi_j|^2) * delta."""
    _checked_kind(psi, WaveFunction, "wavefunction")
    return float(np.sum(np.abs(psi.values) ** 2) * psi.quadrature_delta)


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale to unit quadrature norm; rejects the zero wavefunction and, in ``squared_norm``, other kinds."""
    norm2 = squared_norm(psi)
    if not norm2 > 0 or not np.isfinite(norm2):
        raise InvariantViolation(f"cannot normalize a wavefunction with squared norm {norm2}")
    return WaveFunction(psi.grid, psi.values / np.sqrt(norm2), psi.representation)


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """Quadrature inner product <a|b> of two wavefunctions on one grid in one representation; conjugate-linear in a."""
    _checked_kind(a, WaveFunction, "first wavefunction")
    _checked_kind(b, WaveFunction, "second wavefunction", (a, "first wavefunction"))
    if a.representation != b.representation:
        raise ValueError(f"inner_product expects one representation, got {a.representation} and {b.representation}")
    return complex(np.sum(np.conj(a.values) * b.values) * a.quadrature_delta)


def _quarter_phases(n: int) -> np.ndarray:
    # exact powers of i, period four
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n) % 4]


def _half_dft(values: np.ndarray) -> np.ndarray:
    """``sum_j values[..., j] * exp(-i*pi*j*(k - n/2)/n)`` for ``k in [0, 2n)``: the lattice's band, then the next.

    The transform over the last axis onto the half-spaced momentum lattice,
    relative to ``q_min``, over the two bands that position samples span:
    one length-2N FFT of quarter-phased samples.
    """
    n = values.shape[-1]
    return np.fft.fft(values * _quarter_phases(n), 2 * n)


def _pair_views(extended: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views ``[j, m] -> extended[j -/+ m + n/2]``, ``m in [0, n/2]``, of lattice indices ``[-n/2, 3n/2)``.

    The rows ``(j - m, j + m)`` that rfft column ``m`` pairs at row ``j``, as strided windows: no index grid, no copy.
    """
    windows = np.lib.stride_tricks.sliding_window_view(extended, n // 2 + 1)
    return windows[:n, ::-1], windows[n // 2:3 * n // 2]


def _pair_correlation(values: np.ndarray) -> np.ndarray:
    """``c_j(m) = conj(values[j-m]) * values[j+m]`` for ``m in [0, n/2]``, zero off the lattice."""
    n = values.shape[-1]
    lower, upper = _pair_views(np.pad(values, n // 2), n)
    out = np.conj(lower)
    out *= upper
    return out


def _centre_p(half: np.ndarray) -> np.ndarray:
    """Negate the odd offsets ``m`` (last axis) in place: the ``(-1)^m`` that puts p = 0 at column n/2."""
    half[..., 1::2] *= -1
    return half


def _shifted(values: np.ndarray, steps: int, axis: int) -> np.ndarray:
    """``values`` moved ``steps`` cells along ``axis`` (index i reads i - steps, zero off the lattice); itself for 0."""
    if not steps:
        return values
    n = values.shape[axis]
    lo, hi = min(max(steps, 0), n), min(max(-steps, 0), n)
    out = np.zeros_like(values)
    np.moveaxis(out, axis, 0)[lo:n - hi] = np.moveaxis(values, axis, 0)[hi:n - lo]
    return out


#: Lines that a blocked kernel transforms at once: a block of the axis it does not transform.
_BLOCK = 64


def _linear_convolution(a: np.ndarray, b: np.ndarray, start: int, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-extended convolution of the columns of the 2-D ``a`` and ``b`` along axis 0, a 1-column operand broadcast.

    Keeps the n-long window from row ``start``, written into ``out`` when
    given, which may alias ``a`` or ``b`` (block k of the result reads only
    block k of the operands).  Padding to 2n, not 2n - 1, keeps the FFT
    length even; the extra sample is exactly zero.  Columns go ``_BLOCK`` at a
    time, so the padded temporaries are ``2n x _BLOCK``, not ``2n x n``.  That
    is exact: each column gets the same length-2n pocketfft call as in one
    whole-array transform, so the result is bit-identical.
    """
    n = a.shape[0]
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    forward, inverse = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    for first in range(0, max(a.shape[1], b.shape[1]), _BLOCK):
        ab, bb = (v if v.shape[1] == 1 else v[:, first:first + _BLOCK] for v in (a, b))  # a kernel column goes whole
        window = inverse(forward(ab, 2 * n, 0) * forward(bb, 2 * n, 0), 2 * n, 0)[start:start + n]
        if out is None:  # allocated after the first block's transforms, so their peaks do not add
            out = np.empty(np.broadcast_shapes(a.shape, b.shape), window.dtype)
        out[:, first:first + _BLOCK] = window
        del window  # a view that would keep the block's full transform alive into the next block
    return out


def fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Momentum representation ``h^(-1/2) * integral psi(q) exp(-ipq/hbar) dq``.

    The half-spaced momentum lattice makes this a fractional-frequency sum,
    computed as a phase-corrected length-2N spectral transform.
    :func:`inverse_fourier_transform` undoes it to rounding where both edges
    are at most 1e-15, and within 3.1e-8 of the peak at the generators' fit
    limits (measured on two-packet states, N 64-300, hbar 0.5-2).
    """
    _checked_kind(psi, WaveFunction, "wavefunction")
    if psi.representation != POSITION:
        raise ValueError("fourier_transform expects a position-representation input")
    g = psi.grid
    values = (g.delta_q / np.sqrt(g.h)) * np.exp(-1j * g.p * g.q_min / g.hbar) * _half_dft(psi.values)[:g.n_points]
    return WaveFunction(g, values, MOMENTUM)


def inverse_fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Position representation ``h^(-1/2) * integral psi(p) exp(+ipq/hbar) dp``."""
    _checked_kind(psi, WaveFunction, "wavefunction")
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
