"""The Wigner distribution and its calculus.

The distribution is built from the two-point correlation of the state:
for every lattice point ``q_j`` the correlation
``c_j(m) = conj(psi(q_j - m*dq)) * psi(q_j + m*dq)`` is formed over integer
offsets ``m`` (zero outside the grid) and spectrally transformed over ``m``.
As ``c_j(-m) = conj(c_j(m))``, only ``m in [0, n/2]`` is gathered and a
Hermitian transform makes the result real by construction.  With the
half-spaced momentum lattice it is an ordinary DFT with an alternating sign
absorbing the centering of the p axis, so the q-marginal of the result
reproduces ``|psi_j|^2`` exactly and the total quadrature mass of a
normalized state is exactly one.

Values of the distribution may be negative; it is a quasi-probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError, InvariantViolation
from .grid import (
    _BLOCK, POSITION, Grid, WaveFunction, _adopt, _centre_p, _frozen_array, _pair_correlation, normalize, squared_norm,
)

#: States with h*integral(W^2) above this are considered pure.
PURITY_THRESHOLD = 1.0 - 1e-6

#: Smallest |psi(0)| that :func:`recover_wavefunction` accepts as its reference.
MIN_REFERENCE = 1e-6


@dataclass(frozen=True)
class WignerFunction:
    """Real matrix over the q x p lattice, indexed ``values[q_index, p_index]``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        values = _frozen_array(self.values, np.float64, (n, n), "values in Wigner matrix")
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.delta_q * self.grid.delta_p)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix ``entries[a, b] = <q_a|rho|q_b>`` over the coordinate lattice."""

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        entries = _frozen_array(self.entries, np.complex128, (n, n), "entries in density matrix")
        blocks = (slice(first, first + _BLOCK) for first in range(0, n, _BLOCK))  # no N x N temporary
        deviation = max(np.max(np.abs(entries[rows] - entries[:, rows].T.conj())) for rows in blocks)
        if deviation > 1e-12:
            raise InvariantViolation(
                f"density matrix is not Hermitian (max deviation {deviation:.2e})"
            )
        trace = float(np.trace(entries).real) * self.grid.delta_q
        if abs(trace - 1.0) > 1e-10:
            raise InvariantViolation(f"density matrix trace is {trace}, expected 1")
        object.__setattr__(self, "entries", entries)

    def smallest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min()) * self.grid.delta_q


def pure_density(psi: WaveFunction) -> DensityMatrix:
    """Projector |psi><psi| for a normalized position-representation state: the mixture of one."""
    return mixed_density([psi], [1.0])


def mixed_density(states: Sequence[WaveFunction], weights: Sequence[float]) -> DensityMatrix:
    """Statistical mixture sum_i w_i |psi_i><psi_i| with sum w_i = 1 of position-representation states on one grid."""
    if len(states) != len(weights) or not states:
        raise ValueError(f"need one weight per state, got {len(weights)} for {len(states)}")
    if not all(np.isfinite(w) and w >= 0 for w in weights):
        raise InvariantViolation(f"mixture weights must be finite and nonnegative, got {[float(w) for w in weights]}")
    grid = states[0].grid
    for i, s in enumerate(states):
        if s.representation != POSITION:
            raise ValueError(f"state {i} of the mixture is in {s.representation} representation, not position")
        if s.grid != grid:
            raise GridMismatchError(f"state {i} of the mixture lives on another grid than state 0")
    entries = np.outer(states[0].values, np.conj(states[0].values))
    entries *= weights[0]
    for s, w in zip(states[1:], weights[1:]):
        entries += w * np.outer(s.values, np.conj(s.values))
    return DensityMatrix(grid, _adopt(entries))


def _transform_correlation(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Hermitian transform over the offsets ``m in [0, n/2]``, scaled to a distribution.

    Overwrites ``half``: negating its odd offsets centres the p axis, and its
    conjugate's forward-norm ``irfft`` is ``hfft`` without the copy.
    """
    out = np.fft.irfft(np.conjugate(_centre_p(half), out=half), grid.n_points, axis=1, norm="forward")
    out *= 2.0 * grid.delta_q / grid.h
    return out


def wigner_values_of_amplitudes(amplitudes: np.ndarray, grid: Grid) -> np.ndarray:
    """Distribution matrix of raw position amplitudes, no normalization required.

    Filter outputs carry their transmission in the overall scale, so this
    low-level path deliberately skips the unit-norm gate of
    :func:`wdf_from_wavefunction`.
    """
    return _transform_correlation(_pair_correlation(np.asarray(amplitudes, dtype=np.complex128)), grid)


def wdf_from_wavefunction(psi: WaveFunction) -> WignerFunction:
    """Wigner distribution of a normalized position-representation state."""
    if psi.representation != POSITION:
        raise ValueError("wdf_from_wavefunction expects a position-representation state")
    norm = squared_norm(psi)
    if abs(norm - 1.0) > 1e-6:
        raise InvariantViolation(
            f"input squared norm {norm} deviates from 1 by more than 1e-6"
        )
    return WignerFunction(psi.grid, _adopt(wigner_values_of_amplitudes(psi.values, psi.grid)))


def wdf_from_density(rho: DensityMatrix) -> WignerFunction:
    """Wigner distribution of a density matrix.

    Identical construction with ``c_j(m) = <q_j + m dq|rho|q_j - m dq>``,
    zero off the lattice; agrees with the pure-state path for projectors.
    The Hermitian transform drops the anti-Hermitian part of ``rho``, which
    the :class:`DensityMatrix` gate bounds by ``1.6e-13 * L / hbar`` in the
    result on a lattice of length ``L``.
    """
    n = rho.grid.n_points
    corr = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for m in range(n // 2 + 1):  # rows j -/+ m both on the lattice for m <= j < n - m
        corr[m:n - m, m] = rho.entries.diagonal(-2 * m)
    return WignerFunction(rho.grid, _adopt(_transform_correlation(corr, rho.grid)))


def marginal_q(w: WignerFunction) -> np.ndarray:
    """Momentum-integrated distribution, the position density |psi(q)|^2."""
    return np.asarray(w.values.sum(axis=1) * w.grid.delta_p)


def marginal_p(w: WignerFunction) -> np.ndarray:
    """Position-integrated distribution, the momentum density |psi_bar(p)|^2."""
    return np.asarray(w.values.sum(axis=0) * w.grid.delta_q)


def expectation(w: WignerFunction, symbol: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Phase-space average ``integral symbol(q, p) W(q, p) dq dp``.

    The symbol is evaluated pointwise on the lattice.  This equals the
    quantum expectation of an operator exactly when the symbol is its
    Weyl-ordered (symmetrized) scalar counterpart.
    """
    g = w.grid
    qq, pp = np.meshgrid(g.q, g.p, indexing="ij")
    return float(np.sum(np.asarray(symbol(qq, pp), dtype=np.float64) * w.values)
                 * g.delta_q * g.delta_p)


def _variance(x: np.ndarray, density: np.ndarray, delta: float) -> float:
    mean = np.sum(x * density) * delta
    return float(np.sum((x - mean) ** 2 * density) * delta)


def uncertainty_product(w: WignerFunction) -> float:
    """Return ``delta_q * delta_p`` of the distribution; >= hbar/2 for physical states."""
    g = w.grid
    var_q = _variance(g.q, marginal_q(w), g.delta_q)
    var_p = _variance(g.p, marginal_p(w), g.delta_p)
    if var_q < 0 or var_p < 0:
        raise InvariantViolation(
            f"negative variance (var_q={var_q:.3e}, var_p={var_p:.3e}); "
            "input is not a physical state"
        )
    return float(np.sqrt(var_q) * np.sqrt(var_p))


def overlap_probability(w1: WignerFunction, w2: WignerFunction) -> float:
    """Transition probability ``h * integral W1 W2 dq dp``.

    Equals |<psi1|psi2>|^2 for pure states.
    """
    if w1.grid != w2.grid:
        raise GridMismatchError("distributions live on different grids")
    g = w1.grid
    return float(g.h * np.sum(w1.values * w2.values) * g.delta_q * g.delta_p)


def purity(w: WignerFunction) -> float:
    """Self-overlap ``h * integral W^2 dq dp``; one for pure states, below one for mixtures."""
    return overlap_probability(w, w)


def _upsample_rows(values: np.ndarray) -> np.ndarray:
    """Double the row count of a real matrix by trigonometric interpolation along the q axis."""
    n = values.shape[0]
    spectrum = np.fft.rfft(values, axis=0)
    spectrum[n // 2] *= 0.5  # the Nyquist row is split between its two images
    return np.fft.irfft(spectrum, 2 * n, axis=0) * 2.0


def recover_wavefunction(w: WignerFunction) -> WaveFunction:
    """Invert the distribution of a pure state back to its wavefunction.

    Uses the correlation against the fixed reference point q = 0:
    ``psi(q) psi*(0) = integral W(q/2, p) exp(ipq/hbar) dp``.  The half
    coordinate is reached by spectral upsampling of the q axis, which is
    exact for band-limited data.  The global phase is fixed by making
    psi(0) real and positive.
    """
    pur = purity(w)
    if pur < PURITY_THRESHOLD:
        raise InvariantViolation(f"purity {pur:.6f} below pure-state threshold; cannot invert")
    g = w.grid
    n = g.n_points
    j0 = g.origin_index()
    # q_j p_k / hbar = pi (j - j0)(k - n/2) / n, as dq dp n = pi hbar: the phases are exact roots of unity
    roots = np.exp(1j * np.pi * np.arange(2 * n) / n)
    j, k = np.arange(n)[:, None] - j0, np.arange(n) - n // 2
    correlation = np.zeros(n, dtype=np.complex128)
    for first in range(0, n, _BLOCK):  # so neither the 2n x n upsample nor the phase matrix is ever whole
        cols = slice(first, first + _BLOCK)
        rows = _upsample_rows(w.values[:, cols])[j0:j0 + n]
        correlation += (rows * roots[j * k[cols] % (2 * n)]).sum(axis=1)
    correlation *= g.delta_p
    reference = correlation[j0].real
    if reference <= MIN_REFERENCE**2:
        raise InvariantViolation(
            "|psi(0)| is too small to serve as the recovery reference point"
        )
    amplitudes = correlation / np.sqrt(reference)
    return normalize(WaveFunction(g, amplitudes, POSITION))
