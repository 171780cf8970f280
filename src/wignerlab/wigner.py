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
from .grid import POSITION, Grid, WaveFunction, _frozen_array, _pair_correlation, normalize, squared_norm

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
        deviation = np.max(np.abs(entries - entries.conj().T))
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
    """Projector |psi><psi| for a normalized position-representation state."""
    if psi.representation != POSITION:
        raise ValueError("pure_density expects a position-representation state")
    return DensityMatrix(psi.grid, np.outer(psi.values, np.conj(psi.values)))


def mixed_density(states: Sequence[WaveFunction], weights: Sequence[float]) -> DensityMatrix:
    """Statistical mixture sum_i w_i |psi_i><psi_i| with sum w_i = 1."""
    if len(states) != len(weights) or not states:
        raise ValueError("need one weight per state")
    entries = sum(
        w * np.outer(s.values, np.conj(s.values)) for s, w in zip(states, weights)
    )
    return DensityMatrix(states[0].grid, entries)


def _transform_correlation(half: np.ndarray, grid: Grid) -> np.ndarray:
    """Hermitian transform over the offsets ``m in [0, n/2]``, scaled to a distribution.

    Negates the odd offsets of ``half`` in place; that alternating sign
    centres the p axis.
    """
    half[:, 1::2] *= -1
    return (2.0 * grid.delta_q / grid.h) * np.fft.hfft(half, grid.n_points, axis=1)


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
    return WignerFunction(psi.grid, wigner_values_of_amplitudes(psi.values, psi.grid))


def wdf_from_density(rho: DensityMatrix) -> WignerFunction:
    """Wigner distribution of a density matrix.

    Identical construction with ``c_j(m) = <q_j + m dq|rho|q_j - m dq>``,
    zero off the lattice; agrees with the pure-state path for projectors.
    The Hermitian transform drops the anti-Hermitian part of ``rho``, which
    the :class:`DensityMatrix` gate bounds by ``1.6e-13 * L / hbar`` in the
    result on a lattice of length ``L``.
    """
    n = rho.grid.n_points
    j, m = np.arange(n)[:, None], np.arange(n // 2 + 1)
    valid = (j + m < n) & (j - m >= 0)
    corr = np.where(valid, rho.entries.ravel().take(np.where(valid, (j + m) * n + (j - m), 0)), 0)
    return WignerFunction(rho.grid, _transform_correlation(corr, rho.grid))


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
    j0 = g.origin_index()
    halved = _upsample_rows(w.values)
    rows = halved[np.arange(g.n_points) + j0]
    phases = np.exp(1j * np.outer(g.q, g.p) / g.hbar)
    correlation = (rows * phases).sum(axis=1) * g.delta_p
    reference = correlation[j0].real
    if reference <= MIN_REFERENCE**2:
        raise InvariantViolation(
            "|psi(0)| is too small to serve as the recovery reference point"
        )
    amplitudes = correlation / np.sqrt(reference)
    return normalize(WaveFunction(g, amplitudes, POSITION))
