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

from .errors import InvariantViolation, _checked_kind
from .grid import (
    _BLOCK, P_BAND_LEVEL, Grid, WaveFunction, _adopt, _centre_p, _edge_ratio, _frozen_array, _half_dft,
    _pair_correlation, squared_norm, to_position,
)

#: The one mass rule: a distribution carries a positive total mass of at most 1 + MASS_TOLERANCE (a filter output
#: carries its transmission, less), and where a normalized state is required its mass lies within MASS_TOLERANCE of 1.
MASS_TOLERANCE = 1e-6
_TOLERANCE_TEXT = f"{MASS_TOLERANCE:.0e}".replace("e-0", "e-")  # "1e-6", as the messages read

#: States with h*integral(W^2) above this are considered pure.
PURITY_THRESHOLD = 1.0 - MASS_TOLERANCE

#: Smallest |psi(0)| that :func:`recover_wavefunction` accepts as its reference.
MIN_REFERENCE = 1e-6


@dataclass(frozen=True)
class _LatticeMatrix:
    """The frozen float64 ``(n, n)`` values and the mass of the two phase-space matrices, :class:`WignerFunction` and
    ``filtering.DetectionMap``: siblings, so neither is read as the other; each names its values in ``_what``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        _checked_kind(self.grid, Grid, "grid")
        n = self.grid.n_points
        values = _frozen_array(self.values, np.float64, (n, n), self._what)
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.delta_q * self.grid.delta_p)


class WignerFunction(_LatticeMatrix):
    """Real matrix over the q x p lattice, indexed ``values[q_index, p_index]``."""

    _what = "values in Wigner matrix"


def _band_edge(values: np.ndarray) -> float:
    """``P_BAND_LEVEL``'s measure: the momentum density at or beyond a p-lattice end over its peak, of a matrix's
    p-marginal or of position amplitudes, whose two-band spectrum is read folded onto the band, as their p-marginal
    sums it, and beyond it, which only the samples show; so a state reads at least what its distribution reads."""
    n = values.shape[-1]
    if values.ndim == 1:
        density = np.abs(_half_dft(values)) ** 2
        density[:n] += density[n:]  # |X_k|^2 + |X_(k+n)|^2, holding the peak, then the band beyond
    else:
        density = values.sum(axis=0)
    return _edge_ratio(density, (np.r_[0, n - 1:len(density)],))  # from index n on: beyond the last p, wrapping


def _checked_state(w: WignerFunction | WaveFunction, kind: type, name: str, normalized=False, on=None) -> float:
    """Mass of ``w``, the ``name`` argument of its reader, under the kind rule, given ``on``, and the state rule: the
    mass rule (a wavefunction's mass is its squared norm), and the band rule, ``_band_edge`` of ``w`` (in position) at
    most ``P_BAND_LEVEL``."""
    _checked_kind(w, kind, name, on)
    mass = squared_norm(w) if isinstance(w, WaveFunction) else w.mass()
    if not mass > 0:  # uncertainty_product and purity divide by it
        raise InvariantViolation(f"total mass {mass:.7g} of the {name} is not positive: it carries no state")
    if (abs(mass - 1.0) if normalized else mass - 1.0) > MASS_TOLERANCE:
        excess = "deviates from" if normalized else "exceeds"
        raise InvariantViolation(f"total mass {mass:.7g} of the {name} {excess} 1 by more than {_TOLERANCE_TEXT}")
    if (edge := _band_edge(to_position(w).values if isinstance(w, WaveFunction) else w.values)) > P_BAND_LEVEL:
        raise InvariantViolation(f"momentum density {edge:.2e} of the {name} at or beyond a p-lattice end exceeds "
                                 f"{P_BAND_LEVEL:g} of its peak: its content beyond the band folds into it")
    return mass


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix ``entries[a, b] = <q_a|rho|q_b>`` over the coordinate lattice."""

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        _checked_kind(self.grid, Grid, "grid")
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
    """Projector |psi><psi|, the mixture of one: an in-band state of squared norm within 1e-10 of 1 (the trace gate)."""
    return mixed_density([psi], [1.0])


def mixed_density(states: Sequence[WaveFunction], weights: Sequence[float]) -> DensityMatrix:
    """Mixture sum_i w_i |psi_i><psi_i| of in-band states on one grid, any representation, each of squared norm within
    ``MASS_TOLERANCE`` of 1; the :class:`DensityMatrix` trace gate holds sum_i w_i |psi_i|^2 within 1e-10 of 1."""
    if len(states) != len(weights) or not states:
        raise ValueError(f"need one weight per state, got {len(weights)} for {len(states)}")
    if not all(np.isfinite(w) and w >= 0 for w in weights):
        raise InvariantViolation(f"mixture weights must be finite and nonnegative, got {[float(w) for w in weights]}")
    first = (states[0], "state 0 of the mixture")
    for i, s in enumerate(states):
        _checked_state(s, WaveFunction, f"state {i} of the mixture", normalized=True, on=first)
    amplitudes = [to_position(s).values for s in states]
    entries = np.outer(amplitudes[0], np.conj(amplitudes[0]))
    entries *= weights[0]
    for a, w in zip(amplitudes[1:], weights[1:]):
        entries += w * np.outer(a, np.conj(a))
    return DensityMatrix(states[0].grid, _adopt(entries))


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

    A linear map of the correlation: it takes amplitudes of any norm, so it
    skips the mass rule of :func:`wdf_from_wavefunction`.  Filter
    outputs carry their transmission in the overall scale.
    """
    return _transform_correlation(_pair_correlation(np.asarray(amplitudes, dtype=np.complex128)), grid)


def wdf_from_wavefunction(psi: WaveFunction) -> WignerFunction:
    """Wigner distribution of a state in either representation: in band, squared norm within ``MASS_TOLERANCE`` of 1."""
    _checked_state(psi, WaveFunction, "state", normalized=True)
    return WignerFunction(psi.grid, _adopt(wigner_values_of_amplitudes(to_position(psi).values, psi.grid)))


def wdf_from_density(rho: DensityMatrix) -> WignerFunction:
    """Wigner distribution of a density matrix.

    Identical construction with ``c_j(m) = <q_j + m dq|rho|q_j - m dq>``,
    zero off the lattice; agrees with the pure-state path for projectors.
    The Hermitian transform drops the anti-Hermitian part of ``rho``, which
    the :class:`DensityMatrix` gate bounds by ``1.6e-13 * L / hbar`` in the
    result on a lattice of length ``L``.
    """
    _checked_kind(rho, DensityMatrix, "density matrix")
    n = rho.grid.n_points
    corr = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for m in range(n // 2 + 1):  # rows j -/+ m both on the lattice for m <= j < n - m
        corr[m:n - m, m] = rho.entries.diagonal(-2 * m)
    return WignerFunction(rho.grid, _adopt(_transform_correlation(corr, rho.grid)))


def marginal_q(w: WignerFunction) -> np.ndarray:
    """Momentum-integrated distribution, the position density |psi(q)|^2; a linear map of any matrix."""
    _checked_kind(w, WignerFunction, "distribution")
    return np.asarray(w.values.sum(axis=1) * w.grid.delta_p)


def marginal_p(w: WignerFunction) -> np.ndarray:
    """Position-integrated distribution, the momentum density |psi_bar(p)|^2; a linear map of any matrix."""
    _checked_kind(w, WignerFunction, "distribution")
    return np.asarray(w.values.sum(axis=0) * w.grid.delta_q)


def expectation(w: WignerFunction, symbol: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Phase-space average ``integral symbol(q, p) W(q, p) dq dp``.

    The symbol is evaluated pointwise on the lattice.  This equals the
    quantum expectation of an operator exactly when the symbol is its
    Weyl-ordered (symmetrized) scalar counterpart.  Linear in ``w``: any
    matrix is taken, and the mass is not divided out.
    """
    _checked_kind(w, WignerFunction, "distribution")
    g = w.grid
    qq, pp = np.meshgrid(g.q, g.p, indexing="ij")
    return float(np.sum(np.asarray(symbol(qq, pp), dtype=np.float64) * w.values)
                 * g.delta_q * g.delta_p)


def _variance(x: np.ndarray, density: np.ndarray, delta: float) -> float:
    mean = np.sum(x * density) * delta
    return float(np.sum((x - mean) ** 2 * density) * delta)


def uncertainty_product(w: WignerFunction) -> float:
    """``delta_q * delta_p`` (>= hbar/2) of the in-band state ``w``: marginals over its mass (<= 1 + MASS_TOLERANCE)."""
    mass = _checked_state(w, WignerFunction, "distribution")
    g = w.grid
    var_q = _variance(g.q, marginal_q(w) / mass, g.delta_q)
    var_p = _variance(g.p, marginal_p(w) / mass, g.delta_p)
    if var_q < 0 or var_p < 0:
        raise InvariantViolation(
            f"negative variance (var_q={var_q:.3e}, var_p={var_p:.3e}); "
            "input is not a physical state"
        )
    return float(np.sqrt(var_q) * np.sqrt(var_p))


def overlap_probability(w1: WignerFunction, w2: WignerFunction) -> float:
    """Transition probability ``h * integral W1 W2 dq dp`` of two in-band states of mass within ``MASS_TOLERANCE`` of 1.

    Equals |<psi1|psi2>|^2 for pure states.
    """
    _checked_state(w1, WignerFunction, "first distribution", normalized=True)
    _checked_state(w2, WignerFunction, "second distribution", normalized=True, on=(w1, "first distribution"))
    g = w1.grid
    return float(g.h * np.sum(w1.values * w2.values) * g.delta_q * g.delta_p)


def purity(w: WignerFunction) -> float:
    """Self-overlap ``h * integral W^2 dq dp`` over the squared mass (<= 1 + MASS_TOLERANCE), in band; 1 if pure."""
    return _purity(w, _checked_state(w, WignerFunction, "distribution"))


def _purity(w: WignerFunction, mass: float) -> float:
    """:func:`purity` of ``w`` given its ``mass``, as its reader's state check returned it."""
    return float(w.grid.h * np.sum(w.values * w.values) * w.grid.delta_q * w.grid.delta_p) / mass**2


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
    psi(0) real and positive.  The mass must lie within ``MASS_TOLERANCE``
    of 1, the state in band, and the purity at least ``PURITY_THRESHOLD``.
    """
    pur = _purity(w, _checked_state(w, WignerFunction, "distribution", normalized=True))
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
    correlation /= np.sqrt(np.sum(np.abs(correlation) ** 2) * g.delta_q)  # normalized before its one WaveFunction
    return WaveFunction(g, _adopt(correlation))
