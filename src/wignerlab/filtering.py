"""The measurement calculus: filters, detection and the interaction classifier.

A filter multiplies the state by a device transmission function in one
representation.  In phase space that is a plain multiplication along the
matching axis and a convolution along the conjugate axis; the general
(convolution-type) filters additionally shift the input along one axis.
Detection convolves along both axes at once and always yields a
nonnegative map.

Devices are used exactly as given, without forcing unit norm: the
transmitted fraction is physical information and is reported separately.
All convolutions are linear (zero-padded), never circular, matching the
zero-extension contract of the correlation construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvariantViolation
from .grid import (
    MOMENTUM,
    POSITION,
    Grid,
    WaveFunction,
    _half_dft,
    _linear_convolution,
    inverse_fourier_transform,
    normalize,
    to_momentum,
    to_position,
)
from .wigner import WignerFunction, marginal_p, marginal_q, overlap_probability, wigner_values_of_amplitudes

COORDINATE = "coordinate"
MOMENTUM_KIND = "momentum"
GENERAL_COORDINATE = "general_coordinate"
GENERAL_MOMENTUM = "general_momentum"
FILTER_KINDS = (COORDINATE, MOMENTUM_KIND, GENERAL_COORDINATE, GENERAL_MOMENTUM)

#: Transmitted fractions at or below this are treated as a blocked state.
ZERO_TRANSMISSION = 1e-20


@dataclass(frozen=True)
class FilterSpec:
    """A filtering device: its transmission function plus optional offsets.

    ``device`` holds the transmission samples (position or momentum
    representation; converted internally as needed) and need not be
    normalized.  ``p_offset`` is the momentum kick of the general
    coordinate-convolution filter, ``q_offset`` the displacement of the
    general momentum-convolution filter.  Offsets must be integer lattice
    multiples so the phase-space laws stay exact on the lattice.
    """

    kind: str
    device: WaveFunction
    q_offset: float = 0.0
    p_offset: float = 0.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind in (COORDINATE, MOMENTUM_KIND) and (self.q_offset or self.p_offset):
            raise ValueError("offsets are only meaningful for the general filter kinds")
        if self.kind == GENERAL_COORDINATE and self.q_offset:
            raise ValueError("general_coordinate uses p_offset only")
        if self.kind == GENERAL_MOMENTUM and self.p_offset:
            raise ValueError("general_momentum uses q_offset only")


@dataclass(frozen=True)
class DetectionMap:
    """Nonnegative detector readout over the phase-space lattice.

    Not renormalized: the total mass encodes the detection efficiency.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got shape {values.shape}")
        low = float(values.min())
        if low < -1e-12:
            raise InvariantViolation(
                f"detection map has negative values down to {low:.2e}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.delta_q * self.grid.delta_p)


@dataclass(frozen=True)
class InteractionReport:
    """Outcome of the interference/transition classification of two states."""

    overlap_mass: float
    common_q_support: float
    common_p_support: float
    classification: str


def _shift_zero(values: np.ndarray, steps: int, axis: int) -> np.ndarray:
    """Shift with zero fill: output index k holds input index k - steps."""
    if steps == 0:
        return values
    shifted = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if steps > 0:
        dst[axis] = slice(steps, None)
        src[axis] = slice(None, -steps)
    else:
        dst[axis] = slice(None, steps)
        src[axis] = slice(-steps, None)
    shifted[tuple(dst)] = values[tuple(src)]
    return shifted


def filter_wavefunction(psi_in: WaveFunction, f: FilterSpec) -> tuple[WaveFunction, float]:
    """Apply a filter to a state; return the renormalized output and its transmission.

    The transmitted fraction is the squared quadrature norm of the raw
    (unnormalized) output.  Raises when the device blocks the state
    entirely.
    """
    if psi_in.representation != POSITION:
        raise ValueError("filter_wavefunction expects a position-representation state")
    if psi_in.grid != f.device.grid:
        raise GridMismatchError("state and device live on different grids")
    g = psi_in.grid

    if f.kind == COORDINATE:
        raw = WaveFunction(g, psi_in.values * to_position(f.device).values, POSITION)
    elif f.kind == MOMENTUM_KIND:
        product = to_momentum(psi_in).values * to_momentum(f.device).values
        raw = inverse_fourier_transform(WaveFunction(g, product, MOMENTUM))
    elif f.kind == GENERAL_COORDINATE:
        g.steps_of(f.p_offset, g.delta_p)  # offsets must sit on the lattice
        kicked = psi_in.values * np.exp(1j * f.p_offset * g.q / g.hbar)
        conv = (g.delta_q / np.sqrt(g.h)) * _linear_convolution(
            kicked, to_position(f.device).values, {0: g.origin_index()}
        )
        raw = WaveFunction(g, conv, POSITION)
    else:  # GENERAL_MOMENTUM
        g.steps_of(f.q_offset, g.delta_q)
        displaced = to_momentum(psi_in).values * np.exp(-1j * f.q_offset * g.p / g.hbar)
        conv = (g.delta_p / np.sqrt(g.h)) * _linear_convolution(
            displaced, to_momentum(f.device).values, {0: g.n_points // 2}
        )
        raw = inverse_fourier_transform(WaveFunction(g, conv, MOMENTUM))

    transmitted = float(np.sum(np.abs(raw.values) ** 2) * raw.quadrature_delta)
    if transmitted <= ZERO_TRANSMISSION:
        raise InvariantViolation("filter transmits nothing of this state")
    return normalize(raw), transmitted


def device_wdf(f: FilterSpec) -> WignerFunction:
    """Phase-space distribution of the device transmission, kept at its given norm."""
    device = to_position(f.device)
    return WignerFunction(device.grid, wigner_values_of_amplitudes(device.values, device.grid))


def filter_wdf(w_in: WignerFunction, f: FilterSpec) -> WignerFunction:
    """Apply the phase-space filtering law matching the filter kind.

    coordinate:          W_out(q,p) = integral W_in(q,p') W_m(q,p-p') dp'
    momentum:            W_out(q,p) = integral W_in(q',p) W_m(q-q',p) dq'
    general_coordinate:  W_out(q,p) = integral W_in(q',p-p0) W_m(q-q',p) dq'
    general_momentum:    W_out(q,p) = integral W_in(q-q0,p') W_m(q,p-p') dp'

    Output equals the distribution of the raw filtered wavefunction (its
    mass is the transmitted fraction), which is the cross-identity the
    test-suite pins down.
    """
    g = w_in.grid
    if g != f.device.grid:
        raise GridMismatchError("state and device live on different grids")
    w_m = device_wdf(f).values
    n = g.n_points

    if f.kind == COORDINATE:
        values = g.delta_p * _linear_convolution(w_in.values, w_m, {1: n // 2})
    elif f.kind == MOMENTUM_KIND:
        values = g.delta_q * _linear_convolution(w_in.values, w_m, {0: g.origin_index()})
    elif f.kind == GENERAL_COORDINATE:
        steps = g.steps_of(f.p_offset, g.delta_p)
        boosted = _shift_zero(w_in.values, steps, axis=1)
        values = g.delta_q * _linear_convolution(boosted, w_m, {0: g.origin_index()})
    else:  # GENERAL_MOMENTUM
        steps = g.steps_of(f.q_offset, g.delta_q)
        displaced = _shift_zero(w_in.values, steps, axis=0)
        values = g.delta_p * _linear_convolution(displaced, w_m, {1: n // 2})
    return WignerFunction(g, values)


def detect(w_in: WignerFunction, w_m: WignerFunction) -> DetectionMap:
    """Detector readout: the full two-axis convolution of state and device.

    ``D(q,p) = integral W_in(q',p') W_m(q-q',p-p') dq' dp'`` is nonnegative
    for any pair of valid distributions; the device may equally be supplied
    as classical phase-space data.
    """
    g = w_in.grid
    if g != w_m.grid:
        raise GridMismatchError("state and device live on different grids")
    values = _linear_convolution(w_in.values, w_m.values, {0: g.origin_index(), 1: g.n_points // 2})
    return DetectionMap(g, values * g.delta_q * g.delta_p)


def detect_from_wavefunctions(psi_in: WaveFunction, psi_m: WaveFunction) -> DetectionMap:
    """Amplitude-side detection map, the squared-magnitude twin of :func:`detect`.

    ``D(q,p) = h^-1 | integral psi_in(q') psi_m*(q-q') exp(-ipq'/hbar) dq' |^2``.
    Exact nonnegativity by construction; available whenever the device has
    a wavefunction.
    """
    if psi_in.grid != psi_m.grid:
        raise GridMismatchError("state and device live on different grids")
    g = psi_in.grid
    n = g.n_points
    a = to_position(psi_in).values
    b = np.conj(to_position(psi_m).values)
    j = np.arange(n)
    idx = j[:, None] - j[None, :] + g.origin_index()
    valid = (idx >= 0) & (idx < n)
    gathered = np.zeros((n, n), dtype=np.complex128)
    gathered[valid] = b[idx[valid]]
    gathered *= a[None, :]
    # the transform is taken relative to q_min; the missing factor
    # exp(-i p q_min/hbar) has unit modulus and drops out of |amplitude|^2
    amplitude = _half_dft(gathered)
    return DetectionMap(g, (np.abs(amplitude) ** 2) * g.delta_q**2 / g.h)


def _common_support_mass(m1: np.ndarray, m2: np.ndarray, delta: float, threshold: float) -> float:
    shared = (m1 >= threshold * m1.max()) & (m2 >= threshold * m2.max())
    if not shared.any():
        return 0.0
    return float(min(m1[shared].sum(), m2[shared].sum()) * delta)


def classify_interaction(
    w1: WignerFunction,
    w2: WignerFunction,
    *,
    support_threshold: float = 1e-4,
    common_mass_threshold: float = 0.5,
    overlap_threshold: float = 1e-3,
) -> InteractionReport:
    """Classify a pair of states as interference-capable, transition-capable, both or neither.

    Interference needs a common projection (shared thresholded-marginal
    support carrying at least ``common_mass_threshold`` of either state)
    along q or p; transitions need phase-space overlap above
    ``overlap_threshold``.  Pairs satisfying both tests are reported as
    ``"both"`` rather than forced into one category.
    """
    overlap = overlap_probability(w1, w2)
    g = w1.grid
    common_q = _common_support_mass(marginal_q(w1), marginal_q(w2), g.delta_q, support_threshold)
    common_p = _common_support_mass(marginal_p(w1), marginal_p(w2), g.delta_p, support_threshold)
    has_common = max(common_q, common_p) >= common_mass_threshold
    has_overlap = overlap >= overlap_threshold
    if has_common and has_overlap:
        classification = "both"
    elif has_common:
        classification = "interference"
    elif has_overlap:
        classification = "transition"
    else:
        classification = "neither"
    return InteractionReport(
        overlap_mass=float(np.clip(overlap, 0.0, 1.0)),
        common_q_support=float(np.clip(common_q, 0.0, 1.0)),
        common_p_support=float(np.clip(common_p, 0.0, 1.0)),
        classification=classification,
    )
