"""The measurement calculus: filters, detection and the interaction classifier.

Each filter kind is one phase-space law: shift along one axis (by zero for
the plain kinds), then convolve with the device distribution along the
other.  The amplitude route is its position twin: the p-axis kinds shift
the state by the q offset and multiply by the device, the q-axis kinds kick
it by the p offset and convolve it with the device.  Detection convolves
along both axes at once and always yields a nonnegative map.

Devices are used exactly as given, without forcing unit norm: the
transmitted fraction is physical information and is reported separately.
The p axis is periodic on the lattice, so a p-axis convolution is a product
of ``rfft`` spectra over the correlation offset; convolutions along q stay
linear (zero-extended), matching the correlation construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, _checked_fields, _checked_kind, _finite
from .grid import (
    _BLOCK,
    WaveFunction,
    _adopt,
    _centre_p,
    _half_dft,
    _linear_convolution,
    _pair_correlation,
    _shifted,
    to_position,
)
from .wigner import (
    WignerFunction, _LatticeMatrix, _checked_state, marginal_p, marginal_q, overlap_probability,
    wigner_values_of_amplitudes,
)

COORDINATE = "coordinate"
MOMENTUM_KIND = "momentum"
GENERAL_COORDINATE = "general_coordinate"
GENERAL_MOMENTUM = "general_momentum"
FILTER_KINDS = (COORDINATE, MOMENTUM_KIND, GENERAL_COORDINATE, GENERAL_MOMENTUM)

#: The one offset field each general kind admits; the plain kinds admit none.
_KIND_OFFSET = {GENERAL_COORDINATE: "p_offset", GENERAL_MOMENTUM: "q_offset"}

#: Transmitted fractions at or below this are treated as a blocked state.
ZERO_TRANSMISSION = 1e-20

#: A marginal counts as supported where it reaches this fraction of its peak.
SUPPORT_THRESHOLD = 1e-4
#: Shared support must carry this much of either state for a common projection.
COMMON_MASS_THRESHOLD = 0.5
#: Phase-space overlap from which a pair counts as transition-capable.
OVERLAP_THRESHOLD = 1e-3


@dataclass(frozen=True)
class FilterSpec:
    """A filtering device: its transmission function plus optional offsets.

    ``device`` holds the transmission samples (position or momentum
    representation; used in position) and need not be
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
        _checked_kind(self.device, WaveFunction, "device")
        _checked_fields(self, q_offset=_finite, p_offset=_finite)
        for name in ("q_offset", "p_offset"):
            if getattr(self, name) and name != _KIND_OFFSET.get(self.kind):
                raise ValueError(f"the {self.kind} filter takes no {name}")


class DetectionMap(_LatticeMatrix):
    """Nonnegative detector readout over the phase-space lattice.

    Not renormalized: the total mass encodes the detection efficiency.
    """

    _what = "values in detection map"

    def __post_init__(self):
        super().__post_init__()
        low = float(self.values.min())
        if low < -1e-12:
            raise InvariantViolation(
                f"detection map has negative values down to {low:.2e}"
            )


@dataclass(frozen=True)
class InteractionReport:
    """Outcome of the interference/transition classification of two states."""

    overlap_mass: float
    common_q_support: float
    common_p_support: float
    classification: str


def _law(state: WaveFunction | WignerFunction, f: FilterSpec) -> tuple[int, int]:
    """``f``'s convolution axis, 0 (q) or 1 (p), and its shift in cells along the other, on ``state``'s grid."""
    _checked_kind(f.device, WaveFunction, "device", (state, "state"))
    g = state.grid
    if f.kind in (COORDINATE, GENERAL_MOMENTUM):
        return 1, g.steps_of(f.q_offset, g.delta_q)
    if not g.p[0] <= f.p_offset <= g.p[-1]:
        raise ValueError(f"p_offset {f.p_offset} lies outside the p range [{g.p[0]:.6g}, {g.p[-1]:.6g}] of the lattice")
    return 0, g.steps_of(f.p_offset, g.delta_p)


def filter_wavefunction(psi_in: WaveFunction, f: FilterSpec) -> tuple[WaveFunction, float]:
    """Apply a filter to a state; return the renormalized output and its transmission.

    coordinate:          psi_out(q) = psi(q) m(q)
    momentum:            psi_out(q) = h^(-1/2) integral psi(q') m(q-q') dq'
    general_coordinate:  psi_out(q) = h^(-1/2) integral psi(q') exp(i p0 q'/hbar) m(q-q') dq'
    general_momentum:    psi_out(q) = psi(q-q0) m(q)

    The state (squared norm within ``MASS_TOLERANCE`` of 1, in band) and the
    device ``m`` (at its given norm) are read in position: each kind is the
    position twin of its :func:`filter_wdf` law.  The transmitted fraction is
    the squared norm of the raw output.  Raises when the device blocks the state.
    """
    _checked_state(psi_in, WaveFunction, "state", normalized=True)
    g = psi_in.grid
    axis, steps = _law(psi_in, f)
    state = to_position(psi_in).values
    device = to_position(f.device).values
    if axis == 1:
        values = _shifted(state, steps, 0) * device
    else:
        kicked = (state * np.exp(1j * f.p_offset * g.q / g.hbar))[:, None]
        values = (g.delta_q / np.sqrt(g.h)) * _linear_convolution(kicked, device[:, None], g.origin_index())[:, 0]
    transmitted = float(np.sum(np.abs(values) ** 2) * g.delta_q)  # normalized before its one WaveFunction is built
    if transmitted <= ZERO_TRANSMISSION:
        raise InvariantViolation("filter transmits nothing of this state")
    if not np.isfinite(transmitted):
        raise InvariantViolation(f"cannot normalize a filter output with squared norm {transmitted}")
    return WaveFunction(g, _adopt(values / np.sqrt(transmitted))), transmitted


def filter_wdf(w_in: WignerFunction, f: FilterSpec) -> WignerFunction:
    """Apply the phase-space filtering law: shift along one axis, convolve along the other.

    coordinate:          W_out(q,p) = integral W_in(q,p') W_m(q,p-p') dp'
    momentum:            W_out(q,p) = integral W_in(q',p) W_m(q-q',p) dq'
    general_coordinate:  W_out(q,p) = integral W_in(q',p-p0) W_m(q-q',p) dq'
    general_momentum:    W_out(q,p) = integral W_in(q-q0,p') W_m(q,p-p') dp'

    The kind only picks the convolution axis; each plain law is its general
    twin at zero offset.  ``W_m`` is the device distribution at its given
    norm.  Along p the law is a product: ``rfft`` over p gives the correlation
    of ``W_in``, times the conjugate device correlation (``W_m`` is never
    built), so the output is the raw filtered state's distribution for any
    state; along q it is linear.  The output mass is the transmitted fraction;
    the input's may not exceed ``1 + MASS_TOLERANCE``, and it is in band.
    """
    _checked_state(w_in, WignerFunction, "state")
    g = w_in.grid
    axis, steps = _law(w_in, f)
    values = _shifted(w_in.values, steps, 1 - axis)
    device = to_position(f.device).values
    if axis == 1:
        spectrum = np.fft.rfft(values, axis=1)
        del values  # frees the shifted copy, if any
        c = _pair_correlation(device)
        spectrum *= np.conj(c, out=c)
        del c
        return WignerFunction(g, _adopt(np.fft.irfft(spectrum, g.n_points, axis=1)))
    out = _linear_convolution(values, wigner_values_of_amplitudes(device, g), g.origin_index())
    out *= g.delta_q
    return WignerFunction(g, _adopt(out))


def detect(w_in: WignerFunction, w_m: WignerFunction) -> DetectionMap:
    """Detector readout: the full two-axis convolution of state and device.

    ``D(q,p) = integral W_in(q',p') W_m(q-q',p-p') dq' dp'`` is nonnegative
    for any pair of valid distributions; the device may equally be supplied
    as classical phase-space data.  The sum is periodic in p, linear in q.
    Neither mass may exceed ``1 + MASS_TOLERANCE``; both are in band.
    """
    _checked_state(w_in, WignerFunction, "state")
    _checked_state(w_m, WignerFunction, "device", on=(w_in, "state"))
    g = w_in.grid
    spectrum = np.fft.rfft(w_in.values, axis=1)
    # in place, so two spectra are alive at once rather than three
    _linear_convolution(spectrum, np.fft.rfft(w_m.values, axis=1), g.origin_index(), out=spectrum)
    values = np.fft.irfft(_centre_p(spectrum), g.n_points, axis=1)
    values *= g.delta_q
    values *= g.delta_p
    return DetectionMap(g, _adopt(values))


def detect_from_wavefunctions(psi_in: WaveFunction, psi_m: WaveFunction) -> DetectionMap:
    """Amplitude-side detection map, the squared-magnitude twin of :func:`detect`.

    ``D(q,p) = h^-1 | integral psi_in(q') psi_m*(q-q') exp(-ipq'/hbar) dq' |^2``.
    Exact nonnegativity by construction; available whenever the device has
    a wavefunction.  Both are read in position; the state's squared norm is
    within ``MASS_TOLERANCE`` of 1, the device's at most ``1 + MASS_TOLERANCE``; both in band.
    """
    _checked_state(psi_in, WaveFunction, "state", normalized=True)
    _checked_state(psi_m, WaveFunction, "device", on=(psi_in, "state"))
    g = psi_in.grid
    n = g.n_points
    a = to_position(psi_in).values
    # row j, column k reads b[j - k + origin] of b = conj(psi_m) at lattice indices [-n, 2n): a reversed window
    extended = np.pad(np.conj(to_position(psi_m).values), n)
    origin = g.origin_index()
    toeplitz = np.lib.stride_tricks.sliding_window_view(extended, n)[origin + 1:origin + 1 + n, ::-1]
    # the transform is taken relative to q_min; the missing factor
    # exp(-i p q_min/hbar) has unit modulus and drops out of |amplitude|^2
    values = np.empty((n, n))
    for first in range(0, n, _BLOCK):
        rows = slice(first, first + _BLOCK)
        values[rows] = np.abs(_half_dft(toeplitz[rows] * a)[:, :n]) ** 2 * g.delta_q**2 / g.h
    return DetectionMap(g, _adopt(values))


def _common_support_mass(m1: np.ndarray, m2: np.ndarray, delta: float) -> float:
    shared = (m1 >= SUPPORT_THRESHOLD * m1.max()) & (m2 >= SUPPORT_THRESHOLD * m2.max())
    if not shared.any():
        return 0.0
    return float(min(m1[shared].sum(), m2[shared].sum()) * delta)


def classify_interaction(w1: WignerFunction, w2: WignerFunction) -> InteractionReport:
    """Classify a pair of states as interference-capable, transition-capable, both or neither.

    Interference needs a common projection (shared thresholded-marginal
    support carrying at least ``COMMON_MASS_THRESHOLD`` of either state)
    along q or p; transitions need phase-space overlap of at least
    ``OVERLAP_THRESHOLD``.  Pairs satisfying both tests are reported as
    ``"both"`` rather than forced into one category.
    """
    overlap = overlap_probability(w1, w2)
    g = w1.grid
    common_q = _common_support_mass(marginal_q(w1), marginal_q(w2), g.delta_q)
    common_p = _common_support_mass(marginal_p(w1), marginal_p(w2), g.delta_p)
    has_common = max(common_q, common_p) >= COMMON_MASS_THRESHOLD
    has_overlap = overlap >= OVERLAP_THRESHOLD
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
