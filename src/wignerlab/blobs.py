"""Phase-space localization diagnostics.

Three measures of how a state occupies phase space:

* ``effective_area``: inverse-participation area ``h / (2 * h*integral(W^2))``,
  calibrated so a minimum-uncertainty Gaussian scores exactly h/2 and any
  physical state scores at least that.
* ``smoothed_minimum``: the global minimum after Gaussian smoothing.
  Averaging over a cell of area at least hbar/2 (sigma_q*sigma_p >= hbar/2)
  wipes out all negativity; smaller cells can retain it.
* ``subplanck_scale``: the area of the finest oscillation cell, read off the
  significant spectral support of the distribution and normalized so an
  unstructured Gaussian registers its full h/2 blob.  Interference fringes
  push spectral support outward and shrink this well below h.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvariantViolation, _checked_kind, _positive
from .grid import _linear_convolution
from .wigner import MASS_TOLERANCE, WignerFunction, _checked_state, _purity

#: Relative spectral power below which a frequency does not count as structure.
SPECTRAL_POWER_FLOOR = 1e-6


@dataclass(frozen=True)
class BlobReport:
    """Summary of the localization diagnostics of one distribution."""

    effective_area: float
    min_value: float
    min_smoothed_value: float
    subplanck_scale: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def effective_area(w: WignerFunction) -> float:
    """Inverse-participation phase-space area, h/2 for any pure state.

    Requires a mass within ``MASS_TOLERANCE`` of 1, in band; rejects data whose
    self-overlap exceeds one by more than that, which no physical state can.
    """
    pur = _purity(w, _checked_state(w, WignerFunction, "distribution", normalized=True))
    if pur > 1.0 + MASS_TOLERANCE:
        raise InvariantViolation(
            f"self-overlap {pur:.6f} exceeds one: sharper than any admissible state"
        )
    return float(w.grid.h / (2.0 * pur))


def smoothed_minimum(w: WignerFunction, sigma_q: float, sigma_p: float) -> float:
    """Global minimum of a distribution, or of any matrix, after Gaussian smoothing.

    The kernel is a normalized Gaussian of the given widths evaluated on
    the offset lattice; at sigma_q*sigma_p = hbar/2 it coincides with a
    minimum-uncertainty device and the result is a detector readout,
    nonnegative for every physical state.  The kernel is a Gaussian in q
    times a Gaussian in p, so it is applied as two linear one-axis passes.
    """
    _checked_kind(w, WignerFunction, "distribution")
    sigma_q, sigma_p = _positive("sigma_q", sigma_q), _positive("sigma_p", sigma_p)
    g = w.grid
    n = g.n_points
    offsets = np.arange(n) - n // 2
    smoothed = w.values
    for sigma, cell in ((sigma_q, g.delta_q), (sigma_p, g.delta_p)):
        kernel = np.exp(-((offsets * cell) ** 2) / (2.0 * sigma**2))
        smoothed = _linear_convolution(smoothed, (kernel / kernel.sum())[:, None], n // 2).T  # then p runs down columns
    return float(smoothed.min())


def _max_significant_frequency(power: np.ndarray, freqs: np.ndarray) -> float:
    significant = power > SPECTRAL_POWER_FLOOR * power.max()
    return float(np.max(np.abs(freqs[significant])))


def subplanck_scale(w: WignerFunction) -> float:
    """Area of the finest oscillation cell of a distribution, or of any matrix: its scale does not count.

    Measured from the highest frequency carrying relative spectral power
    above ``SPECTRAL_POWER_FLOOR`` in each direction, and normalized so a
    Gaussian of any width yields h/2.  Only states with structure finer than
    their envelope (interference fringes) score below that.
    """
    _checked_kind(w, WignerFunction, "distribution")
    g = w.grid
    n = g.n_points
    # the power of a real matrix is even in frequency, so the half spectra suffice
    power_q = np.sum(np.abs(np.fft.rfft(w.values, axis=0)) ** 2, axis=1)
    power_p = np.sum(np.abs(np.fft.rfft(w.values, axis=1)) ** 2, axis=0)
    nu_q = _max_significant_frequency(power_q, 2.0 * np.pi * np.fft.rfftfreq(n, g.delta_q))
    nu_p = _max_significant_frequency(power_p, 2.0 * np.pi * np.fft.rfftfreq(n, g.delta_p))
    if nu_q <= 0 or nu_p <= 0:
        raise InvariantViolation("distribution has no resolvable structure on this grid")
    return float(2.0 * np.pi * np.log(1.0 / SPECTRAL_POWER_FLOOR) / (nu_q * nu_p))


def blob_report(w: WignerFunction) -> BlobReport:
    """Assemble the full diagnostic report, smoothing with sigma_q = sigma_p = sqrt(hbar/2)."""
    area = effective_area(w)  # checks w before it is read
    sigma_q = float(np.sqrt(w.grid.hbar / 2.0))
    return BlobReport(
        effective_area=area,
        min_value=float(w.values.min()),
        min_smoothed_value=smoothed_minimum(w, sigma_q, float(w.grid.hbar / 2.0 / sigma_q)),
        subplanck_scale=subplanck_scale(w),
    )
