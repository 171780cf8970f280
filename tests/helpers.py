"""Shared state factories and comparison utilities for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from wignerlab import GaussianSpec, WaveFunction, make_grid, normalize

DESK_GRID = dict(q_min=-12.0, q_max=12.0, n_points=256)


def desk_grid(n_points: int = 256, hbar: float = 1.0):
    return make_grid(DESK_GRID["q_min"], DESK_GRID["q_max"], n_points, hbar=hbar)


def random_superposition(
    grid,
    rng,
    components=(2, 4),
    require_center_amplitude=0.0,
    widths=(0.7, 1.2),
    max_center=2.5,
    max_boost=2.0,
):
    """Normalized random superposition of displaced, boosted Gaussian packets.

    The default ranges keep edge amplitudes below 1e-12 on the desk grid.
    Convolution-type operations spread supports (centers add, widths add in
    quadrature), so tests of those draw from tighter ranges to keep the
    outputs edge-contained as well.  ``require_center_amplitude`` rejects
    draws whose value at q = 0 is too small (wavefunction-recovery tests).
    """
    while True:
        n_comp = int(rng.integers(components[0], components[1] + 1))
        values = np.zeros(grid.n_points, dtype=complex)
        for _ in range(n_comp):
            width = rng.uniform(*widths)
            center = rng.uniform(-max_center, max_center)
            boost = rng.uniform(-max_boost, max_boost)
            amp = rng.normal() + 1j * rng.normal()
            values += amp * np.exp(
                -((grid.q - center) ** 2) / (2 * width**2) + 1j * boost * grid.q / grid.hbar
            )
        if np.max(np.abs(values)) == 0:
            continue
        psi = normalize(WaveFunction(grid, values))
        j0 = grid.origin_index()
        if abs(psi.values[j0]) >= require_center_amplitude:
            return psi


def convolution_safe_pair(grid, rng):
    """State and device drawn so that filter outputs stay edge-contained."""
    from wignerlab import gaussian_wavefunction

    psi = random_superposition(grid, rng, widths=(0.7, 0.9), max_center=1.8, max_boost=1.5)
    spec = GaussianSpec(
        width=rng.uniform(0.8, 1.0),
        center=rng.uniform(-1.0, 1.0),
        momentum_offset=rng.uniform(-1.0, 1.0),
    )
    device = gaussian_wavefunction(spec, grid)
    device = WaveFunction(grid, device.values * rng.uniform(0.5, 1.5), device.representation)
    return psi, device


def random_gaussian_device(grid, rng):
    """A displaced, boosted Gaussian transmission function (not unit-norm)."""
    from wignerlab import gaussian_wavefunction

    spec = GaussianSpec(
        width=rng.uniform(0.8, 1.0),
        center=rng.uniform(-1.0, 1.0),
        momentum_offset=rng.uniform(-1.0, 1.0),
    )
    psi = gaussian_wavefunction(spec, grid)
    return WaveFunction(grid, psi.values * rng.uniform(0.5, 1.5), psi.representation)


def aligned_max_error(recovered, reference):
    """Max abs amplitude error after removing the global phase."""
    phase = np.vdot(recovered.values, reference.values)
    phase /= abs(phase)
    return float(np.max(np.abs(recovered.values * phase - reference.values)))


def density_width(psi):
    """Standard deviation of |psi|^2 along its own coordinate."""
    rho = np.abs(psi.values) ** 2 * psi.quadrature_delta
    x = psi.coordinates
    mean = float(np.sum(x * rho))
    return float(np.sqrt(np.sum((x - mean) ** 2 * rho)))


def traced_peak(call):
    """Result of ``call()`` and the tracemalloc peak, in bytes, reached while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
