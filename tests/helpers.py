"""Shared state factories and comparison utilities for the test suite."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np

from wignerlab import EvolutionConfig, GaussianSpec, WaveFunction, make_grid, normalize, propagate
from wignerlab import io as wio
from wignerlab.grid import fourier_transform, to_position
from wignerlab.wigner import wdf_from_wavefunction, wigner_values_of_amplitudes

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


# The whole-array formulas that the blocked q-axis kernel replaced.  The
# blocked results must equal them bit for bit, since each 1-D transform is
# the same pocketfft call.


def one_shot_convolution(a, b, starts):
    """Zero-extended convolution over the axes in ``starts`` (axis -> first kept index), in one transform."""
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


def one_shot_detect(w_in, w_m):
    """Detection map values: q-axis convolution of the two p-spectra, p window from n/2."""
    g = w_in.grid
    spectra = [np.fft.rfft(w.values, axis=1) for w in (w_in, w_m)]
    spectrum = one_shot_convolution(*spectra, {0: g.origin_index()})
    spectrum[:, 1::2] *= -1
    return np.fft.irfft(spectrum, g.n_points, axis=1) * g.delta_q * g.delta_p


def one_shot_smoothed_minimum(w, sigma_q, sigma_p):
    """Minimum after the two linear Gaussian passes, each one whole-array transform."""
    g = w.grid
    n = g.n_points
    offsets = np.arange(n) - n // 2
    smoothed = w.values
    for axis, sigma, cell in ((0, sigma_q, g.delta_q), (1, sigma_p, g.delta_p)):
        kernel = np.exp(-((offsets * cell) ** 2) / (2.0 * sigma**2))
        kernel = np.expand_dims(kernel / kernel.sum(), 1 - axis)
        smoothed = one_shot_convolution(smoothed, kernel, {axis: n // 2})
    return float(smoothed.min())


def one_shot_q_axis_filter_wdf(w_in, f):
    """Values of the ``momentum`` / ``general_coordinate`` laws: shift along p, convolve along q."""
    g = w_in.grid
    n = g.n_points
    steps = np.clip(g.steps_of(f.p_offset, g.delta_p), -n, n)
    values = w_in.values
    if steps:
        values = zero_extended_take(values, np.arange(n) - steps, axis=1)
    w_m = wigner_values_of_amplitudes(to_position(f.device).values, g)
    return g.delta_q * one_shot_convolution(values, w_m, {0: g.origin_index()})


def one_shot_general_filter(psi_in, f):
    """Normalized output values and transmission of a general filter, convolving in one transform.

    ``general_momentum`` takes the momentum-side route that the library's shift-then-multiply replaced: kick
    the momentum amplitudes by ``-q_offset``, then convolve on the half-band p lattice.  That needs the output
    to fit the p band, which the phase-space law does not, so it is a reference only where the output fits.
    """
    g = psi_in.grid
    axis = 0 if f.kind == "general_coordinate" else 1
    to_own = (to_position, fourier_transform)[axis]  # state and device are in position
    psi = to_own(psi_in)
    kicked = psi.values * np.exp(1j * (f.p_offset, -f.q_offset)[axis] * psi.coordinates / g.hbar)
    start, cell = (g.origin_index(), g.delta_q) if axis == 0 else (g.n_points // 2, g.delta_p)
    values = (cell / np.sqrt(g.h)) * one_shot_convolution(kicked, to_own(f.device).values, {0: start})
    raw = to_position(WaveFunction(g, values, psi.representation))
    transmitted = float(np.sum(np.abs(raw.values) ** 2) * raw.quadrature_delta)
    return normalize(raw).values, transmitted


def gathered_shift_filter(psi_in, f):
    """Normalized output values and transmission of ``psi(q - q0) m(q)``, the shifted state gathered by index."""
    g = psi_in.grid
    n = g.n_points
    steps = np.clip(g.steps_of(f.q_offset, g.delta_q), -n, n)
    raw = zero_extended_take(psi_in.values, np.arange(n) - steps) * to_position(f.device).values
    transmitted = float(np.sum(np.abs(raw) ** 2) * g.delta_q)
    return normalize(WaveFunction(g, raw)).values, transmitted


# The index-gather formulas that the strided window views replaced.  Every
# gather moves the same numbers as a view, so each site must equal these bit
# for bit; recover_wavefunction, whose phases are now exact roots of unity,
# only to rounding.


def zero_extended_take(values, index, axis=-1):
    """Gather ``values`` along ``axis`` at ``index`` in ``[-n, 2n)``, reading zero off ``[0, n)``."""
    n = values.shape[axis]
    widths = [(0, 0)] * values.ndim
    widths[axis] = (0, n)
    return np.take(np.pad(values, widths), index, axis=axis)


def pair_rows(n):
    """Rows ``(j - m, j + m)`` that rfft column ``m in [0, n/2]`` pairs at lattice row ``j``."""
    j, m = np.arange(n)[:, None], np.arange(n // 2 + 1)
    return j - m, j + m


def gathered_pair_correlation(values):
    lower, upper = pair_rows(values.shape[-1])
    return np.conj(zero_extended_take(values, lower)) * zero_extended_take(values, upper)


def _hermitian_transform(half, grid):
    half[:, 1::2] *= -1
    return (2.0 * grid.delta_q / grid.h) * np.fft.hfft(half, grid.n_points, axis=1)


def gathered_wigner_values(amplitudes, grid):
    return _hermitian_transform(gathered_pair_correlation(np.asarray(amplitudes, dtype=complex)), grid)


def gathered_density_wigner(rho):
    n = rho.grid.n_points
    lower, upper = pair_rows(n)
    valid = (upper < n) & (lower >= 0)
    corr = np.where(valid, rho.entries.ravel().take(np.where(valid, upper * n + lower, 0)), 0)
    return _hermitian_transform(corr, rho.grid)


def gathered_force_symbol(grid, u):
    """The two-point kick of a polynomial of degree above two."""
    n = grid.n_points
    lower, upper = pair_rows(n)
    samples = u(grid.q_min + grid.delta_q * np.arange(-n // 2, 3 * n // 2))
    force = (1j / grid.hbar) * (samples[upper + n // 2] - samples[lower + n // 2])
    force[:, -1] = 0.0
    return force


def gathered_p_axis_filter_wdf(w_in, f):
    """Values of the ``coordinate`` / ``general_momentum`` laws: shift along q, product over p."""
    g = w_in.grid
    n = g.n_points
    steps = np.clip(g.steps_of(f.q_offset, g.delta_q), -n, n)
    values = w_in.values
    if steps:
        values = zero_extended_take(values, np.arange(n) - steps, axis=0)
    device = to_position(f.device).values
    return np.fft.irfft(np.fft.rfft(values, axis=1) * np.conj(gathered_pair_correlation(device)), n, axis=1)


def gathered_detection(psi_in, psi_m):
    """Amplitude-side detection map values from the whole Toeplitz gather."""
    g = psi_in.grid
    n = g.n_points
    a, b = to_position(psi_in).values, np.conj(to_position(psi_m).values)
    j = np.arange(n)
    gathered = zero_extended_take(b, j[:, None] - j[None, :] + g.origin_index()) * a
    quarter = np.array([1.0, 1.0j, -1.0, -1.0j])[j % 4]
    amplitude = np.fft.fft(gathered * quarter, 2 * n)[..., :n]
    return (np.abs(amplitude) ** 2) * g.delta_q**2 / g.h


def exp_phase_recovery(w):
    """Recovered amplitudes with phases ``exp(1j * outer(q, p) / hbar)`` over the whole upsample."""
    g = w.grid
    n = g.n_points
    j0 = g.origin_index()
    spectrum = np.fft.rfft(w.values, axis=0)
    spectrum[n // 2] *= 0.5
    rows = (np.fft.irfft(spectrum, 2 * n, axis=0) * 2.0)[j0:j0 + n]
    correlation = (rows * np.exp(1j * np.outer(g.q, g.p) / g.hbar)).sum(axis=1) * g.delta_p
    return normalize(WaveFunction(g, correlation / np.sqrt(correlation[j0].real))).values


# The one-process matrix CSV formulas, the oracle of the two-process writer and reader.


def oracle_save_matrix(path, values):
    np.savetxt(path, values, fmt="%.17g", delimiter=",")


def oracle_load_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def evolve_in_process(state_csv, potential_json, t, dt, dump_every, out_dir):
    """The ``evolve`` subcommand with every frame written in process through the oracle writer.

    Writes the frames and ``run_manifest.json`` into ``out_dir`` and returns the
    line the command prints.  An abort raises once the frames before it are written.
    """
    w = wdf_from_wavefunction(to_position(wio.load_wavefunction(state_csv)))
    potential = wio.load_potential_spec(potential_json)
    n_steps = max(int(np.ceil(t / dt - 1e-12)), 1)
    dt = t / n_steps
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, done, frame = [], 0, 0
    while done < n_steps:
        chunk = min(dump_every or n_steps, n_steps - done)
        w = propagate(w, potential, EvolutionConfig(dt=dt, n_steps=chunk))
        done += chunk
        frame += 1
        path = out_dir / f"wdf_{frame:04d}.csv"
        oracle_save_matrix(path, w.values)
        g = w.grid
        sidecar = {"q_min": g.q_min, "delta_q": g.delta_q, "n_points": g.n_points, "hbar": g.hbar}
        path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        written += [path, path.with_suffix(".json")]
    wio.write_manifest(out_dir, "evolve", w.grid, [Path(state_csv), Path(potential_json)], written)
    payload = {"steps": n_steps, "dt": dt, "mass": w.mass(), "min_value": float(w.values.min()), "frames": frame}
    return json.dumps(payload, sort_keys=True) + "\n"


def per_slit_figure4_scan(d, q_i, q_m, grid):
    """The slit scan of ``figure fig4`` as one pair correlation per slit center, contracted at p = 0."""
    from wignerlab import CatSpec, cat_wavefunction
    from wignerlab.grid import _centre_p, _pair_correlation

    cat = cat_wavefunction(CatSpec(width=q_i, separation=d), grid)
    spectrum = np.fft.rfft(wdf_from_wavefunction(cat).values, axis=1)
    centers = grid.q[(grid.q >= -1.5 * d) & (grid.q <= 1.5 * d)]
    n = grid.n_points
    # irfft at column n/2 (p = 0): offsets 0 and n/2 once, the others twice, signed (-1)^m
    weights = _centre_p(np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0])
    rows = []
    for center in centers:
        slit = (np.pi * q_m**2) ** (-0.25) * np.exp(-((grid.q - center) ** 2) / (2 * q_m**2))
        rows.append(np.real(spectrum * np.conj(_pair_correlation(slit))) @ weights / n)
    return np.array(rows), centers


# The Gaussian-slit closed forms as three separate formulas, before they became one two-term product; the
# filtered cat's constant is matched to the lattice transmission of the sampled cat and slit.


def termwise_cat_wdf(spec, grid):
    """Values of the two-hump distribution: humps and cross term under one momentum envelope."""
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
    return envelope * bracket


def termwise_filtered_gaussian_wdf(q_i, q_m, grid):
    """Values of the centred Gaussian slit's output on a centred Gaussian packet, of mass the transmission."""
    q, p = grid.q[:, None], grid.p
    sum_sq = q_i**2 + q_m**2
    return (
        2.0
        / (grid.h * np.sqrt(np.pi * sum_sq))
        * np.exp(-(q**2) / q_i**2 - (q**2) / q_m**2)
        * np.exp(-(p**2) / grid.hbar**2 * (q_i**2 * q_m**2 / sum_sq))
    )


def lattice_matched_filtered_cat_wdf(spec, q_m, offset, grid):
    """Values of a Gaussian slit's output on a two-hump state, scaled to the lattice transmission."""
    from wignerlab import cat_wavefunction

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
    return shape * (transmitted / shape_mass)
