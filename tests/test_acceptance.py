"""Acceptance gate: one test per criterion, at the stated tolerance.

A summary table (one pass/fail line per criterion) is printed by the
terminal hook in conftest.py.  Desk scale is the [-12, 12] lattice with 256
points and hbar = 1; states that cannot be contained there at spectral
accuracy (very narrow or very wide packets) run on lattices sized to hold
them.
"""

import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    EvolutionConfig,
    FilterSpec,
    GaussianSpec,
    PotentialSpec,
    WaveFunction,
    cat_wavefunction,
    cat_wdf_closed_form,
    detect,
    detect_from_wavefunctions,
    effective_area,
    filter_wavefunction,
    filter_wdf,
    filtered_gaussian_wdf_closed_form,
    fourier_transform,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
    inner_product,
    make_grid,
    marginal_p,
    marginal_q,
    overlap_probability,
    propagate,
    recover_wavefunction,
    smoothed_minimum,
    split_step_schrodinger,
    uncertainty_product,
    wdf_from_wavefunction,
)
from wignerlab.filtering import (
    COORDINATE,
    GENERAL_COORDINATE,
    GENERAL_MOMENTUM,
    MOMENTUM_KIND,
)

from helpers import (
    aligned_max_error,
    convolution_safe_pair,
    density_width,
    desk_grid,
    random_superposition,
)

GRID = desk_grid()


def test_criterion_01_gaussian_oracle():
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), GRID)
    w = wdf_from_wavefunction(psi)
    qq, pp = np.meshgrid(GRID.q, GRID.p, indexing="ij")
    closed = (2 / GRID.h) * np.exp(-(qq**2) - pp**2)
    assert np.max(np.abs(w.values - closed)) < 1e-9
    n = GRID.n_points
    assert abs(w.values[n // 2, n // 2] - 1 / np.pi) < 1e-9


def test_criterion_02_uncertainty_saturation():
    fitted_grids = {
        0.25: make_grid(-6, 6, 512),
        1.0: GRID,
        4.0: make_grid(-32, 32, 512),
    }
    for width, grid in fitted_grids.items():
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=width), grid))
        assert uncertainty_product(w) == pytest.approx(0.5, abs=1e-6), f"width {width}"


def test_criterion_03_marginals_and_mass():
    rng = np.random.default_rng(12345)
    states = [
        gaussian_wavefunction(GaussianSpec(width=1.0), GRID),
        cat_wavefunction(CatSpec(width=1.0, separation=4.0), GRID),
    ]
    states += [random_superposition(GRID, rng) for _ in range(20)]
    for psi in states:
        w = wdf_from_wavefunction(psi)
        assert np.max(np.abs(marginal_q(w) - np.abs(psi.values) ** 2)) < 1e-8
        psi_bar = fourier_transform(psi)
        assert np.max(np.abs(marginal_p(w) - np.abs(psi_bar.values) ** 2)) < 1e-8
        assert w.mass() == pytest.approx(1.0, abs=1e-8)


def test_criterion_04_cat_closed_form():
    spec = CatSpec(width=1.0, separation=4.0)
    w = wdf_from_wavefunction(cat_wavefunction(spec, GRID))
    closed = cat_wdf_closed_form(spec, GRID)
    assert np.max(np.abs(w.values - closed.values)) < 1e-9
    n = GRID.n_points
    origin = w.values[n // 2, n // 2]
    outer_peak = w.values[np.argmin(np.abs(GRID.q - 4.0))].max()
    assert origin > outer_peak


def test_criterion_05_filtering_commutation():
    rng = np.random.default_rng(20240)
    kinds = (COORDINATE, MOMENTUM_KIND, GENERAL_COORDINATE, GENERAL_MOMENTUM)
    for _ in range(30):
        psi, device = convolution_safe_pair(GRID, rng)
        w_in = wdf_from_wavefunction(psi)
        for kind in kinds:
            offsets = {}
            if kind == GENERAL_COORDINATE:
                offsets["p_offset"] = int(rng.integers(-12, 13)) * GRID.delta_p
            if kind == GENERAL_MOMENTUM:
                offsets["q_offset"] = int(rng.integers(-12, 13)) * GRID.delta_q
            spec = FilterSpec(kind=kind, device=device, **offsets)
            out, transmitted = filter_wavefunction(psi, spec)
            via_law = filter_wdf(w_in, spec)
            via_state = transmitted * wdf_from_wavefunction(out).values
            assert np.max(np.abs(via_law.values - via_state)) < 1e-8, kind


def test_criterion_06_filtered_gaussian_reproduction():
    q_i, q_m = 1.5, 1.0
    psi = gaussian_wavefunction(GaussianSpec(width=q_i), GRID)
    device = gaussian_wavefunction(GaussianSpec(width=q_m), GRID)
    out = filter_wdf(wdf_from_wavefunction(psi), FilterSpec(kind=COORDINATE, device=device))
    closed = filtered_gaussian_wdf_closed_form(q_i, q_m, GRID)
    assert np.max(np.abs(out.values - closed.values)) < 1e-8

    # limiting regimes on a lattice fine enough to resolve the narrow factor
    fine = make_grid(-12, 12, 8192)
    for q_i, q_m, towards in [(1.5, 0.015, "device"), (0.015, 1.5, "input")]:
        state = gaussian_wavefunction(GaussianSpec(width=q_i), fine)
        slit = gaussian_wavefunction(GaussianSpec(width=q_m), fine)
        filtered, _ = filter_wavefunction(state, FilterSpec(kind=COORDINATE, device=slit))
        narrow = min(q_i, q_m)
        assert density_width(filtered) == pytest.approx(narrow / np.sqrt(2), rel=1e-3), towards


def test_criterion_07_offaxis_slit_scan():
    from wignerlab.cli import figure4_scan

    d = 4.0
    scan, centers = figure4_scan(d, 1.0, 1.0, GRID)

    # outer ridges sit at the hump positions, within one lattice cell
    right = centers[centers > 0][np.argmax(scan[centers > 0].max(axis=1))]
    left = centers[centers < 0][np.argmax(scan[centers < 0].max(axis=1))]
    assert abs(right - d) <= GRID.delta_q
    assert abs(left + d) <= GRID.delta_q

    # cross-term contribution: full scan minus the incoherent two-hump scan
    mix_weight = 0.5 / (1.0 + np.exp(-(d**2)))
    hump_l = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=-d), GRID))
    hump_r = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=+d), GRID))
    rows = []
    for center in centers:
        slit_values = np.pi**-0.25 * np.exp(-((GRID.q - center) ** 2) / 2)
        device = WaveFunction(GRID, slit_values)
        spec = FilterSpec(kind=COORDINATE, device=device)
        mixed = mix_weight * (
            filter_wdf(hump_l, spec).values + filter_wdf(hump_r, spec).values
        )
        rows.append(mixed[:, GRID.n_points // 2])
    incoherent = np.array(rows)

    cross = scan - incoherent
    # the cross term carries twice the outer amplitude before filtering, so
    # its surviving fraction relative to 2x the outer ridge is the damping
    damping = np.abs(cross).max() / (2.0 * incoherent.max())
    assert damping == pytest.approx(np.exp(-8.0), rel=0.05)
    assert damping <= np.exp(-8.0) * 1.05


def test_criterion_08_detection_identity():
    rng = np.random.default_rng(777)
    for _ in range(20):
        psi = random_superposition(GRID, rng)
        dev = random_superposition(GRID, rng)
        lhs = detect(wdf_from_wavefunction(psi), wdf_from_wavefunction(dev))
        rhs = detect_from_wavefunctions(psi, dev)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8
        assert lhs.values.min() >= -1e-12


def test_criterion_09_overlap_oracle():
    rng = np.random.default_rng(424242)
    for _ in range(50):
        a = random_superposition(GRID, rng)
        b = random_superposition(GRID, rng)
        lhs = overlap_probability(wdf_from_wavefunction(a), wdf_from_wavefunction(b))
        assert lhs == pytest.approx(abs(inner_product(a, b)) ** 2, abs=1e-8)
    for d in (0.0, 1.0, 2.0, 4.0):
        w1 = wdf_from_wavefunction(
            gaussian_wavefunction(GaussianSpec(width=1.0, center=-d / 2), GRID)
        )
        w2 = wdf_from_wavefunction(
            gaussian_wavefunction(GaussianSpec(width=1.0, center=+d / 2), GRID)
        )
        assert overlap_probability(w1, w2) == pytest.approx(np.exp(-(d**2) / 2), abs=1e-8)


def test_criterion_10_moyal_evolution():
    harmonic = PotentialSpec(coefficients=(0.0, 0.0, 0.5), mass=1.0)
    psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=2.0), GRID)
    w0 = wdf_from_wavefunction(psi)
    steps = 800
    rotated = propagate(w0, harmonic, EvolutionConfig(dt=np.pi / 2 / steps, n_steps=steps))
    target = gaussian_wdf_closed_form(GaussianSpec(width=1.0, momentum_offset=-2.0), GRID)
    assert np.max(np.abs(rotated.values - target.values)) < 1e-6

    # gentle quartic: in the steep 0.25 q^4 well this packet trips the edge abort
    # on the desk grid before t = 0.1, whatever the step
    well = PotentialSpec(coefficients=(0.0, 0.0, 0.5, 0.0, 0.005), mass=1.0)
    psi2 = gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), GRID)
    cfg = EvolutionConfig(dt=1e-3, n_steps=1000)
    via_moyal = propagate(wdf_from_wavefunction(psi2), well, cfg)
    via_oracle = wdf_from_wavefunction(split_step_schrodinger(psi2, well, cfg))
    assert np.max(np.abs(via_moyal.values - via_oracle.values)) < 1e-5


def test_criterion_11_blob_diagnostics():
    for width in (0.5, 1.0, 1.8):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=width), GRID))
        assert effective_area(w) == pytest.approx(GRID.h / 2, abs=1e-6), f"width {width}"
    cat = wdf_from_wavefunction(cat_wavefunction(CatSpec(width=1.0, separation=4.0), GRID))
    sigma_blob = np.sqrt(GRID.hbar / 2)
    assert smoothed_minimum(cat, sigma_blob, sigma_blob) >= -1e-10
    sigma_eighth = np.sqrt(GRID.hbar / 8)
    assert smoothed_minimum(cat, sigma_eighth, sigma_eighth) < -1e-4


def test_criterion_12_wavefunction_recovery():
    rng = np.random.default_rng(31415)
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), GRID)
    states = [psi] + [
        random_superposition(GRID, rng, require_center_amplitude=0.05) for _ in range(10)
    ]
    for state in states:
        w = wdf_from_wavefunction(state)
        recovered = recover_wavefunction(w)
        assert aligned_max_error(recovered, state) < 1e-8
        again = wdf_from_wavefunction(recovered)
        assert np.max(np.abs(again.values - w.values)) < 1e-8
