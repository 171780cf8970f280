import re
import warnings

import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    DetectionMap,
    FilterSpec,
    GaussianSpec,
    GridMismatchError,
    InvariantViolation,
    WaveFunction,
    WignerFunction,
    cat_wavefunction,
    classify_interaction,
    detect,
    detect_from_wavefunctions,
    filter_wavefunction,
    filter_wdf,
    filtered_gaussian_wdf_closed_form,
    fourier_transform,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
    inverse_fourier_transform,
    make_grid,
    marginal_q,
    overlap_probability,
    wdf_from_wavefunction,
)
from wignerlab.filtering import (
    COORDINATE,
    GENERAL_COORDINATE,
    GENERAL_MOMENTUM,
    MOMENTUM_KIND,
)
from wignerlab import grid as wgrid
from wignerlab.wigner import wigner_values_of_amplitudes

from helpers import (
    convolution_safe_pair,
    density_width,
    desk_grid,
    gathered_detection,
    gathered_p_axis_filter_wdf,
    gathered_shift_filter,
    one_shot_detect,
    one_shot_general_filter,
    one_shot_q_axis_filter_wdf,
    random_gaussian_device,
    random_superposition,
    traced_peak,
    zero_extended_take,
)

ALL_KINDS = [COORDINATE, MOMENTUM_KIND, GENERAL_COORDINATE, GENERAL_MOMENTUM]


def _spec_for(kind, device, grid, rng=None):
    if kind == GENERAL_COORDINATE:
        steps = 5 if rng is None else int(rng.integers(-12, 13))
        return FilterSpec(kind=kind, device=device, p_offset=steps * grid.delta_p)
    if kind == GENERAL_MOMENTUM:
        steps = -7 if rng is None else int(rng.integers(-12, 13))
        return FilterSpec(kind=kind, device=device, q_offset=steps * grid.delta_q)
    return FilterSpec(kind=kind, device=device)


class TestFilterWavefunction:
    def test_gaussian_slit_width(self, grid):
        q_i, q_m = 1.5, 1.0
        psi = gaussian_wavefunction(GaussianSpec(width=q_i), grid)
        device = gaussian_wavefunction(GaussianSpec(width=q_m), grid)
        out, transmitted = filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))
        fused = q_i * q_m / np.sqrt(q_i**2 + q_m**2)
        assert density_width(out) == pytest.approx(fused / np.sqrt(2), rel=1e-10)
        assert transmitted == pytest.approx(1 / np.sqrt(np.pi * (q_i**2 + q_m**2)), rel=1e-10)

    def test_unit_transmission_is_identity(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        device = WaveFunction(grid, np.ones(grid.n_points))
        out, transmitted = filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))
        assert transmitted == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out.values - psi.values)) < 1e-12

    def test_blocked_state_rejected(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=0.8, center=-6.0), grid)
        device_values = np.where(grid.q > 5.0, 1.0, 0.0)
        device = WaveFunction(grid, device_values)
        with pytest.raises(InvariantViolation):
            filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))

    @pytest.mark.parametrize("transmission, refused", [(3e-21, True), (3e-20, False)])
    def test_zero_transmission_gate_from_both_sides(self, grid, transmission, refused):
        # unit-width packets at -D/2 and +D/2 overlap in exp(-D^2/2) / sqrt(2 pi)
        separation = np.sqrt(-2.0 * np.log(transmission * np.sqrt(2.0 * np.pi)))
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=-separation / 2), grid)
        slit = gaussian_wavefunction(GaussianSpec(width=1.0, center=separation / 2), grid)
        spec = FilterSpec(kind=COORDINATE, device=slit)
        if refused:
            with pytest.raises(InvariantViolation, match="^filter transmits nothing of this state$"):
                filter_wavefunction(psi, spec)
        else:
            assert filter_wavefunction(psi, spec)[1] == pytest.approx(transmission, rel=1e-9)

    def test_grid_mismatch(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        other = gaussian_wavefunction(GaussianSpec(width=1.0), make_grid(-10, 10, 256))
        with pytest.raises(GridMismatchError):
            filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=other))

    def test_offset_must_sit_on_lattice(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        bad = FilterSpec(kind=GENERAL_COORDINATE, device=device, p_offset=0.4 * grid.delta_p)
        with pytest.raises(ValueError):
            filter_wavefunction(psi, bad)

    def test_offsets_rejected_for_plain_kinds(self, grid):
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        with pytest.raises(ValueError):
            FilterSpec(kind=COORDINATE, device=device, p_offset=1.0)

    @pytest.mark.parametrize(
        "kind, offset",
        [
            (COORDINATE, "q_offset"),
            (COORDINATE, "p_offset"),
            (MOMENTUM_KIND, "q_offset"),
            (MOMENTUM_KIND, "p_offset"),
            (GENERAL_COORDINATE, "q_offset"),
            (GENERAL_MOMENTUM, "p_offset"),
        ],
    )
    def test_wrong_offset_is_named(self, kind, offset, grid):
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        with pytest.raises(ValueError, match=f"{kind} filter takes no {offset}"):
            FilterSpec(kind=kind, device=device, **{offset: grid.delta_q * grid.delta_p})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("kind, offset", [(GENERAL_COORDINATE, "p_offset"), (GENERAL_MOMENTUM, "q_offset")])
    def test_non_finite_offset_is_named(self, kind, offset, value, grid):
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        with pytest.raises(ValueError, match=f"^{offset} must be a finite number, got {value}$"):
            FilterSpec(kind=kind, device=device, **{offset: value})

    @pytest.mark.parametrize("n", [200, 1024])
    @pytest.mark.parametrize("kind", [GENERAL_COORDINATE, GENERAL_MOMENTUM])
    def test_general_kinds_equal_one_shot_formula(self, kind, n):
        g = desk_grid(n)
        psi, device = convolution_safe_pair(g, np.random.default_rng(n + 2))
        spec = _spec_for(kind, device, g)
        filtered, transmitted = filter_wavefunction(psi, spec)
        reference = one_shot_general_filter if kind == GENERAL_COORDINATE else gathered_shift_filter
        expected, expected_transmission = reference(psi, spec)
        assert np.array_equal(filtered.values, expected)
        assert transmitted == expected_transmission

    def test_general_momentum_matches_the_momentum_side_route(self):
        # a kick of -q_offset and a convolution on the p lattice, where the output fits the p band
        g = desk_grid(1024)
        psi, device = convolution_safe_pair(g, np.random.default_rng(1026))
        spec = _spec_for(GENERAL_MOMENTUM, device, g)
        filtered, transmitted = filter_wavefunction(psi, spec)
        expected, expected_transmission = one_shot_general_filter(psi, spec)
        assert np.max(np.abs(filtered.values - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert transmitted == pytest.approx(expected_transmission, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_momentum_device_equals_its_position_twin(self, kind, grid):
        rng = np.random.default_rng(41)
        psi = random_superposition(grid, rng)
        device = fourier_transform(random_gaussian_device(grid, rng))
        twin = inverse_fourier_transform(device)
        via_p, via_q = (filter_wavefunction(psi, _spec_for(kind, d, grid)) for d in (device, twin))
        assert np.array_equal(via_p[0].values, via_q[0].values)
        assert via_p[1] == via_q[1]

    def test_builds_no_momentum_state(self, grid, monkeypatch):
        rng = np.random.default_rng(43)
        psi, device = random_superposition(grid, rng), random_gaussian_device(grid, rng)
        monkeypatch.setattr(wgrid, "fourier_transform", None)
        monkeypatch.setattr(wgrid, "inverse_fourier_transform", None)
        for kind in ALL_KINDS:
            assert filter_wavefunction(psi, _spec_for(kind, device, grid))[1] > 0


class TestPhaseSpaceCommutation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_wavefunction_route(self, kind, grid):
        rng = np.random.default_rng(100 + ALL_KINDS.index(kind))
        for _ in range(3):
            psi = random_superposition(grid, rng)
            device = random_gaussian_device(grid, rng)
            spec = _spec_for(kind, device, grid, rng)
            out, transmitted = filter_wavefunction(psi, spec)
            via_law = filter_wdf(wdf_from_wavefunction(psi), spec)
            via_state = transmitted * wdf_from_wavefunction(out).values
            assert np.max(np.abs(via_law.values - via_state)) < 1e-8

    @pytest.mark.parametrize("cells", [-384, -256, 256, 384])
    def test_shift_off_the_lattice_leaves_zeros(self, cells, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        spec = FilterSpec(kind=GENERAL_MOMENTUM, device=device, q_offset=cells * grid.delta_q)
        assert not filter_wdf(wdf_from_wavefunction(psi), spec).values.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="^filter transmits nothing of this state$"):
                filter_wavefunction(psi, spec)

    @pytest.mark.parametrize("cells, refused", [(-512, True), (-384, True), (-129, True), (-128, False),
                                                (127, False), (128, True), (384, True), (512, True)])
    def test_p_offset_beyond_the_p_range_is_refused(self, cells, refused, grid):
        # the amplitude route's kick is periodic in the offset (512 cells would transmit 0.186), the law's shift is not
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        spec = FilterSpec(kind=GENERAL_COORDINATE, device=psi, p_offset=cells * grid.delta_p)
        law = lambda: filter_wdf(wdf_from_wavefunction(psi), spec)
        amplitude = lambda: filter_wavefunction(psi, spec)
        if refused:
            message = f"^p_offset {re.escape(str(spec.p_offset))} lies outside the p range "
            for route in (law, amplitude):
                with pytest.raises(ValueError, match=message):
                    route()
        else:  # the ends of the p range: admitted, and nothing of this state reaches them
            assert law().mass() < 1e-15
            with pytest.raises(InvariantViolation, match="^filter transmits nothing of this state$"):
                amplitude()

    @pytest.mark.parametrize(
        "plain, general, offset",
        [(COORDINATE, GENERAL_MOMENTUM, "q_offset"), (MOMENTUM_KIND, GENERAL_COORDINATE, "p_offset")],
    )
    def test_plain_law_is_general_law_at_zero_offset(self, plain, general, offset, grid):
        rng = np.random.default_rng(17)
        w = wdf_from_wavefunction(random_superposition(grid, rng))
        device = random_gaussian_device(grid, rng)
        via_plain = filter_wdf(w, FilterSpec(kind=plain, device=device))
        via_general = filter_wdf(w, FilterSpec(kind=general, device=device, **{offset: 0.0}))
        assert np.array_equal(via_plain.values, via_general.values)

    @pytest.mark.parametrize("n", [200, 1024])
    @pytest.mark.parametrize("kind", [MOMENTUM_KIND, GENERAL_COORDINATE])
    def test_q_axis_laws_equal_one_shot_formula(self, kind, n):
        g = desk_grid(n)
        psi, device = convolution_safe_pair(g, np.random.default_rng(n + 1))
        w_in, spec = wdf_from_wavefunction(psi), _spec_for(kind, device, g)
        assert np.array_equal(filter_wdf(w_in, spec).values, one_shot_q_axis_filter_wdf(w_in, spec))

    @pytest.mark.parametrize("n", [200, 1024])
    @pytest.mark.parametrize(
        "kind, cells", [(COORDINATE, 0), (GENERAL_MOMENTUM, 9), (GENERAL_MOMENTUM, -7), (GENERAL_MOMENTUM, 300)]
    )
    def test_p_axis_laws_equal_gather_formula(self, kind, cells, n):
        g = desk_grid(n)
        psi, device = convolution_safe_pair(g, np.random.default_rng(n + 2))
        w_in = wdf_from_wavefunction(psi)
        spec = FilterSpec(kind=kind, device=device, q_offset=cells * g.delta_q) if cells else FilterSpec(kind, device)
        assert np.array_equal(filter_wdf(w_in, spec).values, gathered_p_axis_filter_wdf(w_in, spec))

    @pytest.mark.parametrize(
        "kind, bound", [(COORDINATE, 2.25), (GENERAL_MOMENTUM, 2.25), (MOMENTUM_KIND, 2.5), (GENERAL_COORDINATE, 3.5)]
    )
    def test_law_peak_memory(self, kind, bound):
        g = desk_grid(1024)
        w_in = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), g))
        spec = _spec_for(kind, gaussian_wavefunction(GaussianSpec(width=0.8, center=1.0), g), g)
        result, peak = traced_peak(lambda: filter_wdf(w_in, spec))
        assert peak <= bound * result.values.nbytes

    def test_p_axis_law_is_exact_beyond_containment(self, grid):
        # a state 3.0e-3 of its peak at the q end, 3000 times the fit rule, yet in band (momentum density 4.8e-9 of
        # its peak at the p end, p-marginal 8.9e-9), through a device cut off at 0.35: the law is still the defining sum
        g = grid
        a = np.exp(-((g.q - 8.5) ** 2) / 2 + 0.7j * g.q)
        d = 1.3 * np.exp(-((g.q - 9.0) ** 2) / 8 - 0.4j * g.q)
        a /= np.sqrt(np.sum(np.abs(a) ** 2) * g.delta_q)  # a state filter_wdf admits: mass 1
        w = WignerFunction(g, wigner_values_of_amplitudes(a, g))
        out = filter_wdf(w, FilterSpec(kind=COORDINATE, device=WaveFunction(g, d)))
        assert np.max(np.abs(out.values - wigner_values_of_amplitudes(a * d, g))) <= 1e-13
        # a shift moves amplitudes off the lattice; both routes lose the same ones
        for cells in (3, -5):
            spec = FilterSpec(kind=GENERAL_MOMENTUM, device=WaveFunction(g, d), q_offset=cells * g.delta_q)
            via_law = filter_wdf(w, spec).values
            raw = zero_extended_take(a, np.arange(g.n_points) - cells) * d
            assert np.max(np.abs(via_law - wigner_values_of_amplitudes(raw, g))) <= 1e-13
            out, transmitted = filter_wavefunction(WaveFunction(g, a), spec)
            assert np.max(np.abs(via_law - transmitted * wdf_from_wavefunction(out).values)) <= 1e-13

    def test_centered_slit_reproduces_closed_form(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.5), grid)
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        out = filter_wdf(wdf_from_wavefunction(psi), FilterSpec(kind=COORDINATE, device=device))
        closed = filtered_gaussian_wdf_closed_form(1.5, 1.0, grid)
        assert np.max(np.abs(out.values - closed.values)) < 1e-8

    def test_broad_slit_barely_disturbs(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=0.015), make_grid(-12, 12, 8192))
        g = psi.grid
        device = gaussian_wavefunction(GaussianSpec(width=1.5), g)
        out, _ = filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))
        assert density_width(out) == pytest.approx(density_width(psi), rel=1e-3)


class TestLocalityMemory:
    def test_filtered_marginal_is_pointwise_product(self, grid):
        rng = np.random.default_rng(55)
        psi = random_superposition(grid, rng)
        device = random_gaussian_device(grid, rng)
        spec = FilterSpec(kind=COORDINATE, device=device)
        out, transmitted = filter_wavefunction(psi, spec)
        filtered_marginal = transmitted * marginal_q(wdf_from_wavefunction(out))
        product = np.abs(psi.values * device.values) ** 2
        assert np.max(np.abs(filtered_marginal - product)) < 1e-8


class TestDetect:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_map_rejects_non_finite_values(self, bad, grid):
        values = np.zeros((grid.n_points, grid.n_points))
        values[3, 4] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            DetectionMap(grid, values)

    def test_map_rejects_values_below_rounding(self, grid):
        values = np.zeros((grid.n_points, grid.n_points))
        values[3, 4] = -1e-13  # rounding below zero is kept
        DetectionMap(grid, values)
        values[3, 4] = -1e-9
        with pytest.raises(InvariantViolation, match=r"^detection map has negative values down to -1\.00e-09$"):
            DetectionMap(grid, values)

    def test_equal_width_gaussians_double_variances(self, grid):
        state = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        device = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        result = detect(state, device)
        qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
        target = (1 / grid.h) * np.exp(-(qq**2) / 2 - (pp**2) / 2)
        assert np.max(np.abs(result.values - target)) < 1e-8
        assert result.values.min() >= -1e-12

    def test_cat_detection_suppresses_oscillations(self, grid):
        cat = wdf_from_wavefunction(cat_wavefunction(CatSpec(width=1.0, separation=4.0), grid))
        device = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        result = detect(cat, device)
        assert result.values.min() >= -1e-12
        n = grid.n_points
        center = result.values[n // 2, n // 2]
        hump = result.values[np.argmin(np.abs(grid.q - 4.0)), n // 2]
        assert center < 0.25 * hump

    def test_two_sides_agree(self, grid):
        rng = np.random.default_rng(61)
        for _ in range(5):
            psi = random_superposition(grid, rng)
            dev = random_superposition(grid, rng)
            lhs = detect(wdf_from_wavefunction(psi), wdf_from_wavefunction(dev))
            rhs = detect_from_wavefunctions(psi, dev)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8

    def test_from_wavefunctions_matches_direct_sum(self):
        g = make_grid(-3.0, 5.0, 32, hbar=0.7)
        n = g.n_points
        j0 = g.origin_index()
        # packets 1.5e-3 and 1.8e-3 of their peaks at opposite q ends, far beyond the fit rule, yet in band (momentum
        # density at most 5.7e-9 of the peak at a p end): the window cuts off where both are alive
        a = np.exp(-((g.q - 0.6) ** 2) / 2 + 0.5j * g.q)
        b = np.exp(-((g.q - 1.2) ** 2) / 2 - 0.3j * g.q)
        # a normalized state and a device of squared norm 1/2: the map is bilinear, so the bound is unchanged
        a /= np.sqrt(np.sum(np.abs(a) ** 2) * g.delta_q)
        b /= np.sqrt(2 * np.sum(np.abs(b) ** 2) * g.delta_q)
        expected = np.zeros((n, n))
        for k in range(n):
            for l in range(n):
                total = 0j
                for j in range(n):
                    if 0 <= k - j + j0 < n:
                        total += a[j] * np.conj(b[k - j + j0]) * np.exp(-1j * g.p[l] * g.q[j] / g.hbar)
                expected[k, l] = abs(total * g.delta_q) ** 2 / g.h
        result = detect_from_wavefunctions(WaveFunction(g, a), WaveFunction(g, b))
        assert np.max(np.abs(result.values - expected)) < 1e-12

    def test_self_detection_matches_overlap_at_origin(self, grid):
        spec = GaussianSpec(width=1.1, center=1.5, momentum_offset=-0.75 * grid.delta_p * 8)
        psi = gaussian_wavefunction(spec, grid)
        w = wdf_from_wavefunction(psi)
        reflected = gaussian_wavefunction(
            GaussianSpec(width=1.1, center=-1.5, momentum_offset=-spec.momentum_offset), grid
        )
        w_reflected = wdf_from_wavefunction(reflected)
        result = detect(w, w)
        n = grid.n_points
        origin_value = result.values[n // 2, n // 2]
        assert origin_value == pytest.approx(
            overlap_probability(w, w_reflected) / grid.h, abs=1e-10
        )

    def test_smoothed_output_is_mixed(self, grid):
        # matched-width readout: self-overlap drops to exactly one half
        state = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        device = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        readout = detect(state, device)
        from wignerlab import purity

        assert purity(WignerFunction(grid, readout.values)) == pytest.approx(0.5, abs=1e-8)

    def test_peak_memory_within_two_and_three_quarter_output_matrices(self):
        g = desk_grid(1024)
        state = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), g))
        device = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=0.8, center=1.0), g))
        result, peak = traced_peak(lambda: detect(state, device))
        assert peak <= 2.75 * result.values.nbytes

    def test_from_wavefunctions_peak_memory_within_one_and_three_quarter_output_matrices(self):
        g = desk_grid(1024)
        state = gaussian_wavefunction(GaussianSpec(width=1.0), g)
        device = gaussian_wavefunction(GaussianSpec(width=0.8, center=1.0), g)
        result, peak = traced_peak(lambda: detect_from_wavefunctions(state, device))
        assert peak <= 1.75 * result.values.nbytes

    @pytest.mark.parametrize("n, origin", [(200, 87), (1024, 512)])  # 200 rows leave a tail block
    def test_from_wavefunctions_equals_gather_formula(self, n, origin):
        dq = 24.0 / n
        g = make_grid(-origin * dq, (n - origin) * dq, n)
        assert g.origin_index() == origin
        psi, device = convolution_safe_pair(g, np.random.default_rng(n + 3))
        device = WaveFunction(g, device.values / 1.5)  # the helper scales it by up to 1.5; a device's mass is at most 1
        assert np.array_equal(detect_from_wavefunctions(psi, device).values, gathered_detection(psi, device))

    @pytest.mark.parametrize("n", [200, 1024])  # 101 spectrum columns leave a tail block at n=200
    def test_equals_one_shot_formula(self, n):
        g = desk_grid(n)
        psi, _ = convolution_safe_pair(g, np.random.default_rng(n))
        state = wdf_from_wavefunction(psi)
        device = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=0.8, center=1.0, momentum_offset=0.5), g))
        assert np.array_equal(detect(state, device).values, one_shot_detect(state, device))

    def test_classical_device_data(self, grid):
        # device supplied as raw phase-space data, no wavefunction behind it; of mass 1/2, as detect takes at most 1
        qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
        device = WignerFunction(grid, (0.25 / grid.h) * np.exp(-(qq**2) / 4 - (pp**2) / 4))
        state = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        result = detect(state, device)
        assert result.values.min() >= -1e-12
        assert result.mass() == pytest.approx(device.mass(), rel=1e-6)


class TestClassifier:
    def test_common_momentum_projection_interferes(self, grid):
        w1 = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=-4.0), grid))
        w2 = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=4.0), grid))
        report = classify_interaction(w1, w2)
        assert report.classification == "interference"
        assert report.common_p_support > 0.9
        assert report.overlap_mass < 1e-3

    def test_colocated_states_transition(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        report = classify_interaction(w, w)
        assert report.overlap_mass == pytest.approx(1.0, abs=1e-8)
        assert report.classification in ("transition", "both")

    def test_fully_separated_pair_neither(self, grid):
        w1 = wdf_from_wavefunction(
            gaussian_wavefunction(GaussianSpec(width=1.0, center=-4.0, momentum_offset=-4.0), grid)
        )
        w2 = wdf_from_wavefunction(
            gaussian_wavefunction(GaussianSpec(width=1.0, center=4.0, momentum_offset=4.0), grid)
        )
        assert classify_interaction(w1, w2).classification == "neither"
