import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

import wignerlab
from wignerlab import (
    CatSpec,
    DensityMatrix,
    EvolutionConfig,
    FilterSpec,
    GaussianSpec,
    GridMismatchError,
    InvariantViolation,
    PotentialSpec,
    WaveFunction,
    WignerFunction,
    blob_report,
    cat_wavefunction,
    classify_interaction,
    detect,
    detect_from_wavefunctions,
    effective_area,
    expectation,
    filter_wavefunction,
    filter_wdf,
    fourier_transform,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
    inner_product,
    inverse_fourier_transform,
    make_grid,
    marginal_p,
    marginal_q,
    mixed_density,
    moyal_rhs,
    normalize,
    overlap_probability,
    propagate,
    pure_density,
    purity,
    recover_wavefunction,
    smoothed_minimum,
    split_step_schrodinger,
    squared_norm,
    subplanck_scale,
    uncertainty_product,
    wdf_from_density,
    wdf_from_wavefunction,
)
from wignerlab.filtering import COORDINATE
from wignerlab.wigner import _upsample_rows, wigner_values_of_amplitudes

from helpers import (
    aligned_max_error,
    desk_grid,
    exp_phase_recovery,
    gathered_density_wigner,
    gathered_wigner_values,
    random_superposition,
    traced_peak,
)


@pytest.fixture(scope="module")
def gauss_pair():
    g = desk_grid()
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), g)
    return psi, wdf_from_wavefunction(psi)


class TestFromWavefunction:
    def test_gaussian_closed_form(self, gauss_pair):
        psi, w = gauss_pair
        closed = gaussian_wdf_closed_form(GaussianSpec(width=1.0), psi.grid)
        assert np.max(np.abs(w.values - closed.values)) < 1e-9

    def test_gaussian_peak(self, gauss_pair):
        _, w = gauss_pair
        n = w.grid.n_points
        assert w.values[n // 2, n // 2] == pytest.approx(1 / np.pi, abs=1e-12)

    def test_cat_origin_peak(self):
        g = desk_grid()
        w = wdf_from_wavefunction(cat_wavefunction(CatSpec(width=1.0, separation=4.0), g))
        n = g.n_points
        # cross term dominates at the origin: exactly 2/h, above the outer humps
        assert w.values[n // 2, n // 2] == pytest.approx(2 / g.h, abs=1e-10)
        hump = w.values[np.argmin(np.abs(g.q - 4.0)), n // 2]
        assert w.values[n // 2, n // 2] > hump

    def test_rejects_unnormalized(self):
        g = desk_grid()
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), g)
        with pytest.raises(InvariantViolation):
            wdf_from_wavefunction(WaveFunction(g, 1.5 * psi.values))
        with pytest.raises(InvariantViolation):
            wdf_from_wavefunction(WaveFunction(g, np.zeros(g.n_points)))

    def test_momentum_representation_gives_the_position_twin(self, gauss_pair):
        psi, w = gauss_pair
        twin = wdf_from_wavefunction(fourier_transform(psi))
        assert np.max(np.abs(twin.values - w.values)) <= 1e-13 * np.max(np.abs(w.values))

    def test_bounded_magnitude(self):
        g = desk_grid()
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = wdf_from_wavefunction(random_superposition(g, rng))
            assert np.max(np.abs(w.values)) <= 2 / g.h + 1e-12


def _defining_sum(corr, g):
    """``W_jk = (2 dq/h) sum_m corr(j, m) exp(-2i p_k m dq/hbar)`` over every on-lattice offset."""
    n = g.n_points
    w = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            total = 0j
            for m in range(-n, n):
                if 0 <= j - m < n and 0 <= j + m < n:
                    total += corr(j, m) * np.exp(-2j * g.p[k] * m * g.delta_q / g.hbar)
            w[j, k] = 2 * g.delta_q / g.h * total.real
    return w


class TestDefiningSum:
    """Both routes against the defining sum, evaluated term by term."""

    grid = make_grid(-1.3, 2.9, 16, hbar=0.7)

    def test_amplitudes(self):
        g = self.grid
        rng = np.random.default_rng(17)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = _defining_sum(lambda j, m: np.conj(psi[j - m]) * psi[j + m], g)
        assert np.max(np.abs(wigner_values_of_amplitudes(psi, g) - expected)) <= 1e-13

    def test_density_matrix(self):
        g = self.grid
        rng = np.random.default_rng(19)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real * g.delta_q)
        expected = _defining_sum(lambda j, m: rho[j + m, j - m], g)
        assert np.max(np.abs(wdf_from_density(DensityMatrix(g, rho)).values - expected)) <= 1e-13


def test_peak_memory_within_two_and_a_quarter_output_matrices():
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid(1024))
    tracemalloc.start()
    try:
        w = wdf_from_wavefunction(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * w.values.nbytes


def test_density_peak_memory_within_two_and_a_quarter_output_matrices():
    rho = pure_density(gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid(1024)))
    w, peak = traced_peak(lambda: wdf_from_density(rho))
    assert peak <= 2.25 * w.values.nbytes


@pytest.mark.parametrize("n", [200, 1024])
class TestEqualsGatherFormula:
    def test_amplitudes(self, n):
        g = desk_grid(n)
        rng = np.random.default_rng(n)
        amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.array_equal(wigner_values_of_amplitudes(amplitudes, g), gathered_wigner_values(amplitudes, g))

    def test_density_matrix(self, n):
        g = desk_grid(n)
        rng = np.random.default_rng(n + 1)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        entries = a + a.conj().T
        rho = DensityMatrix(g, entries / (np.trace(entries).real * g.delta_q))
        assert np.array_equal(wdf_from_density(rho).values, gathered_density_wigner(rho))


class TestFromDensity:
    def test_pure_state_consistency(self, gauss_pair):
        psi, w = gauss_pair
        w_rho = wdf_from_density(pure_density(psi))
        assert np.max(np.abs(w_rho.values - w.values)) < 1e-10

    def test_mixture_has_no_cross_term(self):
        g = desk_grid()
        left = gaussian_wavefunction(GaussianSpec(width=1.0, center=-3.0), g)
        right = gaussian_wavefunction(GaussianSpec(width=1.0, center=3.0), g)
        w_mix = wdf_from_density(mixed_density([left, right], [0.5, 0.5]))
        target = 0.5 * (
            gaussian_wdf_closed_form(GaussianSpec(width=1.0, center=-3.0), g).values
            + gaussian_wdf_closed_form(GaussianSpec(width=1.0, center=3.0), g).values
        )
        assert np.max(np.abs(w_mix.values - target)) < 1e-9

    def test_two_point_diagonal_is_flat_in_p(self):
        from wignerlab import DensityMatrix

        g = desk_grid()
        entries = np.zeros((g.n_points, g.n_points), dtype=complex)
        entries[100, 100] = entries[156, 156] = 1 / (2 * g.delta_q)
        w = wdf_from_density(DensityMatrix(g, entries))
        for row in (100, 156):
            assert np.ptp(w.values[row]) < 1e-14
            assert w.values[row, 0] == pytest.approx(1 / g.h, rel=1e-12)

    def test_rejects_non_hermitian(self):
        from wignerlab import DensityMatrix

        g = desk_grid()
        entries = np.zeros((g.n_points, g.n_points), dtype=complex)
        entries[10, 20] = 1.0 / g.delta_q
        entries[12, 12] = 1.0 / g.delta_q
        with pytest.raises(InvariantViolation):
            DensityMatrix(g, entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a Hermitian pair off the diagonal: NaN compares False in both the
        # Hermitian and the trace gate, so only a finiteness check catches it
        g = desk_grid()
        entries = np.array(pure_density(gaussian_wavefunction(GaussianSpec(width=1.0), g)).entries)
        entries[10, 20] = entries[20, 10] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityMatrix(g, entries)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_imaginary_part(self, bad):
        g = desk_grid()
        entries = np.array(pure_density(gaussian_wavefunction(GaussianSpec(width=1.0), g)).entries)
        entries[10, 20] = complex(entries[10, 20].real, bad)
        entries[20, 10] = np.conj(entries[10, 20])
        with pytest.raises(InvariantViolation, match="^non-finite entries in density matrix$"):
            DensityMatrix(g, entries)

    @pytest.mark.parametrize("weight", [-0.5, np.nan, np.inf], ids=["negative", "nan", "infinite"])
    def test_mixture_refuses_unphysical_weight(self, weight):
        g = make_grid(-12, 12, 128)
        states = [gaussian_wavefunction(GaussianSpec(width=1.0, center=c), g) for c in (-1.0, 1.0)]
        with pytest.raises(InvariantViolation, match=rf"^mixture weights must be .*, got \[1\.5, {weight}\]$"):
            mixed_density(states, [1.5, weight])

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda a, b: pure_density(b), id="pure"),
            pytest.param(lambda a, b: mixed_density([b], [1.0]), id="mixed"),
            pytest.param(lambda a, b: mixed_density([a, b], [0.5, 0.5]), id="mixed-second"),
        ],
    )
    def test_momentum_representation_gives_the_position_twin(self, build):
        g = make_grid(-12, 12, 128)
        a, b = (gaussian_wavefunction(GaussianSpec(width=1.0, center=c), g) for c in (-1.0, 1.0))
        position = build(a, b).entries
        twin = build(a, fourier_transform(b)).entries
        assert np.max(np.abs(twin - position)) <= 1e-13 * np.max(np.abs(position))

    @pytest.mark.parametrize("shift", [1.0, 0.5 * 24 / 256], ids=["shifted", "half-cell"])
    def test_refuses_states_on_another_grid(self, shift, monkeypatch):
        # same spacing, shifted lattice: amplitudes at the same index sit at different positions
        a = gaussian_wavefunction(GaussianSpec(width=1.0), make_grid(-12, 12, 256))
        b = gaussian_wavefunction(GaussianSpec(width=1.0), make_grid(-12 + shift, 12 + shift, 256))
        monkeypatch.setattr(np, "outer", None)
        for states, other in (([a, b], 1), ([b, a, a], 1), ([a, a, b], 2)):
            refusal = f"^the state {other} of the mixture lives on another grid than the state 0 of the mixture$"
            with pytest.raises(GridMismatchError, match=refusal):
                mixed_density(states, [1.0 / len(states)] * len(states))

    def test_physical_states_positive_semidefinite(self):
        g = desk_grid()
        left = gaussian_wavefunction(GaussianSpec(width=1.0, center=-2.0), g)
        right = gaussian_wavefunction(GaussianSpec(width=1.0, center=2.0), g)
        rho = mixed_density([left, right], [0.3, 0.7])
        assert rho.smallest_eigenvalue() >= -1e-10


class TestMarginals:
    def test_position_marginal_pointwise(self, gauss_pair):
        psi, w = gauss_pair
        assert np.max(np.abs(marginal_q(w) - np.abs(psi.values) ** 2)) < 1e-8

    def test_momentum_marginal_pointwise(self, gauss_pair):
        psi, w = gauss_pair
        psi_bar = fourier_transform(psi)
        assert np.max(np.abs(marginal_p(w) - np.abs(psi_bar.values) ** 2)) < 1e-8

    def test_gaussian_center_value(self, gauss_pair):
        _, w = gauss_pair
        assert marginal_q(w)[w.grid.n_points // 2] == pytest.approx(np.pi**-0.5, abs=1e-10)

    def test_momentum_marginal_folds_the_two_band_spectrum_of_any_amplitudes(self):
        # the samples' spectrum has period two bands (2N points of delta_p); the p-marginal is it folded onto one band
        g = desk_grid(64)
        a = [1.0, 1.0j] @ np.random.default_rng(3).normal(size=(2, 64))  # random amplitudes: the identity is exact
        spectrum = np.abs(np.fft.fft(a * 1j ** np.arange(64), 128)) ** 2 * g.delta_q**2 / g.h
        folded = spectrum[:64] + spectrum[64:]
        marginal = marginal_p(WignerFunction(g, wigner_values_of_amplitudes(a, g)))
        assert np.max(np.abs(marginal - folded)) <= 1e-14 * np.max(folded)

    def test_unit_mass(self, gauss_pair):
        _, w = gauss_pair
        assert np.sum(marginal_q(w)) * w.grid.delta_q == pytest.approx(1.0, abs=1e-8)

    def test_cat_humps_and_positivity(self):
        g = desk_grid()
        spec = CatSpec(width=1.0, separation=4.0)
        w = wdf_from_wavefunction(cat_wavefunction(spec, g))
        m = marginal_q(w)
        assert m.min() > -1e-9
        half = g.n_points // 2
        left_peak = g.q[np.argmax(m[:half])]
        right_peak = g.q[half + np.argmax(m[half:])]
        assert left_peak == pytest.approx(-4.0, abs=g.delta_q)
        assert right_peak == pytest.approx(4.0, abs=g.delta_q)


class TestExpectation:
    def test_unit_symbol(self, gauss_pair):
        _, w = gauss_pair
        assert expectation(w, lambda q, p: np.ones_like(q)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("width", [0.5, 1.0, 1.8])
    def test_second_moments(self, width):
        g = desk_grid()
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=width), g))
        assert expectation(w, lambda q, p: q**2) == pytest.approx(width**2 / 2, rel=1e-10)
        assert expectation(w, lambda q, p: p**2) == pytest.approx(1 / (2 * width**2), rel=1e-10)


class TestUncertainty:
    @pytest.mark.parametrize("width", [0.5, 1.0, 1.8])
    def test_gaussian_saturates(self, width):
        g = desk_grid()
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=width), g))
        assert uncertainty_product(w) == pytest.approx(0.5, abs=1e-6)

    def test_cat_exceeds_minimum(self):
        g = desk_grid()
        spec = CatSpec(width=1.0, separation=4.0)
        w = wdf_from_wavefunction(cat_wavefunction(spec, g))
        product = uncertainty_product(w)
        assert product > 0.5
        # analytic second moments of the two-hump density and its transform
        e16 = np.exp(-16.0)
        var_q = (0.5 + 16.0 + 0.5 * e16) / (1.0 + e16)
        var_p = (0.5 - 15.5 * e16) / (1.0 + e16)
        assert product == pytest.approx(np.sqrt(var_q * var_p), abs=1e-6)

    @pytest.mark.parametrize("variance, refused", [(-1e-3, True), (1e-3, False)])
    def test_negative_variance_refusal_from_both_sides(self, variance, refused):
        # mass 1/2 on three q rows, symmetric about q = 0, so var_q is exactly ``variance``; p a Gaussian
        g = desk_grid()
        side = variance / (2.0 * g.delta_q**2)
        rows = np.zeros(g.n_points)
        rows[g.n_points // 2 - 1:g.n_points // 2 + 2] = (side, 1.0 - 2.0 * side, side)
        profile = np.exp(-(g.p**2))
        profile /= profile.sum() * g.delta_p
        w = WignerFunction(g, 0.5 * rows[:, None] / g.delta_q * profile)
        assert g.q[g.n_points // 2] == 0.0 and w.mass() == pytest.approx(0.5, abs=1e-15)
        if refused:
            with pytest.raises(InvariantViolation, match=r"^negative variance \(var_q=-1\.000e-03, "):
                uncertainty_product(w)
        else:
            var_p = np.sum(g.p**2 * profile) * g.delta_p - (np.sum(g.p * profile) * g.delta_p) ** 2
            assert uncertainty_product(w) == pytest.approx(np.sqrt(variance * var_p), rel=1e-9)

    def test_negative_variance_rejected(self):
        g = desk_grid()
        n = g.n_points
        values = np.zeros((n, n))
        cell = g.delta_q * g.delta_p
        values[n // 2, n // 2] = 3.0 / cell
        values[n // 2 + 40, n // 2] = -1.0 / cell
        values[n // 2 - 40, n // 2] = -1.0 / cell
        with pytest.raises(InvariantViolation):
            uncertainty_product(WignerFunction(g, values))


def _normalized_projector(g):
    entries = np.array(pure_density(gaussian_wavefunction(GaussianSpec(width=1.0), g)).entries)
    return entries / (np.trace(entries).real * g.delta_q)  # a real divisor keeps it exactly Hermitian


class TestGatesFromBothSides:
    """Each documented gate refuses a miss three times its tolerance and accepts one a third of it."""

    @pytest.mark.parametrize("factor, refused", [(3.0, True), (1 / 3, False)])
    def test_hermitian_gate(self, factor, refused):
        g = desk_grid(200)  # 200 rows leave a tail block for the blocked comparison
        entries = _normalized_projector(g)
        entries[195, 90] += factor * 1e-12
        if refused:
            with pytest.raises(InvariantViolation, match=r"^density matrix is not Hermitian \(max deviation 3\.00e-12\)$"):
                DensityMatrix(g, entries)
        else:
            DensityMatrix(g, entries)

    def test_hermitian_deviation_is_the_whole_matrix_maximum(self):
        g = desk_grid(200)
        entries = _normalized_projector(g)
        entries[7, 131] += 4.321e-12j
        entries[199, 3] -= 2.5e-12
        whole = np.max(np.abs(entries - entries.conj().T))
        with pytest.raises(InvariantViolation) as refusal:
            DensityMatrix(g, entries)
        assert str(refusal.value) == f"density matrix is not Hermitian (max deviation {whole:.2e})"

    @pytest.mark.parametrize("factor, refused", [(3.0, True), (-3.0, True), (1 / 3, False), (-1 / 3, False)])
    def test_trace_gate(self, factor, refused):
        g = desk_grid()
        entries = _normalized_projector(g) * (1.0 + factor * 1e-10)
        if refused:
            with pytest.raises(InvariantViolation, match="^density matrix trace is .*, expected 1$"):
                DensityMatrix(g, entries)
        else:
            DensityMatrix(g, entries)

    @pytest.mark.parametrize("factor, refused", [(3.0, True), (-3.0, True), (1 / 3, False), (-1 / 3, False)])
    def test_wavefunction_norm_gate(self, factor, refused):
        g = desk_grid()
        psi = normalize(gaussian_wavefunction(GaussianSpec(width=1.0), g))
        scaled = WaveFunction(g, psi.values * np.sqrt(1.0 + factor * 1e-6))
        if refused:
            refusal = f"^total mass {1.0 + factor * 1e-6:.7g} of the state deviates from 1 by more than 1e-6$"
            with pytest.raises(InvariantViolation, match=refusal):
                wdf_from_wavefunction(scaled)
        else:
            wdf_from_wavefunction(scaled)

    @pytest.mark.parametrize("miss, refused", [(3e-6, True), (3e-7, False)])
    def test_purity_gate(self, miss, refused):
        # orthogonal states at weights (1 - e, e) mix to purity 1 - 2e + 2e^2 = 1 - miss
        g = desk_grid()
        ground = gaussian_wavefunction(GaussianSpec(width=1.0), g)
        excited = normalize(WaveFunction(g, g.q * ground.values))
        e = (1.0 - np.sqrt(1.0 - 2.0 * miss)) / 2.0
        w = wdf_from_density(mixed_density([ground, excited], [1.0 - e, e]))
        assert purity(w) == pytest.approx(1.0 - miss, abs=1e-10)
        if refused:
            with pytest.raises(InvariantViolation, match=r"^purity 0\.999997 below pure-state threshold"):
                recover_wavefunction(w)
        else:
            assert aligned_max_error(recover_wavefunction(w), ground) < 1e-3


class TestOverlap:
    def test_identical_states(self, gauss_pair):
        _, w = gauss_pair
        assert overlap_probability(w, w) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [0.0, 1.0, 2.0, 4.0])
    def test_displaced_gaussians(self, d):
        g = desk_grid()
        w1 = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=-d / 2), g))
        w2 = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=+d / 2), g))
        assert overlap_probability(w1, w2) == pytest.approx(np.exp(-(d**2) / 2), abs=1e-8)

    def test_orthogonal_even_odd_pair(self):
        g = desk_grid()
        plus = np.exp(-((g.q - 3) ** 2) / 2)
        minus = np.exp(-((g.q + 3) ** 2) / 2)
        even = normalize(WaveFunction(g, plus + minus))
        odd = normalize(WaveFunction(g, plus - minus))
        w_even = wdf_from_wavefunction(even)
        w_odd = wdf_from_wavefunction(odd)
        assert overlap_probability(w_even, w_odd) == pytest.approx(0.0, abs=1e-8)

    def test_matches_inner_product(self):
        g = desk_grid()
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_superposition(g, rng)
            b = random_superposition(g, rng)
            lhs = overlap_probability(wdf_from_wavefunction(a), wdf_from_wavefunction(b))
            assert lhs == pytest.approx(abs(inner_product(a, b)) ** 2, abs=1e-8)

    def test_grid_mismatch(self, gauss_pair):
        _, w = gauss_pair
        other = wdf_from_wavefunction(
            gaussian_wavefunction(GaussianSpec(width=1.0), make_grid(-10, 10, 256))
        )
        with pytest.raises(GridMismatchError):
            overlap_probability(w, other)


class TestPurity:
    def test_pure_states(self):
        g = desk_grid()
        rng = np.random.default_rng(23)
        for _ in range(5):
            w = wdf_from_wavefunction(random_superposition(g, rng))
            assert purity(w) == pytest.approx(1.0, abs=1e-8)

    def test_balanced_mixture(self):
        g = desk_grid()
        plus = np.exp(-((g.q - 3) ** 2) / 2)
        minus = np.exp(-((g.q + 3) ** 2) / 2)
        even = normalize(WaveFunction(g, plus + minus))
        odd = normalize(WaveFunction(g, plus - minus))
        w = wdf_from_density(mixed_density([even, odd], [0.5, 0.5]))
        assert purity(w) == pytest.approx(0.5, abs=1e-8)


HARMONIC = PotentialSpec((0.0, 0.0, 0.5))
SLIT = FilterSpec(COORDINATE, gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid()))

#: Every reader of the mass rule, each taking the distribution under test, and the argument it names.
MASS_READERS = {
    "overlap_probability-first": (lambda w, ref: overlap_probability(w, ref), "first distribution", True),
    "overlap_probability-second": (lambda w, ref: overlap_probability(ref, w), "second distribution", True),
    "recover_wavefunction": (lambda w, ref: recover_wavefunction(w), "distribution", True),
    "effective_area": (lambda w, ref: effective_area(w), "distribution", True),
    "blob_report": (lambda w, ref: blob_report(w), "distribution", True),
    "purity": (lambda w, ref: purity(w), "distribution", False),
    "uncertainty_product": (lambda w, ref: uncertainty_product(w), "distribution", False),
    "detect-state": (lambda w, ref: detect(w, ref), "state", False),
    "detect-device": (lambda w, ref: detect(ref, w), "device", False),
    "filter_wdf": (lambda w, ref: filter_wdf(w, SLIT), "state", False),
    "propagate": (lambda w, ref: propagate(w, HARMONIC, EvolutionConfig(dt=1e-3, n_steps=1)), "state", False),
}
NORMALIZED_READERS = [name for name, (*_, normalized) in MASS_READERS.items() if normalized]


class TestMassRule:
    """One rule, ``wigner.MASS_TOLERANCE``: mass above 1 + 1e-6, or at most 0, is refused everywhere, below 1 - 1e-6
    where a normalized state is required; each reader pinned a factor of 3 to either side."""

    @staticmethod
    def scaled(mass):
        """A width-1 Gaussian's distribution on the desk grid scaled to ``mass``, and the unscaled one."""
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid()))
        return WignerFunction(w.grid, w.values * (mass / w.mass())), w

    @pytest.mark.parametrize("reader", MASS_READERS)
    def test_three_times_a_state_is_refused(self, reader):
        read, name, normalized = MASS_READERS[reader]
        excess = "deviates from" if normalized else "exceeds"
        with pytest.raises(InvariantViolation, match=f"^total mass 3 of the {name} {excess} 1 by more than 1e-6$"):
            read(*self.scaled(3.0))

    @pytest.mark.parametrize("mass", [0.0, -1.0])
    @pytest.mark.parametrize("reader", MASS_READERS)
    def test_no_positive_mass_is_refused(self, reader, mass):
        # uncertainty_product and purity divide by the mass: a distribution without one carries no state
        read, name, _ = MASS_READERS[reader]
        with pytest.raises(InvariantViolation, match=f"^total mass {mass:g} of the {name} is not positive: "):
            read(*self.scaled(mass))

    @pytest.mark.parametrize("excess, refused", [(3e-6, True), (3e-7, False)])
    @pytest.mark.parametrize("reader", MASS_READERS)
    def test_excess_from_both_sides(self, reader, excess, refused):
        read, name, _ = MASS_READERS[reader]
        if refused:
            with pytest.raises(InvariantViolation, match=f"^total mass 1\\.000003 of the {name} "):
                read(*self.scaled(1.0 + excess))
        else:
            read(*self.scaled(1.0 + excess))

    @pytest.mark.parametrize("deficit, refused", [(3e-6, True), (3e-7, False)])
    @pytest.mark.parametrize("reader", NORMALIZED_READERS)
    def test_deficit_from_both_sides(self, reader, deficit, refused):
        read, name, _ = MASS_READERS[reader]
        if refused:
            with pytest.raises(InvariantViolation, match=f"^total mass 0\\.999997 of the {name} deviates from 1 "):
                read(*self.scaled(1.0 - deficit))
        else:
            read(*self.scaled(1.0 - deficit))

    def test_filter_output_carries_its_state(self):
        # a width-1.5 Gaussian through a width-1 slit transmits 0.313: the readers of a state's shape read it whole
        _, ref = self.scaled(1.0)
        w = filter_wdf(wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.5), desk_grid())), SLIT)
        assert w.mass() == pytest.approx(0.313, abs=1e-3)
        assert uncertainty_product(w) == pytest.approx(0.5, abs=1e-6)
        assert purity(w) == pytest.approx(1.0, abs=1e-6)
        for name in ("detect-state", "detect-device", "filter_wdf", "propagate"):
            MASS_READERS[name][0](w, ref)
        for name in NORMALIZED_READERS:
            with pytest.raises(InvariantViolation, match=r"^total mass 0\.3129561 of the .* deviates from 1 "):
                MASS_READERS[name][0](w, ref)


#: Every wavefunction reader of the mass rule, each taking the state under test and a normalized reference, the
#: argument it names, and whether it requires a normalized state.  A mixture weighs its state by the inverse
#: squared norm (1 for the zero state), so the DensityMatrix trace gate (1e-10) passes wherever the mass rule does.
STATE_READERS = {
    "wdf_from_wavefunction": (lambda psi, ref: wdf_from_wavefunction(psi), "state", True),
    "filter_wavefunction": (lambda psi, ref: filter_wavefunction(psi, SLIT), "state", True),
    "detect_from_wavefunctions-state": (lambda psi, ref: detect_from_wavefunctions(psi, ref), "state", True),
    "detect_from_wavefunctions-device": (lambda psi, ref: detect_from_wavefunctions(ref, psi), "device", False),
    "mixed_density-first": (lambda psi, ref: mixed_density([psi], [1.0 / (squared_norm(psi) or 1.0)]),
                            "state 0 of the mixture", True),
    "mixed_density-second": (lambda psi, ref: mixed_density([ref, psi], [0.5, 0.5 / (squared_norm(psi) or 1.0)]),
                             "state 1 of the mixture", True),
    "split_step_schrodinger": (lambda psi, ref: split_step_schrodinger(psi, HARMONIC, EvolutionConfig(1e-3, 1)),
                               "state", True),
}
NORMALIZED_STATE_READERS = [name for name, (*_, normalized) in STATE_READERS.items() if normalized]


class TestStateRule:
    """The same rule on the wavefunction side: a state's mass is its squared norm, in either representation."""

    @staticmethod
    def scaled(mass):
        """A width-1 Gaussian on the desk grid scaled to squared norm ``mass``, and the unscaled one."""
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid())
        return WaveFunction(psi.grid, psi.values * np.sqrt(mass / squared_norm(psi))), psi

    @pytest.mark.parametrize("represent", [lambda psi: psi, fourier_transform], ids=["position", "momentum"])
    @pytest.mark.parametrize("reader", STATE_READERS)
    def test_three_times_a_state_is_refused(self, reader, represent):
        read, name, normalized = STATE_READERS[reader]
        big, psi = self.scaled(3.0)
        excess = "deviates from" if normalized else "exceeds"
        with pytest.raises(InvariantViolation, match=f"^total mass 3 of the {name} {excess} 1 by more than 1e-6$"):
            read(represent(big), psi)

    @pytest.mark.parametrize("reader", STATE_READERS)
    def test_the_zero_state_is_refused(self, reader):
        read, name, _ = STATE_READERS[reader]
        _, psi = self.scaled(1.0)
        with pytest.raises(InvariantViolation, match=f"^total mass 0 of the {name} is not positive: it carries no "):
            read(WaveFunction(psi.grid, np.zeros(psi.grid.n_points)), psi)

    @pytest.mark.parametrize("excess, refused", [(3e-6, True), (3e-7, False)])
    @pytest.mark.parametrize("reader", STATE_READERS)
    def test_excess_from_both_sides(self, reader, excess, refused):
        read, name, normalized = STATE_READERS[reader]
        if refused:
            how = "deviates from" if normalized else "exceeds"
            refusal = f"^total mass 1\\.000003 of the {name} {how} 1 by more than 1e-6$"
            with pytest.raises(InvariantViolation, match=refusal):
                read(*self.scaled(1.0 + excess))
        else:
            read(*self.scaled(1.0 + excess))

    @pytest.mark.parametrize("deficit, refused", [(3e-6, True), (3e-7, False)])
    @pytest.mark.parametrize("reader", NORMALIZED_STATE_READERS)
    def test_deficit_from_both_sides(self, reader, deficit, refused):
        read, name, _ = STATE_READERS[reader]
        if refused:
            refusal = f"^total mass 0\\.999997 of the {name} deviates from 1 by more than 1e-6$"
            with pytest.raises(InvariantViolation, match=refusal):
                read(*self.scaled(1.0 - deficit))
        else:
            read(*self.scaled(1.0 - deficit))

    @pytest.mark.parametrize("excess, refused", [(1e-9, True), (-1e-9, True), (1e-11, False), (-1e-11, False)])
    def test_density_route_reads_the_trace_gate(self, excess, refused):
        # within MASS_TOLERANCE, so the other readers take the state, but a projector's trace must lie within 1e-10
        psi, _ = self.scaled(1.0 + excess)
        wdf_from_wavefunction(psi)
        filter_wavefunction(psi, SLIT)
        trace = re.escape(f"{1.0 + excess:.9f}")
        for build in (lambda: pure_density(psi), lambda: mixed_density([psi], [1.0])):
            if refused:
                with pytest.raises(InvariantViolation, match=f"^density matrix trace is {trace}\\d*, expected 1$"):
                    build()
            else:
                build()

    def test_pure_density_reads_the_mixture_rule(self):
        with pytest.raises(InvariantViolation, match="^total mass 3 of the state 0 of the mixture deviates from 1 "):
            pure_density(self.scaled(3.0)[0])

    def test_compensating_weights_are_refused(self):
        # weights summing to 1/2 would give a scaled state's mixture unit trace
        big, psi = self.scaled(3.0)
        other = gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), psi.grid)
        with pytest.raises(InvariantViolation, match="^total mass 3 of the state 0 of the mixture deviates from 1 "):
            mixed_density([big, other], [0.25, 0.25])


#: Every reader that takes one kind of value, with the argument it names: the readers of the state rule, where a
#: mixture's weights need no norm, and the readers that check the kind alone.
KIND_READERS = {
    **{name: (read, what, WignerFunction) for name, (read, what, _) in MASS_READERS.items()},
    "expectation": (lambda w, ref: expectation(w, lambda q, p: 1 + 0 * q), "distribution", WignerFunction),
    "marginal_q": (lambda w, ref: marginal_q(w), "distribution", WignerFunction),
    "marginal_p": (lambda w, ref: marginal_p(w), "distribution", WignerFunction),
    "classify_interaction": (lambda w, ref: classify_interaction(w, ref), "first distribution", WignerFunction),
    **{name: (read, what, WaveFunction) for name, (read, what, _) in STATE_READERS.items() if "mixture" not in what},
    "mixed_density-first": (lambda psi, ref: mixed_density([psi], [1.0]), "state 0 of the mixture", WaveFunction),
    "mixed_density-second": (lambda psi, ref: mixed_density([ref, psi], [0.5, 0.5]), "state 1 of the mixture",
                             WaveFunction),
    "pure_density": (lambda psi, ref: pure_density(psi), "state 0 of the mixture", WaveFunction),
    "smoothed_minimum": (lambda w, ref: smoothed_minimum(w, 1, 1), "distribution", WignerFunction),
    "subplanck_scale": (lambda w, ref: subplanck_scale(w), "distribution", WignerFunction),
    "moyal_rhs": (lambda w, ref: moyal_rhs(w, HARMONIC), "distribution", WignerFunction),
    "FilterSpec": (lambda psi, ref: FilterSpec(COORDINATE, psi), "device", WaveFunction),
    "squared_norm": (lambda psi, ref: squared_norm(psi), "wavefunction", WaveFunction),
    "normalize": (lambda psi, ref: normalize(psi), "wavefunction", WaveFunction),
    "inner_product-first": (lambda psi, ref: inner_product(psi, ref), "first wavefunction", WaveFunction),
    "inner_product-second": (lambda psi, ref: inner_product(ref, psi), "second wavefunction", WaveFunction),
    "fourier_transform": (lambda psi, ref: fourier_transform(psi), "wavefunction", WaveFunction),
    "inverse_fourier_transform": (lambda psi, ref: inverse_fourier_transform(psi), "wavefunction", WaveFunction),
    "wdf_from_density": (lambda rho, ref: wdf_from_density(rho), "density matrix", DensityMatrix),
}


@pytest.mark.parametrize("reader", KIND_READERS)
def test_each_reader_refuses_the_other_kind(reader):
    # a distribution reader given a wavefunction used to return a number (purity 0.82 for a pure state, a complex
    # p-marginal), and a wavefunction reader given a distribution raised an AttributeError; smoothed_minimum raised an
    # IndexError, and FilterSpec took a distribution as its device, on which filter_wavefunction then failed
    read, name, kind = KIND_READERS[reader]
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid())
    w = wdf_from_wavefunction(psi)
    other, ref = (w, psi) if kind is WaveFunction else (psi, w)
    refusal = f"^the {name} must be a {kind.__name__}, got a {type(other).__name__}$"
    with pytest.raises(TypeError, match=refusal):
        read(other, ref)


@pytest.mark.parametrize("reader", KIND_READERS)
def test_each_reader_refuses_a_bare_array(reader):
    # the other kind has a grid, so a reader that touched it before its check passed the test above: blob_report and
    # propagate read w.grid first and raised an AttributeError for a bare array
    read, name, kind = KIND_READERS[reader]
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid())
    ref = psi if kind is WaveFunction else wdf_from_wavefunction(psi)
    with pytest.raises(TypeError, match=f"^the {name} must be a {kind.__name__}, got a ndarray$"):
        read(np.eye(8), ref)


def test_the_kind_table_holds_every_public_reader():
    # a public function or value type with a parameter annotated as one of the three kinds of value is a reader
    kinds = re.compile(r"\b(WaveFunction|WignerFunction|DensityMatrix)\b")
    readers = {
        name for name in wignerlab.__all__
        if inspect.isfunction(obj := getattr(wignerlab, name)) or dataclasses.is_dataclass(obj)
        if any(kinds.search(str(p.annotation)) for p in inspect.signature(obj).parameters.values())
    }
    assert len(readers) == 29
    assert readers - {row.split("-")[0] for row in KIND_READERS} == set()


def kicked_state(density):
    """A width-1 Gaussian on the desk grid kicked toward its last p point until its momentum density there is about
    ``density`` of its peak (3.008e-7 for 3e-7, 3.002e-8 for 3e-8), and that ratio as its Fourier transform reads it."""
    g = desk_grid()
    p0 = g.p[-1] - np.sqrt(-np.log(density))
    psi = WaveFunction(g, np.exp(-(g.q**2) / 2 + 1j * p0 * g.q / g.hbar) / np.pi**0.25)
    momentum = np.abs(fourier_transform(psi).values) ** 2
    return psi, momentum[-1] / momentum.max()


def band_refusal(edge, name):
    """The whole refusal of the ``name`` argument at band reading ``edge``, as a ``match`` pattern."""
    message = f"momentum density {edge:.2e} of the {name} at or beyond a p-lattice end exceeds 1e-07 of its peak: "
    return f"^{re.escape(message)}its content beyond the band folds into it$"


class TestBandRule:
    """The band rule, ``grid.P_BAND_LEVEL``: every reader of the state rule refuses momentum density above 1e-7 of its
    peak at or beyond a p-lattice end, read off a wavefunction's position samples (their two-band spectrum, folded
    onto the band as the p-marginal folds it, and beyond it) or a distribution's p-marginal; each reader pinned a
    factor of 3 to either side, before the state is used."""

    @pytest.mark.parametrize("density, refused", [(3e-7, True), (3e-8, False)])
    @pytest.mark.parametrize("reader", STATE_READERS)
    def test_wavefunction_readers_from_both_sides(self, reader, density, refused):
        read, name, _ = STATE_READERS[reader]
        psi, edge = kicked_state(density)
        assert edge == pytest.approx(density, rel=3e-3)
        ref = gaussian_wavefunction(GaussianSpec(width=1.0), psi.grid)
        if refused:
            with pytest.raises(InvariantViolation, match=band_refusal(edge, name)):
                read(psi, ref)
        else:
            read(psi, ref)

    @pytest.mark.parametrize("density, refused", [(3e-7, True), (3e-8, False)])
    @pytest.mark.parametrize("reader", MASS_READERS)
    def test_distribution_readers_from_both_sides(self, reader, density, refused):
        # the kicked state's distribution, built past wdf_from_wavefunction's own refusal; pure, so recovery runs
        read, name, _ = MASS_READERS[reader]
        psi, _ = kicked_state(density)
        w = WignerFunction(psi.grid, wigner_values_of_amplitudes(psi.values, psi.grid))
        marginal = marginal_p(w)
        edge = marginal[-1] / marginal.max()
        assert edge == pytest.approx(density, rel=3e-3)
        ref = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), psi.grid))
        if refused:
            with pytest.raises(InvariantViolation, match=band_refusal(edge, name)):
                read(w, ref)
        else:
            read(w, ref)

    @pytest.mark.parametrize("p0", [20.0, 25.0, 40.0])
    def test_a_state_beyond_the_band_is_refused(self, p0):
        # the desk grid's band ends at p = 16.6; the distribution folds these to <p> = -13.5, -8.5 and 6.5, and only
        # the first keeps a p-marginal edge (2.7e-5 of its peak) that the distribution readers can see
        g = desk_grid()
        psi = WaveFunction(g, np.exp(-(g.q**2) / 2 + 1j * p0 * g.q) / np.pi**0.25)
        with pytest.raises(InvariantViolation, match=band_refusal(1.0, "state")):
            wdf_from_wavefunction(psi)
        if p0 == 20.0:
            with pytest.raises(InvariantViolation, match=band_refusal(2.68e-5, "distribution")):
                purity(WignerFunction(g, wigner_values_of_amplitudes(psi.values, g)))

    @pytest.mark.parametrize("reader", [*STATE_READERS, *MASS_READERS])
    def test_a_packet_toward_a_q_end_reads_as_its_distribution(self, reader):
        # a width-1 packet at q = 8.9, 1.1e-2 of its peak at the q end: its folded samples and its p-marginal both read
        # 1.21e-7, where its samples read band by band (6.1e-8) would pass the state readers that its distribution fails
        g = desk_grid()
        psi = normalize(WaveFunction(g, np.exp(-((g.q - 8.9) ** 2) / 2)))
        ref = gaussian_wavefunction(GaussianSpec(width=1.0), g)
        if reader in STATE_READERS:
            (read, name, _), args = STATE_READERS[reader], (psi, ref)
        else:
            w = WignerFunction(g, wigner_values_of_amplitudes(psi.values, g))
            (read, name, _), args = MASS_READERS[reader], (w, wdf_from_wavefunction(ref))
        with pytest.raises(InvariantViolation, match=band_refusal(1.21e-7, name)):
            read(*args)

    def test_a_packet_beyond_the_band_beside_one_inside_is_refused(self):
        # the band ends of the samples' first band read 4e-31 of its peak here: the packet at p0 = 25 lies beyond them
        g = desk_grid()
        psi = normalize(WaveFunction(g, np.exp(-(g.q**2) / 2) * (1.0 + np.exp(25j * g.q))))
        with pytest.raises(InvariantViolation, match=band_refusal(1.0, "state")):
            wdf_from_wavefunction(psi)


class TestUpsampleRows:
    def test_even_rows_reproduce_the_input(self):
        values = np.random.default_rng(7).standard_normal((64, 5))
        assert np.max(np.abs(_upsample_rows(values)[::2] - values)) <= 1e-14

    @pytest.mark.parametrize("k", [0, 1, 5, 31])
    def test_band_limited_cosine_is_exact_at_odd_rows(self, k):
        n = 64
        # reduce the phase first, so the reference itself is exact to rounding
        fine = np.cos(2 * np.pi * (k * np.arange(2 * n) % (2 * n)) / (2 * n))
        upsampled = _upsample_rows(fine[::2, None])[:, 0]
        assert np.max(np.abs(upsampled[1::2] - fine[1::2])) <= 1e-14


class TestRecovery:
    def test_gaussian_round_trip(self, gauss_pair):
        psi, w = gauss_pair
        assert aligned_max_error(recover_wavefunction(w), psi) < 1e-8

    def test_superposition_round_trip(self):
        g = desk_grid()
        rng = np.random.default_rng(31)
        for _ in range(5):
            psi = random_superposition(g, rng, require_center_amplitude=0.05)
            w = wdf_from_wavefunction(psi)
            recovered = recover_wavefunction(w)
            assert aligned_max_error(recovered, psi) < 1e-8
            w_again = wdf_from_wavefunction(recovered)
            assert np.max(np.abs(w_again.values - w.values)) < 1e-8

    @pytest.mark.parametrize("n, hbar", [(256, 1.0), (1024, 1.0), (256, 0.6)])
    def test_matches_exponential_phase_formula(self, n, hbar):
        g = desk_grid(n, hbar=hbar)
        psi = random_superposition(g, np.random.default_rng(n), require_center_amplitude=0.05)
        w = wdf_from_wavefunction(psi)
        assert np.max(np.abs(recover_wavefunction(w).values - exp_phase_recovery(w))) <= 1e-12

    def test_peak_memory_within_one_and_a_half_output_matrices(self):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), desk_grid(1024)))
        _, peak = traced_peak(lambda: recover_wavefunction(w))
        assert peak <= 1.5 * w.values.nbytes

    def test_edge_heavy_state_round_trip(self):
        # packets at q = 0 and 5.9: the recovered state, like the input, is 1.5e-8 of its peak at the q end
        g = desk_grid()
        psi = normalize(WaveFunction(g, np.exp(-(g.q**2) / 2) + np.exp(-((g.q - 5.9) ** 2) / 2)))
        assert aligned_max_error(recover_wavefunction(wdf_from_wavefunction(psi)), psi) < 1e-8

    def test_mixed_state_rejected(self):
        g = desk_grid()
        plus = np.exp(-((g.q - 3) ** 2) / 2)
        minus = np.exp(-((g.q + 3) ** 2) / 2)
        even = normalize(WaveFunction(g, plus + minus))
        odd = normalize(WaveFunction(g, plus - minus))
        w = wdf_from_density(mixed_density([even, odd], [0.5, 0.5]))
        with pytest.raises(InvariantViolation):
            recover_wavefunction(w)

    def test_node_at_reference_rejected(self):
        g = desk_grid()
        plus = np.exp(-((g.q - 3) ** 2) / 2)
        minus = np.exp(-((g.q + 3) ** 2) / 2)
        odd = normalize(WaveFunction(g, plus - minus))
        with pytest.raises(InvariantViolation):
            recover_wavefunction(wdf_from_wavefunction(odd))


def test_core_identities_with_physical_hbar():
    hbar = 2.5
    g = make_grid(-14, 14, 256, hbar=hbar)
    spec = GaussianSpec(width=1.3, center=0.8, momentum_offset=1.1)
    psi = gaussian_wavefunction(spec, g)
    w = wdf_from_wavefunction(psi)
    assert np.max(np.abs(w.values - gaussian_wdf_closed_form(spec, g).values)) < 1e-9
    assert w.mass() == pytest.approx(1.0, abs=1e-8)
    assert uncertainty_product(w) == pytest.approx(hbar / 2, abs=1e-6)
    assert purity(w) == pytest.approx(1.0, abs=1e-8)
    recovered = recover_wavefunction(w)
    assert aligned_max_error(recovered, psi) < 1e-8


def test_galilean_covariance():
    g = desk_grid()
    rng = np.random.default_rng(41)
    psi = random_superposition(g, rng)
    steps = 9
    boosted = WaveFunction(g, psi.values * np.exp(1j * steps * g.delta_p * g.q / g.hbar))
    w = wdf_from_wavefunction(psi)
    w_boosted = wdf_from_wavefunction(boosted)
    assert np.max(np.abs(w_boosted.values - np.roll(w.values, steps, axis=1))) < 1e-8
