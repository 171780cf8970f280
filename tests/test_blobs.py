import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    GaussianSpec,
    InvariantViolation,
    WignerFunction,
    blob_report,
    cat_wavefunction,
    effective_area,
    gaussian_wavefunction,
    make_grid,
    mixed_density,
    normalize,
    smoothed_minimum,
    subplanck_scale,
    wdf_from_density,
    wdf_from_wavefunction,
)
from wignerlab.grid import WaveFunction

from helpers import desk_grid, random_superposition, traced_peak


def _gauss_wdf(grid, width=1.0):
    return wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=width), grid))


def _cat_wdf(grid, separation=4.0):
    return wdf_from_wavefunction(cat_wavefunction(CatSpec(width=1.0, separation=separation), grid))


class TestEffectiveArea:
    @pytest.mark.parametrize("width", [0.5, 1.0, 1.8])
    def test_gaussian_scores_half_cell(self, width, grid):
        assert effective_area(_gauss_wdf(grid, width)) == pytest.approx(grid.h / 2, abs=1e-6)

    def test_pure_states_never_below_half_cell(self, grid):
        rng = np.random.default_rng(71)
        for _ in range(5):
            w = wdf_from_wavefunction(random_superposition(grid, rng))
            assert effective_area(w) >= grid.h / 2 * (1 - 1e-6)

    def test_balanced_mixture_doubles(self, grid):
        plus = np.exp(-((grid.q - 3) ** 2) / 2)
        minus = np.exp(-((grid.q + 3) ** 2) / 2)
        even = normalize(WaveFunction(grid, plus + minus))
        odd = normalize(WaveFunction(grid, plus - minus))
        w = wdf_from_density(mixed_density([even, odd], [0.5, 0.5]))
        assert effective_area(w) == pytest.approx(grid.h, rel=1e-8)

    def test_unnormalized_rejected(self, grid):
        w = _gauss_wdf(grid)
        with pytest.raises(InvariantViolation):
            effective_area(WignerFunction(grid, 2.0 * w.values))

    def test_sharp_line_rejected_as_unphysical(self, grid):
        # a distribution pinned to one coordinate column has no admissible area
        n = grid.n_points
        values = np.zeros((n, n))
        values[n // 2, :] = 1.0 / (n * grid.delta_q * grid.delta_p)
        with pytest.raises(InvariantViolation):
            effective_area(WignerFunction(grid, values))


class TestSmoothedMinimum:
    def test_cat_positive_at_half_cell_smoothing(self, grid):
        sigma = np.sqrt(grid.hbar / 2)
        assert smoothed_minimum(_cat_wdf(grid), sigma, sigma) >= -1e-10

    def test_cat_negative_when_undersmoothed(self, grid):
        sigma = np.sqrt(grid.hbar / 8)
        assert smoothed_minimum(_cat_wdf(grid), sigma, sigma) < -1e-4

    def test_gaussian_stays_positive(self, grid):
        w = _gauss_wdf(grid)
        for sigma in (0.1, 0.5, 1.5):
            assert smoothed_minimum(w, sigma, sigma) >= -1e-12

    def test_monotone_in_smoothing_width(self, grid):
        w = _cat_wdf(grid)
        sigmas = [0.15, 0.25, 0.4, 0.7, 1.0]
        minima = [smoothed_minimum(w, s, s) for s in sigmas]
        assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(minima, minima[1:]))

    def test_separable_passes_match_the_two_axis_kernel_sum(self):
        g = make_grid(-1.3, 2.9, 16, hbar=0.7)
        n = g.n_points
        w = WignerFunction(g, np.random.default_rng(23).normal(size=(n, n)))
        sigma_q, sigma_p = 0.5, 0.9
        offsets = np.arange(n) - n // 2
        kernel = np.exp(-((offsets[:, None] * g.delta_q) ** 2) / (2 * sigma_q**2)
                        - ((offsets[None, :] * g.delta_p) ** 2) / (2 * sigma_p**2))
        kernel /= kernel.sum()
        smoothed = np.zeros((n, n))
        for j in range(n):
            for k in range(n):
                for a in range(n):
                    for b in range(n):
                        u, v = j - a + n // 2, k - b + n // 2
                        if 0 <= u < n and 0 <= v < n:
                            smoothed[j, k] += w.values[a, b] * kernel[u, v]
        assert abs(smoothed_minimum(w, sigma_q, sigma_p) - smoothed.min()) <= 1e-15

    def test_peak_memory_within_seven_output_matrices(self):
        w = _cat_wdf(desk_grid(1024))
        _, peak = traced_peak(lambda: smoothed_minimum(w, 0.7, 0.7))
        assert peak <= 7 * w.values.nbytes

    def test_rejects_bad_widths(self, grid):
        with pytest.raises(ValueError):
            smoothed_minimum(_gauss_wdf(grid), 0.0, 1.0)


class TestSubplanckScale:
    @pytest.mark.parametrize("width", [0.8, 1.0, 1.8])
    def test_gaussian_scores_its_blob(self, width, grid):
        # no fringes: finest structure is the blob itself
        scale = subplanck_scale(_gauss_wdf(grid, width))
        assert scale == pytest.approx(grid.h / 2, rel=0.05)

    def test_cat_fringes_beat_the_blob(self, grid):
        gauss_scale = subplanck_scale(_gauss_wdf(grid))
        cat_scale = subplanck_scale(_cat_wdf(grid))
        assert cat_scale < 0.6 * gauss_scale
        assert cat_scale < grid.h / 2

    def test_monotone_in_separation(self, grid):
        scales = [subplanck_scale(_cat_wdf(grid, separation=d)) for d in (3.0, 4.0, 5.0)]
        assert scales[0] > scales[1] > scales[2]


def test_blob_report_fields(grid):
    report = blob_report(_cat_wdf(grid))
    assert report.effective_area == pytest.approx(grid.h / 2, abs=1e-6)
    assert report.min_value < -0.2
    assert report.min_smoothed_value >= -1e-10
    assert report.subplanck_scale < grid.h / 2
    payload = report.to_json()
    assert "effective_area" in payload
