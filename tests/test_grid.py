import numpy as np
import pytest

from wignerlab import (
    Grid,
    GridMismatchError,
    InvariantViolation,
    WaveFunction,
    fourier_transform,
    inner_product,
    inverse_fourier_transform,
    make_grid,
    normalize,
    squared_norm,
)
from wignerlab.grid import _half_dft, _linear_convolution, _pair_correlation, _pair_views
from helpers import desk_grid, gathered_pair_correlation, one_shot_convolution, pair_rows, random_superposition


class TestMakeGrid:
    def test_spacings(self):
        g = make_grid(-10, 10, 256)
        assert g.delta_q == 20 / 256 == 0.078125
        assert g.delta_p == pytest.approx(np.pi / 20, abs=1e-15)

    def test_lattice_product_exact(self):
        g = make_grid(-7.3, 11.1, 64, hbar=2.5)
        assert g.delta_q * g.delta_p * g.n_points == pytest.approx(np.pi * g.hbar, rel=1e-15)

    def test_samples(self):
        g = make_grid(-10, 10, 256)
        assert g.q[0] == -10
        assert g.q[-1] == pytest.approx(10 - g.delta_q)
        # momentum span covers [-pi*hbar/(2 dq), +pi*hbar/(2 dq))
        assert g.p[0] == pytest.approx(-np.pi * g.hbar / (2 * g.delta_q))
        assert g.p[-1] == pytest.approx(np.pi * g.hbar / (2 * g.delta_q) - g.delta_p)
        assert g.p[g.n_points // 2] == 0.0

    @pytest.mark.parametrize("args", [(0, 1, 7), (0, 1, 9), (0, 1, 4), (1, 1, 8), (2, 1, 8)])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)

    @pytest.mark.parametrize("field", ["q_min", "delta_q", "hbar"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"q_min": -4.0, "delta_q": 1.0, "n_points": 8, "hbar": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            Grid(**fields)

    def test_origin_index(self):
        assert make_grid(-12, 12, 256).origin_index() == 128
        with pytest.raises(ValueError):
            make_grid(-12.03, 12, 256).origin_index()

    @pytest.mark.parametrize("ratio", [1000.0, -1000.0])
    @pytest.mark.parametrize("error, refused", [(3e-9, True), (3e-10, False)])
    def test_steps_of_tolerance_from_both_sides(self, ratio, error, refused):
        # an offset error * |ratio| cells off the lattice: the tolerance is 1e-9 of the ratio
        g = desk_grid()
        offset = (ratio + error * abs(ratio)) * g.delta_p
        if refused:
            with pytest.raises(ValueError, match="is not an integer multiple of the lattice spacing"):
                g.steps_of(offset, g.delta_p)
        else:
            assert g.steps_of(offset, g.delta_p) == ratio


def _gaussian(grid, width=1.0, center=0.0, boost=0.0):
    values = (np.pi * width**2) ** (-0.25) * np.exp(
        -((grid.q - center) ** 2) / (2 * width**2) + 1j * boost * grid.q / grid.hbar
    )
    return WaveFunction(grid, values)


class TestFourier:
    def test_gaussian_pair(self):
        g = desk_grid()
        psi = _gaussian(g, width=1.5)
        psi_bar = fourier_transform(psi)
        p_width = g.hbar / 1.5
        target = (np.pi * p_width**2) ** (-0.25) * np.exp(-g.p**2 / (2 * p_width**2))
        assert np.max(np.abs(psi_bar.values - target)) < 1e-12

    def test_boost_translates_momentum(self):
        g = desk_grid()
        psi_bar = fourier_transform(_gaussian(g, boost=10 * g.delta_p))
        peak_at = g.p[np.argmax(np.abs(psi_bar.values))]
        assert peak_at == pytest.approx(10 * g.delta_p, abs=g.delta_p / 2)

    def test_impulse_has_flat_magnitude(self):
        g = desk_grid()
        values = np.zeros(g.n_points, dtype=complex)
        values[g.n_points // 2] = 1.0
        spike = normalize(WaveFunction(g, values))
        with pytest.warns(UserWarning):
            # flat momentum amplitudes touch the band edges, diagnostic fires
            mags = np.abs(fourier_transform(spike).values)
        assert np.max(mags) - np.min(mags) < 1e-12 * np.max(mags)

    def test_round_trip(self):
        g = desk_grid()
        rng = np.random.default_rng(42)
        for _ in range(5):
            psi = random_superposition(g, rng)
            back = inverse_fourier_transform(fourier_transform(psi))
            assert np.max(np.abs(back.values - psi.values)) < 1e-10

    def test_parseval(self):
        g = desk_grid()
        rng = np.random.default_rng(3)
        psi = random_superposition(g, rng)
        assert squared_norm(fourier_transform(psi)) == pytest.approx(1.0, abs=1e-10)

    def test_representation_guards(self):
        g = desk_grid()
        psi = _gaussian(g)
        with pytest.raises(ValueError):
            inverse_fourier_transform(psi)
        with pytest.raises(ValueError):
            fourier_transform(fourier_transform(psi))


class TestInnerProduct:
    def test_self_overlap(self):
        psi = _gaussian(desk_grid())
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_displaced_gaussians(self):
        g = desk_grid()
        d = 3.0
        a = _gaussian(g, center=-d / 2)
        b = _gaussian(g, center=+d / 2)
        assert inner_product(a, b) == pytest.approx(np.exp(-(d**2) / 4), abs=1e-8)

    def test_conjugate_symmetry(self):
        g = desk_grid()
        rng = np.random.default_rng(11)
        a = random_superposition(g, rng)
        b = random_superposition(g, rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)

    def test_grid_mismatch(self):
        a = _gaussian(desk_grid())
        b = _gaussian(make_grid(-10, 10, 256))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)
        with pytest.raises(GridMismatchError):
            inner_product(a, fourier_transform(_gaussian(desk_grid())))


class TestNormalize:
    def test_rescales(self):
        g = desk_grid()
        psi = _gaussian(g)
        doubled = WaveFunction(g, 2.0 * psi.values)
        assert np.max(np.abs(normalize(doubled).values - psi.values)) < 1e-12

    def test_idempotent(self):
        psi = _gaussian(desk_grid())
        again = normalize(normalize(psi))
        assert np.max(np.abs(again.values - psi.values)) < 1e-12

    def test_zero_rejected(self):
        g = desk_grid()
        with pytest.raises(InvariantViolation):
            normalize(WaveFunction(g, np.zeros(g.n_points)))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_is_named(self):
        g = desk_grid()
        with pytest.raises(InvariantViolation, match="squared norm inf"):
            normalize(WaveFunction(g, 1e200 * _gaussian(g).values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_amplitudes_rejected(bad):
    g = desk_grid()
    values = np.array(_gaussian(g).values)
    values[g.n_points // 2] = bad
    with pytest.raises(InvariantViolation, match="non-finite"):
        WaveFunction(g, values)


class TestKernels:
    """Lattice kernels against direct sums."""

    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("start", ["zero", "half", "origin"])
    def test_convolution_1d_matches_np_convolve(self, kind, start):
        g = make_grid(-3.0, 5.0, 16)  # origin index 6, off the centre
        n = g.n_points
        offset = {"zero": 0, "half": n // 2, "origin": g.origin_index()}[start]
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, n))
        if kind is complex:
            a = a + 1j * rng.normal(size=n)
            b = b - 1j * rng.normal(size=n)
        result = _linear_convolution(a, b, 0, offset)
        assert np.iscomplexobj(result) == (kind is complex)
        assert np.max(np.abs(result - np.convolve(a, b)[offset: offset + n])) < 1e-12

    def test_convolution_2d_matches_double_sum(self):
        # 150 rows: two full 64-wide blocks and a tail
        rows, n = 150, 12
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, rows, n))
        s1 = n // 2
        expected = np.zeros((rows, n))
        for k in range(rows):
            for l in range(n):
                for j in range(n):
                    if 0 <= l + s1 - j < n:
                        expected[k, l] += a[k, j] * b[k, l + s1 - j]
        assert np.max(np.abs(_linear_convolution(a, b, 1, s1) - expected)) < 1e-12

    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("operand", ["matrix", "kernel", "aliased"])
    def test_blocked_convolution_equals_one_shot(self, kind, axis, operand):
        n, width = 40, 150  # the blocked axis leaves a tail block
        rng = np.random.default_rng(11)
        shape = (n, width) if axis == 0 else (width, n)
        a, b = rng.normal(size=(2, *shape))
        if kind is complex:
            a, b = a + 1j * rng.normal(size=shape), b - 1j * rng.normal(size=shape)
        if operand == "kernel":  # extent 1 on the blocked axis, broadcast over it
            b = b[:, :1] if axis == 0 else b[:1]
        expected = one_shot_convolution(a, b, {axis: 7})
        if operand == "aliased":
            result = a.copy()
            assert _linear_convolution(result, b, axis, 7, out=result) is result
        else:
            result = _linear_convolution(a, b, axis, 7)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("n", [8, 200, 1024])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_pair_views_match_index_formula(self, n, kind):
        rng = np.random.default_rng(n)
        extended = rng.normal(size=2 * n).astype(kind)  # lattice indices [-n/2, 3n/2)
        if kind is complex:
            extended += 1j * rng.normal(size=2 * n)
        lower_rows, upper_rows = pair_rows(n)
        lower, upper = _pair_views(extended, n)
        assert np.array_equal(lower, extended[lower_rows + n // 2])
        assert np.array_equal(upper, extended[upper_rows + n // 2])
        assert not lower.flags.writeable and not upper.flags.writeable
        assert np.shares_memory(lower, extended) and np.shares_memory(upper, extended)

    @pytest.mark.parametrize("n", [8, 200, 1024])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_pair_correlation_equals_gather_formula(self, n, kind):
        rng = np.random.default_rng(n + 1)
        values = rng.normal(size=n).astype(kind)
        if kind is complex:
            values += 1j * rng.normal(size=n)
        assert np.array_equal(_pair_correlation(values), gathered_pair_correlation(values))

    def test_half_dft_matches_exponential_sum(self):
        n = 16
        rng = np.random.default_rng(7)
        values = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        j = np.arange(n)
        kernel = np.exp(-1j * np.pi * np.outer(j, j - n // 2) / n)
        assert np.max(np.abs(_half_dft(values) - values @ kernel)) < 1e-12


def test_edge_warning_emitted():
    g = desk_grid()
    values = np.exp(-((g.q - 6.2) ** 2) / 2)
    with pytest.warns(UserWarning, match="edge amplitude"):
        WaveFunction(g, values)


def test_contained_state_quiet():
    import warnings

    g = desk_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _gaussian(g, center=1.0)


def test_values_are_immutable():
    g = desk_grid()
    psi = _gaussian(g)
    with pytest.raises(ValueError):
        psi.values[0] = 1.0
    with pytest.raises(ValueError):
        g.q[0] = 5.0
