import re
import warnings

import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    FilterSpec,
    GaussianSpec,
    WaveFunction,
    cat_wavefunction,
    cat_wdf_closed_form,
    expectation,
    filter_wavefunction,
    filtered_cat_wdf_closed_form,
    filtered_gaussian_wdf_closed_form,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
    make_grid,
    squared_norm,
    wdf_from_wavefunction,
)
from wignerlab import states
from wignerlab.filtering import COORDINATE

from helpers import (
    desk_grid,
    lattice_matched_filtered_cat_wdf,
    termwise_cat_wdf,
    termwise_filtered_gaussian_wdf,
    traced_peak,
)


class TestGaussian:
    def test_normalized(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        assert squared_norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_center_value(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        assert abs(psi.values[grid.origin_index()]) == pytest.approx(np.pi**-0.25, abs=1e-10)

    def test_misfit_rejected(self):
        g = make_grid(-10, 10, 256)
        with pytest.raises(ValueError):
            gaussian_wavefunction(GaussianSpec(width=1.0, center=20.0), g)
        with pytest.raises(ValueError):
            gaussian_wavefunction(GaussianSpec(width=5.0), g)
        with pytest.raises(ValueError):
            gaussian_wavefunction(GaussianSpec(width=1.0, momentum_offset=50.0), g)

    def test_closed_form_matches_transform(self, grid):
        spec = GaussianSpec(width=0.9, center=1.5, momentum_offset=-1.0)
        numeric = wdf_from_wavefunction(gaussian_wavefunction(spec, grid))
        closed = gaussian_wdf_closed_form(spec, grid)
        assert np.max(np.abs(numeric.values - closed.values)) < 1e-9

    def test_closed_form_peak_and_mass(self, grid):
        spec = GaussianSpec(width=1.0)
        w = gaussian_wdf_closed_form(spec, grid)
        n = grid.n_points
        assert w.values[n // 2, n // 2] == pytest.approx(2 / grid.h, rel=1e-12)
        assert w.mass() == pytest.approx(1.0, abs=1e-10)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            GaussianSpec(width=0.0)


class TestCat:
    def test_stated_normalization_constant(self, grid):
        psi = cat_wavefunction(CatSpec(width=1.0, separation=4.0), grid)
        assert squared_norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_separation_is_gaussian(self, grid):
        psi = cat_wavefunction(CatSpec(width=1.0, separation=0.0), grid)
        target = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        assert np.max(np.abs(psi.values - target.values)) < 1e-12

    def test_even_symmetry(self, grid):
        psi = cat_wavefunction(CatSpec(width=1.0, separation=4.0), grid)
        j0 = grid.origin_index()
        # q=0 sits on the lattice: compare mirrored indices around it
        for offset in (1, 17, 80):
            assert psi.values[j0 + offset] == pytest.approx(psi.values[j0 - offset], rel=1e-12)

    def test_closed_form_matches_transform(self, grid):
        spec = CatSpec(width=1.0, separation=4.0)
        numeric = wdf_from_wavefunction(cat_wavefunction(spec, grid))
        closed = cat_wdf_closed_form(spec, grid)
        assert np.max(np.abs(numeric.values - closed.values)) < 1e-9

    def test_cross_term_dominates_outer_humps(self, grid):
        w = cat_wdf_closed_form(CatSpec(width=1.0, separation=4.0), grid)
        n = grid.n_points
        origin = w.values[n // 2, n // 2]
        hump = w.values.max(axis=1)[np.argmin(np.abs(grid.q - 4.0))]
        assert origin > hump
        assert w.mass() == pytest.approx(1.0, abs=1e-8)

    def test_oscillation_period_along_p(self, grid):
        d = 4.0
        w = cat_wdf_closed_form(CatSpec(width=1.0, separation=d), grid)
        slice_p = w.values[grid.n_points // 2]
        maxima = [
            k
            for k in range(1, grid.n_points - 1)
            if slice_p[k] > slice_p[k - 1] and slice_p[k] > slice_p[k + 1]
        ]
        spacing = np.diff(grid.p[maxima]).mean()
        assert spacing == pytest.approx(np.pi * grid.hbar / d, abs=grid.delta_p)


class TestFilteredGaussian:
    def test_matches_numeric_pipeline(self, grid):
        q_i, q_m = 1.5, 1.0
        psi = gaussian_wavefunction(GaussianSpec(width=q_i), grid)
        device = gaussian_wavefunction(GaussianSpec(width=q_m), grid)
        out, transmitted = filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))
        numeric = transmitted * wdf_from_wavefunction(out).values
        closed = filtered_gaussian_wdf_closed_form(q_i, q_m, grid)
        assert np.max(np.abs(numeric - closed.values)) < 1e-8

    def test_mass_is_transmission(self, grid):
        q_i, q_m = 1.5, 1.0
        w = filtered_gaussian_wdf_closed_form(q_i, q_m, grid)
        assert w.mass() == pytest.approx(1 / np.sqrt(np.pi * (q_i**2 + q_m**2)), abs=1e-10)

    def test_equal_widths_moments(self, grid):
        q0 = 1.2
        psi = gaussian_wavefunction(GaussianSpec(width=q0), grid)
        device = gaussian_wavefunction(GaussianSpec(width=q0), grid)
        out, _ = filter_wavefunction(psi, FilterSpec(kind=COORDINATE, device=device))
        w = wdf_from_wavefunction(out)
        # position variance halves; momentum variance doubles to hbar^2/q0^2
        assert expectation(w, lambda q, p: q**2) == pytest.approx(q0**2 / 4, rel=1e-10)
        assert expectation(w, lambda q, p: p**2) == pytest.approx(1 / q0**2, rel=1e-10)


class TestFilteredCat:
    def test_matches_numeric_pipeline(self, grid):
        spec = CatSpec(width=1.0, separation=4.0)
        cat = wdf_from_wavefunction(cat_wavefunction(spec, grid))
        slit_values = np.pi**-0.25 * np.exp(-((grid.q - 2.0) ** 2) / 2)
        device = WaveFunction(grid, slit_values)
        from wignerlab import filter_wdf

        numeric = filter_wdf(cat, FilterSpec(kind=COORDINATE, device=device))
        closed = filtered_cat_wdf_closed_form(spec, 1.0, 2.0, grid)
        assert np.max(np.abs(numeric.values - closed.values)) < 1e-8

    def test_wide_slit_reduces_to_unfiltered(self, grid):
        spec = CatSpec(width=1.0, separation=4.0)
        wide = filtered_cat_wdf_closed_form(spec, 1e4, 0.0, grid)
        bare = cat_wdf_closed_form(spec, grid)
        scale = wide.mass()
        assert np.max(np.abs(wide.values / scale - bare.values)) < 1e-6

    def test_cross_term_frequency_halved_by_matched_slit(self, grid):
        # matched slit width compresses the oscillation frequency 2d -> d
        from wignerlab import filter_wdf

        d = 4.0
        spec = CatSpec(width=1.0, separation=d)
        cat = wdf_from_wavefunction(cat_wavefunction(spec, grid))
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        filtered = filter_wdf(cat, FilterSpec(kind=COORDINATE, device=device))
        freq = np.fft.rfftfreq(grid.n_points, grid.delta_p) * 2 * np.pi
        bin_width = freq[1]

        def dominant_frequency(w):
            slice_p = w.values[grid.origin_index()]
            return freq[np.argmax(np.abs(np.fft.rfft(slice_p)))]

        assert dominant_frequency(cat) == pytest.approx(2 * d, abs=bin_width)
        assert dominant_frequency(filtered) == pytest.approx(d, abs=bin_width)

    def test_constant_fixed_by_transmission(self, grid):
        spec = CatSpec(width=1.0, separation=4.0)
        w = filtered_cat_wdf_closed_form(spec, 1.0, 1.5, grid)
        cat = cat_wavefunction(spec, grid)
        slit = np.pi**-0.25 * np.exp(-((grid.q - 1.5) ** 2) / 2)
        transmitted = float(np.sum(np.abs(cat.values * slit) ** 2) * grid.delta_q)
        assert w.mass() == pytest.approx(transmitted, rel=1e-12)


#: The three cat-family closed forms and their separate termwise formulas, the filtered cat's constant matched
#: to the lattice transmission: a wide slit, a centred slit and an off-centre slit narrower than the state.
CAT_FAMILY_CASES = {
    "cat": (lambda g: cat_wdf_closed_form(CatSpec(1.0, 3.0), g), lambda g: termwise_cat_wdf(CatSpec(1.0, 3.0), g)),
    "filtered-gaussian": (lambda g: filtered_gaussian_wdf_closed_form(1.5, 1.0, g),
                          lambda g: termwise_filtered_gaussian_wdf(1.5, 1.0, g)),
    "filtered-gaussian-wide-slit": (lambda g: filtered_gaussian_wdf_closed_form(1.5, 1e4, g),
                                    lambda g: termwise_filtered_gaussian_wdf(1.5, 1e4, g)),
    "filtered-cat-wide-slit": (lambda g: filtered_cat_wdf_closed_form(CatSpec(1.0, 3.0), 1e4, 0.0, g),
                               lambda g: lattice_matched_filtered_cat_wdf(CatSpec(1.0, 3.0), 1e4, 0.0, g)),
    "filtered-cat-centred": (lambda g: filtered_cat_wdf_closed_form(CatSpec(1.0, 3.0), 1.0, 0.0, g),
                             lambda g: lattice_matched_filtered_cat_wdf(CatSpec(1.0, 3.0), 1.0, 0.0, g)),
    "filtered-cat-narrow-off-centre": (lambda g: filtered_cat_wdf_closed_form(CatSpec(1.0, 3.0), 0.6, 1.7, g),
                                       lambda g: lattice_matched_filtered_cat_wdf(CatSpec(1.0, 3.0), 0.6, 1.7, g)),
}


@pytest.mark.parametrize("case", CAT_FAMILY_CASES)
@pytest.mark.parametrize(
    "lattice",
    [(-12.0, 12.0, 256, 1.0), (-12.0, 12.0, 1024, 1.0), (-10.0, 14.0, 200, 0.7)],  # q = 0 is off the last lattice
    ids=["desk-256", "desk-1024", "odd-offset-hbar-0.7"],
)
def test_cat_family_matches_the_termwise_formulas(case, lattice):
    g = make_grid(*lattice[:3], hbar=lattice[3])
    closed_form, termwise = CAT_FAMILY_CASES[case]
    values, reference = closed_form(g).values, termwise(g)
    assert np.max(np.abs(values - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert values.sum() == pytest.approx(reference.sum(), rel=1e-14)


def test_filtered_forms_are_one_analytic_formula(grid, monkeypatch):
    """The filtered Gaussian is the filtered cat at d = 0, and no generator or lattice sum fixes a constant."""
    for generator in ("cat_wavefunction", "gaussian_wavefunction"):
        monkeypatch.setattr(states, generator, None)
    monkeypatch.setattr(np, "sum", None)
    calls, family = [], states._cat_family
    monkeypatch.setattr(states, "_cat_family", lambda *args, **kwargs: calls.append(args) or family(*args, **kwargs))
    filtered_gaussian_wdf_closed_form(1.5, 1.0, grid)
    filtered_cat_wdf_closed_form(CatSpec(1.0, 4.0), 1.0, 2.0, grid)
    cat_wdf_closed_form(CatSpec(1.0, 4.0), grid)
    assert [spec for spec, _ in calls] == [CatSpec(1.5, 0.0), CatSpec(1.0, 4.0), CatSpec(1.0, 4.0)]


class TestSlitRule:
    """A slit width whose momentum extent hbar/q_m overflows the p range, or a non-finite offset, is refused."""

    FORMS = {
        "filtered-gaussian": lambda q_m, offset, g: filtered_gaussian_wdf_closed_form(1.0, q_m, g),
        "filtered-cat": lambda q_m, offset, g: filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), q_m, offset, g),
    }

    @pytest.mark.parametrize("q_m, edge", [(1e-154, "1.00e+00"), (0.2, "3.98e-03")])
    @pytest.mark.parametrize("form", FORMS)
    def test_width_beyond_the_p_range_is_refused(self, grid, form, q_m, edge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            refusal = (f"slit of width {q_m} centred at p = 0.0 does not fit the p range [-16.7552, 16.6243] "
                       f"of the lattice (relative edge amplitude {edge})")
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                self.FORMS[form](q_m, 0.0, grid)

    @pytest.mark.parametrize("q_m", [0.35, 1.0, 1e4])
    @pytest.mark.parametrize("form", FORMS)
    def test_width_within_the_p_range_is_accepted(self, grid, form, q_m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.FORMS[form](q_m, 0.0, grid).mass() > 0

    def test_slit_off_the_lattice_transmits_nothing(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), 1.0, 40.0, grid)
        assert np.all(np.isfinite(w.values))
        assert abs(w.mass()) < 1e-300

    @pytest.mark.parametrize("offset", [float("inf"), float("nan")])
    def test_non_finite_offset_is_named(self, grid, offset):
        with pytest.raises(ValueError, match=f"^offset must be a finite number, got {offset}$"):
            filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), 1.0, offset, grid)


@pytest.mark.parametrize(
    "q_m, refusal",
    [
        pytest.param(1e-200, "q_m must have a square that is a positive finite float64, got 1e-200", id="1e-200"),
        pytest.param(1e300, "q_m must have a square that is a positive finite float64, got 1e+300", id="1e+300"),
        pytest.param(float("inf"), "q_m must be a finite number, got inf", id="inf"),
        pytest.param(0.0, "q_m must be positive, got 0.0", id="0.0"),
        pytest.param(-1.0, "q_m must be positive, got -1.0", id="-1.0"),
    ],
)
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda q_m, g: filtered_gaussian_wdf_closed_form(1.0, q_m, g), id="filtered-gaussian"),
        pytest.param(lambda q_m, g: filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), q_m, 0.0, g), id="filtered-cat"),
    ],
)
def test_slit_width_without_a_finite_square_is_refused(grid, build, q_m, refusal):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            build(q_m, grid)


#: Packets whose amplitude at the nearer end of one axis is ``exp(-r**2 / 2)`` of their peak: that end
#: lies ``r`` extents from the centre (the extent is ``width`` on q and ``hbar/width`` on p).
FIT_CASES = {
    "gaussian-q": lambda g, r: GaussianSpec(width=1.0, center=g.q[-1] - r),
    "gaussian-p": lambda g, r: GaussianSpec(width=1.0, momentum_offset=g.p[-1] - r * g.hbar),
    "cat-hump-q": lambda g, r: CatSpec(width=1.0, separation=g.q[-1] - r),
    "cat-hump-p": lambda g, r: CatSpec(width=r * g.hbar / g.p[-1], separation=2.0),
}
GENERATORS = {
    GaussianSpec: (gaussian_wavefunction, gaussian_wdf_closed_form),
    CatSpec: (cat_wavefunction, cat_wdf_closed_form),
}


class TestFitGate:
    """The 1e-6 edge amplitude of a generated packet, pinned a factor of 3 to either side on each axis."""

    @pytest.mark.parametrize("form", [0, 1], ids=["wavefunction", "closed-form"])
    @pytest.mark.parametrize("case", FIT_CASES)
    def test_edge_above_the_level_is_refused_naming_the_axis(self, grid, case, form):
        spec = FIT_CASES[case](grid, np.sqrt(-2 * np.log(3e-6)))
        with pytest.raises(ValueError, match=rf"centred at {case[-1]} = .* edge amplitude 3\.00e-06\)$"):
            GENERATORS[type(spec)][form](spec, grid)

    @pytest.mark.parametrize("form", [0, 1], ids=["wavefunction", "closed-form"])
    @pytest.mark.parametrize("case", FIT_CASES)
    def test_edge_below_the_level_is_accepted(self, grid, case, form):
        spec = FIT_CASES[case](grid, np.sqrt(-2 * np.log(3e-7)))
        GENERATORS[type(spec)][form](spec, grid)

    @pytest.mark.parametrize("edge, refused", [(3e-6, True), (3e-7, False)])
    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_filtered_gaussian_input_state(self, grid, axis, edge, refused):
        # the centred input state's nearer end lies r extents out: at q[-1] on q, at p[-1] on p
        r = np.sqrt(-2 * np.log(edge))
        q_i = grid.q[-1] / r if axis == "q" else r * grid.hbar / grid.p[-1]
        if refused:
            with pytest.raises(ValueError, match=rf"centred at {axis} = 0\.0 .* edge amplitude 3\.00e-06\)$"):
                filtered_gaussian_wdf_closed_form(q_i, 1.0, grid)
        else:
            filtered_gaussian_wdf_closed_form(q_i, 1.0, grid)

    @pytest.mark.parametrize("width", [1e-200, 1e300, float("inf")])
    def test_vanishing_or_unbounded_width_is_refused(self, grid, width):
        if not np.isfinite(width):  # the specs refuse it, before the fit rule
            for spec in (GaussianSpec, lambda width: CatSpec(width, separation=1.0)):
                with pytest.raises(ValueError, match=f"^width must be a finite number, got {width}$"):
                    spec(width=width)
            return
        for spec in (GaussianSpec(width=width), CatSpec(width=width, separation=1.0)):
            for generate in GENERATORS[type(spec)]:
                with pytest.raises(ValueError, match="does not fit"):
                    generate(spec, grid)


@pytest.mark.parametrize(
    "build, bound",
    [
        pytest.param(lambda g: gaussian_wdf_closed_form(GaussianSpec(0.9, 1.5, -1.0), g), 2.25, id="gaussian"),
        pytest.param(lambda g: cat_wdf_closed_form(CatSpec(1.0, 4.0), g), 1.25, id="cat"),
        pytest.param(lambda g: filtered_gaussian_wdf_closed_form(1.5, 1.0, g), 1.25, id="filtered-gaussian"),
        pytest.param(lambda g: filtered_cat_wdf_closed_form(CatSpec(1.0, 4.0), 1.0, 2.0, g), 1.25,
                     id="filtered-cat"),
    ],
)
def test_closed_form_peak_memory(build, bound):
    """Coordinates broadcast against each other: no N x N copy of q or p is held."""
    grid = desk_grid(1024)
    result, peak = traced_peak(lambda: build(grid))
    assert peak <= bound * result.values.nbytes
