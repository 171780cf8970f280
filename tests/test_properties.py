"""Property-based checks of the structural invariants."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wignerlab import (
    EvolutionConfig,
    FilterSpec,
    GaussianSpec,
    InvariantViolation,
    PotentialSpec,
    WaveFunction,
    detect,
    detect_from_wavefunctions,
    filter_wavefunction,
    filter_wdf,
    fourier_transform,
    gaussian_wavefunction,
    inner_product,
    inverse_fourier_transform,
    make_grid,
    marginal_q,
    mixed_density,
    normalize,
    overlap_probability,
    pure_density,
    purity,
    recover_wavefunction,
    smoothed_minimum,
    split_step_schrodinger,
    squared_norm,
    uncertainty_product,
    wdf_from_density,
    wdf_from_wavefunction,
)
from wignerlab import io as wio
from wignerlab.filtering import COORDINATE, FILTER_KINDS, GENERAL_COORDINATE, GENERAL_MOMENTUM
from wignerlab.grid import EDGE_LEVEL, P_BAND_LEVEL, _edge_ratio
from wignerlab.wigner import _band_edge, wigner_values_of_amplitudes

from helpers import desk_grid

GRID = desk_grid()

widths = st.floats(min_value=0.7, max_value=1.3)
centers = st.floats(min_value=-2.5, max_value=2.5)
boosts = st.floats(min_value=-2.0, max_value=2.0)
amplitudes = st.complex_numbers(
    min_magnitude=0.2, max_magnitude=1.5, allow_nan=False, allow_infinity=False
)
components = st.lists(st.tuples(widths, centers, boosts, amplitudes), min_size=1, max_size=3)


def build_state(parts):
    values = np.zeros(GRID.n_points, dtype=complex)
    for width, center, boost, amp in parts:
        values += amp * np.exp(
            -((GRID.q - center) ** 2) / (2 * width**2) + 1j * boost * GRID.q
        )
    return normalize(WaveFunction(GRID, values))


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=1e-3, max_value=40.0),
       st.integers(min_value=4, max_value=256), st.floats(min_value=1e-2, max_value=10.0))
def test_lattice_product_is_exact(q_min, span, half_points, hbar):
    g = make_grid(q_min, q_min + span, 2 * half_points, hbar=hbar)
    assert g.delta_q * g.delta_p * g.n_points == pytest.approx(np.pi * hbar, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(components)
def test_normalize_gives_unit_norm(parts):
    psi = build_state(parts)
    assert squared_norm(psi) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(components, components)
def test_inner_product_conjugate_symmetry(parts_a, parts_b):
    a, b = build_state(parts_a), build_state(parts_b)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(components)
def test_fourier_round_trip_and_parseval(parts):
    psi = build_state(parts)
    psi_bar = fourier_transform(psi)
    assert squared_norm(psi_bar) == pytest.approx(1.0, abs=1e-10)
    back = inverse_fourier_transform(psi_bar)
    assert np.max(np.abs(back.values - psi.values)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(components)
def test_distribution_invariants(parts):
    psi = build_state(parts)
    w = wdf_from_wavefunction(psi)
    assert w.mass() == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(w.values)) <= 2 / GRID.h + 1e-12
    assert np.max(np.abs(marginal_q(w) - np.abs(psi.values) ** 2)) < 1e-8
    assert purity(w) == pytest.approx(1.0, abs=1e-8)
    assert uncertainty_product(w) >= GRID.hbar / 2 - 1e-6


@settings(max_examples=15, deadline=None)
@given(components, components)
def test_overlap_is_symmetric_and_matches_amplitudes(parts_a, parts_b):
    a, b = build_state(parts_a), build_state(parts_b)
    wa, wb = wdf_from_wavefunction(a), wdf_from_wavefunction(b)
    forward = overlap_probability(wa, wb)
    assert forward == pytest.approx(overlap_probability(wb, wa), abs=1e-12)
    assert forward == pytest.approx(abs(inner_product(a, b)) ** 2, abs=1e-8)


@settings(max_examples=10, deadline=None)
@given(components, widths, centers)
def test_detection_is_nonnegative(parts, device_width, device_center):
    w_in = wdf_from_wavefunction(build_state(parts))
    device = gaussian_wavefunction(GaussianSpec(width=device_width, center=device_center), GRID)
    result = detect(w_in, wdf_from_wavefunction(device))
    assert result.values.min() >= -1e-12


@settings(max_examples=8, deadline=None)
@given(components, st.floats(min_value=0.2, max_value=0.6), st.floats(min_value=1.05, max_value=2.0))
def test_smoothing_never_deepens_the_minimum(parts, sigma, factor):
    w = wdf_from_wavefunction(build_state(parts))
    assert smoothed_minimum(w, sigma * factor, sigma * factor) >= smoothed_minimum(w, sigma, sigma) - 1e-12


packet = st.tuples(st.floats(0.7, 1.2), st.floats(-2.0, 2.0), st.floats(-1.5, 1.5))
device_packet = st.tuples(st.floats(0.7, 1.2), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(32, 150), st.floats(0.5, 2.0), packet, device_packet, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_filter_routes_agree_on_random_lattices(half_points, hbar, state, device, q_shift, p_kick):
    g = desk_grid(2 * half_points, hbar=hbar)
    try:
        psi, m = (gaussian_wavefunction(GaussianSpec(*args), g) for args in (state, device))
    except ValueError:  # a packet that does not fit this lattice
        assume(False)
    w_in = wdf_from_wavefunction(psi)
    offsets = {GENERAL_COORDINATE: {"p_offset": round(p_kick / g.delta_p) * g.delta_p},
               GENERAL_MOMENTUM: {"q_offset": round(q_shift / g.delta_q) * g.delta_q}}
    for kind in FILTER_KINDS:
        spec = FilterSpec(kind, m, **offsets.get(kind, {}))
        out, transmitted = filter_wavefunction(psi, spec)
        via_law = filter_wdf(w_in, spec).values
        # an output the band rule refuses is no state to compare, e.g. the coordinate output of width-1 packets
        # on N=84, hbar=1 (momentum density 5.6e-7 of its peak at a p end)
        assume(_band_edge(out.values) <= P_BAND_LEVEL)
        error = np.max(np.abs(via_law - transmitted * wdf_from_wavefunction(out).values))
        # exact where the amplitude route shifts and multiplies; a q convolution needs a contained output
        bound = 1e-12 * np.max(np.abs(via_law)) if kind in (COORDINATE, GENERAL_MOMENTUM) else 1e-8
        assert error <= bound, kind


# The remaining route pairs, on the same random lattices: even N in [64, 300], hbar in [0.5, 2].
lattices = st.tuples(st.integers(32, 150), st.floats(0.5, 2.0))
weights = st.tuples(st.floats(0.2, 1.5), st.floats(0.0, 2 * np.pi))


def pair_state(lattice, state, other, weight):
    """A normalized two-packet superposition on a random lattice, or no draw where a packet does not fit it."""
    g = desk_grid(2 * lattice[0], hbar=lattice[1])
    try:
        a, b = (gaussian_wavefunction(GaussianSpec(*args), g) for args in (state, other))
    except ValueError:
        assume(False)
    return normalize(WaveFunction(g, a.values + weight[0] * np.exp(1j * weight[1]) * b.values))


#: Amplitude level at a p end up to which detect's periodic p sum meets criterion 8's bound: between it and the fit
#: rule's 1e-6, content at the p band edge aliases by up to 5.9e-8 (ROADMAP item 10).
DETECT_P_EDGE = 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices, packet, packet, weights, device_packet)
def test_detect_routes_agree_on_random_lattices(lattice, state, other, weight, device):
    psi = pair_state(lattice, state, other, weight)
    try:
        m = gaussian_wavefunction(GaussianSpec(*device), psi.grid)
    except ValueError:  # a device that does not fit this lattice
        assume(False)
    assume(max(_edge_ratio(fourier_transform(x).values) for x in (psi, m)) <= DETECT_P_EDGE)
    via_law = detect(wdf_from_wavefunction(psi), wdf_from_wavefunction(m)).values
    assert np.max(np.abs(via_law - detect_from_wavefunctions(psi, m).values)) < 1e-8  # criterion 8's bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices, packet, packet, weights)
def test_density_route_agrees_on_random_lattices(lattice, state, other, weight):
    psi = pair_state(lattice, state, other, weight)
    w = wdf_from_wavefunction(psi)
    error = np.max(np.abs(wdf_from_density(pure_density(psi)).values - w.values))
    assert error <= 1e-14 * np.max(np.abs(w.values))  # the same sum, reordered: rounding only


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices, packet, packet, weights)
def test_recovery_inverts_the_distribution_on_random_lattices(lattice, state, other, weight):
    psi = pair_state(lattice, state, other, weight)
    reference = psi.values[psi.grid.origin_index()]
    assume(abs(reference) >= 0.05)  # a reference point as criterion 12 draws it
    recovered = recover_wavefunction(wdf_from_wavefunction(psi))
    assert np.max(np.abs(recovered.values - psi.values * np.conj(reference) / abs(reference))) < 1e-12


#: Distance from a lattice end, in extents, of a packet's centre at the fit rule's limit: exp(-x^2 / 2) = EDGE_LEVEL.
FIT_REACH = np.sqrt(-2.0 * np.log(EDGE_LEVEL))

#: A packet toward one q end and one p end: its width's place between the narrowest and widest that fit the lattice,
#: the two ends, and how far toward each fit limit it sits from the lattice middle.
limit_packet = st.tuples(st.floats(0.0, 1.0), st.sampled_from([0, -1]), st.sampled_from([0, -1]),
                         st.floats(0.95, 1.0), st.floats(0.95, 1.0))


def at_the_limits(g, place, q_end, p_end, q_reach, p_reach):
    """``GaussianSpec`` arguments of a packet drawn by ``limit_packet`` on ``g``."""
    def toward(axis, extent, end, reach):
        middle = (axis[0] + axis[-1]) / 2
        return middle + reach * (axis[end] - np.sign(axis[end] - middle) * FIT_REACH * extent - middle)

    half_q, half_p = (g.q[-1] - g.q[0]) / 2, (g.p[-1] - g.p[0]) / 2
    narrowest, widest = FIT_REACH * g.hbar / half_p, half_q / FIT_REACH  # those that sit in the middle at the limits
    width = narrowest * (widest / narrowest) ** place
    return width, toward(g.q, width, q_end, q_reach), toward(g.p, g.hbar / width, p_end, p_reach)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices, limit_packet, limit_packet, weights)
def test_no_state_the_generators_admit_meets_the_band_refusal(lattice, state, other, weight):
    # the fit rule allows amplitude 1e-6 of the peak at a p end, momentum density 1e-12, 1e5 times below the band rule
    g = desk_grid(2 * lattice[0], hbar=lattice[1])
    psi = pair_state(lattice, at_the_limits(g, *state), at_the_limits(g, *other), weight)
    assert_one_band_reading(psi)
    purity(wdf_from_wavefunction(psi))  # the rule on the state and on its distribution


def assert_one_band_reading(psi):
    """The samples of ``psi`` read the band rule's measure at least as its distribution's p-marginal does, to
    rounding, so ``wdf_from_wavefunction`` admits ``psi`` only if ``purity`` admits the distribution it returns."""
    values = wigner_values_of_amplitudes(psi.values, psi.grid)
    assert _band_edge(psi.values) >= _band_edge(values) - 1e-15
    try:
        w = wdf_from_wavefunction(psi)
    except InvariantViolation:
        return
    purity(w)


#: A width-1 packet past the q fit limit: its q end, the log10 of its amplitude there, where the band readings
#: straddle P_BAND_LEVEL, and its momentum as a fraction of the band's upper end.
edge_packet = st.tuples(st.sampled_from([0, -1]), st.floats(-4.0, -1.0), st.floats(-0.5, 0.5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattices, edge_packet)
def test_states_past_the_q_limit_read_the_band_as_their_distributions(lattice, packet):
    # read band by band, the samples of a packet at q = 8.9 on -12:12:256 gave 6.1e-8, its p-marginal 1.2e-7
    g = desk_grid(2 * lattice[0], hbar=lattice[1])
    q_end, log_edge, p_place = packet
    center = g.q[q_end] - np.sign(g.q[q_end]) * np.sqrt(-2.0 * np.log(10.0**log_edge))
    psi = normalize(WaveFunction(g, np.exp(-((g.q - center) ** 2) / 2 + 1j * p_place * g.p[-1] * g.q / g.hbar)))
    assert_one_band_reading(psi)


#: Edge level, in q and in p, below which the Fourier pair round-trips a state to rounding: its error grows with
#: the edge (to 3e-8 of the peak at the generators' 1e-6 fit limit), so the twins are drawn where both edges are below.
TWIN_EDGE = 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattices, packet, packet, weights, device_packet, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_momentum_twins_agree_on_random_lattices(lattice, state, other, weight, device, q_shift, p_kick):
    psi = pair_state(lattice, state, other, weight)
    g = psi.grid
    try:
        m = gaussian_wavefunction(GaussianSpec(*device), g)
    except ValueError:
        assume(False)
    psi_bar, m_bar = fourier_transform(psi), fourier_transform(m)
    assume(max(_edge_ratio(x.values) for x in (psi, m, psi_bar, m_bar)) <= TWIN_EDGE)

    def assert_twins_agree(read):
        """``read`` gives the same result, within 1e-13 of its peak, for the momentum twins as for the states."""
        ours, theirs = np.asarray(read(psi, m)), np.asarray(read(psi_bar, m_bar))
        assert np.max(np.abs(theirs - ours)) <= 1e-13 * np.max(np.abs(ours))

    assert_twins_agree(lambda x, y: wdf_from_wavefunction(x).values)
    assert_twins_agree(lambda x, y: detect_from_wavefunctions(x, y).values)
    assert_twins_agree(lambda x, y: mixed_density([x, y], [0.3, 0.7]).entries)
    assert_twins_agree(lambda x, y: split_step_schrodinger(x, PotentialSpec((0.0, 0.0, 0.5)),
                                                           EvolutionConfig(1e-2, 20)).values)
    offsets = {GENERAL_COORDINATE: {"p_offset": round(p_kick / g.delta_p) * g.delta_p},
               GENERAL_MOMENTUM: {"q_offset": round(q_shift / g.delta_q) * g.delta_q}}
    for kind in FILTER_KINDS:  # the device, a transmission function, is given in position to both
        spec = FilterSpec(kind, m, **offsets.get(kind, {}))
        assert_twins_agree(lambda x, y: filter_wavefunction(x, spec)[0].values)
        assert_twins_agree(lambda x, y: filter_wavefunction(x, spec)[1])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(lattices, packet, packet, weights)
def test_matrix_files_round_trip_bit_exactly(lattice, state, other, weight):
    w = wdf_from_wavefunction(pair_state(lattice, state, other, weight))
    with tempfile.TemporaryDirectory() as tmp:
        first = wio.save_matrix(w, Path(tmp) / "a.csv")
        loaded = wio.load_wigner(first[0])
        assert loaded.grid == w.grid and np.array_equal(loaded.values, w.values)
        second = wio.save_matrix(loaded, Path(tmp) / "b.csv")
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
