import math
import re

import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    EvolutionConfig,
    GaussianSpec,
    InvariantViolation,
    PotentialSpec,
    WaveFunction,
    WignerFunction,
    cat_wavefunction,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
    make_grid,
    moyal_rhs,
    normalize,
    propagate,
    split_step_schrodinger,
    squared_norm,
    wdf_from_wavefunction,
)
from wignerlab import evolution

from helpers import density_width, gathered_force_symbol

FREE = PotentialSpec(coefficients=(0.0,), mass=1.0)
HARMONIC = PotentialSpec(coefficients=(0.0, 0.0, 0.5), mass=1.0)
QUARTIC = PotentialSpec(coefficients=(0.0, 0.0, 0.0, 0.0, 0.25), mass=1.0)
OCTIC_WELL = (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-6)
QUARTIC_DT = 3.7876068836682497e-05  # 0.5 * dp / max|V'| of QUARTIC on the desk grid


def series_symbol(grid, coefficients):
    """Odd-derivative Moyal series of a polynomial, summed to its own degree."""
    poly = np.polynomial.polynomial
    ikp = 2j * np.pi * np.fft.rfftfreq(grid.n_points, d=grid.delta_p)
    ikp[-1] = 0.0
    force = np.zeros((grid.n_points, ikp.size), dtype=complex)
    for term in range(len(coefficients) // 2):
        order = 2 * term + 1
        coeff = (-1.0) ** term * (grid.hbar / 2.0) ** (2 * term) / math.factorial(order)
        force += (coeff * poly.polyval(grid.q, poly.polyder(coefficients, m=order)))[:, None] * ikp**order
    return force


def classical_symbol(grid, coefficients):
    """The classical ``V'(q) i k_p`` kick symbol, with the Nyquist column zeroed."""
    force = np.polynomial.Polynomial(coefficients).deriv()(grid.q)[:, None] * (
        2j * np.pi * np.fft.rfftfreq(grid.n_points, d=grid.delta_p)
    )
    force[:, -1] = 0.0
    return force


def edge_packet(grid, edge):
    """A packet centred on lattice point 151 whose amplitude at the last point is ``edge`` of its peak.

    Row 151 pairs with the last row at offset m = 52, so the end correlation rho(n-1, 151) over the
    largest diagonal rho(151, 151) is ``edge`` too.
    """
    center = grid.q[151]
    width = (grid.q[-1] - center) / np.sqrt(-2.0 * np.log(edge))
    psi = normalize(WaveFunction(grid, np.exp(-((grid.q - center) ** 2) / (2 * width**2))))
    assert abs(psi.values[-1] / psi.values[151]) == pytest.approx(edge, rel=1e-12)
    return psi


def classical_rhs(w, v):
    """Liouville transport ``{H, W}``: the Moyal operator with the classical kick symbol."""
    transport, _ = evolution._moyal_symbols(w.grid, v)
    force = classical_symbol(w.grid, v.coefficients)
    return evolution._apply(w.values, transport, 0) + evolution._apply(w.values, force, 1)


class TestPotentialSpec:
    def test_polynomial(self):
        v = PotentialSpec(coefficients=(1.0, 0.0, 0.5, 0.0, 0.25))
        q = np.array([0.0, 1.0, 2.0])
        assert np.allclose(v.polynomial(q), 1.0 + 0.5 * q**2 + 0.25 * q**4)
        assert np.allclose(v.polynomial.deriv()(q), q + q**3)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            PotentialSpec(coefficients=tuple(range(10)))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            PotentialSpec(coefficients=(0.0,), mass=0.0)

    @pytest.mark.parametrize("mass", [float("inf"), float("nan")])
    def test_rejects_non_finite_mass(self, mass):
        with pytest.raises(ValueError, match=f"^mass must be a finite number, got {mass}$"):
            PotentialSpec(coefficients=(0.0,), mass=mass)


class TestEvolutionConfig:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("inf"), float("nan")])
    def test_rejects_bad_dt(self, dt):
        message = f"dt must be positive, got {dt}" if np.isfinite(dt) else f"dt must be a finite number, got {dt}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            EvolutionConfig(dt=dt, n_steps=1)


class TestMoyalRHS:
    def test_quadratic_potential_has_no_quantum_terms(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid))
        assert np.array_equal(moyal_rhs(w, HARMONIC), classical_rhs(w, HARMONIC))

    @pytest.mark.parametrize(
        "coefficients",
        [(0.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.0, 0.0), (1.0, -0.3), (0.0,)],
        ids=["harmonic", "padded", "linear", "free"],
    )
    def test_quadratic_takes_the_classical_form(self, grid, coefficients):
        kick = evolution._force_symbol(grid, np.polynomial.Polynomial(coefficients))
        assert np.array_equal(kick, classical_symbol(grid, coefficients))

    def test_free_particle_is_pure_transport(self, grid):
        spec = GaussianSpec(width=1.0, center=0.5)
        w = wdf_from_wavefunction(gaussian_wavefunction(spec, grid))
        rhs = moyal_rhs(w, FREE)
        qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
        closed = gaussian_wdf_closed_form(spec, grid).values
        dw_dq = -2.0 * (qq - 0.5) * closed
        assert np.max(np.abs(rhs - (-(pp) * dw_dq))) < 1e-8

    def test_quartic_correction_term(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        correction = moyal_rhs(w, QUARTIC) - classical_rhs(w, QUARTIC)
        # single correction term: -(hbar^2/24) * 6q * d^3W/dp^3, spectral in p
        n = grid.n_points
        kp = 2 * np.pi * np.fft.rfftfreq(n, grid.delta_p)
        kp[-1] = 0.0
        third = np.fft.irfft(np.fft.rfft(w.values, axis=1) * (1j * kp) ** 3, n=n, axis=1)
        target = -(grid.hbar**2 / 24.0) * (6.0 * 0.25 * 4.0 * grid.q)[:, None] * third
        assert np.max(np.abs(correction - target)) < 1e-12
        assert np.max(np.abs(correction)) > 1e-3

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize(
        "coefficients, gradient_scale",
        [
            pytest.param((0.1, -0.2, 0.5, 0.05, 0.25), 0.0, id="quartic"),
            pytest.param((0.0, 0.3, 0.5, 0.0, -0.02, 0.01, 1e-3), 0.0, id="sextic"),
            pytest.param(OCTIC_WELL, 0.0, id="octic"),
            pytest.param(OCTIC_WELL, 1e-3, id="octic-gradient"),  # V - c V'^2, degree 14
        ],
    )
    def test_two_point_kick_matches_derivative_series(self, coefficients, gradient_scale, hbar):
        grid = make_grid(-8.0, 8.0, 128, hbar=hbar)
        u = np.polynomial.Polynomial(coefficients)
        u = u - gradient_scale * u.deriv() ** 2
        reference = series_symbol(grid, u.coef)
        kick = evolution._force_symbol(grid, u)
        assert np.max(np.abs(kick - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n, hbar", [(128, 1.0), (200, 0.7)])
    @pytest.mark.parametrize("coefficients", [(0.1, -0.2, 0.5, 0.05, 0.25), OCTIC_WELL], ids=["quartic", "octic"])
    def test_two_point_kick_equals_gather_formula(self, coefficients, n, hbar):
        grid = make_grid(-8.0, 8.0, n, hbar=hbar)
        u = np.polynomial.Polynomial(coefficients)
        assert np.array_equal(evolution._force_symbol(grid, u), gathered_force_symbol(grid, u))

    def test_short_time_cross_check_against_oracle(self, grid):
        # one-sided second-order difference of the oracle pins sign and size
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        w = wdf_from_wavefunction(psi)
        eps = 5e-4
        one = wdf_from_wavefunction(
            split_step_schrodinger(psi, QUARTIC, EvolutionConfig(dt=eps, n_steps=1))
        )
        two = wdf_from_wavefunction(
            split_step_schrodinger(psi, QUARTIC, EvolutionConfig(dt=eps, n_steps=2))
        )
        derivative = (4.0 * one.values - two.values - 3.0 * w.values) / (2.0 * eps)
        rhs_full = moyal_rhs(w, QUARTIC)
        rhs_classical = classical_rhs(w, QUARTIC)
        assert np.max(np.abs(derivative - rhs_full)) < 1e-4
        assert np.max(np.abs(derivative - rhs_classical)) > 5e-2


class TestPropagate:
    def test_zero_steps_is_identity(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        out = propagate(w, HARMONIC, EvolutionConfig(dt=1e-3, n_steps=0))
        assert np.array_equal(out.values, w.values)

    def test_harmonic_eighth_period_rotation(self, grid):
        # unit width keeps the blob isotropic, only the center moves
        amplitude = 2.0
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=amplitude), grid)
        w = wdf_from_wavefunction(psi)
        steps = 300
        angle = np.pi / 4
        cfg = EvolutionConfig(dt=angle / steps, n_steps=steps)
        out = propagate(w, HARMONIC, cfg)
        target = gaussian_wdf_closed_form(
            GaussianSpec(
                width=1.0,
                center=amplitude * np.cos(angle),
                momentum_offset=-amplitude * np.sin(angle),
            ),
            grid,
        )
        assert np.max(np.abs(out.values - target.values)) < 1e-6
        assert out.mass() == pytest.approx(1.0, abs=1e-9)

    def test_free_particle_shear(self, grid):
        spec = GaussianSpec(width=1.0, center=-1.0, momentum_offset=1.5)
        w = wdf_from_wavefunction(gaussian_wavefunction(spec, grid))
        t = 0.5
        out = propagate(w, FREE, EvolutionConfig(dt=1e-3, n_steps=500))
        qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
        sheared = (2 / grid.h) * np.exp(-((qq - pp * t) + 1.0) ** 2 - (pp - 1.5) ** 2)
        assert np.max(np.abs(out.values - sheared)) < 1e-6

    def test_large_step_harmonic_quarter_period(self, grid):
        # dt = pi/100 is 11x the explicit-scheme bound 0.5*min(m*dq/p_max, dp/max|V'|):
        # every step is unitary, so the step count alone sets the accuracy
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=2.0), grid))
        target = gaussian_wdf_closed_form(GaussianSpec(width=1.0, momentum_offset=-2.0), grid)
        out = propagate(w, HARMONIC, EvolutionConfig(dt=np.pi / 2 / 50, n_steps=50))
        assert np.max(np.abs(out.values - target.values)) < 1e-8

    def test_fourth_order_convergence(self):
        # Strang stepping would pass the oracle comparisons; this pins the order
        coarse = make_grid(-10.0, 10.0, 96)
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=2.0), coarse))
        target = gaussian_wdf_closed_form(GaussianSpec(width=1.0, momentum_offset=-2.0), coarse)
        errors = []
        for steps in (200, 400):
            cfg = EvolutionConfig(dt=np.pi / 2 / steps, n_steps=steps)
            errors.append(np.max(np.abs(propagate(w, HARMONIC, cfg).values - target.values)))
        assert errors[0] / errors[1] >= 12.0

    def test_fourth_order_error_constant(self):
        # the force-gradient kick removes the [V,[T,V]] error: 3.3e-12 here,
        # where a triple-jump composition of the same order reaches 2.5e-10
        coarse = make_grid(-10.0, 10.0, 96)
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=2.0), coarse))
        target = gaussian_wdf_closed_form(GaussianSpec(width=1.0, momentum_offset=-2.0), coarse)
        out = propagate(w, HARMONIC, EvolutionConfig(dt=np.pi / 2 / 200, n_steps=200))
        assert np.max(np.abs(out.values - target.values)) < 2e-11

    def test_harmonic_kicks_are_classical(self, grid, monkeypatch):
        # the force-gradient potential of a quadratic well is quadratic too
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid))
        cfg = EvolutionConfig(dt=1e-3, n_steps=30)
        exact = propagate(w, HARMONIC, cfg)
        monkeypatch.setattr(evolution, "_force_symbol", lambda grid, u: classical_symbol(grid, u.coef))
        assert np.array_equal(propagate(w, HARMONIC, cfg).values, exact.values)

    @pytest.mark.parametrize(
        "center, momentum, potential, where",
        [
            pytest.param(6.0, 3.0, FREE, r"amplitude \S+", id="q"),
            pytest.param(0.0, 6.0, PotentialSpec(coefficients=(0.0, -30.0)), "value .* of the p-marginal", id="p"),
        ],
    )
    def test_state_leaving_the_lattice_aborts(self, grid, center, momentum, potential, where):
        # drift and kick are periodic, so unchecked the state re-enters from the
        # other side: the free packet would end at <q> = -6.9 instead of 15
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=center, momentum_offset=momentum), grid)
        w = wdf_from_wavefunction(psi)
        with pytest.raises(InvariantViolation, match=f"^edge {where} at step "):
            propagate(w, potential, EvolutionConfig(dt=1e-3, n_steps=3000))

    def test_two_kicks_and_two_drifts_per_step(self, grid, monkeypatch):
        axes = []
        apply = evolution._apply

        def counting_apply(values, symbol, axis):
            axes.append(axis)
            return apply(values, symbol, axis)

        monkeypatch.setattr(evolution, "_apply", counting_apply)
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        propagate(w, HARMONIC, EvolutionConfig(dt=1e-3, n_steps=50))
        assert axes.count(0) == 2 * 50
        assert len(axes) <= 4 * 50 + 2  # one closing kick per check, at steps 25 and 50

    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.7, 2.0)])
    def test_octic_well_middle_kick_is_exact(self, hbar, mass, monkeypatch):
        # V - dt^2/(48 m) V'^2 has degree 14: the middle kick is its own two-point difference
        grid = make_grid(-8.0, 8.0, 128, hbar=hbar)
        well = PotentialSpec(coefficients=OCTIC_WELL, mass=mass)
        dt = 5e-4
        symbols = []
        force_symbol = evolution._force_symbol

        def recording_force_symbol(*args):
            symbols.append(force_symbol(*args))
            return symbols[-1]

        monkeypatch.setattr(evolution, "_force_symbol", recording_force_symbol)
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid)
        w = wdf_from_wavefunction(psi)
        cfg = EvolutionConfig(dt=dt, n_steps=500)
        via_moyal = propagate(w, well, cfg)

        def gradient_potential(x):
            return well.polynomial(x) - dt**2 / (48.0 * mass) * well.polynomial.deriv()(x) ** 2

        shift = np.arange(grid.n_points // 2 + 1) * grid.delta_q
        q = grid.q[:, None]
        two_point = 1j / hbar * (gradient_potential(q + shift) - gradient_potential(q - shift))
        two_point[:, -1] = 0.0
        middle = symbols[-1]
        assert np.max(np.abs(middle - two_point)) <= 1e-14 * np.max(np.abs(two_point))
        via_oracle = wdf_from_wavefunction(split_step_schrodinger(psi, well, cfg))
        assert np.max(np.abs(via_moyal.values - via_oracle.values)) < 1e-5

    def test_single_step_consistent_with_moyal_rhs(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid))
        rhs = moyal_rhs(w, QUARTIC)
        dt = QUARTIC_DT
        residuals = []
        for _ in range(3):
            stepped = propagate(w, QUARTIC, EvolutionConfig(dt=dt, n_steps=1))
            residuals.append(np.max(np.abs((stepped.values - w.values) / dt - rhs)))
            dt /= 2
        for coarse, fine in zip(residuals, residuals[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.05)

    def test_chunked_calls_match_one_call(self, grid):
        well = PotentialSpec(coefficients=(0.0, 0.0, 0.5, 0.0, 0.005), mass=1.0)
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid))
        half = EvolutionConfig(dt=1e-3, n_steps=50)
        chunked = propagate(propagate(w, well, half), well, half)
        whole = propagate(w, well, EvolutionConfig(dt=1e-3, n_steps=100))
        assert np.max(np.abs(chunked.values - whole.values)) < 1e-12

    def test_mass_exact_over_quartic_run(self, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid))
        cfg = EvolutionConfig(dt=QUARTIC_DT, n_steps=1000)
        assert propagate(w, QUARTIC, cfg).mass() == pytest.approx(w.mass(), abs=1e-12)

    def test_negativity_survives_unitary_transport(self, grid):
        cat = wdf_from_wavefunction(cat_wavefunction(CatSpec(width=1.0, separation=3.0), grid))
        before = cat.values.min()
        out = propagate(cat, FREE, EvolutionConfig(dt=1e-3, n_steps=200))
        assert before < -0.1
        assert out.values.min() < -0.1


class TestAbortGatesFromBothSides:
    """The edge abort, the amplitude cap, the mass drift and the 25-step check schedule, each pinned a factor of 3 to
    either side."""

    @pytest.mark.parametrize(
        "axis, edge, refused", [("q", 3e-6, True), ("q", 3e-7, False), ("p", 3e-7, True), ("p", 3e-8, False)]
    )
    def test_marginal_edge(self, grid, monkeypatch, axis, edge, refused):
        if axis == "q":  # the amplitude rule, read off the distribution
            w, message = wdf_from_wavefunction(edge_packet(grid, edge)), "amplitude {}"
            run = lambda: propagate(w, FREE, EvolutionConfig(dt=1e-9, n_steps=1))  # too short to move the edge
        else:  # the state rule refuses such a state at the door, so it enters in band and leaks during its one step
            w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
            marginal = w.values.sum(axis=0)  # which the free step keeps to rounding
            leak = np.exp(-(grid.q**2))  # a Gaussian in q on the last p column, ending the marginal there at ``edge``
            leak *= (edge * marginal.max() - marginal[-1]) / leak.sum()
            run, message = self.spiked_run(monkeypatch, w, np.s_[:, -1], leak), "value {} of the p-marginal"
        if refused:
            message = re.escape(message.format(f"{edge:.2e}"))
            with pytest.raises(InvariantViolation, match=f"^edge {message} at step 1: "):
                run()
        else:
            marginal = run().values.sum(axis=0)
            assert axis == "q" or marginal[-1] / marginal.max() == pytest.approx(edge, rel=1e-9)  # the leak landed

    @staticmethod
    def spiked_run(monkeypatch, w, where, spike):
        """A one-step free run of ``w`` whose closing kick adds ``spike`` to the values at ``where``."""
        apply, calls = evolution._apply, []

        def spiking_apply(values, symbol, axis):
            result = apply(values, symbol, axis)
            calls.append(axis)
            if len(calls) == 5:  # the closing kick of the only step
                result[where] += spike
            return result

        monkeypatch.setattr(evolution, "_apply", spiking_apply)
        return lambda: propagate(w, FREE, EvolutionConfig(dt=1e-3, n_steps=1))

    @staticmethod
    def row_pair(grid, height):
        """Where and what :meth:`spiked_run` adds for a mass-neutral +- pair of rows of height ``height``.

        Rows 150 and 151 meet the end anti-diagonals only at offsets 105 and 104, where a profile this smooth in p
        has no content, so only the amplitude cap reads the pair.
        """
        profile = height * np.exp(-2.0 * (grid.p - grid.p[204]) ** 2)
        return np.s_[150:152], np.array([profile, -profile])

    @pytest.mark.parametrize("factor, refused", [(3.0, True), (1 / 3, False)])
    def test_amplitude_cap(self, grid, monkeypatch, factor, refused):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        spike = factor * 10.0 * max(2.0 / grid.h, np.max(np.abs(w.values)))
        run = self.spiked_run(monkeypatch, w, *self.row_pair(grid, spike))
        if refused:
            with pytest.raises(InvariantViolation, match=f"^{re.escape(f'evolution went unstable at step 1 (peak {spike:.2e})')}$"):
                run()
        else:
            assert np.max(run().values) == pytest.approx(spike, rel=1e-9)

    @pytest.mark.parametrize("factor, refused", [(3.0, True), (1 / 3, False)])
    def test_amplitude_cap_floor(self, grid, monkeypatch, factor, refused):
        # a mixed Gaussian whose peak is a tenth of 2/h: the cap is ten times the floor 2/h, not ten times the peak
        values = np.exp(-(grid.q[:, None] ** 2) / 8.0 - grid.p**2 / 12.5)
        w = WignerFunction(grid, values / (2.0 * np.pi * 5.0))
        assert np.max(w.values) == pytest.approx(0.1 * 2.0 / grid.h, rel=1e-12)
        run = self.spiked_run(monkeypatch, w, *self.row_pair(grid, factor * 10.0 * 2.0 / grid.h))
        if refused:
            with pytest.raises(InvariantViolation, match="^evolution went unstable at step 1 "):
                run()
        else:
            assert np.max(run().values) > 3.0 * 2.0 / grid.h

    @pytest.mark.parametrize("n_steps", [50, 80])
    def test_checks_come_every_25_steps(self, grid, monkeypatch, n_steps):
        # a single step's frame spans all n_steps, so only the 25-step schedule checks before its end
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        apply, calls = evolution._apply, []

        def leaking_apply(values, symbol, axis):
            calls.append(axis)
            result = apply(values, symbol, axis)
            return result * (1.0 + 1e-3) if len(calls) == 4 * 10 + 1 else result  # opening kick of step 11

        monkeypatch.setattr(evolution, "_apply", leaking_apply)
        with pytest.raises(InvariantViolation, match=r"^mass drift 1\.00e-03 at step 25 exceeds 1e-4"):
            propagate(w, HARMONIC, EvolutionConfig(dt=1e-3, n_steps=n_steps))

    @pytest.mark.parametrize("leak, refused", [(3e-4, True), (3e-5, False)])
    def test_mass_drift(self, grid, monkeypatch, leak, refused):
        # a one-off leak at the opening kick of step 11 of 50: the drift the check at step 25 reads
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        apply, calls = evolution._apply, []

        def leaking_apply(values, symbol, axis):
            calls.append(axis)
            result = apply(values, symbol, axis)
            return result * (1.0 + leak) if len(calls) == 4 * 10 + 1 else result

        monkeypatch.setattr(evolution, "_apply", leaking_apply)
        run = lambda: propagate(w, HARMONIC, EvolutionConfig(dt=1e-3, n_steps=50))
        if refused:
            with pytest.raises(InvariantViolation, match=r"^mass drift 3\.00e-04 at step 25 exceeds 1e-4; aborting$"):
                run()
        else:
            assert run().mass() == pytest.approx(1.0 + leak, rel=1e-9)


class TestSplitStep:
    def test_coherent_state_half_period(self, grid):
        amplitude = 1.0
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=amplitude), grid)
        steps = 31416
        out = split_step_schrodinger(psi, HARMONIC, EvolutionConfig(dt=np.pi / steps, n_steps=steps))
        target = gaussian_wavefunction(GaussianSpec(width=1.0, center=-amplitude), grid)
        phase = np.vdot(out.values, target.values)
        phase /= abs(phase)
        assert np.max(np.abs(out.values * phase - target.values)) < 1e-8
        assert density_width(out) == pytest.approx(1.0 / np.sqrt(2), abs=1e-8)

    def test_free_spreading(self, grid):
        q0 = 1.0
        psi = gaussian_wavefunction(GaussianSpec(width=q0), grid)
        t = 1.0
        out = split_step_schrodinger(psi, FREE, EvolutionConfig(dt=1e-3, n_steps=1000))
        spread = q0 * np.sqrt(1 + (t / q0**2) ** 2)
        assert density_width(out) == pytest.approx(spread / np.sqrt(2), rel=1e-10)

    def test_norm_conserved(self, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid)
        out = split_step_schrodinger(psi, QUARTIC, EvolutionConfig(dt=1e-3, n_steps=1000))
        assert squared_norm(out) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("edge, refused", [(3e-6, True), (3e-7, False)])
    def test_edge_abort_from_both_sides(self, grid, edge, refused):
        run = lambda: split_step_schrodinger(edge_packet(grid, edge), FREE, EvolutionConfig(dt=1e-9, n_steps=1))
        if refused:
            with pytest.raises(InvariantViolation, match=r"^edge amplitude 3\.00e-06 at step 1: "):
                run()
        else:
            run()

    def test_edge_breach_aborts(self, grid):
        values = np.exp(-((grid.q - 6.0) ** 2) / 2 + 3j * grid.q)
        psi = normalize(WaveFunction(grid, values))
        with pytest.raises(InvariantViolation, match="edge"):
            split_step_schrodinger(psi, FREE, EvolutionConfig(dt=1e-3, n_steps=2500))


def test_moyal_matches_split_step_for_anharmonic_well(grid):
    # gentle quartic: in the steep 0.25 q^4 well this packet trips the edge abort
    # on the desk grid before t = 0.1, whatever the step
    well = PotentialSpec(coefficients=(0.0, 0.0, 0.5, 0.0, 0.005), mass=1.0)
    psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=1.0), grid)
    w = wdf_from_wavefunction(psi)
    cfg = EvolutionConfig(dt=1e-3, n_steps=250)
    via_moyal = propagate(w, well, cfg)
    via_oracle = wdf_from_wavefunction(split_step_schrodinger(psi, well, cfg))
    assert np.max(np.abs(via_moyal.values - via_oracle.values)) < 1e-5


GENTLE_QUARTIC = PotentialSpec(coefficients=(0.0, 0.0, 0.5, 0.0, 0.005), mass=1.0)


@pytest.mark.parametrize("center", [4.5, -4.5, 5.0, -5.0, 5.5, -5.5, 6.0, -6.0, 6.5, -6.5, 6.64])
@pytest.mark.parametrize("well", [HARMONIC, GENTLE_QUARTIC], ids=["harmonic", "quartic"])
def test_admitted_packets_run(grid, well, center):
    # the fit rule admits centres up to 6.65 on this lattice, and each such packet steps to t = 3 within 1e-6
    psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=center), grid)
    out = propagate(wdf_from_wavefunction(psi), well, EvolutionConfig(dt=1e-3, n_steps=3000))
    if well is HARMONIC:  # the exact rotation
        spec = GaussianSpec(width=1.0, center=center * np.cos(3.0), momentum_offset=-center * np.sin(3.0))
        target = gaussian_wdf_closed_form(spec, grid).values
    else:
        oracle = split_step_schrodinger(psi, well, EvolutionConfig(dt=2.5e-4, n_steps=12000))
        target = wdf_from_wavefunction(oracle).values
    assert np.max(np.abs(out.values - target)) < 1e-6 * np.max(target)


@pytest.mark.parametrize("center, momentum", [(6.0, 5.0), (5.0, -6.0), (0.0, 10.0)])
def test_free_leaks_abort_with_the_oracle(grid, center, momentum):
    psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=center, momentum_offset=momentum), grid)
    cfg = EvolutionConfig(dt=1e-3, n_steps=2000)
    steps = []
    w = wdf_from_wavefunction(psi)
    for run in (lambda: split_step_schrodinger(psi, FREE, cfg), lambda: propagate(w, FREE, cfg)):
        with pytest.raises(InvariantViolation, match="^edge amplitude ") as caught:
            run()
        steps.append(int(re.search(r" at step (\d+): ", str(caught.value)).group(1)))
    oracle, moyal = steps
    # the oracle checks every 16 steps, the propagator every 25: no later than one check after the oracle's abort
    assert oracle - 25 <= moyal <= 25 * math.ceil(oracle / 25) + 25


@pytest.mark.parametrize(
    "coefficients, center, last",
    [((0.0, -40.0), -4.0, 300), ((0.0, 0.0, -0.5, 0.0, 0.02), 6.6, 250)],
    ids=["linear", "double-well"],
)
def test_p_band_leaks_abort_before_they_err(grid, coefficients, center, last):
    # every frame a run returns matches the oracle at dt/4 within 1e-6 of the peak; the next check aborts on p
    well = PotentialSpec(coefficients=coefficients)
    psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=center), grid)
    frames = evolution._frames(wdf_from_wavefunction(psi), well, 1e-3, 1000, 25)
    for _ in range(last // 25):
        psi = split_step_schrodinger(psi, well, EvolutionConfig(dt=2.5e-4, n_steps=100))
        target = wdf_from_wavefunction(psi).values
        assert np.max(np.abs(next(frames).values - target)) < 1e-6 * np.max(target)
    with pytest.raises(InvariantViolation, match=f"^edge value .* of the p-marginal at step {last + 25}: "):
        next(frames)
