"""Time evolution of the phase-space distribution for polynomial potentials.

The equation of motion is the Moyal bracket,

    dW/dt = -(p/m) dW/dq + (1/(i hbar)) [V(q + (i hbar/2) d/dp) - V(q - (i hbar/2) d/dp)] W.

The transport term is diagonal in (k_q, p) and the potential term in
(q, k_p).  At rfft column m over p, ``k_p = 2 m delta_q / hbar``, so the
potential term is the exact two-point difference
``(i/hbar) [V(q + m delta_q) - V(q - m delta_q)]`` of lattice values, read
at the row pairs (j - m, j + m) of the phase-space correlation.  Stepping
splits the operator and applies each part exactly as a phase (Cabrera,
Bondar, Jacobs & Rabitz, PRA 92, 042122 (2015)), composed to fourth order
by Chin's force-gradient scheme 4A (Phys. Lett. A 226, 344 (1997); Chin &
Chen, J. Chem. Phys. 114, 7338 (2001)).  A Strang-split Schroedinger
propagator is the independent oracle on the wavefunction side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, _checked_fields, _checked_kind, _count, _finite, _positive
from .grid import EDGE_LEVEL, P_BAND_LEVEL, POSITION, Grid, WaveFunction, _adopt, _edge_ratio, _pair_views, to_position
from .wigner import WignerFunction, _band_edge, _checked_state

_MASS_DRIFT_ABORT = 1e-4


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential ``V(q) = sum_k coefficients[k] q^k`` and particle mass."""

    coefficients: tuple[float, ...]
    mass: float = 1.0

    def __post_init__(self):
        coeffs = tuple(_finite(f"coefficients[{k}]", c) for k, c in enumerate(self.coefficients))
        if not 1 <= len(coeffs) <= 9:
            raise ValueError(f"potential needs 1 to 9 coefficients (degree at most 8), got {len(coeffs)}")
        object.__setattr__(self, "coefficients", coeffs)
        _checked_fields(self, mass=_positive)

    @property
    def polynomial(self) -> np.polynomial.Polynomial:
        # numpy.polynomial is imported on first use, not with the package
        return np.polynomial.Polynomial(self.coefficients)


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepping parameters: step size and step count, an integer, stored as an ``int``."""

    dt: float
    n_steps: int

    def __post_init__(self):
        _checked_fields(self, dt=_positive, n_steps=_count)
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")


def _moyal_symbols(grid: Grid, v: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fourier symbols of the transport ``-(p/m) d/dq``, diagonal in (k_q, p), and the potential term.

    Both are purely imaginary, with the Nyquist column zeroed since a real
    signal admits no imaginary symbol there, so ``exp(tau * symbol)`` is an
    exact Hermitian phase.
    """
    ikq = 2j * np.pi * np.fft.rfftfreq(grid.n_points, d=grid.delta_q)
    ikq[-1] = 0.0
    transport = -(grid.p[None, :] / v.mass) * ikq[:, None]
    return transport, _force_symbol(grid, v.polynomial)


def _force_symbol(grid: Grid, u: np.polynomial.Polynomial) -> np.ndarray:
    """Symbol over (q, k_p) of the Moyal potential term of the polynomial ``u``.

    The exact two-point difference ``(i/hbar) [u(q_j + m dq) - u(q_j - m dq)]``:
    ``u`` sampled once on the doubled lattice ``k in [-n/2, 3n/2)``, read at
    the rows ``(j - m, j + m)`` through ``_pair_views``.  For degree <= 2 the
    difference is the classical ``u'(q) i k_p``, which is taken then, so
    quadratic wells stay bit-exact.
    """
    n = grid.n_points
    if u.trim().degree() <= 2:
        force = u.deriv()(grid.q)[:, None] * (2j * np.pi * np.fft.rfftfreq(n, d=grid.delta_p))
    else:
        lower, upper = _pair_views(u(grid.q_min + grid.delta_q * np.arange(-n // 2, 3 * n // 2)), n)
        force = (1j / grid.hbar) * (upper - lower)
    force[:, -1] = 0.0
    return force


def _apply(values: np.ndarray, symbol: np.ndarray, axis: int) -> np.ndarray:
    """Multiply ``values`` by ``symbol`` in the real Fourier domain of ``axis``."""
    spectrum = np.fft.rfft(values, axis=axis)
    spectrum *= symbol
    return np.fft.irfft(spectrum, n=values.shape[axis], axis=axis)


def moyal_rhs(w: WignerFunction, v: PotentialSpec) -> np.ndarray:
    """Time derivative dW/dt of the distribution under the given potential.

    For quadratic potentials every quantum correction vanishes identically
    and the result is pure classical transport.
    """
    _checked_kind(w, WignerFunction, "distribution")
    transport, force = _moyal_symbols(w.grid, v)
    return _apply(w.values, transport, 0) + _apply(w.values, force, 1)


def propagate(w: WignerFunction, v: PotentialSpec, cfg: EvolutionConfig) -> WignerFunction:
    """Step the distribution forward by ``cfg.n_steps`` steps of ``cfg.dt``.

    Fourth-order split-operator stepping of the operator :func:`moyal_rhs`
    evaluates, by Chin's scheme 4A: a step is ``K(1/6) D(1/2) K~(2/3) D(1/2)
    K(1/6)``, each drift ``D`` and kick ``K`` an exact phase in its own
    Fourier domain, and between checks the closing 1/6 kick merges with the
    next step's opening one.  ``K~`` kicks with ``V - dt^2/(48 m) * V'^2``:
    the weights cancel the ``[T,[T,V]]`` error, and since ``[V,[V,[V,T]]] =
    0`` for ``T = p^2/2m``, the remaining ``[V,[T,V]]``, proportional to
    ``V'^2/m``, depends on q alone and cancels inside that kick.  Each step
    is unitary and conserves mass to rounding, so any ``dt`` is stable: the
    step count sets the accuracy.  Refuses a state of mass above ``1 +
    MASS_TOLERANCE`` or out of band; aborts on mass drift beyond 1e-4, on
    non-finite values, on amplitude blow-up, and where the periodic drift and
    kick would wrap the state: an end amplitude, read off ``rho(end, .)``,
    above ``EDGE_LEVEL``, or a p-marginal edge value above ``P_BAND_LEVEL``.
    """
    return next(_frames(w, v, cfg.dt, cfg.n_steps, cfg.n_steps), w)  # no frame without a step


def _frames(w: WignerFunction, v: PotentialSpec, dt: float, n_steps: int, every: int):
    """:func:`propagate`'s state after every ``every`` steps and the last; phases and abort baselines set once.

    Step numbers count over the run; the 25-step checks restart at each frame, as in chunked ``propagate``.
    """
    initial_mass = _checked_state(w, WignerFunction, "state")
    grid, current = w.grid, w.values
    del w  # the caller's state is not kept for the whole run
    transport, force = _moyal_symbols(grid, v)
    potential = v.polynomial
    gradient = potential - dt**2 / (48.0 * v.mass) * potential.deriv() ** 2
    middle_force = _force_symbol(grid, gradient)  # degree <= 2 exactly when V's is
    half_drift = np.exp(dt / 2.0 * transport)
    kick_middle = np.exp(2.0 * dt / 3.0 * middle_force)
    kick_edge, kick_joined = (np.exp(c * dt * force) for c in (1.0 / 6.0, 1.0 / 3.0))
    del transport, force, middle_force  # only the four phases are needed from here on
    amplitude_cap = 10.0 * max(2.0 / grid.h, float(np.max(np.abs(current))))
    cell = grid.delta_q * grid.delta_p
    m = np.arange(grid.n_points // 2 + 1)
    ends = np.r_[m, grid.n_points - 1 - m], np.r_[m, m]  # [j, m] of the correlations rho(0, .) and rho(n-1, .)
    deferred = False
    for step in range(n_steps):
        current = _apply(current, kick_joined if deferred else kick_edge, 1)
        current = _apply(current, half_drift, 0)
        current = _apply(current, kick_middle, 1)
        current = _apply(current, half_drift, 0)
        frame_end = step % every == every - 1 or step == n_steps - 1
        deferred = not (step % every % 25 == 24 or frame_end)
        if deferred:
            continue
        current = _apply(current, kick_edge, 1)
        peak = float(np.max(np.abs(current)))
        if not np.isfinite(peak) or peak > amplitude_cap:
            raise InvariantViolation(
                f"evolution went unstable at step {step + 1} (peak {peak:.2e})"
            )
        drift = abs(float(current.sum()) * cell - initial_mass)
        if drift > _MASS_DRIFT_ABORT:
            raise InvariantViolation(
                f"mass drift {drift:.2e} at step {step + 1} exceeds 1e-4; aborting"
            )
        q_edge = _edge_ratio(np.fft.rfft(current, axis=1), ends, (slice(None), 0))  # over the largest rho(q, q)
        p_edge = _band_edge(current)
        if q_edge > EDGE_LEVEL or p_edge > P_BAND_LEVEL:
            where = f"amplitude {q_edge:.2e}" if q_edge > EDGE_LEVEL else f"value {p_edge:.2e} of the p-marginal"
            raise InvariantViolation(
                f"edge {where} at step {step + 1}: the state reached the lattice boundary and would wrap around; "
                "enlarge the grid or shorten the run"
            )
        if frame_end:
            yield WignerFunction(grid, _adopt(current))


def split_step_schrodinger(psi: WaveFunction, v: PotentialSpec, cfg: EvolutionConfig) -> WaveFunction:
    """Strang-split kinetic/potential propagator, the wavefunction-side oracle.

    Each half/full factor is an exact phase, so the stepping is
    unconditionally stable and norm-conserving; accuracy is second order in
    the step size.  Aborts at an amplitude at either end above ``EDGE_LEVEL``
    of the peak, the containment rule that the generators apply.  Reads the
    state in position; its squared norm lies within ``MASS_TOLERANCE`` of 1, and it is in band.
    """
    _checked_state(psi, WaveFunction, "state", normalized=True)
    g = psi.grid
    n = g.n_points
    v_values = v.polynomial(g.q)
    half_kick = np.exp(-0.5j * cfg.dt * v_values / g.hbar)
    # internal spectral step on the full-band lattice: the plain FFT pair is
    # exactly unitary, so no mode can grow under repeated application
    momenta = 2.0 * np.pi * g.hbar * np.fft.fftfreq(n, d=g.delta_q)
    drift = np.exp(-1j * cfg.dt * momenta**2 / (2.0 * v.mass * g.hbar))

    values = to_position(psi).values  # the first kick multiplies out of place
    for step in range(cfg.n_steps):
        values = values * half_kick
        values = np.fft.ifft(np.fft.fft(values) * drift)
        values *= half_kick
        if step % 16 == 15 or step == cfg.n_steps - 1:
            if not np.all(np.isfinite(values)):
                raise InvariantViolation(f"wavefunction became non-finite at step {step + 1}")
            if (edge := _edge_ratio(values)) > EDGE_LEVEL:
                raise InvariantViolation(
                    f"edge amplitude {edge:.2e} at step {step + 1}: state reached the "
                    "grid boundary, enlarge the grid or shorten the run"
                )
    return WaveFunction(g, values, POSITION)
