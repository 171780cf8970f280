#!/usr/bin/env python3
"""Rigid rotation of an offset packet in a harmonic well, step by step.

The phase-space distribution of a displaced unit-width packet rotates
about the origin without changing shape; the two-point Moyal kick of a
quadratic potential equals its classical force term, so the transport is
exactly classical.  Prints the tracked center (<q>, <p>) against the analytic
circle and the worst deviation over one quarter period.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wignerlab import (
    EvolutionConfig,
    GaussianSpec,
    PotentialSpec,
    expectation,
    gaussian_wavefunction,
    make_grid,
    propagate,
    wdf_from_wavefunction,
)


def run(amplitude: float, frames: int, steps_per_frame: int) -> int:
    grid = make_grid(-12, 12, 256)
    harmonic = PotentialSpec(coefficients=(0.0, 0.0, 0.5), mass=1.0)
    w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0, center=amplitude), grid))
    total_angle = np.pi / 2
    dt = total_angle / (frames * steps_per_frame)
    print(f"{'t':>8} {'<q>':>10} {'<p>':>10} {'q_exact':>10} {'p_exact':>10}")
    worst = 0.0
    for frame in range(1, frames + 1):
        w = propagate(w, harmonic, EvolutionConfig(dt=dt, n_steps=steps_per_frame))
        t = frame * steps_per_frame * dt
        mean_q = expectation(w, lambda q, p: q)
        mean_p = expectation(w, lambda q, p: p)
        exact_q = amplitude * np.cos(t)
        exact_p = -amplitude * np.sin(t)
        worst = max(worst, abs(mean_q - exact_q), abs(mean_p - exact_p))
        print(f"{t:8.4f} {mean_q:10.6f} {mean_p:10.6f} {exact_q:10.6f} {exact_p:10.6f}")
    print(f"worst center deviation over the quarter period: {worst:.3e}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amplitude", type=float, default=2.0)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--steps-per-frame", type=int, default=100)
    args = parser.parse_args()
    sys.exit(run(args.amplitude, args.frames, args.steps_per_frame))
