#!/usr/bin/env python3
"""Count how many single-threshold mutants of wignerlab the test suite kills.

    python scripts/mutants.py

Each mutant in the fixed table below loosens one documented gate of the
library (most by 10-1000x), drops one check or one term, or moves one index
or scale of a lattice kernel, by replacing one piece of text in one file of
``src/wignerlab``.  It is applied to a fresh temporary copy of the working
tree's ``src/``, and only the test modules mapped to it run against that copy,
with ``-x``: first without the slow admitted-packet evolutions, which then run
only for a mutant the rest does not kill.  A mutant is killed when those
tests fail and survives when they pass.  The mapped modules first run once,
whole, against an unmutated copy, so a failure there is not counted as a kill.

Prints one line per mutant and the kill count; exits 0 whatever the count.
Stdlib only (pytest runs the tests).  The whole table takes about ten minutes
on two cores, most of it in the whole unmutated run and in the admitted-packet
evolutions of the one survivor that maps ``test_evolution.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The ``-k`` expression of the slow tests, run last for each mutant.
SLOW = "admitted_packets"

#: ``(name, file in src/wignerlab, old text, new text, test modules)``; the old text occurs once in the file.
MUTANTS = [
    ("mass drift abort 1e-4 -> 1e-3", "evolution.py",
     "_MASS_DRIFT_ABORT = 1e-4", "_MASS_DRIFT_ABORT = 1e-3", ["test_evolution.py"]),
    ("split-step edge abort 1e-6 -> 1e-3", "evolution.py",
     "_edge_ratio(values)) > EDGE_LEVEL:", "_edge_ratio(values)) > 1e3 * EDGE_LEVEL:", ["test_evolution.py"]),
    ("amplitude cap 10x -> 100x", "evolution.py",
     "amplitude_cap = 10.0 *", "amplitude_cap = 100.0 *", ["test_evolution.py", "test_io_cli.py"]),
    ("amplitude cap floor 2/h -> 0", "evolution.py",
     "max(2.0 / grid.h, ", "max(0.0, ", ["test_evolution.py", "test_io_cli.py"]),
    ("check schedule every 25 -> every 50 steps", "evolution.py",
     "step % every % 25 == 24", "step % every % 50 == 49", ["test_evolution.py", "test_io_cli.py"]),
    ("transport symbol keeps its Nyquist row", "evolution.py",
     "    ikq[-1] = 0.0\n", "", ["test_evolution.py", "test_io_cli.py"]),
    ("zero transmission 1e-20 -> 1e-30", "filtering.py",
     "ZERO_TRANSMISSION = 1e-20", "ZERO_TRANSMISSION = 1e-30", ["test_filtering.py"]),
    ("support threshold 1e-4 -> 1e-3", "filtering.py",
     "SUPPORT_THRESHOLD = 1e-4", "SUPPORT_THRESHOLD = 1e-3", ["test_filtering.py"]),
    ("overlap threshold 1e-3 -> 1e-2", "filtering.py",
     "OVERLAP_THRESHOLD = 1e-3", "OVERLAP_THRESHOLD = 1e-2", ["test_filtering.py"]),
    ("detection map floor -1e-12 -> -1e-9", "filtering.py",
     "if low < -1e-12:", "if low < -1e-9:", ["test_filtering.py"]),
    ("Hermitian gate 1e-12 -> 1e-9", "wigner.py",
     "if deviation > 1e-12:", "if deviation > 1e-9:", ["test_wigner.py"]),
    ("trace gate 1e-10 -> 1e-7", "wigner.py",
     "if abs(trace - 1.0) > 1e-10:", "if abs(trace - 1.0) > 1e-7:", ["test_wigner.py"]),
    ("mass tolerance 1e-6 -> 1e-5", "wigner.py",
     "MASS_TOLERANCE = 1e-6", "MASS_TOLERANCE = 1e-5", ["test_wigner.py", "test_blobs.py"]),
    ("filter_wdf drops its state check", "filtering.py",
     '    _checked_state(w_in, WignerFunction, "state")\n    g = w_in.grid\n    axis', "    g = w_in.grid\n    axis",
     ["test_wigner.py"]),
    ("detect drops the state's check", "filtering.py",
     '    _checked_state(w_in, WignerFunction, "state")\n    _checked_state(w_m', "    _checked_state(w_m",
     ["test_wigner.py"]),
    ("detect drops the device's check", "filtering.py",
     '    _checked_state(w_m, WignerFunction, "device", on=(w_in, "state"))\n', "", ["test_wigner.py"]),
    ("the propagator drops its state check", "evolution.py",
     '_checked_state(w, WignerFunction, "state")', "w.mass()", ["test_wigner.py"]),
    ("uncertainty_product drops its state check", "wigner.py",
     'mass = _checked_state(w, WignerFunction, "distribution")\n    g = w.grid\n    var_q',
     "mass = w.mass()\n    g = w.grid\n    var_q", ["test_wigner.py"]),
    ("purity drops its state check", "wigner.py",
     'return _purity(w, _checked_state(w, WignerFunction, "distribution"))', "return _purity(w, w.mass())",
     ["test_wigner.py"]),
    ("overlap_probability drops the first state check", "wigner.py",
     '    _checked_state(w1, WignerFunction, "first distribution", normalized=True)\n', "", ["test_wigner.py"]),
    ("overlap_probability drops the second state check", "wigner.py",
     '    _checked_state(w2, WignerFunction, "second distribution", normalized=True, on=(w1, "first distribution"))\n',
     "", ["test_wigner.py"]),
    ("recover_wavefunction drops its state check", "wigner.py",
     'pur = _purity(w, _checked_state(w, WignerFunction, "distribution", normalized=True))',
     "pur = _purity(w, w.mass())", ["test_wigner.py"]),
    ("effective_area drops its state check", "blobs.py",
     'pur = _purity(w, _checked_state(w, WignerFunction, "distribution", normalized=True))',
     "pur = _purity(w, w.mass())", ["test_wigner.py", "test_blobs.py"]),
    ("wdf_from_wavefunction drops its state check", "wigner.py",
     '    _checked_state(psi, WaveFunction, "state", normalized=True)\n    return', "    return", ["test_wigner.py"]),
    ("mixed_density drops its state check", "wigner.py",
     '        _checked_state(s, WaveFunction, f"state {i} of the mixture", normalized=True, on=first)\n', "",
     ["test_wigner.py"]),
    ("filter_wavefunction drops its state check", "filtering.py",
     '    _checked_state(psi_in, WaveFunction, "state", normalized=True)\n    g = psi_in.grid\n    axis',
     "    g = psi_in.grid\n    axis",
     ["test_wigner.py"]),
    ("detect_from_wavefunctions drops the state's check", "filtering.py",
     '    _checked_state(psi_in, WaveFunction, "state", normalized=True)\n    _checked_state(psi_m',
     "    _checked_state(psi_m",
     ["test_wigner.py"]),
    ("detect_from_wavefunctions drops the device's check", "filtering.py",
     '    _checked_state(psi_m, WaveFunction, "device", on=(psi_in, "state"))\n', "", ["test_wigner.py"]),
    ("split_step_schrodinger drops its state check", "evolution.py",
     '    _checked_state(psi, WaveFunction, "state", normalized=True)\n', "", ["test_wigner.py"]),
    ("negative-variance refusal 0 -> -1", "wigner.py",
     "if var_q < 0 or var_p < 0:", "if var_q < -1 or var_p < -1:", ["test_wigner.py"]),
    ("recovery reference 1e-6 -> 1e-9", "wigner.py",
     "MIN_REFERENCE = 1e-6", "MIN_REFERENCE = 1e-9", ["test_wigner.py"]),
    ("spectral power floor 1e-6 -> 1e-7", "blobs.py",
     "SPECTRAL_POWER_FLOOR = 1e-6", "SPECTRAL_POWER_FLOOR = 1e-7", ["test_blobs.py"]),
    ("amplitude level 1e-6 -> 1e-5", "grid.py",
     "EDGE_LEVEL = 1e-6", "EDGE_LEVEL = 1e-5", ["test_states.py", "test_evolution.py"]),
    ("p-band level 1e-7 -> 1e-6", "grid.py",
     "P_BAND_LEVEL = 1e-7", "P_BAND_LEVEL = 1e-6", ["test_evolution.py", "test_io_cli.py", "test_wigner.py"]),
    ("the state check drops its band test for wavefunctions", "wigner.py",
     "else w.values)) > P_BAND_LEVEL:", "else w.values)) > P_BAND_LEVEL and not isinstance(w, WaveFunction):",
     ["test_wigner.py"]),
    ("the state check drops its band test for distributions", "wigner.py",
     "else w.values)) > P_BAND_LEVEL:", "else w.values)) > P_BAND_LEVEL and isinstance(w, WaveFunction):",
     ["test_wigner.py"]),
    ("the band measure reads the band ends only, not the samples' second band", "wigner.py",
     "np.r_[0, n - 1:len(density)]", "[0, n - 1]", ["test_wigner.py"]),
    ("band reading without folding", "wigner.py", "        density[:n] += density[n:]", "        pass",
     ["test_wigner.py"]),
    ("the state check admits the other kind", "wigner.py", "    _checked_kind(w, kind, name, on)\n", "",
     ["test_wigner.py"]),
    ("smoothed_minimum drops its kind check", "blobs.py",
     '    _checked_kind(w, WignerFunction, "distribution")\n    sigma_q', "    sigma_q", ["test_wigner.py"]),
    ("FilterSpec drops its device kind check", "filtering.py",
     '        _checked_kind(self.device, WaveFunction, "device")\n', "", ["test_wigner.py"]),
    ("the kind rule drops its grid clause", "errors.py",
     "if on is not None and w.grid != on[0].grid:", "if False:", ["test_refusals.py"]),
    ("the sidecar's kind is not read", "io.py",
     'found = "matrix" if meta.get("representation") is None else "wavefunction"', "found = kind",
     ["test_refusals.py", "test_io_cli.py"]),
    ("the number rule admits non-finite values", "errors.py",
     " and abs(v) <= sys.float_info.max", "", ["test_refusals.py"]),
    ("the number rule admits bools", "errors.py", " and not isinstance(v, bool)", "", ["test_refusals.py"]),
    ("_count admits fractions", "errors.py", "(x := _finite(name, v)).is_integer()", "(x := _finite(name, v))",
     ["test_refusals.py"]),
    ("lattice-offset tolerance 1e-9 -> 1e-3 of the ratio", "grid.py",
     "1e-9 * max(1.0, abs(ratio))", "1e-3 * max(1.0, abs(ratio))", ["test_grid.py", "test_filtering.py"]),
    ("_pair_views reads the lower row one cell late", "grid.py",
     "return windows[:n, ::-1], windows", "return windows[1:n + 1, ::-1], windows",
     ["test_grid.py", "test_wigner.py"]),
    ("_shifted moves the other way", "grid.py",
     "np.moveaxis(out, axis, 0)[lo:n - hi] = np.moveaxis(values, axis, 0)[hi:n - lo]",
     "np.moveaxis(out, axis, 0)[hi:n - lo] = np.moveaxis(values, axis, 0)[lo:n - hi]",
     ["test_grid.py", "test_filtering.py"]),
    ("_linear_convolution keeps its window one cell late", "grid.py",
     "[start:start + n]", "[start + 1:start + 1 + n]", ["test_grid.py", "test_filtering.py"]),
    ("_half_dft takes the conjugate quarter phases", "grid.py",
     "np.fft.fft(values * _quarter_phases(n), 2 * n)", "np.fft.fft(values * np.conj(_quarter_phases(n)), 2 * n)",
     ["test_grid.py", "test_filtering.py"]),
    ("fourier_transform keeps the band beyond the lattice's", "grid.py",
     "_half_dft(psi.values)[:g.n_points]", "_half_dft(psi.values)[g.n_points:]", ["test_grid.py"]),
    ("detect_from_wavefunctions keeps the band beyond the lattice's", "filtering.py",
     "_half_dft(toeplitz[rows] * a)[:, :n]", "_half_dft(toeplitz[rows] * a)[:, n:]", ["test_filtering.py"]),
    ("the band measure reads the lattice's band of the samples only", "wigner.py",
     "np.abs(_half_dft(values)) ** 2", "np.abs(_half_dft(values)[:n]) ** 2", ["test_wigner.py"]),
    ("smoothed_minimum drops its transpose between passes", "blobs.py",
     "n // 2).T", "n // 2)", ["test_blobs.py"]),
    ("_transform_correlation scale 2 dq/h -> dq/h", "wigner.py",
     "out *= 2.0 * grid.delta_q / grid.h", "out *= grid.delta_q / grid.h", ["test_wigner.py"]),
    ("_load_matrix splits one row late", "io.py",
     "rows = _strict_loadtxt(csv_path, n // 2, None)", "rows = _strict_loadtxt(csv_path, n // 2 + 1, None)",
     ["test_io_cli.py"]),
    # regression rows: each was killed when first run, and is kept so that it stays killed
    ("the force-gradient term dropped", "evolution.py",
     "gradient = potential - dt**2 / (48.0 * v.mass) * potential.deriv() ** 2", "gradient = potential",
     ["test_evolution.py"]),
    ("the force-gradient term 48 -> 24", "evolution.py", "(48.0 * v.mass)", "(24.0 * v.mass)", ["test_evolution.py"]),
    ("the joined kick 1/3 -> 1/6", "evolution.py",
     "(1.0 / 6.0, 1.0 / 3.0)", "(1.0 / 6.0, 1.0 / 6.0)", ["test_evolution.py"]),
    ("the force symbol keeps its Nyquist column", "evolution.py", "    force[:, -1] = 0.0\n", "", ["test_evolution.py"]),
    ("the upsampler keeps its Nyquist row whole", "wigner.py",
     "    spectrum[n // 2] *= 0.5  # the Nyquist row is split between its two images\n", "", ["test_wigner.py"]),
    ("the Hermitian gate compares without the conjugate", "wigner.py",
     "entries[:, rows].T.conj()", "entries[:, rows].T", ["test_wigner.py"]),
    ("the mixture drops its nonnegative-weight check", "wigner.py",
     "np.isfinite(w) and w >= 0 for w", "np.isfinite(w) for w", ["test_wigner.py"]),
    ("the smoothing kernel unnormalized", "blobs.py", "kernel / kernel.sum()", "kernel", ["test_blobs.py"]),
    ("the fit rule drops its centre-in-range test", "states.py",
     "ends[0] <= c <= ends[1] and edge <= EDGE_LEVEL", "edge <= EDGE_LEVEL", ["test_states.py"]),
    ("origin_index tolerance 1e-9 -> 0.4 of a cell", "grid.py",
     "> 1e-9 * self.delta_q", "> 0.4 * self.delta_q", ["test_grid.py"]),
    ("the detection-map floor reads the first row only", "filtering.py",
     "low = float(self.values.min())", "low = float(self.values[0].min())", ["test_filtering.py"]),
    ("DetectionMap drops its nonnegativity floor", "filtering.py",
     "        if low < -1e-12:\n            raise InvariantViolation(\n"
     "                f\"detection map has negative values down to {low:.2e}\"\n            )\n", "",
     ["test_filtering.py"]),
    ("the lattice-matrix mass drops delta_p", "wigner.py",
     "* self.grid.delta_q * self.grid.delta_p)", "* self.grid.delta_q)", ["test_wigner.py", "test_filtering.py"]),
    ("blob_report reads w before its check", "blobs.py",
     "    area = effective_area(w)  # checks w before it is read\n    sigma_q = float(np.sqrt(w.grid.hbar / 2.0))\n",
     "    sigma_q = float(np.sqrt(w.grid.hbar / 2.0))\n    area = effective_area(w)\n", ["test_wigner.py"]),
    ("the split loader drops its column check", "io.py",
     '        if rows.shape[1] != n:  # a one-column tail would broadcast; more rows than n fail to fit\n'
     '            raise ValueError("not the tail of an n x n matrix")\n', "", ["test_io_cli.py"]),
    ("the sidecar's grid drops its integrality check (_count -> _finite)", "grid.py",
     "n_points=_count", "n_points=_finite", ["test_io_cli.py"]),
    ("MEMORY_BUDGET 11 -> 2", "cli.py", "MEMORY_BUDGET = 11", "MEMORY_BUDGET = 2", ["test_io_cli.py"]),
]

#: Mutants that no test is expected to kill, and why.
EXPECTED_SURVIVORS = {
    "transport symbol keeps its Nyquist row": (
        "equivalent on band-limited states: their Nyquist row along q is zero to rounding, so the phase "
        "the row gets changes nothing; only a state with content at the q Nyquist frequency tells them apart"
    ),
}


def run_tests(src: Path, modules: list[str], select: str | None = None) -> bool:
    """Whether the test modules pass against the package in ``src``, only the tests ``-k select`` picks if given.

    A selection that picks no test (pytest's exit code 5) passes.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{m}" for m in modules)]
    code = subprocess.run(argv + (["-k", select] if select else []), cwd=REPO, env=env, capture_output=True).returncode
    return code in (0, 5)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="wignerlab-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(REPO / "src", clean)
        modules = sorted({m for *_, mapped in MUTANTS for m in mapped})
        if not run_tests(clean, modules):
            print(f"the unmutated source fails {' '.join(modules)}; no mutant can be judged")
            return 2
        killed = 0
        for index, (name, file, old, new, mapped) in enumerate(MUTANTS):
            copy = Path(tmp) / f"m{index}"
            shutil.copytree(clean, copy)
            path = copy / "wignerlab" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the text {old!r} does not occur exactly once in {file}")
                return 2
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            # the admitted-packet evolutions take minutes, so they run only for a mutant the rest does not kill
            survived = run_tests(copy, mapped, f"not {SLOW}") and run_tests(copy, mapped, SLOW)
            killed += not survived
            status = "survived" if survived else "killed"
            if name in EXPECTED_SURVIVORS:
                status += f" (expected: {EXPECTED_SURVIVORS[name]})"
            print(f"{file:<13} {name}: {status} [{time.perf_counter() - start:.0f} s]", flush=True)
            shutil.rmtree(copy)
    print(f"{killed} of {len(MUTANTS)} mutants killed, {len(MUTANTS) - killed} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
