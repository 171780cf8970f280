#!/usr/bin/env python3
"""Count how many single-threshold mutants of wignerlab the test suite kills.

    python scripts/mutants.py

Each mutant in the fixed table below loosens one documented gate of the
library or the CLI (most by 10-1000x) by replacing one piece of text in one
file of ``src/wignerlab``.  It is applied to a fresh temporary copy of the
working tree's ``src/``, and only the test modules mapped to it run against
that copy, with ``-x``.  A mutant is killed when those tests fail and
survives when they pass.  The mapped modules first run once against an
unmutated copy, so a failure there is not counted as a kill.

Prints one line per mutant and the kill count; exits 0 whatever the count.
Stdlib only (pytest runs the tests).  The whole table takes about twenty
minutes on two cores, most of it in the survivors' full runs of
``test_evolution.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: ``(name, file in src/wignerlab, old text, new text, test modules)``; the old text occurs once in the file.
MUTANTS = [
    ("mass drift abort 1e-4 -> 1e-3", "evolution.py",
     "_MASS_DRIFT_ABORT = 1e-4", "_MASS_DRIFT_ABORT = 1e-3", ["test_evolution.py", "test_io_cli.py"]),
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
    ("purity threshold 1 - 1e-6 -> 1 - 1e-3", "wigner.py",
     "PURITY_THRESHOLD = 1.0 - 1e-6", "PURITY_THRESHOLD = 1.0 - 1e-3", ["test_wigner.py"]),
    ("wavefunction norm gate 1e-6 -> 1e-3", "wigner.py",
     "if abs(norm - 1.0) > 1e-6:", "if abs(norm - 1.0) > 1e-3:", ["test_wigner.py"]),
    ("recovery reference 1e-6 -> 1e-9", "wigner.py",
     "MIN_REFERENCE = 1e-6", "MIN_REFERENCE = 1e-9", ["test_wigner.py"]),
    ("self-overlap gate 1 + 1e-6 -> 1 + 1e-3", "blobs.py",
     "if pur > 1.0 + 1e-6:", "if pur > 1.0 + 1e-3:", ["test_blobs.py"]),
    ("spectral power floor 1e-6 -> 1e-7", "blobs.py",
     "SPECTRAL_POWER_FLOOR = 1e-6", "SPECTRAL_POWER_FLOOR = 1e-7", ["test_blobs.py"]),
    ("edge warning level 1e-8 -> 1e-6", "grid.py",
     "EDGE_WARN_LEVEL = 1e-8", "EDGE_WARN_LEVEL = 1e-6", ["test_grid.py", "test_filtering.py"]),
    ("amplitude level 1e-6 -> 1e-5", "grid.py",
     "EDGE_LEVEL = 1e-6", "EDGE_LEVEL = 1e-5", ["test_states.py", "test_evolution.py"]),
    ("p-band level 1e-7 -> 1e-6", "grid.py",
     "P_BAND_LEVEL = 1e-7", "P_BAND_LEVEL = 1e-6", ["test_evolution.py", "test_io_cli.py"]),
    ("lattice-offset tolerance 1e-9 -> 1e-3 of the ratio", "grid.py",
     "1e-9 * max(1.0, abs(ratio))", "1e-3 * max(1.0, abs(ratio))", ["test_grid.py", "test_filtering.py"]),
    ("CLI load gate 1 + 1e-6 -> 1 + 1e-3", "cli.py",
     "if w.mass() > 1.0 + 1e-6:", "if w.mass() > 1.0 + 1e-3:", ["test_io_cli.py"]),
    ("CLI overlap gate 1e-6 -> 1e-3", "cli.py",
     "if abs(w.mass() - 1.0) > 1e-6:", "if abs(w.mass() - 1.0) > 1e-3:", ["test_io_cli.py"]),
]

#: Mutants that no test is expected to kill, and why.
EXPECTED_SURVIVORS = {
    "transport symbol keeps its Nyquist row": (
        "equivalent on band-limited states: their Nyquist row along q is zero to rounding, so the phase "
        "the row gets changes nothing; only a state with content at the q Nyquist frequency tells them apart"
    ),
}


def run_tests(src: Path, modules: list[str]) -> bool:
    """Whether the test modules pass against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{m}" for m in modules)]
    return subprocess.run(argv, cwd=REPO, env=env, capture_output=True).returncode == 0


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
            survived = run_tests(copy, mapped)
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
