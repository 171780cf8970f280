#!/usr/bin/env python3
"""Check that two revisions of wignerlab run the CLI byte-identically.

    python scripts/identity.py REV_A REV_B

Each revision's ``src/`` is exported with ``git archive`` into a temporary
directory.  One fixed table of ``wignerlab`` commands, on the lattice -12:12:N
and on the off-centre -9:15:N, then runs against each export, after a snippet
that writes two state files the generators refuse (``_RAW_STATES``), every
command in a fresh Python process, at N=256 and N=1024, once with ``os.fork``
present and once with it removed (so the serial path of the split CSV reader
and writer runs too).  A command matches when its exit code,
stdout, stderr and the sha256 of every file in its output directory agree.

Prints one line per command and a summary line; exits 1 on any difference.
Stdlib and git only (the snippet, like the CLI, imports numpy from the export's
environment).  To check uncommitted changes to tracked files, pass
``$(git stash create)`` as a revision.
"""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Runs the CLI in a fresh process; the first argument says whether ``os.fork`` stays.  A warning prints as its
#: category and message only: its source file and line differ between the two exports.
_LAUNCH = (
    "import os, sys, warnings\n"
    "warnings.formatwarning = lambda message, category, *_: f'{category.__name__}: {message}\\n'\n"
    "if sys.argv[1] == 'nofork':\n"
    "    del os.fork\n"
    "from wignerlab.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)

#: Writes two width-1 Gaussians on -12:12:N that the generators refuse, run against each export as the commands are:
#: ``kicked.csv``, kicked to 1.2 times the lattice's last p, beyond the band a distribution on the lattice holds, and
#: ``edge.csv``, centred at q = 8.9, 1.1e-2 of its peak at the q end, whose band reading at N=256 (1.2e-7) lies just
#: above the band rule, so a change of how a state reads its band shows in the table.
_RAW_STATES = (
    "import sys, numpy as np\n"
    "from wignerlab import WaveFunction, io, make_grid, normalize\n"
    "g = make_grid(-12, 12, int(sys.argv[1]))\n"
    "values = np.exp(-g.q**2 / 2 + 1.2j * g.p[-1] * g.q / g.hbar) / np.pi**0.25\n"
    "io.save_wavefunction(WaveFunction(g, values), 'kicked.csv')\n"
    "io.save_wavefunction(normalize(WaveFunction(g, np.exp(-(g.q - 8.9)**2 / 2))), 'edge.csv')\n"
)

_DEVICE = {"gaussian": {"width": 0.8, "center": 1.0}}
_INPUTS = {
    "slit.json": {"kind": "coordinate", "device": {"gaussian": {"width": 1.0, "center": 0.5}}},
    "momentum.json": {"kind": "momentum", "device": _DEVICE},
    # on -12:12 and -9:15 the offsets sit on both lattices: pi/8 is 3 cells of p, 0.75 is 8 cells of q at N=256, 32
    # at N=1024
    "general_coordinate.json": {"kind": "general_coordinate", "p_offset": math.pi / 8, "device": _DEVICE},
    "general_momentum.json": {"kind": "general_momentum", "q_offset": 0.75, "device": _DEVICE},
    "well.json": {"coefficients": [0, 0, 0.5, 0, 0.01]},
    "harmonic.json": {"coefficients": [0, 0, 0.5]},
    "matrix_device.json": {"kind": "coordinate", "device": "wd/wdf.csv"},  # a matrix file where a wavefunction goes
}


def command_table(n: int) -> list[tuple[str, list[str]]]:
    """``(output directory or "", argv)`` for every command, in run order; later ones read earlier outputs."""
    grid = f"--grid=-12:12:{n}"
    table = [
        ("s", ["state", "--gaussian", "q0=1.5", "center=0.5", "p0=0.5", grid]),
        ("c", ["state", "--cat", "d=4", "qi=1", grid]),
        ("d", ["state", "--gaussian", "q0=0.8", "center=1", grid]),
        ("s6", ["state", "--gaussian", "q0=1", "center=6", grid]),  # admitted: 6 is within the fit limit 6.65
        ("w", ["wdf", "s/state.csv"]),
        ("wc", ["wdf", "c/state.csv"]),
        ("wd", ["wdf", "d/state.csv"]),
        ("wk", ["wdf", "kicked.csv"]),  # beyond the band: exits 1 and leaves no directory
        ("we", ["wdf", "edge.csv"]),
        ("fe", ["filter", "edge.csv", "--filter", "slit.json"]),
        ("f", ["filter", "s/state.csv", "--filter", "slit.json", "--wdf"]),
        ("fm", ["filter", "s/state.csv", "--filter", "momentum.json", "--wdf"]),
        ("fgc", ["filter", "s/state.csv", "--filter", "general_coordinate.json", "--wdf"]),
        ("fgm", ["filter", "s/state.csv", "--filter", "general_momentum.json", "--wdf"]),
        ("wf", ["wdf", "f/filtered_wdf.csv"]),  # a filter output: mass below 1, the state it carries read whole
        ("det", ["detect", "w/wdf.csv", "wd/wdf.csv"]),
        ("", ["overlap", "w/wdf.csv", "wc/wdf.csv"]),
        ("", ["overlap", "w/wdf.csv", "f/filtered_wdf.csv"]),  # mass below 1: exits 1
        ("b", ["blob", "wc/wdf.csv"]),
    ]
    off = f"--grid=-9:15:{n}"  # q = 0 at index 3N/8, so the convolution windows start away from N/2
    table += [
        ("os", ["state", "--gaussian", "q0=1.5", "center=0.5", "p0=0.5", off]),
        ("oc", ["state", "--cat", "d=3", "qi=1", off]),  # d=4 puts a hump too near q_min to fit
        ("od", ["state", "--gaussian", "q0=0.8", "center=1", off]),
        ("ow", ["wdf", "os/state.csv"]),
        ("owc", ["wdf", "oc/state.csv"]),
        ("owd", ["wdf", "od/state.csv"]),
        ("ofm", ["filter", "os/state.csv", "--filter", "momentum.json", "--wdf"]),
        ("ofgc", ["filter", "os/state.csv", "--filter", "general_coordinate.json", "--wdf"]),
        ("odet", ["detect", "ow/wdf.csv", "owd/wdf.csv"]),
        ("ob", ["blob", "owc/wdf.csv"]),
    ]
    table += [(which, ["figure", which, grid]) for which in ("fig2", "fig3", "fig4")]
    # a slit narrower than the state it scans (q_m != q_i)
    table.append(("fig4n", ["figure", "fig4", "--d", "3", "--qi", "0.8", "--qm", "0.5", grid]))
    for every in (0, 1, 7, 30, 50):  # 50 steps of the quartic well
        argv = ["evolve", "s/state.csv", "--potential", "well.json", "--t", "0.05", "--dt", "1e-3"]
        table.append((f"e{every}", argv + ["--dump-every", str(every)]))
    table.append(("e6", ["evolve", "s6/state.csv", "--potential", "harmonic.json", "--t", "0.05", "--dt", "1e-3"]))
    table += [  # refusals: each exits 2 and leaves no directory
        ("rc", ["state", "--cat", "d=2", "qi=0.05", grid]),
        ("rg", ["state", "--gaussian", "q0=1e-200", grid]),
        ("r3", ["figure", "fig3", "--d", "2", "--qi", "0.05", grid]),
        ("re", ["evolve", "s/state.csv", "--potential", "well.json", "--t", "1e300", "--dt", "1e-10"]),
        ("rn", ["state", "--gaussian", "q0=1", f"{grid}.5"]),  # a fractional N
        ("rdt", ["evolve", "s/state.csv", "--potential", "well.json", "--t", "0.01", "--dt", "inf"]),
        ("rfw", ["filter", "w/wdf.csv", "--filter", "slit.json"]),  # a matrix file as the filter input
        ("rfd", ["filter", "s/state.csv", "--filter", "matrix_device.json"]),  # and as the filter device
        ("rdw", ["wdf", "det/detection.csv"]),  # a detector readout where a state goes
        ("rdd", ["detect", "w/wdf.csv", "det/detection.csv"]),  # and as the device
    ]
    return [(out, argv + ["--out", out] if out else argv) for out, argv in table]


def export(rev: str, dest: Path) -> str:
    """Extract ``src/`` of ``rev`` into ``dest``; the revision's short hash."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", sha, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha


def run_table(src: Path, work: Path, n: int, fork: str) -> list[tuple]:
    """Run the table in ``work``; per command its exit code, stdout, stderr and output hashes."""
    work.mkdir(parents=True)
    for name, spec in _INPUTS.items():
        (work / name).write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", _RAW_STATES, str(n)], cwd=work, env=env, check=True)
    results = []
    for out, argv in command_table(n):
        done = subprocess.run([sys.executable, "-c", _LAUNCH, fork, *argv], cwd=work, env=env, capture_output=True)
        files = sorted(p for p in (work / out).rglob("*") if p.is_file()) if out else []
        hashes = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        results.append((done.returncode, done.stdout, done.stderr, hashes))
    return results


def differences(a: tuple, b: tuple) -> list[str]:
    named = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
    return named + [f"sha256 of {path}" for path in sorted(set(a[3]) | set(b[3])) if a[3].get(path) != b[3].get(path)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="wignerlab-identity-") as tmp:
        root = Path(tmp)
        shas = [export(rev, root / side) for rev, side in ((args.rev_a, "a"), (args.rev_b, "b"))]
        total = differing = 0
        for n in (256, 1024):
            for fork in ("fork", "nofork"):
                runs = [run_table(root / side / "src", root / f"{side}-{n}-{fork}", n, fork) for side in "ab"]
                for (_, argv), a, b in zip(command_table(n), *runs):
                    diff = differences(a, b)
                    total, differing = total + 1, differing + bool(diff)
                    status = f"DIFFERS ({', '.join(diff)})" if diff else f"identical (exit {a[0]})"
                    print(f"N={n:<5} {fork:<7} wignerlab {' '.join(argv)}: {status}", flush=True)
    print(f"{shas[0]}..{shas[1]}: {total - differing} of {total} commands identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
