"""Command-line frontend.

Subcommands generate states, compute distributions, run filtering and
detection pipelines, evolve states in time, and write the data behind the
standard density-plot figures.  A run that writes files leaves a
``run_manifest.json`` next to them only when it exits 0.  Exit codes:
0 success, 1 numerical-invariant violation, 2 usage or I/O error or out
of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvariantViolation
from .grid import Grid, make_grid, squared_norm
from .wigner import (
    WignerFunction,
    overlap_probability,
    purity,
    uncertainty_product,
    wdf_from_wavefunction,
)
from .states import (
    CatSpec,
    GaussianSpec,
    cat_wavefunction,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
)
from .filtering import detect, filter_wavefunction, filter_wdf
from .evolution import _frames
from .blobs import blob_report
from . import io as wio


#: Traced peak of the largest N x N subcommand, ``evolve``, in 8 N^2-byte matrices, rounded up
#: (10.5 at N=256, 9.4 at N=512); a grid whose budget exceeds MemAvailable is refused.
MEMORY_BUDGET = 11

#: Subcommands that build or load an N x N matrix (``filter`` only with ``--wdf``).
_MATRIX_COMMANDS = {"wdf", "detect", "evolve", "overlap", "blob", "figure"}


def _parse_grid(text: str, hbar: float) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be qmin:qmax:N, got {text!r}")
    return make_grid(float(parts[0]), float(parts[1]), int(parts[2]), hbar=hbar)


def _parse_params(tokens: list[str]) -> dict[str, float]:
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        params[key] = float(value)
    return params


def _pop(params: dict[str, float], key: str, default: float | None = None) -> float:
    if key in params:
        return params.pop(key)
    if default is None:
        raise ValueError(f"missing required parameter {key}=...")
    return default


def _load_state_as_wdf(path: str) -> WignerFunction:
    """Accept a wavefunction CSV or a distribution-matrix CSV; the library readers apply the mass rule."""
    if wio.is_wavefunction_file(path):
        return wdf_from_wavefunction(wio.load_wavefunction(path))
    return wio.load_wigner(path)


def _out_dir(args) -> Path:
    """The ``--out`` directory, made at a command's first write, so a run refused before it leaves none."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# Each _cmd_* writes its files and returns its record (grid, inputs, outputs, payload): ``main``
# writes the manifest of the first three and prints the payload, a dict as one line of JSON.
def _cmd_state(args) -> tuple:
    grid = _parse_grid(args.grid, args.hbar)
    params = _parse_params(args.params)
    if args.gaussian == args.cat:
        raise ValueError("choose exactly one of --gaussian or --cat")
    if args.gaussian:
        spec = GaussianSpec(
            width=_pop(params, "q0"),
            center=_pop(params, "center", 0.0),
            momentum_offset=_pop(params, "p0", 0.0),
        )
        psi = gaussian_wavefunction(spec, grid)
    else:
        psi = cat_wavefunction(CatSpec(width=_pop(params, "qi"), separation=_pop(params, "d")), grid)
    if params:
        raise ValueError(f"unknown parameters: {sorted(params)}")
    written = wio.save_wavefunction(psi, _out_dir(args) / "state.csv")
    return grid, (), written, {"norm": squared_norm(psi), "files": [str(p) for p in written]}


def _cmd_wdf(args) -> tuple:
    w = _load_state_as_wdf(args.input)
    payload = {
        "mass": w.mass(),
        "purity": purity(w),
        "uncertainty_product": uncertainty_product(w),
        "min_value": float(w.values.min()),
    }
    return w.grid, (args.input,), wio.save_wigner(w, _out_dir(args) / "wdf.csv"), payload


def _cmd_filter(args) -> tuple:
    psi = wio.load_wavefunction(args.input)
    spec = wio.load_filter_spec(args.filter, psi.grid)
    filtered, transmitted = filter_wavefunction(psi, spec)
    w_out = filter_wdf(wdf_from_wavefunction(psi), spec) if args.wdf else None  # refused before any write
    written = wio.save_wavefunction(filtered, _out_dir(args) / "filtered.csv")
    if args.wdf:
        written += wio.save_wigner(w_out, _out_dir(args) / "filtered_wdf.csv")
    return psi.grid, (args.input, args.filter), written, {"transmission": transmitted}


def _cmd_detect(args) -> tuple:
    w_in = _load_state_as_wdf(args.state)
    w_m = _load_state_as_wdf(args.device)
    result = detect(w_in, w_m)
    written = wio.save_matrix(result.values, result.grid, _out_dir(args) / "detection.csv")
    payload = {"min": float(result.values.min()), "mass": result.mass()}
    return result.grid, (args.state, args.device), written, payload


def _cmd_evolve(args) -> tuple:
    for flag, value in (("--t", args.t), ("--dt", args.dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    if args.dump_every < 0:
        raise ValueError(f"--dump-every must be nonnegative, got {args.dump_every}")
    if not np.isfinite(args.t / args.dt):
        raise ValueError(f"--t {args.t:g} over --dt {args.dt:g} is not a finite step count")
    w = _load_state_as_wdf(args.input)
    potential = wio.load_potential_spec(args.potential)
    n_steps = max(int(np.ceil(args.t / args.dt - 1e-12)), 1)
    dt = args.t / n_steps
    out_dir = _out_dir(args)  # frames are written while stepping, so the directory is made before it
    written = []
    dump_every = args.dump_every if args.dump_every else n_steps
    finish = list  # the latest frame's write, still to finish; ``list`` finishes nothing
    try:
        for frame, w in enumerate(_frames(w, potential, dt, n_steps, dump_every), 1):
            path = out_dir / f"wdf_{frame:04d}.csv"
            previous, finish = finish, list  # each finish runs once, even when it raises
            written += previous()
            # the next frame's steps overlap this frame's write in a helper; the last frame has no next steps
            last = frame * dump_every >= n_steps
            finish = partial(wio.save_wigner, w, path) if last else wio.start_save_wigner(w, path)
    finally:
        written += finish()  # the last frame, or the frame pending when stepping aborted
    payload = {
        "steps": n_steps,
        "dt": dt,
        "mass": w.mass(),
        "min_value": float(w.values.min()),
        "frames": frame,
    }
    return w.grid, (args.input, args.potential), written, payload


def _cmd_overlap(args) -> tuple:
    w1, w2 = _load_state_as_wdf(args.a), _load_state_as_wdf(args.b)
    return None, (), (), "%.17g" % overlap_probability(w1, w2)


def _cmd_blob(args) -> tuple:
    w = _load_state_as_wdf(args.input)
    report = blob_report(w).to_json()
    report_path = _out_dir(args) / "blob_report.json"
    report_path.write_text(report + "\n")
    return w.grid, (args.input,), (report_path,), report


def _cmd_figure(args) -> tuple:
    grid = _parse_grid(args.grid, args.hbar)
    if args.which == "fig2":
        if args.qi <= args.qm:
            print("warning: the aligned-slit figure expects q_i > q_m", file=sys.stderr)
        state_wdf = gaussian_wdf_closed_form(GaussianSpec(width=args.qi), grid)
        slit_wdf = gaussian_wdf_closed_form(GaussianSpec(width=args.qm), grid)
        written = wio.save_wigner(state_wdf, _out_dir(args) / "fig2_input_wdf.csv")
        written += wio.save_wigner(slit_wdf, _out_dir(args) / "fig2_filter_wdf.csv")
    elif args.which == "fig3":
        cat = cat_wavefunction(CatSpec(width=args.qi, separation=args.d), grid)
        written = wio.save_wigner(wdf_from_wavefunction(cat), _out_dir(args) / "fig3_cat_wdf.csv")
    else:  # fig4
        scan, centers = figure4_scan(args.d, args.qi, args.qm, grid)
        path = _out_dir(args) / "fig4_scan.csv"
        np.savetxt(path, scan, fmt=wio._FMT, delimiter=",")
        meta = {
            "rows": "slit center D",
            "columns": "q",
            "D_values": centers.tolist(),
            "grid": wio._grid_dict(grid),
        }
        meta_path = path.with_suffix(".json")
        wio._write_json(meta_path, meta)
        written = [path, meta_path]
    return grid, (), written, {"files": [str(p) for p in written]}


def figure4_scan(d: float, q_i: float, q_m: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """p = 0 slice of the slit output while the slit center scans the state.

    Returns a matrix ``scan[D_index, q_index]`` over slit centers D covering [-1.5 d, 1.5 d] on the coordinate
    lattice, plus the center values.  Row D is the p = 0 column of the ``coordinate`` law of :func:`filter_wdf`
    for the real Gaussian slit ``s`` sampled here.  As ``s(q - m dq) s(q + m dq) = s(q)^2 exp(-(m dq / q_m)^2)``,
    each row is the slit intensity ``s(q)^2`` times one profile: the state's p = 0 column, offset m so damped.
    """
    cat = cat_wavefunction(CatSpec(width=q_i, separation=d), grid)
    spectrum = np.fft.rfft(wdf_from_wavefunction(cat).values, axis=1)
    centers = grid.q[(grid.q >= -1.5 * d) & (grid.q <= 1.5 * d)]
    m = np.arange(grid.n_points // 2 + 1)
    # irfft at column n/2 (p = 0): offsets 0 and n/2 once, the others twice, signed (-1)^m
    weights = np.r_[1.0, np.full(m[-1] - 1, 2.0), 1.0] * (-1.0) ** m * np.exp(-((m * grid.delta_q / q_m) ** 2))
    profile = spectrum.real @ weights / grid.n_points  # s is real, so only the real part of the spectrum counts
    intensity = np.exp(-(((grid.q - centers[:, None]) / q_m) ** 2)) / (np.sqrt(np.pi) * q_m)
    return intensity * profile, centers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wignerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wignerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_grid=False):
        if with_grid:
            p.add_argument("--grid", default="-12:12:256", help="qmin:qmax:N (use --grid=-12:12:256)")
            p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--out", default=".", help="output directory")

    p_state = sub.add_parser("state", help="generate a wavefunction CSV")
    p_state.add_argument("--gaussian", action="store_true")
    p_state.add_argument("--cat", action="store_true")
    p_state.add_argument("params", nargs="*", help="key=value: q0/center/p0 or d/qi")
    add_common(p_state, with_grid=True)
    p_state.set_defaults(func=_cmd_state)

    p_wdf = sub.add_parser("wdf", help="distribution of a stored state")
    p_wdf.add_argument("input")
    add_common(p_wdf)
    p_wdf.set_defaults(func=_cmd_wdf)

    p_filter = sub.add_parser("filter", help="apply a filter JSON to a state")
    p_filter.add_argument("input")
    p_filter.add_argument("--filter", required=True, help="filter spec JSON")
    p_filter.add_argument("--wdf", action="store_true", help="also write the phase-space output")
    add_common(p_filter)
    p_filter.set_defaults(func=_cmd_filter)

    p_detect = sub.add_parser("detect", help="detector readout of state x device")
    p_detect.add_argument("state")
    p_detect.add_argument("device")
    add_common(p_detect)
    p_detect.set_defaults(func=_cmd_detect)

    p_evolve = sub.add_parser("evolve", help="propagate a state in time")
    p_evolve.add_argument("input")
    p_evolve.add_argument("--potential", required=True, help="potential spec JSON")
    p_evolve.add_argument("--t", type=float, required=True)
    p_evolve.add_argument("--dt", type=float, required=True)
    p_evolve.add_argument("--dump-every", type=int, default=0, help="steps between CSV dumps")
    add_common(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_overlap = sub.add_parser("overlap", help="transition probability of two states")
    p_overlap.add_argument("a")
    p_overlap.add_argument("b")
    p_overlap.set_defaults(func=_cmd_overlap)

    p_blob = sub.add_parser("blob", help="localization diagnostics of a state")
    p_blob.add_argument("input")
    add_common(p_blob)
    p_blob.set_defaults(func=_cmd_blob)

    p_fig = sub.add_parser("figure", help="write the data behind the standard figures")
    p_fig.add_argument("which", choices=["fig2", "fig3", "fig4"])
    p_fig.add_argument("--d", type=float, default=4.0)
    p_fig.add_argument("--qi", type=float, default=None)
    p_fig.add_argument("--qm", type=float, default=None)
    add_common(p_fig, with_grid=True)
    p_fig.set_defaults(func=_cmd_figure)

    return parser


def _mend_grid_tokens(argv: list[str]) -> list[str]:
    """Fold '--grid -12:12:256' into '--grid=-12:12:256' so argparse accepts it."""
    mended = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--grid" and i + 1 < len(argv) and argv[i + 1].startswith("-") and ":" in argv[i + 1]:
            mended.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            mended.append(token)
    return mended


def _lattice_size(args) -> int:
    """N of the run's lattice, from ``--grid`` or from the sidecar of its first input."""
    if hasattr(args, "grid"):
        return _parse_grid(args.grid, args.hbar).n_points
    first = next(getattr(args, name) for name in ("input", "state", "a") if hasattr(args, name))
    return int(wio._read_sidecar(Path(first))["n_points"])


def _available_memory() -> int | None:
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError, IndexError):
        return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_mend_grid_tokens(list(argv)))
    if args.command == "figure":
        if args.qi is None:
            args.qi = 1.5 if args.which == "fig2" else 1.0
        if args.qm is None:
            args.qm = 0.75 if args.which == "fig2" else args.qi
    try:
        if args.command in _MATRIX_COMMANDS or getattr(args, "wdf", False):
            available = _available_memory()
            if available is not None and MEMORY_BUDGET * 8 * _lattice_size(args) ** 2 > available:
                raise MemoryError
        grid, inputs, outputs, payload = args.func(args)
        if grid is not None:  # overlap writes no files, so no manifest
            command = f"figure:{args.which}" if args.command == "figure" else args.command
            wio.write_manifest(args.out, command, grid, inputs, outputs)
        print(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True))
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory at N={_lattice_size(args)}; use a smaller grid", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
