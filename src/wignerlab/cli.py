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
from .errors import InvariantViolation, _count, _positive
from .grid import Grid, WaveFunction, make_grid, squared_norm
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

#: The kinds of file a state input takes; a wavefunction file is read as the distribution of its state.
_STATE = ("wavefunction", "matrix")


def _parse_grid(text: str, hbar: float) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be qmin:qmax:N, got {text!r}")
    return make_grid(float(parts[0]), float(parts[1]), float(parts[2]), hbar=hbar)


def _parse_params(tokens: list[str]) -> dict[str, float]:
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in params:
            raise ValueError(f"parameter {key} given twice")
        params[key] = float(value)
    return params


def _pop(params: dict[str, float], key: str, default: float | None = None) -> float:
    if key in params:
        return params.pop(key)
    if default is None:
        raise ValueError(f"missing required parameter {key}=...")
    return default


def _as_wdf(state: WaveFunction | WignerFunction) -> WignerFunction:
    """The distribution of a loaded state; the library readers apply the mass rule."""
    return wdf_from_wavefunction(state) if isinstance(state, WaveFunction) else state


def _out_dir(args) -> Path:
    """The ``--out`` directory, made at a command's first write, so a run refused before it leaves none."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# A _cmd_* runs once ``main`` has set ``args.grid`` to the run's Grid and read each declared input's sidecar; it loads
# an input with ``args.load(name)``.  It writes its files and returns (inputs, outputs, payload): ``main`` writes the
# manifest of the first two on that grid, if there are outputs, and prints the payload, a dict as one line of JSON.
def _cmd_state(args) -> tuple:
    params = _parse_params(args.params)
    if args.gaussian == args.cat:
        raise ValueError("choose exactly one of --gaussian or --cat")
    if args.gaussian:
        spec = GaussianSpec(
            width=_pop(params, "q0"),
            center=_pop(params, "center", 0.0),
            momentum_offset=_pop(params, "p0", 0.0),
        )
        psi = gaussian_wavefunction(spec, args.grid)
    else:
        psi = cat_wavefunction(CatSpec(width=_pop(params, "qi"), separation=_pop(params, "d")), args.grid)
    if params:
        raise ValueError(f"unknown parameters: {sorted(params)}")
    written = wio.save_wavefunction(psi, _out_dir(args) / "state.csv")
    return (), written, {"norm": squared_norm(psi), "files": [str(p) for p in written]}


def _cmd_wdf(args) -> tuple:
    w = _as_wdf(args.load("input"))
    payload = {
        "mass": w.mass(),
        "purity": purity(w),
        "uncertainty_product": uncertainty_product(w),
        "min_value": float(w.values.min()),
    }
    return (args.input,), wio.save_matrix(w, _out_dir(args) / "wdf.csv"), payload


def _cmd_filter(args) -> tuple:
    psi = args.load("input")
    spec = wio.load_filter_spec(args.filter, psi.grid)
    filtered, transmitted = filter_wavefunction(psi, spec)
    w_out = filter_wdf(wdf_from_wavefunction(psi), spec) if args.wdf else None  # refused before any write
    written = wio.save_wavefunction(filtered, _out_dir(args) / "filtered.csv")
    if args.wdf:
        written += wio.save_matrix(w_out, _out_dir(args) / "filtered_wdf.csv")
    return (args.input, args.filter), written, {"transmission": transmitted}


def _cmd_detect(args) -> tuple:
    result = detect(_as_wdf(args.load("state")), _as_wdf(args.load("device")))
    written = wio.save_matrix(result, _out_dir(args) / "detection.csv")
    payload = {"min": float(result.values.min()), "mass": result.mass()}
    return (args.state, args.device), written, payload


def _cmd_evolve(args) -> tuple:
    t, dt, dump_every = _positive("--t", args.t), _positive("--dt", args.dt), _count("--dump-every", args.dump_every)
    if dump_every < 0:
        raise ValueError(f"--dump-every must be nonnegative, got {dump_every}")
    if not np.isfinite(t / dt):
        raise ValueError(f"--t {t:g} over --dt {dt:g} is not a finite step count")
    w = _as_wdf(args.load("input"))
    potential = wio.load_potential_spec(args.potential)
    n_steps = max(int(np.ceil(t / dt - 1e-12)), 1)
    dt = t / n_steps
    written = []
    dump_every = dump_every or n_steps
    finish = list  # the latest frame's write, still to finish; ``list`` finishes nothing
    try:
        for frame, w in enumerate(_frames(w, potential, dt, n_steps, dump_every), 1):
            path = _out_dir(args) / f"wdf_{frame:04d}.csv"
            previous, finish = finish, list  # each finish runs once, even when it raises
            written += previous()
            # the next frame's steps overlap this frame's write in a helper; the last frame has no next steps
            last = frame * dump_every >= n_steps
            finish = partial(wio.save_matrix, w, path) if last else wio.start_save_wigner(w, path)
    finally:
        written += finish()  # the last frame, or the frame pending when stepping aborted
    payload = {
        "steps": n_steps,
        "dt": dt,
        "mass": w.mass(),
        "min_value": float(w.values.min()),
        "frames": frame,
    }
    return (args.input, args.potential), written, payload


def _cmd_overlap(args) -> tuple:
    w1, w2 = _as_wdf(args.load("a")), _as_wdf(args.load("b"))
    return (), (), "%.17g" % overlap_probability(w1, w2)


def _cmd_blob(args) -> tuple:
    report = blob_report(_as_wdf(args.load("input"))).to_json()
    report_path = _out_dir(args) / "blob_report.json"
    report_path.write_text(report + "\n")
    return (args.input,), (report_path,), report


def _cmd_figure(args) -> tuple:
    grid = args.grid
    if args.which == "fig2":
        if args.qi <= args.qm:
            print("warning: the aligned-slit figure expects q_i > q_m", file=sys.stderr)
        state_wdf = gaussian_wdf_closed_form(GaussianSpec(width=args.qi), grid)
        slit_wdf = gaussian_wdf_closed_form(GaussianSpec(width=args.qm), grid)
        written = wio.save_matrix(state_wdf, _out_dir(args) / "fig2_input_wdf.csv")
        written += wio.save_matrix(slit_wdf, _out_dir(args) / "fig2_filter_wdf.csv")
    elif args.which == "fig3":
        cat = cat_wavefunction(CatSpec(width=args.qi, separation=args.d), grid)
        written = wio.save_matrix(wdf_from_wavefunction(cat), _out_dir(args) / "fig3_cat_wdf.csv")
    else:  # fig4
        scan, centers = figure4_scan(args.d, args.qi, args.qm, grid)
        path = _out_dir(args) / "fig4_scan.csv"
        with open(path, "wb") as out:
            wio._write_csv(out, scan)
        meta = {
            "rows": "slit center D",
            "columns": "q",
            "D_values": centers.tolist(),
            "grid": wio._grid_dict(grid),
        }
        meta_path = path.with_suffix(".json")
        wio._write_json(meta_path, meta)
        written = [path, meta_path]
    return (), written, {"files": [str(p) for p in written]}


def figure4_scan(d: float, q_i: float, q_m: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """p = 0 slice of the slit output while the slit center scans the state.

    Returns a matrix ``scan[D_index, q_index]`` over slit centers D covering [-1.5 d, 1.5 d] on the coordinate
    lattice, plus the center values.  Row D is the p = 0 column of the ``coordinate`` law of :func:`filter_wdf`
    for the real Gaussian slit ``s`` sampled here.  As ``s(q - m dq) s(q + m dq) = s(q)^2 exp(-(m dq / q_m)^2)``,
    each row is the slit intensity ``s(q)^2`` times one profile: the state's p = 0 column, offset m so damped.
    """
    q_m = _positive("q_m", q_m)
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

    # ``reads`` maps each CSV input argument of a subcommand to the kinds of file it takes
    p_state = sub.add_parser("state", help="generate a wavefunction CSV")
    p_state.add_argument("--gaussian", action="store_true")
    p_state.add_argument("--cat", action="store_true")
    p_state.add_argument("params", nargs="*", help="key=value: q0/center/p0 or d/qi")
    add_common(p_state, with_grid=True)
    p_state.set_defaults(func=_cmd_state, reads={})

    p_wdf = sub.add_parser("wdf", help="distribution of a stored state")
    p_wdf.add_argument("input")
    add_common(p_wdf)
    p_wdf.set_defaults(func=_cmd_wdf, reads={"input": _STATE})

    p_filter = sub.add_parser("filter", help="apply a filter JSON to a state")
    p_filter.add_argument("input")
    p_filter.add_argument("--filter", required=True, help="filter spec JSON")
    p_filter.add_argument("--wdf", action="store_true", help="also write the phase-space output")
    add_common(p_filter)
    p_filter.set_defaults(func=_cmd_filter, reads={"input": ("wavefunction",)})

    p_detect = sub.add_parser("detect", help="detector readout of state x device")
    p_detect.add_argument("state")
    p_detect.add_argument("device")
    add_common(p_detect)
    p_detect.set_defaults(func=_cmd_detect, reads={"state": _STATE, "device": _STATE})

    p_evolve = sub.add_parser("evolve", help="propagate a state in time")
    p_evolve.add_argument("input")
    p_evolve.add_argument("--potential", required=True, help="potential spec JSON")
    p_evolve.add_argument("--t", type=float, required=True)
    p_evolve.add_argument("--dt", type=float, required=True)
    p_evolve.add_argument("--dump-every", type=float, default=0, help="steps between CSV dumps")
    add_common(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve, reads={"input": _STATE})

    p_overlap = sub.add_parser("overlap", help="transition probability of two states")
    p_overlap.add_argument("a")
    p_overlap.add_argument("b")
    p_overlap.set_defaults(func=_cmd_overlap, reads={"a": _STATE, "b": _STATE})

    p_blob = sub.add_parser("blob", help="localization diagnostics of a state")
    p_blob.add_argument("input")
    add_common(p_blob)
    p_blob.set_defaults(func=_cmd_blob, reads={"input": _STATE})

    p_fig = sub.add_parser("figure", help="write the data behind the standard figures")
    p_fig.add_argument("which", choices=["fig2", "fig3", "fig4"])
    p_fig.add_argument("--d", type=float, default=4.0)
    p_fig.add_argument("--qi", type=float, default=None)
    p_fig.add_argument("--qm", type=float, default=None)
    add_common(p_fig, with_grid=True)
    p_fig.set_defaults(func=_cmd_figure, reads={})

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
        # each input's sidecar is read once, and its kind checked, before the budget and before any payload is parsed
        sidecars = {name: wio._read_sidecar(Path(getattr(args, name)), kinds) for name, kinds in args.reads.items()}
        grid = _parse_grid(args.grid, args.hbar) if hasattr(args, "grid") else next(iter(sidecars.values()))[0]
        args.grid = grid
        if args.command in _MATRIX_COMMANDS or getattr(args, "wdf", False):
            available = _available_memory()
            if available is not None and MEMORY_BUDGET * 8 * grid.n_points ** 2 > available:
                raise MemoryError
        args.load = lambda name: wio.load_state(getattr(args, name), sidecars[name])
        inputs, outputs, payload = args.func(args)
        if outputs:  # overlap writes no files, so no manifest
            command = f"figure:{args.which}" if args.command == "figure" else args.command
            wio.write_manifest(args.out, command, grid, inputs, outputs)
        print(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True))
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory at N={grid.n_points}; use a smaller grid", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
