"""Command-line frontend.

Subcommands generate states, compute distributions, run filtering and
detection pipelines, evolve states in time, and write the data behind the
standard density-plot figures.  Every run writes a ``run_manifest.json``
next to its outputs.  Exit codes: 0 success, 1 numerical-invariant
violation, 2 usage or I/O error or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvariantViolation
from .grid import Grid, _pair_correlation, make_grid, squared_norm, to_position
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
from .evolution import EvolutionConfig, propagate
from .blobs import blob_report
from . import io as wio


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
    """Accept either a wavefunction CSV or a distribution-matrix CSV."""
    if wio.is_wavefunction_file(path):
        return wdf_from_wavefunction(to_position(wio.load_wavefunction(path)))
    return wio.load_wigner(path)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_state(args) -> int:
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = wio.save_wavefunction(psi, out_dir / "state.csv")
    wio.make_manifest("state", grid, [], written).write(out_dir)
    _emit({"norm": squared_norm(psi), "files": [str(p) for p in written]})
    return 0


def _cmd_wdf(args) -> int:
    w = _load_state_as_wdf(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = wio.save_wigner(w, out_dir / "wdf.csv")
    wio.make_manifest("wdf", w.grid, [Path(args.input)], written).write(out_dir)
    _emit(
        {
            "mass": w.mass(),
            "purity": purity(w),
            "uncertainty_product": uncertainty_product(w),
            "min_value": float(w.values.min()),
        }
    )
    return 0


def _cmd_filter(args) -> int:
    psi = to_position(wio.load_wavefunction(args.input))
    spec = wio.load_filter_spec(args.filter, psi.grid)
    filtered, transmitted = filter_wavefunction(psi, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = wio.save_wavefunction(filtered, out_dir / "filtered.csv")
    if args.wdf:
        w_out = filter_wdf(wdf_from_wavefunction(psi), spec)
        written += wio.save_wigner(w_out, out_dir / "filtered_wdf.csv")
    wio.make_manifest(
        "filter", psi.grid, [Path(args.input), Path(args.filter)], written
    ).write(out_dir)
    _emit({"transmission": transmitted})
    return 0


def _cmd_detect(args) -> int:
    w_in = _load_state_as_wdf(args.state)
    w_m = _load_state_as_wdf(args.device)
    result = detect(w_in, w_m)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = wio.save_matrix(result.values, result.grid, out_dir / "detection.csv")
    wio.make_manifest(
        "detect", result.grid, [Path(args.state), Path(args.device)], written
    ).write(out_dir)
    _emit({"min": float(result.values.min()), "mass": result.mass()})
    return 0


def _cmd_evolve(args) -> int:
    for flag, value in (("--t", args.t), ("--dt", args.dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    if args.dump_every < 0:
        raise ValueError(f"--dump-every must be nonnegative, got {args.dump_every}")
    w = _load_state_as_wdf(args.input)
    potential = wio.load_potential_spec(args.potential)
    n_steps = max(int(np.ceil(args.t / args.dt - 1e-12)), 1)
    dt = args.t / n_steps
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    dump_every = args.dump_every if args.dump_every else n_steps
    done = 0
    frame = 0
    while done < n_steps:
        chunk = min(dump_every, n_steps - done)
        w = propagate(w, potential, EvolutionConfig(dt=dt, n_steps=chunk, series_order=args.series_order))
        done += chunk
        frame += 1
        written += wio.save_wigner(w, out_dir / f"wdf_{frame:04d}.csv")
    wio.make_manifest(
        "evolve", w.grid, [Path(args.input), Path(args.potential)], written
    ).write(out_dir)
    _emit(
        {
            "steps": n_steps,
            "dt": dt,
            "mass": w.mass(),
            "min_value": float(w.values.min()),
            "frames": frame,
        }
    )
    return 0


def _cmd_overlap(args) -> int:
    w1 = _load_state_as_wdf(args.a)
    w2 = _load_state_as_wdf(args.b)
    for path, w in ((args.a, w1), (args.b, w2)):
        if abs(w.mass() - 1.0) > 1e-6:  # filter outputs may carry less; overlap may not
            raise InvariantViolation(f"total mass {w.mass():.6g} of {path} deviates from 1 by more than 1e-6")
    print("%.17g" % overlap_probability(w1, w2))
    return 0


def _cmd_blob(args) -> int:
    w = _load_state_as_wdf(args.input)
    report = blob_report(w)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "blob_report.json"
    report_path.write_text(report.to_json() + "\n")
    wio.make_manifest("blob", w.grid, [Path(args.input)], [report_path]).write(out_dir)
    print(report.to_json())
    return 0


def _cmd_figure(args) -> int:
    grid = _parse_grid(args.grid, args.hbar)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    inputs: list[Path] = []
    if args.which == "fig2":
        q_i, q_m = args.qi, args.qm
        if q_i <= q_m:
            print("warning: the aligned-slit figure expects q_i > q_m", file=sys.stderr)
        state_wdf = gaussian_wdf_closed_form(GaussianSpec(width=q_i), grid)
        slit_wdf = gaussian_wdf_closed_form(GaussianSpec(width=q_m), grid)
        written += wio.save_wigner(state_wdf, out_dir / "fig2_input_wdf.csv")
        written += wio.save_wigner(slit_wdf, out_dir / "fig2_filter_wdf.csv")
    elif args.which == "fig3":
        cat = cat_wavefunction(CatSpec(width=args.qi, separation=args.d), grid)
        written += wio.save_wigner(wdf_from_wavefunction(cat), out_dir / "fig3_cat_wdf.csv")
    else:  # fig4
        scan, centers = figure4_scan(args.d, args.qi, args.qm, grid)
        path = out_dir / "fig4_scan.csv"
        np.savetxt(path, scan, fmt="%.17g", delimiter=",")
        meta = {
            "rows": "slit center D",
            "columns": "q",
            "D_values": centers.tolist(),
            "grid": wio._grid_dict(grid),
        }
        (out_dir / "fig4_scan.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        written += [path, out_dir / "fig4_scan.json"]
    wio.make_manifest(f"figure:{args.which}", grid, inputs, written).write(out_dir)
    _emit({"files": [str(p) for p in written]})
    return 0


def figure4_scan(d: float, q_i: float, q_m: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """p = 0 slice of the slit output while the slit center scans the state.

    Returns a matrix ``scan[D_index, q_index]`` over slit centers covering
    [-1.5 d, 1.5 d] on the coordinate lattice, plus the center values.  Each
    row is the p = 0 column of the ``coordinate`` law of :func:`filter_wdf`.
    """
    cat = cat_wavefunction(CatSpec(width=q_i, separation=d), grid)
    spectrum = np.fft.rfft(wdf_from_wavefunction(cat).values, axis=1)
    centers = grid.q[(grid.q >= -1.5 * d) & (grid.q <= 1.5 * d)]
    n = grid.n_points
    # irfft at column n/2 (p = 0): offsets 0 and n/2 once, the others twice, signed (-1)^m
    weights = np.r_[1.0, 2.0 * (-1.0) ** np.arange(1, n // 2), (-1.0) ** (n // 2)]
    rows = []
    for center in centers:
        slit = (np.pi * q_m**2) ** (-0.25) * np.exp(-((grid.q - center) ** 2) / (2 * q_m**2))
        rows.append(np.real(spectrum * np.conj(_pair_correlation(slit))) @ weights / n)
    return np.array(rows), centers


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
    p_evolve.add_argument("--series-order", type=int, default=3)
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


def _lattice_size(args) -> str:
    """N of the run's lattice, from ``--grid`` or from the sidecar of its first input."""
    if hasattr(args, "grid"):
        return args.grid.split(":")[-1]
    first = next(getattr(args, name) for name in ("input", "state", "a") if hasattr(args, name))
    return str(wio._read_sidecar(Path(first))["n_points"])


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
        return args.func(args)
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
