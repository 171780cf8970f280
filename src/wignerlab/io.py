"""File formats: CSV payloads with JSON sidecars, all byte-deterministic.

Wavefunction CSV: header ``q,re,im`` (or ``p,re,im``), one row per sample,
with a sidecar ``<stem>.json`` holding
``{q_min, delta_q, n_points, hbar, representation}``.

Distribution / detection-map CSV: a plain numeric matrix (rows = q,
columns = p) with a sidecar holding the grid fields.  Floats are written
with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .grid import Grid, WaveFunction
from .states import GaussianSpec, gaussian_wavefunction
from .filtering import FilterSpec
from .evolution import PotentialSpec
from .wigner import WignerFunction

_FMT = "%.17g"


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def _read_sidecar(csv_path: Path) -> dict:
    if not csv_path.exists():
        raise FileNotFoundError(f"no such file: {csv_path}")
    sidecar = _sidecar_path(csv_path)
    if not sidecar.exists():
        raise FileNotFoundError(f"{csv_path} has no metadata sidecar {sidecar.name}")
    return json.loads(sidecar.read_text())


def _grid_dict(grid: Grid) -> dict:
    return {
        "q_min": grid.q_min,
        "delta_q": grid.delta_q,
        "n_points": grid.n_points,
        "hbar": grid.hbar,
    }


def _grid_from_dict(meta: dict) -> Grid:
    return Grid(
        q_min=float(meta["q_min"]),
        delta_q=float(meta["delta_q"]),
        n_points=int(meta["n_points"]),
        hbar=float(meta["hbar"]),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_wavefunction(psi: WaveFunction, csv_path: str | Path) -> list[Path]:
    csv_path = Path(csv_path)
    label = "q" if psi.representation == "position" else "p"
    rows = np.column_stack([psi.coordinates, psi.values.real, psi.values.imag])
    np.savetxt(csv_path, rows, fmt=_FMT, delimiter=",", header=f"{label},re,im", comments="")
    sidecar = _sidecar_path(csv_path)
    meta = _grid_dict(psi.grid)
    meta["representation"] = psi.representation
    _write_json(sidecar, meta)
    return [csv_path, sidecar]


def load_wavefunction(csv_path: str | Path) -> WaveFunction:
    csv_path = Path(csv_path)
    meta = _read_sidecar(csv_path)
    grid = _grid_from_dict(meta)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (grid.n_points, 3):
        raise ValueError(f"{csv_path}: expected {grid.n_points} rows of q,re,im")
    return WaveFunction(grid, rows[:, 1] + 1j * rows[:, 2], meta["representation"])


def save_matrix(values: np.ndarray, grid: Grid, csv_path: str | Path) -> list[Path]:
    """Shared matrix writer for distributions and detection maps."""
    csv_path = Path(csv_path)
    np.savetxt(csv_path, values, fmt=_FMT, delimiter=",")
    sidecar = _sidecar_path(csv_path)
    _write_json(sidecar, _grid_dict(grid))
    return [csv_path, sidecar]


def save_wigner(w: WignerFunction, csv_path: str | Path) -> list[Path]:
    return save_matrix(w.values, w.grid, csv_path)


def load_wigner(csv_path: str | Path) -> WignerFunction:
    csv_path = Path(csv_path)
    meta = _read_sidecar(csv_path)
    grid = _grid_from_dict(meta)
    values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    return WignerFunction(grid, values)


def is_wavefunction_file(csv_path: str | Path) -> bool:
    """Wavefunction sidecars carry a representation field, matrix sidecars do not."""
    return "representation" in _read_sidecar(Path(csv_path))


def load_filter_spec(json_path: str | Path, grid: Grid) -> FilterSpec:
    """Filter description: ``{kind, q_offset, p_offset, device}``.

    The device is either a path to a wavefunction CSV (relative paths are
    resolved against the JSON file) or an inline Gaussian
    ``{"gaussian": {"width": ..., "center": ..., "momentum_offset": ...}}``
    evaluated on the target grid.
    """
    json_path = Path(json_path)
    spec = json.loads(json_path.read_text())
    device_entry = spec["device"]
    if isinstance(device_entry, str):
        device_path = Path(device_entry)
        if not device_path.is_absolute():
            device_path = json_path.parent / device_path
        device = load_wavefunction(device_path)
    elif isinstance(device_entry, dict) and "gaussian" in device_entry:
        params = device_entry["gaussian"]
        device = gaussian_wavefunction(
            GaussianSpec(
                width=float(params["width"]),
                center=float(params.get("center", 0.0)),
                momentum_offset=float(params.get("momentum_offset", 0.0)),
            ),
            grid,
        )
    else:
        raise ValueError("filter device must be a CSV path or an inline gaussian spec")
    return FilterSpec(
        kind=spec["kind"],
        device=device,
        q_offset=float(spec.get("q_offset", 0.0)),
        p_offset=float(spec.get("p_offset", 0.0)),
    )


def load_potential_spec(json_path: str | Path) -> PotentialSpec:
    """Potential description: ``{"coefficients": [...], "mass": 1.0}``."""
    spec = json.loads(Path(json_path).read_text())
    return PotentialSpec(
        coefficients=tuple(float(c) for c in spec["coefficients"]),
        mass=float(spec.get("mass", 1.0)),
    )


@dataclass
class RunManifest:
    """Record of one command invocation and the files it touched."""

    command: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    grid: dict = field(default_factory=dict)
    version: str = _version

    def write(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / "run_manifest.json"
        _write_json(path, asdict(self))
        return path


def make_manifest(command: str, grid: Grid | None, inputs: list[Path], outputs: list[Path]) -> RunManifest:
    return RunManifest(
        command=command,
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        grid=_grid_dict(grid) if grid is not None else {},
    )
