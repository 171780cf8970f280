"""File formats: CSV payloads with JSON sidecars, all byte-deterministic.

Wavefunction CSV: header ``q,re,im`` (or ``p,re,im``), one row per sample,
with a sidecar ``<stem>.json`` holding
``{q_min, delta_q, n_points, hbar, representation}``.

Distribution / detection-map CSV: a plain numeric matrix (rows = q,
columns = p) with a sidecar holding the grid fields, and for a detection
map a ``representation`` of ``"detection map"``.  Floats are written as
NumPy's text writer writes them with ``"%.17g"``, so values round-trip
exactly, but by numpy a block at a time (:func:`_write_csv`).  A forked
helper writes or reads the second half of a matrix's rows on the other core.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import tempfile
import warnings
from collections.abc import Callable
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .grid import Grid, WaveFunction, _adopt
from .states import GaussianSpec, gaussian_wavefunction
from .filtering import DetectionMap, FilterSpec
from .evolution import PotentialSpec
from .wigner import WignerFunction

_FMT = "%.17g"
_GRID_FIELDS = ("q_min", "delta_q", "n_points", "hbar")

_TIE = 1.5 * float(np.finfo(np.longdouble).eps)  # y's two roundings move it by less than _TIE * y
_AT = np.arange(2, 18, dtype=np.uint8)[:, None]  # the places of digits 1..16 of the 17, counted from 1


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The CSV writer's tables, built at first use so a command that writes no CSV pays nothing: column n holds
    the 4 ASCII digits of n < 10000; entry p + 310 is 10**p, p = -310..345, parsed so within half an ulp of it."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1) + ord("0")
    return digits, np.array([f"1e{p}" for p in range(-310, 346)]).astype(np.longdouble)


_in_helper = False  # True in a forked helper, which must not fork again


def _fork(work) -> int | None:
    """Run ``work()`` in a forked helper; its pid, or None without ``os.fork`` or inside a helper."""
    global _in_helper
    if _in_helper or not hasattr(os, "fork"):
        return None
    with warnings.catch_warnings():
        # Python 3.12+ warns of fork beside numpy's idle BLAS threads; the helper takes no lock they hold
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        _in_helper = True
        try:  # never unwind into the caller's stack, buffers or exit hooks
            work()
            os._exit(0)
        finally:
            os._exit(1)
    return pid


def _joined(pid: int | None) -> bool:
    """Wait for the helper ``pid``; True when it exited 0, False when it failed or never ran."""
    return pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def _read_sidecar(csv_path: Path, kinds=("wavefunction", "matrix")) -> tuple[Grid, str | None]:
    """The grid of a CSV's sidecar and its representation field, which names the file's kind (none: a "matrix" file;
    "detection map": a "detection map" file; any other: a "wavefunction" file); one outside ``kinds`` is refused."""
    if not csv_path.exists():
        raise FileNotFoundError(f"no such file: {csv_path}")
    sidecar = csv_path.with_suffix(".json")
    if not sidecar.exists():
        raise FileNotFoundError(f"{csv_path} has no metadata sidecar {sidecar.name}")
    meta = _read_spec(sidecar, "metadata sidecar", _GRID_FIELDS, ("representation",))
    found = {None: "matrix", "detection map": "detection map"}.get(meta.get("representation"), "wavefunction")
    if found not in kinds:
        raise ValueError(f"{csv_path} must be a {' or '.join(kinds)} file, got a {found} file")
    return _built(sidecar, Grid, **{field: meta[field] for field in _GRID_FIELDS}), meta.get("representation")


def _grid_dict(grid: Grid) -> dict:
    return {field: getattr(grid, field) for field in _GRID_FIELDS}


def _save_sidecar(csv_path: Path, grid: Grid, **fields) -> list[Path]:
    """Write the sidecar of ``csv_path``, ``grid``'s fields and ``fields``; the CSV's path and the sidecar's."""
    sidecar = csv_path.with_suffix(".json")
    _write_json(sidecar, {**_grid_dict(grid), **fields})
    return [csv_path, sidecar]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_spec(json_path: Path, what: str, required: tuple[str, ...], optional: tuple[str, ...]) -> dict:
    spec = json.loads(json_path.read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"{json_path}: a {what} must be a JSON object, got {type(spec).__name__}")
    return _fields(json_path, spec, required, optional)


def _fields(json_path: Path, spec: dict, required: tuple[str, ...], optional: tuple[str, ...],
            prefix: str = "") -> dict:
    """``spec`` once it holds every ``required`` field and no field outside ``required`` and ``optional``."""
    for field in required:
        if field not in spec:
            raise ValueError(f"{json_path}: missing field {prefix}{field}")
    for field in spec:
        if field not in required + optional:
            raise ValueError(f"{json_path}: unknown field {prefix}{field}")
    return spec


def _built(json_path: Path, build, prefix: str = "", **fields):
    """``build(**fields)`` of fields read from ``json_path``, whose error, of the same class, names the file first."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise type(exc)(f"{json_path}: {prefix}{exc}") from None


def _formatted(block: np.ndarray) -> bytes:
    """The bytes NumPy's text writer writes for the 2-D float64 ``block`` with ``fmt=_FMT, delimiter=","``.

    x's 17 digits are d = round(y), y = |x| 10**(16 - k) in long double, k = floor(log10|x|).  Python's ``_FMT %``
    writes 0, nan, +-inf, 10 <= |x| < 1e17 and each x whose y lies within its two roundings' error of a half-integer
    (every x, where long double is double).  Value i is column i of a canvas whose NUL bytes mark what it lacks of
    sign, "0.000", digits with a point after the first, "e", the exponent's sign and 3 digits, and "," or newline."""
    x, (digits, powers) = block.ravel(), _tables()
    nonzero = np.isfinite(x) & (x != 0)
    a = np.where(nonzero, np.abs(x), 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    a = a.astype(np.longdouble)
    y = a * powers[326 - k]  # the table starts at 10**-310, so its entries 326 and 327 are 1e16 and 1e17
    k += (y >= powers[327]).astype(np.int64) - (y < powers[326])  # log10 slips by one near powers of ten
    y = a * powers[326 - k]
    frac, whole = np.modf(y)
    frac = frac.astype(np.float64)  # a multiple of y's ulp, at least 2**-10, so exact
    fallback = ~(np.abs(frac - 0.5) > _TIE * y.astype(np.float64)) | ~nonzero
    whole[fallback] = 0
    d = whole.astype(np.int64) + (frac > 0.5)
    k += d == 10**17  # 9.99...96e-1 writes 1
    d[d == 10**17] = 10**16
    fixed = (k >= -4) & (k <= 16)  # %g's fixed notation; the others take an exponent
    fallback |= fixed & (k > 0)  # the point of 10 <= |x| < 1e17 does not follow the first digit
    canvas = np.empty((30, len(x)), np.uint8)
    hi, lo = np.divmod(d, 10**8)
    canvas[8:24].reshape(4, 4, -1).transpose(1, 0, 2)[...] = np.take(
        digits, [hi // 10**4 % 10**4, hi % 10**4, lo // 10**4, lo % 10**4], axis=1)
    sig = np.maximum(((canvas[8:24] != ord("0")) * _AT).max(axis=0), 1)  # digits up to the last nonzero one
    canvas[0] = np.signbit(x) * ord("-")
    canvas[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None] * ((-k >= np.array([[1], [1], [2], [3], [4]])) & fixed)
    canvas[6] = hi // 10**8 + ord("0")
    canvas[7] = ord(".") * ((sig > 1) & ~(fixed & (k < 0)))
    canvas[8:24] *= _AT <= sig
    canvas[24] = ~fixed * ord("e")
    canvas[25] = ~fixed * np.where(k < 0, ord("-"), ord("+"))
    canvas[26:29] = np.take(digits[1:], abs(k), axis=1) * (~fixed & (abs(k) >= [[100], [0], [0]]))
    canvas[29] = ord(",")
    canvas[29, block.shape[1] - 1::block.shape[1]] = ord("\n")
    if fallback.any():
        text = np.array([_FMT % v for v in x[fallback].tolist()], dtype="S24")
        canvas[:29, fallback] = 0
        canvas[:24, fallback] = text.view(np.uint8).reshape(-1, 24).T
    return canvas.T.tobytes().translate(None, b"\0")


def _write_csv(out, values: np.ndarray) -> None:
    """Write the float64 matrix ``values`` to the binary file ``out``, :func:`_formatted` rows of ~2**13 values."""
    rows = max(1, (1 << 13) // values.shape[1])
    for start in range(0, len(values), rows):
        out.write(_formatted(values[start:start + rows]))


def save_wavefunction(psi: WaveFunction, csv_path: str | Path) -> list[Path]:
    csv_path = Path(csv_path)
    label = "q" if psi.representation == "position" else "p"
    with open(csv_path, "wb") as out:
        out.write(f"{label},re,im\n".encode())
        _write_csv(out, np.column_stack([psi.coordinates, psi.values.real, psi.values.imag]))
    return _save_sidecar(csv_path, psi.grid, representation=psi.representation)


def load_wavefunction(csv_path: str | Path) -> WaveFunction:
    return load_state(csv_path, _read_sidecar(Path(csv_path), ("wavefunction",)))


def load_wigner(csv_path: str | Path) -> WignerFunction:
    return load_state(csv_path, _read_sidecar(Path(csv_path), ("matrix",)))


def load_state(csv_path: str | Path, sidecar: tuple[Grid, str | None] | None = None) -> WaveFunction | WignerFunction:
    """The wavefunction or the distribution that a CSV holds, as its sidecar names it; ``sidecar`` is what
    ``_read_sidecar``, which checks the kind, returned for it where the caller has read it already."""
    csv_path = Path(csv_path)
    grid, representation = sidecar or _read_sidecar(csv_path)
    if representation is None:
        return WignerFunction(grid, _adopt(_load_matrix(csv_path, grid.n_points)))
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (grid.n_points, 3):
        raise ValueError(f"{csv_path}: expected {grid.n_points} rows of q,re,im")
    return WaveFunction(grid, rows[:, 1] + 1j * rows[:, 2], representation)


def save_matrix(m: WignerFunction | DetectionMap, csv_path: str | Path) -> list[Path]:
    """Writer of a distribution or a detection map, whose sidecar names it a "detection map" file.

    This process formats rows ``[:n/2]``, then appends rows ``[n/2:]``: the unlinked file a
    helper formatted them into, or, where no helper finished, its own formatting of them.
    """
    csv_path, values = Path(csv_path), m.values
    half = len(values) // 2
    with tempfile.TemporaryFile() as tail, open(csv_path, "wb") as out:

        def format_tail():
            _write_csv(tail, values[half:])
            tail.flush()

        pid = _fork(format_tail)
        try:
            _write_csv(out, values[:half])
        finally:
            tail_done = _joined(pid)
        if tail_done:
            tail.seek(0)
            shutil.copyfileobj(tail, out)
        else:
            _write_csv(out, values[half:])
    kind = {"representation": "detection map"} if isinstance(m, DetectionMap) else {}
    return _save_sidecar(csv_path, m.grid, **kind)


def start_save_wigner(w: WignerFunction, csv_path: str | Path) -> Callable[[], list[Path]]:
    """Start :func:`save_matrix` in a forked helper; its finish, called once, joins it and writes what it did not."""
    csv_path = Path(csv_path)
    pid = _fork(lambda: save_matrix(w, csv_path))
    return lambda: [csv_path, csv_path.with_suffix(".json")] if _joined(pid) else save_matrix(w, csv_path)


def _strict_loadtxt(csv_path: Path, start: int, stop: int | None) -> np.ndarray:
    """``np.loadtxt`` of lines ``[start:stop]`` of a matrix CSV, raising every warning."""
    with open(csv_path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(islice(fh, start, stop), delimiter=",", ndmin=2)


def _load_matrix(csv_path: Path, n: int) -> np.ndarray:
    """``np.loadtxt(csv_path, delimiter=",", ndmin=2)``; a helper parses lines ``[n/2:]`` into shared memory.

    Lines parse independently, so the halves stack to the whole-file parse.  On any warning,
    error or shape other than (n, n) this process parses the whole file, so its messages appear once.
    """
    values = np.ndarray((n, n), buffer=mmap.mmap(-1, 8 * n * n))  # exactly the matrix, so it can be adopted
    count = np.ndarray(1, np.int64, mmap.mmap(-1, 8))

    def parse_tail():
        rows = _strict_loadtxt(csv_path, n // 2, None)
        if rows.shape[1] != n:  # a one-column tail would broadcast; more rows than n fail to fit
            raise ValueError("not the tail of an n x n matrix")
        values[n - len(rows):] = rows
        count[0] = len(rows)

    pid = _fork(parse_tail)
    head = None
    try:
        if pid is not None:
            head = _strict_loadtxt(csv_path, 0, n // 2)
    except (OSError, ValueError, Warning):
        pass  # the whole-file parse below raises the real error
    finally:
        tail_done = _joined(pid)
    if not tail_done or head is None or head.shape != (n - count[0], n):
        return np.loadtxt(csv_path, delimiter=",", ndmin=2)
    values[:len(head)] = head
    return values


def load_filter_spec(json_path: str | Path, grid: Grid) -> FilterSpec:
    """Filter description: ``{kind, q_offset, p_offset, device}``.

    The device is either a path to a wavefunction CSV (relative paths are
    resolved against the JSON file) or an inline Gaussian
    ``{"gaussian": {"width": ..., "center": ..., "momentum_offset": ...}}``
    evaluated on the target grid.
    """
    json_path = Path(json_path)
    spec = _read_spec(json_path, "filter spec", ("kind", "device"), ("q_offset", "p_offset"))
    device_entry = spec["device"]
    if isinstance(device_entry, str):
        device_path = Path(device_entry)
        if not device_path.is_absolute():
            device_path = json_path.parent / device_path
        device = load_wavefunction(device_path)
    elif isinstance(device_entry, dict) and isinstance(device_entry.get("gaussian"), dict):
        _fields(json_path, device_entry, ("gaussian",), (), "device.")
        optional = ("center", "momentum_offset")
        params = _fields(json_path, device_entry["gaussian"], ("width",), optional, "device.gaussian.")
        device = gaussian_wavefunction(_built(json_path, GaussianSpec, "device.gaussian.", **params), grid)
    else:
        raise ValueError(
            f"{json_path}: filter device must be a CSV path or an inline gaussian object, got {device_entry!r}"
        )
    return _built(json_path, FilterSpec, **{**spec, "device": device})


def load_potential_spec(json_path: str | Path) -> PotentialSpec:
    """Potential description: ``{"coefficients": [...], "mass": 1.0}``."""
    json_path = Path(json_path)
    spec = _read_spec(json_path, "potential spec", ("coefficients",), ("mass",))
    if not isinstance(spec["coefficients"], list):
        raise ValueError(f"{json_path}: coefficients must be a list of numbers, got {spec['coefficients']!r}")
    return _built(json_path, PotentialSpec, **spec)


def write_manifest(out_dir: str | Path, command: str, grid: Grid, inputs: list, outputs: list) -> Path:
    """Record one command invocation and the files (paths or path strings) it touched in ``run_manifest.json``."""
    path = Path(out_dir) / "run_manifest.json"
    files = {"inputs": [str(Path(p)) for p in inputs], "outputs": [str(Path(p)) for p in outputs]}
    _write_json(path, {"command": command, "grid": _grid_dict(grid), **files, "version": _version})
    return path
