"""The three benchmark workloads: inputs, timed ops and correctness gates.

Each workload is a closed loop with one client: the next op starts only
after the previous one has finished and been checked.  Inputs are a pure
function of ``(seed, index)``.  The oracles that the gates compare against
are closed forms evaluated here with plain numpy, or a second route through
the library that shares no code with the route under test.

An op passes through three stages, so that the gate self-test can corrupt
an output between the last two:

* ``execute`` runs the op and returns its latency, the max RSS of the
  process that ran it (KB) and its raw result;
* ``collect`` reads the outputs back (files, printed JSON), untimed;
* ``verify`` raises :class:`GateFailure` when an output is wrong.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HBAR = 1.0
Q_MIN, Q_MAX = -12.0, 12.0
OP_TIMEOUT_S = 60.0
TRACE_BASE = 10_000  # unit indices of the traced pass, disjoint from the timed phase
# set by the SIGTERM handler; checked between ops and while a child runs, so
# that a child is never left running and no signal lands inside Popen
TERMINATED = threading.Event()


def stop_if_terminated() -> None:
    if TERMINATED.is_set():
        raise SystemExit(143)


class GateFailure(Exception):
    """An op produced an output that disagrees with its oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Op:
    index: int
    kind: str
    data: dict = field(default_factory=dict)


@dataclass
class Stats:
    """Outcome of a sequence of ops."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    peak_rss_kb: int = 0
    failures: list = field(default_factory=list)


def attempt(stats: Stats, workload, op: Op, traced: bool = False, corrupt=None, replay=None) -> None:
    """Run one op through its gate; a raise or a failed check counts it as failed.

    ``replay`` stands in for ``execute``'s result, and ``corrupt`` rewrites
    the collected output before it is verified; the gate self-test uses both.
    """
    stats.attempted += 1
    tracer = workload.tracer
    start = time.perf_counter()
    timed = False
    try:
        if tracer is not None:
            tracer.op = op.index
        if replay is None:
            latency, rss_kb, raw = workload.execute(op, traced)
        else:
            latency, rss_kb, raw = replay
        timed = True
        stats.latencies.append(latency)
        stats.kinds.append(op.kind)
        stats.peak_rss_kb = max(stats.peak_rss_kb, rss_kb)
        if tracer is not None:
            tracer.enabled = False  # the gates' own library calls are not the op's work
        output = workload.collect(op, raw)
        if corrupt is not None:
            output = corrupt(output)
        workload.verify(op, output)
    except Exception as exc:  # every failure mode of an op is a failed op
        if not timed:
            stats.latencies.append(time.perf_counter() - start)
            stats.kinds.append(op.kind)
        stats.failed += 1
        stats.failures.append(f"{op.kind}#{op.index}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_child(argv: list[str], env: dict, log_stem: Path) -> tuple[float, int, str]:
    """Run one process to completion: wall seconds, max RSS (KB) and stdout.

    Raises :class:`GateFailure` on a nonzero exit.  A process still running
    after ``OP_TIMEOUT_S``, or when the run is terminated, is killed and
    reaped first.
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    reaped = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)

        def reap():
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        while waiter.is_alive() and not TERMINATED.is_set() and time.perf_counter() - start < OP_TIMEOUT_S:
            waiter.join(0.05)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    stop_if_terminated()
    _, status, usage = reaped["wait"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        raise GateFailure(f"exit code {proc.returncode}: {' | '.join(tail)}")
    return reaped["end"] - start, usage.ru_maxrss, out_path.read_text()


# ----------------------------------------------------------------------------
# independent lattice oracles (numpy only)


@dataclass(frozen=True)
class Lattice:
    n: int

    @property
    def dq(self) -> float:
        return (Q_MAX - Q_MIN) / self.n

    @property
    def dp(self) -> float:
        return np.pi * HBAR / (self.n * self.dq)

    @property
    def q(self) -> np.ndarray:
        return Q_MIN + self.dq * np.arange(self.n)

    @property
    def origin(self) -> int:
        return int(round(-Q_MIN / self.dq))

    def spec(self) -> str:
        return f"--grid={Q_MIN:g}:{Q_MAX:g}:{self.n}"


def gaussian(lat: Lattice, width: float, center: float = 0.0, p0: float = 0.0) -> np.ndarray:
    q = lat.q
    return (np.pi * width**2) ** -0.25 * np.exp(-((q - center) ** 2) / (2 * width**2) + 1j * p0 * q / HBAR)


def cat(lat: Lattice, width: float, d: float) -> np.ndarray:
    q = lat.q
    norm = (4 * np.pi * width**2) ** -0.25 * (1.0 + np.exp(-(d**2) / width**2)) ** -0.5
    return norm * (np.exp(-((q - d) ** 2) / (2 * width**2)) + np.exp(-((q + d) ** 2) / (2 * width**2)))


def overlap(lat: Lattice, a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.sum(np.conj(a) * b) * lat.dq) ** 2)


def matrix_mass(lat: Lattice, values: np.ndarray) -> float:
    return float(values.sum() * lat.dq * lat.dp)


def load_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_amplitudes(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1] + 1j * rows[:, 2]


def save_matrix_like(values: np.ndarray, template: Path, target: Path) -> None:
    """Write a matrix CSV with the sidecar of ``template``."""
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(target, values, fmt="%.17g", delimiter=",")
    shutil.copyfile(template.with_suffix(".json"), target.with_suffix(".json"))


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ----------------------------------------------------------------------------


class Workload:
    """Shared set-up: a pool of precomputed unit inputs, extended on demand."""

    name = ""
    n_points = 0
    pool_units = 0
    trace_units = 1

    def __init__(self, root: Path, work: Path, seed: int, env: dict, pool: dict):
        self.tracer = None  # set for an in-process traced pass
        self.root = root
        self.work = work
        self.seed = seed
        self.env = env
        self.pool = pool
        self.spans_dir = work / "spans"
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.lattice = Lattice(self.n_points)

    @classmethod
    def prepare(cls, seed: int, out: Path) -> dict:
        """Inputs and oracles of the first units and of the traced pass."""
        out.mkdir(parents=True, exist_ok=True)
        units = list(range(cls.pool_units)) + [TRACE_BASE + k for k in range(cls.trace_units)]
        return {u: cls.unit_inputs(seed, u, out) for u in units}

    @classmethod
    def unit_inputs(cls, seed: int, unit: int, out: Path):
        raise NotImplementedError

    def inputs(self, unit: int):
        if unit not in self.pool:
            self.pool[unit] = self.unit_inputs(self.seed, unit, self.work / "late_inputs")
        return self.pool[unit]

    def ops(self, unit: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Fill in-process caches before timing; processes started per op have none."""

    def release(self, unit: int) -> None:
        """Delete the files a finished unit wrote."""
        shutil.rmtree(self.work / f"u{unit}", ignore_errors=True)

    def execute(self, op: Op, traced: bool):
        """Run ``op.data["args"]`` as one CLI process, through the launcher when traced."""
        args = op.data["args"]
        log_stem = self.work / f"u{op.data['unit']}" / f"{op.kind}"
        log_stem.parent.mkdir(parents=True, exist_ok=True)
        if traced:
            spans_path = self.spans_dir / f"op{op.index:06d}.json"
            argv = [sys.executable, str(self.root / "perfbench" / "launcher.py"), str(spans_path), str(op.index), "--", *args]
        else:
            argv = [sys.executable, "-m", "wignerlab.cli", *args]
        return run_child(argv, self.env, log_stem)


class CliSession(Workload):
    """Fresh ``wignerlab`` processes at N=1024, one seeded round of eight ops at a time."""

    name = "cli_session"
    n_points = 1024
    pool_units = 4
    KINDS = ("state_cat", "state_device", "wdf_cat", "wdf_device", "filter", "detect", "overlap", "blob")

    @classmethod
    def unit_inputs(cls, seed: int, unit: int, out: Path) -> dict:
        rng = np.random.default_rng([seed, 0, unit])
        lat = Lattice(cls.n_points)
        d = float(rng.uniform(2.0, 4.0))
        qi = float(rng.uniform(0.8, 1.2))
        side = float(rng.choice([-1.0, 1.0]))
        device = {"q0": float(rng.uniform(0.8, 1.4)), "center": side * d + float(rng.uniform(-0.5, 0.5)),
                  "p0": float(rng.uniform(-0.5, 0.5))}
        slit = {"width": float(rng.uniform(0.8, 1.5)), "center": -side * d + float(rng.uniform(-1.0, 1.0))}
        out.mkdir(parents=True, exist_ok=True)
        slit_path = out / f"slit_{unit}.json"
        slit_path.write_text(json.dumps({"kind": "coordinate", "device": {"gaussian": slit}}))
        psi_cat = cat(lat, qi, d)
        psi_dev = gaussian(lat, device["q0"], device["center"], device["p0"])
        raw = psi_cat * gaussian(lat, slit["width"], slit["center"])
        transmission = float(np.sum(np.abs(raw) ** 2) * lat.dq)
        return {
            "d": d, "qi": qi, "device": device, "slit_path": str(slit_path),
            "psi_cat": psi_cat, "psi_dev": psi_dev,
            "transmission": transmission, "filtered": raw / np.sqrt(transmission),
            "overlap": overlap(lat, psi_cat, psi_dev),
        }

    def ops(self, unit: int) -> list[Op]:
        x = self.inputs(unit)
        r = self.work / f"u{unit}"
        dev = x["device"]
        grid = self.lattice.spec()
        cat_wdf, dev_wdf = str(r / "cat_wdf" / "wdf.csv"), str(r / "dev_wdf" / "wdf.csv")
        args = {
            "state_cat": ["state", "--cat", f"d={x['d']!r}", f"qi={x['qi']!r}", grid, "--out", str(r / "cat")],
            "state_device": ["state", "--gaussian", f"q0={dev['q0']!r}", f"center={dev['center']!r}",
                             f"p0={dev['p0']!r}", grid, "--out", str(r / "dev")],
            "wdf_cat": ["wdf", str(r / "cat" / "state.csv"), "--out", str(r / "cat_wdf")],
            "wdf_device": ["wdf", str(r / "dev" / "state.csv"), "--out", str(r / "dev_wdf")],
            "filter": ["filter", str(r / "cat" / "state.csv"), "--filter", x["slit_path"], "--wdf",
                       "--out", str(r / "filter")],
            "detect": ["detect", cat_wdf, dev_wdf, "--out", str(r / "detect")],
            "overlap": ["overlap", cat_wdf, dev_wdf],
            "blob": ["blob", cat_wdf, "--out", str(r / "blob")],
        }
        return [
            Op(unit * len(self.KINDS) + k, kind, {"unit": unit, "args": args[kind], "dir": r})
            for k, kind in enumerate(self.KINDS)
        ]

    def collect(self, op: Op, raw: str) -> dict:
        r = op.data["dir"]
        out = {"stdout": raw}
        if op.kind.startswith("state_"):
            out["amplitudes"] = load_amplitudes(r / ("cat" if op.kind == "state_cat" else "dev") / "state.csv")
        elif op.kind.startswith("wdf_"):
            out["matrix"] = load_matrix(r / ("cat_wdf" if op.kind == "wdf_cat" else "dev_wdf") / "wdf.csv")
        elif op.kind == "filter":
            out["amplitudes"] = load_amplitudes(r / "filter" / "filtered.csv")
            out["matrix"] = load_matrix(r / "filter" / "filtered_wdf.csv")
        elif op.kind == "detect":
            out["matrix"] = load_matrix(r / "detect" / "detection.csv")
        return out

    def verify(self, op: Op, out: dict) -> None:
        x = self.inputs(op.data["unit"])
        lat = self.lattice
        if op.kind == "overlap":
            got = float(out["stdout"].strip())
            _require(abs(got - x["overlap"]) <= 1e-8, f"overlap {got!r} != |<a|b>|^2 {x['overlap']!r}")
            return
        printed = json.loads(out["stdout"])
        if op.kind.startswith("state_"):
            psi = x["psi_cat"] if op.kind == "state_cat" else x["psi_dev"]
            _require(_max_abs(out["amplitudes"], psi) <= 1e-12, "amplitudes differ from the closed form")
            _require(abs(printed["norm"] - 1.0) <= 1e-8, f"norm {printed['norm']!r}")
        elif op.kind.startswith("wdf_"):
            psi = x["psi_cat"] if op.kind == "wdf_cat" else x["psi_dev"]
            mass = matrix_mass(lat, out["matrix"])
            _require(abs(mass - 1.0) <= 1e-8, f"mass {mass!r} != 1")
            marginal = out["matrix"].sum(axis=1) * lat.dp
            _require(_max_abs(marginal, np.abs(psi) ** 2) <= 1e-8, "q-marginal differs from |psi|^2")
            _require(abs(printed["mass"] - mass) <= 1e-8, "printed mass differs from the file")
        elif op.kind == "filter":
            t = x["transmission"]
            _require(abs(printed["transmission"] - t) <= 1e-8, f"transmission {printed['transmission']!r} != {t!r}")
            mass = matrix_mass(lat, out["matrix"])
            _require(abs(mass - t) <= 1e-8, f"phase-space route mass {mass!r} != transmission {t!r}")
            _require(_max_abs(out["amplitudes"], x["filtered"]) <= 1e-8, "filtered amplitudes differ")
        elif op.kind == "detect":
            low = float(out["matrix"].min())
            _require(low >= -1e-12, f"detection minimum {low!r} < -1e-12")
        elif op.kind == "blob":
            area = printed["effective_area"]
            _require(abs(area - np.pi * HBAR) <= 1e-6, f"effective area {area!r} != h/2")

    def self_test(self, stats: Stats, last_unit: int) -> None:
        """A mass-3 matrix given to ``overlap`` must fail the overlap gate."""
        r = self.work / f"u{last_unit}"
        tripled = r / "mass3" / "wdf.csv"
        dev_wdf = r / "dev_wdf" / "wdf.csv"
        save_matrix_like(3.0 * load_matrix(dev_wdf), dev_wdf, tripled)
        op = next(o for o in self.ops(last_unit) if o.kind == "overlap")
        op.data["args"] = ["overlap", str(r / "cat_wdf" / "wdf.csv"), str(tripled)]
        attempt(stats, self, op)


class ApiBatch(Workload):
    """In-process library calls on the -12:12:512 grid, one seeded state and device per op."""

    name = "api_batch"
    n_points = 512
    pool_units = 256
    trace_units = 8
    SLITS = 8

    @classmethod
    def unit_inputs(cls, seed: int, unit: int, out: Path) -> dict:
        rng = np.random.default_rng([seed, 1, unit])
        n_packets = int(rng.integers(2, 5))
        centers = np.concatenate([rng.uniform(-0.5, 0.5, 1), rng.uniform(-2.0, 2.0, n_packets - 1)])
        # weights with phases inside +-pi/4 keep psi(0) clear of cancellation,
        # which the recovery reference point needs
        packets = [
            {"width": float(rng.uniform(0.7, 1.1)), "center": float(c), "p0": float(rng.uniform(-1.0, 1.0)),
             "weight": complex(rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4)))}
            for c in centers
        ]
        return {
            "packets": packets,
            # the convolution-type filters displace and widen the state by the
            # device's extent; these bounds keep every output on the grid
            "device": {"width": float(rng.uniform(0.6, 0.9)), "center": float(rng.uniform(-1.0, 1.0)),
                       "p0": float(rng.uniform(-0.5, 0.5))},
            "kind_index": unit % 4,
            "p_steps": int(rng.integers(-4, 5)),
            "q_steps": int(rng.integers(-8, 9)),
            "slits": [{"width": float(rng.uniform(0.6, 1.0)), "center": float(rng.uniform(-3.0, 3.0))}
                      for _ in range(cls.SLITS)],
        }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import wignerlab

        self.wl = wignerlab
        self.grid = wignerlab.make_grid(Q_MIN, Q_MAX, self.n_points, hbar=HBAR)

    def ops(self, unit: int) -> list[Op]:
        return [Op(unit, "api_op", {"unit": unit})]

    def release(self, unit: int) -> None:
        pass

    def warmup(self) -> None:
        self.execute(self.ops(TRACE_BASE - 1)[0], traced=False)

    def execute(self, op: Op, traced: bool):
        wl, g = self.wl, self.grid
        grid_mod, wigner, states, filtering, blobs = wl.grid, wl.wigner, wl.states, wl.filtering, wl.blobs
        x = self.inputs(op.data["unit"])
        start = time.perf_counter()
        amplitudes = sum(
            p["weight"] * states.gaussian_wavefunction(wl.GaussianSpec(p["width"], p["center"], p["p0"]), g).values
            for p in x["packets"]
        )
        psi = grid_mod.normalize(wl.WaveFunction(g, amplitudes))
        dev = x["device"]
        device = states.gaussian_wavefunction(wl.GaussianSpec(dev["width"], dev["center"], dev["p0"]), g)
        kind = filtering.FILTER_KINDS[x["kind_index"]]
        offsets = {}
        if kind == filtering.GENERAL_COORDINATE:
            offsets["p_offset"] = x["p_steps"] * g.delta_p
        elif kind == filtering.GENERAL_MOMENTUM:
            offsets["q_offset"] = x["q_steps"] * g.delta_q
        spec = filtering.FilterSpec(kind=kind, device=device, **offsets)

        w_psi = wigner.wdf_from_wavefunction(psi)
        w_dev = wigner.wdf_from_wavefunction(device)
        w_mix = wigner.wdf_from_density(wigner.mixed_density([psi, device], [0.5, 0.5]))
        filtered, transmitted = filtering.filter_wavefunction(psi, spec)
        w_filtered = filtering.filter_wdf(w_psi, spec)
        detected = filtering.detect(w_psi, w_dev)
        detected_amp = filtering.detect_from_wavefunctions(psi, device)
        result = {
            "psi": psi.values, "device": device.values, "filtered": filtered, "transmitted": transmitted,
            "w_psi": w_psi.values, "w_dev": w_dev.values, "w_mix": w_mix.values, "w_filtered": w_filtered.values,
            "detect": detected.values, "detect_amp": detected_amp.values,
            "overlap": wigner.overlap_probability(w_psi, w_dev),
            "uncertainty": wigner.uncertainty_product(w_psi),
            "recovered": wigner.recover_wavefunction(w_psi).values,
            "blob": blobs.blob_report(w_psi),
            "spec": spec,
        }
        # slit scan across the state, the pattern of cli.figure4_scan
        scan = []
        for slit in x["slits"]:
            values = (np.pi * slit["width"] ** 2) ** -0.25 * np.exp(-((g.q - slit["center"]) ** 2) / (2 * slit["width"] ** 2))
            slit_spec = filtering.FilterSpec(kind=filtering.COORDINATE, device=wl.WaveFunction(g, values))
            scan.append((values, filtering.filter_wdf(w_psi, slit_spec).values))
        result["scan"] = scan
        latency = time.perf_counter() - start
        return latency, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, result

    def collect(self, op: Op, raw) -> dict:
        return raw

    def verify(self, op: Op, out: dict) -> None:
        lat = self.lattice
        psi = out["psi"]
        # filter routes commute: the phase-space law equals the distribution of the raw filtered state
        via_state = out["transmitted"] * self.wl.wdf_from_wavefunction(out["filtered"]).values
        err = _max_abs(out["w_filtered"], via_state)
        _require(err <= 1e-8, f"{out['spec'].kind} filter routes differ by {err:.2e}")
        err = _max_abs(out["detect"], out["detect_amp"])
        _require(err <= 1e-8, f"detection identity off by {err:.2e}")
        _require(float(out["detect"].min()) >= -1e-12, "negative detection map")
        expected = overlap(lat, psi, out["device"])
        _require(abs(out["overlap"] - expected) <= 1e-8, f"overlap {out['overlap']!r} != |<a|b>|^2 {expected!r}")
        j0 = lat.origin
        aligned = psi * (abs(psi[j0]) / psi[j0])
        err = _max_abs(out["recovered"], aligned)
        _require(err <= 1e-8, f"recovered wavefunction off by {err:.2e}")
        err = _max_abs(out["w_mix"], 0.5 * (out["w_psi"] + out["w_dev"]))
        _require(err <= 1e-8, f"mixture distribution off by {err:.2e}")
        mass = matrix_mass(lat, out["w_psi"])
        _require(abs(mass - 1.0) <= 1e-8, f"mass {mass!r} != 1")
        _require(out["uncertainty"] >= 0.5 * HBAR - 1e-6, f"uncertainty product {out['uncertainty']!r} < hbar/2")
        area = out["blob"].effective_area
        _require(abs(area - np.pi * HBAR) <= 1e-6, f"effective area {area!r} != h/2")
        for values, w_out in out["scan"]:
            transmission = float(np.sum(np.abs(psi * values) ** 2) * lat.dq)
            mass = matrix_mass(lat, w_out)
            _require(abs(mass - transmission) <= 1e-8, f"slit output mass {mass!r} != transmission {transmission!r}")

    def self_test(self, stats: Stats, last_unit: int) -> None:
        """A detection map with a flipped sign must fail the detection gate."""
        op = self.ops(last_unit)[0]

        def flip(out):
            return {**out, "detect": -out["detect"]}

        attempt(stats, self, op, corrupt=flip)


class EvolveFrames(Workload):
    """One ``wignerlab evolve`` process per op: 400 RK4 steps in the quartic well, 8 frames."""

    name = "evolve_frames"
    n_points = 256
    pool_units = 10
    trace_units = 2
    POTENTIAL = {"coefficients": [0.0, 0.0, 0.5, 0.0, 0.005], "mass": 1.0}
    T, DT, DUMP_EVERY, FRAMES = 0.4, 1e-3, 50, 8

    @classmethod
    def unit_inputs(cls, seed: int, unit: int, out: Path) -> dict:
        import wignerlab as wl
        from wignerlab import io as wio

        rng = np.random.default_rng([seed, 2, unit])
        center, p0 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))
        g = wl.make_grid(Q_MIN, Q_MAX, cls.n_points, hbar=HBAR)
        psi = wl.gaussian_wavefunction(wl.GaussianSpec(1.0, center, p0), g)
        out.mkdir(parents=True, exist_ok=True)
        state_path = out / f"state_{unit}.csv"
        wio.save_wavefunction(psi, state_path)
        potential_path = out / "well.json"
        potential_path.write_text(json.dumps(cls.POTENTIAL))
        potential = wl.PotentialSpec(tuple(cls.POTENTIAL["coefficients"]), cls.POTENTIAL["mass"])
        n_steps = int(round(cls.T / cls.DT))
        final = wl.split_step_schrodinger(psi, potential, wl.EvolutionConfig(dt=cls.T / n_steps, n_steps=n_steps))
        return {"state": str(state_path), "potential": str(potential_path),
                "oracle": wl.wdf_from_wavefunction(final).values}

    def ops(self, unit: int) -> list[Op]:
        x = self.inputs(unit)
        args = ["evolve", x["state"], "--potential", x["potential"], "--t", repr(self.T), "--dt", repr(self.DT),
                "--dump-every", str(self.DUMP_EVERY), "--out", str(self.work / f"u{unit}")]
        return [Op(unit, "evolve", {"unit": unit, "args": args})]

    def collect(self, op: Op, raw) -> dict:
        r = self.work / f"u{op.data['unit']}"
        frames = [load_matrix(r / f"wdf_{k:04d}.csv") for k in range(1, self.FRAMES + 1)]
        return {"stdout": raw, "frames": frames}

    def verify(self, op: Op, out: dict) -> None:
        printed = json.loads(out["stdout"])
        _require(printed["steps"] == round(self.T / self.DT) and printed["frames"] == self.FRAMES,
                 f"ran {printed['steps']} steps into {printed['frames']} frames")
        for k, frame in enumerate(out["frames"], start=1):
            drift = abs(matrix_mass(self.lattice, frame) - 1.0)
            _require(drift <= 1e-4, f"frame {k} mass drift {drift:.2e} > 1e-4")
        err = _max_abs(out["frames"][-1], self.inputs(op.data["unit"])["oracle"])
        _require(err <= 1e-5, f"last frame differs from the split-step oracle by {err:.2e}")

    def self_test(self, stats: Stats, last_unit: int) -> None:
        """A final frame perturbed by 1e-4 at one point must fail the oracle gate."""
        op = self.ops(last_unit)[0]

        def perturb(out):
            frames = [f.copy() for f in out["frames"]]
            frames[-1][self.n_points // 2, self.n_points // 2] += 1e-4
            return {**out, "frames": frames}

        stdout = (self.work / f"u{last_unit}" / "evolve.out").read_text()
        attempt(stats, self, op, corrupt=perturb, replay=(0.0, 0, stdout))


WORKLOADS = {w.name: w for w in (CliSession, ApiBatch, EvolveFrames)}
