import ast
import io
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    GaussianSpec, WaveFunction, WignerFunction, detect, gaussian_wavefunction, make_grid, wdf_from_wavefunction,
)
from wignerlab import cli, evolution
from wignerlab import io as wio
from wignerlab.cli import main
from wignerlab.errors import InvariantViolation
from wignerlab.filtering import GENERAL_COORDINATE
from wignerlab.wigner import wigner_values_of_amplitudes

from helpers import (
    desk_grid, evolve_in_process, oracle_load_matrix, oracle_save_matrix, per_slit_figure4_scan, traced_peak,
)


#: One run of each subcommand that builds an N x N matrix, on the files of ``budget_inputs``.
MATRIX_RUNS = [
    pytest.param(["wdf", "{state}"], id="wdf"),
    pytest.param(["filter", "{state}", "--filter", "{slit}", "--wdf"], id="filter-wdf"),
    pytest.param(["detect", "{state}", "{state}"], id="detect"),
    pytest.param(["evolve", "{state}", "--potential", "{well}", "--t", "0.002", "--dt", "0.001"], id="evolve"),
    pytest.param(["overlap", "{state}", "{state}"], id="overlap"),
    pytest.param(["blob", "{state}"], id="blob"),
    pytest.param(["figure", "fig2"], id="figure"),
]


#: The refusal of a packet centred at p = 0 whose momentum content overflows the band of -12:12:256.
P_BAND_MISFIT = ("packet of width {width} centred at p = 0.0 does not fit the p range [-16.7552, 16.6243] "
                 "of the lattice (relative edge amplitude {edge})")


@pytest.fixture(scope="module")
def budget_inputs(tmp_path_factory):
    """A cat state on -12:12:256, a coordinate slit and a quartic well, as CLI input files."""
    tmp = tmp_path_factory.mktemp("budget")
    main(["state", "--cat", "d=4", "qi=1", "--grid=-12:12:256", "--out", str(tmp)])
    slit = {"kind": "coordinate", "device": {"gaussian": {"width": 0.8, "center": 0.5}}}
    (tmp / "slit.json").write_text(json.dumps(slit))
    (tmp / "well.json").write_text(json.dumps({"coefficients": [0, 0, 0.5, 0, 0.01]}))
    return {"state": str(tmp / "state.csv"), "slit": str(tmp / "slit.json"), "well": str(tmp / "well.json")}


#: A run of each subcommand and the ``sidecar_inputs`` whose sidecars it reads, in order: one read per CSV input
#: argument, and one per CSV filter device.
SIDECAR_READS = [
    pytest.param(["state", "--gaussian", "q0=1", "--grid=-12:12:128"], [], id="state"),
    pytest.param(["figure", "fig3", "--grid=-12:12:128"], [], id="figure"),
    pytest.param(["wdf", "{state}"], ["state"], id="wdf"),
    pytest.param(["wdf", "{wdf}"], ["wdf"], id="wdf-matrix"),
    pytest.param(["blob", "{state}"], ["state"], id="blob"),
    pytest.param(["evolve", "{state}", "--potential", "{well}", "--t", "0.002", "--dt", "0.001"], ["state"],
                 id="evolve"),
    pytest.param(["detect", "{wdf}", "{state}"], ["wdf", "state"], id="detect"),
    pytest.param(["overlap", "{wdf}", "{state}"], ["wdf", "state"], id="overlap"),
    pytest.param(["filter", "{state}", "--filter", "{slit}"], ["state"], id="filter"),
    pytest.param(["filter", "{state}", "--filter", "{slit}", "--wdf"], ["state"], id="filter-wdf"),
    pytest.param(["filter", "{state}", "--filter", "{device}"], ["state", "state"], id="filter-csv-device"),
    pytest.param(["filter", "{state}", "--filter", "{device}", "--wdf"], ["state", "state"],
                 id="filter-wdf-csv-device"),
]


@pytest.fixture(scope="module")
def sidecar_inputs(tmp_path_factory):
    """A Gaussian state on -12:12:128, its distribution, a quadratic well, and a slit given inline and as a CSV."""
    tmp = tmp_path_factory.mktemp("sidecars")
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), make_grid(-12, 12, 128))
    wio.save_wavefunction(psi, tmp / "state.csv")
    wio.save_matrix(wdf_from_wavefunction(psi), tmp / "wdf.csv")
    (tmp / "slit.json").write_text(json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 0.8}}}))
    (tmp / "device.json").write_text(json.dumps({"kind": "coordinate", "device": "state.csv"}))
    (tmp / "well.json").write_text(json.dumps({"coefficients": [0, 0, 0.5]}))
    files = ("state.csv", "wdf.csv", "slit.json", "device.json", "well.json")
    return {Path(file).stem: str(tmp / file) for file in files}


class TestRoundTrips:
    def test_wavefunction(self, tmp_path, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=0.5, momentum_offset=1.0), grid)
        files = wio.save_wavefunction(psi, tmp_path / "state.csv")
        assert all(f.exists() for f in files)
        loaded = wio.load_wavefunction(tmp_path / "state.csv")
        assert loaded.grid == psi.grid
        assert loaded.representation == psi.representation
        assert np.array_equal(loaded.values, psi.values)

    def test_wigner_matrix(self, tmp_path, grid):
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        wio.save_matrix(w, tmp_path / "w.csv")
        loaded = wio.load_wigner(tmp_path / "w.csv")
        assert loaded.grid == w.grid
        assert np.array_equal(loaded.values, w.values)

    def test_load_state_takes_the_kind_its_sidecar_names(self, tmp_path, grid, monkeypatch):
        # each loader reads its sidecar once, before its CSV
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        w = wdf_from_wavefunction(psi)
        wio.save_wavefunction(psi, tmp_path / "state.csv")
        wio.save_matrix(w, tmp_path / "w.csv")
        reads = []
        read_sidecar = wio._read_sidecar
        monkeypatch.setattr(wio, "_read_sidecar", lambda *args: reads.append(args[0]) or read_sidecar(*args))
        loaded = wio.load_state(tmp_path / "state.csv")
        assert type(loaded) is WaveFunction and np.array_equal(loaded.values, psi.values)
        assert np.array_equal(wio.load_state(tmp_path / "w.csv").values, w.values)
        assert reads == [tmp_path / "state.csv", tmp_path / "w.csv"]
        # a detector readout is no state: every loader refuses it at its sidecar, before its CSV is read
        wio.save_matrix(detect(w, w), tmp_path / "det.csv")
        for load, kinds in ((wio.load_state, "wavefunction or matrix"), (wio.load_wigner, "matrix"),
                            (wio.load_wavefunction, "wavefunction")):
            refusal = f"{tmp_path / 'det.csv'} must be a {kinds} file, got a detection map file"
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                load(tmp_path / "det.csv")

    @pytest.mark.parametrize("argv, read", SIDECAR_READS)
    def test_main_reads_each_sidecar_once(self, sidecar_inputs, tmp_path, capsys, monkeypatch, argv, read):
        # the memory budget and the loader share one read of each input's sidecar
        reads = []
        read_sidecar = wio._read_sidecar
        monkeypatch.setattr(wio, "_read_sidecar", lambda *args: reads.append(str(args[0])) or read_sidecar(*args))
        out = [] if argv[0] == "overlap" else ["--out", str(tmp_path / "o")]
        assert main([token.format(**sidecar_inputs) for token in argv] + out) == 0
        assert reads == [sidecar_inputs[name] for name in read]

    def test_detection_map_sidecar_names_its_kind(self, tmp_path, grid):
        # the CSV of a detection map is the one its values make as a distribution; only its sidecar tells them apart
        w = wdf_from_wavefunction(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        m = detect(w, w)
        assert wio.save_matrix(m, tmp_path / "det.csv") == [tmp_path / "det.csv", tmp_path / "det.json"]
        wio.save_matrix(WignerFunction(m.grid, m.values), tmp_path / "w.csv")
        assert (tmp_path / "det.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()
        meta, grid_fields = (json.loads((tmp_path / f"{stem}.json").read_text()) for stem in ("det", "w"))
        assert meta == {**grid_fields, "representation": "detection map"}
        assert set(grid_fields) == {"q_min", "delta_q", "n_points", "hbar"}

    def test_header_and_sidecar_schema(self, tmp_path, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        wio.save_wavefunction(psi, tmp_path / "state.csv")
        first_line = (tmp_path / "state.csv").read_text().splitlines()[0]
        assert first_line == "q,re,im"
        meta = json.loads((tmp_path / "state.json").read_text())
        assert set(meta) == {"q_min", "delta_q", "n_points", "hbar", "representation"}

    def test_momentum_representation_round_trip(self, tmp_path, grid):
        from wignerlab import fourier_transform

        psi_bar = fourier_transform(gaussian_wavefunction(GaussianSpec(width=1.0), grid))
        wio.save_wavefunction(psi_bar, tmp_path / "state_p.csv")
        assert (tmp_path / "state_p.csv").read_text().splitlines()[0] == "p,re,im"
        loaded = wio.load_wavefunction(tmp_path / "state_p.csv")
        assert loaded.representation == "momentum"
        assert np.array_equal(loaded.values, psi_bar.values)

    def test_filter_spec_with_inline_device(self, tmp_path, grid):
        spec_path = tmp_path / "filter.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "general_coordinate",
                    "p_offset": 5 * grid.delta_p,
                    "device": {"gaussian": {"width": 1.2, "center": 0.5}},
                }
            )
        )
        spec = wio.load_filter_spec(spec_path, grid)
        assert spec.kind == GENERAL_COORDINATE
        assert spec.p_offset == 5 * grid.delta_p
        assert spec.device.grid == grid

    def test_filter_spec_with_csv_device(self, tmp_path, grid):
        device = gaussian_wavefunction(GaussianSpec(width=1.0), grid)
        wio.save_wavefunction(device, tmp_path / "device.csv")
        spec_path = tmp_path / "filter.json"
        spec_path.write_text(json.dumps({"kind": "coordinate", "device": "device.csv"}))
        spec = wio.load_filter_spec(spec_path, grid)
        assert np.array_equal(spec.device.values, device.values)

    def test_potential_spec(self, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps({"coefficients": [0.0, 0.0, 0.5], "mass": 2.0}))
        v = wio.load_potential_spec(path)
        assert v.coefficients == (0.0, 0.0, 0.5)
        assert v.mass == 2.0


class TestCli:
    def test_state_and_determinism(self, tmp_path, capsys):
        args = ["state", "--cat", "d=4", "qi=1", "--grid=-12:12:512"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["norm"] == pytest.approx(1.0, abs=1e-10)
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/state.csv").read_bytes() == (tmp_path / "b/state.csv").read_bytes()

    def test_grid_flag_with_space(self, tmp_path):
        # '--grid -12:12:256' must parse despite the leading dash
        assert main(["state", "--gaussian", "q0=1", "--grid", "-12:12:256",
                     "--out", str(tmp_path)]) == 0

    def test_manifest_lists_outputs(self, tmp_path):
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "state"
        for name in manifest["outputs"]:
            assert (tmp_path / name.split("/")[-1]).exists()

    def test_wdf_metrics(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        capsys.readouterr()
        assert main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["purity"] == pytest.approx(1.0, abs=1e-8)
        assert metrics["uncertainty_product"] == pytest.approx(0.5, abs=1e-8)
        assert metrics["mass"] == pytest.approx(1.0, abs=1e-8)

    def test_wdf_reports_cat_negativity(self, tmp_path, capsys):
        main(["state", "--cat", "d=4", "qi=1", "--out", str(tmp_path / "s")])
        capsys.readouterr()
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["min_value"] < 0

    def test_overlap_identical_states(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        capsys.readouterr()
        assert main(["overlap", str(tmp_path / "s/state.csv"), str(tmp_path / "s/state.csv")]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-8)

    @staticmethod
    def _matrix_of_mass(tmp_path, mass):
        """A Gaussian distribution on -8:8:64 scaled to ``mass``, saved as a matrix CSV; its path."""
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        w = wio.load_wigner(tmp_path / "w/wdf.csv")
        path = tmp_path / "w/scaled.csv"
        wio.save_matrix(WignerFunction(w.grid, w.values * (mass / w.mass())), path)
        return path

    def test_overlap_rejects_unnormalized_matrix(self, tmp_path, capsys):
        tripled = self._matrix_of_mass(tmp_path, 3.0)
        capsys.readouterr()
        assert main(["overlap", str(tmp_path / "w/wdf.csv"), str(tripled)]) == 1
        assert "total mass 3 " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wdf", "detect"])
    def test_loaded_matrix_above_unit_mass_exits_1(self, tmp_path, capsys, command):
        tripled = self._matrix_of_mass(tmp_path, 3.0)
        inputs = [str(tripled)] if command == "wdf" else [str(tmp_path / "w/wdf.csv"), str(tripled)]
        capsys.readouterr()
        assert main([command, *inputs, "--out", str(tmp_path / "o")]) == 1
        assert "total mass 3 " in capsys.readouterr().err

    @pytest.mark.parametrize("excess, rc", [(3e-6, 1), (3e-7, 0)])
    def test_load_gate_from_both_sides(self, tmp_path, capsys, excess, rc):
        path = self._matrix_of_mass(tmp_path, 1.0 + excess)
        capsys.readouterr()
        assert main(["wdf", str(path), "--out", str(tmp_path / "o")]) == rc
        assert ("exceeds 1 by more than 1e-6" in capsys.readouterr().err) == bool(rc)

    @pytest.mark.parametrize("deficit, rc", [(3e-6, 1), (3e-7, 0)])
    def test_overlap_gate_from_both_sides(self, tmp_path, capsys, deficit, rc):
        path = self._matrix_of_mass(tmp_path, 1.0 - deficit)
        capsys.readouterr()
        assert main(["overlap", str(tmp_path / "w/wdf.csv"), str(path)]) == rc
        assert ("deviates from 1 by more than 1e-6" in capsys.readouterr().err) == bool(rc)

    def test_filter_output_below_unit_mass_loads(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1.5", "--out", str(tmp_path / "s")])
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}})
        )
        main(["filter", str(tmp_path / "s/state.csv"), "--filter", str(tmp_path / "filter.json"),
              "--wdf", "--out", str(tmp_path / "f")])
        capsys.readouterr()
        assert main(["wdf", str(tmp_path / "f/filtered_wdf.csv"), "--out", str(tmp_path / "w")]) == 0
        assert json.loads(capsys.readouterr().out)["mass"] < 0.5

    def test_wdf_of_filter_output_reads_the_state_it_carries(self, tmp_path, capsys):
        # a width-1.5 Gaussian through a width-1 slit: mass 0.313, but purity and uncertainty of the pure output
        main(["state", "--gaussian", "q0=1.5", "--out", str(tmp_path / "s")])
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}})
        )
        main(["filter", str(tmp_path / "s/state.csv"), "--filter", str(tmp_path / "filter.json"),
              "--wdf", "--out", str(tmp_path / "f")])
        capsys.readouterr()
        assert main(["wdf", str(tmp_path / "f/filtered_wdf.csv"), "--out", str(tmp_path / "w")]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["mass"] == pytest.approx(0.313, abs=1e-3)
        assert metrics["uncertainty_product"] >= 0.5 - 1e-6
        assert metrics["purity"] == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _folded_files(tmp_path):
        """A width-1 Gaussian on -8:8:64 kicked to 1.2 times the lattice's last p, as a state file and, folded into
        the band, as a matrix file; with a state inside the band, a slit and a harmonic well.  Paths by name."""
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        g = wio.load_wavefunction(tmp_path / "s/state.csv").grid
        values = np.exp(-(g.q**2) / 2 + 1.2j * g.p[-1] * g.q / g.hbar) / np.pi**0.25
        wio.save_wavefunction(WaveFunction(g, values), tmp_path / "kicked.csv")
        wio.save_matrix(WignerFunction(g, wigner_values_of_amplitudes(values, g)), tmp_path / "folded.csv")
        (tmp_path / "slit.json").write_text(json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}}))
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5]}))
        return {"kicked": str(tmp_path / "kicked.csv"), "folded": str(tmp_path / "folded.csv"),
                "state": str(tmp_path / "s/state.csv"), "slit": str(tmp_path / "slit.json"),
                "well": str(tmp_path / "harmonic.json")}

    #: Every command that reads a state, ``{x}`` the input under test.
    BAND_RUNS = {
        "wdf": ["wdf", "{x}"],
        "filter": ["filter", "{x}", "--filter", "{slit}"],
        "filter-wdf": ["filter", "{x}", "--filter", "{slit}", "--wdf"],
        "detect": ["detect", "{x}", "{state}"],
        "detect-device": ["detect", "{state}", "{x}"],
        "overlap": ["overlap", "{x}", "{state}"],
        "blob": ["blob", "{x}"],
        "evolve": ["evolve", "{x}", "--potential", "{well}", "--t", ".01", "--dt", ".001"],
    }

    @pytest.mark.parametrize("command", BAND_RUNS)
    def test_state_file_beyond_the_band_is_refused(self, tmp_path, capsys, command):
        # its distribution would fold it back into the band; each reader refuses it before the command writes
        files = self._folded_files(tmp_path)
        argv = [a.format(x=files["kicked"], **files) for a in self.BAND_RUNS[command]]
        capsys.readouterr()
        assert main(argv + ([] if command == "overlap" else ["--out", str(tmp_path / "o")])) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation: momentum density 1.00e+00 of the state at or beyond ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [c for c in BAND_RUNS if not c.startswith("filter")])  # filter reads a state
    def test_folded_matrix_is_refused(self, tmp_path, capsys, command):
        files = self._folded_files(tmp_path)
        argv = [a.format(x=files["folded"], **files) for a in self.BAND_RUNS[command]]
        capsys.readouterr()
        assert main(argv + ([] if command == "overlap" else ["--out", str(tmp_path / "o")])) == 1
        out, err = capsys.readouterr()
        assert out == "" and re.match(r"invariant violation: momentum density \S+ of the .+ at or beyond ", err)
        assert not (tmp_path / "o").exists()  # evolve too: it makes the directory at its first frame

    @pytest.mark.parametrize("command", ["wdf", "detect", "evolve", "blob"])
    def test_mass_refusal_writes_nothing(self, tmp_path, capsys, command):
        tripled = str(self._matrix_of_mass(tmp_path, 3.0))
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5]}))
        argv = {
            "wdf": ["wdf", tripled],
            "detect": ["detect", str(tmp_path / "w/wdf.csv"), tripled],
            "evolve": ["evolve", tripled, "--potential", str(tmp_path / "harmonic.json"), "--t", ".01", "--dt", ".001"],
            "blob": ["blob", tripled],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("invariant violation: total mass 3 of the ")
        assert not (tmp_path / "o").exists()  # evolve too: it makes the directory at its first frame

    @staticmethod
    def _tripled_state(tmp_path):
        """A width-1.5 Gaussian state file scaled to squared norm 3, and a width-1 slit; their paths."""
        main(["state", "--gaussian", "q0=1.5", "--out", str(tmp_path / "s")])
        path = tmp_path / "s/state.csv"
        psi = wio.load_wavefunction(path)
        wio.save_wavefunction(WaveFunction(psi.grid, np.sqrt(3.0) * psi.values), path)
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}})
        )
        return str(path), str(tmp_path / "filter.json")

    def test_filter_refused_before_writing_leaves_no_directory(self, tmp_path, capsys):
        # a state file of squared norm 3: filter_wavefunction refuses it before filtered.csv is written
        path, slit = self._tripled_state(tmp_path)
        capsys.readouterr()
        assert main(["filter", path, "--filter", slit, "--wdf", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("invariant violation: total mass 3 of the state")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["filter", "wdf", "detect", "overlap"])  # filter --wdf: the test above
    def test_state_file_of_squared_norm_3_is_refused(self, tmp_path, capsys, command):
        # filter without --wdf read the file as given and printed a transmission of 3 x 0.313
        path, slit = self._tripled_state(tmp_path)
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "n")])
        other = str(tmp_path / "n/state.csv")
        argv = {"filter": ["filter", path, "--filter", slit], "wdf": ["wdf", path],
                "detect": ["detect", path, other], "overlap": ["overlap", path, other]}[command]
        capsys.readouterr()
        assert main(argv + ([] if command == "overlap" else ["--out", str(tmp_path / "o")])) == 1  # overlap writes none
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation: total mass 3 of the state deviates from 1 by ")
        assert not (tmp_path / "o").exists()

    def test_overlap_rejects_filter_output_below_unit_mass(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1.5", "--out", str(tmp_path / "s")])
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}})
        )
        main(["filter", str(tmp_path / "s/state.csv"), "--filter", str(tmp_path / "filter.json"),
              "--wdf", "--out", str(tmp_path / "f")])
        capsys.readouterr()
        filtered = tmp_path / "f/filtered_wdf.csv"
        assert main(["overlap", str(tmp_path / "s/state.csv"), str(filtered)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: total mass 0.")
        assert err.endswith(" of the second distribution deviates from 1 by more than 1e-6\n")

    def test_matrix_without_sidecar_exits_2_naming_it(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        (tmp_path / "w/wdf.json").unlink()
        capsys.readouterr()
        assert main(["blob", str(tmp_path / "w/wdf.csv"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'w/wdf.csv'} has no metadata sidecar wdf.json\n"

    def test_filter_and_detect(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1.5", "--out", str(tmp_path / "s")])
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "coordinate", "device": {"gaussian": {"width": 1.0}}})
        )
        capsys.readouterr()
        rc = main(
            ["filter", str(tmp_path / "s/state.csv"), "--filter", str(tmp_path / "filter.json"),
             "--wdf", "--out", str(tmp_path / "f")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transmission"] == pytest.approx(1 / np.sqrt(np.pi * 3.25), rel=1e-8)
        assert (tmp_path / "f/filtered_wdf.csv").exists()

        rc = main(["detect", str(tmp_path / "s/state.csv"), str(tmp_path / "s/state.csv"),
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["min"] >= -1e-12

    def test_momentum_representation_input_matches_position_twin(self, tmp_path, capsys):
        from wignerlab import fourier_transform, inverse_fourier_transform

        grid = desk_grid()
        psi_bar = fourier_transform(gaussian_wavefunction(GaussianSpec(width=1.5, center=0.5), grid))
        wio.save_wavefunction(psi_bar, tmp_path / "state_p.csv")
        wio.save_wavefunction(inverse_fourier_transform(psi_bar), tmp_path / "state_q.csv")
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "general_coordinate", "p_offset": 3 * grid.delta_p,
                        "device": {"gaussian": {"width": 1.0}}})
        )
        outputs = {}
        for twin in ("p", "q"):
            state = str(tmp_path / f"state_{twin}.csv")
            capsys.readouterr()
            assert main(["wdf", state, "--out", str(tmp_path / f"w_{twin}")]) == 0
            assert main(["filter", state, "--filter", str(tmp_path / "filter.json"), "--wdf",
                         "--out", str(tmp_path / f"f_{twin}")]) == 0
            outputs[twin] = [
                capsys.readouterr().out,
                wio.load_wigner(tmp_path / f"w_{twin}/wdf.csv").values,
                wio.load_wavefunction(tmp_path / f"f_{twin}/filtered.csv").values,
                wio.load_wigner(tmp_path / f"f_{twin}/filtered_wdf.csv").values,
            ]
        assert outputs["p"][0] == outputs["q"][0]
        for via_p, via_q in zip(outputs["p"][1:], outputs["q"][1:]):
            assert np.array_equal(via_p, via_q)

    def test_general_momentum_filter_routes_agree_silently(self, tmp_path):
        assert main(["state", "--gaussian", "q0=1", "center=0.5", "p0=0.5", "--grid=-12:12:128",
                     "--out", str(tmp_path / "s")]) == 0
        (tmp_path / "filter.json").write_text(
            json.dumps({"kind": "general_momentum", "q_offset": 0.75,
                        "device": {"gaussian": {"width": 0.8, "center": 1.0}}})
        )
        argv = ["filter", str(tmp_path / "s/state.csv"), "--filter", str(tmp_path / "filter.json"), "--wdf",
                "--out", str(tmp_path / "f")]
        result = subprocess.run([sys.executable, "-m", "wignerlab.cli", *argv], capture_output=True, text=True,
                                timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        transmission = json.loads(result.stdout)["transmission"]
        via_law = wio.load_wigner(tmp_path / "f/filtered_wdf.csv").values
        via_state = transmission * wdf_from_wavefunction(wio.load_wavefunction(tmp_path / "f/filtered.csv")).values
        assert np.max(np.abs(via_law - via_state)) <= 1e-12 * np.max(np.abs(via_law))

    def test_evolve_rotates_offset_packet(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1", "center=2", "--out", str(tmp_path / "s")])
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5], "mass": 1.0}))
        capsys.readouterr()
        rc = main(
            ["evolve", str(tmp_path / "s/state.csv"), "--potential", str(tmp_path / "harmonic.json"),
             "--t", "1.5708", "--dt", "2.5e-3", "--out", str(tmp_path / "e")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mass"] == pytest.approx(1.0, abs=1e-7)
        final = wio.load_wigner(tmp_path / "e" / f"wdf_{payload['frames']:04d}.csv")
        from wignerlab import expectation

        angle = np.arctan2(-expectation(final, lambda q, p: p), expectation(final, lambda q, p: q))
        assert angle == pytest.approx(1.5708, abs=1e-5)

    def test_evolve_accepts_a_coarse_step(self, tmp_path, capsys):
        # dt = 0.0314 is 11x the explicit-scheme bound 0.5*min(m*dq/p_max, dp/max|V'|) = 2.8e-3
        main(["state", "--gaussian", "q0=1", "center=2", "--out", str(tmp_path / "s")])
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5], "mass": 1.0}))
        capsys.readouterr()
        rc = main(
            ["evolve", str(tmp_path / "s/state.csv"), "--potential", str(tmp_path / "harmonic.json"),
             "--t", "1.5708", "--dt", "0.0315", "--out", str(tmp_path / "e")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 50
        assert payload["mass"] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("center", ["5.5", "6", "6.6"])
    def test_evolve_runs_every_packet_state_admits(self, tmp_path, capsys, center):
        # the fit rule admits centres up to 6.65 on -12:12:256, and evolve steps each such packet
        state = ["state", "--gaussian", "q0=1", f"center={center}", "--grid=-12:12:256", "--out", str(tmp_path / "s")]
        assert main(state) == 0
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5]}))
        assert main(["evolve", str(tmp_path / "s/state.csv"), "--potential", str(tmp_path / "harmonic.json"),
                     "--t", "0.5", "--dt", "1e-3", "--out", str(tmp_path / "e")]) == 0

    def test_figure_commands(self, tmp_path, capsys):
        assert main(["figure", "fig3", "--out", str(tmp_path / "f3")]) == 0
        w = wio.load_wigner(tmp_path / "f3/fig3_cat_wdf.csv")
        n = w.grid.n_points
        assert w.values[n // 2, n // 2] > w.values.max(axis=1)[np.argmin(np.abs(w.grid.q - 4.0))]

        assert main(["figure", "fig2", "--out", str(tmp_path / "f2")]) == 0
        assert (tmp_path / "f2/fig2_input_wdf.csv").exists()
        assert (tmp_path / "f2/fig2_filter_wdf.csv").exists()

    def test_fig2_warns_on_inverted_widths(self, tmp_path, capsys):
        rc = main(["figure", "fig2", "--qi", "0.5", "--qm", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        assert "expects q_i > q_m" in capsys.readouterr().err

    def test_fig4_ridges(self, tmp_path, capsys):
        assert main(["figure", "fig4", "--grid=-12:12:128", "--out", str(tmp_path)]) == 0
        scan = np.loadtxt(tmp_path / "fig4_scan.csv", delimiter=",", ndmin=2)
        meta = json.loads((tmp_path / "fig4_scan.json").read_text())
        centers = np.array(meta["D_values"])
        ridge = centers[np.argmax(scan.max(axis=1) * (centers > 0))]
        assert ridge == pytest.approx(4.0, abs=2 * 24 / 128)

    @pytest.mark.parametrize(
        "d, q_i, q_m, lattice",
        [
            pytest.param(4.0, 1.0, 1.0, (-12, 12, 256, 1.0), id="desk"),
            pytest.param(4.0, 1.0, 1.0, (-12, 12, 1024, 1.0), id="desk-1024"),
            pytest.param(3.0, 0.8, 0.5, (-12, 12, 256, 0.5), id="hbar-half-narrow-slit"),
            pytest.param(3.0, 1.0, 1.7, (-10, 14, 200, 2.0), id="odd-offset-hbar-2"),  # q = 0 is no lattice point
        ],
    )
    def test_fig4_scan_matches_the_per_slit_scan(self, d, q_i, q_m, lattice):
        # the outer product of slit intensity and one profile, against one pair correlation per slit center
        grid = make_grid(*lattice[:3], hbar=lattice[3])
        scan, centers = cli.figure4_scan(d, q_i, q_m, grid)
        reference, reference_centers = per_slit_figure4_scan(d, q_i, q_m, grid)
        np.testing.assert_array_equal(centers, reference_centers)
        assert np.max(np.abs(scan - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["wdf", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == 2
        assert main(["state", "--gaussian", "notakey=1", "--out", str(tmp_path)]) == 2
        assert main(["state", "--gaussian", "--cat", "q0=1", "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        capsys.readouterr()
        assert main(["filter", str(tmp_path / "s/state.csv"), "--filter", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, spec, message",
        [
            pytest.param("evolve", [1], "spec.json: a potential spec must be a JSON object, got list", id="potential-list"),
            pytest.param("evolve", {"coefficients": 5}, "spec.json: coefficients must be a list of numbers, got 5",
                         id="coefficients-number"),
            pytest.param("evolve", {"coefficients": []}, "potential needs 1 to 9 coefficients (degree at most 8), got 0",
                         id="coefficients-empty"),
            pytest.param("evolve", {"mass": 1}, "spec.json: missing field coefficients", id="coefficients-missing"),
            pytest.param("evolve", {"coefficients": [0, 0, True]},
                         "spec.json: coefficients[2] must be a finite number, got True", id="coefficient-boolean"),
            pytest.param("evolve", {"coefficients": [0, 0, float("nan")]},
                         "spec.json: coefficients[2] must be a finite number, got nan", id="coefficient-nan"),
            pytest.param("evolve", {"coefficients": [0, 0, 0.5], "mas": 2}, "spec.json: unknown field mas",
                         id="potential-unknown-field"),
            pytest.param("evolve", {"coefficients": [0, 0, 0.5], "mass": [1]},
                         "spec.json: mass must be a finite number, got [1]", id="mass-list"),
            pytest.param("evolve", {"coefficients": [0, 0, 0.5], "mass": float("inf")},
                         "spec.json: mass must be a finite number, got inf", id="mass-infinite"),
            pytest.param("filter", [1], "spec.json: a filter spec must be a JSON object, got list", id="filter-list"),
            pytest.param("filter", {"device": {"gaussian": {"width": 1}}}, "spec.json: missing field kind",
                         id="kind-missing"),
            pytest.param("filter", {"kind": "coordinate"}, "spec.json: missing field device", id="device-missing"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": 5}},
                         "spec.json: filter device must be a CSV path or an inline gaussian object, got {'gaussian': 5}",
                         id="device-gaussian-number"),
            pytest.param("filter", {"kind": "general_coordinate", "p_ofset": 0.5, "device": {"gaussian": {"width": 1}}},
                         "spec.json: unknown field p_ofset", id="filter-unknown-field"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": {"width": 1}, "center": 3}},
                         "spec.json: unknown field device.center", id="device-unknown-field"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": {"width": 1, "centre": 3}}},
                         "spec.json: unknown field device.gaussian.centre", id="gaussian-unknown-field"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": {"center": 1}}},
                         "spec.json: missing field device.gaussian.width", id="gaussian-width-missing"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": {"width": [1]}}},
                         "spec.json: device.gaussian.width must be a finite number, got [1]", id="device-width-list"),
            pytest.param("filter", {"kind": "coordinate", "device": {"gaussian": {"width": 1}}, "q_offset": [1]},
                         "spec.json: q_offset must be a finite number, got [1]", id="q-offset-list"),
            pytest.param("filter", {"kind": "general_momentum", "device": {"gaussian": {"width": 1}},
                                    "q_offset": float("nan")},
                         "spec.json: q_offset must be a finite number, got nan", id="q-offset-nan"),
            pytest.param("filter", {"kind": "general_momentum", "device": {"gaussian": {"width": 1}}, "q_offset": True},
                         "spec.json: q_offset must be a finite number, got True", id="q-offset-boolean"),
        ],
    )
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, command, spec, message):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        options = {
            "evolve": ["--potential", str(tmp_path / "spec.json"), "--t", "0.01", "--dt", "1e-3"],
            "filter": ["--filter", str(tmp_path / "spec.json")],
        }[command]
        capsys.readouterr()
        assert main([command, str(tmp_path / "s/state.csv"), *options, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["overlap", "detect", "blob"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda meta: [1, 2], "wdf.json: a metadata sidecar must be a JSON object, got list",
                         id="list"),
            pytest.param(lambda meta: {k: v for k, v in meta.items() if k != "n_points"},
                         "wdf.json: missing field n_points", id="missing-n-points"),
            pytest.param(lambda meta: {**meta, "n_points": 64.7}, "wdf.json: n_points must be an integer, got 64.7",
                         id="fractional-n-points"),
            pytest.param(lambda meta: {**meta, "hbar": True}, "wdf.json: hbar must be a finite number, got True",
                         id="boolean-hbar"),
            pytest.param(lambda meta: {**meta, "hbar_": 1}, "wdf.json: unknown field hbar_", id="unknown-field"),
        ],
    )
    def test_malformed_sidecar_is_a_usage_error(self, tmp_path, capsys, command, edit, message):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        sidecar = tmp_path / "w/wdf.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        capsys.readouterr()
        out = [] if command == "overlap" else ["--out", str(tmp_path / "o")]
        matrix = str(tmp_path / "w/wdf.csv")
        assert main([command, matrix, *([matrix] if command != "blob" else []), *out]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'w'}/{message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["state", "--gaussian", "q0=1", "--hbar", "inf"], "hbar must be a finite number, got inf",
                         id="state-hbar-inf"),
            pytest.param(["state", "--gaussian", "q0=1", "--grid=-12:1e309:256"],
                         "q_max must be a finite number, got inf", id="state-q-max-overflow"),
            pytest.param(["figure", "fig2", "--hbar", "inf"], "hbar must be a finite number, got inf",
                         id="figure-hbar-inf"),
            pytest.param(["figure", "fig2", "--qm", "0"], "width must be positive, got 0.0", id="figure-slit-width-zero"),
            pytest.param(["state", "--cat", "d=2", "qi=0.05"], P_BAND_MISFIT.format(width=0.05, edge="7.08e-01"),
                         id="cat-beyond-p-band"),
            pytest.param(["figure", "fig3", "--d", "2", "--qi", "0.05"],
                         P_BAND_MISFIT.format(width=0.05, edge="7.08e-01"), id="fig3-beyond-p-band"),
            pytest.param(["state", "--gaussian", "q0=1e-200"], P_BAND_MISFIT.format(width=1e-200, edge="1.00e+00"),
                         id="gaussian-width-1e-200"),
            pytest.param(["state", "--cat", "d=1", "qi=1e-200"], P_BAND_MISFIT.format(width=1e-200, edge="1.00e+00"),
                         id="cat-width-1e-200"),
            pytest.param(["figure", "fig2", "--qm", "1e-200"], P_BAND_MISFIT.format(width=1e-200, edge="1.00e+00"),
                         id="fig2-slit-width-1e-200"),
            pytest.param(["evolve", "{state}", "--potential", "{well}", "--t", "1e300", "--dt", "1e-10"],
                         "--t 1e+300 over --dt 1e-10 is not a finite step count", id="evolve-step-count-overflow"),
        ],
    )
    def test_run_refused_before_writing_leaves_no_directory(self, budget_inputs, tmp_path, capsys, argv, message):
        assert main([token.format(**budget_inputs) for token in argv] + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_failed_wdf_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])

        def violated(w):
            raise InvariantViolation("injected")

        monkeypatch.setattr(cli, "uncertainty_product", violated)
        capsys.readouterr()
        assert main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")]) == 1
        assert capsys.readouterr() == ("", "invariant violation: injected\n")
        assert not (tmp_path / "w/run_manifest.json").exists()

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        # corrupt the stored amplitudes so the distribution gate trips
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        csv_path = tmp_path / "s/state.csv"
        lines = csv_path.read_text().splitlines()
        q0, re0, im0 = lines[130].split(",")
        lines[130] = ",".join([q0, str(float(re0) * 1.8), im0])
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["wdf", str(csv_path), "--out", str(tmp_path / "w")]) == 1

    @pytest.mark.parametrize("source", ["wavefunction", "matrix"])
    def test_non_finite_input_is_an_invariant_violation(self, tmp_path, capsys, source):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        csv_path = tmp_path / "s/state.csv"
        if source == "matrix":
            main(["wdf", str(csv_path), "--out", str(tmp_path / "w")])
            csv_path = tmp_path / "w/wdf.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[32].split(",")
        fields[1] = "nan"
        lines[32] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["overlap", str(csv_path), str(csv_path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, argv, n_points",
        [
            ("_cmd_state", ["state", "--gaussian", "q0=1", "--grid=-12:12:16384"], "16384"),
            ("_cmd_wdf", ["wdf", "{state}"], "256"),
            ("_cmd_detect", ["detect", "{state}", "{state}"], "256"),
            ("_cmd_overlap", ["overlap", "{state}", "{state}"], "256"),
        ],
    )
    def test_out_of_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, argv, n_points):
        from wignerlab import cli

        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        capsys.readouterr()

        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, command, exhausted)
        assert main([token.format(state=tmp_path / "s/state.csv") for token in argv]) == 2
        assert capsys.readouterr().err == f"error: out of memory at N={n_points}; use a smaller grid\n"

    @pytest.mark.parametrize("argv", MATRIX_RUNS)
    def test_grid_beyond_available_memory_is_refused(self, budget_inputs, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_available_memory", lambda: cli.MEMORY_BUDGET * 8 * 256**2 - 1)
        out = [] if argv[0] == "overlap" else ["--out", str(tmp_path / "o")]
        assert main([token.format(**budget_inputs) for token in argv] + out) == 2
        assert capsys.readouterr().err == "error: out of memory at N=256; use a smaller grid\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("available", [None, "exact"], ids=["unreadable", "fits"])
    def test_grid_within_available_memory_runs(self, budget_inputs, tmp_path, capsys, monkeypatch, available):
        budget = cli.MEMORY_BUDGET * 8 * 256**2
        monkeypatch.setattr(cli, "_available_memory", lambda: None if available is None else budget)
        assert main(["wdf", budget_inputs["state"], "--out", str(tmp_path)]) == 0
        assert (tmp_path / "wdf.csv").exists()

    def test_budget_spares_vector_commands_and_io_errors(self, budget_inputs, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_available_memory", lambda: 1)
        assert main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")]) == 0
        assert main(["filter", budget_inputs["state"], "--filter", budget_inputs["slit"], "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["wdf", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no such file: {tmp_path / 'missing.csv'}\n"

    @pytest.mark.parametrize(
        "meminfo, expected",
        [
            ("MemTotal:       8000000 kB\nMemAvailable:   2048 kB\n", 2048 * 1024),
            ("MemTotal:       8000000 kB\n", None),
            ("MemAvailable: many kB\n", None),
            (OSError("no meminfo"), None),
        ],
        ids=["present", "absent", "garbled", "unreadable"],
    )
    def test_available_memory_reader(self, monkeypatch, meminfo, expected):
        def fake_open(path):
            if isinstance(meminfo, Exception):
                raise meminfo
            return io.StringIO(meminfo)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        assert cli._available_memory() == expected

    @pytest.mark.parametrize("argv", MATRIX_RUNS)
    def test_traced_peak_within_memory_budget(self, budget_inputs, tmp_path, capsys, argv):
        # the budget is honest only if no subcommand needs more than it assumes
        out = [] if argv[0] == "overlap" else ["--out", str(tmp_path)]
        rc, peak = traced_peak(lambda: main([token.format(**budget_inputs) for token in argv] + out))
        assert rc == 0
        assert peak <= cli.MEMORY_BUDGET * 8 * 256**2

    @pytest.mark.parametrize(
        "times, flag",
        [
            (["--t", "-1", "--dt", "1e-3"], "--t"),
            (["--t", "0", "--dt", "1e-3"], "--t"),
            (["--t", "nan", "--dt", "1e-3"], "--t"),
            (["--t", "inf", "--dt", "1e-3"], "--t"),
            (["--t", "0.01", "--dt=-1e-3"], "--dt"),
            (["--t", "0.01", "--dt", "0"], "--dt"),
            (["--t", "0.01", "--dt", "nan"], "--dt"),
            (["--t", "0.01", "--dt", "1e-3", "--dump-every", "-1"], "--dump-every"),
        ],
    )
    def test_evolve_rejects_bad_times_before_writing(self, tmp_path, capsys, times, flag):
        main(["state", "--gaussian", "q0=1", "--out", str(tmp_path / "s")])
        (tmp_path / "harmonic.json").write_text(json.dumps({"coefficients": [0, 0, 0.5], "mass": 1.0}))
        capsys.readouterr()
        rc = main(
            ["evolve", str(tmp_path / "s/state.csv"), "--potential", str(tmp_path / "harmonic.json"),
             *times, "--out", str(tmp_path / "e")]
        )
        assert rc == 2
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


@pytest.fixture(scope="module")
def evolve_inputs(tmp_path_factory):
    """Gaussian states on N=256 and N=64, one that runs off a free lattice, and their potentials."""
    tmp = tmp_path_factory.mktemp("evolve")
    main(["state", "--gaussian", "q0=1", "center=0.5", "--grid=-12:12:256", "--out", str(tmp / "n256")])
    main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp / "n64")])
    main(["state", "--gaussian", "q0=1", "center=-3", "p0=3", "--grid=-10:10:128", "--out", str(tmp / "runaway")])
    (tmp / "well.json").write_text(json.dumps({"coefficients": [0, 0, 0.5, 0, 0.01]}))
    (tmp / "free.json").write_text(json.dumps({"coefficients": [0]}))
    return tmp


def _evolve_argv(inputs, state, t, dt, dump_every, out, potential="well.json"):
    return ["evolve", str(inputs / state / "state.csv"), "--potential", str(inputs / potential),
            "--t", t, "--dt", dt, "--dump-every", dump_every, "--out", str(out)]


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEvolveWriters:
    """Frames 1..n-1 of ``evolve`` are written by a forked child while the next frame's steps run."""

    @pytest.mark.parametrize(
        "state, t, dump_every",
        [("n256", "0.15", "50"), ("n256", "0.15", "0"), ("n64", "0.012", "1"), ("n256", "0.15", "30")],
        ids=["n256-every50", "n256-once", "n64-every1", "n256-every30"],
    )
    def test_outputs_equal_in_process_writes(self, evolve_inputs, tmp_path, capsys, state, t, dump_every):
        out = tmp_path / "e"
        assert main(_evolve_argv(evolve_inputs, state, t, "1e-3", dump_every, out)) == 0
        printed, forked = capsys.readouterr().out, _snapshot(out)
        _assert_no_child_left()
        shutil.rmtree(out)
        state_csv = evolve_inputs / state / "state.csv"
        expected = evolve_in_process(state_csv, evolve_inputs / "well.json", float(t), 1e-3, int(dump_every), out)
        assert printed == expected
        assert forked == _snapshot(out)
        assert len(forked) == 2 * json.loads(printed)["frames"] + 1

    def test_edge_abort_leaves_complete_frames_and_no_child(self, evolve_inputs, tmp_path, capsys):
        out = tmp_path / "e"
        assert main(_evolve_argv(evolve_inputs, "runaway", "4", "0.05", "8", out, potential="free.json")) == 1
        assert "at step 32: the state reached the lattice boundary" in capsys.readouterr().err
        _assert_no_child_left()
        forked = _snapshot(out)
        shutil.rmtree(out)
        with pytest.raises(InvariantViolation):
            evolve_in_process(evolve_inputs / "runaway/state.csv", evolve_inputs / "free.json", 4.0, 0.05, 8, out)
        assert forked == _snapshot(out)
        assert sorted(forked) == [f"wdf_{k:04d}.{ext}" for k in (1, 2, 3) for ext in ("csv", "json")]

    def test_failed_writer_is_repeated_and_its_error_exits_2(self, evolve_inputs, tmp_path, capsys):
        out = tmp_path / "e"
        (out / "wdf_0001.csv").mkdir(parents=True)
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "4", out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "wdf_0001.csv" in captured.err
        assert captured.out == ""
        _assert_no_child_left()
        assert not (out / "run_manifest.json").exists()

    def test_writer_that_fails_once_gives_correct_bytes(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        parent, save = os.getpid(), wio.save_matrix

        def fails_in_child(w, path):
            if os.getpid() != parent:
                raise OSError("lost writer")
            return save(w, path)

        monkeypatch.setattr(wio, "save_matrix", fails_in_child)
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "4", tmp_path / "e")) == 0
        monkeypatch.undo()
        printed = capsys.readouterr().out
        state_csv, well = evolve_inputs / "n64/state.csv", evolve_inputs / "well.json"
        assert printed == evolve_in_process(state_csv, well, 0.012, 1e-3, 4, tmp_path / "o")
        assert _snapshot(tmp_path / "e").keys() == _snapshot(tmp_path / "o").keys()
        for name, data in _snapshot(tmp_path / "e").items():
            if name != "run_manifest.json":
                assert data == (tmp_path / "o" / name).read_bytes()

    def test_at_most_one_writer_alive(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        fork, waitpid = os.fork, os.waitpid
        live, forks, most = set(), [], [0]

        def counting_fork():
            pid = fork()
            if pid:
                live.add(pid)
                forks.append(pid)
                most[0] = max(most[0], len(live))
            return pid

        def counting_waitpid(pid, options):
            reaped = waitpid(pid, options)
            live.discard(reaped[0])
            return reaped

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "waitpid", counting_waitpid)
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "1", tmp_path / "e")) == 0
        assert json.loads(capsys.readouterr().out)["frames"] == 12
        assert (len(forks), most[0], live) == (12, 1, set())

    def test_without_fork_every_frame_is_written_in_process(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "4", tmp_path / "e")) == 0
        printed = capsys.readouterr().out
        monkeypatch.undo()
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "4", tmp_path / "f")) == 0
        assert capsys.readouterr().out == printed
        frames = [name for name in _snapshot(tmp_path / "e") if name != "run_manifest.json"]
        assert all((tmp_path / "e" / name).read_bytes() == (tmp_path / "f" / name).read_bytes() for name in frames)

    def test_fork_warning_alone_is_silenced(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        # the DeprecationWarning Python 3.12+ gives for fork in a threaded process, and one other
        fork = os.fork

        def warning_fork():
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks"
            warnings.warn(message + " in the child.", DeprecationWarning)
            warnings.warn("another deprecation", DeprecationWarning)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "4", tmp_path / "e")) == 0
        assert [str(w.message) for w in caught] == ["another deprecation"] * 3

    def test_one_json_line_from_a_fresh_process(self, evolve_inputs, tmp_path):
        argv = _evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "1", tmp_path / "e")
        result = subprocess.run([sys.executable, "-m", "wignerlab.cli", *argv], capture_output=True, text=True,
                                timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        (line,) = result.stdout.splitlines()
        assert json.loads(line)["frames"] == 12


class TestEvolveStream:
    """One stepper serves the whole ``evolve`` run: its phases, baselines and step count span every frame."""

    def test_phases_are_built_once_per_run(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        force_symbol, calls = evolution._force_symbol, []

        def counting_force_symbol(grid, u):
            calls.append(u)
            return force_symbol(grid, u)

        monkeypatch.setattr(evolution, "_force_symbol", counting_force_symbol)
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "1", tmp_path / "e")) == 0
        assert json.loads(capsys.readouterr().out)["frames"] == 12
        assert len(calls) == 2  # the potential's kick and the force-gradient kick

    def test_mass_drift_is_measured_over_the_run(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        # each drift loses 1e-6 of the mass, 2e-6 a step: 5e-5 a frame, 1e-4 only over three frames
        apply = evolution._apply

        def leaking_apply(values, symbol, axis):
            result = apply(values, symbol, axis)
            return result * (1.0 - 1e-6) if axis == 0 else result

        monkeypatch.setattr(evolution, "_apply", leaking_apply)
        out = tmp_path / "e"
        assert main(_evolve_argv(evolve_inputs, "n64", "0.1", "1e-3", "25", out)) == 1
        assert "invariant violation: mass drift 1.50e-04 at step 75 exceeds 1e-4" in capsys.readouterr().err
        _assert_no_child_left()
        assert sorted(_snapshot(out)) == [f"wdf_{k:04d}.{ext}" for k in (1, 2) for ext in ("csv", "json")]

    def test_amplitude_blow_up_aborts(self, evolve_inputs, tmp_path, capsys, monkeypatch):
        # each drift grows the values by 10%: about 117-fold by the first check, past the cap of ten times the start
        apply = evolution._apply

        def growing_apply(values, symbol, axis):
            result = apply(values, symbol, axis)
            return result * 1.1 if axis == 0 else result

        monkeypatch.setattr(evolution, "_apply", growing_apply)
        out = tmp_path / "e"
        assert main(_evolve_argv(evolve_inputs, "n64", "0.1", "1e-3", "25", out)) == 1
        assert capsys.readouterr().err.startswith("invariant violation: evolution went unstable at step 25 (peak ")
        _assert_no_child_left()
        assert not out.exists()  # the abort comes before the first frame, so no directory is made


def _special_matrix(n, rng):
    """Values of every magnitude, with -0.0, 5e-324, +-1e308 and each %.17g exponent form in both halves."""
    values = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-30, 30, size=(n, n))
    specials = [-0.0, 5e-324, 1e308, -1e308, 1e-5, 1.5e16, 123456789012345678.0, 0.1]
    for half in (0, n // 2):
        values[half, :len(specials)] = specials
        values[n - 1 - half, -len(specials):] = specials
    return values


def _whole_file_parses(monkeypatch):
    """Paths this process hands to ``np.loadtxt`` whole; the split parses iterators of lines."""
    parses, loadtxt = [], np.loadtxt

    def spy(source, *args, **kwargs):
        if isinstance(source, (str, os.PathLike)):
            parses.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return parses


@pytest.fixture(scope="module")
def matrix_inputs(tmp_path_factory):
    """A cat state on -12:12:256, its distribution matrix, a slit and a quartic well, as CLI input files."""
    tmp = tmp_path_factory.mktemp("matrix")
    main(["state", "--cat", "d=4", "qi=1", "--grid=-12:12:256", "--out", str(tmp)])
    main(["wdf", str(tmp / "state.csv"), "--out", str(tmp)])
    slit = {"kind": "coordinate", "device": {"gaussian": {"width": 0.8, "center": 0.5}}}
    (tmp / "slit.json").write_text(json.dumps(slit))
    (tmp / "well.json").write_text(json.dumps({"coefficients": [0, 0, 0.5, 0, 0.01]}))
    return {"state": str(tmp / "state.csv"), "wdf": str(tmp / "wdf.csv"), "slit": str(tmp / "slit.json"),
            "well": str(tmp / "well.json")}


class TestSplitMatrixIO:
    """Matrix CSVs are written and read in two row halves, the second by one forked helper."""

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_bytes_equal_the_one_process_writer(self, tmp_path, capfd, n):
        values = _special_matrix(n, np.random.default_rng(n))
        files = wio.save_matrix(WignerFunction(desk_grid(n), values), tmp_path / "split.csv")
        _assert_no_child_left()
        oracle_save_matrix(tmp_path / "oracle.csv", values)
        assert files == [tmp_path / "split.csv", tmp_path / "split.json"]
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        loaded = wio._load_matrix(tmp_path / "split.csv", n)
        _assert_no_child_left()
        assert loaded.tobytes() == oracle_load_matrix(tmp_path / "oracle.csv").tobytes()
        assert capfd.readouterr().err == ""

    def test_round_trip_is_bit_exact(self, tmp_path, capfd, monkeypatch, grid):
        psi = gaussian_wavefunction(GaussianSpec(width=1.0, center=0.5, momentum_offset=1.0), grid)
        w = wdf_from_wavefunction(psi)
        whole = _whole_file_parses(monkeypatch)
        loaded = wio.load_wigner(wio.save_matrix(w, tmp_path / "w.csv")[0])
        _assert_no_child_left()
        assert whole == []
        assert loaded.grid == w.grid
        assert loaded.values.tobytes() == w.values.tobytes()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_comment_and_blank_lines_in_each_half(self, tmp_path, capfd, monkeypatch, newline):
        n = 64
        oracle_save_matrix(tmp_path / "w.csv", _special_matrix(n, np.random.default_rng(7)))
        lines = (tmp_path / "w.csv").read_text().splitlines()
        for at in (3 * n // 4, n // 4):
            lines[at:at] = ["# a comment", ""]
        (tmp_path / "w.csv").write_bytes(newline.join(lines + [""]).encode())
        whole = _whole_file_parses(monkeypatch)
        loaded = wio._load_matrix(tmp_path / "w.csv", n)
        _assert_no_child_left()
        assert whole == []
        monkeypatch.undo()
        assert loaded.tobytes() == oracle_load_matrix(tmp_path / "w.csv").tobytes()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "rows, edit",
        [
            (slice(50, 51), lambda line: line.replace(",", ",1.2.3,", 1)),
            (slice(32, None), lambda line: line.split(",")[0]),
        ],
        ids=["malformed-field", "one-column-tail"],
    )
    def test_bad_rows_in_second_half_give_the_whole_file_error(self, tmp_path, capfd, monkeypatch, rows, edit):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        csv_path = tmp_path / "w/wdf.csv"
        lines = csv_path.read_text().splitlines()
        lines[rows] = [edit(line) for line in lines[rows]]
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as oracle:
            oracle_load_matrix(csv_path)
        assert f"row {rows.start + 1}" in str(oracle.value)
        capfd.readouterr()
        assert main(["blob", str(csv_path), "--out", str(tmp_path / "b")]) == 2
        _assert_no_child_left()
        split = capfd.readouterr()
        assert split.err == f"error: {oracle.value}\n"
        monkeypatch.delattr(os, "fork")
        assert main(["blob", str(csv_path), "--out", str(tmp_path / "b")]) == 2
        assert capfd.readouterr() == split

    @pytest.mark.parametrize("rows", [0, 3, 59, 74], ids=["empty", "short", "missing-rows", "extra-rows"])
    def test_wrong_row_count_warns_and_fails_as_the_whole_file_parse(self, tmp_path, capfd, monkeypatch, rows):
        oracle_save_matrix(tmp_path / "w.csv", np.ones((rows, 64)))
        wio.save_matrix(WignerFunction(desk_grid(64), np.ones((64, 64))), tmp_path / "full.csv")
        (tmp_path / "full.json").replace(tmp_path / "w.json")
        outcomes = []
        for serial in (False, True):
            if serial:
                monkeypatch.delattr(os, "fork")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError) as error:
                    wio.load_wigner(tmp_path / "w.csv")
            _assert_no_child_left()
            outcomes.append(([(w.category, str(w.message)) for w in caught], str(error.value), capfd.readouterr()))
        assert outcomes[0] == outcomes[1]
        caught, message, _ = outcomes[0]
        assert [category for category, _ in caught] == [UserWarning] * (rows == 0)
        shape = (rows, 64) if rows else (0, 1)
        assert message == f"expected values in Wigner matrix of shape (64, 64), got shape {shape}"

    def test_failed_helper_gives_the_oracle_bytes_and_values(self, tmp_path, capfd, monkeypatch):
        parent, formatted, loadtxt = os.getpid(), wio._formatted, np.loadtxt

        def only_in_parent(real):
            def call(*args, **kwargs):
                if os.getpid() != parent:
                    raise OSError("lost helper")
                return real(*args, **kwargs)
            return call

        values = _special_matrix(64, np.random.default_rng(3))
        oracle_save_matrix(tmp_path / "oracle.csv", values)
        monkeypatch.setattr(wio, "_formatted", only_in_parent(formatted))
        monkeypatch.setattr(np, "loadtxt", only_in_parent(loadtxt))
        wio.save_matrix(WignerFunction(desk_grid(64), values), tmp_path / "w.csv")
        _assert_no_child_left()
        loaded = wio._load_matrix(tmp_path / "oracle.csv", 64)
        _assert_no_child_left()
        monkeypatch.undo()
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert loaded.tobytes() == oracle_load_matrix(tmp_path / "oracle.csv").tobytes()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["wdf", "{state}", "--out", "{out}"], id="wdf"),
            pytest.param(["filter", "{state}", "--filter", "{slit}", "--wdf", "--out", "{out}"], id="filter-wdf"),
            pytest.param(["detect", "{wdf}", "{wdf}", "--out", "{out}"], id="detect"),
            pytest.param(["evolve", "{wdf}", "--potential", "{well}", "--t", "0.002", "--dt", "0.001",
                          "--dump-every", "1", "--out", "{out}"], id="evolve"),
            pytest.param(["overlap", "{wdf}", "{wdf}"], id="overlap"),
            pytest.param(["blob", "{wdf}", "--out", "{out}"], id="blob"),
            pytest.param(["figure", "fig2", "--out", "{out}"], id="fig2"),
            pytest.param(["figure", "fig4", "--out", "{out}"], id="fig4"),
        ],
    )
    def test_commands_without_fork_are_serial_and_equal(self, matrix_inputs, tmp_path, capfd, monkeypatch, argv):
        runs = []
        for name in ("split", "serial"):
            if name == "serial":
                monkeypatch.delattr(os, "fork")
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # printed paths are relative to the run's directory
            assert main([token.format(out="o", **matrix_inputs) for token in argv]) == 0
            _assert_no_child_left()
            files = _snapshot(tmp_path / name / "o") if (tmp_path / name / "o").exists() else {}
            runs.append((files, capfd.readouterr()))
        assert runs[0] == runs[1]

    def test_only_the_main_process_forks(self, matrix_inputs, evolve_inputs, tmp_path, capfd, monkeypatch):
        log, fork = tmp_path / "forks.log", os.fork

        def logging_fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logging_fork)
        assert main(_evolve_argv(evolve_inputs, "n64", "0.012", "1e-3", "1", tmp_path / "e")) == 0
        assert main(["detect", matrix_inputs["wdf"], matrix_inputs["wdf"], "--out", str(tmp_path / "d")]) == 0
        _assert_no_child_left()
        # 11 frame writers and the last frame's split, then two split reads and one split write
        assert log.read_text().split() == [str(os.getpid())] * 15
        assert capfd.readouterr().err == ""


def _csv_bytes(values):
    """What ``io._write_csv`` writes for ``values``, and what the oracle writes."""
    ours, oracle = io.BytesIO(), io.BytesIO()
    wio._write_csv(ours, values)
    oracle_save_matrix(oracle, values)
    return ours.getvalue(), oracle.getvalue()


def _powers_of_ten_and_neighbours():
    """Every double nearest 10**p for p in [-323, 308], with the doubles on either side of it."""
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


class TestMatrixWriter:
    """``io._write_csv`` writes exactly the oracle's ``%.17g`` bytes, formatting numpy blocks of values."""

    def test_random_bit_patterns_over_every_exponent(self):
        bits = np.random.default_rng(37).integers(0, 2**64, size=200_000, dtype=np.uint64)
        bits[::50] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals and zeros
        bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # nan and inf made finite
        values = bits.view(np.float64).reshape(400, 500)
        assert np.isfinite(values).all() and (np.abs(values[values != 0]) < 2.3e-308).sum() > 4000
        ours, oracle = _csv_bytes(values)
        assert ours == oracle

    def test_special_matrix(self):
        ours, oracle = _csv_bytes(_special_matrix(256, np.random.default_rng(37)))
        assert ours == oracle

    @pytest.mark.parametrize("columns", [1, 3, 1264])
    def test_powers_of_ten_and_their_neighbours(self, columns):
        values = _powers_of_ten_and_neighbours()
        ours, oracle = _csv_bytes(np.concatenate([values, -values]).reshape(-1, columns))
        assert ours == oracle

    def test_switch_points_of_g(self):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        ours, oracle = _csv_bytes(np.concatenate([values, -values])[:, None])
        assert ours == oracle
        assert ours.split(b"\n")[:4] == [b"1.0000000000000001e-05", b"0.0001", b"10000000000000000", b"1e+17"]

    def test_values_that_carry_to_the_next_power_of_ten(self):
        # doubles below a power of ten whose 17 digits round up to it, so d reaches 10**17
        written = {x: Decimal(wio._FMT % x) for x in _powers_of_ten_and_neighbours()}
        carried = [x for x, text in written.items() if Fraction(x) < text == Decimal(10) ** text.adjusted()]
        assert len(carried) >= 10
        ours, oracle = _csv_bytes(np.array(carried)[:, None])
        assert ours == oracle

    def test_an_exact_tie_rounds_half_to_even(self):
        ours, oracle = _csv_bytes(np.array([[2.0**-25, -(2.0**-25)]]))
        assert ours == oracle == b"2.9802322387695312e-08,-2.9802322387695312e-08\n"

    def test_signed_extremes_and_non_finite_values(self):
        values = np.array([[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                            np.nan, np.inf, -np.inf]])
        ours, oracle = _csv_bytes(values)
        assert ours == oracle == (b"0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,1.7976931348623157e+308,"
                                  b"-1.7976931348623157e+308,nan,inf,-inf\n")

    def test_every_element_on_the_python_path(self, monkeypatch):
        monkeypatch.setattr(wio, "_TIE", np.inf)  # every bound is inf, or nan for a zero
        values = _special_matrix(64, np.random.default_rng(5))
        values[3, :4] = [np.nan, np.inf, -np.inf, 2.0**-25]
        with np.errstate(invalid="ignore"):
            ours, oracle = _csv_bytes(values)
        assert ours == oracle

    def test_every_power_in_the_table_is_within_half_an_ulp(self):
        info = np.finfo(np.longdouble)
        largest = Fraction(*info.max.as_integer_ratio())
        checked = 0
        for p, power in zip(range(-310, 346), wio._tables()[1]):
            exact = Fraction(10) ** p
            if exact > largest:
                continue  # beyond a long double that is no wider than a double
            half_ulp = Fraction(2) ** (int(np.frexp(power)[1]) - info.nmant - 2)  # power = m 2**e, 1/2 <= m < 1
            assert abs(Fraction(*power.as_integer_ratio()) - exact) <= half_ulp, p
            checked += 1
        assert checked == 656 or info.nmant == 52

    @pytest.mark.parametrize("fork", [True, False], ids=["split", "serial"])
    def test_traced_peak_is_at_most_half_the_matrix(self, tmp_path, monkeypatch, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        w = WignerFunction(desk_grid(1024), _special_matrix(1024, np.random.default_rng(11)))
        _, peak = traced_peak(lambda: wio.save_matrix(w, tmp_path / "w.csv"))
        _assert_no_child_left()
        assert peak <= 0.5 * w.values.nbytes

    def test_no_module_calls_numpys_text_writer(self):
        # every CSV goes through io._write_csv; the oracle is the only caller of np.savetxt
        sources = Path(wio.__file__).parent.glob("*.py")
        assert [source.name for source in sources if "savetxt" in source.read_text()] == []


def test_only_io_forks_and_joins():
    # the CLI forks nothing: it names no fork, join or sidecar helper of io, and no other module forks or waits
    watched = {"fork", "waitpid"}
    found = set()
    for source in sorted(Path(wio.__file__).parent.glob("*.py")):
        names = watched | {"_fork", "_joined", "_sidecar_path"} if source.name == "cli.py" else watched
        for node in ast.walk(ast.parse(source.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name in names:
                found.add((source.name, name))
    assert sorted(found) == [("io.py", "fork"), ("io.py", "waitpid")]


def test_cli_imports_no_private_name_of_grid():
    # lattice kernels live in grid and the modules that use them; the CLI keeps no copy of one
    found = [
        alias.name
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("grid", "wignerlab.grid")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_main_writes_the_manifest_and_prints_the_record():
    # the one place a run ends; a print to sys.stderr (figure's warning, main's errors) may appear anywhere
    found = []
    for function in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                to_stderr = any(ast.unparse(keyword) == "file=sys.stderr" for keyword in node.keywords)
                if name == "write_manifest" or (name == "print" and not to_stderr):
                    found.append((function.name, name))
    assert sorted(found) == [("main", "print"), ("main", "write_manifest")]


def test_every_exported_name_resolves():
    import wignerlab

    assert [name for name in wignerlab.__all__ if not hasattr(wignerlab, name)] == []
    assert len(set(wignerlab.__all__)) == len(wignerlab.__all__)


def test_cli_import_leaves_scipy_signal_unloaded():
    # every lattice kernel runs on numpy alone: no scipy module gets loaded
    probe = textwrap.dedent(
        """
        import sys
        import wignerlab.cli
        from wignerlab import (
            FilterSpec, GaussianSpec, blob_report, detect, detect_from_wavefunctions,
            filter_wavefunction, filter_wdf, gaussian_wavefunction, make_grid, wdf_from_wavefunction,
        )
        g = make_grid(-8, 8, 64)
        psi = gaussian_wavefunction(GaussianSpec(width=1.0), g)
        w = wdf_from_wavefunction(psi)
        spec = FilterSpec(kind="general_coordinate", device=psi, p_offset=2 * g.delta_p)
        detect(w, w)
        filter_wdf(w, spec)
        filter_wavefunction(psi, spec)
        blob_report(w)
        detect_from_wavefunctions(psi, psi)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
