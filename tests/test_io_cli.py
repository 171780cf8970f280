import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from wignerlab import GaussianSpec, WignerFunction, gaussian_wavefunction, wdf_from_wavefunction
from wignerlab import io as wio
from wignerlab.cli import main
from wignerlab.filtering import GENERAL_COORDINATE

from helpers import desk_grid


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
        wio.save_wigner(w, tmp_path / "w.csv")
        loaded = wio.load_wigner(tmp_path / "w.csv")
        assert loaded.grid == w.grid
        assert np.array_equal(loaded.values, w.values)

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

    def test_overlap_rejects_unnormalized_matrix(self, tmp_path, capsys):
        main(["state", "--gaussian", "q0=1", "--grid=-8:8:64", "--out", str(tmp_path / "s")])
        main(["wdf", str(tmp_path / "s/state.csv"), "--out", str(tmp_path / "w")])
        w = wio.load_wigner(tmp_path / "w/wdf.csv")
        tripled = tmp_path / "w/tripled.csv"
        wio.save_wigner(WignerFunction(w.grid, 3.0 * w.values), tripled)
        capsys.readouterr()
        assert main(["overlap", str(tmp_path / "w/wdf.csv"), str(tripled)]) == 1
        assert "total mass 3 " in capsys.readouterr().err

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
