"""Refusals that no other test reaches, each reached once from a table.

A library row asserts the error class and the whole message; a CLI row asserts
exit code 2, the whole ``error:`` line on stderr and that no ``--out``
directory is left behind.  The number rule has its own table: every public
scalar parameter, given a value that is not a finite real number (or, for a
count, not an integer), is refused with the one message that names it.
"""

import re

import numpy as np
import pytest

from wignerlab import (
    CatSpec,
    EvolutionConfig,
    FilterSpec,
    GaussianSpec,
    Grid,
    GridMismatchError,
    InvariantViolation,
    PotentialSpec,
    WaveFunction,
    WignerFunction,
    detect,
    detect_from_wavefunctions,
    filter_wavefunction,
    filter_wdf,
    filtered_cat_wdf_closed_form,
    filtered_gaussian_wdf_closed_form,
    fourier_transform,
    gaussian_wavefunction,
    inner_product,
    make_grid,
    mixed_density,
    overlap_probability,
    propagate,
    smoothed_minimum,
    split_step_schrodinger,
    subplanck_scale,
    wdf_from_wavefunction,
)
from wignerlab import io as wio
from wignerlab.cli import figure4_scan, main
from wignerlab.filtering import COORDINATE, GENERAL_COORDINATE, GENERAL_MOMENTUM

from helpers import desk_grid

GRID = desk_grid()
OTHER = desk_grid(128)
PSI = gaussian_wavefunction(GaussianSpec(width=1.0), GRID)
ELSEWHERE = gaussian_wavefunction(GaussianSpec(width=1.0), OTHER)
# A momentum-representation state is read under the mass rule like its position twin.
MOMENTUM_MASS_4 = fourier_transform(WaveFunction(GRID, 2.0 * PSI.values))


def _truncated_state(tmp_path):
    """Load a state file whose last row is cut off."""
    path = wio.save_wavefunction(PSI, tmp_path / "state.csv")[0]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return wio.load_wavefunction(path)


def _overflowing_schrodinger_run(tmp_path):
    """A 1e308 well overflows, so the first check finds non-finite amplitudes."""
    with np.errstate(over="ignore", invalid="ignore"):
        return split_step_schrodinger(PSI, PotentialSpec((0.0, 0.0, 1e308)), EvolutionConfig(1e-3, 1))


LIBRARY = [
    ("grid-delta-q", lambda tmp: Grid(-1.0, -0.1, 8), ValueError, "delta_q must be positive, got -0.1"),
    ("grid-hbar", lambda tmp: Grid(-1.0, 0.1, 8, hbar=0.0), ValueError, "hbar must be positive, got 0.0"),
    ("grid-order", lambda tmp: make_grid(12, -12, 256), ValueError, "q_max must exceed q_min"),
    ("representation", lambda tmp: WaveFunction(GRID, PSI.values, "spin"), ValueError,
     "unknown representation 'spin'"),
    ("gaussian-width", lambda tmp: GaussianSpec(width=-2.0), ValueError, "width must be positive, got -2.0"),
    ("cat-width", lambda tmp: CatSpec(width=0.0, separation=1.0), ValueError, "width must be positive, got 0.0"),
    ("cat-separation", lambda tmp: CatSpec(width=1.0, separation=-1.0), ValueError,
     "separation must be nonnegative, got -1.0"),
    ("filtered-gaussian-width", lambda tmp: filtered_gaussian_wdf_closed_form(-1.0, 1.0, GRID), ValueError,
     "width must be positive, got -1.0"),
    ("mixture-weights", lambda tmp: mixed_density([PSI], [0.5, 0.5]), ValueError,
     "need one weight per state, got 2 for 1"),
    ("filter-kind", lambda tmp: FilterSpec("slit", PSI), ValueError, "unknown filter kind 'slit'"),
    ("filter-momentum-state", lambda tmp: filter_wavefunction(MOMENTUM_MASS_4, FilterSpec(COORDINATE, PSI)),
     InvariantViolation, "total mass 4 of the state deviates from 1 by more than 1e-6"),
    ("filter-wdf-grids", lambda tmp: filter_wdf(wdf_from_wavefunction(PSI), FilterSpec(COORDINATE, ELSEWHERE)),
     GridMismatchError, "the device lives on another grid than the state"),
    ("detect-grids", lambda tmp: detect(wdf_from_wavefunction(PSI), wdf_from_wavefunction(ELSEWHERE)),
     GridMismatchError, "the device lives on another grid than the state"),
    ("detect-amplitudes-grids", lambda tmp: detect_from_wavefunctions(PSI, ELSEWHERE), GridMismatchError,
     "the device lives on another grid than the state"),
    ("overlap-grids", lambda tmp: overlap_probability(wdf_from_wavefunction(PSI), wdf_from_wavefunction(ELSEWHERE)),
     GridMismatchError, "the second distribution lives on another grid than the first distribution"),
    ("mixture-grids", lambda tmp: mixed_density([PSI, ELSEWHERE], [0.5, 0.5]), GridMismatchError,
     "the state 1 of the mixture lives on another grid than the state 0 of the mixture"),
    ("inner-product-grids", lambda tmp: inner_product(PSI, ELSEWHERE), GridMismatchError,
     "the second wavefunction lives on another grid than the first wavefunction"),
    ("potential-coefficients", lambda tmp: PotentialSpec((0.0, float("nan"))), ValueError,
     "coefficients[1] must be a finite number, got nan"),
    ("step-count", lambda tmp: EvolutionConfig(1e-3, -1), ValueError, "n_steps must be nonnegative, got -1"),
    ("schrodinger-momentum-state",
     lambda tmp: split_step_schrodinger(MOMENTUM_MASS_4, PotentialSpec((0.0,)), EvolutionConfig(1e-3, 1)),
     InvariantViolation, "total mass 4 of the state deviates from 1 by more than 1e-6"),
    ("schrodinger-non-finite", _overflowing_schrodinger_run, InvariantViolation,
     "wavefunction became non-finite at step 1"),
    ("subplanck-flat", lambda tmp: subplanck_scale(WignerFunction(GRID, np.ones((256, 256)))), InvariantViolation,
     "distribution has no resolvable structure on this grid"),
    ("state-file-rows", _truncated_state, ValueError, "{tmp}/state.csv: expected 256 rows of q,re,im"),
    ("wigner-file-kind", lambda tmp: wio.load_wigner(wio.save_wavefunction(PSI, tmp / "state.csv")[0]), ValueError,
     "{tmp}/state.csv must be a matrix file, got a wavefunction file"),
    ("wavefunction-file-kind", lambda tmp: wio.load_wavefunction(wio.save_matrix(wdf_from_wavefunction(PSI),
                                                                                 tmp / "wdf.csv")[0]),
     ValueError, "{tmp}/wdf.csv must be a wavefunction file, got a matrix file"),
]

CLI = [
    ("grid-spec", ["state", "--gaussian", "q0=1", "--grid=-12:12"], "grid spec must be qmin:qmax:N, got '-12:12'"),
    ("parameter-token", ["state", "--gaussian", "q0"], "expected key=value, got 'q0'"),
    ("unknown-parameter", ["state", "--gaussian", "q0=1", "x=2"], "unknown parameters: ['x']"),
    ("missing-parameter", ["state", "--gaussian", "center=1"], "missing required parameter q0=..."),
    ("repeated-parameter", ["state", "--cat", "d=2", "qi=1", "d=3"], "parameter d given twice"),
    ("figure4-slit-width-zero", ["figure", "fig4", "--qm", "0"], "q_m must be positive, got 0.0"),
    ("figure4-slit-width-negative", ["figure", "fig4", "--qm", "-1"], "q_m must be positive, got -1.0"),
]

#: ``(name, argv)`` of commands that read a matrix file where they take a wavefunction file, ``{tmp}/w/wdf.csv``.
CLI_FILE_KINDS = [
    ("filter-input", ["filter", "{tmp}/w/wdf.csv", "--filter", "{tmp}/slit.json"]),
    ("filter-device", ["filter", "{tmp}/state.csv", "--filter", "{tmp}/matrix_device.json"]),
]

#: ``(name, argv, kinds)`` of commands that read a detector readout, ``{tmp}/det/detection.csv``, where they take a
#: file of ``kinds``; ``overlap`` writes nothing, so it takes no ``--out``.
_STATE_FILE = "wavefunction or matrix"
CLI_READOUTS = [
    ("wdf", ["wdf", "{tmp}/det/detection.csv", "--out", "{tmp}/o"], _STATE_FILE),
    ("blob", ["blob", "{tmp}/det/detection.csv", "--out", "{tmp}/o"], _STATE_FILE),
    ("evolve", ["evolve", "{tmp}/det/detection.csv", "--potential", "{tmp}/well.json", "--t", "0.01", "--dt", "1e-3",
                "--out", "{tmp}/o"], _STATE_FILE),
    ("overlap", ["overlap", "{tmp}/det/detection.csv", "{tmp}/w/wdf.csv"], _STATE_FILE),
    ("detect-device", ["detect", "{tmp}/w/wdf.csv", "{tmp}/det/detection.csv", "--out", "{tmp}/o"], _STATE_FILE),
    ("filter-input", ["filter", "{tmp}/det/detection.csv", "--filter", "{tmp}/slit.json", "--out", "{tmp}/o"],
     "wavefunction"),
    ("filter-wdf-input", ["filter", "{tmp}/det/detection.csv", "--filter", "{tmp}/slit.json", "--wdf", "--out",
                          "{tmp}/o"], "wavefunction"),
    ("filter-device", ["filter", "{tmp}/state.csv", "--filter", "{tmp}/readout_device.json", "--out", "{tmp}/o"],
     "wavefunction"),
]


@pytest.mark.parametrize(
    "refuse, error, message",
    [pytest.param(refuse, error, message, id=name) for name, refuse, error, message in LIBRARY]
    + [pytest.param(argv, ValueError, message, id=f"cli-{name}") for name, argv, message in CLI],
)
def test_refusal_names_its_cause(tmp_path, capsys, refuse, error, message):
    message = message.format(tmp=tmp_path)
    if callable(refuse):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            refuse(tmp_path)
    else:  # the CLI reports a ValueError as a usage error
        assert main(refuse + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()


def _write_inputs(tmp_path):
    """A state file, its distribution file ``w/wdf.csv``, its self-detection ``det/detection.csv``, a slit, a well, and
    a filter with each of the two matrix files as its device."""
    wio.save_wavefunction(PSI, tmp_path / "state.csv")
    w = wdf_from_wavefunction(PSI)
    for name, value in (("w/wdf.csv", w), ("det/detection.csv", detect(w, w))):
        (tmp_path / name).parent.mkdir()
        wio.save_matrix(value, tmp_path / name)
    (tmp_path / "slit.json").write_text('{"kind": "coordinate", "device": "state.csv"}')
    (tmp_path / "matrix_device.json").write_text('{"kind": "coordinate", "device": "w/wdf.csv"}')
    (tmp_path / "readout_device.json").write_text('{"kind": "coordinate", "device": "det/detection.csv"}')
    (tmp_path / "well.json").write_text('{"coefficients": [0, 0, 0.5]}')


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for name, argv in CLI_FILE_KINDS])
def test_cli_refuses_a_file_of_the_other_kind(tmp_path, capsys, argv):
    # each used to exit 2 with "<path>: expected 256 rows of q,re,im", which names neither kind
    _write_inputs(tmp_path)
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path}/w/wdf.csv must be a wavefunction file, got a matrix file\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, kinds", [pytest.param(argv, kinds, id=name) for name, argv, kinds in CLI_READOUTS])
def test_cli_refuses_a_detector_readout_as_a_state(tmp_path, capsys, argv, kinds):
    # wdf and blob used to exit 0 and report a width-1 Gaussian's self-detection as a state of purity 0.5
    _write_inputs(tmp_path)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    refusal = f"{tmp_path}/det/detection.csv must be a {kinds} file, got a detection map file"
    assert capsys.readouterr() == ("", f"error: {refusal}\n")
    assert not (tmp_path / "o").exists()


#: ``(parameter, call that passes the value as that parameter)`` for every public scalar; counts are marked.
SCALARS = {
    "grid-q-min": ("q_min", lambda v: Grid(v, 0.1, 8)),
    "grid-delta-q": ("delta_q", lambda v: Grid(-1.0, v, 8)),
    "grid-n-points": ("n_points", lambda v: Grid(-1.0, 0.1, v)),
    "grid-hbar": ("hbar", lambda v: Grid(-1.0, 0.1, 8, v)),
    "make-grid-q-min": ("q_min", lambda v: make_grid(v, 12, 256)),
    "make-grid-q-max": ("q_max", lambda v: make_grid(-12, v, 256)),
    "make-grid-n-points": ("n_points", lambda v: make_grid(-12, 12, v)),
    "gaussian-width": ("width", lambda v: GaussianSpec(v)),
    "gaussian-center": ("center", lambda v: GaussianSpec(1.0, center=v)),
    "gaussian-momentum-offset": ("momentum_offset", lambda v: GaussianSpec(1.0, momentum_offset=v)),
    "cat-width": ("width", lambda v: CatSpec(v, 1.0)),
    "cat-separation": ("separation", lambda v: CatSpec(1.0, v)),
    "filter-q-offset": ("q_offset", lambda v: FilterSpec(GENERAL_MOMENTUM, PSI, q_offset=v)),
    "filter-p-offset": ("p_offset", lambda v: FilterSpec(GENERAL_COORDINATE, PSI, p_offset=v)),
    "potential-coefficient": ("coefficients[2]", lambda v: PotentialSpec((0.0, 0.0, v))),
    "potential-mass": ("mass", lambda v: PotentialSpec((0.0,), mass=v)),
    "evolution-dt": ("dt", lambda v: EvolutionConfig(v, 1)),
    "evolution-n-steps": ("n_steps", lambda v: EvolutionConfig(1e-3, v)),
    "smoothing-sigma-q": ("sigma_q", lambda v: smoothed_minimum(wdf_from_wavefunction(PSI), v, 1.0)),
    "smoothing-sigma-p": ("sigma_p", lambda v: smoothed_minimum(wdf_from_wavefunction(PSI), 1.0, v)),
    "slit-offset": ("offset", lambda v: filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), 1.0, v, GRID)),
    "slit-width": ("q_m", lambda v: filtered_cat_wdf_closed_form(CatSpec(1.0, 2.0), v, 0.0, GRID)),
    "figure4-slit-width": ("q_m", lambda v: figure4_scan(4.0, 1.0, v, GRID)),
}
_COUNTS = {"grid-n-points", "make-grid-n-points", "evolution-n-steps"}
_NOT_NUMBERS = [(float("nan"), "nan"), (float("inf"), "inf"), (True, "True"), ("1", "'1'")]


@pytest.mark.parametrize(
    "call, value, message",
    [
        pytest.param(call, value, f"{name} must be a finite number, got {shown}", id=f"{row}-{shown}")
        for row, (name, call) in SCALARS.items()
        for value, shown in _NOT_NUMBERS
    ]
    + [pytest.param(SCALARS[row][1], 2.5, f"{SCALARS[row][0]} must be an integer, got 2.5", id=f"{row}-2.5")
       for row in sorted(_COUNTS)],
)
def test_number_rule_names_the_parameter(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--t", "nan", "--dt", "1e-3"], "--t must be a finite number, got nan", id="t-nan"),
        pytest.param(["--t", "inf", "--dt", "1e-3"], "--t must be a finite number, got inf", id="t-inf"),
        pytest.param(["--t", "0.01", "--dt", "nan"], "--dt must be a finite number, got nan", id="dt-nan"),
        pytest.param(["--t", "0.01", "--dt", "inf"], "--dt must be a finite number, got inf", id="dt-inf"),
        pytest.param(["--t", "0.01", "--dt", "1e-3", "--dump-every", "nan"],
                     "--dump-every must be a finite number, got nan", id="dump-every-nan"),
        pytest.param(["--t", "0.01", "--dt", "1e-3", "--dump-every", "inf"],
                     "--dump-every must be a finite number, got inf", id="dump-every-inf"),
        pytest.param(["--t", "0.01", "--dt", "1e-3", "--dump-every", "2.5"],
                     "--dump-every must be an integer, got 2.5", id="dump-every-2.5"),
        pytest.param(["--grid=-12:12:256.5"], "n_points must be an integer, got 256.5", id="grid-n-256.5"),
        pytest.param(["--grid=-12:12:nan"], "n_points must be a finite number, got nan", id="grid-n-nan"),
        pytest.param(["--grid=-12:12:inf"], "n_points must be a finite number, got inf", id="grid-n-inf"),
    ],
)
def test_number_rule_names_the_flag(tmp_path, capsys, flags, message):
    if flags[0].startswith("--grid"):
        argv = ["state", "--gaussian", "q0=1", *flags]
    else:
        state = wio.save_wavefunction(PSI, tmp_path / "state.csv")[0]
        (tmp_path / "well.json").write_text('{"coefficients": [0, 0, 0.5]}')
        argv = ["evolve", str(state), "--potential", str(tmp_path / "well.json"), *flags]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_integral_counts_are_taken_as_ints():
    cfg = EvolutionConfig(1e-3, 2.0)
    assert type(cfg.n_steps) is int
    w = wdf_from_wavefunction(PSI)
    stepped = propagate(w, PotentialSpec((0.0, 0.0, 0.5)), cfg).values
    assert not np.array_equal(stepped, w.values)
    assert np.array_equal(stepped, propagate(w, PotentialSpec((0.0, 0.0, 0.5)), EvolutionConfig(1e-3, 2)).values)
    grid = Grid(-12.0, 0.1, 8.0)
    assert type(grid.n_points) is int
    transformed = fourier_transform(WaveFunction(grid, np.ones(8)))
    assert type(transformed.grid.n_points) is int and transformed.grid.n_points == 8
    assert transformed.values.shape == (8,)
