"""Refusals that no other test reaches, each reached once from a table.

A library row asserts the error class and the whole message; a CLI row asserts
exit code 2, the whole ``error:`` line on stderr and that no ``--out``
directory is left behind.
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
    filtered_gaussian_wdf_closed_form,
    fourier_transform,
    gaussian_wavefunction,
    mixed_density,
    split_step_schrodinger,
    subplanck_scale,
    wdf_from_wavefunction,
)
from wignerlab import io as wio
from wignerlab.cli import main
from wignerlab.filtering import COORDINATE

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
     GridMismatchError, "state and device live on different grids"),
    ("detect-grids", lambda tmp: detect(wdf_from_wavefunction(PSI), wdf_from_wavefunction(ELSEWHERE)),
     GridMismatchError, "state and device live on different grids"),
    ("detect-amplitudes-grids", lambda tmp: detect_from_wavefunctions(PSI, ELSEWHERE), GridMismatchError,
     "state and device live on different grids"),
    ("potential-coefficients", lambda tmp: PotentialSpec((0.0, float("nan"))), ValueError,
     "potential coefficients must be finite"),
    ("step-count", lambda tmp: EvolutionConfig(1e-3, -1), ValueError, "n_steps must be nonnegative, got -1"),
    ("schrodinger-momentum-state",
     lambda tmp: split_step_schrodinger(MOMENTUM_MASS_4, PotentialSpec((0.0,)), EvolutionConfig(1e-3, 1)),
     InvariantViolation, "total mass 4 of the state deviates from 1 by more than 1e-6"),
    ("schrodinger-non-finite", _overflowing_schrodinger_run, InvariantViolation,
     "wavefunction became non-finite at step 1"),
    ("subplanck-flat", lambda tmp: subplanck_scale(WignerFunction(GRID, np.ones((256, 256)))), InvariantViolation,
     "distribution has no resolvable structure on this grid"),
    ("state-file-rows", _truncated_state, ValueError, "{tmp}/state.csv: expected 256 rows of q,re,im"),
]

CLI = [
    ("grid-spec", ["state", "--gaussian", "q0=1", "--grid=-12:12"], "grid spec must be qmin:qmax:N, got '-12:12'"),
    ("parameter-token", ["state", "--gaussian", "q0"], "expected key=value, got 'q0'"),
    ("unknown-parameter", ["state", "--gaussian", "q0=1", "x=2"], "unknown parameters: ['x']"),
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
