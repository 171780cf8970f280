"""Who owns result memory: value types keep what the library computed and copy what callers pass.

Each routed function is checked against the array its kernel returned: the
value must hold that very memory, frozen, and share memory with no input.
"""

import os

import numpy as np
import pytest

import wignerlab.io as wio
from wignerlab import (
    CatSpec,
    DensityMatrix,
    DetectionMap,
    EvolutionConfig,
    FilterSpec,
    GaussianSpec,
    InvariantViolation,
    PotentialSpec,
    WignerFunction,
    detect,
    detect_from_wavefunctions,
    filter_wdf,
    gaussian_wavefunction,
    mixed_density,
    propagate,
    pure_density,
    wdf_from_density,
    wdf_from_wavefunction,
)
from wignerlab import evolution, filtering, states, wigner
from wignerlab.filtering import COORDINATE, GENERAL_COORDINATE, GENERAL_MOMENTUM, MOMENTUM_KIND
from wignerlab.grid import _adopt

from helpers import desk_grid


def _spy(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records every value it returns; the record."""
    real, returned = getattr(owner, name), []

    def call(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, call)
    return returned


def _spy_constructor(monkeypatch, module, name):
    """Record the array each ``module.name(grid, array)`` call hands to its value type; the record."""
    cls, handed = getattr(module, name), []

    def build(grid, values):
        handed.append(values)
        return cls(grid, values)

    monkeypatch.setattr(module, name, build)
    return handed


def _assert_kept(result, kernel_output, inputs):
    assert np.shares_memory(result, kernel_output)
    assert not result.flags.writeable
    assert not any(np.shares_memory(result, x) for x in inputs)


@pytest.fixture(scope="module")
def lattice():
    g = desk_grid(128)
    psi = gaussian_wavefunction(GaussianSpec(width=1.0), g)
    device = gaussian_wavefunction(GaussianSpec(width=0.8, center=1.0), g)
    return g, psi, device, wdf_from_wavefunction(psi), wdf_from_wavefunction(device)


class TestLibraryResultsAreKept:
    def test_wdf_from_wavefunction(self, lattice, monkeypatch):
        _, psi, *_ = lattice
        returned = _spy(monkeypatch, wigner, "wigner_values_of_amplitudes")
        _assert_kept(wdf_from_wavefunction(psi).values, returned[-1], [psi.values])

    def test_wdf_from_density(self, lattice, monkeypatch):
        _, psi, *_ = lattice
        rho = pure_density(psi)
        returned = _spy(monkeypatch, wigner, "_transform_correlation")
        _assert_kept(wdf_from_density(rho).values, returned[-1], [rho.entries])

    @pytest.mark.parametrize("kind", [COORDINATE, GENERAL_MOMENTUM])
    def test_p_axis_laws(self, lattice, monkeypatch, kind):
        g, _, device, w_in, _ = lattice
        spec = FilterSpec(kind, device, q_offset=3 * g.delta_q if kind == GENERAL_MOMENTUM else 0.0)
        returned = _spy(monkeypatch, np.fft, "irfft")
        _assert_kept(filter_wdf(w_in, spec).values, returned[-1], [w_in.values, device.values])

    @pytest.mark.parametrize("kind", [MOMENTUM_KIND, GENERAL_COORDINATE])
    def test_q_axis_laws(self, lattice, monkeypatch, kind):
        g, _, device, w_in, _ = lattice
        spec = FilterSpec(kind, device, p_offset=3 * g.delta_p if kind == GENERAL_COORDINATE else 0.0)
        returned = _spy(monkeypatch, filtering, "_linear_convolution")
        _assert_kept(filter_wdf(w_in, spec).values, returned[-1], [w_in.values, device.values])

    def test_detect(self, lattice, monkeypatch):
        *_, w_in, w_m = lattice
        returned = _spy(monkeypatch, np.fft, "irfft")
        _assert_kept(detect(w_in, w_m).values, returned[-1], [w_in.values, w_m.values])

    def test_detect_from_wavefunctions(self, lattice, monkeypatch):
        _, psi, device, *_ = lattice
        returned = _spy(monkeypatch, np, "empty")
        readout = detect_from_wavefunctions(psi, device).values
        _assert_kept(readout, next(a for a in returned if a.shape == readout.shape), [psi.values, device.values])

    def test_evolution_frames(self, lattice, monkeypatch):
        *_, w_in, _ = lattice
        returned = _spy(monkeypatch, evolution, "_apply")
        _assert_kept(propagate(w_in, PotentialSpec((0, 0, 0.5)), EvolutionConfig(1e-2, 3)).values,
                     returned[-1], [w_in.values])

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: states.gaussian_wdf_closed_form(GaussianSpec(width=1.0, momentum_offset=0.5), g),
            lambda g: states.cat_wdf_closed_form(CatSpec(width=1.0, separation=2.0), g),
            lambda g: states.filtered_gaussian_wdf_closed_form(1.5, 1.0, g),
            lambda g: states.filtered_cat_wdf_closed_form(CatSpec(width=1.0, separation=2.0), 1.0, 0.5, g),
        ],
        ids=["gaussian", "cat", "filtered-gaussian", "filtered-cat"],
    )
    def test_closed_forms(self, lattice, monkeypatch, build):
        handed = _spy_constructor(monkeypatch, states, "WignerFunction")
        _assert_kept(build(lattice[0]).values, handed[-1], [])

    def test_pure_density(self, lattice, monkeypatch):
        _, psi, *_ = lattice
        returned = _spy(monkeypatch, np, "outer")
        _assert_kept(pure_density(psi).entries, returned[-1], [psi.values])

    def test_mixed_density(self, lattice, monkeypatch):
        _, psi, device, *_ = lattice
        handed = _spy_constructor(monkeypatch, wigner, "DensityMatrix")
        _assert_kept(mixed_density([psi, device], [0.25, 0.75]).entries, handed[-1], [psi.values, device.values])

    @pytest.mark.parametrize("fork", [True, False], ids=["split", "serial"])
    def test_load_wigner(self, lattice, tmp_path, monkeypatch, fork):
        *_, w_in, _ = lattice
        csv_path = wio.save_matrix(w_in, tmp_path / "w.csv")[0]
        if not fork:
            monkeypatch.delattr(os, "fork")
        returned = _spy(monkeypatch, wio, "_load_matrix")
        loaded = wio.load_wigner(csv_path)
        _assert_kept(loaded.values, returned[-1], [w_in.values])
        assert loaded.values.tobytes() == w_in.values.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_adopted_non_finite_result_is_refused(self, lattice, monkeypatch, bad):
        _, psi, *_ = lattice
        values = np.zeros((psi.grid.n_points,) * 2)
        values[5, 7] = bad
        monkeypatch.setattr(wigner, "wigner_values_of_amplitudes", lambda amplitudes, grid: values)
        with pytest.raises(InvariantViolation, match="^non-finite values in Wigner matrix$"):
            wdf_from_wavefunction(psi)


class TestOnlyWholeBuffersAreKept:
    def test_a_view_into_a_larger_temporary_is_copied(self):
        g = desk_grid(16)
        temporary = np.ones(17 * 16)
        w = WignerFunction(g, _adopt(temporary[:16 * 16].reshape(16, 16)))
        assert not np.shares_memory(w.values, temporary)
        assert temporary.flags.writeable

    def test_a_reshaped_whole_array_is_kept(self):
        g = desk_grid(16)
        whole = np.ones(16 * 16)
        assert np.shares_memory(WignerFunction(g, _adopt(whole.reshape(16, 16))).values, whole)


def _valid(cls, g):
    if cls is DensityMatrix:
        return np.array(pure_density(gaussian_wavefunction(GaussianSpec(width=1.0), g)).entries)
    return np.abs(np.random.default_rng(3).normal(size=(g.n_points, g.n_points)))


def _matrix(value):
    return value.entries if isinstance(value, DensityMatrix) else value.values


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("cls", [WignerFunction, DetectionMap, DensityMatrix])
class TestCallerArraysAreCopied:
    def test_writable_array(self, cls):
        g = desk_grid(128)
        caller = _valid(cls, g)
        value = cls(g, caller)
        assert not np.shares_memory(_matrix(value), caller)
        assert caller.flags.writeable

    def test_read_only_array_that_owns_its_data(self, cls):
        g = desk_grid(128)
        caller = _read_only(_valid(cls, g))
        value = cls(g, caller)
        assert not np.shares_memory(_matrix(value), caller)

    def test_read_only_view_of_a_writable_array(self, cls):
        g = desk_grid(128)
        owner = _valid(cls, g)
        caller = _read_only(owner.view())
        value = cls(g, caller)
        assert not np.shares_memory(_matrix(value), owner)
        assert owner.flags.writeable
