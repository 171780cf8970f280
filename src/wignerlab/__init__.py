"""Phase-space toolkit for 1-D quantum states.

Wigner distributions computed from wavefunctions or density matrices,
measurement as filtering/detection in phase space, Moyal time evolution
for polynomial potentials, and localization diagnostics, all on a single
consistent coordinate/momentum lattice.
"""

__version__ = "0.1.0"

from .errors import GridMismatchError, InvariantViolation, WignerlabError
from .grid import (
    MOMENTUM,
    POSITION,
    Grid,
    WaveFunction,
    fourier_transform,
    inner_product,
    inverse_fourier_transform,
    make_grid,
    normalize,
    squared_norm,
)
from .wigner import (
    DensityMatrix,
    WignerFunction,
    expectation,
    marginal_p,
    marginal_q,
    mixed_density,
    overlap_probability,
    pure_density,
    purity,
    recover_wavefunction,
    uncertainty_product,
    wdf_from_density,
    wdf_from_wavefunction,
)
from .states import (
    CatSpec,
    GaussianSpec,
    cat_wavefunction,
    cat_wdf_closed_form,
    filtered_cat_wdf_closed_form,
    filtered_gaussian_wdf_closed_form,
    gaussian_wavefunction,
    gaussian_wdf_closed_form,
)
from .filtering import (
    DetectionMap,
    FilterSpec,
    InteractionReport,
    classify_interaction,
    detect,
    detect_from_wavefunctions,
    filter_wavefunction,
    filter_wdf,
)
from .evolution import (
    EvolutionConfig,
    PotentialSpec,
    moyal_rhs,
    propagate,
    split_step_schrodinger,
)
from .blobs import (
    BlobReport,
    blob_report,
    effective_area,
    smoothed_minimum,
    subplanck_scale,
)

__all__ = [
    "__version__",
    "WignerlabError",
    "GridMismatchError",
    "InvariantViolation",
    "POSITION",
    "MOMENTUM",
    "Grid",
    "WaveFunction",
    "make_grid",
    "fourier_transform",
    "inverse_fourier_transform",
    "inner_product",
    "normalize",
    "squared_norm",
    "WignerFunction",
    "DensityMatrix",
    "wdf_from_wavefunction",
    "wdf_from_density",
    "recover_wavefunction",
    "marginal_q",
    "marginal_p",
    "expectation",
    "uncertainty_product",
    "overlap_probability",
    "purity",
    "pure_density",
    "mixed_density",
    "GaussianSpec",
    "CatSpec",
    "gaussian_wavefunction",
    "gaussian_wdf_closed_form",
    "cat_wavefunction",
    "cat_wdf_closed_form",
    "filtered_gaussian_wdf_closed_form",
    "filtered_cat_wdf_closed_form",
    "FilterSpec",
    "DetectionMap",
    "InteractionReport",
    "filter_wavefunction",
    "filter_wdf",
    "detect",
    "detect_from_wavefunctions",
    "classify_interaction",
    "PotentialSpec",
    "EvolutionConfig",
    "moyal_rhs",
    "propagate",
    "split_step_schrodinger",
    "BlobReport",
    "blob_report",
    "effective_area",
    "smoothed_minimum",
    "subplanck_scale",
]
