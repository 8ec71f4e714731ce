"""Integral unimodular quadratic forms: enumeration in norm balls,
spectral-sector classification, growth-exponent prediction and fitting,
generalized Cartan factorization with stability probes, and invariant
volume integration."""

__version__ = "0.1.0"

from .cartan import CartanFactors, kah_decompose, reconstruct, regularity
from .enumeration import (
    QuadraticForm,
    count_ball,
    count_ball_grid,
    enumerate_forms,
    orbit_enumerate,
)
from .rootdata import (
    BlockDecomposition,
    ExponentPair,
    predict_exponent,
)
from .sector import (
    AntiCap,
    Cap,
    CountSeries,
    FullFrame,
    SectorSpec,
    count_sector,
    fit_exponent,
    make_spec,
    sector_membership,
)
from .volume import (
    DensityContext,
    context_for,
    context_pq,
    haar_fraction,
    singular_volume,
    volume_series,
    wellroundedness_ratio,
    xi_density,
)
from .wavefront import (
    ProbeReport,
    coarse_probe,
    fine_probe,
    group_distance,
    lipschitz_sweep,
)

__all__ = [
    "AntiCap",
    "BlockDecomposition",
    "Cap",
    "CartanFactors",
    "CountSeries",
    "DensityContext",
    "ExponentPair",
    "FullFrame",
    "ProbeReport",
    "QuadraticForm",
    "SectorSpec",
    "__version__",
    "coarse_probe",
    "context_for",
    "context_pq",
    "count_ball",
    "count_ball_grid",
    "count_sector",
    "enumerate_forms",
    "fine_probe",
    "fit_exponent",
    "group_distance",
    "haar_fraction",
    "kah_decompose",
    "lipschitz_sweep",
    "make_spec",
    "orbit_enumerate",
    "predict_exponent",
    "reconstruct",
    "regularity",
    "sector_membership",
    "singular_volume",
    "volume_series",
    "wellroundedness_ratio",
    "xi_density",
]
