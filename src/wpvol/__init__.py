"""Exact Weil-Petersson volumes of moduli spaces of pointed curves.

Volumes V_{g,n} = <kappa_1^(3g-3+n)> are computed two independent ways, the
kappa-to-tau conversion of intersection numbers and closed genus-expansion
series built from the inverse of a Bessel-derivative series, and the package
verifies, coefficient by coefficient in exact rational arithmetic, that the
routes agree, along with the functional equations of the derivative chain and
the large-n growth law.
"""

from .asympt import (
    GrowthFit,
    bessel_j0_first_zero,
    compare_growth_constants,
    critical_point,
    critical_radius,
    fit_growth,
    predicted_exponent,
    predicted_growth_constant,
)
from .genexp import (
    CheckReport,
    GenusExpansionContext,
    build_f_lemma,
    build_phi0,
    build_phi1,
    build_phi_g,
    build_y,
    check_derivative_formula,
    volume_series,
    volume_table,
)
from .kappavol import VolumeRecord, enumerate_multiindices, volume
from .qseries import Series, bessel_x_of_y, revert_lagrange
from .taucalc import MemoStore, TauCalculator, load_cache, save_cache

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "GenusExpansionContext",
    "GrowthFit",
    "MemoStore",
    "Series",
    "TauCalculator",
    "VolumeRecord",
    "bessel_j0_first_zero",
    "bessel_x_of_y",
    "build_f_lemma",
    "build_phi0",
    "build_phi1",
    "build_phi_g",
    "build_y",
    "check_derivative_formula",
    "compare_growth_constants",
    "critical_point",
    "critical_radius",
    "enumerate_multiindices",
    "fit_growth",
    "load_cache",
    "predicted_exponent",
    "predicted_growth_constant",
    "revert_lagrange",
    "save_cache",
    "volume",
    "volume_series",
    "volume_table",
    "__version__",
]
