"""Exact generating series of sheaf-counting invariants on threefolds.

The pieces: intersection-theory models and numeric hypothesis checks
(`geometry`), enumeration of contributing curve classes (`classenum`),
eta-type q-series assembly (`qseries`), an independent equivariant
localization oracle on Hilbert schemes of points (`localization`),
built-in geometries (`fixtures`), and a CLI (`cli`).
"""

from .geometry import (
    AssumptionReport,
    ChernVector,
    SurfaceModel,
    ThreefoldModel,
    check_consistency,
    delta_invariant,
    hilbert_coeffs,
    run_all_checks,
    triple_product,
    virtual_dimension,
)
from .classenum import (
    BetaData,
    beta_constraint_lattice,
    enumerate_beta,
    enumerate_contributions,
    n_from_xi,
    xi_from_n,
)
from .qseries import QSeries, dt_series, eta_power, euler_product, theta_block
from .localization import co_series
from .fixtures import BUILTIN, get_fixture, load_fixture, save_fixture

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BetaData",
    "BUILTIN",
    "ChernVector",
    "QSeries",
    "SurfaceModel",
    "ThreefoldModel",
    "beta_constraint_lattice",
    "check_consistency",
    "co_series",
    "delta_invariant",
    "dt_series",
    "enumerate_beta",
    "enumerate_contributions",
    "eta_power",
    "euler_product",
    "get_fixture",
    "hilbert_coeffs",
    "load_fixture",
    "n_from_xi",
    "run_all_checks",
    "save_fixture",
    "theta_block",
    "triple_product",
    "virtual_dimension",
    "xi_from_n",
]
