"""Exact generating series of sheaf-counting invariants on threefolds.

The pieces: intersection-theory models and numeric hypothesis checks
(`geometry`), enumeration of contributing curve classes (`classenum`),
eta-type q-series assembly (`qseries`), an independent equivariant
localization oracle on Hilbert schemes of points (`localization`),
built-in geometries (`fixtures`), and a CLI (`cli`).  The names below are
imported from their modules on first use.
"""

__version__ = "0.1.0"

# each export under the module that defines it
_EXPORTS = {
    "geometry": ("AssumptionReport", "ChernVector", "SurfaceModel", "ThreefoldModel",
                 "check_consistency", "delta_invariant", "hilbert_coeffs", "run_all_checks",
                 "triple_product", "virtual_dimension"),
    "classenum": ("BetaData", "beta_constraint_lattice", "enumerate_beta",
                  "enumerate_contributions"),
    "qseries": ("QSeries", "dt_series", "eta_power", "euler_product", "theta_block"),
    "localization": ("co_series",),
    "fixtures": ("BUILTIN", "get_fixture", "load_fixture", "save_fixture"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An export, imported from its module on first use (PEP 562), so that
    `import dtseries` alone imports no submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
