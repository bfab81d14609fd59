"""Quantum McKay correspondence data for polyhedral singularities C^3/G.

The package computes, for the finite rotation groups G (cyclic, dihedral,
tetrahedral, octahedral, icosahedral): the ADE root system of the binary
cover, character tables and the McKay node dictionary, genus-zero BPS
counts, reduced Gromov-Witten/box-counting partition functions,
equivariant intersection numbers of the preferred crepant resolution, and
the orbifold genus-zero potential with its change-of-variables match.

Importing the package imports none of its modules: each public name is read
from its defining module on first access (PEP 562), which imports that
module then.
"""

import importlib

__version__ = "0.1.0"

# the decimal digits `qmckay.crc` works to when no precision is given; stated
# here, so the command line can print it without importing `qmckay.crc`
DEFAULT_DPS = 64
# the guard digits each mpf view works with beyond its precision, read by
# `qmckay.crc` and `qmckay.numeric`
_GUARD = 10

# each public name, by the module that defines it
_HOME = {
    name: module
    for module, names in (
        ("errors", ("ConfigurationError", "InternalConsistencyError", "PoleError")),
        ("rootsys", ("ADEType", "RootSystem", "parse_ade", "root_system")),
        ("grouprep", (
            "Correspondence", "GroupModel", "GroupSpec", "age", "binary_simple_roots",
            "build_binary_group", "build_group", "correspondence", "hard_lefschetz_check",
            "mckay_graph", "root_system_of",
        )),
        ("series", ("MultiSeries", "Truncation", "macmahon_factor", "sin_power_expansion")),
        ("gwtheory", (
            "BPSTable", "bps_table", "curve_class", "gw_all_genus", "gw_genus0",
            "normal_bundle_type", "partition_function", "partition_function_by_roots",
            "q_variables",
        )),
        ("intersect", (
            "classical_potential", "mckay_pairing", "pairing_inverse_check",
            "surface_integrals", "threefold_integrals",
        )),
        ("crc", ("PotentialSeries", "crc_consistency", "orbifold_potential")),
        ("numeric", (
            "b_series", "change_of_variables", "h_derivative", "linear_forms",
            "rational_guess", "resolution_third_partials", "taylor_third_partial",
            "third_partial",
        )),
    )
    for name in names
}

__all__ = sorted([*_HOME, "DEFAULT_DPS", "__version__"])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
