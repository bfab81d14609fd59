"""Quantum McKay correspondence data for polyhedral singularities C^3/G.

The package computes, for the finite rotation groups G (cyclic, dihedral,
tetrahedral, octahedral, icosahedral): the ADE root system of the binary
cover, character tables and the McKay node dictionary, genus-zero BPS
counts, reduced Gromov-Witten/box-counting partition functions,
equivariant intersection numbers of the preferred crepant resolution, and
the orbifold genus-zero potential with its change-of-variables match.
"""

from .errors import ConfigurationError, InternalConsistencyError, PoleError
from .rootsys import ADEType, RootSystem, parse_ade, root_system
from .grouprep import (
    Correspondence,
    GroupModel,
    GroupSpec,
    age,
    build_binary_group,
    build_group,
    binary_simple_roots,
    correspondence,
    hard_lefschetz_check,
    mckay_graph,
    root_system_of,
)
from .series import MultiSeries, Truncation, macmahon_factor, sin_power_expansion
from .gwtheory import (
    BPSTable,
    bps_table,
    curve_class,
    gw_all_genus,
    gw_genus0,
    normal_bundle_type,
    partition_function,
    partition_function_by_roots,
    q_variables,
)
from .intersect import (
    classical_potential,
    mckay_pairing,
    pairing_inverse_check,
    surface_integrals,
    threefold_integrals,
)
from .crc import (
    DEFAULT_DPS,
    PotentialSeries,
    b_series,
    change_of_variables,
    crc_consistency,
    h_derivative,
    linear_forms,
    orbifold_potential,
    rational_guess,
    resolution_third_partials,
    taylor_third_partial,
    third_partial,
)

__version__ = "0.1.0"

__all__ = [
    "ADEType",
    "BPSTable",
    "ConfigurationError",
    "Correspondence",
    "DEFAULT_DPS",
    "GroupModel",
    "GroupSpec",
    "InternalConsistencyError",
    "MultiSeries",
    "PoleError",
    "PotentialSeries",
    "RootSystem",
    "Truncation",
    "age",
    "b_series",
    "binary_simple_roots",
    "bps_table",
    "build_binary_group",
    "build_group",
    "change_of_variables",
    "classical_potential",
    "correspondence",
    "crc_consistency",
    "curve_class",
    "gw_all_genus",
    "gw_genus0",
    "h_derivative",
    "hard_lefschetz_check",
    "linear_forms",
    "macmahon_factor",
    "mckay_graph",
    "mckay_pairing",
    "normal_bundle_type",
    "orbifold_potential",
    "pairing_inverse_check",
    "parse_ade",
    "partition_function",
    "partition_function_by_roots",
    "q_variables",
    "rational_guess",
    "resolution_third_partials",
    "root_system",
    "root_system_of",
    "sin_power_expansion",
    "surface_integrals",
    "taylor_third_partial",
    "third_partial",
    "__version__",
]
