"""Exact adding machines, finite iterated function systems, and tent maps.

The package connects three pictures of the same structure: digit
odometers with carry (odometer), finite systems of maps whose minimal
sets stack into cyclic towers (finite_ifs, conjugacy), and symmetric
tent maps whose renormalization intervals realize such towers on the
real line (interval_dynamics, exactnum). Everything computes exactly
over rationals or quadratic surds; nothing rounds.
"""

from .errors import (
    AddingMachineError,
    ExactnessError,
    IFSParseError,
    InputError,
    NoCanonicalCoverError,
)
from .exactnum import Surd, exact_sqrt, format_exact, parse_exact, surd
from .odometer import (
    INFINITY,
    BaseSequence,
    OdometerPoint,
    PrimeMultiplicity,
    add,
    as_residue,
    distance,
    from_residue,
    odometers_conjugate,
    prime_multiplicity,
    successor,
)
from .finite_ifs import (
    FiniteIFS,
    MinimalSetReport,
    NMSet,
    canonical_cover,
    has_shadowing,
    is_minimal,
    is_sensitive,
    minimal_sets,
    nm_set,
    periodic_points,
    regularly_recurrent_points,
    rotation_system,
    spectrum,
    tables_of_length,
)
from .ifs_io import format_ifs, load_ifs, parse_ifs
from .conjugacy import (
    AlphaReport,
    ColoringObstruction,
    CyclicTower,
    EquivarianceReport,
    FactorMap,
    ModNColoring,
    build_factor_map,
    extend_tower,
    find_mod_n_coloring,
    injectivity_on_regularly_recurrent,
    max_tower,
    tower_to_alpha,
    verify_equivariance,
)
from .interval_dynamics import (
    CycleDetection,
    OrbitSegment,
    TentParam,
    TowerCertificate,
    critical_orbit,
    detect_interval_cycle,
    kneading_sequence,
    tent_eval,
    tower_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AddingMachineError", "ExactnessError", "IFSParseError", "InputError",
    "NoCanonicalCoverError",
    "Surd", "exact_sqrt", "format_exact", "parse_exact", "surd",
    "INFINITY", "BaseSequence", "OdometerPoint", "PrimeMultiplicity",
    "add", "as_residue", "distance", "from_residue", "odometers_conjugate",
    "prime_multiplicity", "successor",
    "FiniteIFS", "MinimalSetReport", "NMSet", "canonical_cover",
    "has_shadowing", "is_minimal", "is_sensitive",
    "minimal_sets", "nm_set", "periodic_points",
    "regularly_recurrent_points", "rotation_system", "spectrum",
    "tables_of_length",
    "format_ifs", "load_ifs", "parse_ifs",
    "AlphaReport", "ColoringObstruction", "CyclicTower", "EquivarianceReport",
    "FactorMap", "ModNColoring", "build_factor_map", "extend_tower",
    "find_mod_n_coloring", "injectivity_on_regularly_recurrent", "max_tower",
    "tower_to_alpha", "verify_equivariance",
    "CycleDetection", "OrbitSegment", "TentParam", "TowerCertificate",
    "critical_orbit", "detect_interval_cycle", "kneading_sequence",
    "tent_eval", "tower_certificate",
]
