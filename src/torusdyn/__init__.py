"""torusdyn: exact classification of affine monomial dynamics on the torus."""

from .kummer import KummerNumber, char_eval, format_point, one_point, parse_kummer, parse_point
from .intlinalg import IntMatrix, Lattice
from .polyalg import IntPoly, cyclotomic, cyclotomic_part, quasi_unipotence, spectral_radius
from .torus import AffineMonomialMap, Coset, Subtorus
from .dynamics import (
    ClassificationReport,
    ClassifyConfig,
    classify,
    decompose,
    dynamical_degree,
    find_invariant_fibration,
    invariant_family,
    periodic_torsion_points,
    wildness_certificate,
)
from .oracle import (
    finite_model_run,
    hypersurface_containment,
    invariant_coset_search,
    numeric_roots,
    orbit_sample,
)

__version__ = "0.1.0"

__all__ = [
    "KummerNumber",
    "char_eval",
    "parse_kummer",
    "parse_point",
    "format_point",
    "one_point",
    "IntMatrix",
    "Lattice",
    "IntPoly",
    "cyclotomic",
    "cyclotomic_part",
    "quasi_unipotence",
    "spectral_radius",
    "AffineMonomialMap",
    "Coset",
    "Subtorus",
    "ClassificationReport",
    "ClassifyConfig",
    "classify",
    "decompose",
    "dynamical_degree",
    "find_invariant_fibration",
    "invariant_family",
    "periodic_torsion_points",
    "wildness_certificate",
    "finite_model_run",
    "hypersurface_containment",
    "invariant_coset_search",
    "numeric_roots",
    "orbit_sample",
]
