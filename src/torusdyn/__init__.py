"""torusdyn: exact classification of affine monomial dynamics on the torus."""

from importlib import import_module

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

__version__ = "0.1.0"

# Loaded on first access (PEP 562), so a command that never reaches the
# density test does not load the oracle, and none loads the reference routines.
_LAZY = {
    "finite_model_run": "reference",
    "hypersurface_containment": "oracle",
    "invariant_coset_search": "reference",
    "numeric_roots": "reference",
    "orbit_sample": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


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
