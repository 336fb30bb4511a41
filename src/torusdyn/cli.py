"""Command-line front end.

A map spec is a JSON document with the exact coordinate syntax embedded as
strings:

    {
      "matrix": [[2, 0], [0, 1]],
      "gamma": ["1", "5"],
      "options": {"seed": 7}
    }

Subcommands: classify, fibration, wild, decompose, periodic, orbit,
check-density.  Machine-readable output (--json) is canonical: identical
spec and seed give byte-identical bytes.  A report's JSON is its record
fields (torusdyn.record), apart from the exceptions in _FIELD_EXCEPTIONS.

Exit codes: 0 success, 2 parse error, 3 precondition violation or exhausted
memory or recursion depth, 4 oracle UNDECIDED under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import dynamics
from .errors import OracleError, ParseError, PreconditionError
from .intlinalg import IntMatrix
from .kummer import PRINT_DIGIT_LIMIT, KummerNumber, format_point, layers_of, parse_point, printable
from .polyalg import IntPoly
from .record import Record
from .torus import AffineMonomialMap, Subtorus

if TYPE_CHECKING:  # the oracle loads only in the commands that run the density test
    from .oracle import ContainmentResult

_OPTION_FIELDS = {
    "iterate_cap": int,
    "degree_bound": int,
    "torsion_cap": int,
    "seed": int,
    "retries": int,
    "tolerance": str,
    "family_budget": int,
    "point_budget": int,
}


class MapSpec(Record):
    matrix: tuple[tuple[int, ...], ...]
    gamma: tuple[str, ...]
    options: dict

    def to_map(self) -> AffineMonomialMap:
        try:
            return AffineMonomialMap.build([list(r) for r in self.matrix], parse_point(self.gamma))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def canonical_json(self) -> str:
        doc = {
            "matrix": [list(r) for r in self.matrix],
            "gamma": list(format_point(self.to_map().translation)),
            "options": {k: self.options[k] for k in sorted(self.options)},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# The spectral-radius bracketing slows fast as the tolerance shrinks (minutes at n = 6 and 1/10^6).
_TOLERANCE_FLOOR = Fraction(1, 10**4)


def _tolerance(text: str | None) -> Fraction:
    """A spec's relative tolerance for the degree interval (the library default when absent)."""
    try:
        tol = dynamics.ClassifyConfig.rel_tol if text is None else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"tolerance {text!r} is not a fraction") from exc
    if tol < _TOLERANCE_FLOOR:
        raise ParseError(f"tolerance must be at least {_TOLERANCE_FLOOR}")
    return tol


def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int in Python, but `true` is not a number."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_map_spec(path: str) -> MapSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read map spec {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"map spec {path} is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"map spec {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # CPython's int-from-str digit limit, in words that differ between versions
        raise ParseError(f"map spec {path} has an integer past the interpreter's int-from-str digit limit") from exc
    if not isinstance(doc, dict) or "matrix" not in doc or "gamma" not in doc:
        raise ParseError("map spec must be an object with 'matrix' and 'gamma'")
    matrix = doc["matrix"]
    gamma = doc["gamma"]
    if (
        not isinstance(matrix, list)
        or not all(isinstance(r, list) and all(_is_int(x) for x in r) for r in matrix)
    ):
        raise ParseError("'matrix' must be a nested list of integers")
    if not isinstance(gamma, list) or not all(isinstance(g, str) for g in gamma):
        raise ParseError("'gamma' must be a list of coordinate strings")
    if len(matrix) != len(gamma) or any(len(r) != len(gamma) for r in matrix):
        raise ParseError("matrix shape must match the number of gamma coordinates")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("'options' must be an object")
    for key, val in options.items():
        want = _OPTION_FIELDS.get(key)
        if want is None:
            raise ParseError(f"unknown option {key!r}")
        if not (_is_int(val) if want is int else isinstance(val, want)):
            raise ParseError(f"option {key!r} must be {want.__name__}")
        if key == "seed" and val < 0:  # the default seed, 0, may be written out
            raise ParseError("option 'seed' must be non-negative")
        if want is int and key != "seed" and val <= 0:
            raise ParseError(f"option {key!r} must be positive")
    _tolerance(options.get("tolerance"))  # every command refuses a bad tolerance, whether it reads it or not
    spec = MapSpec(tuple(tuple(r) for r in matrix), tuple(gamma), dict(options))
    spec.to_map()  # validates coordinates and det != 0
    return spec


_CAP_FLAGS = ("iterate_cap", "degree_bound", "torsion_cap", "retries")
# The longest orbit `orbit -n` and `check-density --budget` compute.  Exponents
# gain digits at every step, so the output grows quadratically with the length,
# and some 10^4 steps of [[2,1],[1,1]] put an exponent past CPython's
# 4300-digit int -> str limit.
ORBIT_LENGTH_CAP = 1000
_LENGTH_FLAGS = {"orbit": "length", "check-density": "budget"}
# The lengths, budgets and moduli of single commands, which must be positive too.
_COMMAND_FLAGS = {"orbit": ("length",), "check-density": ("budget",), "periodic": ("modulus", "budget")}


def _check_flags(args) -> None:
    """Every subcommand takes the cap flags and --seed; reject a non-positive cap,
    length, budget or modulus, or a negative seed (as in a spec)."""
    for key in _CAP_FLAGS + _COMMAND_FLAGS.get(args.command, ()):
        flag = getattr(args, key)
        if flag is not None and flag <= 0:
            raise ParseError(f"--{key.replace('_', '-')} must be positive")
    if args.seed is not None and args.seed < 0:
        raise ParseError("option 'seed' must be non-negative")
    length = _LENGTH_FLAGS.get(args.command)
    if length and getattr(args, length) > ORBIT_LENGTH_CAP:
        raise ParseError(f"--{length} must be at most ORBIT_LENGTH_CAP = {ORBIT_LENGTH_CAP}")


def _config_from(spec: MapSpec, args) -> dynamics.ClassifyConfig:
    options = dict(spec.options)
    for key in (*_CAP_FLAGS, "seed"):
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
    tol = _tolerance(options.pop("tolerance", None))
    force_family = bool(getattr(args, "force_family", False))
    return dynamics.ClassifyConfig(**options, rel_tol=tol, force_family=force_family)


# -- serialization --------------------------------------------------------------


# Where a report's JSON departs from its record fields, keyed by (type, field):
# None leaves the field out, and (key, read) writes read(obj) under key.  A key
# that is not a field of the type adds it.
_FIELD_EXCEPTIONS = {
    (Subtorus, "dim"): ("dim", attrgetter("dim")),
    (Subtorus, "cochar_basis"): ("cochar_basis", attrgetter("cochar_basis")),
    (dynamics.Decomposition, "base_map"): None,
    (dynamics.Decomposition, "phi1"): None,
    (dynamics.Decomposition, "phi2"): None,
    (dynamics.Decomposition, "conjugated_phi2"): ("conjugated_translation", attrgetter("conjugated_phi2.translation")),
    (dynamics.ClassificationReport, "degree"): ("dynamical_degree", attrgetter("degree")),
    (dynamics.ClassificationReport, "family"): ("invariant_family", attrgetter("family")),
    (dynamics.CosetFamily, "torus"): None,
    (dynamics.CosetFamily, "layers"): None,
    (dynamics.CosetFamily, "cycle"): ("cycle", attrgetter("cycle")),
}
_TEXT_LEAVES = (Fraction, KummerNumber, IntPoly)


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return _encoder(type(obj))(obj)


@cache
def _encoder(cls) -> Callable:
    """How to_jsonable encodes an object of type cls, chosen once per type.

    A record gives each of its fields, apart from the exceptions above.
    """
    if issubclass(cls, _TEXT_LEAVES):
        return str
    if issubclass(cls, IntMatrix):
        return IntMatrix.to_rows
    if issubclass(cls, Record):
        by_field = {name: (name, attrgetter(name)) for name in cls._fields}
        by_field |= {name: rule for (c, name), rule in _FIELD_EXCEPTIONS.items() if c is cls}
        rules = [rule for rule in by_field.values() if rule is not None]
        return lambda obj: {key: to_jsonable(read(obj)) for key, read in rules}
    if issubclass(cls, (list, tuple)):
        return lambda obj: [to_jsonable(x) for x in obj]
    if issubclass(cls, dict):
        return lambda obj: {k: to_jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {cls}")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(to_jsonable_dict(payload), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def to_jsonable_dict(payload: dict) -> dict:
    return {k: to_jsonable(v) for k, v in payload.items()}


# -- commands ----------------------------------------------------------------------


def _cmd_classify(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    report = dynamics.classify(phi, config)
    lines = [f"verdict: {report.verdict}", f"dynamical degree: {report.degree}"]
    if report.fibration:
        w = report.fibration
        lines.append(f"fibration witness: iterate {w.iterate}, character {list(w.character)}")
    if report.wildness:
        lines.append(f"wildness: dense = {report.wildness.dense} (iterate {report.wildness.iterate})")
    if report.family:
        lines.append(f"invariant family: {len(report.family)} coset cycles")
    if report.density:
        lines.append(f"density evidence: {report.density.status}")
    for flag in report.flags:
        lines.append(f"note: {flag}")
    _emit({"command": "classify", "report": report}, args.json, lines)
    return _strict_rc(args, report.density)


def _cmd_fibration(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    witness = dynamics.find_invariant_fibration(phi, config.iterate_cap)
    if witness is None:
        lines = ["no invariant fibration (within the iterate cap)"]
    else:
        lines = [f"witness: iterate {witness.iterate}, character {list(witness.character)}"]
    _emit({"command": "fibration", "witness": witness}, args.json, lines)
    return 0


def _cmd_wild(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    cert = dynamics.wildness_certificate(phi)
    lines = [
        f"dense: {cert.dense}",
        f"unipotent iterate: {cert.iterate} (nilpotency {cert.nilpotency})",
        f"gamma_bar: {list(format_point(cert.gamma_bar))}",
    ]
    if not cert.dense:
        lines.append(f"refutation character: {list(cert.refutation)}")
    _emit({"command": "wild", "certificate": cert}, args.json, lines)
    return 0


def _cmd_decompose(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    dec = dynamics.decompose(phi)
    lines = [
        f"normalizing iterate: {dec.normalize_iterate}",
        f"minimal polynomial: (x - 1)^{dec.unipotent_multiplicity} * ({dec.hyperbolic_factor})",
        f"x1 dim {dec.x1.dim}, x2 dim {dec.x2.dim}",
        f"gamma1: {list(format_point(dec.gamma1))}",
        f"gamma2: {list(format_point(dec.gamma2))}",
        f"beta2: {list(format_point(dec.beta2))}",
    ]
    _emit({"command": "decompose", "decomposition": dec}, args.json, lines)
    return 0


def _cmd_periodic(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    pts = dynamics.periodic_torsion_points(phi.matrix, args.modulus, args.budget)
    lines = [f"{len(pts)} torsion points of order dividing {args.modulus}:"]
    lines += [f"  {list(format_point(p))} period {per}" for p, per in pts]
    points = [{"point": p, "period": per} for p, per in pts]
    _emit({"command": "periodic", "modulus": args.modulus, "points": points}, args.json, lines)
    return 0


def _cmd_orbit(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    x = _parse_cli_point(args.point, phi.dim)
    orbit = phi.orbit(x, args.length)  # _check_flags refused a length < 1
    if not all(printable(c) for p in orbit for c in p):
        raise ParseError(
            f"an exponent of this orbit passes {PRINT_DIGIT_LIMIT} digits, the limit on printing an integer; "
            "ask for a shorter orbit with --length"
        )
    lines = [f"{i}: {list(format_point(p))}" for i, p in enumerate(orbit)]
    _emit({"command": "orbit", "orbit": orbit}, args.json, lines)
    return 0


def _cmd_check_density(args, phi: AffineMonomialMap, config: dynamics.ClassifyConfig) -> int:
    from . import oracle

    x = _parse_cli_point(args.point, phi.dim)
    orbit = oracle.orbit_sample(phi, x, args.budget)
    result = oracle.hypersurface_containment(layers_of(orbit), config.degree_bound, config.seed, config.retries)
    lines = [
        f"orbit of length {len(orbit)}: {result.status} "
        f"(degree bound {result.degree_bound}, {result.monomial_count} monomials)"
    ]
    if result.prime:
        lines.append(f"certified modulo prime {result.prime} (rank {result.rank})")
    _emit({"command": "check-density", "result": result}, args.json, lines)
    return _strict_rc(args, result)


def _strict_rc(args, density: ContainmentResult | None) -> int:
    """Exit code 4 under --strict when the density oracle ran and stayed UNDECIDED."""
    if args.strict and density is not None and not density.not_contained:
        print("density oracle returned UNDECIDED under --strict", file=sys.stderr)
        return 4
    return 0


def _parse_cli_point(text: str, dim: int):
    coords = [c.strip() for c in text.split(",")]
    if len(coords) != dim:
        raise ParseError(f"point has {len(coords)} coordinates, map has dimension {dim}")
    return parse_point(coords)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusdyn",
        description="Classify affine monomial dynamical systems on the algebraic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, strict: bool = False):
        p.add_argument("spec", help="path to the JSON map spec")
        p.add_argument("--iterate-cap", dest="iterate_cap", type=int, default=None)
        p.add_argument("--degree-bound", dest="degree_bound", type=int, default=None)
        p.add_argument("--torsion-cap", dest="torsion_cap", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--retries", type=int, default=None)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if strict:
            p.add_argument(
                "--strict",
                action="store_true",
                help="exit with code 4 when the density oracle is UNDECIDED",
            )

    p = sub.add_parser("classify", help="full classification with certificates")
    common(p, strict=True)
    p.add_argument(
        "--force-family",
        dest="force_family",
        action="store_true",
        help="attach an invariant family even when a fibration wins the verdict",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fibration", help="search for an invariant monomial function")
    common(p)
    p.set_defaults(func=_cmd_fibration)

    p = sub.add_parser("wild", help="wildness certificate for a degree-one automorphism")
    common(p)
    p.set_defaults(func=_cmd_wild)

    p = sub.add_parser("decompose", help="unipotent/hyperbolic splitting of a degree->1 map")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("periodic", help="periodic torsion points of the endomorphism part")
    common(p)
    p.add_argument("--modulus", "-d", type=int, required=True, help="torsion order bound d")
    p.add_argument("--budget", type=int, default=200, help="maximum number of points")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("orbit", help="exact orbit prefix of a point")
    common(p)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--length", "-n", type=int, default=10)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("check-density", help="hypersurface refutation on an orbit sample")
    common(p, strict=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--budget", type=int, default=50, help="orbit sample length")
    p.set_defaults(func=_cmd_check_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        spec = load_map_spec(args.spec)
        return args.func(args, spec.to_map(), _config_from(spec, args))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4
    except (MemoryError, RecursionError) as exc:
        resource = "memory" if isinstance(exc, MemoryError) else "recursion depth"
        print(f"resource exhausted: out of {resource} ({type(exc).__name__})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
