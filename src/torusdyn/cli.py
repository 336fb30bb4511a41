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
spec and seed give byte-identical bytes.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 oracle
UNDECIDED under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import dynamics, oracle
from .errors import OracleError, ParseError, PreconditionError
from .intlinalg import IntMatrix, Lattice
from .kummer import PRINT_DIGIT_LIMIT, KummerNumber, format_point, layers_of, parse_point, printable
from .polyalg import IntPoly
from .torus import AffineMonomialMap, Coset, Subtorus

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


@dataclass(frozen=True)
class MapSpec:
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read map spec {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"map spec {path} is not valid JSON: {exc}") from exc
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
        if want is int and val <= 0:
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


def _check_flags(args) -> None:
    """Every subcommand takes the cap flags; reject non-positive values on all of them."""
    for key in _CAP_FLAGS:
        flag = getattr(args, key)
        if flag is not None and flag <= 0:
            raise ParseError(f"--{key.replace('_', '-')} must be positive")
    if args.command == "periodic" and args.budget <= 0:
        raise ParseError("--budget must be positive")
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
    return replace(dynamics.ClassifyConfig(), **options, rel_tol=tol, force_family=force_family)


# -- serialization --------------------------------------------------------------


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, KummerNumber):
        return str(obj)
    if isinstance(obj, IntPoly):
        return str(obj)
    if isinstance(obj, IntMatrix):
        return obj.to_rows()
    if isinstance(obj, Lattice):
        return {"ambient_dim": obj.ambient_dim, "basis": [list(r) for r in obj.basis]}
    if isinstance(obj, Subtorus):
        return {
            "ambient_dim": obj.ambient_dim,
            "dim": obj.dim,
            "annihilator": to_jsonable(obj.annihilator),
            "cochar_basis": obj.cochar_basis.to_rows(),
        }
    if isinstance(obj, Coset):
        return {"base": list(format_point(obj.base)), "torus": to_jsonable(obj.torus)}
    if isinstance(obj, dynamics.DynamicalDegree):
        return {
            "exact_one": obj.exact_one,
            "certificate": list(obj.certificate) if obj.certificate else None,
            "interval": [str(obj.interval[0]), str(obj.interval[1])] if obj.interval else None,
        }
    if isinstance(obj, dynamics.FibrationWitness):
        return {
            "iterate": obj.iterate,
            "character": list(obj.character),
            "lattice": to_jsonable(obj.lattice),
        }
    if isinstance(obj, dynamics.WildnessCertificate):
        return {
            "iterate": obj.iterate,
            "nilpotency": obj.nilpotency,
            "projection": obj.projection.to_rows(),
            "gamma_bar": list(format_point(obj.gamma_bar)),
            "primes": list(obj.primes),
            "exponent_matrix": [[str(f) for f in row] for row in obj.exponent_matrix],
            "dense": obj.dense,
            "refutation": list(obj.refutation) if obj.refutation else None,
        }
    if isinstance(obj, dynamics.Decomposition):
        return {
            "normalize_iterate": obj.normalize_iterate,
            "unipotent_multiplicity": obj.unipotent_multiplicity,
            "hyperbolic_factor": str(obj.hyperbolic_factor),
            "x1": to_jsonable(obj.x1),
            "x2": to_jsonable(obj.x2),
            "gamma1": list(format_point(obj.gamma1)),
            "gamma2": list(format_point(obj.gamma2)),
            "a1": obj.a1.to_rows(),
            "a2": obj.a2.to_rows(),
            "beta2": list(format_point(obj.beta2)),
            "beta2_embedded": list(format_point(obj.beta2_embedded)),
            "conjugated_translation": list(format_point(obj.conjugated_phi2.translation)),
        }
    if isinstance(obj, dynamics.CosetFamily):
        return {
            "torsion_order": obj.torsion_order,
            "orbit_exponents": [list(u) for u in obj.orbit_exponents],
            "cycle": [to_jsonable(c) for c in obj.cycle],
        }
    if isinstance(obj, oracle.ContainmentResult):
        return {
            "status": obj.status,
            "degree_bound": obj.degree_bound,
            "point_count": obj.point_count,
            "monomial_count": obj.monomial_count,
            "prime": obj.prime,
            "rank": obj.rank,
            "attempts": obj.attempts,
        }
    if isinstance(obj, dynamics.ClassificationReport):
        return {
            "verdict": obj.verdict,
            "dynamical_degree": to_jsonable(obj.degree),
            "fibration": to_jsonable(obj.fibration),
            "wildness": to_jsonable(obj.wildness),
            "invariant_family": [to_jsonable(f) for f in obj.family],
            "density": to_jsonable(obj.density),
            "flags": list(obj.flags),
        }
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(to_jsonable_dict(payload), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def to_jsonable_dict(payload: dict) -> dict:
    return {k: to_jsonable(v) for k, v in payload.items()}


# -- commands ----------------------------------------------------------------------


def _cmd_classify(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
    config = _config_from(spec, args)
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
    if args.strict and report.density is not None and not report.density.not_contained:
        print("density oracle returned UNDECIDED under --strict", file=sys.stderr)
        return 4
    return 0


def _cmd_fibration(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
    config = _config_from(spec, args)
    witness = dynamics.find_invariant_fibration(phi, config.iterate_cap)
    if witness is None:
        lines = ["no invariant fibration (within the iterate cap)"]
    else:
        lines = [f"witness: iterate {witness.iterate}, character {list(witness.character)}"]
    _emit({"command": "fibration", "witness": witness}, args.json, lines)
    return 0


def _cmd_wild(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
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


def _cmd_decompose(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
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


def _cmd_periodic(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
    pts = dynamics.periodic_torsion_points(phi.matrix, args.modulus, args.budget)
    lines = [f"{len(pts)} torsion points of order dividing {args.modulus}:"]
    lines += [f"  {list(format_point(p))} period {per}" for p, per in pts]
    payload = {
        "command": "periodic",
        "modulus": args.modulus,
        "points": [{"point": list(format_point(p)), "period": per} for p, per in pts],
    }
    _emit(payload, args.json, lines)
    return 0


def _cmd_orbit(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
    x = _parse_cli_point(args.point, phi.dim)
    orbit = oracle.orbit_sample(phi, x, args.length)
    if not all(printable(c) for p in orbit for c in p):
        raise ParseError(
            f"an exponent of this orbit passes {PRINT_DIGIT_LIMIT} digits, the limit on printing an integer; "
            "ask for a shorter orbit with --length"
        )
    lines = [f"{i}: {list(format_point(p))}" for i, p in enumerate(orbit)]
    payload = {"command": "orbit", "orbit": [list(format_point(p)) for p in orbit]}
    _emit(payload, args.json, lines)
    return 0


def _cmd_check_density(args) -> int:
    spec = load_map_spec(args.spec)
    phi = spec.to_map()
    config = _config_from(spec, args)
    x = _parse_cli_point(args.point, phi.dim)
    orbit = oracle.orbit_sample(phi, x, args.budget)
    result = oracle.hypersurface_containment(
        layers_of(orbit), config.degree_bound, seed=config.seed, retries=config.retries
    )
    lines = [
        f"orbit of length {len(orbit)}: {result.status} "
        f"(degree bound {result.degree_bound}, {result.monomial_count} monomials)"
    ]
    if result.prime:
        lines.append(f"certified modulo prime {result.prime} (rank {result.rank})")
    _emit({"command": "check-density", "result": result}, args.json, lines)
    if args.strict and not result.not_contained:
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
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
