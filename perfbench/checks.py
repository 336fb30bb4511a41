"""Independent checks of torusdyn's answers, made with the benchmark's own arithmetic.

Every check returns a list of error strings (empty when the answer holds).
Reports are first brought into one neutral form, from a library
ClassificationReport (``from_report``) or from ``classify --json`` output
(``from_json``), by reading stored fields only; nothing torusdyn computes is
reused in a check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import exact

NOT_CONTAINED = "NOT_CONTAINED"
EIGEN_TOL = 1e-7
# Eigenvalues of an m-fold Jordan block move by about eps^(1/m) in floating
# point, up to 1e-3 at n = 6; a degree > 1 integer matrix of size <= 6 has
# spectral radius above 1.1, so 1e-2 still separates the two cases.
UNIT_CIRCLE_TOL = 1e-2


# -- neutral report form ---------------------------------------------------------------


def from_report(report) -> dict:
    deg = report.degree
    return {
        "verdict": report.verdict,
        "exact_one": deg.exact_one,
        "certificate": list(deg.certificate) if deg.certificate else None,
        "interval": list(deg.interval) if deg.interval else None,
        "fibration": (report.fibration.iterate, list(report.fibration.character)) if report.fibration else None,
        "wild_dense": report.wildness.dense if report.wildness else None,
        "families": [
            [(exact.point_from_kummer(c.base), [list(r) for r in c.torus.annihilator.basis]) for c in f.cycle]
            for f in report.family
        ],
        "density": _density(report.density.__dict__) if report.density else None,
    }


def from_json(doc: dict) -> dict:
    deg = doc["dynamical_degree"]
    fib = doc["fibration"]
    return {
        "verdict": doc["verdict"],
        "exact_one": deg["exact_one"],
        "certificate": deg["certificate"],
        "interval": [Fraction(x) for x in deg["interval"]] if deg["interval"] else None,
        "fibration": (fib["iterate"], fib["character"]) if fib else None,
        "wild_dense": doc["wildness"]["dense"] if doc["wildness"] else None,
        "families": [
            [(exact.parse_point(c["base"]), c["torus"]["annihilator"]["basis"]) for c in f["cycle"]]
            for f in doc["invariant_family"]
        ],
        "density": _density(doc["density"]) if doc["density"] else None,
    }


def _density(d) -> dict:
    return {k: d[k] for k in ("status", "degree_bound", "point_count", "monomial_count", "rank")}


def undecided(rep: dict) -> bool:
    """The density oracle gave no certificate: the operation failed, it did not answer wrongly."""
    return rep["density"] is not None and rep["density"]["status"] != NOT_CONTAINED


# -- the checks ------------------------------------------------------------------------------


def check_classification(rows, gamma, rep: dict, expected_verdict: str, ell: int | None = None) -> list[str]:
    """All checks that apply to one classify answer."""
    errors = []
    if rep["verdict"] != expected_verdict:
        errors.append(f"verdict {rep['verdict']} but the map's own analysis gives {expected_verdict}")
    if rep["exact_one"]:
        errors += check_degree_one(rows, rep["certificate"], ell)
    else:
        errors += check_degree_gt_one(rows, rep["interval"])
    if rep["verdict"] == "FIBRATION":
        if rep["fibration"] is None:
            errors.append("FIBRATION verdict without a witness")
        else:
            errors += check_fibration(rows, gamma, *rep["fibration"])
    if rep["verdict"] == "DEGREE_ONE_WILD":
        if rep["wild_dense"] is not True:
            errors.append("DEGREE_ONE_WILD verdict without a dense wildness certificate")
        errors += check_wild(rows, gamma, rep["certificate"][0] if rep["certificate"] else 1)
    if rep["verdict"] == "DEGREE_GT_ONE_DENSE_INVARIANTS":
        if not rep["families"]:
            errors.append("dense verdict with an empty invariant family")
        errors += check_cycles(rows, gamma, rep["families"])
        if rep["density"] is None:
            errors.append("dense verdict without density evidence")
        elif not undecided(rep):
            errors += check_density(len(rows), rep["density"])
    return errors


def check_degree_gt_one(rows, interval) -> list[str]:
    """The largest numpy eigenvalue modulus lies in the certified interval and above 1."""
    import numpy as np

    if interval is None:
        return ["degree > 1 without a certified interval"]
    top = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    lo, hi = (float(x) for x in interval)
    errors = []
    if not lo - EIGEN_TOL <= top <= hi + EIGEN_TOL:
        errors.append(f"spectral radius {top} outside the certified [{lo}, {hi}]")
    if top <= 1 + EIGEN_TOL or lo <= 1:
        errors.append(f"degree > 1 claimed but spectral radius {top}, lower bound {lo}")
    return errors


def check_degree_one(rows, certificate, ell: int | None) -> list[str]:
    """Every eigenvalue has modulus 1, (A^l - I)^m = 0 in integers, and l is the expected one."""
    import numpy as np

    if not certificate:
        return ["degree one without an (l, m) certificate"]
    errors = []
    mods = abs(np.linalg.eigvals(np.array(rows, dtype=float)))
    if max(abs(m - 1) for m in mods) > UNIT_CIRCLE_TOL:
        errors.append(f"degree one claimed but eigenvalue moduli {sorted(mods)}")
    l_, m_ = certificate
    n = len(rows)
    nil = exact.matpow(exact.matsub(exact.matpow(rows, l_), exact.identity(n)), m_)
    if any(any(r) for r in nil):
        errors.append(f"(A^{l_} - I)^{m_} is not zero")
    if ell is not None and l_ != ell:
        errors.append(f"certificate iterate {l_}, but the finite blocks have lcm order {ell}")
    return errors


def check_fibration(rows, gamma, iterate: int, character) -> list[str]:
    """B(A^l - I) = 0 and chi_B(gamma_l) = 1, on exponent vectors."""
    n = len(rows)
    errors = []
    if not any(character):
        errors.append("fibration witness is the zero character")
    if any(exact.vecmat(character, exact.matsub(exact.matpow(rows, iterate), exact.identity(n)))):
        errors.append(f"witness {character} is not fixed by A^{iterate}")
    if not exact.is_one(exact.char_value(character, exact.iterate_translation(rows, gamma, iterate))):
        errors.append(f"witness {character} is not 1 on gamma_{iterate}")
    return errors


def check_wild(rows, gamma, ell: int) -> list[str]:
    """No character with entries in [-1, 1] is fixed by an iterate dividing l (brute force)."""
    n = len(rows)
    per_iterate = []
    for d in exact.divisors(ell):
        per_iterate.append((d, exact.matsub(exact.matpow(rows, d), exact.identity(n)), exact.iterate_translation(rows, gamma, d)))
    for b in _small_characters(n):
        for d, m, g in per_iterate:
            if not any(exact.vecmat(b, m)) and exact.is_one(exact.char_value(b, g)):
                return [f"character {list(b)} is invariant under phi^{d}: the map has a fibration"]
    return []


def _small_characters(n: int):
    return (b for b in itertools.product((-1, 0, 1), repeat=n) if any(b))


def check_cycles(rows, gamma, families) -> list[str]:
    """Each cycle closes under phi and every coset in it is proper.

    phi maps coset i into coset i+1 (cyclically): its torus is carried onto
    the next one (b*A lies in the row space of the previous annihilator, for
    each annihilator row b, with equal ranks), and phi(base_i) has the same
    character values as base_{i+1}.  Exponents are scaled to integers over
    one common denominator first, which keeps Fraction arithmetic out of
    the loop over cosets.
    """
    n = len(rows)
    if any(len(base) != n for cycle in families for base, _ in cycle):
        return ["a coset base has the wrong number of coordinates"]
    scale = exact.IntLayers([base for cycle in families for base, _ in cycle] + [gamma])
    g = scale.point(gamma)
    torus_ok: dict = {}
    for fi, cycle in enumerate(families):
        bases = [scale.point(base) for base, _ in cycle]
        for ci, (_, ann) in enumerate(cycle):
            nxt = (ci + 1) % len(cycle)
            nxt_ann = cycle[nxt][1]
            key = (tuple(map(tuple, ann)), tuple(map(tuple, nxt_ann)))
            if key not in torus_ok:
                torus_ok[key] = bool(ann) and exact.rank(ann) > 0 and exact.rank(ann) == exact.rank(nxt_ann) and all(
                    exact.in_row_space(exact.vecmat(b, rows), ann) for b in nxt_ann
                )
            if not torus_ok[key]:
                return [f"family {fi}: coset {ci} is not proper, or phi does not carry its torus onto the next"]
            image = scale.apply(rows, g, bases[ci])
            if any(scale.char(b, image) != scale.char(b, bases[nxt]) for b in nxt_ann):
                return [f"family {fi}: phi(base of coset {ci}) is not on coset {nxt}"]
    return []


def check_density(n: int, density: dict) -> list[str]:
    """NOT_CONTAINED must come with full rank, C(n + D, D) for degree bound D."""
    want = math.comb(n + density["degree_bound"], density["degree_bound"])
    if density["monomial_count"] != want or density["rank"] != want:
        return [f"NOT_CONTAINED with rank {density['rank']} / {density['monomial_count']} monomials, want {want}"]
    return []


def check_periodic(rows, d: int, points) -> list[str]:
    """Each point's period equals the period of u -> A u mod d in plain integers."""
    if not points:
        return ["no periodic points reported"]
    for pt_text, period in points:
        pt = exact.parse_point(pt_text)
        if any(c[1] or (c[0] * d).denominator != 1 for c in pt):
            return [f"{pt_text} is not a torsion point of order dividing {d}"]
        u = [int(c[0] * d) for c in pt]
        want = exact.orbit_period_mod(rows, u, d)
        if period != want:
            return [f"{pt_text}: period {period}, but u -> Au mod {d} has period {want}"]
    return []


def check_orbit(rows, gamma, start, printed) -> list[str]:
    want = exact.orbit(rows, gamma, start, len(printed))
    for i, (txt, w) in enumerate(zip(printed, want)):
        if not exact.points_eq(exact.parse_point(txt), w):
            return [f"orbit point {i} is {txt}, exponent vectors give {[exact.coord_str(c) for c in w]}"]
    return []


def check_decomposition(rows, gamma, doc: dict) -> list[str]:
    """gamma1 * gamma2 is the translation of phi^l0, and each lies on its subtorus."""
    g1, g2 = exact.parse_point(doc["gamma1"]), exact.parse_point(doc["gamma2"])
    base = exact.iterate_translation(rows, gamma, doc["normalize_iterate"])
    errors = []
    if not exact.points_eq(exact.mul(g1, g2), base):
        errors.append("gamma1 * gamma2 differs from the translation of the normalized iterate")
    for name, pt, ann in (("x1", g1, doc["x1"]["annihilator"]["basis"]), ("x2", g2, doc["x2"]["annihilator"]["basis"])):
        if any(not exact.is_one(exact.char_value(b, pt)) for b in ann):
            errors.append(f"gamma of {name} does not lie on {name}")
    if any(c != "1" for c in doc["conjugated_translation"]):
        errors.append("conjugation left a translation")
    return errors
