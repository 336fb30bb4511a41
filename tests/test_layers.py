"""Exponent layers: the round trip through layers_of/from_layers, and the
dense-family pipeline that runs on them (coset cycles, sample accounting and
the density test's shift)."""

import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from torusdyn.cli import load_map_spec
from torusdyn.dynamics import (
    _affine_step,
    _torsion_orbits_exact_order,
    decompose,
    dynamical_degree,
    invariant_family,
    sample_family_points,
)
from torusdyn.intlinalg import IntMatrix, mat_vec
from torusdyn.kummer import KummerNumber, format_point, from_layers, layer_orders, layers_of, parse_point
from torusdyn.oracle import hypersurface_containment
from torusdyn.torus import AffineMonomialMap, coset_cycle_invariant

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

_torsions = st.integers(1, 12).flatmap(lambda m: st.integers(0, m - 1).map(lambda k: Fraction(k, m)))
# negative and fractional exponents over mixed primes, one of them large
_exponents = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 6)))
_coords = st.builds(
    KummerNumber.build, _torsions, st.dictionaries(st.sampled_from((2, 3, 5, 7, 1000003)), _exponents, max_size=4)
)
_point_lists = st.integers(0, 4).flatmap(lambda n: st.lists(st.tuples(*[_coords] * n), max_size=5))
_property = settings(derandomize=True, deadline=None, database=None, max_examples=200)

_HALF = KummerNumber.prime_power(2, Fraction(1, 2))


@_property
@given(_point_lists)
@example([])
@example([(KummerNumber.one(),)])
@example([(KummerNumber.root_of_unity(6, 5) * _HALF, _HALF.inverse()), (KummerNumber.from_rational(-12), _HALF)])
def test_layers_round_trip(points):
    den, primes, layers = layers_of(points)
    coords = [c for p in points for c in p]
    assert den == math.lcm(*(c.torsion.denominator for c in coords), *(e.denominator for c in coords for _, e in c.primes))
    assert primes == tuple(sorted({p for c in coords for p in c.prime_support()}))
    for pt, x in zip(points, layers):
        assert len(x) == 1 + len(primes) and all(len(v) == len(pt) for v in x)
        assert all(0 <= t < den for t in x[0])
        for j, c in enumerate(pt):
            assert Fraction(x[0][j], den) == c.torsion
            assert all(Fraction(x[k][j], den) == c.prime_exponent(p) for k, p in enumerate(primes, 1))
    back = [from_layers(den, primes, x) for x in layers]
    assert back == points and [hash(p) for p in back] == [hash(p) for p in points]


@_property
@given(_point_lists)
def test_layers_add_under_multiplication(points):
    den, primes, layers = layers_of(points)
    for (x, lx), (y, ly) in itertools.combinations(zip(points, layers), 2):
        summed = [[a + b for a, b in zip(u, v)] for u, v in zip(lx, ly)]
        assert from_layers(den, primes, summed) == tuple(a * b for a, b in zip(x, y))


@_property
@given(_point_lists)
@example([(_HALF, KummerNumber.one()), (_HALF, KummerNumber.root_of_unity(4))])
def test_layer_orders_match_denominators(points):
    coords = [c for p in points for c in p]
    needed: dict[int, int] = {}
    for c in coords:
        for p, e in c.primes:
            needed[p] = math.lcm(needed.get(p, 1), e.denominator)
    torsion_lcm = math.lcm(*(c.torsion.denominator for c in coords))
    assert layer_orders(*layers_of(points)) == (torsion_lcm, needed)


_maps_and_points = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda rows: IntMatrix.from_rows(rows).det() != 0
        ),
        st.tuples(*[_coords] * n),
        st.tuples(*[_coords] * n),
    )
)


@_property
@given(_maps_and_points)
def test_affine_step_matches_apply(case):
    rows, gamma, x = case
    phi = AffineMonomialMap.build(rows, gamma)
    den, primes, (lx, lg) = layers_of((x, gamma))
    assert from_layers(den, primes, _affine_step(rows, den, lx, lg)) == phi.apply(x)


def _eager_orbits(a2: IntMatrix, d: int) -> list[list[tuple[int, ...]]]:
    """The orbit enumeration as it was before it became lazy (reference)."""
    k = a2.rows
    if d == 1:
        return [[(0,) * k]]
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for u in itertools.product(range(d), repeat=k):
        if u in seen or math.gcd(math.gcd(*u), d) != 1:
            continue
        orbit = [u]
        v = tuple(x % d for x in mat_vec(a2, u))
        while v != u:
            orbit.append(v)
            v = tuple(x % d for x in mat_vec(a2, v))
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _fixture_maps():
    return {path.stem: load_map_spec(str(path)).to_map() for path in sorted(FIXDIR.glob("*.json"))}


def test_torsion_orbits_match_the_eager_list():
    for name, phi in _fixture_maps().items():
        # the hyperbolic factor of a degree > 1 map; a degree-one map's own matrix
        a2 = phi.matrix if dynamical_degree(phi).exact_one else decompose(phi).a2
        for d in range(1, 13):
            if math.gcd(d, a2.det()) == 1:
                assert list(_torsion_orbits_exact_order(a2, d)) == _eager_orbits(a2, d), (name, d)


def test_torsion_orbits_are_lazy():
    # 45^6 tuples: only a lazy enumeration hands out its first orbit at once
    a2 = IntMatrix.from_rows([[2 if i == j else 0 for j in range(6)] for i in range(6)])
    first = next(_torsion_orbits_exact_order(a2, 45))
    assert first[0] == (0, 0, 0, 0, 0, 1) and len(first) == 12


# dense_families-style maps (n = 2, 3; x1 trivial) and highdim-style maps
# (a hyperbolic block plus a unipotent Jordan block, conjugated; n = 4..6),
# each with (sampled points, sha256 prefix of their text, cosets built,
# density degree bound, (status, prime, rank, attempts)) as computed by the
# KummerNumber-product pipeline these layers replaced.
PIPELINE_CASES = {
    "dense_n2_cat": (
        [[2, 1], [1, 1]], ["2^(1/2)", "zeta(3) * 3"],
        (24, "db599b16560a0626", 24, 3, ("NOT_CONTAINED", 1149037, 10, 1)),
    ),
    "dense_n2_det7": (
        [[1, 2], [3, -1]], ["5", "3 * 2^(-1/2)"],
        (12, "d5a026130a9211e4", 12, 3, ("NOT_CONTAINED", 1098847, 10, 1)),
    ),
    "dense_n3": (
        [[1, 1, 0], [0, 1, 1], [1, 0, 2]], ["zeta(4)", "2^(1/2) * 5", "3^(-1)"],
        (200, "37a6ad8884a66c5a", 530, 3, ("NOT_CONTAINED", 2220961, 20, 1)),
    ),
    "highdim_n4": (
        [[1, 1, 0, 0], [1, 2, 0, -1], [0, 0, 1, 1], [0, 0, 0, 1]], ["2", "3", "5", "2^(1/2)"],
        (72, "d8cb2573e6370f48", 24, 2, ("NOT_CONTAINED", 1149193, 15, 1)),
    ),
    "highdim_n5": (
        [[2, -1, 1, -1, 1], [1, -1, 1, 0, 1], [0, 0, 1, 1, 0], [0, -2, 0, 1, 1], [2, -4, 2, 0, 3]],
        ["2", "3", "5", "2", "3"],
        (72, "3536b8381bc9cd1b", 24, 2, ("NOT_CONTAINED", 1149037, 21, 1)),
    ),
    "highdim_n6": (
        [[3, 1, -2, 0, 2, -2], [1, 1, 2, 0, 2, 2], [0, 0, 2, 0, 0, 0], [0, 0, 2, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]],
        ["2", "3", "5", "2", "3", "5"],
        (200, "18ffd8c4d3092e09", 99, 2, ("NOT_CONTAINED", 1174141, 28, 1)),
    ),
}


def _pipeline_maps():
    maps = {name: phi for name, phi in _fixture_maps().items() if not dynamical_degree(phi).exact_one}
    assert sorted(maps) == ["example_dense", "example_dense3"]
    maps.update({name: AffineMonomialMap.build(rows, parse_point(g)) for name, (rows, g, _) in PIPELINE_CASES.items()})
    return maps


def test_families_are_invariant_cycles():
    for name, phi in _pipeline_maps().items():
        fams = invariant_family(phi, 8)
        assert len(fams) == 8, name
        for fam in fams:
            assert coset_cycle_invariant(phi, fam.cycle), name
        # the layer-based dedupe agrees with the cosets' own canonical keys
        keys = [frozenset(c.canonical_key() for c in fam.cycle) for fam in fams]
        assert len(set(keys)) == len(keys), name


def test_cycles_repeated_at_a_higher_torsion_order_are_dropped():
    # with a nontrivial x1 a cycle can come back from an orbit of another order
    # (over another common denominator); the lowest-terms key drops it.
    # Orders and cycle lengths as found with the cosets' canonical keys.
    cases = [
        ([[-3, 2], [1, -2]], ["zeta(3)", "-5/4"], [1, 5, 5, 5, 5, 7, 7, 9, 11, 11, 13, 13], [2, 2, 2, 2, 2, 6, 6, 1, 10, 10, 6, 6]),
        ([[-3, -3], [0, 1]], ["zeta(3)^2 * 225/4", "zeta(3)^2"], [1, 5, 7, 7, 8, 11, 13, 13, 16, 16, 17, 19], [1, 4, 3, 3, 1, 10, 6, 6, 1, 1, 16, 9]),
    ]
    for rows, gamma, orders, lengths in cases:
        phi = AffineMonomialMap.build(rows, parse_point(gamma))
        fams = invariant_family(phi, 12)
        assert [f.torsion_order for f in fams] == orders
        assert [len(f.cycle) for f in fams] == lengths
        assert len({frozenset(c.canonical_key() for c in f.cycle) for f in fams}) == 12
        assert all(coset_cycle_invariant(phi, f.cycle) for f in fams)


def test_sample_and_containment_pinned():
    for name, (rows, gamma, pinned) in PIPELINE_CASES.items():
        phi = AffineMonomialMap.build(rows, parse_point(gamma))
        fams = invariant_family(phi, 8)
        pts = sample_family_points(fams, 5)
        text = "\n".join(" ".join(format_point(p)) for p in pts)
        res = hypersurface_containment(pts, pinned[3], seed=5)
        got = (
            len(pts),
            hashlib.sha256(text.encode()).hexdigest()[:16],
            sum(len(f.cycle) for f in fams),
            pinned[3],
            (res.status, res.prime, res.rank, res.attempts),
        )
        assert got == pinned, name
