"""Exponent layers: the round trip through layers_of/from_layers, and the
dense-family pipeline that runs on them (coset cycles, sample accounting and
the density test's shift)."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from torusdyn.cli import load_map_spec
from torusdyn.dynamics import (
    CosetFamily,
    _torsion_orbits_exact_order,
    decompose,
    dynamical_degree,
    invariant_family,
    sample_family_points,
)
from torusdyn.intlinalg import IntMatrix, minpoly
from torusdyn.kummer import KummerNumber, format_point, from_layers, layer_orders, layers_of, parse_point
from torusdyn.oracle import hypersurface_containment
from torusdyn.polyalg import cyclotomic_part
from torusdyn.torus import AffineMonomialMap, Coset, _affine_step, coset_cycle_invariant, subtorus_image_under

from conftest import prime_power, rand_point, rand_unimodular_pair
from reference import mat_vec

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

_torsions = st.integers(1, 12).flatmap(lambda m: st.integers(0, m - 1).map(lambda k: Fraction(k, m)))
# negative and fractional exponents over mixed primes, one of them large
_exponents = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 6)))
_coords = st.builds(
    KummerNumber.build, _torsions, st.dictionaries(st.sampled_from((2, 3, 5, 7, 1000003)), _exponents, max_size=4)
)
_point_lists = st.integers(0, 4).flatmap(lambda n: st.lists(st.tuples(*[_coords] * n), max_size=5))
_property = settings(derandomize=True, deadline=None, database=None, max_examples=200)

_HALF = prime_power(2, Fraction(1, 2))


@_property
@given(_point_lists)
@example([])
@example([(KummerNumber.one(),)])
@example([(KummerNumber.root_of_unity(6, 5) * _HALF, _HALF.inverse()), (KummerNumber.from_rational(-12), _HALF)])
def test_layers_round_trip(points):
    den, primes, layers = layers_of(points)
    coords = [c for p in points for c in p]
    assert den == math.lcm(*(c.torsion.denominator for c in coords), *(e.denominator for c in coords for _, e in c.primes))
    assert primes == tuple(sorted({p for c in coords for p in dict(c.primes)}))
    for pt, x in zip(points, layers):
        assert len(x) == 1 + len(primes) and all(len(v) == len(pt) for v in x)
        assert all(0 <= t < den for t in x[0])
        for j, c in enumerate(pt):
            assert Fraction(x[0][j], den) == c.torsion
            assert all(Fraction(x[k][j], den) == dict(c.primes).get(p, 0) for k, p in enumerate(primes, 1))
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


@_property
@given(_point_lists.filter(bool), st.integers(0, 4))
def test_anchored_layer_orders_match_the_moved_sample(points, i):
    den, primes, layers = layers_of(points)
    anchor = layers[i % len(layers)]
    moved = [[[x - a for x, a in zip(u, v)] for u, v in zip(pt, anchor)] for pt in layers]
    orders = layer_orders(den, primes, layers, anchor)
    assert orders == layer_orders(den, primes, moved)
    shift = tuple(c.inverse() for c in points[i % len(points)])
    assert orders == layer_orders(*layers_of([tuple(a * s for a, s in zip(p, shift)) for p in points]))


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
        sample = sample_family_points(fams, 5)
        pts = [from_layers(sample[0], sample[1], x) for x in sample[2]]
        text = "\n".join(" ".join(format_point(p)) for p in pts)
        res = hypersurface_containment(sample, pinned[3], seed=5)
        got = (
            len(pts),
            hashlib.sha256(text.encode()).hexdigest()[:16],
            sum(len(f.cycle) for f in fams),
            pinned[3],
            (res.status, res.prime, res.rank, res.attempts),
        )
        assert got == pinned, name


def reference_sample(families, seed, per_coset=3, cap=200, torsion_lcm_cap=1_000_000, radical_cost_cap=4000):
    """The family sample as KummerNumber points, as it was computed before the
    sample became layers (reference), and how many candidates the caps skipped."""
    rng = random.Random(seed)
    pts, seen = [], set()
    pool_lcm, denoms, anchor, skipped = 1, {}, None, 0

    def push(p):
        nonlocal pool_lcm, anchor, skipped
        if p in seen:
            return False
        if anchor is None:
            anchor = p
        den, primes, (lp, la) = layers_of((p, anchor))
        rel = [[x - y for x, y in zip(u, v)] for u, v in zip(lp, la)]
        torsion_lcm, needed = layer_orders(den, primes, [rel])
        new_lcm = math.lcm(pool_lcm, torsion_lcm)
        new_denoms = dict(denoms)
        for q, n_q in needed.items():
            new_denoms[q] = math.lcm(new_denoms.get(q, 1), n_q)
        if new_lcm <= torsion_lcm_cap and math.prod(new_denoms.values()) <= radical_cost_cap:
            seen.add(p)
            pts.append(p)
            pool_lcm = new_lcm
            denoms.update(new_denoms)
        else:
            skipped += 1
        return len(pts) >= cap

    for fam in families:
        for c in fam.cycle:
            if push(c.base):
                return pts, skipped
            k = c.torus.dim
            if k == 0:
                continue
            for _ in range(per_coset - 1):
                seeds = tuple(
                    KummerNumber.from_rational(rng.choice([2, 3, 5, 7])) ** rng.randint(1, 3) for _ in range(k)
                )
                if push(c.sample(seeds)):
                    return pts, skipped
    return pts, skipped


def _random_degree_gt_one_map(rng, n, unipotent):
    """A map of dynamical degree > 1 whose unipotent subtorus x1 has dimension
    `unipotent`: a block [[H, B], [0, U]] (U unipotent, H with no root of unity
    among its eigenvalues) conjugated by a random unimodular matrix."""
    k = n - unipotent
    while True:
        h = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        hm = IntMatrix.from_rows(h, k)
        if hm.det() == 0 or abs(hm.det()) > 10 or cyclotomic_part(minpoly(hm))[0]:
            continue
        rows = [h[i] + [rng.randint(-2, 2) for _ in range(unipotent)] for i in range(k)]
        rows += [[0] * k + [1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(unipotent)] for i in range(unipotent)]
        w, winv = rand_unimodular_pair(rng, n)
        a = w * IntMatrix.from_rows(rows, n) * winv
        phi = AffineMonomialMap(a, rand_point(rng, n, torsion_orders=(1, 2, 3, 4, 6), denoms=(1, 1, 2)))
        assert decompose(phi).x1.dim == unipotent
        return phi


def _differential_maps():
    maps = {name: phi for name, phi in _pipeline_maps().items() if name.startswith("example_")}
    rng = random.Random(7070)
    for n in range(2, 7):
        for unipotent in (0, 1 + n % 2):
            maps[f"random_n{n}_x1dim{unipotent}"] = _random_degree_gt_one_map(rng, n, unipotent)
    return maps


# (per_coset, cap, torsion_lcm_cap, radical_cost_cap): the defaults, then caps
# small enough that candidates are skipped
_SAMPLE_SETTINGS = [(3, 200, 1_000_000, 4000), (2, 60, 6, 8), (4, 200, 12, 2), (3, 40, 1, 1)]


def test_layered_sample_matches_the_point_sample():
    skipped = 0
    for name, phi in _differential_maps().items():
        fams = invariant_family(phi, 6)
        for fam in fams:
            den, primes, layers = fam.layers
            assert [from_layers(den, primes, x) for x in layers] == [c.base for c in fam.cycle], name
        for seed, (per_coset, cap, lcm_cap, cost_cap) in enumerate(_SAMPLE_SETTINGS):
            kw = dict(per_coset=per_coset, cap=cap, torsion_lcm_cap=lcm_cap, radical_cost_cap=cost_cap)
            ref, skips = reference_sample(fams, seed, **kw)
            den, primes, layers = sample_family_points(fams, seed, **kw)
            assert [from_layers(den, primes, x) for x in layers] == ref, (name, seed)
            # layers_of would write the same points over a divisor of den and a subset of primes
            assert all(0 <= t < den for x in layers for t in x[0])
            assert set(layers_of(ref)[1]) <= set(primes) and den % layers_of(ref)[0] == 0
            skipped += skips
    assert skipped > 0


def _project(rows, den, x):
    if rows is None:
        return x
    return [[sum(a * v for a, v in zip(row, x[0])) % den for row in rows]] + [
        [sum(a * v for a, v in zip(row, e)) for row in rows] for e in x[1:]
    ]


def _lowest_terms(den, x):
    g = math.gcd(den, *(v for layer in x for v in layer))
    return (den // g, tuple(tuple(v // g for v in layer) for layer in x))


def reference_family(phi, budget, torsion_cap=50):
    """invariant_family as it was before the orbits shared one prime trajectory
    (reference): every orbit steps and projects all of its exponent layers.
    Returns the families and, decoded here from their layers, their cycles."""
    if budget <= 0:
        return [], []
    dec = decompose(phi)
    assert subtorus_image_under(phi.matrix, dec.x1) == dec.x1
    det2 = abs(dec.a2.det())
    den_b, primes, (beta_b, gamma_b) = layers_of((tuple(c.inverse() for c in dec.beta2_embedded), phi.translation))
    v2 = dec.x2.cochar_basis.to_rows()
    rows = phi.matrix.to_rows()
    proj = None if dec.x1.dim == 0 else [list(b) for b in dec.x1.annihilator.basis]
    families, cycles, seen = [], [], set()
    for d in range(1, torsion_cap + 1):
        if len(families) >= budget:
            break
        if math.gcd(d, det2) != 1:
            continue
        den = math.lcm(den_b, d)
        beta, gamma = ([[v * (den // den_b) for v in layer] for layer in x] for x in (beta_b, gamma_b))
        v2d = [[a * (den // d) for a in row] for row in v2]
        for orbit in _torsion_orbits_exact_order(dec.a2, d):
            tors = [(sum(a * x for a, x in zip(row, orbit[0])) + b) % den for row, b in zip(v2d, beta[0])]
            cur = [tors] + beta[1:]
            start = _project(proj, den, cur)
            bases, projections = [cur], [start]
            max_cycle = dec.normalize_iterate * len(orbit) + 1
            while True:
                cur = _affine_step(rows, den, cur, gamma)
                image = _project(proj, den, cur)
                if image == start:
                    break
                bases.append(cur)
                projections.append(image)
                assert len(bases) <= max_cycle, "coset cycle failed to close"
            key = frozenset(_lowest_terms(den, x) for x in projections)
            if key in seen:
                continue
            seen.add(key)
            cycles.append(tuple(Coset(from_layers(den, primes, b), dec.x1) for b in bases))
            families.append(CosetFamily(d, tuple(orbit), dec.x1, (den, primes, bases)))
            if len(families) >= budget:
                break
    return families, cycles


# blocks of a block-diagonal matrix: finite-order ones by their order, unipotent
# Jordan blocks and hyperbolic ones (no root of unity among the eigenvalues) by size
_FINITE = {2: [[-1]], 3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]], 6: [[1, -1], [1, 0]],
           12: [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]}  # companion of x^4 - x^2 + 1
_UNIPOTENT = {1: [[1]], 2: [[1, 1], [0, 1]]}
_HYPERBOLIC = {1: [[2]], 2: [[2, 1], [1, 1]], 3: [[1, 1, 0], [0, 1, 1], [1, 0, 2]]}

# (finite orders, unipotent sizes, hyperbolic size) -> (normalize_iterate, dim x1, n)
_BLOCK_CASES = {
    ((), (), 2): (1, 0, 2),
    ((), (), 3): (1, 0, 3),
    ((), (1,), 1): (1, 1, 2),
    ((), (2,), 2): (1, 2, 4),
    ((), (1, 2), 3): (1, 3, 6),
    ((2,), (), 1): (2, 1, 2),
    ((2,), (2,), 1): (2, 3, 4),
    ((3,), (), 1): (3, 2, 3),
    ((3,), (1,), 2): (3, 3, 5),
    ((4,), (), 2): (4, 2, 4),
    ((4,), (2,), 1): (4, 4, 5),
    ((4,), (2,), 2): (4, 4, 6),
    ((6,), (), 1): (6, 2, 3),
    ((6, 2), (), 2): (6, 3, 5),
    ((12,), (), 1): (12, 4, 5),
    ((4, 3), (), 2): (12, 4, 6),
}


def _block_map(rng, finite, unipotent, hyperbolic):
    blocks = [_FINITE[k] for k in finite] + [_UNIPOTENT[k] for k in unipotent] + [_HYPERBOLIC[hyperbolic]]
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(row)] = row
        at += len(b)
    w, winv = rand_unimodular_pair(rng, n)
    gamma = rand_point(rng, n, torsion_orders=(1, 2, 3, 4, 6), denoms=(1, 2, 3))
    return AffineMonomialMap(w * IntMatrix.from_rows(rows, n) * winv, gamma)


def test_shared_prime_trajectory_matches_the_full_layer_loop():
    rng = random.Random(8080)
    maps = {name: (phi, None) for name, phi in _pipeline_maps().items() if name.startswith("example_")}
    for case, shape in _BLOCK_CASES.items():
        maps[str(case)] = (_block_map(rng, *case), shape)
    # x1 and x2 meet in a nontrivial finite group here, so a cycle of a higher
    # torsion order can repeat one over a smaller denominator
    for gamma in (["1", "1"], ["-5/4", "1"]):
        maps[f"meeting_{gamma}"] = (AffineMonomialMap.build([[-3, -3], [0, 1]], parse_point(gamma)), (1, 1, 2))
    for name, (phi, shape) in maps.items():
        if shape is not None:
            dec = decompose(phi)
            assert (dec.normalize_iterate, dec.x1.dim, phi.dim) == shape, name
        got, (ref, ref_cycles) = invariant_family(phi, 12), reference_family(phi, 12)
        assert got == ref and repr(got) == repr(ref), name
        assert [f.layers for f in got] == [f.layers for f in ref], name
        assert [f.cycle for f in got] == ref_cycles, name


def test_cosets_at_one_step_share_their_prime_layers():
    # the prime trajectory goes from the cycle walk into the families by reference:
    # every coset at step j of a cycle of one torsion order holds the same lists,
    # and a fixed trajectory (x1 trivial and no normalizing iterate) is one list per order
    fixed = 0
    for name, phi in _differential_maps().items():
        fams = invariant_family(phi, 12)
        by_order = {}
        for fam in fams:
            by_order.setdefault(fam.torsion_order, []).append(fam.layers[2])
        for bases in by_order.values():
            for j in range(max(map(len, bases))):
                steps = [b[j][1:] for b in bases if len(b) > j]
                assert all(u is v for s in steps for u, v in zip(s, steps[0])), name
        dec = decompose(phi)
        if dec.x1.dim == 0 and dec.normalize_iterate == 1 and fams[0].layers[1]:
            fixed += 1
            assert len({id(x[1]) for bases in by_order.values() for b in bases for x in b}) <= len(by_order), name
    assert fixed >= 3


def _copy(fam):
    """The family with equal but distinct lists, none shared."""
    den, primes, bases = fam.layers
    return CosetFamily(fam.torsion_order, fam.orbit_exponents, fam.torus, (den, tuple(primes), [[list(v) for v in x] for x in bases]))


def test_sample_of_a_repeated_family_and_of_a_copy():
    # a family listed twice is sampled once; a hand-built copy, whose lists are
    # equal but not shared, samples as the family does
    for name, phi in _differential_maps().items():
        fams = invariant_family(phi, 6)
        copies = [_copy(fam) for fam in fams]
        for seed, (per_coset, cap, lcm_cap, cost_cap) in enumerate(_SAMPLE_SETTINGS):
            kw = dict(per_coset=per_coset, cap=cap, torsion_lcm_cap=lcm_cap, radical_cost_cap=cost_cap)
            want = sample_family_points(fams, seed, **kw)
            for families in (copies, fams[:2] + copies[2:], fams[:1] + fams + fams[::2]):
                assert sample_family_points(families, seed, **kw) == want, (name, seed)
            decoded = [from_layers(want[0], want[1], x) for x in want[2]]
            assert decoded == reference_sample(copies, seed, **kw)[0], (name, seed)
            assert len(set(decoded)) == len(decoded), (name, seed)
            if fams[0].torus.dim == 0:
                # point cosets draw no seeds, so the reference's global dedupe drops the repeat as a whole
                assert decoded == reference_sample(fams[:1] + fams + fams[::2], seed, **kw)[0], (name, seed)
