import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torusdyn.cli import load_map_spec
from torusdyn import dynamics, intlinalg, torus
from torusdyn.dynamics import (
    ClassifyConfig,
    VERDICT_DENSE,
    VERDICT_FIBRATION,
    VERDICT_WILD,
    FibrationWitness,
    _fixed_character_lattice,
    _preimage,
    _residue_vectors,
    classify,
    decompose,
    dynamical_degree,
    find_invariant_fibration,
    invariant_family,
    periodic_torsion_points,
    sample_family_points,
    wildness_certificate,
)
from torusdyn.errors import PreconditionError
from torusdyn.intlinalg import IntMatrix, Lattice, evaluate_poly, left_kernel_saturated
from torusdyn.intlinalg import minpoly, vec_mat
from torusdyn.kummer import KummerNumber, char_eval, from_layers, layers_of, one_point, parse_point
from torusdyn.polyalg import IntPoly
from torusdyn import oracle
from torusdyn.oracle import degenerate_sample
from torusdyn.torus import AffineMonomialMap, coset_cycle_invariant, monomial_image

from conftest import rand_point, rand_unimodular_pair, rand_unipotent_automorphism
from reference import lattice_contains, lattice_intersection, lattice_sum

EX_WILD = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
EX_SHEAR = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
EX_HYPER = AffineMonomialMap.build([[2, 1], [1, 1]], one_point(2))


def test_dynamical_degree_cases():
    d = dynamical_degree(EX_WILD)
    assert d.exact_one and d.certificate == (1, 1)
    d = dynamical_degree(AffineMonomialMap.build([[1, 1], [0, 1]], one_point(2)))
    assert d.exact_one and d.certificate == (1, 2)
    d = dynamical_degree(EX_HYPER)
    assert not d.exact_one
    lo, hi = d.interval
    assert lo > 1 and lo <= Fraction(2618034, 10**6) <= hi


def test_degree_certificate_is_exact():
    rng = random.Random(500)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_unipotent_automorphism(rng, n)
        phi = AffineMonomialMap(a, rand_point(rng, n))
        d = dynamical_degree(phi)
        assert d.exact_one
        ell, m = d.certificate
        assert ((a**ell - IntMatrix.identity(n)) ** m).is_zero()


def test_fibration_examples():
    assert find_invariant_fibration(EX_WILD) is None
    w = find_invariant_fibration(AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "4"])))
    assert w.iterate == 1 and w.character == (2, -1)
    w = find_invariant_fibration(AffineMonomialMap.build([[1, 1], [0, 1]], one_point(2)))
    assert w.iterate == 1 and w.character == (0, 1)
    assert find_invariant_fibration(EX_SHEAR) is None


def test_fibration_witness_identity_on_points():
    rng = random.Random(501)
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "4"]))
    w = find_invariant_fibration(phi)
    assert w.verify(phi)
    step = phi.iterate(w.iterate)
    for _ in range(20):
        x = rand_point(rng, 2)
        assert char_eval(step.apply(x), w.character) == char_eval(x, w.character)


def test_fibration_torsion_translation_needs_iterate():
    # (x, y) -> (x, zeta_5 y): y is fixed by the 5th iterate only
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "zeta(5)"]))
    w = find_invariant_fibration(phi)
    assert w is not None and w.verify(phi)
    # the scan finds the character 5*(0,1) already at iterate 1
    assert w.iterate == 1 and w.character == (0, 5)


def test_wildness_examples():
    cert = wildness_certificate(EX_WILD)
    assert cert.dense and cert.primes == (2, 3)
    assert cert.exponent_matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    cert = wildness_certificate(EX_SHEAR)
    assert cert.dense and cert.gamma_bar == parse_point(["3"])
    cert = wildness_certificate(AffineMonomialMap.build([[1, 1], [0, 1]], one_point(2)))
    assert not cert.dense and cert.refutation is not None


def test_wildness_preconditions():
    with pytest.raises(PreconditionError):
        wildness_certificate(EX_HYPER)
    with pytest.raises(PreconditionError):
        wildness_certificate(AffineMonomialMap.build([[2, 0], [0, 1]], one_point(2)))


def test_fibration_wildness_equivalence_random():
    rng = random.Random(502)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = rand_unipotent_automorphism(rng, n)
        phi = AffineMonomialMap(a, rand_point(rng, n))
        no_fibration = find_invariant_fibration(phi) is None
        assert wildness_certificate(phi).dense == no_fibration


def _check_decomposition(phi, dec, rng, samples=20):
    n = phi.dim
    assert lattice_intersection(dec.x1.annihilator, dec.x2.annihilator).rank == 0
    assert lattice_sum(dec.x1.annihilator, dec.x2.annihilator).rank == n
    r = dec.unipotent_multiplicity
    assert minpoly(dec.a1) == IntPoly.from_coeffs([-1, 1]) ** r
    assert minpoly(dec.a2) == dec.hyperbolic_factor
    assert evaluate_poly(dec.hyperbolic_factor, dec.a2).is_zero()
    assert tuple(u * v for u, v in zip(dec.gamma1, dec.gamma2)) == dec.base_map.translation
    assert dec.conjugated_phi2.translation == one_point(dec.a2.rows)
    for _ in range(samples):
        s = rand_point(rng, dec.x1.dim)
        t = rand_point(rng, dec.x2.dim)
        left = dec.base_map.apply(dec.iota(s, t))
        right = dec.iota(dec.phi1.apply(s), dec.phi2.apply(t))
        assert left == right


def test_decompose_diagonal_example():
    phi = AffineMonomialMap.build([[2, 0], [0, 1]], parse_point(["1", "5"]))
    dec = decompose(phi)
    assert dec.unipotent_multiplicity == 1
    assert dec.hyperbolic_factor == IntPoly.from_coeffs([-2, 1])
    assert dec.x2.annihilator.basis == ((0, 1),)
    assert dec.x1.annihilator.basis == ((1, 0),)
    assert dec.gamma1 == parse_point(["1", "5"])
    assert dec.gamma2 == one_point(2)
    assert dec.beta2 == one_point(1)
    assert dec.a2.to_rows() == [[2]]
    _check_decomposition(phi, dec, random.Random(503))


def test_decompose_pure_endomorphism():
    dec = decompose(EX_HYPER)
    assert dec.unipotent_multiplicity == 0
    assert dec.x1.dim == 0 and dec.x2.dim == 2
    assert dec.beta2 == one_point(2)
    _check_decomposition(EX_HYPER, dec, random.Random(504))


def test_decompose_square_root_translation():
    phi = AffineMonomialMap.build([[3, 0], [0, 1]], parse_point(["7", "1"]))
    dec = decompose(phi)
    assert dec.a2.to_rows() == [[3]]
    assert dec.beta2 == parse_point(["7^(1/2)"])
    _check_decomposition(phi, dec, random.Random(505))


def test_decompose_requires_degree_above_one():
    with pytest.raises(PreconditionError):
        decompose(EX_WILD)


def test_decompose_with_root_of_unity_normalization():
    # eigenvalues {-1, 2}: the normalizing iterate is 2
    phi = AffineMonomialMap.build([[-1, 0], [0, 2]], parse_point(["zeta(4)", "3"]))
    dec = decompose(phi)
    assert dec.normalize_iterate == 2
    assert dec.base_map.matrix.to_rows() == [[1, 0], [0, 4]]
    _check_decomposition(phi, dec, random.Random(506))


def test_periodic_torsion_points_examples():
    pts = periodic_torsion_points(IntMatrix.from_rows([[2]]), 3)
    table = {p[0].torsion: per for p, per in pts}
    assert table == {Fraction(0): 1, Fraction(1, 3): 2, Fraction(2, 3): 2}
    pts7 = periodic_torsion_points(IntMatrix.from_rows([[2]]), 7)
    assert {per for p, per in pts7 if not p[0].is_one()} == {3}
    with pytest.raises(PreconditionError):
        periodic_torsion_points(IntMatrix.from_rows([[2]]), 4)
    for budget in (0, -1):
        with pytest.raises(PreconditionError, match="budget must be positive"):
            periodic_torsion_points(IntMatrix.from_rows([[2]]), 3, budget)


def reference_periodic(a2, d, budget):
    """Each point of (Z/d)^k with its period found by sequential exact applies."""
    phi = AffineMonomialMap(a2, one_point(a2.rows))
    out = []
    for u in itertools.islice(itertools.product(range(d), repeat=a2.rows), budget):
        point = cur = tuple(KummerNumber.build(Fraction(x, d), {}) for x in u)
        period = 0
        while period == 0 or cur != point:
            cur = phi.apply(cur)
            period += 1
        out.append((point, period))
    return out


def test_periodic_points_match_the_reference():
    cases = [
        (IntMatrix.from_rows([[2]]), [d for d in range(1, 51) if d % 2 == 1]),
        (IntMatrix.from_rows([[2, 1], [1, 1]]), range(1, 51)),
        (IntMatrix.from_rows([[3, 0], [1, 2]]), [d for d in range(1, 51) if d % 6 in (1, 5)]),
    ]
    for a2, ds in cases:
        for d in ds:
            assert periodic_torsion_points(a2, d, budget=64) == reference_periodic(a2, d, 64), (a2, d)


def test_periodic_walks_each_cycle_once(monkeypatch):
    walks = []
    real = dynamics._cycle

    def counting(rows, d, u):
        walks.append(u)
        return real(rows, d, u)

    monkeypatch.setattr(dynamics, "_cycle", counting)
    cat = IntMatrix.from_rows([[2, 1], [1, 1]])
    for d, budget in ((7, 49), (11, 121), (11, 30), (10, 100)):
        walks.clear()
        emitted = periodic_torsion_points(cat, d, budget)
        assert emitted == reference_periodic(cat, d, budget)
        # the distinct cycles among the emitted points, found without _cycle
        cycles = set()
        for point, _ in emitted:
            u = tuple(int(c.torsion * d) for c in point)
            orbit, v = {u}, ((2 * u[0] + u[1]) % d, (u[0] + u[1]) % d)
            while v != u:
                orbit.add(v)
                v = ((2 * v[0] + v[1]) % d, (v[0] + v[1]) % d)
            cycles.add(frozenset(orbit))
        assert len(walks) == len(cycles), (d, budget)


def test_residue_vectors_match_product():
    for d in (1, 2, 5):
        for k in range(4):
            assert list(_residue_vectors(d, k)) == list(itertools.product(range(d), repeat=k))


def test_cycle_length_cap(monkeypatch):
    cat = IntMatrix.from_rows([[2, 1], [1, 1]])
    # mod 11 the cat map's nonzero cycles have length 5
    assert all(per in (1, 5) for _, per in periodic_torsion_points(cat, 11))
    monkeypatch.setattr(dynamics, "CYCLE_LENGTH_CAP", 5)
    assert len(periodic_torsion_points(cat, 11)) == 121
    monkeypatch.setattr(dynamics, "CYCLE_LENGTH_CAP", 4)
    with pytest.raises(PreconditionError, match="CYCLE_LENGTH_CAP = 4"):
        periodic_torsion_points(cat, 11)


def test_invariant_family_diagonal():
    phi = AffineMonomialMap.build([[2, 0], [0, 1]], parse_point(["1", "5"]))
    fams = invariant_family(phi, budget=6)
    assert len(fams) == 6
    assert fams[0].torsion_order == 1
    for fam in fams:
        assert coset_cycle_invariant(phi, fam.cycle)
        for c in fam.cycle:
            assert c.dim < phi.dim  # proper


def test_invariant_family_zero_dimensional():
    fams = invariant_family(EX_HYPER, budget=5)
    assert len(fams) == 5
    for fam in fams:
        assert all(c.dim == 0 for c in fam.cycle)
        assert coset_cycle_invariant(EX_HYPER, fam.cycle)
    assert invariant_family(EX_HYPER, budget=0) == []


def test_classify_verdicts():
    cfg = ClassifyConfig(seed=3)
    rep = classify(EX_WILD, cfg)
    assert rep.verdict == VERDICT_WILD
    assert rep.wildness is not None and rep.wildness.dense
    assert rep.family == () and rep.fibration is None

    rep = classify(AffineMonomialMap.build([[2, 0], [0, 1]], one_point(2)), cfg)
    assert rep.verdict == VERDICT_FIBRATION
    assert rep.fibration.character == (0, 1)
    assert rep.fibration.verify(AffineMonomialMap.build([[2, 0], [0, 1]], one_point(2)))

    rep = classify(EX_HYPER, ClassifyConfig(seed=3, family_budget=30))
    assert rep.verdict == VERDICT_DENSE
    assert len(rep.family) == 30
    assert rep.density is not None and rep.density.not_contained


def test_classify_force_family():
    phi = AffineMonomialMap.build([[2, 0], [0, 1]], one_point(2))
    rep = classify(phi, ClassifyConfig(seed=1, family_budget=6, force_family=True))
    assert rep.verdict == VERDICT_FIBRATION and len(rep.family) == 6
    for fam in rep.family:
        assert coset_cycle_invariant(phi, fam.cycle)


@pytest.mark.parametrize("rows, gamma", [([[-1]], ["1"]), ([[0, -1], [1, 0]], ["2", "1"])])
def test_classify_finds_a_fibration_beyond_the_iterate_cap(rows, gamma):
    # the witness iterate (2, resp. 4) is past the cap, so the search finds
    # nothing and wildness_certificate's refutation supplies the witness
    phi = AffineMonomialMap.build(rows, parse_point(gamma))
    rep = classify(phi, ClassifyConfig(iterate_cap=1))
    assert rep.verdict == VERDICT_FIBRATION and rep.wildness is None
    assert rep.flags == ("fibration witness found beyond iterate cap 1",)
    witness = rep.fibration
    assert witness.iterate > 1 and witness.verify(phi)
    assert lattice_contains(_fixed_character_lattice(phi, witness.iterate), witness.character)


def test_classify_non_automorphism_degree_one():
    # doubling map: quasi-unipotent would need |det| = 1; here A = 2I is degree 2
    phi = AffineMonomialMap.build([[2, 0], [0, 2]], parse_point(["5", "7"]))
    rep = classify(phi)
    assert rep.verdict == VERDICT_DENSE
    # a genuinely non-automorphism quasi-unipotent map does not exist (|det| of a
    # quasi-unipotent integer matrix is 1), so classify has no such path


def test_degree_one_maps_are_automorphisms():
    # classify certifies every degree-one map as an automorphism: degree
    # exactly one makes every eigenvalue a root of unity, so |det A| = 1
    rng = random.Random(3101)
    degree_one = 0
    for _ in range(1500):
        n = rng.randint(2, 4)
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if a.det() == 0:
            continue
        phi = AffineMonomialMap(a, one_point(n))
        if dynamical_degree(phi).exact_one:
            degree_one += 1
            assert abs(phi.det) == 1, a.to_rows()
    assert degree_one >= 30


def test_sample_points_lie_on_families():
    from torusdyn.torus import membership

    fams = invariant_family(EX_HYPER, budget=8)
    den, primes, layers = sample_family_points(fams, seed=2, cap=50)
    pts = [from_layers(den, primes, x) for x in layers]
    assert pts
    hit = 0
    for p in pts:
        if any(membership(p, c) for fam in fams for c in fam.cycle):
            hit += 1
    assert hit == len(pts)


_torsions = st.integers(1, 12).flatmap(lambda m: st.integers(0, m - 1).map(lambda k: Fraction(k, m)))
_exponents = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 6)))
_coords = st.builds(
    KummerNumber.build, _torsions, st.dictionaries(st.sampled_from((2, 3, 5, 1000003)), _exponents, max_size=3)
)
_invertible = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(IntMatrix.from_rows).filter(lambda m: m.det() != 0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_invertible, st.data())
def test_preimage_round_trip(m, data):
    x = data.draw(st.tuples(*[_coords] * m.rows))
    y = _preimage(m, x)
    assert monomial_image(m, y) == x


def reference_preimage(m, x):
    """_preimage as one rational solve per exponent layer (reference)."""
    den, primes, (layers,) = layers_of([x])
    sols = [intlinalg.solve_rational(m, layer) for layer in layers]
    scale = math.lcm(*(c.denominator for sol in sols for c in sol))
    return from_layers(den * scale, primes, [[(c * scale).numerator for c in sol] for sol in sols])


_invertible_up_to_6 = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(IntMatrix.from_rows).filter(lambda m: m.det() != 0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_invertible_up_to_6, st.data())
def test_preimage_matches_the_per_layer_solve(m, data):
    x = data.draw(st.tuples(*[_coords] * m.rows))
    assert _preimage(m, x) == reference_preimage(m, x)


def test_decompose_eliminates_once_per_preimage(monkeypatch):
    # each _preimage is one elimination carrying every layer, not one solve per layer
    calls = []

    def counting(m, *rhs):
        calls.append(len(rhs))
        return intlinalg.solve_rational(m, *rhs)

    monkeypatch.setattr(dynamics, "solve_rational", counting)
    cases = [
        (EX_HYPER, 1),
        (AffineMonomialMap.build([[2, 1], [1, 1]], parse_point(["2^(1/2) * 5", "zeta(3) * 3 * 7^(1/3)"])), 5),
        (AffineMonomialMap.build([[-1, 0], [0, 2]], parse_point(["zeta(4)", "3"])), 2),
        (AffineMonomialMap.build([[1, 1, 0], [0, 1, 1], [1, 0, 2]], parse_point(["zeta(4)", "2^(1/2) * 5", "3^(-1)"])), 4),
    ]
    for phi, layers in cases:
        calls.clear()
        decompose(phi)
        assert calls == [layers, layers]


FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

# degree-one blocks (finite order or unipotent) and one expanding block, for maps whose A^l - I has a kernel
_BLOCKS = [[[1]], [[-1]], [[2]], [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1, 1], [0, 1]]]


def test_fixed_character_lattice_is_one_kernel(monkeypatch):
    # one saturated kernel per (map, l), also where A^l - I or the prime layers leave nothing
    calls = []

    def counting(m):
        calls.append(m)
        return left_kernel_saturated(m)

    monkeypatch.setattr(dynamics, "left_kernel_saturated", counting)
    for phi in (EX_WILD, EX_SHEAR, EX_HYPER, AffineMonomialMap.build([[-1]], parse_point(["zeta(3)"]))):
        for ell in (1, 2, 6):
            calls.clear()
            _fixed_character_lattice(phi, ell)
            assert len(calls) == 1 and calls[0].rows == phi.dim + 1


def test_fibration_search_builds_each_iterate_from_a_smaller_one(monkeypatch):
    # the order-12 block fixes no character below l = 12, so the search goes through
    # every divisor; each iterate is one power of the largest divisor built before
    real_lattice, real_iterate = dynamics._fixed_character_lattice, dynamics._iterate_layers
    seen, powers = [], []

    def lattice(phi, ell, gamma_layers=None, iterate=None):
        seen.append((ell, iterate))
        return real_lattice(phi, ell, gamma_layers, iterate)

    def iterate(a, den, g, k):
        powers.append(k)
        return real_iterate(a, den, g, k)

    monkeypatch.setattr(dynamics, "_fixed_character_lattice", lattice)
    monkeypatch.setattr(dynamics, "_iterate_layers", iterate)
    rows = [[0, 0, 0, -1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 2]]
    phi = AffineMonomialMap.build(rows, parse_point(["zeta(5) * 2", "3^(1/2)", "5", "zeta(7)", "7"]))
    witness = find_invariant_fibration(phi)
    assert witness is not None and witness.iterate == 12 and witness.verify(phi)
    assert [ell for ell, _ in seen] == [1, 2, 3, 4, 6, 12]
    assert powers == [1, 2, 3, 2, 2, 2]
    den, _, (layers,) = layers_of([phi.translation])
    for ell, built in seen:
        assert built == real_iterate(phi.matrix, den, layers, ell)
        assert real_lattice(phi, ell) == real_lattice(phi, ell, None, built)


def test_fixed_character_lattice_brute_force():
    rng = random.Random(331)
    proper = 0  # (map, l) where chi_b(gamma_l) = 1 cuts a nonzero lattice below the kernel of A^l - I
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            block = rng.choice([b for b in _BLOCKS if len(b) <= n - i])
            for r, brow in enumerate(block):
                rows[i + r][i : i + len(brow)] = brow
            i += len(block)
        w, winv = rand_unimodular_pair(rng, n, shears=3)
        a = w * IntMatrix.from_rows(rows) * winv
        phi = AffineMonomialMap(a, rand_point(rng, n, torsion_orders=tuple(range(1, 13)), denoms=(1, 1, 2, 3)))
        for ell in (1, 2, 3, 4, 6, 12):
            lat = _fixed_character_lattice(phi, ell)
            fixed = (a**ell - IntMatrix.identity(n)).to_rows()
            gamma = phi.iterate(ell).translation
            kernel = members = 0
            for b in itertools.product(range(-3, 4), repeat=n):
                in_kernel = not any(sum(x * row[j] for x, row in zip(b, fixed)) for j in range(n))
                invariant = in_kernel and char_eval(gamma, b).is_one()
                assert lattice_contains(lat, b) == invariant, (a.to_rows(), phi.translation, ell, b)
                kernel += in_kernel
                members += invariant
            proper += 1 < members < kernel
    assert proper >= 10


# _fixed_character_lattice bases at each iterate, as computed before the
# lattice was read off exponent layers: fixtures, then degree-one maps with
# prime and torsion conditions, then fractional exponents with a torsion congruence
FIXED_LATTICES = [
    ("example_dense3", None, None, {1: ()}),
    ("example_fibration", None, None, {1: ((2, -1),)}),
    ("example_shear_wild", None, None, {1: ()}),
    ("example_torsion_fibration", None, None, {1: ((0, 5),)}),
    ("example_wild", None, None, {1: ()}),
    (
        "deg1_n4",
        [[-5, 2, 1, -1], [-20, 5, 2, 0], [-6, 4, 2, -3], [-18, 6, 3, -2]],
        ["zeta(3)^2 * 49/11", "zeta(3)^2 * 7/5", "zeta(3)^2 * 9/4", "zeta(3)^2 * 11/4"],
        {1: (), 2: ((2, -1, -1, 1),), 4: ((2, 0, 1, -1), (0, 1, 0, -1), (0, 0, 2, -1))},
    ),
    (
        "deg1_n5",
        [[8, -4, 1, 3, 1], [-3, 1, 1, -2, -2], [-10, 4, -1, -4, -2], [-22, 11, -1, -9, -4], [5, -3, 0, 2, 1]],
        ["zeta(4)^3 * 11", "zeta(6) * 121", "zeta(5)^4 * 1/121", "zeta(5) * 5", "1/3"],
        {
            1: (),
            2: (),
            3: ((1, 0, 1, 0, 0), (0, 0, 2, -1, -1)),
            4: ((1, 0, -1, 0, -1), (0, 1, -3, -1, -3)),
            6: ((1, 0, 1, 0, 0), (0, 0, 2, -1, -1)),
            12: ((1, 0, 1, 0, 0), (0, 1, 1, 0, 1), (0, 0, 2, 0, 1), (0, 0, 0, 1, 2)),
        },
    ),
    (
        "deg1_n6",
        [
            [0, -1, 0, 0, 0, 0],
            [1, -1, 0, 0, 0, 0],
            [0, 0, 1, 1, -1, 0],
            [1, -2, 0, -2, 3, -3],
            [1, -2, 0, -3, 4, -3],
            [0, -1, 0, -3, 4, -2],
        ],
        ["zeta(2) * 1/11", "25", "5", "zeta(2) * 1/121", "zeta(3)^2 * 1/9", "zeta(3) * 2"],
        {1: (), 3: ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 0))},
    ),
    (
        "deg1_n3",
        [[1, -2, 2], [2, -2, 1], [0, -1, 2]],
        ["49/3", "36", "1/225"],
        {1: (), 2: (), 4: ((1, 0, -1), (0, 1, -1))},
    ),
    ("fractional", [[1, 0], [0, 1]], ["zeta(4) * 2^(1/2)", "zeta(3) * 2^(1/3)"], {1: ((4, -6),)}),
]


@pytest.mark.parametrize("name, rows, gamma, expected", FIXED_LATTICES, ids=[c[0] for c in FIXED_LATTICES])
def test_fixed_character_lattice_pinned(name, rows, gamma, expected):
    if rows is None:
        phi = load_map_spec(str(FIXDIR / f"{name}.json")).to_map()
    else:
        phi = AffineMonomialMap.build(rows, parse_point(gamma))
    for ell, basis in expected.items():
        lat = _fixed_character_lattice(phi, ell)
        assert lat.basis == basis, (name, ell)
        assert all(FibrationWitness(ell, b, lat).verify(phi) for b in basis)


# -- the density sample -------------------------------------------------------------


def _doubling_map(n):
    """x -> (3, 5, 7, 11[, 13]) * x^(2I): x1 is trivial and the first 40 cycles have orders 1 and 3."""
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    return AffineMonomialMap.build(rows, parse_point(["3", "5", "7", "11", "13"][:n]))


def test_degenerate_sample_predicate():
    on_mu3 = [parse_point([f"zeta(3)^{i}", f"2^{j}"]) for i in range(3) for j in range(6)]
    assert degenerate_sample(layers_of(on_mu3), 3)
    assert not degenerate_sample(layers_of(on_mu3), 2)
    for name in ("example_dense", "example_dense3"):
        spec = load_map_spec(str(FIXDIR / f"{name}.json"))
        config = ClassifyConfig(**spec.options)
        fams = invariant_family(spec.to_map(), config.family_budget, config.torsion_cap)
        pts = sample_family_points(fams, config.seed, cap=config.point_budget)
        assert not degenerate_sample(pts, config.degree_bound), name


def test_degenerate_first_sample_of_the_doubling_maps():
    for n in (4, 5):
        fams = invariant_family(_doubling_map(n), 40)
        assert {f.torsion_order for f in fams} == {1, 3}
        assert degenerate_sample(sample_family_points(fams, 0), 3)


@pytest.mark.parametrize("n", [4, 5])
def test_doubling_maps_redraw_a_certifiable_sample(n, monkeypatch):
    ranks = []
    real = oracle._rank_mod

    def counting(rows, q):
        ranks.append(q)
        return real(rows, q)

    monkeypatch.setattr(oracle, "_rank_mod", counting)
    phi = _doubling_map(n)
    report = classify(phi, ClassifyConfig())
    assert report.verdict == VERDICT_DENSE
    assert report.density.not_contained
    assert report.density.rank == report.density.monomial_count
    assert len(ranks) <= 2
    assert all(coset_cycle_invariant(phi, f.cycle) for f in report.family)
    keys = {frozenset(c.canonical_key() for c in f.cycle) for f in report.family}
    assert len(keys) == len(report.family)
    # the first 40 cycles are kept; the redrawn ones have the least odd order above the degree bound
    assert [f.torsion_order for f in report.family[:40]] == [f.torsion_order for f in invariant_family(phi, 40)]
    assert {f.torsion_order for f in report.family[40:]} == {5}


def test_degenerate_sample_past_the_torsion_cap_is_undecided_untried(monkeypatch):
    monkeypatch.setattr(oracle, "_rank_mod", None)  # never reached
    phi = _doubling_map(4)
    report = classify(phi, ClassifyConfig(torsion_cap=4))
    assert report.density.status == "UNDECIDED"
    assert report.density.attempts == 0 and report.density.prime is None
    assert len(report.family) == 40
    assert report.density.point_count == 79


@pytest.mark.parametrize(
    "fixture, minpolys_of_a, charpolys",
    [("example_wild.json", 1, 0), ("example_fibration.json", 1, 0), ("example_dense.json", 1, 1)],
)
def test_classify_computes_the_spectral_data_once(fixture, minpolys_of_a, charpolys, monkeypatch):
    # classify hands mu_A and its cyclotomic part to every stage; charpoly runs only
    # for the spectral radius of a degree > 1 map.  Equal counts on a second run of
    # the same phi show that nothing is cached between calls.
    phi = load_map_spec(str(FIXDIR / fixture)).to_map()
    calls = {"minpoly": [], "charpoly": []}
    for name in calls:
        real = getattr(dynamics, name)

        def counting(m, _real=real, _seen=calls[name]):
            _seen.append(m)
            return _real(m)

        monkeypatch.setattr(dynamics, name, counting)
    counts = []
    for _ in range(2):
        for seen in calls.values():
            seen.clear()
        classify(phi)
        counts.append((sum(m == phi.matrix for m in calls["minpoly"]), len(calls["charpoly"]), len(calls["minpoly"])))
    assert counts[0] == counts[1]
    assert counts[0][1] == charpolys
    assert counts[0][0] == minpolys_of_a


def _fixed_character_lattice_reference(phi, ell):
    """_fixed_character_lattice as it was built from the exact iterate phi^l: the
    kernel of A^l - I, then one equation per prime layer and a congruence for the
    torsion layer of gamma_l, over gamma_l's own denominator."""
    n = phi.dim
    phil = phi.iterate(ell)
    kernel = left_kernel_saturated(phil.matrix - IntMatrix.identity(n))
    s = kernel.rank
    if s == 0:
        return Lattice.zero(n)
    basis = kernel.basis
    den, _, ((tors, *exps),) = layers_of([phil.translation])
    prime_rows = [[sum(b * e for b, e in zip(row, layer)) for row in basis] for layer in exps]
    c_lat = left_kernel_saturated(IntMatrix.from_rows(prime_rows, s).transpose())
    r = c_lat.rank
    if r == 0:
        return Lattice.zero(n)
    w = [sum(b * t for b, t in zip(row, tors)) for row in basis]
    v = [sum(c * x for c, x in zip(crow, w)) for crow in c_lat.basis]
    u_lat = left_kernel_saturated(IntMatrix.from_rows([[x] for x in v + [den]], 1))
    rows = [vec_mat(vec_mat(u[:r], c_lat.basis_matrix()), IntMatrix.from_rows(basis, n)) for u in u_lat.basis]
    return Lattice.from_rows(n, rows)


@pytest.mark.parametrize("kind", ["torsion", "fractional", "mixed"])
def test_fixed_character_lattice_matches_the_exact_iterate(kind):
    # gamma_l taken on exponent layers by doubling, against gamma_l from phi.iterate
    point_kw = {
        "torsion": dict(torsion_orders=tuple(range(1, 13)), primes=()),
        "fractional": dict(torsion_orders=(1,), denoms=(1, 2, 3, 4)),
        "mixed": dict(torsion_orders=tuple(range(1, 13)), denoms=(1, 1, 2, 3)),
    }[kind]
    rng = random.Random(517)
    nonzero = 0
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            block = rng.choice([b for b in _BLOCKS if len(b) <= n - i])
            for r, brow in enumerate(block):
                rows[i + r][i : i + len(brow)] = brow
            i += len(block)
        w, winv = rand_unimodular_pair(rng, n, shears=3)
        phi = AffineMonomialMap(w * IntMatrix.from_rows(rows) * winv, rand_point(rng, n, **point_kw))
        for ell in (1, 2, 3, 4, 6, 12, 360):
            lat = _fixed_character_lattice(phi, ell)
            assert lat == _fixed_character_lattice_reference(phi, ell), (phi, ell)
            nonzero += lat.rank > 0
    assert nonzero >= 30


@pytest.mark.parametrize("fixture, verdict", [("example_wild.json", VERDICT_WILD), ("example_fibration.json", VERDICT_FIBRATION)])
def test_degree_one_classify_stays_on_integers(fixture, verdict, monkeypatch):
    # no KummerNumber product while searching for a fibration, no saturation()
    # anywhere, and inside each saturated kernel one echelon pass over [m | I]
    # in m's columns, then one Hermite reduction of the kernel rows alone, none
    # when the kernel is empty, and no full Hermite form
    phi = load_map_spec(str(FIXDIR / fixture)).to_map()
    muls_in_search, saturations, kernels, searching, in_kernel = [], [], [], [], []

    real_mul = KummerNumber.__mul__

    def mul(self, other):
        if searching:
            muls_in_search.append(1)
        return real_mul(self, other)

    real_search = dynamics.find_invariant_fibration

    def search(*args, **kw):
        searching.append(1)
        try:
            return real_search(*args, **kw)
        finally:
            searching.pop()

    real_kernel = intlinalg.left_kernel_saturated

    def kernel(m):
        in_kernel.append([])
        try:
            lat = real_kernel(m)
        finally:
            calls = in_kernel.pop()
        kernels.append((m, lat, calls))
        return lat

    def counted(name):
        real = getattr(intlinalg, name)

        def wrapper(h, *args):
            if in_kernel:
                in_kernel[-1].append((name, len(h), len(h[0]) if h else 0, *args))
            return real(h, *args)

        return wrapper

    real_hnf = intlinalg.hermite_normal_form

    def hnf(m):
        if in_kernel:
            in_kernel[-1].append(("hermite_normal_form",))
        return real_hnf(m)

    real_saturation = intlinalg.saturation

    def saturation(lat):
        saturations.append(lat)
        return real_saturation(lat)

    monkeypatch.setattr(KummerNumber, "__mul__", mul)
    monkeypatch.setattr(dynamics, "find_invariant_fibration", search)
    monkeypatch.setattr(intlinalg, "hermite_normal_form", hnf)
    monkeypatch.setattr(intlinalg, "_echelon_rows", counted("_echelon_rows"))
    monkeypatch.setattr(intlinalg, "_hermite_rows", counted("_hermite_rows"))
    for mod in (intlinalg, torus, dynamics):
        for name, wrapper in (("left_kernel_saturated", kernel), ("saturation", saturation)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    report = classify(phi)
    assert report.verdict == verdict
    assert muls_in_search == []
    assert saturations == []
    # the wild map's fibration search ends with no fixed character, so an empty kernel is seen there
    assert kernels and any(lat.rank == 0 for _, lat, _ in kernels) == (verdict == VERDICT_WILD)
    for m, lat, calls in kernels:
        echelon = [("_echelon_rows", m.rows, m.cols + m.rows, m.cols)]
        if lat.rank == 0:
            assert calls == echelon
        else:
            # the Hermite reduction of the kernel rows echelons them over every column
            assert calls == echelon + [("_hermite_rows", lat.rank, m.rows)] + [("_echelon_rows", lat.rank, m.rows, m.rows)]
