"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
randomness is seeded; the whole suite is deterministic.
"""

import json
import math
import random
from pathlib import Path

from torusdyn.cli import main
from torusdyn.dynamics import (
    classify,
    ClassifyConfig,
    decompose,
    find_invariant_fibration,
    invariant_family,
    periodic_torsion_points,
    sample_family_points,
    wildness_certificate,
)
from torusdyn.intlinalg import (
    IntMatrix,
    evaluate_poly,
    lattice_intersection,
    lattice_sum,
    minpoly,
)
from torusdyn.kummer import char_eval, layers_of, one_point, parse_point
from torusdyn.oracle import degenerate_sample, hypersurface_containment, orbit_sample
from torusdyn.reference import finite_model_run, invariant_coset_search, numeric_roots
from fractions import Fraction

from torusdyn.polyalg import IntPoly, cyclotomic, euler_phi, quasi_unipotence, spectral_radius
from torusdyn.torus import AffineMonomialMap, coset_cycle_invariant

from conftest import rand_point, rand_unipotent_automorphism

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
EXAMPLE_MAP = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_kronecker_cross_validation():
    """quasi_unipotence agrees with the numeric-root oracle on 500 polynomials."""
    rng = random.Random(11)
    cyclo_orders = [d for d in range(1, 31) if euler_phi(d) <= 8]
    corpus = []
    while len(corpus) < 100:
        picks = []
        degree = 0
        pool = cyclo_orders[:]
        rng.shuffle(pool)
        for d in pool:
            if degree + euler_phi(d) <= 8 and (rng.random() < 0.5 or not picks):
                picks.append(d)
                degree += euler_phi(d)
        p = IntPoly.one()
        for d in picks:
            p = p * cyclotomic(d)
        if p.degree >= 1 and all(abs(c) <= 20 for c in p.coeffs):
            corpus.append(p)
    while len(corpus) < 500:
        deg = rng.randint(1, 8)
        p = IntPoly.from_coeffs([rng.randint(-20, 20) for _ in range(deg)] + [1])
        corpus.append(p)
    agree = 0
    for p in corpus:
        exact = quasi_unipotence(p) is not None
        roots = numeric_roots(p)
        numeric = all(abs(abs(z) - 1) < 1e-9 for z in roots)
        assert exact == numeric, f"disagreement on {p}"
        lo, hi = spectral_radius(p, Fraction(1, 100))
        top = max(abs(z) for z in roots)
        assert float(lo) - 1e-9 <= top <= float(hi) + 1e-9, f"interval misses a root of {p}"
        agree += 1
    assert agree == 500
    _report(
        1,
        "500/500 agreement between exact quasi-unipotence and numeric root moduli; "
        "spectral intervals contain every numeric modulus",
    )


def test_criterion_2_flagship_example():
    """The doubling/tripling map: wild verdict, no bounded invariant coset, dense orbit."""
    report = classify(EXAMPLE_MAP, ClassifyConfig(seed=0))
    assert report.verdict == "DEGREE_ONE_WILD"
    assert report.fibration is None and report.wildness.dense
    found = invariant_coset_search(EXAMPLE_MAP, index_cap=50)
    assert found == []
    orbit = orbit_sample(EXAMPLE_MAP, one_point(2), 50)
    res = hypersurface_containment(layers_of(orbit), 3, seed=0)
    assert res.not_contained
    _report(
        2,
        "DEGREE_ONE_WILD; no invariant coset with annihilator entries/index <= 50; "
        f"50-point orbit NOT_CONTAINED at degree 3 (prime {res.prime})",
    )


def test_criterion_3_density_equivalence():
    """No invariant fibration iff the reduced translation class is dense (200 maps)."""
    rng = random.Random(12)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        a = rand_unipotent_automorphism(rng, n)
        gamma = rand_point(rng, n, torsion_orders=(1, 2, 3, 4, 6), denoms=(1,))
        phi = AffineMonomialMap(a, gamma)
        no_fibration = find_invariant_fibration(phi) is None
        dense = wildness_certificate(phi).dense
        assert no_fibration == dense, (a.to_rows(), [str(c) for c in gamma])
        checked += 1
    assert checked == 200
    _report(3, "200/200 unipotent automorphisms: fibration absence iff dense translation class")


def _random_expanding_map(rng, n):
    while True:
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = m.det()
        if d == 0 or abs(d) > 10:
            continue
        if quasi_unipotence(minpoly(m)) is not None:
            continue
        return AffineMonomialMap(m, rand_point(rng, n, torsion_orders=(1, 2, 3, 4, 6), denoms=(1, 1, 2)))


def test_criterion_4_dense_invariant_families():
    """100 expanding maps: 25 verified invariant coset cycles each, pooled points dense."""
    rng = random.Random(4000)
    undecided = 0
    for i in range(100):
        n = 2 if i % 3 else 3
        phi = _random_expanding_map(rng, n)
        fams = invariant_family(phi, budget=25)
        assert len(fams) >= 25
        keys = {frozenset(c.canonical_key() for c in f.cycle) for f in fams}
        assert len(keys) == len(fams)  # distinct families
        for f in fams:
            assert coset_cycle_invariant(phi, f.cycle)
            assert all(c.dim < n for c in f.cycle)  # proper
        pts = sample_family_points(fams, seed=i, cap=120)
        res = hypersurface_containment(pts, 3, seed=i)
        if not res.not_contained:
            undecided += 1
            retry = hypersurface_containment(pts, 3, seed=i + 10_000)
            assert retry.not_contained, f"map {i}: UNDECIDED persisted across reseed"
    assert undecided <= 5
    _report(4, f"100 maps x 25 verified invariant coset cycles; UNDECIDED rate {undecided}/100")


def test_probe_maps_with_an_order_3_first_sample_are_certified():
    """The cheapest maps of the n = 5, 6 probe whose first sample lies on x_i^3 = 1."""
    probe = {}
    for n in (5, 6):
        rng = random.Random(900 + n)
        for i in range(6):
            probe[n, i] = _random_expanding_map(rng, n)
    for n, i in ((5, 2), (5, 0), (6, 0)):
        phi = probe[n, i]
        fams = invariant_family(phi, 40)
        assert degenerate_sample(sample_family_points(fams, seed=i), 3), (n, i)
        report = classify(phi, ClassifyConfig(seed=i))
        assert report.density.not_contained, (n, i)
        assert report.density.rank == math.comb(n + 3, 3)


DECOMPOSABLE_FIXTURES = [
    AffineMonomialMap.build([[2, 0], [0, 1]], parse_point(["1", "5"])),
    AffineMonomialMap.build([[3, 0], [0, 1]], parse_point(["7", "1"])),
    AffineMonomialMap.build([[2, 1], [1, 1]], one_point(2)),
    AffineMonomialMap.build([[-1, 0], [0, 2]], parse_point(["zeta(4)", "3"])),
    AffineMonomialMap.build([[2, 1], [0, 1]], parse_point(["zeta(3) * 2", "5"])),
    AffineMonomialMap.build([[0, -1, 0], [1, 0, 0], [0, 0, 2]], parse_point(["2", "zeta(8)", "3/7"])),
]


def test_criterion_5_decomposition_suite():
    """Exact splitting identities for every decomposable test map."""
    rng = random.Random(13)
    maps = list(DECOMPOSABLE_FIXTURES)
    for i in range(20):
        maps.append(_random_expanding_map(rng, 2 if i % 2 else 3))
    for phi in maps:
        dec = decompose(phi)
        n = phi.dim
        assert lattice_intersection(dec.x1.annihilator, dec.x2.annihilator).rank == 0
        assert lattice_sum(dec.x1.annihilator, dec.x2.annihilator).rank == n
        r = dec.unipotent_multiplicity
        assert minpoly(dec.a1) == IntPoly.from_coeffs([-1, 1]) ** r
        assert minpoly(dec.a2) == dec.hyperbolic_factor
        assert evaluate_poly(dec.hyperbolic_factor, dec.a2).is_zero()
        assert tuple(u * v for u, v in zip(dec.gamma1, dec.gamma2)) == dec.base_map.translation
        assert dec.conjugated_phi2.translation == one_point(dec.x2.dim)
        for _ in range(20):
            s = rand_point(rng, dec.x1.dim)
            t = rand_point(rng, dec.x2.dim)
            assert dec.base_map.apply(dec.iota(s, t)) == dec.iota(dec.phi1.apply(s), dec.phi2.apply(t))
    _report(5, f"{len(maps)} decomposable maps: lattice, minimal-polynomial, splitting and conjugation identities exact")


def _matrix_order_mod(a: IntMatrix, d: int) -> int:
    eye = IntMatrix.identity(a.rows).mod(d)
    cur = a.mod(d)
    order = 1
    while cur.entries != eye.entries:
        cur = (cur * a).mod(d)
        order += 1
        assert order < 10**7
    return order


def test_criterion_6_periodic_torsion_suite():
    """Exact periods for torsion points, dividing the matrix order, matching finite models."""
    cases = [
        (IntMatrix.from_rows([[2]]), [d for d in range(1, 51) if d % 2 == 1]),
        (IntMatrix.from_rows([[2, 1], [1, 1]]), list(range(1, 51))),
        (IntMatrix.from_rows([[3, 0], [1, 2]]), [d for d in range(1, 51) if math.gcd(d, 6) == 1]),
    ]
    pairs = 0
    points = 0
    for a2, ds in cases:
        phi = AffineMonomialMap(a2, one_point(a2.rows))
        for d in ds:
            assert math.gcd(d, abs(a2.det())) == 1
            emitted = periodic_torsion_points(a2, d, budget=64)
            order = _matrix_order_mod(a2, d) if d > 1 else 1
            run = finite_model_run(phi, d)
            for point, period in emitted:
                cur = point
                for _ in range(period):
                    cur = phi.apply(cur)
                assert cur == point  # apply^period is the identity on the point
                assert order % period == 0
                state = tuple(int(c.torsion * d) % d for c in point)
                assert run.period_of(state) == period
            pairs += 1
            points += len(emitted)
    _report(6, f"{pairs} (matrix, d) pairs, {points} points: exact periods divide ord(A mod d) and match finite models")


def test_criterion_7_fibration_witness_suite():
    """Every witness satisfies the exact invariance identity; the fixture gives (2, -1)."""
    rng = random.Random(14)
    fixtures = [
        AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "4"])),
        AffineMonomialMap.build([[1, 1], [0, 1]], one_point(2)),
        AffineMonomialMap.build([[2, 0], [0, 1]], parse_point(["7", "1"])),
        AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "zeta(5)"])),
        AffineMonomialMap.build([[0, 1], [1, 0]], parse_point(["2", "2"])),
    ]
    checked = 0
    for phi in fixtures:
        w = find_invariant_fibration(phi)
        assert w is not None and w.verify(phi)
        step = phi.iterate(w.iterate)
        for _ in range(20):
            x = rand_point(rng, phi.dim)
            assert char_eval(step.apply(x), w.character) == char_eval(x, w.character)
        checked += 1
    w = find_invariant_fibration(AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "4"])))
    assert w.iterate == 1 and w.character == (2, -1)
    _report(7, f"{checked} witnesses verified exactly on 20 random points each; fixture witness is (2, -1)")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """Machine-readable CLI output is byte-identical for identical spec and seed."""
    fixture_runs = [
        ("example_wild.json", ["classify"]),
        ("example_fibration.json", ["classify", "fibration"]),
        ("example_dense.json", ["classify", "decompose"]),
        ("example_shear_wild.json", ["classify", "wild"]),
        ("example_torsion_fibration.json", ["classify", "fibration"]),
        ("example_dense3.json", ["classify", "decompose"]),
    ]
    runs = 0
    for name, commands in fixture_runs:
        for command in commands:
            outputs = []
            for _ in range(2):
                rc = main([command, str(FIXDIR / name), "--json", "--seed", "7"])
                assert rc == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], f"{command} on {name} not deterministic"
            json.loads(outputs[0])
            runs += 1
    _report(8, f"{runs} command runs byte-identical across repeated invocations")
