import random

import pytest

from torusdyn.intlinalg import IntMatrix, Lattice, saturation, solve_rational
from torusdyn.kummer import one_point, parse_point
from torusdyn.torus import (
    AffineMonomialMap,
    Coset,
    Subtorus,
    coset_image,
    coset_invariant,
    coset_cycle_invariant,
    image_subtorus,
    membership,
    monomial_image,
    quotient_map,
    restrict_endomorphism,
)

from conftest import rand_invertible, rand_map, rand_point, rand_unimodular_pair
from reference import rational_rank


def test_apply_examples():
    phi = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
    assert phi.apply(one_point(2)) == parse_point(["1", "3"])
    ident = AffineMonomialMap.build([[1, 0], [0, 1]], one_point(2))
    x = parse_point(["zeta(3)", "5"])
    assert ident.apply(x) == x
    with pytest.raises(ValueError):
        phi.apply(one_point(3))


def test_composition_convention():
    # x^B after x^A is x^(B*A) under the exponent-column convention
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    b = IntMatrix.from_rows([[2, 0], [0, 1]])
    x = parse_point(["2", "3"])
    step = monomial_image(b, monomial_image(a, x))
    assert step == monomial_image(b * a, x)


def test_iterate_examples():
    phi = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
    assert phi.iterate(1) == phi
    assert phi.iterate(1) is phi
    it2 = phi.iterate(2)
    assert it2.matrix.to_rows() == [[1, 2], [0, 1]]
    assert it2.translation == parse_point(["3", "9"])
    doubling = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    assert doubling.iterate(5).translation == parse_point(["32", "243"])


def test_iterate_functoriality():
    rng = random.Random(400)
    for _ in range(40):
        phi = rand_map(rng, rng.randint(1, 3))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        combined = phi.iterate(a).compose(phi.iterate(b))
        assert combined.matrix.entries == phi.iterate(a + b).matrix.entries
        assert combined.translation == phi.iterate(a + b).translation
        x = rand_point(rng, phi.dim)
        y = x
        for _ in range(a):
            y = phi.apply(y)
        assert y == phi.iterate(a).apply(x)


def test_orbit_examples():
    phi = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
    x = parse_point(["2", "5"])
    assert phi.orbit(x, 1) == [x]
    assert phi.orbit(x, 3) == [x, phi.apply(x), phi.apply(phi.apply(x))]
    for n in (0, -1):
        with pytest.raises(ValueError, match="orbit length must be >= 1"):
            phi.orbit(x, n)
    for n in (1, 2):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            phi.orbit(parse_point(["2", "5", "7"]), n)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        AffineMonomialMap.build([[1, 1], [1, 1]], one_point(2))


def test_image_subtorus_examples():
    assert image_subtorus(IntMatrix.from_rows([[2, 1], [1, 1]])) == Subtorus.full(2)
    s = image_subtorus(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert s.annihilator.basis == ((0, 1),)
    assert image_subtorus(IntMatrix.zeros(2, 2)) == Subtorus.trivial(2)


def test_image_annihilator_duality():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        s = image_subtorus(m)
        for b in s.annihilator.basis:
            assert all(x == 0 for x in (IntMatrix.from_rows([b], n) * m).entries)
        assert s.annihilator.rank == n - rational_rank(m.to_rows())


def test_quotient_map_examples():
    s = image_subtorus(IntMatrix.from_rows([[0, 1], [0, 0]]))
    proj, r = quotient_map(s)
    assert proj.to_rows() == [[0, 1]] and r == 1
    proj, r = quotient_map(Subtorus.full(2))
    assert r == 0 and proj.rows == 0
    proj, r = quotient_map(Subtorus.trivial(2))
    assert proj.to_rows() == [[1, 0], [0, 1]]


def test_quotient_projection_constant_on_cosets():
    rng = random.Random(402)
    for _ in range(30):
        n = rng.randint(2, 3)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        s = image_subtorus(m)
        if s.dim == 0 or s.dim == n:
            continue
        proj, _ = quotient_map(s)
        x = rand_point(rng, n)
        shift = s.embed(rand_point(rng, s.dim))
        y = tuple(a * b for a, b in zip(x, shift))
        assert monomial_image(proj, x) == monomial_image(proj, y)


def test_restrict_endomorphism_examples():
    a = IntMatrix.from_rows([[2, 0], [0, 1]])
    e1 = image_subtorus(IntMatrix.from_rows([[1], [0]]))
    assert restrict_endomorphism(a, e1).to_rows() == [[2]]
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert restrict_endomorphism(swap, e1) is None
    assert restrict_endomorphism(swap, Subtorus.full(2)).entries == swap.entries


def reference_restrict(a, s):
    """restrict_endomorphism as one rational solve V*x = (a*V)_j per cochar column j."""
    v = s.cochar_basis
    av = a * v
    cols = []
    for j in range(v.cols):
        sol = solve_rational(v, av.col(j))
        if sol is None:
            return None
        assert all(c.denominator == 1 for c in sol)
        cols.append([c.numerator for c in sol])
    return IntMatrix.from_rows([[cols[j][i] for j in range(v.cols)] for i in range(v.cols)], v.cols)


def test_restrict_endomorphism_matches_rational_solve():
    rng = random.Random(404)
    kept = refused = 0
    for _ in range(80):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        # block upper-triangular, so conjugated by w it preserves the span of w's first k columns
        upper = IntMatrix.zeros(n, n)
        while not upper.det():
            upper = IntMatrix.from_rows([[0 if j < k <= i else rng.randint(-3, 3) for j in range(n)] for i in range(n)])
        w, winv = rand_unimodular_pair(rng, n)
        a = w * upper * winv
        first = image_subtorus(IntMatrix.from_rows([row[:k] for row in w.to_rows()], k))
        cols = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k)
        for s in (first, image_subtorus(cols), image_subtorus(a - IntMatrix.identity(n))):
            got = reference_restrict(a, s)
            assert restrict_endomorphism(a, s) == got
            kept += got is not None and 0 < s.dim < n
            refused += got is None
        assert restrict_endomorphism(a, Subtorus.full(n)) == a
        assert restrict_endomorphism(a, Subtorus.trivial(n)) == IntMatrix.zeros(0, 0)
    assert kept >= 80 and refused >= 20


def test_restriction_commutes_with_embedding():
    rng = random.Random(403)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = rand_invertible(rng, n)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        s = image_subtorus(m * a - a * m) if rng.random() < 0.2 else image_subtorus(a - IntMatrix.identity(n))
        restricted = restrict_endomorphism(a, s)
        if restricted is None or s.dim == 0:
            continue
        pt = rand_point(rng, s.dim)
        assert monomial_image(a, s.embed(pt)) == s.embed(monomial_image(restricted, pt))


def test_membership_examples():
    vertical = image_subtorus(IntMatrix.from_rows([[1], [0]]))
    c = Coset(one_point(2), vertical)
    assert membership(parse_point(["7", "1"]), c)
    assert not membership(parse_point(["7", "3"]), c)
    everything = Coset(parse_point(["zeta(5)", "2"]), Subtorus.full(2))
    assert membership(rand_point(random.Random(1), 2), everything)


def test_coset_invariance_torsion_cycle():
    squaring = AffineMonomialMap.build([[2, 0], [0, 2]], one_point(2))
    line = image_subtorus(IntMatrix.from_rows([[0], [1]]))
    c = Coset(parse_point(["zeta(3)", "1"]), line)
    assert not coset_invariant(squaring, c)
    assert coset_invariant(squaring.iterate(2), c)
    img = coset_image(squaring, c)
    assert img.same_set(Coset(parse_point(["zeta(3)^2", "1"]), line))
    assert coset_cycle_invariant(squaring, [c, img])


def test_coset_cycle_invariant_rejects_broken_cycles():
    # every verdict agrees with checking coset_image(phi, c).same_set(next) coset by coset
    squaring = AffineMonomialMap.build([[2, 0], [0, 2]], one_point(2))
    shear = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
    line = image_subtorus(IntMatrix.from_rows([[0], [1]]))
    c = Coset(parse_point(["zeta(3)", "1"]), line)
    img = coset_image(squaring, c)
    cases = [
        (squaring, [], False),
        (squaring, [c], False),
        (squaring, [c, img], True),
        (squaring, [img, c], True),
        (squaring, [c, img, c], False),
        (shear, [c, c], False),  # the image of the line is the diagonal line
        (shear, [c, coset_image(shear, c)], False),
    ]
    for phi, cycle, want in cases:
        pairwise = bool(cycle) and all(
            coset_image(phi, a).same_set(cycle[(i + 1) % len(cycle)]) for i, a in enumerate(cycle)
        )
        assert coset_cycle_invariant(phi, cycle) == pairwise == want


def test_coset_invariant_random_members():
    rng = random.Random(404)
    whole = AffineMonomialMap.build([[2, 0], [0, 2]], one_point(2))
    line = image_subtorus(IntMatrix.from_rows([[0], [1]]))
    c = Coset(one_point(2), line)
    assert coset_invariant(whole, c)
    for _ in range(20):
        member = c.sample(rand_point(rng, 1))
        assert membership(member, c)
        assert membership(whole.apply(member), c)


def test_subtorus_coordinates_round_trip():
    rng = random.Random(405)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        s = image_subtorus(m)
        if s.dim == 0:
            continue
        pt = rand_point(rng, s.dim)
        emb = s.embed(pt)
        assert s.contains(emb)
        assert s.embed(s.coordinates_of(emb)) == emb


def test_annihilator_must_be_saturated():
    with pytest.raises(ValueError):
        Subtorus(2, Lattice.from_rows(2, [[2, 0]]))


def test_subtorus_saturation_check_matches_saturation():
    # every subtorus is checked with one Hermite reduction of the transposed
    # annihilator basis; the reference is the lattice's saturation
    rng = random.Random(91)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        if rows and rng.random() < 0.5:
            rows = [list(b) for b in saturation(Lattice.from_rows(n, rows)).basis]
            if rows and rng.random() < 0.6:
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                if rng.random() < 0.5:
                    rows[i] = [rng.randint(2, 9) * x for x in rows[i]]
                else:
                    rows[i] = [x + y for x, y in zip(rows[i], rows[j])]
        lat = Lattice.from_rows(n, rows)
        saturated = saturation(lat) == lat
        seen[saturated] += 1
        if saturated:
            assert Subtorus(n, lat).annihilator == lat
        else:
            with pytest.raises(ValueError, match="saturated"):
                Subtorus(n, lat)
    assert min(seen.values()) >= 50


def test_cochar_left_inverse_from_one_hermite_form():
    # W is read off the Hermite form of the cochar basis V: W * V = I for
    # subtori of every dimension, and a V whose column lattice is not
    # saturated has no integral left inverse and is refused
    rng = random.Random(406)
    for _ in range(120):
        n, k = rng.randint(1, 5), rng.randint(0, 5)
        s = image_subtorus(IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], k))
        w = s._cochar_left_inverse
        assert (w.rows, w.cols) == (s.dim, n)
        assert w * s.cochar_basis == IntMatrix.identity(s.dim)
    s = Subtorus.full(2)
    s.__dict__["cochar_basis"] = IntMatrix.from_rows([[2, 0], [0, 1]])
    with pytest.raises(AssertionError, match="not saturated"):
        s._cochar_left_inverse
