import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torusdyn.intlinalg import (
    IntMatrix,
    Lattice,
    charpoly,
    evaluate_poly,
    hermite_normal_form,
    index_if_finite,
    is_saturated,
    lattice_intersection,
    lattice_sum,
    left_kernel_saturated,
    mat_vec,
    minpoly,
    rational_rank,
    right_kernel_matrix,
    saturation,
    smith_normal_form,
    solve_rational,
    vec_mat,
)
from torusdyn.kummer import parse_point
from torusdyn.polyalg import IntPoly
from torusdyn.torus import AffineMonomialMap

from conftest import rand_matrix


def test_hnf_examples():
    eye = IntMatrix.identity(3)
    h, u = hermite_normal_form(eye)
    assert h.entries == eye.entries and u.entries == eye.entries
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    h, u = hermite_normal_form(m)
    assert h.entries == m.entries
    m = IntMatrix.from_rows([[0, 1], [0, 0]])
    h, u = hermite_normal_form(m)
    assert h.to_rows() == [[0, 1], [0, 0]]


def _assert_hnf_canonical(h: IntMatrix):
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            assert all(not any(h.row(k)) for k in range(i, h.rows))  # zero rows at bottom
            break
        assert row[nz] > 0
        if pivots:
            assert nz > pivots[-1][1]
        for k in range(i):
            assert 0 <= h[k, nz] < row[nz]
        pivots.append((i, nz))


def test_hnf_random_properties():
    rng = random.Random(200)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        h, u = hermite_normal_form(m)
        assert (u * m).entries == h.entries
        assert u.det() in (1, -1)
        _assert_hnf_canonical(h)
        h2, _ = hermite_normal_form(h)
        assert h2.entries == h.entries  # idempotent on canonical forms


def test_snf_examples():
    d, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert d.to_rows() == [[1, 0], [0, 6]]
    z = IntMatrix.zeros(2, 3)
    d, u, v = smith_normal_form(z)
    assert d.is_zero()
    d, _, _ = smith_normal_form(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert d.to_rows() == [[1, 0], [0, 1]]


def test_snf_random_properties():
    rng = random.Random(201)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)])
        d, u, v = smith_normal_form(m)
        assert (u * m * v).entries == d.entries
        assert u.det() in (1, -1) and v.det() in (1, -1)
        diag = [d[i, i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        assert all(d[i, j] == 0 for i in range(rows) for j in range(cols) if i != j)


def test_left_kernel_examples():
    m = IntMatrix.from_rows([[0, 1], [0, 0]])
    assert left_kernel_saturated(m).basis == ((0, 1),)
    assert left_kernel_saturated(IntMatrix.from_rows([[2, 1], [1, 1]])).rank == 0
    assert left_kernel_saturated(IntMatrix.zeros(2, 2)) == Lattice.full(2)


def test_left_kernel_random():
    rng = random.Random(202)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        ker = left_kernel_saturated(m)
        for b in ker.basis:
            assert all(x == 0 for x in vec_mat(b, m))
        assert saturation(ker) == ker
        # rank-nullity over Q
        assert ker.rank == rows - rational_rank(m.to_rows())


def _smith_left_kernel(m: IntMatrix) -> Lattice:
    """The left kernel as the rows of U, from U*m*V = D in Smith form, where D's diagonal is zero."""
    d, u, _ = smith_normal_form(m)
    rank = min(d.rows, d.cols)
    return Lattice.from_rows(m.rows, [u.row(i) for i in range(m.rows) if i >= rank or d[i, i] == 0])


@st.composite
def _kernel_matrices(draw):
    """0..6 by 0..6 integer matrices, entries up to 10^6 in size: dense, zero, or of lower rank."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))
    kind = draw(st.sampled_from(["dense", "zero", "low rank"]))
    if kind == "zero":
        return IntMatrix.zeros(rows, cols)
    if kind == "dense" or min(rows, cols) < 2:
        return IntMatrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))))
    # a product through k < min(rows, cols) dimensions has rank at most k
    k = draw(st.integers(1, min(rows, cols) - 1))
    small = st.integers(-300, 300)
    left = IntMatrix(rows, k, tuple(draw(st.lists(small, min_size=rows * k, max_size=rows * k))))
    right = IntMatrix(k, cols, tuple(draw(st.lists(small, min_size=k * cols, max_size=k * cols))))
    return left * right


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_kernel_matrices())
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix.zeros(0, 0))
@example(IntMatrix.zeros(4, 2))
@example(IntMatrix.from_rows([[10**6, -(10**6)], [999_999, -999_999], [1, -1]]))
def test_left_kernel_matches_the_smith_construction(m):
    ker = left_kernel_saturated(m)
    assert ker == _smith_left_kernel(m)
    assert all(not any(vec_mat(b, m)) for b in ker.basis)


def _two_reduction_kernel(m: IntMatrix) -> Lattice:
    """The left kernel read off the full Hermite form of [m | I], reduced over every
    column: the rows of U whose row of H is zero, put into Hermite form by a second reduction."""
    h, u = hermite_normal_form(m)
    return Lattice.from_rows(m.rows, [u.row(i) for i in range(m.rows) if not any(h.row(i))])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_kernel_matrices())
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix.zeros(0, 0))
@example(IntMatrix.from_rows([[2, 4], [1, 2], [3, 6]]))
def test_left_kernel_matches_the_full_hermite_reduction(m):
    # echeloning [m | I] over m's columns and reducing only the kernel rows gives
    # the kernel that the full Hermite form of [m | I] gives, and the full form's
    # left block is the Hermite form of m alone
    assert left_kernel_saturated(m) == _two_reduction_kernel(m)
    hnf = Lattice.from_rows(m.cols, m.to_rows()).basis
    h, u = hermite_normal_form(m)
    assert h.to_rows() == [list(b) for b in hnf] + [[0] * m.cols] * (m.rows - len(hnf))
    assert u * m == h and u.det() in (1, -1)


@st.composite
def _lattices(draw):
    """A saturated lattice (a left kernel), then maybe one basis row scaled by k >= 2 or summed with another."""
    m = draw(_kernel_matrices())
    basis = [list(b) for b in left_kernel_saturated(m).basis]
    if basis:
        i = draw(st.integers(0, len(basis) - 1))
        change = draw(st.sampled_from(["none", "scale", "sum"]))
        if change == "scale":
            k = draw(st.integers(2, 12))
            basis[i] = [k * x for x in basis[i]]
        elif change == "sum":
            j = draw(st.integers(0, len(basis) - 1))
            basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
    return Lattice.from_rows(m.rows, basis)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_lattices())
@example(Lattice.from_rows(2, [[2, 4]]))
@example(Lattice.from_rows(3, [[2, 0, 0], [0, 6, 0]]))
@example(Lattice.from_rows(3, [[1, 0, 0], [0, 2, 2]]))
@example(Lattice.from_rows(3, [[1, 1, 0], [1, -1, 0]]))
@example(Lattice.zero(3))
@example(Lattice.zero(0))
@example(Lattice.full(3))
def test_is_saturated_matches_saturation(lat):
    assert is_saturated(lat) == (saturation(lat) == lat)


def test_lattice_ops_examples():
    e1 = Lattice.from_rows(2, [[1, 0]])
    e2 = Lattice.from_rows(2, [[0, 1]])
    assert lattice_sum(e1, e2) == Lattice.full(2)
    assert index_if_finite(lattice_sum(e1, e2)) == 1
    a = Lattice.from_rows(2, [[2, 0]])
    b = Lattice.from_rows(2, [[3, 0]])
    assert lattice_intersection(a, b).basis == ((6, 0),)
    assert index_if_finite(Lattice.from_rows(2, [[2, 0], [0, 3]])) == 6
    assert index_if_finite(e1) is None


def test_lattice_rank_identity():
    rng = random.Random(203)
    for _ in range(120):
        n = rng.randint(1, 4)
        l1 = Lattice.from_rows(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        l2 = Lattice.from_rows(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        s = lattice_sum(l1, l2)
        i = lattice_intersection(l1, l2)
        assert l1.rank + l2.rank == s.rank + i.rank
        for b in i.basis:
            assert l1.contains(b) and l2.contains(b)


def test_lattice_membership_brute():
    lat = Lattice.from_rows(2, [[2, 1], [0, 3]])
    members = {
        tuple(a * r1 + b * r2 for r1, r2 in zip((2, 1), (0, 3)))
        for a in range(-4, 5)
        for b in range(-4, 5)
    }
    for v in itertools.product(range(-6, 7), repeat=2):
        assert lat.contains(v) == (v in members)


def test_saturation():
    assert saturation(Lattice.from_rows(2, [[2, 4]])).basis == ((1, 2),)
    assert saturation(Lattice.from_rows(3, [[2, 0, 0], [0, 6, 0]])).basis == ((1, 0, 0), (0, 1, 0))
    assert saturation(Lattice.zero(3)) == Lattice.zero(3)


def test_charpoly_examples():
    assert charpoly(IntMatrix.identity(2)) == IntPoly.from_coeffs([1, -2, 1])
    assert minpoly(IntMatrix.identity(2)) == IntPoly.from_coeffs([-1, 1])
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    # 2x2 oracle: x^2 - trace x + det
    assert charpoly(m) == IntPoly.from_coeffs([m.det(), -m.trace(), 1])
    assert minpoly(m) == charpoly(m)
    assert minpoly(IntMatrix.from_rows([[1, 1], [0, 1]])) == IntPoly.from_coeffs([1, -2, 1])


def test_charpoly_against_determinant_oracle():
    rng = random.Random(204)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, 5)
        p = charpoly(m)
        for k in range(n + 1):
            shifted = IntMatrix.from_rows(
                [[(k if i == j else 0) - m[i, j] for j in range(n)] for i in range(n)]
            )
            assert p(k) == shifted.det()


def test_minpoly_properties():
    rng = random.Random(205)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, 4)
        mp = minpoly(m)
        cp = charpoly(m)
        assert evaluate_poly(mp, m).is_zero()
        assert cp.try_divide(mp) is not None
        # minimality oracle: the powers I, A, ..., A^(deg-1) are linearly independent,
        # so no annihilator of smaller degree exists
        powers = [list((m**j).entries) for j in range(mp.degree)]
        assert rational_rank(powers) == mp.degree


def test_minpoly_projector_case():
    # diag blocks with repeated eigenvalues keep minpoly small
    m = IntMatrix.from_rows([[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert minpoly(m) == IntPoly.from_coeffs([-3, 1])
    assert charpoly(m) == IntPoly.from_coeffs([-3, 1]) ** 3


def _reference_minpoly(a: IntMatrix) -> IntPoly:
    """The first dependence of vec(a^k) on vec(I), ..., vec(a^(k-1)), solved over Q."""
    powers = [IntMatrix.identity(a.rows)]
    while True:
        nxt = powers[-1] * a
        cols = IntMatrix.from_rows(list(zip(*(p.entries for p in powers))), len(powers))
        sol = solve_rational(cols, nxt.entries)
        if sol is not None:
            assert all(c.denominator == 1 for c in sol)
            return IntPoly.from_coeffs([-c for c in sol] + [1])
        powers.append(nxt)


@st.composite
def _block_matrices(draw):
    """n <= 6: dense blocks (often singular with small entries), c*I and c*I + shift
    blocks (nilpotent when c = 0), repeated blocks, and entries up to 10^6; then
    maybe conjugated by a shear, which keeps the minimal polynomial."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-2, 2), st.integers(-(10**6), 10**6))
    a = [[0] * n for _ in range(n)]
    i, prev = 0, None
    while i < n:
        kind = draw(st.sampled_from(("dense", "scalar", "jordan", "repeat")))
        if kind == "repeat" and prev is not None and len(prev) <= n - i:
            block = prev
        else:
            k = draw(st.integers(1, n - i))
            if kind == "dense":
                block = [[draw(entries) for _ in range(k)] for _ in range(k)]
            else:
                c = draw(entries)
                block = [[c if s == t else int(kind == "jordan" and t == s + 1) for t in range(k)] for s in range(k)]
        for s, row in enumerate(block):
            a[i + s][i : i + len(block)] = row
        i += len(block)
        prev = block
    m = IntMatrix.from_rows(a)
    if n > 1 and draw(st.booleans()):
        s, t = draw(st.sampled_from([(s, t) for s in range(n) for t in range(n) if s != t]))
        shear = [[int(u == v) + (u == s and v == t) for v in range(n)] for u in range(n)]
        inverse = [[int(u == v) - (u == s and v == t) for v in range(n)] for u in range(n)]
        m = IntMatrix.from_rows(shear) * m * IntMatrix.from_rows(inverse)
    return m


_BIG = IntMatrix.from_rows([[10**6, 1, 0, 0], [0, 10**6, 0, 0], [0, 0, -(10**6), 0], [0, 0, 0, 10**6]])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_block_matrices())
@example(IntMatrix.from_rows([[0]]))
@example(IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(IntMatrix.identity(6) * 7)
@example(_BIG)
@example(IntMatrix.from_rows([[1, 0], [0, 8]]))
def test_minpoly_matches_rational_dependence(m):
    assert minpoly(m) == _reference_minpoly(m)


def test_minpoly_of_a_block_matrix_with_entries_of_a_million():
    assert minpoly(_BIG) == IntPoly.from_coeffs([-(10**6), 1]) ** 2 * IntPoly.from_coeffs([10**6, 1])


def test_solve_rational():
    assert solve_rational(IntMatrix.from_rows([[1]]), [3]) == (Fraction(3),)
    m = IntMatrix.from_rows([[2, 0], [0, 2]]) - IntMatrix.identity(2)
    assert solve_rational(m, [1, 1]) == (Fraction(1), Fraction(1))
    assert solve_rational(IntMatrix.from_rows([[1, 1], [1, 1]]), [1, 2]) is None
    rng = random.Random(206)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
        b = mat_vec(m, x)
        sol = solve_rational(m, b)
        assert sol is not None
        assert mat_vec(m, sol) == tuple(b)


def test_solve_rational_with_several_right_hand_sides():
    # one elimination gives what a solve per right-hand side gives, None where inconsistent
    rng = random.Random(207)
    inconsistent = 0
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        rhs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rows)] for _ in range(rng.randint(2, 4))]
        sols = solve_rational(m, *rhs)
        assert sols == [solve_rational(m, b) for b in rhs]
        inconsistent += sols.count(None)
    assert inconsistent > 0
    with pytest.raises(ValueError):
        solve_rational(IntMatrix.identity(2), [1, 2], [1])


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert (m**0).entries == IntMatrix.identity(2).entries
    assert (m**3).entries == (m * m * m).entries
    # three-argument pow reduces as it goes, and agrees with reducing the power
    for k in range(6):
        for d in (1, 2, 7, 10):
            assert pow(m, k, d) == (m**k).mod(d)
    assert m.transpose().to_rows() == [[1, 3], [2, 4]]
    assert IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        t = IntMatrix.zeros(rows, cols).transpose()
        assert (t.rows, t.cols, t.entries) == (cols, rows, ())
    assert m.det() == -2
    with pytest.raises(ValueError):
        m * IntMatrix.identity(3)
    big = IntMatrix.from_rows([[10**20, 1], [1, 10**20]])
    assert big.det() == 10**40 - 1


def test_from_rows_refuses_entries_that_are_not_integers():
    # a float, Fraction or str entry raises instead of being truncated or parsed
    for bad in (2.7, 2.0, Fraction(5, 2), Fraction(2), "2"):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[bad, 1], [1, 1]])
    # an int subclass is stored as a plain int
    assert [(x, type(x)) for x in IntMatrix.from_rows([[True, 1], [1, 1]]).entries] == [(1, int)] * 4
    with pytest.raises(TypeError):
        AffineMonomialMap.build([[2.7, 1], [1, 1]], parse_point(["2", "3"]))
