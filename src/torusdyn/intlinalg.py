"""Exact integer linear algebra: normal forms, lattices, annihilating polynomials.

Everything here is arbitrary-precision and deterministic; no floating point.
Matrices are immutable; lattices are kept in canonical Hermite normal form so
that equal lattices are equal values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, mul
from typing import Iterable, Sequence

from .polyalg import IntPoly
from .record import Record


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a,b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix(Record):
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.entries) != self.rows * self.cols:
            raise ValueError("inconsistent matrix shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return IntMatrix(len(rows), cols, tuple(index(x) for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> IntMatrix:
        entries = [0] * (n * n)
        entries[:: n + 1] = [1] * n
        return IntMatrix(n, n, tuple(entries))

    @staticmethod
    def zeros(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.cols, self.rows, tuple(x for j in range(self.cols) for x in self.entries[j :: self.cols]))

    def __add__(self, other: IntMatrix) -> IntMatrix:
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def _same_shape(self, other: IntMatrix):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols, tuple(a * other for a in self.entries))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * k)
        for i in range(n):
            base = i * m
            for t in range(m):
                s = a[base + t]
                if s:
                    brow = t * k
                    orow = i * k
                    for j in range(k):
                        out[orow + j] += s * b[brow + j]
        return IntMatrix(n, k, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int, modulus: int | None = None) -> IntMatrix:
        """self^k; with a modulus, as in three-argument pow, every product is reduced mod it."""
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix power")

        def reduce(m: IntMatrix) -> IntMatrix:
            return m if modulus is None else m.mod(modulus)

        acc = reduce(IntMatrix.identity(self.rows))
        base = reduce(self)
        while k:
            if k & 1:
                acc = reduce(acc * base)
            base = reduce(base * base)
            k >>= 1
        return acc

    def trace(self) -> int:
        return sum(self[i, i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def mod(self, d: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(a % d for a in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                for i in range(t + 1, n):
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
                m[i][t] = 0
            prev = m[t][t]
        return sign * m[n - 1][n - 1]


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    """m times a column vector (entries may be ints or Fractions)."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(m[i, j] * v[j] for j in range(m.cols)) for i in range(m.rows))


def vec_mat(v: Sequence, m: IntMatrix) -> tuple:
    """Row vector times m."""
    if m.rows != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(v[i] * m[i, j] for i in range(m.rows)) for j in range(m.cols))


# -- normal forms ------------------------------------------------------------


def _echelon_rows(h: list[list[int]], k: int) -> list[int]:
    """h in row echelon form over its first k columns, in place, by xgcd row operations; the pivot columns."""
    nrows = len(h)
    pivots: list[int] = []
    for j in range(k):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if h[i][j] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, nrows):
            a, b = h[r][j], h[i][j]
            if b % a == 0:  # b is 0 or a multiple of a: one row subtraction clears it
                if q := b // a:
                    h[i] = [t - q * s for s, t in zip(h[r], h[i])]
                continue
            g, x, y = xgcd(a, b)
            p, q = -(b // g), a // g
            h[r], h[i] = (
                [x * s + y * t for s, t in zip(h[r], h[i])],
                [p * s + q * t for s, t in zip(h[r], h[i])],
            )
        pivots.append(j)
    return pivots


def _hermite_rows(h: list[list[int]]) -> list[list[int]]:
    """The rows reduced in place to canonical row Hermite form; returns h.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows sink to the bottom.
    """
    for r, j in enumerate(_echelon_rows(h, len(h[0]) if h else 0)):
        if h[r][j] < 0:
            h[r] = [-s for s in h[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [s - q * t for s, t in zip(h[i], h[r])]
    return h


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) with U unimodular, U*m = H, H in canonical row Hermite form.

    One reduction of [m | I]: H is the left block and U the right one.
    Reducing the right block only subtracts rows whose left block is zero,
    so H is the Hermite form of m alone.
    """
    k = m.cols
    aug = _hermite_rows([[*m.row(i), *(0,) * i, 1, *(0,) * (m.rows - 1 - i)] for i in range(m.rows)])
    return (
        IntMatrix(m.rows, k, tuple(x for row in aug for x in row[:k])),
        IntMatrix(m.rows, m.rows, tuple(x for row in aug for x in row[k:])),
    )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(D, U, V) with U*m*V = D diagonal, d_i | d_{i+1}, U and V unimodular.

    Elimination is by floor division only: remainders are strictly smaller
    than the pivot, so the minimal nonzero entry of the working block
    decreases and the reduction terminates.
    """
    d = m.to_rows()
    nr, nc = m.rows, m.cols
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    for t in range(min(nr, nc)):
        while True:
            piv = None
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                        best, piv = abs(d[i][j]), (i, j)
            if piv is None:
                break
            pi, pj = piv
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            clear = True
            for i in range(t + 1, nr):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        d[i] = [s - q * w for s, w in zip(d[i], d[t])]
                        u[i] = [s - q * w for s, w in zip(u[i], u[t])]
                    if d[i][t]:
                        clear = False
            for j in range(t + 1, nc):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        for row in d:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if d[t][j]:
                        clear = False
            if not clear:
                continue  # a remainder smaller than the pivot exists; reselect
            offender = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if d[i][j] % d[t][t] != 0),
                None,
            )
            if offender is None:
                break
            # pull the offending row in; the next pass shrinks the pivot
            d[t] = [s + w for s, w in zip(d[t], d[offender])]
            u[t] = [s + w for s, w in zip(u[t], u[offender])]
        if d[t][t] < 0:
            d[t] = [-s for s in d[t]]
            u[t] = [-s for s in u[t]]
    return IntMatrix.from_rows(d, nc), IntMatrix.from_rows(u, nr), IntMatrix.from_rows(v, nc)


# -- lattices ----------------------------------------------------------------


class Lattice(Record):
    """Sublattice of Z^n given by its canonical HNF row basis (no zero rows)."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> Lattice:
        rows = [list(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length does not match ambient dimension")
        return Lattice(ambient_dim, tuple(tuple(row) for row in _hermite_rows(rows) if any(row)))

    @staticmethod
    def zero(n: int) -> Lattice:
        return Lattice(n, ())

    @staticmethod
    def full(n: int) -> Lattice:
        return Lattice.from_rows(n, IntMatrix.identity(n).to_rows())

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.basis, self.ambient_dim)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        v = list(vec)
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            if v[p] % row[p] != 0:
                return False
            q = v[p] // row[p]
            if q:
                v = [s - q * t for s, t in zip(v, row)]
        return all(x == 0 for x in v)


def left_kernel_saturated(m: IntMatrix) -> Lattice:
    """{b in Z^rows : b*m = 0}, which is automatically saturated.

    One echelon pass over m's own columns of [m | I] gives U*m = H with U,
    the right block, unimodular, so the rows of U past H's rank span the
    kernel over Z.  Only those rows are put into Hermite form, which is
    unique; an empty kernel costs the echelon pass alone.

    >>> left_kernel_saturated(IntMatrix.from_rows([[2, 1], [1, 1]])).basis
    ()
    >>> left_kernel_saturated(IntMatrix.from_rows([[0, 1], [0, 0]])).basis
    ((0, 1),)
    """
    aug = [[*m.row(i), *(0,) * i, 1, *(0,) * (m.rows - 1 - i)] for i in range(m.rows)]
    r = len(_echelon_rows(aug, m.cols))
    kernel = _hermite_rows([row[m.cols :] for row in aug[r:]]) if r < m.rows else ()
    return Lattice(m.rows, tuple(map(tuple, kernel)))


def right_kernel_matrix(m: IntMatrix) -> IntMatrix:
    """Columns span {u in Z^cols : m*u = 0}; the column lattice is saturated."""
    basis = left_kernel_saturated(m.transpose()).basis
    return IntMatrix(m.cols, len(basis), tuple(x for col in zip(*basis) for x in col))


def is_saturated(lat: Lattice) -> bool:
    """Whether Z^n / lat is torsion-free: the gcd of the maximal minors of the
    basis is 1, i.e. the columns of the basis span Z^rank (their Hermite
    pivots multiply to 1; one reduction)."""
    return index_if_finite(Lattice.from_rows(lat.rank, zip(*lat.basis))) == 1


def saturation(lat: Lattice) -> Lattice:
    """Smallest sublattice containing lat with torsion-free quotient."""
    if lat.rank == 0:
        return lat
    k = right_kernel_matrix(lat.basis_matrix())
    return left_kernel_saturated(k)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Lattice.from_rows(a.ambient_dim, list(a.basis) + list(b.basis))


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    stacked = IntMatrix.from_rows(list(a.basis) + [[-x for x in row] for row in b.basis], a.ambient_dim)
    ker = left_kernel_saturated(stacked)
    gens = [vec_mat(row[: a.rank], a.basis_matrix()) for row in ker.basis]
    return Lattice.from_rows(a.ambient_dim, gens)


def index_if_finite(lat: Lattice) -> int | None:
    """[Z^n : lat] when lat has full rank, else None."""
    if lat.rank != lat.ambient_dim:
        return None
    out = 1
    for i, row in enumerate(lat.basis):
        out *= row[i]
    return out


# -- annihilating polynomials -------------------------------------------------


def charpoly(m: IntMatrix) -> IntPoly:
    """det(xI - m) via the Faddeev-LeVerrier recurrence (exact integer divisions)."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs_high = [1]
    bk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * bk
        tr = mk.trace()
        assert tr % k == 0
        ck = -(tr // k)
        coeffs_high.append(ck)
        bk = mk + ck * IntMatrix.identity(n)
    assert bk.is_zero()  # Cayley-Hamilton residual
    return IntPoly.from_coeffs(list(reversed(coeffs_high)))


def minpoly(m: IntMatrix) -> IntPoly:
    """Minimal polynomial: the first integer dependence among vec(I), vec(m), vec(m^2), ...

    Fraction-free elimination over Z (as in Bareiss): vec(m^k), carrying its
    combination c = e_k of the powers, is reduced against the stored rows in
    order, v <- a*v - b*row and c <- a*c - b*comb with a = row[j] != 0 and
    b = v[j] at the row's pivot column j; a row is zero in every earlier
    row's pivot column.  A nonzero v is stored divided by the content of
    (v, c).  The first v to reach zero gives c = c[k] * mu, and mu is monic
    over Z (Gauss's lemma), so every division below is exact.
    """
    if m.rows != m.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    rows: list[tuple[int, list[int], list[int]]] = []  # (pivot column, row, combination)
    power = IntMatrix.identity(n)
    for k in range(n + 1):
        v = list(power.entries)
        c = [int(i == k) for i in range(n + 1)]
        for j, row, comb in rows:
            b = v[j]
            if b:
                a = row[j]
                v = [a * x - b * y for x, y in zip(v, row)]
                c = [a * x - b * y for x, y in zip(c, comb)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is None:
            lead = c[k]
            assert lead and all(x % lead == 0 for x in c)
            return IntPoly.from_coeffs([x // lead for x in c[: k + 1]])
        g = math.gcd(*v, *c)
        rows.append((j, [x // g for x in v], [x // g for x in c]))
        power = power * m
    raise AssertionError("no dependence by m^n: Cayley-Hamilton fails")


def evaluate_poly(p: IntPoly, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule on plain rows: each step multiplies by m and adds c on the diagonal."""
    if m.rows != m.cols:
        raise ValueError("polynomial of a non-square matrix")
    n = m.rows
    cols = [m.col(j) for j in range(n)]
    acc = [[0] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        for i in range(n):
            acc[i][i] += c
    return IntMatrix(n, n, tuple(x for row in acc for x in row))


# -- linear solving ------------------------------------------------------------


def _reduce_rational(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan on rows in place, pivoting in the first ncols columns; the pivot columns."""
    piv_cols: list[int] = []
    for j in range(ncols):
        r = len(piv_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = rows[r][j]
        rows[r] = [a / f for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                g = rows[i][j]
                rows[i] = [a - g * c for a, c in zip(rows[i], rows[r])]
        piv_cols.append(j)
    return piv_cols


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a list of rows (ints or Fractions)."""
    work = [[Fraction(x) for x in row] for row in rows]
    return len(_reduce_rational(work, len(work[0]) if work else 0))


def solve_rational(m: IntMatrix, b: Sequence, *more: Sequence) -> tuple[Fraction, ...] | None | list:
    """One exact solution of m*x = b over the rationals, or None if inconsistent.

    Free variables are set to zero.  b may contain ints or Fractions.  Given more right-hand
    sides, one elimination solves them all and the result is the list of each one's solution.
    """
    rhs = (b, *more)
    if any(len(c) != m.rows for c in rhs):
        raise ValueError("dimension mismatch")
    rows = [[Fraction(m[i, j]) for j in range(m.cols)] + [Fraction(c[i]) for c in rhs] for i in range(m.rows)]
    piv_cols = _reduce_rational(rows, m.cols)
    r = len(piv_cols)
    sols: list[tuple[Fraction, ...] | None] = []
    for k in range(m.cols, m.cols + len(rhs)):
        x = [Fraction(0)] * m.cols
        for i, j in enumerate(piv_cols):
            x[j] = rows[i][k]
        sols.append(None if any(rows[i][k] for i in range(r, len(rows))) else tuple(x))
    return sols if more else sols[0]
