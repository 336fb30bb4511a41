"""Geometry of the split torus: monomial maps, subtori, cosets, quotients.

Exponent convention
-------------------
A monomial map acts on exponent *column* vectors: for an integer matrix A,

    (x^A)_i = prod_j x_j^(A[i][j])

so composing maps multiplies matrices in application order,
x^B after x^A is x^(B*A).  Worked 2x2 example:

    A = [[1, 1], [0, 1]]      x^A         = (x*y, y)
    B = [[2, 0], [0, 1]]      (x^A)^B     = (x^2*y^2, y)
    B*A = [[2, 2], [0, 1]]    x^(B*A)     = (x^2*y^2, y)

An affine monomial map applies the matrix first and then multiplies
coordinatewise by a fixed translation point gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .intlinalg import (
    IntMatrix,
    Lattice,
    left_kernel_saturated,
    right_kernel_matrix,
    saturation,
    smith_normal_form,
)
from .kummer import Point, char_eval


def monomial_image(m: IntMatrix, x: Point) -> Point:
    """x^m under the exponent-column convention."""
    if m.cols != len(x):
        raise ValueError(f"dimension mismatch: matrix has {m.cols} columns, point has {len(x)}")
    return tuple(char_eval(x, m.row(i)) for i in range(m.rows))


@dataclass(frozen=True)
class AffineMonomialMap:
    """x -> gamma * x^matrix on the torus of rank len(gamma)."""

    matrix: IntMatrix
    translation: Point

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("monomial map matrix must be square")
        if self.matrix.rows != len(self.translation):
            raise ValueError("translation dimension does not match matrix")
        if self.matrix.rows > 0 and self.matrix.det() == 0:
            raise ValueError("matrix is singular; the map would not be dominant")

    @staticmethod
    def build(rows, gamma: Point) -> AffineMonomialMap:
        return AffineMonomialMap(IntMatrix.from_rows(rows, len(gamma)), tuple(gamma))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def det(self) -> int:
        return self.matrix.det()

    @property
    def is_automorphism(self) -> bool:
        return abs(self.det) == 1

    def apply(self, x: Point) -> Point:
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        img = monomial_image(self.matrix, x)
        return tuple(g * v for g, v in zip(self.translation, img))

    def compose(self, inner: AffineMonomialMap) -> AffineMonomialMap:
        """self after inner: matrix self.matrix * inner.matrix."""
        if self.dim != inner.dim:
            raise ValueError("dimension mismatch")
        gamma = tuple(g * v for g, v in zip(self.translation, monomial_image(self.matrix, inner.translation)))
        return AffineMonomialMap(self.matrix * inner.matrix, gamma)

    def iterate(self, k: int) -> AffineMonomialMap:
        """The k-th iterate; its translation is gamma * gamma^A * ... * gamma^(A^(k-1))."""
        if k < 1:
            raise ValueError("iterate count must be >= 1")
        acc = self.translation
        cur = self.translation
        for _ in range(k - 1):
            cur = monomial_image(self.matrix, cur)
            acc = tuple(a * c for a, c in zip(acc, cur))
        return AffineMonomialMap(self.matrix**k, acc)

    def orbit(self, x: Point, n: int) -> list[Point]:
        """The first n points x, phi(x), ..., phi^(n-1)(x)."""
        out = [tuple(x)]
        for _ in range(n - 1):
            out.append(self.apply(out[-1]))
        return out


@dataclass(frozen=True)
class Subtorus:
    """Connected algebraic subgroup, encoded by its saturated annihilator lattice.

    The annihilator holds the characters vanishing on the subgroup; because it
    is saturated and in HNF, equal subtori are equal values.
    """

    ambient_dim: int
    annihilator: Lattice

    def __post_init__(self):
        if self.annihilator.ambient_dim != self.ambient_dim:
            raise ValueError("annihilator lives in the wrong character lattice")
        if saturation(self.annihilator) != self.annihilator:
            raise ValueError("annihilator must be saturated")

    @staticmethod
    def full(n: int) -> Subtorus:
        return Subtorus(n, Lattice.zero(n))

    @staticmethod
    def trivial(n: int) -> Subtorus:
        return Subtorus(n, Lattice.full(n))

    @staticmethod
    def from_cochar_columns(cols: IntMatrix) -> Subtorus:
        return Subtorus(cols.rows, left_kernel_saturated(cols))

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.annihilator.rank

    @cached_property
    def cochar_basis(self) -> IntMatrix:
        """n x dim integer matrix whose columns span the one-parameter subgroups."""
        if self.annihilator.rank == 0:
            return IntMatrix.identity(self.ambient_dim)
        return right_kernel_matrix(self.annihilator.basis_matrix())

    @cached_property
    def _cochar_left_inverse(self) -> IntMatrix:
        """W with W * cochar_basis = identity; exists because the column lattice is saturated."""
        v = self.cochar_basis
        k = v.cols
        d, u, vv = smith_normal_form(v)
        for i in range(k):
            if d[i, i] != 1:
                raise AssertionError("cochar basis is not saturated")
        dplus = IntMatrix.from_rows([[1 if i == j else 0 for j in range(v.rows)] for i in range(k)], v.rows)
        return vv * dplus * u

    def contains(self, x: Point) -> bool:
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(char_eval(x, b).is_one() for b in self.annihilator.basis)

    def embed(self, s: Point) -> Point:
        """Point of the ambient torus from subtorus coordinates."""
        return monomial_image(self.cochar_basis, s)

    def coordinates_of(self, x: Point) -> Point:
        """Subtorus coordinates of a member point (inverse of embed on members)."""
        s = monomial_image(self._cochar_left_inverse, x)
        if self.embed(s) != tuple(x):
            raise ValueError("point does not lie on the subtorus")
        return s


def image_subtorus(m: IntMatrix) -> Subtorus:
    """Closure of the image of x -> x^m; its characters are the left kernel of m."""
    return Subtorus(m.rows, left_kernel_saturated(m))


def subtorus_image_under(m: IntMatrix, s: Subtorus) -> Subtorus:
    """Image of the subtorus s under x -> x^m (m square invertible or not)."""
    return Subtorus(m.rows, left_kernel_saturated(m * s.cochar_basis))


def quotient_map(s: Subtorus) -> tuple[IntMatrix, int]:
    """(projection, r): rows are the HNF annihilator basis; pi(x) = x^rows.

    The projection is constant on cosets of s and its kernel's connected
    component is s.
    """
    rows = s.annihilator.basis
    r = len(rows)
    return IntMatrix.from_rows(rows, s.ambient_dim), r


def restrict_endomorphism(a: IntMatrix, s: Subtorus) -> IntMatrix | None:
    """Matrix of x -> x^a on s in cochar coordinates, or None when a does not preserve s.

    The cochar basis V has full column rank and a saturated column lattice, so
    when a*V = V*B has a solution it is unique and integral, and W*V = I gives B = W*a*V.
    """
    av = a * s.cochar_basis
    b = s._cochar_left_inverse * av
    return b if s.cochar_basis * b == av else None


@dataclass(frozen=True)
class Coset:
    """base * torus, a translate of a subtorus."""

    base: Point
    torus: Subtorus

    def __post_init__(self):
        if len(self.base) != self.torus.ambient_dim:
            raise ValueError("base point dimension mismatch")

    @property
    def ambient_dim(self) -> int:
        return self.torus.ambient_dim

    @property
    def dim(self) -> int:
        return self.torus.dim

    def canonical_key(self):
        """Hashable identifier of the coset as a set: the annihilator basis plus
        the character values of the base, which determine the coset uniquely."""
        values = tuple(char_eval(self.base, b) for b in self.torus.annihilator.basis)
        return (self.torus.annihilator, values)

    def same_set(self, other: Coset) -> bool:
        return self.torus == other.torus and membership(self.base, other)

    def sample(self, seeds: Point) -> Point:
        """A member point: base times the subtorus element generated by seeds."""
        return tuple(b * t for b, t in zip(self.base, self.torus.embed(seeds)))


def membership(x: Point, c: Coset) -> bool:
    """Whether x lies on the coset: every annihilator character agrees with the base."""
    if len(x) != c.ambient_dim:
        raise ValueError("dimension mismatch")
    ratio = tuple(a * b.inverse() for a, b in zip(x, c.base))
    return all(char_eval(ratio, b).is_one() for b in c.torus.annihilator.basis)


def coset_image(phi: AffineMonomialMap, c: Coset) -> Coset:
    """The coset phi(c); exact because subtorus images are exactly computable."""
    return Coset(phi.apply(c.base), subtorus_image_under(phi.matrix, c.torus))


def coset_invariant(phi: AffineMonomialMap, c: Coset) -> bool:
    """phi(c) is contained in (hence dense in) c."""
    if restrict_endomorphism(phi.matrix, c.torus) is None:
        return False
    return membership(phi.apply(c.base), c)


def coset_cycle_invariant(phi: AffineMonomialMap, cycle: list[Coset] | tuple[Coset, ...]) -> bool:
    """phi maps each coset in the cycle onto the next (cyclically), so the union is invariant."""
    n = len(cycle)
    if n == 0:
        return False
    for i, c in enumerate(cycle):
        if not coset_image(phi, c).same_set(cycle[(i + 1) % n]):
            return False
    return True
