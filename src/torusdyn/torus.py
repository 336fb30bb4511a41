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

from functools import cached_property
from operator import mul

from .intlinalg import (
    IntMatrix,
    Lattice,
    hermite_normal_form,
    is_saturated,
    left_kernel_saturated,
    right_kernel_matrix,
)
from .kummer import Point, PointLayers, char_eval, from_layers, layers_of
from .record import Record


def monomial_image(m: IntMatrix, x: Point) -> Point:
    """x^m under the exponent-column convention."""
    if m.cols != len(x):
        raise ValueError(f"dimension mismatch: matrix has {m.cols} columns, point has {len(x)}")
    return tuple(char_eval(x, m.row(i)) for i in range(m.rows))


class AffineMonomialMap(Record):
    """x -> gamma * x^matrix on the torus of rank len(gamma)."""

    matrix: IntMatrix
    translation: Point

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("monomial map matrix must be square")
        if self.matrix.rows != len(self.translation):
            raise ValueError("translation dimension does not match matrix")
        if self.det == 0:
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
        """The k-th iterate; its translation is gamma * gamma^A * ... * gamma^(A^(k-1)).

        Computed by :func:`_iterate_layers` on gamma's exponent layers, so it
        multiplies no coordinates; the first iterate is the map itself.
        """
        if k < 1:
            raise ValueError("iterate count must be >= 1")
        if k == 1:
            return self
        den, primes, (layers,) = layers_of([self.translation])
        a, g = _iterate_layers(self.matrix, den, layers, k)
        return AffineMonomialMap(a, from_layers(den, primes, g))

    def orbit(self, x: Point, n: int) -> list[Point]:
        """The first n points x, phi(x), ..., phi^(n-1)(x)."""
        if n < 1:
            raise ValueError("orbit length must be >= 1")
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        out = [tuple(x)]
        for _ in range(n - 1):
            out.append(self.apply(out[-1]))
        return out


def _torsion_step(rows: list[list[int]], den: int, t: list[int], g: list[int]) -> list[int]:
    """The torsion layer of gamma * x^A from x's and gamma's torsion layers, mod den."""
    return [(sum(map(mul, row, t)) + c) % den for row, c in zip(rows, g)]


def _prime_step(rows: list[list[int]], exps: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """The prime layers of gamma * x^A from x's and gamma's prime layers."""
    return [[sum(map(mul, row, e)) + c for row, c in zip(rows, ge)] for e, ge in zip(exps, g)]


def _affine_step(rows: list[list[int]], den: int, x: PointLayers, g: PointLayers) -> PointLayers:
    """gamma * x^A on exponent layers: one integer mat-vec per layer, torsion mod den."""
    return [_torsion_step(rows, den, x[0], g[0])] + _prime_step(rows, x[1:], g[1:])


def _iterate_layers(a: IntMatrix, den: int, g: PointLayers, k: int) -> tuple[IntMatrix, PointLayers]:
    """(A^k, the layers of gamma_k) for the k-th iterate of x -> gamma * x^A, gamma on layers over den.

    Repeated squaring, O(log k) compositions: a map (B, h) after (C, f) is
    (B*C, h + B*f), the torsion layer mod den.  Iterates of one map commute,
    so the order in which the binary digits are combined does not matter.
    """

    def compose(outer, inner):
        (b, h), (c, f) = outer, inner
        return b * c, _affine_step(b.to_rows(), den, f, h)

    result = None
    square = (a, g)
    while True:
        if k & 1:
            result = square if result is None else compose(square, result)
        k >>= 1
        if not k:
            return result
        square = compose(square, square)


class Subtorus(Record):
    """Connected algebraic subgroup, encoded by its saturated annihilator lattice.

    The annihilator holds the characters vanishing on the subgroup; because it
    is saturated and in HNF, equal subtori are equal values.
    """

    ambient_dim: int
    annihilator: Lattice

    def __post_init__(self):
        if self.annihilator.ambient_dim != self.ambient_dim:
            raise ValueError("annihilator lives in the wrong character lattice")
        if not is_saturated(self.annihilator):
            raise ValueError("annihilator must be saturated")

    @staticmethod
    def full(n: int) -> Subtorus:
        return Subtorus(n, Lattice.zero(n))

    @staticmethod
    def trivial(n: int) -> Subtorus:
        return Subtorus(n, Lattice.full(n))

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.annihilator.rank

    @cached_property
    def cochar_basis(self) -> IntMatrix:
        """n x dim integer matrix whose columns span the one-parameter subgroups."""
        return right_kernel_matrix(self.annihilator.basis_matrix())

    @cached_property
    def _cochar_left_inverse(self) -> IntMatrix:
        """W with W * cochar_basis = identity: the top k rows of U in U * V = H, since the
        saturated column lattice of V (n x k) makes its Hermite form H = I_k over zeros."""
        v = self.cochar_basis
        n, k = v.rows, v.cols
        h, u = hermite_normal_form(v)
        if h.entries[: k * k] != IntMatrix.identity(k).entries:
            raise AssertionError("cochar basis is not saturated")
        return IntMatrix(k, n, u.entries[: k * n])

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


class Coset(Record):
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
    """Whether x lies on the coset: x / base lies on its subtorus."""
    return c.torus.contains(tuple(a * b.inverse() for a, b in zip(x, c.base, strict=True)))


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
    images: dict[Subtorus, Subtorus] = {}  # a family's cosets share few subtori: one image each
    for c, nxt in zip(cycle, [*cycle[1:], *cycle[:1]]):
        image = images.get(c.torus)
        if image is None:
            image = images[c.torus] = subtorus_image_under(phi.matrix, c.torus)
        if image != nxt.torus or not membership(phi.apply(c.base), nxt):  # coset_image(phi, c).same_set(nxt)
            return False
    return bool(cycle)
