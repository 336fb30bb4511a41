"""The benchmark's own exact arithmetic, written apart from torusdyn.

Points are handled as exponent layers: a coordinate zeta^t * prod p^(e_p) is
the pair (t, {p: e_p}) with t a Fraction in [0, 1).  A monomial map acts on
these layers linearly, so every check here reduces to integer and Fraction
linear algebra.  Nothing in this module imports torusdyn.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

Coord = tuple[Fraction, dict]  # (torsion in [0,1), {prime: exponent})
Point = tuple[Coord, ...]

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1))]


# -- coordinates ----------------------------------------------------------------


def factor(n: int) -> dict[int, int]:
    """Factor a positive integer over the primes below 1000; a cofactor above that stays whole."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if n == 1:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def coord(torsion=Fraction(0), primes=None) -> Coord:
    exps = {p: Fraction(e) for p, e in (primes or {}).items() if e != 0}
    return (Fraction(torsion) % 1, exps)


def coord_str(c: Coord) -> str:
    """Text in the torusdyn coordinate syntax, e.g. ``zeta(6)^5 * 2^(1/2) * 3^(-1)``."""
    t, exps = c
    parts = []
    if t:
        parts.append(f"zeta({t.denominator})^{t.numerator}")
    parts.extend(f"{p}^({e})" for p, e in sorted(exps.items()))
    return " * ".join(parts) if parts else "1"


_ZETA = re.compile(r"^zeta\((\d+)\)(?:\^\(?(-?\d+)\)?)?$")
_POWER = re.compile(r"^(\d+)\^(?:\((-?\d+)(?:/(\d+))?\)|(-?\d+))$")
_RATIONAL = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_coord(text: str) -> Coord:
    """Parse one printed coordinate (the subset of the syntax the printer emits)."""
    s = text.strip()
    t = Fraction(0)
    exps: dict[int, Fraction] = {}

    def add(p, e):
        exps[p] = exps.get(p, Fraction(0)) + e

    if s.startswith("-"):
        t += Fraction(1, 2)
        s = s[1:].strip()
    for tok in (x.strip() for x in s.split("*")):
        if m := _ZETA.match(tok):
            t += Fraction(int(m.group(2) or 1), int(m.group(1)))
        elif m := _POWER.match(tok):
            e = Fraction(int(m.group(4))) if m.group(4) else Fraction(int(m.group(2)), int(m.group(3) or 1))
            for p, k in factor(int(m.group(1))).items():
                add(p, e * k)
        elif m := _RATIONAL.match(tok):
            for p, k in factor(int(m.group(1))).items():
                add(p, Fraction(k))
            for p, k in factor(int(m.group(2) or 1)).items():
                add(p, Fraction(-k))
        else:
            raise ValueError(f"unparseable coordinate factor {tok!r}")
    return coord(t, exps)


def parse_point(texts) -> Point:
    return tuple(parse_coord(s) for s in texts)


def from_kummer(k) -> Coord:
    """Read a torusdyn KummerNumber's stored exponents (no torusdyn arithmetic)."""
    return coord(k.torsion, dict(k.primes))


def point_from_kummer(pt) -> Point:
    return tuple(from_kummer(k) for k in pt)


def coord_eq(a: Coord, b: Coord) -> bool:
    return a[0] == b[0] and a[1] == b[1]


def points_eq(x: Point, y: Point) -> bool:
    return len(x) == len(y) and all(coord_eq(a, b) for a, b in zip(x, y))


def char_value(b, x: Point) -> Coord:
    """chi_b(x) = prod x_j^(b_j), on exponent layers."""
    t = sum((bj * c[0] for bj, c in zip(b, x)), Fraction(0))
    exps: dict[int, Fraction] = {}
    for bj, c in zip(b, x):
        if bj:
            for p, e in c[1].items():
                exps[p] = exps.get(p, Fraction(0)) + bj * e
    return coord(t, exps)


def is_one(c: Coord) -> bool:
    return c[0] == 0 and not c[1]


def mul(x: Point, y: Point) -> Point:
    return tuple(char_value((1, 1), (a, b)) for a, b in zip(x, y))


def apply(a, gamma: Point, x: Point) -> Point:
    """gamma * x^A with (x^A)_i = prod_j x_j^(A[i][j])."""
    return mul(gamma, tuple(char_value(row, x) for row in a))


def one(n: int) -> Point:
    return tuple(coord() for _ in range(n))


def iterate_translation(a, gamma: Point, ell: int) -> Point:
    """gamma_l, the translation of the l-th iterate: gamma * gamma^A * ... * gamma^(A^(l-1))."""
    x = one(len(gamma))
    for _ in range(ell):
        x = apply(a, gamma, x)
    return x


def orbit(a, gamma: Point, x: Point, length: int) -> list[Point]:
    out = [x]
    for _ in range(length - 1):
        out.append(apply(a, gamma, out[-1]))
    return out


class IntLayers:
    """Exponent layers of a set of points as integers over one common denominator D.

    A coordinate becomes (torsion * D mod D, (e_p * D for each prime p)), so
    character values and monomial maps are integer arithmetic.
    """

    def __init__(self, points):
        coords = [c for pt in points for c in pt]
        self.primes = sorted({p for c in coords for p in c[1]})
        self.d = math.lcm(1, *(c[0].denominator for c in coords), *(e.denominator for c in coords for e in c[1].values()))

    def point(self, pt):
        d = self.d
        return [(c[0].numerator * (d // c[0].denominator) % d, tuple(int(c[1].get(p, 0) * d) for p in self.primes)) for c in pt]

    def char(self, b, x):
        t = sum(bj * c[0] for bj, c in zip(b, x)) % self.d
        return t, tuple(sum(bj * c[1][k] for bj, c in zip(b, x)) for k in range(len(self.primes)))

    def apply(self, a, gamma, x):
        """gamma * x^A on integer layers."""
        out = []
        for row, g in zip(a, gamma):
            t, e = self.char(row, x)
            out.append(((t + g[0]) % self.d, tuple(u + v for u, v in zip(e, g[1]))))
        return out


# -- integer matrices -------------------------------------------------------------


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def matpow(a, k: int) -> list[list[int]]:
    out = identity(len(a))
    for _ in range(k):
        out = matmul(out, a)
    return out


def matsub(a, b) -> list[list[int]]:
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def vecmat(v, a) -> list:
    return [sum(v[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0]))]


def matvec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det(a) -> int:
    """Bareiss fraction-free determinant."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def charpoly(a) -> list[int]:
    """det(xI - A), coefficients lowest degree first (Faddeev-LeVerrier)."""
    n = len(a)
    high = [1]
    bk = identity(n)
    for k in range(1, n + 1):
        mk = matmul(a, bk)
        ck = -sum(mk[i][i] for i in range(n)) // k
        high.append(ck)
        bk = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return high[::-1]


def poly_rem(num: list[int], den: list[int]) -> list[int]:
    """Remainder of num by a monic den (lowest degree first)."""
    r = list(num)
    while len(r) >= len(den):
        lead = r[-1]
        shift = len(r) - len(den)
        for i, c in enumerate(den):
            r[shift + i] -= lead * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


# Cyclotomic polynomials Phi_d with euler_phi(d) <= 3, lowest degree first.
LOW_CYCLOTOMICS = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}


def has_low_cyclotomic_factor(a) -> bool:
    """Whether charpoly(A) has a root of unity among its roots, for n <= 3.

    For degree <= 3 every root on the unit circle is a root of unity of
    order 1, 2, 3, 4 or 6 (a conjugate pair on the circle has an integer
    trace in [-2, 2]).
    """
    assert len(a) <= 3
    cp = charpoly(a)
    return any(not poly_rem(cp, phi) for phi in LOW_CYCLOTOMICS.values())


# -- rational linear algebra --------------------------------------------------------


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    m = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    ncols = len(m[0]) if m else 0
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(j)
        rank += 1
    return m[:rank], pivots


def rank(rows) -> int:
    return len(rref(rows)[0]) if rows else 0


def left_null_space(a) -> list[list[Fraction]]:
    """Basis of {b : b*A = 0} over Q."""
    if not a:
        return []
    cols = len(a[0])
    at = [[a[i][j] for i in range(len(a))] for j in range(cols)]  # A^T, so b*A = 0 <=> A^T b = 0
    red, pivots = rref(at)
    n = len(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, pj in zip(red, pivots):
            v[pj] = -r[f]
        basis.append(v)
    return basis


def in_row_space(v, rows) -> bool:
    return rank(list(rows) + [v]) == rank(rows)


def fibration_exists(a, gamma: Point, ell: int) -> bool:
    """Whether some nonzero character B has B(A^l - I) = 0 and chi_B(gamma_l) = 1.

    Over Q the prime layers are linear conditions on B; the torsion layer
    is then met by a multiple of any rational solution.  Any iterate that
    fixes a character divides into l = lcm of the cyclotomic orders, so
    this one iterate decides every smaller one too.
    """
    n = len(a)
    kernel = left_null_space(matsub(matpow(a, ell), identity(n)))
    if not kernel:
        return False
    g = iterate_translation(a, gamma, ell)
    primes = sorted({p for c in g for p in c[1]})
    layer = [[sum(k[j] * g[j][1].get(p, 0) for j in range(n)) for p in primes] for k in kernel]
    return not primes or rank(layer) < len(kernel)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- torsion orbits -------------------------------------------------------------------


def orbit_period_mod(a, u, d: int) -> int:
    """Period of u under u -> A u mod d."""
    start = tuple(x % d for x in u)
    v = tuple(x % d for x in matvec(a, start))
    period = 1
    while v != start:
        v = tuple(x % d for x in matvec(a, v))
        period += 1
    return period


def predicted_coset_images(a, budget: int = 40, torsion_cap: int = 50, stop_above: int | None = None) -> int:
    """Coset-image count of the invariant-family search for A with no root of unity as eigenvalue.

    Such an A has trivial unipotent part, so each family is one orbit of a
    torsion point of exact order d under A mod d (d coprime to det A), and
    its cycle costs one coset image per orbit element.  Families come in
    order of increasing d until the budget is met.  With stop_above the
    count stops early once it exceeds that value.
    """
    n = len(a)
    dt = abs(det(a))
    families = total = 0
    for d in range(1, torsion_cap + 1):
        if math.gcd(d, dt) != 1:
            continue
        seen = set()
        for u in itertools.product(range(d), repeat=n):
            if u in seen or math.gcd(math.gcd(*u), d) != 1:
                continue
            orb = [u]
            v = tuple(x % d for x in matvec(a, u))
            while v != u:
                orb.append(v)
                v = tuple(x % d for x in matvec(a, v))
            seen.update(orb)
            total += len(orb)
            families += 1
            if families >= budget or (stop_above is not None and total > stop_above):
                return total
    return total

