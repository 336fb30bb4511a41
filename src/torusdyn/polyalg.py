"""Monic integer polynomials: cyclotomic factors and spectral radii.

The two decisions that drive the classifier live here: whether every root of
a monic integer polynomial is a root of unity (decided exactly, by peeling
cyclotomic factors), and a certified two-sided interval for the largest root
modulus (Graeffe root-squaring on exact integer coefficients).

>>> print(cyclotomic(12))
x^4 - x^2 + 1
>>> quasi_unipotence(IntPoly.from_coeffs([1, -2, 1]))   # (x-1)^2
(1, 2)
>>> quasi_unipotence(IntPoly.from_coeffs([1, -3, 1])) is None
True
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import OracleError
from .kummer import factorize
from .record import Record


def _trim(cs: list) -> tuple:
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return tuple(cs[:end])


def _raw_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _raw_divmod_monic(num, den):
    """Divide by a monic divisor; exact integer arithmetic throughout."""
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        t = num[shift + len(den) - 1]
        if t:
            q[shift] = t
            for j, cd in enumerate(den):
                num[shift + j] -= t * cd
    return _trim(q), _trim(num)


class IntPoly(Record):
    """Monic polynomial over the integers, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("IntPoly must be monic")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("IntPoly coefficients must be integers")

    @staticmethod
    def from_coeffs(coeffs) -> IntPoly:
        return IntPoly(tuple(int(c) for c in coeffs))

    @staticmethod
    def one() -> IntPoly:
        return IntPoly((1,))

    @staticmethod
    def x_power_minus_one(n: int) -> IntPoly:
        return IntPoly((-1,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: IntPoly) -> IntPoly:
        return IntPoly(_raw_mul(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> IntPoly:
        if k < 0:
            raise ValueError("negative polynomial power")
        acc = IntPoly.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def try_divide(self, divisor: IntPoly) -> IntPoly | None:
        """Exact quotient self/divisor, or None when the division has remainder."""
        if divisor.degree > self.degree:
            return None
        q, r = _raw_divmod_monic(self.coeffs, divisor.coeffs)
        return IntPoly(q) if not r else None

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            mag = abs(c)
            term = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            coeff = str(mag) if (i == 0 or mag != 1) else ""
            parts.append(sign + coeff + term)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"IntPoly('{self}')"


def euler_phi(d: int) -> int:
    out = 1
    for p, m in factorize(d).items():
        out *= (p - 1) * p ** (m - 1)
    return out


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = IntPoly.x_power_minus_one(d)
    for e in divisors(d):
        if e < d:
            q = poly.try_divide(cyclotomic(e))
            assert q is not None
            poly = q
    return poly


def cyclotomic_part(p: IntPoly) -> tuple[tuple[tuple[int, int], ...], IntPoly]:
    """Peel every cyclotomic factor off p.

    Returns ((order, multiplicity), ...) sorted by order, and the remainder,
    which has no root of unity among its roots (zero roots, if any, stay in
    the remainder as a power of x).  The product of all returned cyclotomic
    factors times the remainder reconstructs p exactly.

    The candidate orders d <= 2*deg(p)^2 with euler_phi(d) <= deg(p) form a
    complete set since euler_phi(d) >= sqrt(d/2).
    """
    n = p.degree
    factors: list[tuple[int, int]] = []
    rem = p
    for d in range(1, 2 * n * n + 1):
        if euler_phi(d) > rem.degree:
            continue
        mult = 0
        while True:
            q = rem.try_divide(cyclotomic(d))
            if q is None:
                break
            rem = q
            mult += 1
        if mult:
            factors.append((d, mult))
        if rem.degree == 0:
            break
    return tuple(factors), rem


def quasi_unipotence(p: IntPoly, part: tuple | None = None) -> tuple[int, int] | None:
    """(l, m) with p dividing (x^l - 1)^m, or None when some root is not a root of unity.

    l is the lcm of the cyclotomic orders in p and m the largest multiplicity.
    ``part`` is p's cyclotomic_part when the caller already has it.
    """
    factors, rem = part or cyclotomic_part(p)
    if not rem.is_one():
        return None
    ell = math.lcm(*(d for d, _ in factors))
    m = max((mult for _, mult in factors), default=1)
    return (ell, m)


def _log2_int(c: int) -> float:
    """log2 of a positive integer, accurate to ~1e-15 regardless of size."""
    nb = c.bit_length()
    if nb <= 53:
        return math.log2(c)
    return (nb - 53) + math.log2(c >> (nb - 53))


def _graeffe_step(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Monic q with q(x^2) = +-p(x)p(-x); the roots of q are the squares."""
    n = len(coeffs) - 1
    alt = tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))
    full = _raw_mul(coeffs, alt)
    sign = 1 if n % 2 == 0 else -1
    out = [sign * (full[2 * m] if 2 * m < len(full) else 0) for m in range(n + 1)]
    assert out[-1] == 1
    return tuple(out)


_LOG_SLOP = 1e-9  # log2 head-room absorbing all float rounding in the final rooting

_MAX_GRAEFFE = 26


def spectral_radius(p: IntPoly, rel_tol) -> tuple[Fraction, Fraction]:
    """Certified interval [lo, hi] containing the largest root modulus of p.

    Exact point answers take precedence: when every root is a root of unity
    the interval is exactly [1, 1] (and [0, 0] for pure powers of x).
    Otherwise Graeffe root-squaring runs on exact integer coefficients until
    the certified sandwich (Fujiwara-style upper bound, binomial lower bound)
    is narrower than rel_tol * hi.
    """
    if p.degree < 1:
        raise ValueError("spectral_radius requires degree >= 1")
    tol = Fraction(rel_tol) if not isinstance(rel_tol, Fraction) else rel_tol
    if tol <= 0:
        raise ValueError("rel_tol must be positive")
    # zero roots never dominate; strip them
    v = 0
    cs = p.coeffs
    while cs[v] == 0:
        v += 1
    if v == p.degree:
        return (Fraction(0), Fraction(0))
    p0 = IntPoly(cs[v:])
    if quasi_unipotence(p0) is not None:
        return (Fraction(1), Fraction(1))

    n = p0.degree
    # any sandwich meets tol >= 1, after one squaring; from tol = 2^n on, this target would be <= 0
    target = math.ceil(math.log2(1.0 / float(tol))) + n if tol < 2**n else 1
    k = max(1, math.ceil(math.log2(target)))
    q = p0.coeffs
    for _ in range(k):
        q = _graeffe_step(q)
    while True:
        K = 1 << k
        lo_log = hi_log = None
        for j in range(1, n + 1):
            cj = abs(q[n - j])
            if cj == 0:
                continue
            lj = _log2_int(cj)
            lo_j = (lj - math.log2(math.comb(n, j))) / j
            hi_j = lj / j
            lo_log = lo_j if lo_log is None else max(lo_log, lo_j)
            hi_log = hi_j if hi_log is None else max(hi_log, hi_j)
        assert lo_log is not None  # q(0) != 0
        try:
            lo = Fraction(2.0 ** (lo_log / K - _LOG_SLOP))
            hi = Fraction(2.0 ** ((1.0 + hi_log) / K + _LOG_SLOP))
        except OverflowError:
            raise OracleError(f"spectral radius near 2^{lo_log / K:.0f} is beyond the float range") from None
        if hi - lo <= tol * hi:
            return (lo, hi)
        if k >= _MAX_GRAEFFE:
            raise OracleError(f"rel_tol {rel_tol} unreachable within {_MAX_GRAEFFE} Graeffe steps")
        q = _graeffe_step(q)
        k += 1
