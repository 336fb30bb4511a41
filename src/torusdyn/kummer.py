"""Exact coordinates: roots of unity times rational powers of primes.

A :class:`KummerNumber` represents an element of the multiplicative group
generated by all roots of unity and all rational powers of prime numbers,

    zeta * 2^(e_2) * 3^(e_3) * 5^(e_5) * ...

with ``zeta = exp(2*pi*i*t)`` for a rational ``t in [0, 1)`` and finitely many
nonzero rational exponents ``e_p``.  This group is divisible, so every n-th
root exists, which is what lets translation splittings and isogeny preimages
stay exactly representable.

Values are immutable and canonical: equal group elements compare equal.
The entry points (the constructor, :meth:`KummerNumber.build`, the parser)
validate or canonicalize their input.  The closed operations ``*``, ``**``,
``inverse`` and :func:`char_eval` start from canonical values, so they build
canonical results directly (torsion wrapped into [0, 1), zero exponents
dropped, primes sorted) without checking them again.

>>> two = KummerNumber.from_rational(2)
>>> three = KummerNumber.from_rational(3)
>>> print(two * three)
6
>>> print(two.nth_root(2))
2^(1/2)
>>> parse_kummer("zeta(3)^2 * 2/5") == parse_kummer("2/5 * zeta(3)^2")
True
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, cycle
from operator import itemgetter, sub
from typing import Iterable, Mapping, Sequence

from .errors import ParseError
from .record import Record

Point = tuple["KummerNumber", ...]


# Trial division runs up to this bound; a larger cofactor must be prime.
TRIAL_DIVISION_BOUND = 10**6
# Miller-Rabin with the twelve prime bases up to 37 is exact below this bound.
MILLER_RABIN_LIMIT = 318_665_857_834_031_151_167_461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer.

    Trial division finds every prime factor up to TRIAL_DIVISION_BOUND; what
    is left must be 1 or a prime that Miller-Rabin decides exactly.  Any
    other cofactor raises ParseError.
    """
    if n <= 0:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        # past the loop either d * d > n (so n is prime) or n has no factor <= the bound
        if d * d <= n and (n >= MILLER_RABIN_LIMIT or not is_prime(n)):
            raise ParseError(
                f"cannot factor {n}: no prime factor up to {TRIAL_DIVISION_BOUND} and not a prime "
                f"that Miller-Rabin decides exactly (below {MILLER_RABIN_LIMIT})"
            )
        out[n] = out.get(n, 0) + 1
    return out


class KummerNumber(Record):
    """A root of unity times a product of rational prime powers.

    ``torsion`` is the reduced fraction t in [0,1) encoding exp(2*pi*i*t);
    ``primes`` maps each prime with a nonzero exponent to that exponent,
    stored as a sorted tuple of (prime, exponent) pairs so values hash.
    """

    torsion: Fraction
    primes: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not (0 <= self.torsion < 1):
            raise ValueError(f"torsion exponent {self.torsion} not reduced into [0,1)")
        for p, e in self.primes:
            if e == 0:
                raise ValueError("zero prime exponent stored")
        if [p for p, _ in self.primes] != sorted({p for p, _ in self.primes}):
            raise ValueError("prime support not sorted/distinct")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(torsion: Fraction | int, primes: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]) -> KummerNumber:
        """Canonicalize and construct: torsion mod 1, zero exponents dropped."""
        t = Fraction(torsion) % 1
        items = primes.items() if isinstance(primes, Mapping) else primes
        merged: dict[int, Fraction] = {}
        for p, e in items:
            merged[p] = merged.get(p, Fraction(0)) + Fraction(e)
        cleaned = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
        return KummerNumber(t, cleaned)

    @staticmethod
    def one() -> KummerNumber:
        return _ONE

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> KummerNumber:
        """exp(2*pi*i*power/order)."""
        if order < 1:
            raise ValueError("order must be positive")
        return KummerNumber.build(Fraction(power, order), {})

    @staticmethod
    def from_rational(q: Fraction | int) -> KummerNumber:
        """Embed a nonzero rational; the sign lands in the torsion part."""
        q = Fraction(q)
        if q == 0:
            raise ValueError("0 is not invertible")
        t = Fraction(0) if q > 0 else Fraction(1, 2)
        num, den = factorize(abs(q.numerator)), factorize(q.denominator)
        return KummerNumber.build(t, [*num.items(), *((p, -m) for p, m in den.items())])

    # -- group operations --------------------------------------------------

    def __mul__(self, other: KummerNumber) -> KummerNumber:
        t = self.torsion
        if other.torsion:
            t += other.torsion
            if t >= 1:
                t -= 1
        if not other.primes:
            return _canonical(t, self.primes)
        if not self.primes:
            return _canonical(t, other.primes)
        exps = dict(self.primes)
        for p, e in other.primes:
            if p not in exps:
                exps[p] = e
            elif s := exps[p] + e:
                exps[p] = s
            else:
                del exps[p]
        return _canonical(t, tuple(sorted(exps.items())))

    def inverse(self) -> KummerNumber:
        t = self.torsion
        return _canonical(1 - t if t else t, tuple((p, -e) for p, e in self.primes))

    def __pow__(self, k: int) -> KummerNumber:
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _ONE
        return _canonical(self.torsion * k % 1, tuple((p, e * k) for p, e in self.primes))

    def nth_root(self, n: int) -> KummerNumber:
        """The principal n-th root: every exponent divided by n.

        ``x.nth_root(n) ** n == x`` always holds; other roots differ by a
        root of unity in the kernel and are not produced.
        """
        if n < 1:
            raise ValueError("root order must be >= 1")
        return KummerNumber.build(self.torsion / n, {p: e / n for p, e in self.primes})

    # -- predicates --------------------------------------------------------

    def is_one(self) -> bool:
        return self.torsion == 0 and not self.primes

    def is_torsion(self) -> bool:
        return not self.primes

    def torsion_order(self) -> int | None:
        """Multiplicative order when torsion, else None."""
        if not self.is_torsion():
            return None
        return self.torsion.denominator

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text: ``zeta(m)^k``, then the integer prime powers folded
        into ``n`` or ``n/d``, then ``p^(a/b)`` for each fractional exponent.

        When n or d would pass _FOLD_LIMIT, every prime power prints on its
        own instead (``p^k``, ``p^-k``, ``p^(a/b)``), in prime order.
        """
        parts: list[str] = []
        if self.torsion != 0:
            m, k = self.torsion.denominator, self.torsion.numerator
            parts.append(f"zeta({m})" if k == 1 else f"zeta({m})^{k}")
        ints = [(p, e.numerator) for p, e in self.primes if e.denominator == 1]
        num = _fold((p, k) for p, k in ints if k > 0)
        den = _fold((p, -k) for p, k in ints if k < 0)
        if num is None or den is None:
            parts.extend(f"{p}^{e}" if e.denominator == 1 else f"{p}^({e})" for p, e in self.primes)
        else:
            if num != 1 or den != 1:
                parts.append(str(num) if den == 1 else f"{num}/{den}")
            parts.extend(f"{p}^({e})" for p, e in self.primes if e.denominator != 1)
        return " * ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"KummerNumber({str(self)!r})"


# CPython's default limit on the digits of an int -> str conversion.
PRINT_DIGIT_LIMIT = 4300
# Folded integers stay below this bound.
_FOLD_LIMIT = 10**PRINT_DIGIT_LIMIT


def printable(x: KummerNumber) -> bool:
    """Whether every integer in str(x) has at most PRINT_DIGIT_LIMIT digits.

    Folded products are kept within the limit by __str__ itself, so only the
    torsion and the exponents can pass it.
    """
    fractions = (x.torsion, *(e for _, e in x.primes))
    return all(abs(f.numerator) < _FOLD_LIMIT and f.denominator < _FOLD_LIMIT for f in fractions)


def _fold(powers: Iterable[tuple[int, int]]) -> int | None:
    """The product of the powers p^k (k >= 1), or None once it reaches _FOLD_LIMIT."""
    acc = 1
    for p, k in powers:
        # p^k >= 2^(k * (bits(p) - 1)): rules out a huge power before computing it
        if k * (p.bit_length() - 1) >= _FOLD_LIMIT.bit_length():
            return None
        acc *= p**k
        if acc >= _FOLD_LIMIT:
            return None
    return acc


def _canonical(torsion: Fraction, primes: tuple[tuple[int, Fraction], ...]) -> KummerNumber:
    """A value from parts already in canonical form, without the constructor's checks."""
    x = object.__new__(KummerNumber)
    x.__dict__.update(torsion=torsion, primes=primes)
    return x


_ZERO = Fraction(0)
_ONE = KummerNumber(_ZERO, ())


def char_eval(point: Iterable[KummerNumber], exponents: Iterable[int]) -> KummerNumber:
    """Evaluate the monomial character x -> prod_i x_i^(b_i) at a point.

    The torsion and every prime exponent are summed over all coordinates
    first and reduced once.
    """
    xs, bs = tuple(point), tuple(exponents)
    if len(xs) != len(bs):
        raise ValueError(f"dimension mismatch: point {len(xs)}, character {len(bs)}")
    # running sums as (numerator, denominator) integer pairs
    tn, td = 0, 1
    sums: dict[int, tuple[int, int]] = {}
    for x, b in zip(xs, bs):
        if b:
            t = x.torsion
            if t:
                n, d = t.numerator * b, t.denominator
                tn, td = (tn + n, td) if d == td else (tn * d + n * td, td * d)
            for p, e in x.primes:
                n, d = e.numerator * b, e.denominator
                s = sums.get(p)
                if s is None:
                    sums[p] = (n, d)
                elif s[1] == d:
                    sums[p] = (s[0] + n, d)
                else:
                    sums[p] = (s[0] * d + n * s[1], s[1] * d)
    primes = tuple(sorted((p, Fraction(n, d)) for p, (n, d) in sums.items() if n))
    return _canonical(Fraction(tn % td, td) if tn % td else _ZERO, primes)


# -- exponent layers ----------------------------------------------------------

# One point's layers: its torsion vector, then one exponent vector per prime,
# all integers over a common denominator.
PointLayers = list[list[int]]


def layers_of(points: Sequence[Point]) -> tuple[int, tuple[int, ...], list[PointLayers]]:
    """The points as integer exponent vectors over one common denominator.

    Returns ``(den, primes, layers)`` with ``den`` the lcm of every torsion
    and exponent denominator and ``primes`` the sorted union of the prime
    supports.  ``layers[i][0]`` is the torsion vector of ``points[i]`` times
    ``den`` (entries in [0, den)) and ``layers[i][1 + k]`` its exponent
    vector of ``primes[k]`` times ``den``.  Multiplying points adds layers
    (the torsion one mod ``den``) and x -> x^A is one integer mat-vec per
    layer, which never grows ``den``.  :func:`from_layers` goes back.
    """
    dens: set[int] = set()
    support: set[int] = set()
    for pt in points:
        for x in pt:
            dens.add(x.torsion.denominator)
            for p, e in x.primes:
                support.add(p)
                dens.add(e.denominator)
    den = math.lcm(*dens)
    primes = tuple(sorted(support))
    row = {p: k for k, p in enumerate(primes, 1)}
    out = []
    for pt in points:
        vecs = [[0] * len(pt) for _ in range(len(primes) + 1)]
        tors = vecs[0]
        for j, x in enumerate(pt):
            if x.torsion:
                tors[j] = x.torsion.numerator * (den // x.torsion.denominator)
            for p, e in x.primes:
                vecs[row[p]][j] = e.numerator * (den // e.denominator)
        out.append(vecs)
    return den, primes, out


def from_layers(den: int, primes: Sequence[int], layers: PointLayers) -> Point:
    """The canonical point with these layers (the torsion layer is read mod den)."""
    tors, *exps = layers
    return tuple(
        _canonical(Fraction(t % den, den), tuple((p, Fraction(v[j], den)) for p, v in zip(primes, exps) if v[j]))
        for j, t in enumerate(tors)
    )


# The density test's bounds on what layer_orders measures of a shifted sample.
# Above either, it is UNDECIDED before its prime scan: the torsion lcm (q = 1
# mod it, and q - 1 is trial-divided) and the radical cost (the product of the
# N_p, about the primes scanned per admissible one).
TORSION_LCM_CAP = 1_000_000
RADICAL_COST_CAP = 4000


def layer_orders(
    den: int, primes: Sequence[int], points: Sequence[PointLayers], anchor: PointLayers | None = None
) -> tuple[int, dict[int, int]]:
    """Over every coordinate of the layered points less the anchor's layers, if
    given: the lcm of the torsion orders, and for each prime whose layer is
    nonzero the lcm of its exponent denominators.  Each is den // gcd(den, g),
    g the gcd of that layer's entries, read as one stream with no shifted copy."""
    gs = []
    for k in range(len(primes) + 1):
        entries = chain.from_iterable(map(itemgetter(k), points))
        if anchor is not None:
            entries = map(sub, entries, cycle(anchor[k]))
        gs.append(math.gcd(*entries))
    return den // math.gcd(den, gs[0]), {p: den // math.gcd(den, g) for p, g in zip(primes, gs[1:]) if g}


# -- parsing ----------------------------------------------------------------

_ZETA_RE = re.compile(r"^zeta\((\d+)\)(?:\^(\(?-?\d+\)?))?$")
_POWER_RE = re.compile(r"^(\d+)\^(?:\((-?\d+)(?:/(\d+))?\)|(-?\d+))$")
_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def _parse_factor(tok: str) -> KummerNumber:
    m = _ZETA_RE.match(tok)
    if m:
        order = int(m.group(1))
        if order < 1:
            raise ParseError(f"bad root-of-unity order in {tok!r}")
        k = int(m.group(2).strip("()")) if m.group(2) else 1
        return KummerNumber.root_of_unity(order, k)
    m = _POWER_RE.match(tok)
    if m:
        base = int(m.group(1))
        if m.group(4) is not None:
            exp = Fraction(int(m.group(4)))
        else:
            den = int(m.group(3) or 1)
            if den == 0:
                raise ParseError(f"zero exponent denominator in {tok!r}")
            exp = Fraction(int(m.group(2)), den)
        if base < 2:
            raise ParseError(f"power base must be >= 2 in {tok!r}")
        # non-prime bases distribute over their prime factorization
        return KummerNumber.build(0, {p: exp * mult for p, mult in factorize(base).items()})
    m = _RATIONAL_RE.match(tok)
    if m:
        num = int(m.group(1))
        den = int(m.group(2) or 1)
        if num == 0 or den == 0:
            raise ParseError(f"zero is not a group element: {tok!r}")
        return KummerNumber.from_rational(Fraction(num, den))
    raise ParseError(f"cannot parse coordinate factor {tok!r}")


def parse_kummer(text: str) -> KummerNumber:
    """Parse the ``zeta(m)^k * n/d * p^(a/b)`` coordinate syntax.

    A single leading ``-`` is accepted and folds into the torsion part
    (``-1 == zeta(2)``).  The canonical printer round-trips exactly:
    ``parse_kummer(str(x)) == x``.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty coordinate")
    acc = KummerNumber.one()
    if s.startswith("-"):
        acc = KummerNumber.root_of_unity(2)
        s = s[1:].strip()
    for tok in s.split("*"):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"empty factor in {text!r}")
        try:
            acc = acc * _parse_factor(tok)
        except ParseError:
            raise
        except ValueError as exc:  # an integer past CPython's int-from-str digit limit
            raise ParseError(f"cannot parse coordinate factor: {exc}") from exc
    return acc


def parse_point(coords: Iterable[str]) -> Point:
    return tuple(parse_kummer(c) for c in coords)


def format_point(point: Iterable[KummerNumber]) -> tuple[str, ...]:
    return tuple(str(x) for x in point)


def one_point(n: int) -> Point:
    return (KummerNumber.one(),) * n
