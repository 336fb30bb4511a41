"""Shared generators for randomized exact tests.

Everything is seeded; no test depends on global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from torusdyn.intlinalg import IntMatrix
from torusdyn.kummer import KummerNumber
from torusdyn.torus import AffineMonomialMap


def rand_kummer(
    rng: random.Random,
    torsion_orders=(1, 2, 3, 4, 6),
    primes=(2, 3, 5),
    denoms=(1, 1, 2, 3),
) -> KummerNumber:
    m = rng.choice(torsion_orders)
    t = Fraction(rng.randrange(m), m)
    exps = {}
    for p in primes:
        if rng.random() < 0.6:
            e = Fraction(rng.randint(-2, 2), rng.choice(denoms))
            if e:
                exps[p] = e
    return KummerNumber.build(t, exps)


def prime_power(p: int, exponent: Fraction | int) -> KummerNumber:
    """p^exponent for a prime p."""
    return KummerNumber.build(0, {p: Fraction(exponent)})


def rand_point(rng: random.Random, n: int, **kw):
    return tuple(rand_kummer(rng, **kw) for _ in range(n))


def rand_rational_point(rng: random.Random, n: int):
    """Torsion-free coordinates (products of small prime powers)."""
    return tuple(
        KummerNumber.build(0, {p: Fraction(rng.randint(-2, 2)) for p in (2, 3, 5) if rng.random() < 0.5})
        for _ in range(n)
    )


def rand_matrix(rng: random.Random, n: int, bound: int = 3) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng: random.Random, n: int, bound: int = 3, det_cap: int | None = None) -> IntMatrix:
    while True:
        m = rand_matrix(rng, n, bound)
        d = m.det()
        if d == 0:
            continue
        if det_cap is not None and abs(d) > det_cap:
            continue
        return m


def rand_unimodular_pair(rng: random.Random, n: int, shears: int = 6):
    """(W, W_inverse) as products of elementary shears."""
    w = IntMatrix.identity(n)
    winv = IntMatrix.identity(n)
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        e = IntMatrix.from_rows(
            [[1 if a == b else (k if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
        )
        einv = IntMatrix.from_rows(
            [[1 if a == b else (-k if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
        )
        w = w * e
        winv = einv * winv
    return w, winv


def rand_unipotent_automorphism(rng: random.Random, n: int) -> IntMatrix:
    """Random unimodular conjugate of an upper-triangular unipotent matrix."""
    upper = IntMatrix.from_rows(
        [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    )
    w, winv = rand_unimodular_pair(rng, n)
    a = w * upper * winv
    assert abs(a.det()) == 1
    return a


def rand_map(rng: random.Random, n: int, **point_kw) -> AffineMonomialMap:
    return AffineMonomialMap(rand_invertible(rng, n), rand_point(rng, n, **point_kw))
