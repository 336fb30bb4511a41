import math
import random
from fractions import Fraction

import pytest

from torusdyn.polyalg import (
    IntPoly,
    cyclotomic,
    cyclotomic_part,
    divisors,
    euler_phi,
    quasi_unipotence,
    spectral_radius,
)


def test_intpoly_basics():
    p = IntPoly.from_coeffs([1, -3, 1])
    assert p.degree == 2 and p(0) == 1 and p(3) == 1
    assert str(p) == "x^2 - 3x + 1"
    assert p * IntPoly.one() == p
    with pytest.raises(ValueError):
        IntPoly.from_coeffs([1, 2])  # not monic
    q = IntPoly.from_coeffs([-1, 1])
    assert (p * q).try_divide(q) == p
    assert p.try_divide(q) is None


def test_from_coeffs_refuses_coefficients_that_are_not_integers():
    # a Fraction, float or str coefficient raises instead of being truncated or parsed
    for bad in (Fraction(1, 2), Fraction(2), 2.7, 2.0, "3"):
        with pytest.raises(TypeError):
            IntPoly.from_coeffs([bad, 1])
    p = IntPoly.from_coeffs([True, 1])
    assert p == IntPoly.from_coeffs([1, 1]) and type(p.coeffs[0]) is int


def test_cyclotomic_small_values():
    expect = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
        12: [1, 0, -1, 0, 1],
    }
    for d, coeffs in expect.items():
        assert cyclotomic(d) == IntPoly.from_coeffs(coeffs)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = IntPoly.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == IntPoly.x_power_minus_one(n)


def test_cyclotomic_degree_is_phi():
    for d in range(1, 60):
        assert cyclotomic(d).degree == euler_phi(d)


def test_cyclotomic_part_examples():
    factors, rem = cyclotomic_part(IntPoly.from_coeffs([1, -2, 1]))
    assert factors == ((1, 2),) and rem.is_one()
    factors, rem = cyclotomic_part(IntPoly.from_coeffs([1, -3, 1]))
    assert factors == () and rem == IntPoly.from_coeffs([1, -3, 1])
    factors, rem = cyclotomic_part(IntPoly.from_coeffs([-1, 1]) * IntPoly.from_coeffs([-2, 1]))
    assert factors == ((1, 1),) and rem == IntPoly.from_coeffs([-2, 1])


def test_cyclotomic_part_reconstruction():
    rng = random.Random(300)
    for _ in range(80):
        p = IntPoly.one()
        for _ in range(rng.randint(0, 3)):
            p = p * cyclotomic(rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))
        if rng.random() < 0.7:
            p = p * IntPoly.from_coeffs([rng.choice([-3, -2, 2, 3, 5]), rng.randint(-3, 3), 1])
        factors, rem = cyclotomic_part(p)
        rebuilt = rem
        for d, mult in factors:
            rebuilt = rebuilt * cyclotomic(d) ** mult
        assert rebuilt == p
        for d, _ in factors:
            assert rem.try_divide(cyclotomic(d)) is None


def test_quasi_unipotence_examples():
    assert quasi_unipotence(IntPoly.from_coeffs([1, -2, 1])) == (1, 2)
    p = cyclotomic(3) * IntPoly.from_coeffs([-1, 1])
    assert quasi_unipotence(p) == (3, 1)
    assert quasi_unipotence(IntPoly.from_coeffs([1, -3, 1])) is None
    assert quasi_unipotence(IntPoly.one()) == (1, 1)


def test_quasi_unipotence_divisibility_contract():
    rng = random.Random(301)
    for _ in range(80):
        p = IntPoly.one()
        for _ in range(rng.randint(1, 3)):
            p = p * cyclotomic(rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])) ** rng.randint(1, 2)
        ell, m = quasi_unipotence(p)
        target = IntPoly.x_power_minus_one(ell) ** m
        assert target.try_divide(p) is not None
        # minimality of ell over proper divisors
        for e in divisors(ell):
            if e < ell:
                assert (IntPoly.x_power_minus_one(e) ** m).try_divide(p) is None


def _sqrt5_bracket(digits=12):
    scale = 10**digits
    root = math.isqrt(5 * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def test_spectral_radius_golden_case():
    # independent oracle: (3 + sqrt 5)/2 bracketed through integer square roots
    lo5, hi5 = _sqrt5_bracket()
    true_lo = (3 + lo5) / 2
    true_hi = (3 + hi5) / 2
    lo, hi = spectral_radius(IntPoly.from_coeffs([1, -3, 1]), Fraction(1, 10**6))
    assert lo <= true_lo and true_hi <= hi
    assert hi - lo <= Fraction(1, 10**6) * hi


def test_spectral_radius_exact_one():
    assert spectral_radius(IntPoly.from_coeffs([-1, 3, -3, 1]), Fraction(1, 1000)) == (1, 1)
    assert spectral_radius(cyclotomic(12), 0.5) == (1, 1)


def test_spectral_radius_simple_roots():
    lo, hi = spectral_radius(IntPoly.from_coeffs([-2, 1]), Fraction(1, 10**6))
    assert lo <= 2 <= hi and hi - lo <= Fraction(1, 10**6) * hi
    lo, hi = spectral_radius(IntPoly.from_coeffs([0, 0, 1]), Fraction(1, 100))
    assert (lo, hi) == (0, 0)
    # zero roots stripped, cyclotomic remainder detected exactly
    assert spectral_radius(IntPoly.from_coeffs([0, 1, 1]), Fraction(1, 100)) == (1, 1)


def test_spectral_radius_requires_degree():
    with pytest.raises(ValueError):
        spectral_radius(IntPoly.one(), Fraction(1, 10))
    with pytest.raises(ValueError):
        spectral_radius(IntPoly.from_coeffs([-2, 1]), 0)
