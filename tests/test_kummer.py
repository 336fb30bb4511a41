import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torusdyn.errors import ParseError
from torusdyn.kummer import KummerNumber, char_eval, factorize, is_prime, parse_kummer, parse_point

from conftest import prime_power, rand_kummer

K = KummerNumber.from_rational
zeta = KummerNumber.root_of_unity


def test_mul_examples():
    assert K(2) * K(3) == K(6)
    x = zeta(4) * K(Fraction(2, 3))
    assert x * x.inverse() == KummerNumber.one()
    assert x * K(3) == zeta(4) * K(2)


def test_pow_examples():
    assert (zeta(3) * K(2)) ** 3 == K(8)
    x = zeta(6) * K(Fraction(5, 7))
    assert x**0 == KummerNumber.one()
    assert zeta(2) ** 2 == KummerNumber.one()


def test_nth_root_examples():
    assert K(4).nth_root(2) == K(2)
    assert K(-1).nth_root(2) == zeta(4)
    r = (zeta(3) * K(8)).nth_root(3)
    assert r == zeta(9) * K(2)
    assert r**3 == zeta(3) * K(8)


def test_torsion_predicates():
    assert zeta(6).is_torsion() and zeta(6).torsion_order() == 6
    assert not K(2).is_torsion() and K(2).torsion_order() is None
    one = KummerNumber.one()
    assert one.is_torsion() and one.torsion_order() == 1 and one.is_one()


def test_char_eval_examples():
    assert char_eval((K(2), K(3)), (1, 1)) == K(6)
    assert char_eval((K(2), K(4)), (2, -1)).is_one()
    assert char_eval((zeta(5), K(7)), (0, 0)).is_one()
    with pytest.raises(ValueError):
        char_eval((K(2),), (1, 2))


def test_canonical_form_closure():
    rng = random.Random(100)
    for _ in range(300):
        a, b = rand_kummer(rng), rand_kummer(rng)
        for val in (a * b, a.inverse(), a ** rng.randint(-5, 5), a.nth_root(rng.randint(1, 12))):
            assert 0 <= val.torsion < 1
            assert all(e != 0 for _, e in val.primes)
            assert [p for p, _ in val.primes] == sorted(p for p, _ in val.primes)


def test_group_laws():
    rng = random.Random(101)
    one = KummerNumber.one()
    for _ in range(200):
        a, b, c = (rand_kummer(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert a * a.inverse() == one
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        assert a ** (m + n) == (a**m) * (a**n)


def test_root_round_trip():
    rng = random.Random(102)
    for _ in range(100):
        a = rand_kummer(rng)
        for n in (1, 2, 3, 5, 7, 12, 24):
            assert a.nth_root(n) ** n == a


def test_char_eval_is_bilinear():
    rng = random.Random(103)
    for _ in range(100):
        x = tuple(rand_kummer(rng) for _ in range(3))
        b = [rng.randint(-4, 4) for _ in range(3)]
        c = [rng.randint(-4, 4) for _ in range(3)]
        bc = [u + v for u, v in zip(b, c)]
        assert char_eval(x, bc) == char_eval(x, b) * char_eval(x, c)


def test_parser_round_trip_random():
    rng = random.Random(104)
    for _ in range(300):
        a = rand_kummer(rng)
        assert parse_kummer(str(a)) == a


def test_parser_syntax():
    assert parse_kummer("zeta(3)^2 * 2/5 * 2^(1/3)") == zeta(3, 2) * K(Fraction(2, 5)) * prime_power(2, Fraction(1, 3))
    assert parse_kummer("4^(1/2)") == K(2)
    assert parse_kummer("-1") == zeta(2)
    assert parse_kummer(" 6 ") == K(6)
    assert parse_kummer("2^-2") == K(Fraction(1, 4))
    assert parse_point(["2", "zeta(4)"]) == (K(2), zeta(4))


@pytest.mark.parametrize("bad", ["", "zeta(0)", "0", "2^^3", "x", "2/0", "3 * * 5", "2^(1/0)"])
def test_parser_rejects(bad):
    with pytest.raises(ParseError):
        parse_kummer(bad)


def test_is_prime_matches_trial_division():
    small = [n for n in range(2, 5000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(-3, 5000) if is_prime(n)] == small
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(1_000_003 * 1_000_033)


def test_factorize_large_prime_factors():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(7 * (10**18 + 3)) == {7: 1, 10**18 + 3: 1}
    assert factorize(999_983**2) == {999_983: 2}  # square of a prime below the trial bound
    assert parse_kummer("1000000000000000003^(1/2)") == prime_power(10**18 + 3, Fraction(1, 2))


@pytest.mark.parametrize(
    "n",
    [1_000_003 * 1_000_033, 1_000_003**2, 2**89 - 1],  # 2^89 - 1 is a prime past MILLER_RABIN_LIMIT
    ids=["two-large-primes", "large-prime-square", "prime-past-miller-rabin"],
)
def test_factorize_rejects_cofactors_past_the_cap(n):
    with pytest.raises(ParseError, match="no prime factor up to 1000000"):
        factorize(n)
    with pytest.raises(ParseError):
        parse_kummer(str(n))


def test_from_rational_and_sign():
    assert K(-2) == zeta(2) * K(2)
    assert K(Fraction(12, 18)) == K(Fraction(2, 3))
    with pytest.raises(ValueError):
        K(0)


def test_printing_folds_integer_powers_below_the_digit_limit():
    assert str(zeta(3) * K(Fraction(32, 9)) * prime_power(5, Fraction(1, 2))) == "zeta(3) * 32/9 * 5^(1/2)"
    at_limit = prime_power(3, -9012)  # 4300 digits
    assert str(at_limit) == f"1/{3**9012}"
    past = prime_power(3, -9013) * K(2) * prime_power(5, Fraction(1, 2))
    assert str(past) == "2^1 * 3^-9013 * 5^(1/2)"
    huge = prime_power(2, 10**12)
    for x in (at_limit, past, huge):
        assert parse_kummer(str(x)) == x


# -- the closed operations against the canonicalizing constructor ------------

def ref_mul(a, b):
    return KummerNumber.build(a.torsion + b.torsion, list(a.primes) + list(b.primes))


def ref_pow(a, k):
    return KummerNumber.build(a.torsion * k, {p: e * k for p, e in a.primes})


def ref_inverse(a):
    return KummerNumber.build(-a.torsion, {p: -e for p, e in a.primes})


def ref_char_eval(xs, bs):
    acc = KummerNumber.one()
    for x, b in zip(xs, bs):
        acc = ref_mul(acc, ref_pow(x, b))
    return acc


def assert_same_canonical(r, ref):
    assert KummerNumber(r.torsion, r.primes) == r  # the validating constructor accepts it
    assert type(r.torsion) is Fraction
    assert all(type(p) is int and type(e) is Fraction for p, e in r.primes)
    assert r == ref and hash(r) == hash(ref)


_torsions = st.integers(1, 12).flatmap(lambda m: st.integers(0, m - 1).map(lambda k: Fraction(k, m)))
# few primes and small exponents, so sums cancel to 0 often
_exponents = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 6)))
_kummers = st.builds(KummerNumber.build, _torsions, st.dictionaries(st.sampled_from((2, 3, 5)), _exponents, max_size=3))
_points_and_characters = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(_kummers, min_size=n, max_size=n), st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    )
)
_property = settings(derandomize=True, deadline=None, database=None, max_examples=200)

_CANCEL_AND_WRAP = (zeta(3, 2) * prime_power(2, Fraction(1, 2)), zeta(3, 2) * prime_power(2, Fraction(-1, 2)))


@_property
@given(_kummers, _kummers)
@example(*_CANCEL_AND_WRAP)
def test_mul_matches_build(a, b):
    assert_same_canonical(a * b, ref_mul(a, b))


@_property
@given(_kummers, st.integers(-5, 5))
@example(zeta(4, 3) * K(2), 3)
@example(zeta(4, 3) * K(2), 0)
def test_pow_matches_build(a, k):
    assert_same_canonical(a**k, ref_pow(a, k))


@_property
@given(_kummers)
@example(KummerNumber.one())
def test_inverse_matches_build(a):
    assert_same_canonical(a.inverse(), ref_inverse(a))


@_property
@given(_points_and_characters)
@example((list(_CANCEL_AND_WRAP), [1, 1]))
@example(([prime_power(2, Fraction(1, 2)), prime_power(2, Fraction(1, 4))], [1, -2]))
def test_char_eval_matches_iterated_products(point_and_character):
    xs, bs = point_and_character
    assert_same_canonical(char_eval(xs, bs), ref_char_eval(xs, bs))
