import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torusdyn.cli import load_map_spec
from torusdyn.dynamics import invariant_family, periodic_torsion_points, sample_family_points
from torusdyn.errors import PreconditionError
from torusdyn.intlinalg import IntMatrix
from torusdyn import kummer, oracle
from torusdyn.kummer import KummerNumber, char_eval, from_layers, is_prime, layer_orders, layers_of, one_point, parse_point
from torusdyn.oracle import (
    ModularEmbedding,
    _discrete_logs,
    _evaluation_rows,
    _generator_mod,
    _monomial_steps,
    _monomials,
    _rank_mod,
    build_embedding,
    hypersurface_containment,
    orbit_sample,
)
from torusdyn.reference import finite_model_run, invariant_coset_search, numeric_roots
from torusdyn.polyalg import IntPoly, cyclotomic, quasi_unipotence, spectral_radius
from torusdyn.torus import AffineMonomialMap

from conftest import rand_kummer

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_finite_model_doubling_mod7():
    phi = AffineMonomialMap.build([[2]], one_point(1))
    run = finite_model_run(phi, 7)
    assert run.periods() == [1, 3, 3]
    assert run.period_of((0,)) == 1
    assert run.period_of((1,)) == 3 and run.period_of((3,)) == 3


def test_finite_model_trivial_modulus():
    phi = AffineMonomialMap.build([[5]], one_point(1))
    run = finite_model_run(phi, 1)
    assert run.periods() == [1]


def test_finite_model_shear_bijection():
    phi = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "zeta(5)"]))
    run = finite_model_run(phi, 5)
    assert sum(run.periods()) == 25
    # equivariance against the exact orbit
    x = parse_point(["zeta(5)", "zeta(5)^3"])
    state = (1, 3)
    exact = orbit_sample(phi, x, 10)
    cur = state
    for point in exact:
        assert tuple(int(c.torsion * 5) % 5 for c in point) == cur
        orbit = next(o for o in run.orbits if cur in o)
        cur = orbit[(orbit.index(cur) + 1) % len(orbit)]


def test_finite_model_preconditions():
    with pytest.raises(PreconditionError):
        finite_model_run(AffineMonomialMap.build([[2]], one_point(1)), 2)
    with pytest.raises(PreconditionError):
        finite_model_run(AffineMonomialMap.build([[1]], parse_point(["2"])), 3)


def test_finite_model_agrees_with_periodic_points():
    a2 = IntMatrix.from_rows([[2, 1], [1, 1]])
    phi = AffineMonomialMap(a2, one_point(2))
    for d in (3, 5, 7):
        run = finite_model_run(phi, d)
        for point, period in periodic_torsion_points(a2, d, budget=200):
            state = tuple(int(c.torsion * d) % d for c in point)
            assert run.period_of(state) == period


def test_numeric_roots_examples():
    roots = sorted(abs(z) for z in numeric_roots(IntPoly.from_coeffs([1, -3, 1])))
    assert abs(roots[0] - 0.3819660113) < 1e-9
    assert abs(roots[1] - 2.6180339887) < 1e-9
    assert [round(abs(z), 9) for z in numeric_roots(IntPoly.from_coeffs([-1, 1]))] == [1.0]
    assert all(abs(abs(z) - 1) < 1e-9 for z in numeric_roots(cyclotomic(4)))
    with pytest.raises(PreconditionError):
        numeric_roots(IntPoly.one())


def test_numeric_roots_agree_with_exact_classification():
    rng = random.Random(600)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [1]
        p = IntPoly.from_coeffs(coeffs)
        qu = quasi_unipotence(p)
        near_one = all(abs(abs(z) - 1) < 1e-9 for z in numeric_roots(p))
        assert (qu is not None) == near_one
        lo, hi = spectral_radius(p, Fraction(1, 10**4))
        top = max(abs(z) for z in numeric_roots(p))
        assert float(lo) - 1e-9 <= top <= float(hi) + 1e-9


def reference_discrete_log(q, g, h):
    """Baby-step giant-step with a table built for this one log (reference)."""
    m = math.isqrt(q - 1) + 1
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * g % q
    factor = pow(g, -m, q)
    y = h % q
    for i in range(m):
        if y in table:
            return (i * m + table[y]) % (q - 1)
        y = y * factor % q
    raise AssertionError("discrete log not found")


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@st.composite
def _log_cases(draw):
    """(q, g, hs): a prime q, a generator g of F_q^* and residues to take logs of."""
    q = _next_prime(draw(st.integers(3, 5 * 10**6)))
    # g0^e generates F_q^* exactly when gcd(e, q - 1) = 1
    e = draw(st.integers(1, q - 2).filter(lambda e: math.gcd(e, q - 1) == 1))
    g = pow(_generator_mod(q), e, q)
    hs = draw(st.lists(st.integers(1, 3 * q), min_size=1, max_size=6).filter(lambda hs: all(h % q for h in hs)))
    return q, g, hs


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_log_cases())
@example((1149037, _generator_mod(1149037), [2, 3, 5, 7, 1149036]))
@example((44809381, _generator_mod(44809381), [2, 3, 44809380]))
@example((65537, _generator_mod(65537), [2, 3, 5, 7, 65536]))  # q - 1 = 2^16
@example((7340033, _generator_mod(7340033), [2, 3, 11, 7340032]))  # q - 1 = 7 * 2^20
@example((12289, pow(_generator_mod(12289), 5, 12289), [2, 3, 6144, 12288]))  # q - 1 = 3 * 2^12
def test_shared_baby_steps_match_reference_log(case):
    q, g, hs = case
    logs = _discrete_logs(q, g, hs)
    assert logs == [reference_discrete_log(q, g, h) for h in hs]
    assert all(pow(g, x, q) == h % q for x, h in zip(logs, hs))
    assert _discrete_logs(q, g, []) == []


def test_discrete_logs_work_with_the_largest_prime_of_q_minus_1():
    # a 76-bit prime with smooth q - 1: baby-step giant-step over the whole
    # group would need about 2^38 table entries, Pohlig-Hellman one per digit
    # against tables of at most ceil(sqrt(1019)) = 32
    q = 2**20 * 3**10 * 5**6 * 7**3 * 11 * 13 * 1019 + 1
    assert is_prime(q) and list(kummer.factorize(q - 1).items()) == [(2, 20), (3, 10), (5, 6), (7, 3), (11, 1), (13, 1), (1019, 1)]
    g = _generator_mod(q)
    hs = [2, 3, 5, 7, q - 1]
    start = time.perf_counter()
    logs = _discrete_logs(q, g, hs)
    assert time.perf_counter() - start < 2
    assert all(0 <= x < q - 1 and pow(g, x, q) == h for x, h in zip(logs, hs))
    assert logs[-1] == (q - 1) // 2


def test_factor_matches_brute_force():
    assert list(kummer.factorize(1).items()) == []
    for n in range(2, 5001):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % f for f in range(2, p))]
        want = []
        for p in primes:
            e = 0
            while n % p ** (e + 1) == 0:
                e += 1
            want.append((p, e))
        assert list(kummer.factorize(n).items()) == want, n


def test_every_scanned_prime_meets_the_embedding_preconditions(monkeypatch):
    # _try_embedding relies on build_embedding's scan for three facts; check each
    # with plain pow on every prime the scan hands it, over orders within the caps
    seen = []
    real = oracle._try_embedding

    def recording(torsion_lcm, needed, q):
        seen.append((torsion_lcm, dict(needed), q))
        return real(torsion_lcm, needed, q)

    monkeypatch.setattr(oracle, "_try_embedding", recording)
    rng = random.Random(1187)
    for _ in range(40):
        torsion_lcm = rng.choice([1, 2, 3, 4, 12, 60, rng.randint(1, 1000), rng.randint(1, oracle.TORSION_LCM_CAP)])
        needed = {}
        for p in rng.sample([2, 3, 5, 7, 11, 13, 999983], rng.randint(0, 3)):
            n_p = rng.choice([1, 2, 3, 4, 6, 8, 10])
            if math.prod(needed.values()) * n_p <= oracle.RADICAL_COST_CAP:
                needed[p] = n_p
        build_embedding(torsion_lcm, needed, random.Random(rng.randrange(10**6)), retries=4)
    assert len(seen) >= 40
    for torsion_lcm, needed, q in seen:
        assert (q - 1) % torsion_lcm == 0
        assert all(p % q for p in needed)
        assert all(pow(p, (q - 1) // n_p, q) == 1 for p, n_p in needed.items())


def test_embedding_is_homomorphism():
    rng = random.Random(601)
    vals = [rand_kummer(rng) for _ in range(8)]
    emb, _ = build_embedding(*layer_orders(*layers_of([vals])), random.Random(0))
    q = emb.prime
    for _ in range(40):
        a, b = rng.choice(vals), rng.choice(vals)
        assert emb.embed(a * b) == emb.embed(a) * emb.embed(b) % q
        assert emb.embed(a.inverse()) == pow(emb.embed(a), -1, q)


def test_embedding_sends_base_primes_home_and_roots_of_unity_to_their_order():
    # the fixtures' family samples, with the first point divided out as
    # hypersurface_containment does, and test_embedding_is_homomorphism's values
    rng = random.Random(601)
    cases = [(layer_orders(*layers_of([[rand_kummer(rng) for _ in range(8)]])), 0)]
    for name, budget, seed in (("example_dense", 10, 11), ("example_dense3", 8, 13)):
        phi = load_map_spec(str(FIXDIR / f"{name}.json")).to_map()
        den, primes, layers = sample_family_points(invariant_family(phi, budget), seed)
        cases.append((layer_orders(den, primes, layers, layers[0]), seed))
    for (torsion_lcm, needed), seed in cases:
        emb, _ = build_embedding(torsion_lcm, needed, random.Random(seed))
        q, m = emb.prime, torsion_lcm
        for p in needed:
            assert emb.embed(KummerNumber.from_rational(p)) == p % q
        z = emb.embed(KummerNumber.root_of_unity(m))
        assert pow(z, m, q) == 1
        assert all(pow(z, m // f, q) != 1 for f in kummer.factorize(m))


def test_containment_orbit_example():
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    pts = orbit_sample(phi, one_point(2), 21)
    res = hypersurface_containment(layers_of(pts), 3, seed=0)
    assert res.not_contained and res.rank == res.monomial_count == 10


def test_containment_equal_points_undecided():
    pts = [parse_point(["2", "3"])] * 12
    res = hypersurface_containment(layers_of(pts), 1, seed=0)
    assert res.status == "UNDECIDED"


def test_containment_too_few_points():
    res = hypersurface_containment(layers_of([one_point(2)]), 3, seed=0)
    assert res.status == "UNDECIDED" and res.attempts == 0


def test_containment_counts_monomials_before_listing_them():
    # C(10^6 + 3, 3) monomials would never fit in memory; the count alone decides
    pts = layers_of([parse_point(["2", "3", "5"]), parse_point(["7", "11", "13"])])
    res = hypersurface_containment(pts, 10**6, seed=0)
    assert (res.status, res.point_count, res.monomial_count, res.attempts) == ("UNDECIDED", 2, math.comb(10**6 + 3, 3), 0)
    assert hypersurface_containment(pts, 2, seed=0).monomial_count == 10


@pytest.mark.parametrize(
    "first, second, tried",
    [
        ("1", "zeta(1000000)", True),  # torsion lcm at TORSION_LCM_CAP
        ("1", "zeta(1000001)", False),
        # radical cost at RADICAL_COST_CAP once the shared 5^(1/999983) is divided out
        ("5^(1/999983)", "5^(1/999983) * 2^(1/4000)", True),
        ("5^(1/999983)", "5^(1/999983) * 2^(1/4001)", False),
        # a degenerate sample: the one coordinate takes one value, and x - 3 vanishes on both points
        ("3", "3", False),
    ],
)
def test_containment_caps_decide_before_any_prime(first, second, tried, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_embedding(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_embedding", counting)
    res = hypersurface_containment(layers_of([parse_point([first]), parse_point([second])]), 1, seed=0)
    assert oracle.TORSION_LCM_CAP == 10**6 and oracle.RADICAL_COST_CAP == 4000
    if tried:
        assert calls and res.attempts >= 1
    else:
        assert not calls and (res.status, res.attempts) == ("UNDECIDED", 0)


def test_containment_vertical_cosets():
    # five cosets {y = zeta_5^k} with five samples each: no conic contains all 25
    pts = []
    for k in range(5):
        for t in (2, 3, 5, 7, 11):
            pts.append(parse_point([str(t), f"zeta(5)^{k}" if k else "1"]))
    res = hypersurface_containment(layers_of(pts), 2, seed=1)
    assert res.not_contained and res.monomial_count == 6


def test_containment_replay_stability():
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    pts = orbit_sample(phi, one_point(2), 25)
    primes = set()
    for seed in range(5):
        res = hypersurface_containment(layers_of(pts), 3, seed=seed)
        assert res.not_contained
        primes.add(res.prime)
    assert len(primes) > 1  # genuinely different certificates, same verdict


def test_containment_preconditions():
    with pytest.raises(PreconditionError):
        hypersurface_containment(layers_of([]), 3)
    with pytest.raises(PreconditionError):
        hypersurface_containment(layers_of([one_point(2)]), 0)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("degree", range(4))
def test_monomials_match_brute_force(n, degree):
    ref = sorted(m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) <= degree)
    monos = _monomials(n, degree)
    assert monos == ref
    for k, (parent, j) in enumerate(_monomial_steps(monos), 1):
        assert parent < k
        assert monos[k] == tuple(e + (i == j) for i, e in enumerate(monos[parent]))


def gauss_jordan_rank(rows, q):
    """Reference rank mod q: a Gauss-Jordan pass over every row for each column."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][j] % q), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][j], -1, q)
        work[rank] = [x * inv % q for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j] % q:
                f = work[i][j]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


@st.composite
def _matrices_mod_p(draw):
    """(rows, q): a product of a rows x k and a k x cols matrix, so rank <= k,
    with some rows zeroed and entries outside [0, q)."""
    q = draw(st.sampled_from((2, 3, 5, 7, 13, 101)))
    nrows, ncols, k = draw(st.integers(0, 12)), draw(st.integers(1, 8)), draw(st.integers(0, 8))
    entries = st.integers(-2 * q, 2 * q)
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    rows = [
        [0] * ncols if i in zeroed else [sum(a * r[j] for a, r in zip(row, right)) for j in range(ncols)]
        for i, row in enumerate(left)
    ]
    return rows, q


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_matrices_mod_p())
@example(([], 5))
@example(([[0, 0, 0]] * 4, 7))
@example(([[1, 2], [2, 4], [3, 6], [0, 0], [5, 5]], 5))
def test_rank_mod_matches_gauss_jordan(rows_and_q):
    rows, q = rows_and_q
    assert _rank_mod(rows, q) == gauss_jordan_rank(rows, q)


@pytest.mark.parametrize("q", (3, 1000003, 2**31 - 1, 2**61 - 1))
def test_packed_rank_mod_matches_gauss_jordan_wide(q):
    # wide rows and 62-bit primes, where the packed slots are widest; the sum
    # of a triangular block of q - 1 above a unit diagonal meets x = 1 at
    # every pivot, so each elimination step adds (q - 1)^2 to every slot
    rng = random.Random(q)
    cases = []
    for ncols in (1, 2, 17, 64, 120):
        k = rng.randint(0, ncols)
        left = [[rng.randint(-2 * q, 2 * q) for _ in range(k)] for _ in range(ncols + 3)]
        right = [[rng.randint(-2 * q, 2 * q) for _ in range(ncols)] for _ in range(k)]
        cases.append([[sum(a * r[j] for a, r in zip(row, right)) for j in range(ncols)] for row in left])
        cases.append([[rng.randint(-3 * q, 3 * q) for _ in range(ncols)] for _ in range(ncols)])
        cases.append([[q - 1] * ncols for _ in range(4)])
        triangle = [[0] * i + [1] + [q - 1] * (ncols - i - 1) for i in range(ncols - 1)]
        cases.append(triangle + [[sum(col) % q for col in zip(*triangle)]])
        cases.append(triangle + [[1] * ncols, [q - 1] * ncols])
    for rows in cases:
        assert _rank_mod(rows, q) == gauss_jordan_rank(rows, q), (q, len(rows[0]))


def test_rank_mod_stops_pulling_rows_at_full_rank():
    q, ncols = 1000003, 30
    rng = random.Random(1)
    rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(ncols)]
    assert gauss_jordan_rank(rows, q) == ncols

    def pulled():
        yield from rows
        raise AssertionError("row pulled past full rank")

    assert _rank_mod(pulled(), q) == ncols


def test_evaluation_rows_check_points_they_never_read():
    # 25 orbit points with integer exponents and a last one carrying sqrt(3);
    # raising the log of 3 by one keeps every exponent sum but the last
    # divisible by den = 2, and the first points alone already give full rank
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    points = orbit_sample(phi, one_point(2), 25) + [parse_point(["3^(1/2)", "1"])]
    den, primes, layers = layers_of(points)
    assert den == 2
    monos = _monomials(2, 3)
    steps = _monomial_steps(monos)
    emb, _ = build_embedding(*layer_orders(den, primes, layers), random.Random(0))
    assert _rank_mod(_evaluation_rows(den, primes, layers, steps, emb), emb.prime) == len(monos)
    off = ModularEmbedding(
        emb.prime, emb.generator, emb.torsion_lcm, tuple((p, lg + (p == 3)) for p, lg in emb.prime_logs)
    )
    assert _rank_mod(_evaluation_rows(den, primes, layers[:-1], steps, off), off.prime) == len(monos)
    with pytest.raises(AssertionError):
        _rank_mod(_evaluation_rows(den, primes, layers, steps, off), off.prime)


def test_evaluation_rows_refuse_an_embedding_without_a_needed_log(monkeypatch):
    # the orbit moves the layers of 2 and 3, so an embedding without a log of 3
    # cannot embed it; the 5^(1/3) every point shares cancels against the
    # first point and needs no log
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    points = orbit_sample(phi, parse_point(["2 * 5^(1/3)", "2"]), 12)
    den, primes, layers = layers_of(points)
    orders = layer_orders(den, primes, layers, layers[0])
    assert primes == (2, 3, 5) and orders == (1, {2: 1, 3: 1})
    emb, _ = build_embedding(*orders, random.Random(0))
    assert [p for p, _ in emb.prime_logs] == [2, 3]
    monos = _monomials(2, 2)
    steps = _monomial_steps(monos)
    shift = tuple(c.inverse() for c in points[0])
    ref = [[emb.embed(char_eval(tuple(a * s for a, s in zip(p, shift)), m)) for m in monos] for p in points]
    assert list(_evaluation_rows(den, primes, layers, steps, emb, layers[0])) == ref
    lacking = ModularEmbedding(emb.prime, emb.generator, emb.torsion_lcm, emb.prime_logs[:1])
    with pytest.raises(AssertionError):
        _evaluation_rows(den, primes, layers, steps, lacking, layers[0])
    monkeypatch.setattr(oracle, "build_embedding", lambda *args: (lacking, 1))
    with pytest.raises(AssertionError):
        hypersurface_containment((den, primes, layers), 2, seed=0)


def test_containment_builds_only_the_rows_it_reads(monkeypatch):
    # a point's exponents (one product per layer entry) and its row are
    # computed only when _rank_mod pulls it, never for the rest of the sample
    pulled, products = [], []

    def counting_rank(rows, q):
        def tally():
            for row in rows:
                pulled.append(row)
                yield row

        return _rank_mod(tally(), q)

    def counting_mul(a, b):
        products.append(a)
        return a * b

    monkeypatch.setattr(oracle, "_rank_mod", counting_rank)
    monkeypatch.setattr(oracle, "mul", counting_mul)
    phi = load_map_spec(str(FIXDIR / "example_dense3.json")).to_map()
    den, primes, layers = sample_family_points(invariant_family(phi, 8), 13)
    res = hypersurface_containment((den, primes, layers), 3, seed=13)
    assert res.not_contained and res.attempts == 1 and len(layers) == 172
    assert res.rank <= len(pulled) < len(layers) // 2
    # the first point's exponent sums, taken off every row's, and then one
    # exponent vector per row pulled
    per_point = len(layers[0]) * len(layers[0][0])
    assert len(products) == (len(pulled) + 1) * per_point


def _containment_inputs():
    """(name, points, degree bound, seed): each fixture's orbit, and the family
    samples of the two dense fixtures."""
    out = []
    for path in sorted(FIXDIR.glob("*.json")):
        phi = load_map_spec(str(path)).to_map()
        x = parse_point(["2", "3", "5"][: phi.dim])
        out.append((f"{path.stem}/orbit", orbit_sample(phi, x, 25), 3, 0))
    for name, budget, seed in (("example_dense", 10, 11), ("example_dense3", 8, 13)):
        phi = load_map_spec(str(FIXDIR / f"{name}.json")).to_map()
        den, primes, layers = sample_family_points(invariant_family(phi, budget), seed)
        out.append((f"{name}/family", [from_layers(den, primes, x) for x in layers], 3, seed))
    return out


# (status, prime, rank, attempts) as computed before the rows came from
# per-coordinate embeddings and the rank from row-by-row elimination
_PINNED_CONTAINMENT = {
    "example_dense/orbit": ("NOT_CONTAINED", 1061227, 10, 1),
    "example_dense3/orbit": ("NOT_CONTAINED", 1086469, 20, 1),
    "example_fibration/orbit": ("UNDECIDED", None, None, 32),
    "example_shear_wild/orbit": ("NOT_CONTAINED", 1061227, 10, 1),
    "example_torsion_fibration/orbit": ("NOT_CONTAINED", 1111711, 10, 1),
    "example_wild/orbit": ("NOT_CONTAINED", 1061227, 10, 1),
    "example_dense/family": ("NOT_CONTAINED", 1937941, 10, 1),
    "example_dense3/family": ("NOT_CONTAINED", 4613701, 20, 1),
}


def test_evaluation_rows_match_embedded_characters():
    for name, points, degree, seed in _containment_inputs():
        shift = tuple(c.inverse() for c in points[0])
        moved = [tuple(a * s for a, s in zip(p, shift)) for p in points]
        # the shift on layers: subtract the first point's layers
        den, primes, layers = layers_of(points)
        moved_layers = [[[x - y for x, y in zip(u, v)] for u, v in zip(pt, layers[0])] for pt in layers]
        assert [from_layers(den, primes, x) for x in moved_layers] == moved, name
        needs = layer_orders(den, primes, moved_layers)
        assert needs == layer_orders(*layers_of(moved)), name
        monos = _monomials(len(points[0]), degree)
        emb, _ = build_embedding(*needs, random.Random(seed))
        ref = [[emb.embed(char_eval(p, m)) for m in monos] for p in moved]
        assert list(_evaluation_rows(den, primes, moved_layers, _monomial_steps(monos), emb)) == ref, name


def test_containment_pinned_certificates():
    got = {}
    for name, points, degree, seed in _containment_inputs():
        res = hypersurface_containment(layers_of(points), degree, seed=seed)
        got[name] = (res.status, res.prime, res.rank, res.attempts)
    assert got == _PINNED_CONTAINMENT


def test_orbit_sample_examples():
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    orbit = orbit_sample(phi, one_point(2), 4)
    assert orbit == [
        one_point(2),
        parse_point(["2", "3"]),
        parse_point(["4", "9"]),
        parse_point(["8", "27"]),
    ]
    ident = AffineMonomialMap.build([[1, 0], [0, 1]], one_point(2))
    assert orbit_sample(ident, parse_point(["5", "7"]), 3) == [parse_point(["5", "7"])] * 3
    shear = AffineMonomialMap.build([[1, 1], [0, 1]], parse_point(["1", "3"]))
    assert orbit_sample(shear, one_point(2), 3) == [
        one_point(2),
        parse_point(["1", "3"]),
        parse_point(["3", "9"]),
    ]


def test_coset_search_finds_fibration_cosets():
    phi = AffineMonomialMap.build([[2, 0], [0, 1]], one_point(2))
    found = invariant_coset_search(phi, 4)
    assert found
    from torusdyn.intlinalg import Lattice

    assert any(lat == Lattice.from_rows(2, [[0, 1]]) for lat, _ in found)


def test_coset_search_wild_map_empty():
    phi = AffineMonomialMap.build([[1, 0], [0, 1]], parse_point(["2", "3"]))
    assert invariant_coset_search(phi, 12) == []


def test_coset_search_hyperbolic_fixed_point():
    phi = AffineMonomialMap.build([[2, 1], [1, 1]], one_point(2))
    found = invariant_coset_search(phi, 2)
    from torusdyn.intlinalg import Lattice

    assert any(lat == Lattice.full(2) and ell == 1 for lat, ell in found)
