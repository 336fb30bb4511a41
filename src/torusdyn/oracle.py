"""Independent verification: finite models, numeric roots, modular density tests.

These are cross-checks, except :func:`hypersurface_containment`, which
certifies the density evidence of :func:`torusdyn.dynamics.classify`.  The
one numeric ingredient in the whole package (companion-matrix eigenvalues)
lives here, as does the randomized-prime machinery, which takes explicit
seeds so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import OracleError, PreconditionError
from .intlinalg import (
    IntMatrix,
    Lattice,
    charpoly,
    left_kernel_saturated,
    mat_vec,
    solve_rational,
    vec_mat,
)
from .kummer import KummerNumber, Point, PointLayers, char_eval, is_prime, layer_orders, layers_of
from .polyalg import IntPoly, cyclotomic_part, divisors
from .torus import AffineMonomialMap

_STATE_SPACE_CAP = 200_000

# Above either, the density test is UNDECIDED before its prime scan: a shifted
# sample's torsion lcm (q = 1 mod it, and q - 1 is trial-divided) and radical
# cost (the product of the N_p, about the primes scanned per admissible one).
TORSION_LCM_CAP = 1_000_000
RADICAL_COST_CAP = 4000


# -- finite dynamical models ---------------------------------------------------


@dataclass(frozen=True)
class FiniteModelRun:
    """Full orbit decomposition of u -> A*u + g on (Z/d)^n.

    The map is a bijection because gcd(d, det A) = 1, so the state space
    splits into disjoint cycles; ``orbits`` lists them, each as a tuple of
    states in visiting order.
    """

    modulus: int
    dimension: int
    matrix_mod: tuple[tuple[int, ...], ...]
    translation_exponents: tuple[int, ...]
    orbits: tuple[tuple[tuple[int, ...], ...], ...]

    def period_of(self, state: tuple[int, ...]) -> int:
        for orbit in self.orbits:
            if state in orbit:
                return len(orbit)
        raise KeyError(state)

    def periods(self) -> list[int]:
        return sorted(len(o) for o in self.orbits)


def finite_model_run(phi: AffineMonomialMap, d: int) -> FiniteModelRun:
    """Exhaust the orbit structure of phi reduced modulo d-torsion.

    Requires every coordinate of the translation to be torsion of order
    dividing d, and gcd(d, |det A|) = 1 so the reduced map is a bijection.
    """
    if d < 1:
        raise PreconditionError("modulus must be positive")
    n = phi.dim
    if math.gcd(d, abs(phi.det)) != 1:
        raise PreconditionError(f"modulus {d} shares a factor with |det A| = {abs(phi.det)}")
    g = []
    for coord in phi.translation:
        if not coord.is_torsion():
            raise PreconditionError("translation must be torsion for a finite model")
        t = coord.torsion
        if d % t.denominator != 0:
            raise PreconditionError(f"translation order {t.denominator} does not divide {d}")
        g.append(t.numerator * (d // t.denominator) % d)
    if d**n > _STATE_SPACE_CAP:
        raise PreconditionError(f"state space {d}^{n} exceeds {_STATE_SPACE_CAP}")
    amod = phi.matrix.mod(d)

    def step(u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + gg) % d for x, gg in zip(mat_vec(amod, u), g))

    seen: set[tuple[int, ...]] = set()
    orbits: list[tuple[tuple[int, ...], ...]] = []
    for u in itertools.product(range(d), repeat=n):
        if u in seen:
            continue
        orbit = [u]
        v = step(u)
        while v != u:
            orbit.append(v)
            v = step(v)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return FiniteModelRun(d, n, tuple(tuple(r) for r in amod.to_rows()), tuple(g), tuple(orbits))


# -- numeric roots ---------------------------------------------------------------


def numeric_roots(p: IntPoly, tol: float = 1e-9) -> list[complex]:
    """Roots of p as floating approximations (companion-matrix eigenvalues).

    Every root is residual-checked: |p(root)| must not exceed tol times the
    coefficient scale at that root, else an OracleError reports
    non-convergence.
    """
    import numpy as np  # only this oracle uses numpy; importing the package stays light

    if p.degree < 1:
        raise PreconditionError("numeric_roots requires degree >= 1")
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    out = []
    for z in roots:
        z = complex(z)
        val = 0j
        for c in reversed(p.coeffs):
            val = val * z + c
        scale = sum(abs(c) * max(1.0, abs(z)) ** i for i, c in enumerate(p.coeffs))
        if abs(val) > tol * scale:
            raise OracleError(f"root {z} of {p} did not converge: residual {abs(val):.3g}")
        out.append(z)
    return out


# -- modular embeddings ------------------------------------------------------------


def _factor(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1 by trial division, primes ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def _generator_mod(q: int, factors: list[tuple[int, int]] | None = None) -> int:
    """The least generator of F_q^*; ``factors`` is ``_factor(q - 1)`` when the caller has it."""
    fac = [p for p, _ in factors or _factor(q - 1)]
    for g in range(2, q):
        if all(pow(g, (q - 1) // pf, q) != 1 for pf in fac):
            return g
    raise AssertionError("no generator found")


def _discrete_logs(q: int, g: int, hs: list[int], factors: list[tuple[int, int]] | None = None) -> list[int]:
    """Pohlig-Hellman solutions x in [0, q - 1) of g^x = h (mod q) for a generator g.

    For each prime power p^e exactly dividing q - 1 (``factors``, when the
    caller has already factored it), x mod p^e is read one base-p digit at a
    time in the subgroup of order p, by baby-step giant-step against one
    table of ceil(sqrt(p)) entries that every h shares; the residues are
    combined by the CRT.  q - 1 is smooth for the primes
    :func:`build_embedding` picks, so the tables stay small.
    """
    if not hs:
        return []
    n = q - 1
    xs = [0] * len(hs)
    for p, e in factors or _factor(n):
        pe = p**e
        gamma = pow(g, n // p, q)  # of order p
        m = math.isqrt(p - 1) + 1
        table = {}
        cur = 1
        for j in range(m):  # m <= p, so the entries are distinct
            table[cur] = j
            cur = cur * gamma % q
        giant = pow(gamma, -m, q)
        g_inv = pow(g, -(n // pe), q)  # inverse of a generator of the subgroup of order p^e
        crt = n // pe * pow(n // pe, -1, pe)
        for k, h in enumerate(hs):
            y = pow(h, n // pe, q)
            r = 0
            for i in range(e):
                # y = g^((n / p^e) * (x - r)), p^i | x - r: its p^(e-1-i)-th power is gamma^digit
                z = pow(y, p ** (e - 1 - i), q)
                for a in range(m):
                    if z in table:
                        break
                    z = z * giant % q
                else:
                    raise AssertionError("discrete log not found")
                d = (a * m + table[z]) % p
                y = y * pow(g_inv, d * p**i, q) % q
                r += d * p**i
            xs[k] += r * crt
    logs = [x % n for x in xs]
    for x, h in zip(logs, hs):
        assert pow(g, x, q) == h % q
    return logs


@dataclass(frozen=True)
class ModularEmbedding:
    """Specialization of the subgroup generated by given coordinates into F_q^*.

    Torsion goes to elements of exact matching order (q = 1 mod the lcm M of
    torsion orders); each base prime p goes through a discrete logarithm
    divisible by every exponent denominator that p carries, so rational
    powers land on actual group elements.

    Branch consistency: square roots of primes are the one place where the
    complex values satisfy additive identities with roots of unity (Gauss
    sums, e.g. sqrt(3) = zeta_12 + 1/zeta_12).  Whenever the quadratic field
    Q(sqrt(D)) generated by a product of the embedded radicals lies inside
    Q(zeta_M), the chosen branches are corrected against the Gauss-sum value
    modulo q, so the embedding extends to a ring specialization and linear
    relations over characteristic zero reduce faithfully.  Higher radicals
    (cube roots and beyond) never meet cyclotomic fields, so no further
    constraints exist.
    """

    prime: int
    generator: int
    torsion_lcm: int
    prime_logs: tuple[tuple[int, int], ...]
    _logs: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_logs", dict(self.prime_logs))

    def embed(self, x: KummerNumber) -> int:
        q = self.prime
        exp = x.torsion.numerator * ((q - 1) // x.torsion.denominator)
        logs = self._logs
        for p, e in x.primes:
            lg = logs[p]
            num = e.numerator * lg
            assert num % e.denominator == 0
            exp += num // e.denominator
        return pow(self.generator, exp % (q - 1), q)


def _cyclotomic_sqrt_mod(d: int, q: int, g: int) -> int:
    """Image of the positive square root of squarefree d under zeta_k -> g^((q-1)/k).

    Uses the classical quadratic Gauss sum for the odd part and
    zeta_8 + 1/zeta_8 for the factor 2; requires the relevant roots of unity
    to exist mod q (the caller checks disc(Q(sqrt d)) | q - 1).
    """
    val = 1
    d0 = d
    if d0 % 2 == 0:
        z8 = pow(g, (q - 1) // 8, q)
        val = (z8 + pow(z8, -1, q)) % q
        d0 //= 2
    if d0 > 1:
        zd = pow(g, (q - 1) // d0, q)
        gauss = sum(pow(zd, (a * a) % d0, q) for a in range(d0)) % q
        if d0 % 4 == 3:
            i4 = pow(g, (q - 1) // 4, q)
            gauss = gauss * pow(i4, -1, q) % q
        val = val * gauss % q
    assert val * val % q == d % q
    return val


def _consistent_branches(needed: dict[int, int], logs: dict[int, int], torsion_lcm: int, q: int, g: int) -> dict[int, int] | None:
    """Flip square-root branches (log += q-1) so every quadratic subfield of the
    torsion's cyclotomic field gets its Gauss-sum value.  Returns adjusted logs,
    or None if no consistent assignment exists modulo this prime."""
    even = sorted(p for p, n_p in needed.items() if n_p % 2 == 0)
    if not even:
        return logs
    rows = []  # (mask over `even`, required flip parity)
    for r in range(1, len(even) + 1):
        for subset in itertools.combinations(range(len(even)), r):
            d = math.prod(even[i] for i in subset)
            disc = d if d % 4 == 1 else 4 * d
            if torsion_lcm % disc != 0:
                continue
            cur = 1
            for i in subset:
                cur = cur * pow(g, (logs[even[i]] // 2) % (q - 1), q) % q
            target = _cyclotomic_sqrt_mod(d, q, g)
            if cur == target:
                delta = 0
            elif cur == (q - target) % q:
                delta = 1
            else:
                return None
            mask = 0
            for i in subset:
                mask |= 1 << i
            rows.append((mask, delta))
    # solve the F2 system for the flip pattern (kept in reduced echelon form)
    pivots: list[tuple[int, int, int]] = []  # (pivot_bit, mask, delta)
    for mask, delta in rows:
        for pb, pm, pd in pivots:
            if mask >> pb & 1:
                mask ^= pm
                delta ^= pd
        if mask == 0:
            if delta:
                return None
            continue
        pb = mask.bit_length() - 1
        pivots = [
            (qb, qm ^ mask, qd ^ delta) if qm >> pb & 1 else (qb, qm, qd) for qb, qm, qd in pivots
        ]
        pivots.append((pb, mask, delta))
    flips = 0
    for pb, _, pd in pivots:  # free variables stay unflipped
        if pd:
            flips |= 1 << pb
    out = dict(logs)
    for i, p in enumerate(even):
        if flips >> i & 1:
            out[p] = logs[p] + (q - 1)
    return out


def _try_embedding(torsion_lcm: int, needed: Mapping[int, int], q: int) -> ModularEmbedding | None:
    if (q - 1) % torsion_lcm != 0:
        return None
    if any(p % q == 0 for p in needed):
        return None
    g = _generator_mod(q, factors := _factor(q - 1))
    ps = sorted(needed)
    logs = dict(zip(ps, _discrete_logs(q, g, [p % q for p in ps], factors)))
    if any(logs[p] % needed[p] for p in ps):
        return None
    logs = _consistent_branches(needed, logs, torsion_lcm, q, g)
    if logs is None:
        return None
    emb = ModularEmbedding(q, g, torsion_lcm, tuple(sorted(logs.items())))
    # homomorphism spot-checks on the generators
    for p in logs:
        assert emb.embed(KummerNumber.from_rational(p)) == p % q
    if torsion_lcm > 1:
        z = emb.embed(KummerNumber.root_of_unity(torsion_lcm))
        assert pow(z, torsion_lcm, q) == 1 and all(
            pow(z, torsion_lcm // f, q) != 1 for f in (2, 3, 5, 7, 11) if torsion_lcm % f == 0
        )
    return emb


def build_embedding(
    torsion_lcm: int, needed: Mapping[int, int], rng: random.Random, retries: int = 32
) -> tuple[ModularEmbedding, int]:
    """Construct an embedding, retrying over random admissible primes.

    The values to embed are described by the lcm of their torsion orders and,
    for each base prime p, the lcm N_p of its exponent denominators
    (:func:`torusdyn.kummer.layer_orders`).  Admissibility of q (every base
    prime an N_p-th power residue) is decided by one modular exponentiation
    per base prime, so the scan can afford the roughly prod(N_p) candidates it
    takes to find an admissible one; the expensive generator/discrete-log
    construction only runs on survivors.  Returns (embedding, admissible
    primes tried).  Raises OracleError when the budget is exhausted.
    """
    step = math.lcm(torsion_lcm, *needed.values())
    expected = math.prod(needed.values())
    t_lo = max(2, (1 << 20) // step)
    span = max(1 << 14, 512 * expected)
    t = rng.randrange(t_lo, t_lo + span)
    wrap = t_lo + 2 * span
    attempts = 0
    scanned = 0
    scan_cap = 8 * span
    while attempts < retries and scanned < scan_cap:
        scanned += 1
        q = step * t + 1
        t = t + 1 if t + 1 < wrap else t_lo
        if not is_prime(q):
            continue
        if any(p % q == 0 or pow(p, (q - 1) // n_p, q) != 1 for p, n_p in needed.items()):
            continue
        attempts += 1
        emb = _try_embedding(torsion_lcm, needed, q)
        if emb is not None:
            return emb, attempts
    raise OracleError(f"no admissible prime found ({attempts} candidates in {scanned} scanned)")


# -- hypersurface containment refutation ----------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of the low-degree hypersurface test.

    NOT_CONTAINED certifies (through a modular specialization) that no
    nonzero polynomial of total degree <= degree_bound vanishes on all the
    points.  UNDECIDED is always inconclusive, never a containment claim.
    """

    status: str
    degree_bound: int
    point_count: int
    monomial_count: int
    prime: int | None
    rank: int | None
    attempts: int

    @property
    def not_contained(self) -> bool:
        return self.status == "NOT_CONTAINED"


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials in n variables of total degree <= degree, sorted."""
    out = []
    # a multiset of `degree` indices from 0..n; index n is the slack left below the bound
    for combo in itertools.combinations_with_replacement(range(n + 1), degree):
        e = [0] * (n + 1)
        for i in combo:
            e[i] += 1
        out.append(tuple(e[:n]))
    return sorted(out)


def _monomial_steps(monos: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """For each monomial after the constant one (monos[0]), a pair (parent, j)
    with monos[k] = monos[parent] * x_j and parent < k.

    Lowering the first nonzero exponent gives a lexicographically smaller
    tuple, so in sorted order the parent always comes first.
    """
    index = {m: k for k, m in enumerate(monos)}
    steps = []
    for m in monos[1:]:
        j = next(i for i, e in enumerate(m) if e)
        steps.append((index[m[:j] + (m[j] - 1,) + m[j + 1 :]], j))
    return steps


def _rank_mod(rows: Iterable[Sequence[int]], q: int) -> int:
    """Rank modulo the prime q by row echelon reduction, one row at a time.

    Rows may come from any iterable; none is pulled once the rank equals the
    column count.  Each row is packed into one integer, column j in the j-th
    slot of w = 2 * bitlen(q) + bitlen(ncols) + 1 bits, entries reduced into
    [0, q).  With x the lowest slot mod q, column j is cleared by adding
    (q - x) times the pivot row of column j (packed from column j on, scaled
    to 1 there), which makes the lowest slot a multiple of q; that slot is
    then shifted off.  No slot can carry into the next: it starts below q and
    takes at most ncols additions, each below q^2, so it stays below
    (ncols + 1) * q^2 < 2^(w - 1).  A row that meets a column without a pivot
    has its remaining slots reduced and scaled into the new pivot.
    """
    pivots: list[int | None] = []  # column j -> packed row[j:] mod q, scaled to 1 at j
    rank = 0
    for row in rows:
        if not pivots:
            ncols = len(row)
            if not ncols:
                break
            w = 2 * q.bit_length() + ncols.bit_length() + 1
            mask = (1 << w) - 1
            pivots = [None] * ncols
        r = 0
        for v in reversed(row):
            r = r << w | v % q
        for j in range(ncols):
            x = (r & mask) % q
            if x:
                piv = pivots[j]
                if piv is None:
                    inv = pow(x, -1, q)
                    slots = []
                    for _ in range(j, ncols):
                        slots.append((r & mask) * inv % q)
                        r >>= w
                    piv = 0
                    for v in reversed(slots):
                        piv = piv << w | v
                    pivots[j] = piv
                    rank += 1
                    break
                r += (q - x) * piv
            r >>= w
        if rank == ncols:
            break
    return rank


def _evaluation_rows(
    den: int, primes: tuple[int, ...], points: list[PointLayers], steps: list[tuple[int, int]], emb: ModularEmbedding,
    anchor: PointLayers | None = None, orders: tuple[int, Mapping[int, int]] | None = None,
) -> Iterator[list[int]]:
    """The embedded monomial values at each layered point less the anchor, columns in _monomials order.

    A coordinate with torsion t and prime exponents e_p (all over den) embeds
    as g^((t * (q - 1) + sum_p e_p * log_p) / den).  Before this returns, the
    divisibility is checked once per layer against the points' orders
    (``orders``, or :func:`torusdyn.kummer.layer_orders` of the points less
    the anchor): q - 1 is divisible by the torsion lcm, and every prime whose
    layer is nonzero has a log divisible by its N_p.  Every entry of layer k
    is a multiple of den / N_k, so every exponent sum of every point, read or
    not, is divisible by den.  A point's exponents and its row (n powers and
    one product per monomial) are computed only when the caller reads it.
    """
    q, g = emb.prime, emb.generator
    logs = dict(emb.prime_logs)
    torsion_lcm, needed = orders or layer_orders(den, primes, points, anchor)
    assert (q - 1) % torsion_lcm == 0 and all(p in logs and logs[p] % n_p == 0 for p, n_p in needed.items())
    weights = [q - 1] + [logs.get(p, 0) for p in primes]  # a prime without a log has a zero layer less the anchor
    # the anchor's exponent sums, taken off each point's before dividing by den
    shift = itertools.repeat(0) if anchor is None else [sum(map(mul, weights, column)) for column in zip(*anchor)]

    def row(layers: PointLayers) -> list[int]:
        es = [(sum(map(mul, weights, column)) - s) // den % (q - 1) for column, s in zip(zip(*layers), shift)]
        xs = [pow(g, e, q) for e in es]
        out = [1]
        for parent, j in steps:
            out.append(out[parent] * xs[j] % q)
        return out

    return map(row, points)


def hypersurface_containment(
    sample: tuple[int, tuple[int, ...], list[PointLayers]], degree_bound: int, seed: int = 0, retries: int = 32
) -> ContainmentResult:
    """One-sided test that no hypersurface of bounded degree contains all points.

    The points come as exponent layers ``(den, primes, layers)``, from
    :func:`torusdyn.dynamics.sample_family_points` or
    :func:`torusdyn.kummer.layers_of`.  The monomial evaluation matrix (rows
    = points, columns = monomials of total degree <= degree_bound, constants
    included) is pushed through a modular embedding; full column rank modulo
    the chosen prime refutes any vanishing relation in characteristic zero.
    Rank deficits trigger a retry with a fresh prime and finally UNDECIDED.
    Too few points, or a shifted sample past TORSION_LCM_CAP or
    RADICAL_COST_CAP, is UNDECIDED with no prime tried.

    Each coordinate is embedded straight from its layers and every matrix
    entry is one modular product of an earlier entry of its row with one
    coordinate.  The embedding is a homomorphism on the group the
    coordinates generate (every discrete log is divisible by the exponent
    denominators it meets), so the entries equal the embedded monomial
    values.  The shifted sample's layer orders are read in one gcd pass over
    point - first point, without a shifted copy; that divisibility is checked
    once per layer against them, which covers every point read or not.  A
    point's exponents and row are only computed when the packed elimination
    of :func:`_rank_mod` pulls it, and it pulls none past full column rank
    (often little more than one row per monomial).  The rank, and so the
    result, does not depend on how many rows are read.
    """
    den, primes, layers = sample
    if not layers:
        raise PreconditionError("need at least one point")
    if degree_bound < 1:
        raise PreconditionError("degree bound must be >= 1")
    n = len(layers[0][0])
    if any(len(x[0]) != n for x in layers):
        raise PreconditionError("points of mixed dimension")
    # translating the whole configuration by a fixed torus element maps the
    # degree <= D hypersurfaces bijectively onto themselves, so dividing out
    # the first point preserves the verdict while cancelling shared radicals
    orders = torsion_lcm, needed = layer_orders(den, primes, layers, layers[0])
    count = math.comb(n + degree_bound, n)  # counted before listing them, which a large D makes infeasible
    if len(layers) < count or torsion_lcm > TORSION_LCM_CAP or math.prod(needed.values()) > RADICAL_COST_CAP:
        return ContainmentResult("UNDECIDED", degree_bound, len(layers), count, None, None, 0)
    monos = _monomials(n, degree_bound)
    steps = _monomial_steps(monos)
    rng = random.Random(seed)
    attempts = 0
    while attempts < retries:
        try:
            emb, used = build_embedding(torsion_lcm, needed, rng, retries - attempts)
        except OracleError:
            break
        attempts += used
        rank = _rank_mod(_evaluation_rows(den, primes, layers, steps, emb, layers[0], orders), emb.prime)
        if rank == len(monos):
            return ContainmentResult(
                "NOT_CONTAINED", degree_bound, len(layers), len(monos), emb.prime, rank, attempts
            )
    return ContainmentResult("UNDECIDED", degree_bound, len(layers), len(monos), None, None, attempts)


# -- exact orbit prefixes ---------------------------------------------------------------


def orbit_sample(phi: AffineMonomialMap, x: Point, n: int) -> list[Point]:
    """The exact orbit prefix x, phi(x), ..., phi^(n-1)(x)."""
    if n < 1:
        raise PreconditionError("orbit length must be >= 1")
    return phi.orbit(x, n)


# -- brute-force invariant coset search ---------------------------------------------------


def _hnf_lattices_bounded(n: int, cap: int):
    """All nonzero sublattices of Z^n with canonical HNF entries bounded by cap
    (and determinant <= cap when full rank).  Exponential in n; a desk-scale
    device for n <= 3.

    Enumeration is directly over canonical Hermite forms: pick pivot columns,
    positive pivot values <= cap, entries above a later pivot reduced into
    [0, that pivot), and free entries in [-cap, cap].
    """
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            for piv_vals in itertools.product(range(1, cap + 1), repeat=k):
                if k == n:
                    det = math.prod(piv_vals)
                    if det > cap:
                        continue
                per_row = []
                for i in range(k):
                    choices = []
                    for col in range(pivots[i] + 1, n):
                        if col in pivots:
                            choices.append(range(0, piv_vals[pivots.index(col)]))
                        else:
                            choices.append(range(-cap, cap + 1))
                    per_row.append(list(itertools.product(*choices)))
                for tails in itertools.product(*per_row):
                    rows = tuple(
                        (0,) * pivots[i] + (piv_vals[i],) + tuple(tails[i]) for i in range(k)
                    )
                    yield Lattice(n, rows)


def _solvable_over_divisible(m: IntMatrix, rhs: list[KummerNumber]) -> bool:
    """Whether m * e(c) = exponents(rhs) has a solution point c, layer by layer."""
    den, _, ((tors, *exps),) = layers_of([rhs])
    if any(solve_rational(m, layer) is None for layer in exps):
        return False
    return all(sum(u * t for u, t in zip(row, tors)) % den == 0 for row in left_kernel_saturated(m).basis)


def invariant_coset_search(
    phi: AffineMonomialMap, index_cap: int, extra_periods: int = 12, iterate_cap: int = 360
) -> list[tuple[Lattice, int]]:
    """Exhaustively search for periodic cosets of bounded complexity.

    Candidate annihilator lattices run over every nonzero sublattice of the
    character lattice with HNF entries (and full-rank index) bounded by
    index_cap; candidate periods over the fixed-character iterate set plus
    1..extra_periods.  A pair (L, l) is reported when the subgroup cut out by
    L satisfies L*A^l = L and the coset equation phi^l(c*H) = c*H is solvable
    for some base point c, decided exactly over the divisible coordinate
    group.  An empty result certifies that no invariant proper coset (hence
    no proper invariant subvariety built from them) exists at this scale.
    """
    n = phi.dim
    a = phi.matrix
    factors, _ = cyclotomic_part(charpoly(a))
    periods = set(range(1, extra_periods + 1))
    if factors:
        periods.update(divisors(math.lcm(*(d for d, _ in factors))))
    periods = sorted(ell for ell in periods if ell <= iterate_cap)
    eye = IntMatrix.identity(n)
    per_ell = []
    for ell in periods:
        it = phi.iterate(ell)
        den, _, ((tors, *exps),) = layers_of([it.translation])
        per_ell.append((ell, it.matrix, it.matrix - eye, it.translation, den, exps, tors))
    found: list[tuple[Lattice, int]] = []
    for lat in _hnf_lattices_bounded(n, index_cap):
        basis = lat.basis
        for ell, alc, alc_m1, gamma_l, den, exps, tors in per_ell:
            moved = Lattice.from_rows(n, [vec_mat(b, alc) for b in basis])
            if moved != lat:
                continue
            m_rows = [vec_mat(b, alc_m1) for b in basis]
            if all(x == 0 for row in m_rows for x in row):
                # the coset equation degenerates to chi_b(gamma_l) = 1 for all b
                ok = all(
                    all(sum(x * e for x, e in zip(b, layer)) == 0 for layer in exps)
                    and sum(x * t for x, t in zip(b, tors)) % den == 0
                    for b in basis
                )
            else:
                m = IntMatrix.from_rows(m_rows, n)
                rhs = [char_eval(gamma_l, b).inverse() for b in basis]
                ok = _solvable_over_divisible(m, rhs)
            if ok:
                found.append((lat, ell))
                break
    return found
