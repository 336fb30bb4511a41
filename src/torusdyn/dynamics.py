"""The classification pipeline for affine monomial dynamics.

Given phi(x) = gamma * x^A on the rank-n torus, this module decides the
dynamical degree exactly, searches for an invariant monomial fibration,
certifies wildness of degree-one automorphisms, splits degree->1 maps into a
unipotent and a hyperbolic factor, generates Zariski-dense families of
invariant cosets, and assembles everything into a machine-checkable report.

All certificates are exact: a fibration witness B satisfies B*(A^l - I) = 0
and chi_B(gamma_l) = 1 on the nose; emitted coset families are closed cycles
under exact coset images.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import PreconditionError
from .intlinalg import (
    IntMatrix,
    Lattice,
    charpoly,
    evaluate_poly,
    lattice_intersection,
    lattice_sum,
    left_kernel_saturated,
    mat_vec,
    minpoly,
    rational_rank,
    right_kernel_matrix,
    solve_mod,
    solve_rational,
    vec_mat,
)
from .kummer import KummerNumber, Point, PointLayers, char_eval, from_layers, layer_orders, layers_of, one_point
from .polyalg import IntPoly, cyclotomic_part, divisors, quasi_unipotence, spectral_radius
from .torus import (
    AffineMonomialMap,
    Coset,
    Subtorus,
    image_subtorus,
    monomial_image,
    quotient_map,
    restrict_endomorphism,
    subtorus_image_under,
)
from . import oracle


@dataclass(frozen=True)
class ClassifyConfig:
    iterate_cap: int = 360
    degree_bound: int = 3
    torsion_cap: int = 50
    seed: int = 0
    retries: int = 32
    rel_tol: Fraction = Fraction(1, 1000)
    family_budget: int = 40
    point_budget: int = 200
    force_family: bool = False


# -- dynamical degree ---------------------------------------------------------


@dataclass(frozen=True)
class DynamicalDegree:
    """Exact degree-one certificate (l, m) with (A^l - I)^m = 0, or a >1 interval."""

    exact_one: bool
    certificate: tuple[int, int] | None
    interval: tuple[Fraction, Fraction] | None

    def __str__(self) -> str:
        if self.exact_one:
            return f"1 (exactly; (A^{self.certificate[0]} - I)^{self.certificate[1]} = 0)"
        lo, hi = self.interval
        return f"[{float(lo):.9g}, {float(hi):.9g}]"


def dynamical_degree(phi: AffineMonomialMap, rel_tol: Fraction = Fraction(1, 1000)) -> DynamicalDegree:
    """Decide the dynamical degree: exactly 1, or a certified interval above 1.

    The exact branch never consults numerics; the interval branch tightens the
    tolerance until the lower bound clears 1 (two retries, then an error).
    """
    qu = quasi_unipotence(minpoly(phi.matrix))
    if qu is not None:
        return DynamicalDegree(True, qu, None)
    cp = charpoly(phi.matrix)
    tol = Fraction(rel_tol)
    for _ in range(3):
        lo, hi = spectral_radius(cp, tol)
        if lo > 1:
            return DynamicalDegree(False, None, (lo, hi))
        tol /= 100
    raise ArithmeticError("failed to separate the spectral radius from 1")


# -- invariant fibrations -------------------------------------------------------


@dataclass(frozen=True)
class FibrationWitness:
    """Nonzero character B and iterate l with chi_B o phi^l = chi_B.

    ``lattice`` collects every such character found at this iterate; the
    witness is its first HNF basis vector.
    """

    iterate: int
    character: tuple[int, ...]
    lattice: Lattice

    def verify(self, phi: AffineMonomialMap) -> bool:
        n = phi.dim
        fixed = vec_mat(self.character, phi.matrix**self.iterate - IntMatrix.identity(n))
        if any(fixed):
            return False
        return char_eval(phi.iterate(self.iterate).translation, self.character).is_one()


def _fixed_character_lattice(phi: AffineMonomialMap, ell: int) -> Lattice:
    """All characters b with b*(A^l - I) = 0 and chi_b(gamma_l) = 1, as a lattice.

    The condition chi_b(gamma_l) = 1 splits per exponent layer: one rational
    linear equation per prime occurring in gamma_l, plus one congruence for
    the torsion parts.
    """
    a = phi.matrix
    n = phi.dim
    kernel = left_kernel_saturated(a**ell - IntMatrix.identity(n))
    s = kernel.rank
    if s == 0:
        return Lattice.zero(n)
    gamma = phi.iterate(ell).translation
    basis = kernel.basis  # s rows of length n

    # prime layers: integer matrix whose right kernel is {c : chi_{c*B}(gamma) has no prime part}
    prime_rows: list[list[int]] = []
    for p in sorted({q for coord in gamma for q in coord.prime_support()}):
        exps = [coord.prime_exponent(p) for coord in gamma]
        vals = [sum(row[j] * exps[j] for j in range(n)) for row in basis]
        den = math.lcm(*(v.denominator for v in vals))
        prime_rows.append([int(v * den) for v in vals])
    if prime_rows:
        c_lat = left_kernel_saturated(IntMatrix.from_rows(prime_rows, s).transpose())
    else:
        c_lat = Lattice.full(s)
    r = c_lat.rank
    if r == 0:
        return Lattice.zero(n)

    # torsion layer: congruence sum_m u_m v_m = 0 (mod 1) over the c-lattice
    w = [sum(row[j] * gamma[j].torsion for j in range(n)) for row in basis]
    v = [sum(crow[i] * w[i] for i in range(s)) for crow in c_lat.basis]
    delta = math.lcm(*(x.denominator for x in v))
    if delta == 1:
        u_rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    else:
        vint = [int(x * delta) for x in v]
        sol = solve_mod(IntMatrix.from_rows([vint], r), [0], delta)
        assert sol is not None  # homogeneous systems are always solvable
        u_rows = [list(g) for g in sol.kernel_gens]
        u_rows.extend([delta if i == j else 0 for j in range(r)] for i in range(r))
    rows = [vec_mat(vec_mat(u, c_lat.basis_matrix()), IntMatrix.from_rows(basis, n)) for u in u_rows]
    return Lattice.from_rows(n, rows)


def find_invariant_fibration(phi: AffineMonomialMap, iterate_cap: int = 360) -> FibrationWitness | None:
    """Search for a monomial function invariant under some iterate of phi.

    Only iterates l for which A^l can fix a character matter: the divisors of
    the lcm of the cyclotomic orders in charpoly(A), capped by iterate_cap.
    The smallest working iterate is returned.
    """
    factors, _ = cyclotomic_part(charpoly(phi.matrix))
    if not factors:
        return None
    big = math.lcm(*(d for d, _ in factors))
    for ell in divisors(big):
        if ell > iterate_cap:
            continue
        lat = _fixed_character_lattice(phi, ell)
        if lat.rank > 0:
            return FibrationWitness(ell, lat.basis[0], lat)
    return None


# -- wildness ------------------------------------------------------------------


@dataclass(frozen=True)
class WildnessCertificate:
    """Density analysis of the translation class modulo the unipotent image.

    ``projection`` maps onto the quotient by the image of A^l - I; the cyclic
    group generated by ``gamma_bar`` is Zariski dense exactly when the
    rational kernel of the prime-exponent matrix is zero, in which case the
    map is wild (every orbit is Zariski dense).  Otherwise ``refutation``
    holds a character c with chi_c(gamma_bar) a root of unity.
    """

    iterate: int
    nilpotency: int
    projection: IntMatrix
    gamma_bar: Point
    primes: tuple[int, ...]
    exponent_matrix: tuple[tuple[Fraction, ...], ...]
    dense: bool
    refutation: tuple[int, ...] | None


def wildness_certificate(phi: AffineMonomialMap) -> WildnessCertificate:
    """Certify (or refute) wildness of a degree-one automorphism."""
    qu = quasi_unipotence(minpoly(phi.matrix))
    if qu is None:
        raise PreconditionError("wildness analysis requires dynamical degree exactly 1")
    if not phi.is_automorphism:
        raise PreconditionError("wildness analysis requires an automorphism (|det A| = 1)")
    ell, m = qu
    phil = phi.iterate(ell)
    nilp = phil.matrix - IntMatrix.identity(phi.dim)
    assert (nilp**m).is_zero()
    proj, r = quotient_map(image_subtorus(nilp))
    gamma_bar = monomial_image(proj, phil.translation)
    primes = tuple(sorted({p for coord in gamma_bar for p in coord.prime_support()}))
    emat = tuple(tuple(coord.prime_exponent(p) for coord in gamma_bar) for p in primes)
    dense = r == 0 or rational_rank(emat) == r
    refutation = None
    if not dense:
        if emat:
            dens = [math.lcm(*(f.denominator for f in row)) for row in emat]
            int_rows = [[int(f * d) for f in row] for row, d in zip(emat, dens)]
            ker = right_kernel_matrix(IntMatrix.from_rows(int_rows, r))
            refutation = ker.col(0)
        else:
            refutation = tuple(1 if i == 0 else 0 for i in range(r))
    return WildnessCertificate(ell, m, proj, gamma_bar, primes, emat, dense, refutation)


# -- decomposition ---------------------------------------------------------------


def _point_from_layers(n: int, torsion, prime_exps: dict[int, list[Fraction]]) -> Point:
    return tuple(
        KummerNumber.build(torsion[j], {p: exps[j] for p, exps in prime_exps.items()})
        for j in range(n)
    )


@dataclass(frozen=True)
class Decomposition:
    """Splitting of a degree->1 iterate into unipotent and hyperbolic factors.

    ``base_map`` is phi^normalize_iterate, whose minimal polynomial is
    (x-1)^unipotent_multiplicity * hyperbolic_factor with the hyperbolic
    factor free of roots of unity.  x1 carries the unipotent part, x2 the
    hyperbolic part; conjugating by beta2 turns the x2 component into the
    pure endomorphism x -> x^a2.
    """

    base_map: AffineMonomialMap
    normalize_iterate: int
    unipotent_multiplicity: int
    hyperbolic_factor: IntPoly
    x1: Subtorus
    x2: Subtorus
    gamma1: Point
    gamma2: Point
    a1: IntMatrix
    a2: IntMatrix
    phi1: AffineMonomialMap
    phi2: AffineMonomialMap
    beta2: Point
    beta2_embedded: Point
    conjugated_phi2: AffineMonomialMap

    def iota(self, s: Point, t: Point) -> Point:
        """The isogeny (s, t) -> x1(s) * x2(t) onto the ambient torus."""
        a = self.x1.embed(s)
        b = self.x2.embed(t)
        return tuple(u * v for u, v in zip(a, b))


def decompose(phi: AffineMonomialMap) -> Decomposition:
    """Split phi (after a normalizing iterate) along the multiplicity of eigenvalue 1."""
    mp = minpoly(phi.matrix)
    if quasi_unipotence(mp) is not None:
        raise PreconditionError("decomposition requires dynamical degree > 1")
    factors, _ = cyclotomic_part(mp)
    l0 = math.lcm(*(d for d, _ in factors)) if factors else 1
    base = phi.iterate(l0) if l0 > 1 else phi
    a = base.matrix
    n = phi.dim

    p = minpoly(a)
    r = 0
    q = p
    while True:
        q2 = q.try_divide(IntPoly.from_coeffs([-1, 1]))
        if q2 is None:
            break
        q = q2
        r += 1
    assert cyclotomic_part(q)[0] == (), "hyperbolic factor must be free of roots of unity"

    x2 = image_subtorus(evaluate_poly(IntPoly.from_coeffs([-1, 1]) ** r, a))
    x1 = image_subtorus(evaluate_poly(q, a))
    assert lattice_intersection(x1.annihilator, x2.annihilator).rank == 0
    assert lattice_sum(x1.annihilator, x2.annihilator).rank == n

    v1, v2 = x1.cochar_basis, x2.cochar_basis
    k1, k2 = v1.cols, v2.cols
    assert k1 + k2 == n
    joint = IntMatrix.from_rows(
        [[v1[i, j] for j in range(k1)] + [v2[i, j] for j in range(k2)] for i in range(n)], n
    )

    # split gamma = gamma1 * gamma2 layer by layer in exponent space
    gamma = base.translation
    wt = solve_rational(joint, [c.torsion for c in gamma])
    assert wt is not None
    support = sorted({p_ for c in gamma for p_ in c.prime_support()})
    wp = {}
    for p_ in support:
        sol = solve_rational(joint, [c.prime_exponent(p_) for c in gamma])
        assert sol is not None
        wp[p_] = sol
    t1 = mat_vec(v1, wt[:k1])
    t2 = mat_vec(v2, wt[k1:])
    e1 = {p_: list(mat_vec(v1, wp[p_][:k1])) for p_ in support}
    e2 = {p_: list(mat_vec(v2, wp[p_][k1:])) for p_ in support}
    gamma1 = _point_from_layers(n, t1, e1)
    gamma2 = _point_from_layers(n, t2, e2)
    assert tuple(u * v for u, v in zip(gamma1, gamma2)) == gamma
    assert x1.contains(gamma1) and x2.contains(gamma2)

    a1 = restrict_endomorphism(a, x1)
    a2 = restrict_endomorphism(a, x2)
    assert a1 is not None and a2 is not None
    assert minpoly(a1) == IntPoly.from_coeffs([-1, 1]) ** r
    assert minpoly(a2) == q

    s1 = x1.coordinates_of(gamma1)
    s2 = x2.coordinates_of(gamma2)
    phi1 = AffineMonomialMap(a1, s1)
    phi2 = AffineMonomialMap(a2, s2)

    # beta2 with beta2^(a2 - I) = s2; a2 - I is invertible over Q because q(1) != 0
    m2 = a2 - IntMatrix.identity(k2)
    yt = solve_rational(m2, [c.torsion for c in s2])
    assert yt is not None
    ye = {}
    for p_ in sorted({q_ for c in s2 for q_ in c.prime_support()}):
        sol = solve_rational(m2, [c.prime_exponent(p_) for c in s2])
        assert sol is not None
        ye[p_] = list(sol)
    beta2 = _point_from_layers(k2, yt, ye)
    assert monomial_image(m2, beta2) == s2
    beta2_embedded = x2.embed(beta2)

    ident = one_point(k2)
    t_b = AffineMonomialMap(IntMatrix.identity(k2), beta2)
    t_b_inv = AffineMonomialMap(IntMatrix.identity(k2), tuple(c.inverse() for c in beta2))
    conj = t_b.compose(phi2.compose(t_b_inv))
    assert conj.translation == ident, "conjugation must remove the translation"
    assert conj.matrix.entries == a2.entries

    return Decomposition(
        base_map=base,
        normalize_iterate=l0,
        unipotent_multiplicity=r,
        hyperbolic_factor=q,
        x1=x1,
        x2=x2,
        gamma1=gamma1,
        gamma2=gamma2,
        a1=a1,
        a2=a2,
        phi1=phi1,
        phi2=phi2,
        beta2=beta2,
        beta2_embedded=beta2_embedded,
        conjugated_phi2=conj,
    )


# -- periodic torsion points -----------------------------------------------------


def periodic_torsion_points(a2: IntMatrix, d: int, budget: int = 200) -> list[tuple[Point, int]]:
    """Torsion points of order dividing d with their exact periods under x -> x^a2.

    Requires gcd(d, |det a2|) = 1 so every such point is periodic.  Each
    returned pair is re-verified by exact iteration.
    """
    if a2.rows != a2.cols:
        raise PreconditionError("endomorphism matrix must be square")
    if d < 1:
        raise PreconditionError("torsion order must be positive")
    if math.gcd(d, abs(a2.det())) != 1:
        raise PreconditionError(f"torsion order {d} shares a factor with |det| = {abs(a2.det())}")
    k = a2.rows
    pure = AffineMonomialMap(a2, one_point(k))
    out: list[tuple[Point, int]] = []
    for u in itertools.product(range(d), repeat=k):
        if len(out) >= budget:
            break
        period = 1
        v = tuple(x % d for x in mat_vec(a2, u))
        while v != u:
            v = tuple(x % d for x in mat_vec(a2, v))
            period += 1
        point = tuple(KummerNumber.build(Fraction(x, d), {}) for x in u)
        cur = point
        for _ in range(period):
            cur = pure.apply(cur)
        assert cur == point, "period verification failed"
        out.append((point, period))
    return out


# -- invariant families ------------------------------------------------------------


@dataclass(frozen=True)
class CosetFamily:
    """A cycle of cosets whose union is invariant under the original map.

    The cycle arises from one orbit of torsion points of exact order
    ``torsion_order`` in the hyperbolic factor; phi maps each coset onto the
    next, cyclically.
    """

    torsion_order: int
    orbit_exponents: tuple[tuple[int, ...], ...]
    cycle: tuple[Coset, ...]


def _torsion_orbits_exact_order(a2: IntMatrix, d: int) -> Iterator[list[tuple[int, ...]]]:
    """Orbits of u -> a2*u on (Z/d)^k restricted to elements of exact order d.

    Lazy, so a caller that stops early never enumerates the rest of (Z/d)^k.
    """
    k = a2.rows
    if d == 1:
        yield [(0,) * k]
        return
    rows = a2.to_rows()
    seen: set[tuple[int, ...]] = set()
    for u in itertools.product(range(d), repeat=k):
        if u in seen or math.gcd(math.gcd(*u), d) != 1:
            continue
        orbit = [u]
        v = tuple(sum(a * x for a, x in zip(row, u)) % d for row in rows)
        while v != u:
            orbit.append(v)
            v = tuple(sum(a * x for a, x in zip(row, v)) % d for row in rows)
        seen.update(orbit)
        yield orbit


def _affine_step(rows: list[list[int]], den: int, x: PointLayers, g: PointLayers) -> PointLayers:
    """gamma * x^A on exponent layers: one integer mat-vec per layer, torsion mod den."""
    tors = [(sum(a * v for a, v in zip(row, x[0])) + c) % den for row, c in zip(rows, g[0])]
    return [tors] + [
        [sum(a * v for a, v in zip(row, e)) + c for row, c in zip(rows, ge)] for e, ge in zip(x[1:], g[1:])
    ]


def _project(rows: list[list[int]] | None, den: int, x: PointLayers) -> PointLayers:
    """The character values of x under the given rows (None: x itself), layer by layer."""
    if rows is None:
        return x
    return [[sum(a * v for a, v in zip(row, x[0])) % den for row in rows]] + [
        [sum(a * v for a, v in zip(row, e)) for row in rows] for e in x[1:]
    ]


def _lowest_terms(den: int, x: PointLayers) -> tuple:
    """Layers over the smallest denominator that carries them, as a hashable value."""
    g = math.gcd(den, *(v for layer in x for v in layer))
    return (den // g, tuple(tuple(v // g for v in layer) for layer in x))


def invariant_family(
    phi: AffineMonomialMap, budget: int, torsion_cap: int = 50
) -> list[CosetFamily]:
    """Generate invariant coset families for a degree->1 map.

    Each torsion-point orbit of the hyperbolic factor transports to a cycle
    of translates of the unipotent subtorus x1.  phi carries x1 onto itself
    (checked once here), so the image of a coset is x1 translated by the
    image of its base, and the cycle is the orbit of the base on the exponent
    layers.  It closes when the base's projection to T/x1 (its character
    values under x1's annihilator basis) returns, which certifies invariance
    of the union; the same projections in lowest terms identify the cycle
    for deduplication.  Families are emitted by increasing torsion order
    until the budget is met.
    """
    if budget <= 0:
        return []
    dec = decompose(phi)
    if subtorus_image_under(phi.matrix, dec.x1) != dec.x1:
        raise AssertionError("the unipotent subtorus is not invariant under the map")
    det2 = abs(dec.a2.det())
    beta_inv = tuple(c.inverse() for c in dec.beta2_embedded)
    rows = phi.matrix.to_rows()
    # a trivial x1 has the identity as annihilator basis: T/x1 is T itself
    proj = None if dec.x1.dim == 0 else [list(b) for b in dec.x1.annihilator.basis]
    families: list[CosetFamily] = []
    seen: set = set()
    for d in range(1, torsion_cap + 1):
        if len(families) >= budget:
            break
        if math.gcd(d, det2) != 1:
            continue
        for orbit in _torsion_orbits_exact_order(dec.a2, d):
            t0 = tuple(KummerNumber.build(Fraction(x, d), {}) for x in orbit[0])
            base0 = tuple(u * v for u, v in zip(dec.x2.embed(t0), beta_inv))
            den, primes, (cur, gamma) = layers_of((base0, phi.translation))
            start = _project(proj, den, cur)
            bases, projections = [cur], [start]
            max_cycle = dec.normalize_iterate * len(orbit) + 1
            while True:
                cur = _affine_step(rows, den, cur, gamma)
                image = _project(proj, den, cur)
                if image == start:
                    break
                bases.append(cur)
                projections.append(image)
                if len(bases) > max_cycle:
                    raise AssertionError("coset cycle failed to close")
            # every orbit of this map has the same primes, so the keys compare
            key = frozenset(_lowest_terms(den, x) for x in projections)
            if key in seen:
                continue
            seen.add(key)
            cycle = tuple(Coset(from_layers(den, primes, b), dec.x1) for b in bases)
            families.append(CosetFamily(d, tuple(orbit), cycle))
            if len(families) >= budget:
                break
    return families


def sample_family_points(
    families: list[CosetFamily],
    seed: int,
    per_coset: int = 3,
    cap: int = 200,
    torsion_lcm_cap: int = 1_000_000,
    radical_cost_cap: int = 4000,
) -> list[Point]:
    """Deterministic sample of points on the family cosets (for density checks).

    Points whose torsion orders would push the pooled lcm past
    torsion_lcm_cap are skipped, keeping the modular density test's prime
    (q = 1 mod lcm) small; likewise the product of per-prime exponent
    denominators is capped, since that product is the expected number of
    candidate primes the embedding has to scan.  Low-order families supply
    more than enough points for the rank check.
    """
    rng = random.Random(seed)
    pts: list[Point] = []
    seen: set[Point] = set()
    pool_lcm = 1
    denoms: dict[int, int] = {}
    anchor: Point | None = None

    def push(p: Point) -> bool:
        # cost accounting mirrors the density test, which divides the pool by
        # its first point before embedding
        nonlocal pool_lcm, anchor
        if p in seen:
            return False
        if anchor is None:
            anchor = p
        den, primes, (lp, la) = layers_of((p, anchor))
        rel = [[x - y for x, y in zip(u, v)] for u, v in zip(lp, la)]
        torsion_lcm, needed = layer_orders(den, primes, [rel])
        new_lcm = math.lcm(pool_lcm, torsion_lcm)
        new_denoms = dict(denoms)
        for q, n_q in needed.items():
            new_denoms[q] = math.lcm(new_denoms.get(q, 1), n_q)
        cost = math.prod(new_denoms.values())
        if new_lcm <= torsion_lcm_cap and cost <= radical_cost_cap:
            seen.add(p)
            pts.append(p)
            pool_lcm = new_lcm
            denoms.update(new_denoms)
        return len(pts) >= cap

    for fam in families:
        for c in fam.cycle:
            if push(c.base):
                return pts
            k = c.torus.dim
            if k == 0:
                continue  # a point coset: every sample is the base, and no seed is drawn
            for _ in range(per_coset - 1):
                seeds = tuple(
                    KummerNumber.from_rational(rng.choice([2, 3, 5, 7])) ** rng.randint(1, 3)
                    for _ in range(k)
                )
                if push(c.sample(seeds)):
                    return pts
    return pts


# -- the classifier ------------------------------------------------------------------


VERDICT_FIBRATION = "FIBRATION"
VERDICT_WILD = "DEGREE_ONE_WILD"
VERDICT_DENSE = "DEGREE_GT_ONE_DENSE_INVARIANTS"


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    degree: DynamicalDegree
    fibration: FibrationWitness | None
    wildness: WildnessCertificate | None
    family: tuple[CosetFamily, ...]
    density: "oracle.ContainmentResult | None"
    flags: tuple[str, ...]


def _family_with_density(phi: AffineMonomialMap, config: ClassifyConfig):
    families = invariant_family(phi, config.family_budget, config.torsion_cap)
    pts = sample_family_points(families, config.seed, cap=config.point_budget)
    density = oracle.hypersurface_containment(
        pts, config.degree_bound, seed=config.seed, retries=config.retries
    )
    return tuple(families), density


def classify(phi: AffineMonomialMap, config: ClassifyConfig = ClassifyConfig()) -> ClassificationReport:
    """Full classification with verifiable certificates.

    FIBRATION wins when an invariant monomial function exists; degree-one
    automorphisms without one are certified wild; degree->1 maps carry a
    dense invariant family (also attached to fibration verdicts when
    ``config.force_family`` is set).
    """
    degree = dynamical_degree(phi, config.rel_tol)
    fibration = find_invariant_fibration(phi, config.iterate_cap)
    wildness = None
    family: tuple[CosetFamily, ...] = ()
    density = None
    flags: list[str] = []

    if fibration is not None:
        verdict = VERDICT_FIBRATION
        if not degree.exact_one and config.force_family:
            family, density = _family_with_density(phi, config)
    elif degree.exact_one:
        verdict = VERDICT_WILD
        if phi.is_automorphism:
            wildness = wildness_certificate(phi)
            if not wildness.dense:
                # only reachable when the scan cap hid the witness iterate;
                # the refutation character scaled by its torsion order is one
                ell = wildness.iterate
                value = char_eval(wildness.gamma_bar, wildness.refutation)
                order = value.torsion_order()
                assert order is not None
                b = vec_mat([order * c for c in wildness.refutation], wildness.projection)
                fibration = FibrationWitness(ell, b, Lattice.from_rows(phi.dim, [b]))
                assert fibration.verify(phi)
                verdict = VERDICT_FIBRATION
                wildness = None
                flags.append(f"fibration witness found beyond iterate cap {config.iterate_cap}")
        else:
            flags.append(
                "degree one but not an automorphism: wildness certification "
                "is only available for automorphisms"
            )
    else:
        verdict = VERDICT_DENSE
        family, density = _family_with_density(phi, config)

    return ClassificationReport(
        verdict=verdict,
        degree=degree,
        fibration=fibration,
        wildness=wildness,
        family=family,
        density=density,
        flags=tuple(flags),
    )


# -- recursive fibration analysis ------------------------------------------------------


@dataclass(frozen=True)
class RecursionNode:
    """One level of the recursive invariant-locus analysis.

    At each node the map is normalized so its minimal polynomial has only 1
    among its roots of unity; if an invariant monomial function remains, the
    analysis restricts to the kernel subtorus of the (primitive) witness
    character and recurses, otherwise the node is a leaf carrying the
    classification verdict.  ``alternative`` is 1 when the dynamical degree
    exceeds one (dense proper invariant locus) and 2 when it equals one
    (closed invariant locus).
    """

    dim: int
    map: AffineMonomialMap
    normalize_iterate: int
    alternative: int
    witness: FibrationWitness | None
    restriction_iterate: int | None
    verdict: str | None
    depth_exhausted: bool
    child: "RecursionNode | None"


def _primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def recursive_classification(
    phi: AffineMonomialMap, depth_cap: int, config: ClassifyConfig = ClassifyConfig()
) -> RecursionNode:
    """Recursively peel invariant fibrations and classify the fibers."""
    if depth_cap < 1:
        raise PreconditionError("depth_cap must be >= 1")
    degree = dynamical_degree(phi, config.rel_tol)
    alternative = 2 if degree.exact_one else 1

    factors, _ = cyclotomic_part(minpoly(phi.matrix))
    l0 = math.lcm(*(d for d, _ in factors)) if factors else 1
    norm = phi.iterate(l0) if l0 > 1 else phi
    witness = find_invariant_fibration(norm, config.iterate_cap)

    verdict = q = child = None
    if witness is None:
        verdict = classify(phi, config).verdict
    else:
        assert witness.iterate == 1, "normalization leaves only iterate-1 witnesses"
        bprim = _primitive(witness.character)
        kernel_torus = Subtorus(phi.dim, Lattice.from_rows(phi.dim, [bprim]))
        zeta = char_eval(norm.translation, bprim)
        assert zeta.is_torsion()
        q = zeta.torsion_order()
        norm_q = norm.iterate(q) if q > 1 else norm
        a_e = restrict_endomorphism(norm_q.matrix, kernel_torus)
        assert a_e is not None
        g_e = kernel_torus.coordinates_of(norm_q.translation)
        if depth_cap > 1:
            child = recursive_classification(AffineMonomialMap(a_e, g_e), depth_cap - 1, config)
    return RecursionNode(
        dim=phi.dim,
        map=phi,
        normalize_iterate=l0,
        alternative=alternative,
        witness=witness,
        restriction_iterate=q,
        verdict=verdict,
        depth_exhausted=witness is not None and child is None,
        child=child,
    )
