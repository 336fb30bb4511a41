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
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import OracleError, PreconditionError
from .intlinalg import (
    IntMatrix,
    Lattice,
    charpoly,
    evaluate_poly,
    left_kernel_saturated,
    minpoly,
    right_kernel_matrix,
    solve_rational,
    vec_mat,
)
from .kummer import RADICAL_COST_CAP, TORSION_LCM_CAP
from .kummer import KummerNumber, Point, PointLayers, char_eval, from_layers, layers_of, one_point
from .polyalg import IntPoly, cyclotomic_part, divisors, quasi_unipotence, spectral_radius
from .record import Record
from .torus import (
    AffineMonomialMap,
    Coset,
    Subtorus,
    _iterate_layers,
    _prime_step,
    _torsion_step,
    image_subtorus,
    monomial_image,
    quotient_map,
    restrict_endomorphism,
)

if TYPE_CHECKING:  # the oracle loads when the density test first runs
    from .oracle import ContainmentResult


class ClassifyConfig(Record):
    iterate_cap: int = 360
    degree_bound: int = 3
    torsion_cap: int = 50
    seed: int = 0
    retries: int = 32
    rel_tol: Fraction = Fraction(1, 1000)
    family_budget: int = 40
    point_budget: int = 200
    force_family: bool = False


# -- spectral data ------------------------------------------------------------


class Spectrum(NamedTuple):
    """A matrix's minimal polynomial mu and mu's cyclotomic_part.

    classify computes these once and hands them to each stage; a stage
    called on its own computes them itself.
    """

    minpoly: IntPoly
    cyclotomic: tuple[tuple[tuple[int, int], ...], IntPoly]


def spectral_data(a: IntMatrix) -> Spectrum:
    mu = minpoly(a)
    return Spectrum(mu, cyclotomic_part(mu))


# -- dynamical degree ---------------------------------------------------------


class DynamicalDegree(Record):
    """Exact degree-one certificate (l, m) with (A^l - I)^m = 0, or a >1 interval."""

    exact_one: bool
    certificate: tuple[int, int] | None
    interval: tuple[Fraction, Fraction] | None

    def __str__(self) -> str:
        if self.exact_one:
            return f"1 (exactly; (A^{self.certificate[0]} - I)^{self.certificate[1]} = 0)"
        lo, hi = self.interval
        return f"[{float(lo):.9g}, {float(hi):.9g}]"


def dynamical_degree(
    phi: AffineMonomialMap, rel_tol: Fraction = Fraction(1, 1000), spectrum: Spectrum | None = None
) -> DynamicalDegree:
    """Decide the dynamical degree: exactly 1, or a certified interval above 1.

    The exact branch never consults numerics; the interval branch tightens the
    tolerance until the lower bound clears 1, then raises an OracleError.  The
    tries are rel_tol, rel_tol/100 and rel_tol/10^4, and then whichever of
    t/100 and t/10^4, for t = min(rel_tol, 1/1000), is finer still, so a
    large tolerance gets at least the retries the default one gets.
    """
    spectrum = spectrum or spectral_data(phi.matrix)
    qu = quasi_unipotence(spectrum.minpoly, spectrum.cyclotomic)
    if qu is not None:
        return DynamicalDegree(True, qu, None)
    cp = charpoly(phi.matrix)
    tol = Fraction(rel_tol)
    tries = [tol, tol / 100, tol / 10**4]
    start = min(tol, Fraction(1, 1000))
    tries += [t for t in (start / 100, start / 10**4) if t < tries[-1]]
    for t in tries:
        lo, hi = spectral_radius(cp, t)
        if lo > 1:
            return DynamicalDegree(False, None, (lo, hi))
    raise OracleError("failed to separate the spectral radius from 1")


# -- invariant fibrations -------------------------------------------------------


class FibrationWitness(Record):
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


def _fixed_character_lattice(
    phi: AffineMonomialMap, ell: int, gamma_layers: tuple[int, tuple[int, ...], list[PointLayers]] | None = None,
    iterate: tuple[IntMatrix, PointLayers] | None = None,
) -> Lattice:
    """All characters b with b*(A^l - I) = 0 and chi_b(gamma_l) = 1, as a lattice.

    On gamma_l's exponent layers over gamma's denominator den (``gamma_layers``,
    when the caller has split gamma once per search, and ``iterate``, (A^l,
    gamma_l's layers), when it has built them; any common denominator gives
    the same lattice) every condition is linear, so the lattice is the
    first n coordinates of the saturated left kernel of
    [[A^l - I | prime layers e | torsion layer t], [0 | 0 | den]]: a kernel
    row (b, y) means b*(A^l - I) = 0, b*e = 0 and b*t = -y*den.  No kernel
    row has its pivot at y, since y*den = 0 forces y = 0, so the projected
    rows are already the lattice's canonical Hermite basis.
    """
    n = phi.dim
    den, _, (layers,) = gamma_layers or layers_of([phi.translation])
    al, (tors, *exps) = iterate or _iterate_layers(phi.matrix, den, layers, ell)
    eqs = (al - IntMatrix.identity(n)).to_rows()
    rows = [[*eq, *(e[i] for e in exps), tors[i]] for i, eq in enumerate(eqs)]
    rows.append([0] * (n + len(exps)) + [den])
    kernel = left_kernel_saturated(IntMatrix(n + 1, n + len(exps) + 1, tuple(x for row in rows for x in row)))
    return Lattice(n, tuple(row[:n] for row in kernel.basis))


def find_invariant_fibration(
    phi: AffineMonomialMap, iterate_cap: int = 360, spectrum: Spectrum | None = None
) -> FibrationWitness | None:
    """Search for a monomial function invariant under some iterate of phi.

    Only iterates l for which A^l can fix a character matter: the divisors of
    the lcm of the cyclotomic orders in the minimal polynomial of A (the same
    orders as in charpoly(A), which has the same irreducible factors), capped
    by iterate_cap.  The smallest working iterate is returned.
    """
    factors, _ = (spectrum or spectral_data(phi.matrix)).cyclotomic
    if not factors:
        return None
    big = math.lcm(*(d for d, _ in factors))
    gamma_layers = den, _, (layers,) = layers_of([phi.translation])
    iterates = {1: (phi.matrix, layers)}  # phi^l is (phi^d)^(l/d) for the largest d | l built before l
    for ell in divisors(big):
        if ell > iterate_cap:
            break
        d = max(d for d in iterates if ell % d == 0)
        iterates[ell] = _iterate_layers(iterates[d][0], den, iterates[d][1], ell // d)
        lat = _fixed_character_lattice(phi, ell, gamma_layers, iterates[ell])
        if lat.rank > 0:
            return FibrationWitness(ell, lat.basis[0], lat)
    return None


# -- wildness ------------------------------------------------------------------


class WildnessCertificate(Record):
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


def wildness_certificate(phi: AffineMonomialMap, certificate: tuple[int, int] | None = None) -> WildnessCertificate:
    """Certify (or refute) wildness of a degree-one automorphism.

    ``certificate`` is the (l, m) of the exact degree-one certificate, when
    the caller has it.
    """
    qu = certificate or quasi_unipotence(minpoly(phi.matrix))
    if qu is None:
        raise PreconditionError("wildness analysis requires dynamical degree exactly 1")
    if not phi.is_automorphism:
        raise PreconditionError("wildness analysis requires an automorphism (|det A| = 1)")
    ell, m = qu
    phil = phi.iterate(ell)
    proj, r = quotient_map(image_subtorus(phil.matrix - IntMatrix.identity(phi.dim)))
    gamma_bar = monomial_image(proj, phil.translation)
    den, primes, ((_, *exps),) = layers_of([gamma_bar])
    emat = tuple(tuple(Fraction(e, den) for e in layer) for layer in exps)
    # with no prime layer every character refutes: the kernel is all of Z^r
    kernel = right_kernel_matrix(IntMatrix(len(exps), r, tuple(x for layer in exps for x in layer)))
    dense = kernel.cols == 0
    refutation = None if dense else kernel.col(0)
    return WildnessCertificate(ell, m, proj, gamma_bar, primes, emat, dense, refutation)


# -- decomposition ---------------------------------------------------------------


def _preimage(m: IntMatrix, x: Point) -> Point:
    """The point y with y^m = x, for m invertible over Q: one rational elimination, x's layers its right-hand sides."""
    den, primes, (layers,) = layers_of([x])
    sols = solve_rational(m, *layers) if len(layers) > 1 else [solve_rational(m, layers[0])]
    assert all(sol is not None for sol in sols)
    scale = math.lcm(*(c.denominator for sol in sols for c in sol))
    return from_layers(den * scale, primes, [[(c * scale).numerator for c in sol] for sol in sols])


class Decomposition(Record):
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


def decompose(phi: AffineMonomialMap, spectrum: Spectrum | None = None) -> Decomposition:
    """Split phi (after a normalizing iterate) along the multiplicity of eigenvalue 1."""
    spectrum = spectrum or spectral_data(phi.matrix)
    # l0, the lcm of the cyclotomic orders in the minimal polynomial, leaves 1
    # the only root of unity among the eigenvalues of phi^l0
    l0 = math.lcm(*(d for d, _ in spectrum.cyclotomic[0]))
    base = phi.iterate(l0)
    a = base.matrix
    n = phi.dim
    factors, q = (spectrum if l0 == 1 else spectral_data(a)).cyclotomic
    if q.is_one():
        raise PreconditionError("decomposition requires dynamical degree > 1")
    assert all(d == 1 for d, _ in factors), "normalization leaves 1 as the only root of unity"
    r = factors[0][1] if factors else 0

    x2 = image_subtorus(evaluate_poly(IntPoly.from_coeffs([-1, 1]) ** r, a))
    x1 = image_subtorus(evaluate_poly(q, a))

    v1, v2 = x1.cochar_basis, x2.cochar_basis
    k1, k2 = v1.cols, v2.cols
    joint = IntMatrix.from_rows([r1 + r2 for r1, r2 in zip(v1.to_rows(), v2.to_rows())], n)

    # split gamma = gamma1 * gamma2 through the coordinates along x1 and x2
    gamma = base.translation
    w = _preimage(joint, gamma)
    s1, s2 = w[:k1], w[k1:]
    gamma1 = x1.embed(s1)
    gamma2 = x2.embed(s2)

    a1 = restrict_endomorphism(a, x1)
    a2 = restrict_endomorphism(a, x2)
    assert a1 is not None and a2 is not None

    phi1 = AffineMonomialMap(a1, s1)
    phi2 = AffineMonomialMap(a2, s2)

    # beta2 with beta2^(a2 - I) = s2; a2 - I is invertible over Q because q(1) != 0
    m2 = a2 - IntMatrix.identity(k2)
    beta2 = _preimage(m2, s2)
    assert monomial_image(m2, beta2) == s2
    beta2_embedded = x2.embed(beta2)

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
        conjugated_phi2=AffineMonomialMap(a2, one_point(k2)),
    )


# -- periodic torsion points -----------------------------------------------------


# The longest cycle _cycle keeps.  Periods on (Z/d)^k grow with d: the cat map's reach about 2d for a prime d.
CYCLE_LENGTH_CAP = 10**6


def _cycle(rows: list[list[int]], d: int, u: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cycle of u under v -> rows * v mod d, in visiting order (rows invertible mod d).
    A cycle longer than CYCLE_LENGTH_CAP raises PreconditionError."""
    orbit = [u]
    while True:
        v = tuple(sum(map(mul, row, orbit[-1])) % d for row in rows)
        if v == u:
            return orbit
        if len(orbit) == CYCLE_LENGTH_CAP:
            raise PreconditionError(f"the cycle of {u} mod {d} is longer than CYCLE_LENGTH_CAP = {CYCLE_LENGTH_CAP}")
        orbit.append(v)


def _residue_vectors(d: int, k: int) -> Iterator[tuple[int, ...]]:
    """(Z/d)^k in the order of itertools.product(range(d), repeat=k), which would copy range(d) into a tuple."""
    return (head + (x,) for head in _residue_vectors(d, k - 1) for x in range(d)) if k else iter([()])


def periodic_torsion_points(a2: IntMatrix, d: int, budget: int = 200) -> list[tuple[Point, int]]:
    """Torsion points of order dividing d with their exact periods under x -> x^a2.

    Requires gcd(d, |det a2|) = 1 so every such point is periodic, and the
    points returned are the first ``budget`` of (Z/d)^k.  Each cycle is
    walked once: its length is recorded for those of its points that are
    among them, and a later point of the same cycle reads it back.  Each
    period is exact from the walk: the walk stops at the first k with
    a2^k u = u mod d, so k is u's period.
    """
    if a2.rows != a2.cols:
        raise PreconditionError("endomorphism matrix must be square")
    if d < 1:
        raise PreconditionError("torsion order must be positive")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    if (shared := math.gcd(d, a2.det())) != 1:
        raise PreconditionError(f"torsion order {d} shares the factor {shared} with det")
    rows = a2.to_rows()
    out: list[tuple[Point, int]] = []
    vectors = list(itertools.islice(_residue_vectors(d, a2.rows), budget))
    wanted = set(vectors)
    periods: dict[tuple[int, ...], int] = {}  # the cycle length of each wanted point on a walked cycle
    for u in vectors:
        period = periods.get(u)
        if period is None:
            orbit = _cycle(rows, d, u)
            period = len(orbit)
            periods.update(dict.fromkeys(wanted.intersection(orbit), period))
        out.append((tuple(KummerNumber.build(Fraction(x, d), {}) for x in u), period))
    return out


# -- invariant families ------------------------------------------------------------


class CosetFamily(Record):
    """A cycle of cosets whose union is invariant under the original map.

    The cycle arises from one orbit of torsion points of exact order
    ``torsion_order`` in the hyperbolic factor; phi maps each coset onto the
    next, cyclically.  Every coset translates the one subtorus ``torus``, and
    the family stores the bases as exponent layers (den, primes, one
    PointLayers per coset).  ``cycle`` decodes them into cosets when first
    read; equality compares the layers and decodes nothing.
    """

    torsion_order: int
    orbit_exponents: tuple[tuple[int, ...], ...]
    # left out of the repr and the JSON, which show the decoded cycle instead
    torus: Subtorus
    layers: tuple[int, tuple[int, ...], list[PointLayers]]

    @cached_property
    def cycle(self) -> tuple[Coset, ...]:
        den, primes, bases = self.layers
        return tuple(Coset(from_layers(den, primes, x), self.torus) for x in bases)

    def __repr__(self) -> str:
        return (
            f"CosetFamily(torsion_order={self.torsion_order!r}, "
            f"orbit_exponents={self.orbit_exponents!r}, cycle={self.cycle!r})"
        )


def _torsion_orbits_exact_order(a2: IntMatrix, d: int, vectors: Iterable | None = None) -> Iterator[list[tuple]]:
    """Orbits of u -> a2*u on (Z/d)^k restricted to elements of exact order d.

    The orbits start from ``vectors`` in turn (all of (Z/d)^k in lexicographic
    order by default), skipping those of a lower order or already visited.
    Lazy, so a caller that stops early never enumerates the rest of (Z/d)^k.
    """
    rows = a2.to_rows()
    seen: set[tuple[int, ...]] = set()
    for u in _residue_vectors(d, a2.rows) if vectors is None else vectors:
        if u in seen or math.gcd(math.gcd(*u), d) != 1:
            continue
        orbit = _cycle(rows, d, u)
        seen.update(orbit)
        yield orbit


def _lowest_terms(den: int, t: list[int]) -> tuple[int, tuple[int, ...]]:
    """The values t / den as a hashable (denominator, numerators) pair in lowest terms."""
    g = math.gcd(den, *t)
    return (den // g, tuple(v // g for v in t))


def _cycle_source(phi: AffineMonomialMap, spectrum: Spectrum | None = None) -> tuple[Decomposition, Callable]:
    """phi's decomposition, and a generator of its coset cycles from torsion orbits.

    ``cycles(d, orbits)`` transports each orbit of exact-order-d torsion points
    of the hyperbolic factor to a cycle of translates of the unipotent
    subtorus x1, and yields it with True; when an earlier orbit of the same
    source gave the same cycle, it yields that earlier family with False.
    phi carries x1 onto itself, since x1 is the image of q(A^l0) (q the
    hyperbolic factor, l0 the normalizing iterate), which commutes with A.
    So the image of a coset is x1 translated by the image of its base, and
    the cycle is the orbit of the base on the exponent layers; the family
    keeps the bases as those layers and decodes none of them.  It closes
    when the base's projection to T/x1 (its character values under x1's
    annihilator basis) returns, which certifies invariance of the union; the
    same projections, as rational values, identify the cycle for
    deduplication.

    Every base is x2.embed(u / d) * beta2_embedded^-1 for a torsion orbit
    point u, so every orbit shares the prime layers of its k-th step.  That
    trajectory is built once per source, rescaled once per step and call,
    and every coset at a step holds the same lists; each orbit steps only
    its torsion layer.  Its projection to T/x1 is the fixed point of the map induced there
    (no eigenvalue on T/x1 is a root of unity), so it is checked once, on the
    first step, and cycles close and dedupe on their torsion projections.
    """
    dec = decompose(phi, spectrum)
    den_b, primes, ((beta_t, *beta_e), (gamma_t, *gamma_e)) = layers_of(
        (tuple(c.inverse() for c in dec.beta2_embedded), phi.translation)
    )
    v2 = dec.x2.cochar_basis.to_rows()
    rows = phi.matrix.to_rows()
    # a trivial x1 has the identity as annihilator basis: T/x1 is T itself
    proj = None if dec.x1.dim == 0 else [list(b) for b in dec.x1.annihilator.basis]

    # the shared prime trajectory over den_b, extended as the longest cycle needs; a step equal
    # to the one before it is that same list, so a fixed trajectory is one list throughout
    step = _prime_step(rows, beta_e, gamma_e)
    exps = [beta_e, beta_e if step == beta_e else step]

    # x1 is invariant, so its annihilator basis P has P*A = A'*P, and P*e_(k+1) = A'*P*e_k + P*g:
    # a first step that fixes P*e_0 fixes it at every step
    first, second = ([[sum(map(mul, row, layer)) for row in dec.x1.annihilator.basis] for layer in e] for e in exps)
    if first != second:
        raise AssertionError("the shared prime layers do not project to a fixed point of T/x1")

    built: dict[frozenset, CosetFamily] = {}

    def cycles(d: int, orbits: Iterable[list[tuple[int, ...]]]) -> Iterator[tuple[CosetFamily, bool]]:
        den = math.lcm(den_b, d)
        s = den // den_b
        beta, gamma = [v * s for v in beta_t], [v * s for v in gamma_t]
        v2d = [[a * (den // d) for a in row] for row in v2]  # torsion layer of x2.embed(u / d): v2d * u
        scaled = exps if s == 1 else []  # the trajectory over den, one list per step for every coset there
        for orbit in orbits:
            cur = [(sum(map(mul, row, orbit[0])) + b) % den for row, b in zip(v2d, beta)]
            tors, projections = [], []
            max_cycle = dec.normalize_iterate * len(orbit) + 1
            while True:
                image = cur if proj is None else [sum(map(mul, row, cur)) % den for row in proj]
                if tors and image == projections[0]:
                    break
                tors.append(cur)
                projections.append(image)
                if len(tors) > max_cycle:
                    raise AssertionError("coset cycle failed to close")
                cur = _torsion_step(rows, den, cur, gamma)
            # the torsion projection in lowest terms is its rational values, whatever d is
            key = frozenset(_lowest_terms(den, t) for t in projections)
            if key in built:
                yield built[key], False
                continue
            while len(exps) < len(tors):
                step = _prime_step(rows, exps[-1], gamma_e)
                exps.append(exps[-1] if step == exps[-1] else step)
            for j in range(len(scaled), len(tors)):  # a step that is the one before shares its rescaled list
                scaled.append(scaled[-1] if j and exps[j] is exps[j - 1] else [[v * s for v in e] for e in exps[j]])
            built[key] = CosetFamily(d, tuple(orbit), dec.x1, (den, primes, [[t, *e] for t, e in zip(tors, scaled)]))
            yield built[key], True

    return dec, cycles


def invariant_family(
    phi: AffineMonomialMap, budget: int, torsion_cap: int = 50, source=None
) -> list[CosetFamily]:
    """Generate invariant coset families for a degree->1 map.

    The cycles of :func:`_cycle_source` (``source``, or a fresh one), by
    increasing torsion order and lexicographic orbit, until the budget is met.
    """
    if budget <= 0:
        return []
    dec, cycles = source or _cycle_source(phi)
    det2 = abs(dec.a2.det())
    families: list[CosetFamily] = []
    for d in range(1, torsion_cap + 1):
        if len(families) >= budget:
            break
        if math.gcd(d, det2) == 1:
            new = (fam for fam, fresh in cycles(d, _torsion_orbits_exact_order(dec.a2, d)) if fresh)
            families += itertools.islice(new, budget - len(families))
    return families


def sample_family_points(
    families: list[CosetFamily],
    seed: int,
    per_coset: int = 3,
    cap: int = 200,
    torsion_lcm_cap: int = TORSION_LCM_CAP,
    radical_cost_cap: int = RADICAL_COST_CAP,
) -> tuple[int, tuple[int, ...], list[PointLayers]]:
    """Deterministic sample of points on the family cosets (for density checks).

    Points whose torsion orders would push the pooled lcm past
    torsion_lcm_cap are skipped, keeping the modular density test's prime
    (q = 1 mod lcm) small; likewise the product of per-prime exponent
    denominators is capped, since that product is the expected number of
    candidate primes the embedding has to scan.  Low-order families supply
    more than enough points for the rank check.

    The sample is exponent layers ``(den, primes, layers)``, as from
    :func:`torusdyn.kummer.layers_of`: each base's layers over one den, and
    seed i = p^e of base * x1.embed(seeds) adds e * cochar column i to p's layer.
    A coset's prime rows are built once per shared step of its cycle (the
    lists its layers hold) and shared by reference with its points.  The
    families must be distinct cycles, as one source's are: points of distinct
    cosets then differ, so only a coset's own draws are deduplicated (a
    family object listed twice is sampled once).
    """
    rng = random.Random(seed)
    seed_primes = (2, 3, 5, 7)  # the coordinates of points along x1 are powers of these
    den = math.lcm(*(fam.layers[0] for fam in families))
    seeded = any(fam.torus.dim for fam in families)
    primes = tuple(sorted({p for fam in families for p in fam.layers[1]}.union(seed_primes if seeded else ())))
    row = {p: k for k, p in enumerate(primes, 1)}
    parts: dict[tuple, list[list[int]]] = {}  # a coset's prime rows, by the ids of its prime layers

    def candidates() -> Iterator[tuple[set, tuple, PointLayers]]:
        """Each coset's base and seeded draws, with the seeds of the coset's accepted draws and their own."""
        for fam in {id(fam): fam for fam in families}.values():
            fam_den, fam_primes, fam_layers = fam.layers
            scale = den // fam_den
            k = fam.torus.dim
            v1 = fam.torus.cochar_basis.to_rows() if k else []
            for t, *exps in fam_layers:
                key = (scale, id(fam_primes), *map(id, exps))
                if key not in parts:
                    parts[key] = [[0] * len(t)] * len(primes)
                    for p, layer in zip(fam_primes, exps):
                        parts[key][row[p] - 1] = [v * scale for v in layer]
                base = [t if scale == 1 else [v * scale for v in t], *parts[key]]
                taken: set[tuple] = set()
                yield taken, (), base
                # v1's columns are independent and every e is positive, so a draw is
                # never the base, and two draws agree exactly when their seeds do
                for _ in range(per_coset - 1 if k else 0):  # a point coset draws nothing from rng
                    seeds = tuple((rng.choice(seed_primes), rng.randint(1, 3)) for _ in range(k))
                    x = [*base]
                    for i, (p, e) in enumerate(seeds):
                        x[row[p]] = [a + vrow[i] * e * den for a, vrow in zip(x[row[p]], v1)]
                    yield taken, seeds, x

    pts: list[PointLayers] = []
    # cost accounting mirrors the density test, which divides the pool by its
    # first point (the anchor) before embedding: per layer, the gcd of den with
    # every accepted x - anchor, so the pooled torsion lcm is den // gcds[0] and
    # each prime's exponent denominator lcm is den // gcds[k] (a layer equal to the anchor's keeps its gcd)
    gcds = [den] * (len(primes) + 1)
    for taken, seeds, x in candidates():
        if seeds in taken:
            continue
        anchor = pts[0] if pts else x
        new = [g if u == v else math.gcd(g, *map(sub, u, v)) for g, u, v in zip(gcds, x, anchor)]
        if den // new[0] <= torsion_lcm_cap and math.prod(den // g for g in new[1:]) <= radical_cost_cap:
            taken.add(seeds)
            pts.append(x)
            gcds = new
        if len(pts) >= cap:
            break
    return den, primes, pts


# -- the classifier ------------------------------------------------------------------


VERDICT_FIBRATION = "FIBRATION"
VERDICT_WILD = "DEGREE_ONE_WILD"
VERDICT_DENSE = "DEGREE_GT_ONE_DENSE_INVARIANTS"


class ClassificationReport(Record):
    verdict: str
    degree: DynamicalDegree
    fibration: FibrationWitness | None
    wildness: WildnessCertificate | None
    family: tuple[CosetFamily, ...]
    density: ContainmentResult | None
    flags: tuple[str, ...]


# The most residue vectors drawn for the cycles of a redrawn density sample.
GRID_DRAWS = 4096


def _grid_cycles(dec: Decomposition, cycles, config: ClassifyConfig) -> list[tuple[CosetFamily, bool]]:
    """Distinct cycles of the least torsion order d > D' coprime to det a2, each
    with its freshness flag, until they hold point_budget cosets or number
    family_budget; empty when d > torsion_cap.

    D' is the degree bound, times the largest absolute row sum of x2's cochar
    basis when x1 is not trivial: no nonzero polynomial of degree <= D' < d in
    each variable vanishes on the grid mu_d^k (Combinatorial Nullstellensatz).
    The orbits start from at most GRID_DRAWS residue vectors drawn with
    Random(seed), not in lexicographic order.
    """
    bound = config.degree_bound
    if dec.x1.dim:
        bound *= max(sum(map(abs, row)) for row in dec.x2.cochar_basis.to_rows())
    det2 = abs(dec.a2.det())
    d = next(d for d in itertools.count(bound + 1) if math.gcd(d, det2) == 1)
    if d > config.torsion_cap:
        return []
    rng = random.Random(config.seed)
    vectors = (tuple(rng.randrange(d) for _ in range(dec.a2.rows)) for _ in range(GRID_DRAWS))
    taken: dict[int, tuple[CosetFamily, bool]] = {}  # by id: two orbits can give one cycle
    for fam, fresh in cycles(d, _torsion_orbits_exact_order(dec.a2, d, vectors)):
        taken.setdefault(id(fam), (fam, fresh))
        cosets = sum(len(f.layers[2]) for f, _ in taken.values())
        if len(taken) >= config.family_budget or cosets >= config.point_budget:
            break
    return list(taken.values())


def _family_with_density(phi: AffineMonomialMap, config: ClassifyConfig, spectrum: Spectrum):
    """The invariant family and its density certificate.

    A degenerate sample is redrawn from grid cycles, the new ones appended to
    the family; when none exist or their sample is degenerate too, the
    oracle's gate makes the result UNDECIDED with no prime tried.  This is
    the one entry to the density test, and the oracle is imported here, so
    only a command that reaches the test loads it.
    """
    from . import oracle

    source = _cycle_source(phi, spectrum)
    families = invariant_family(phi, config.family_budget, config.torsion_cap, source)
    pts = sample_family_points(families, config.seed, cap=config.point_budget)
    grid = oracle.degenerate_sample(pts, config.degree_bound) and _grid_cycles(*source, config)
    if grid:
        families += [fam for fam, fresh in grid if fresh]
        pts = sample_family_points([fam for fam, _ in grid], config.seed, cap=config.point_budget)
    return tuple(families), oracle.hypersurface_containment(pts, config.degree_bound, config.seed, config.retries)


def classify(phi: AffineMonomialMap, config: ClassifyConfig = ClassifyConfig()) -> ClassificationReport:
    """Full classification with verifiable certificates.

    FIBRATION wins when an invariant monomial function exists; degree-one
    automorphisms without one are certified wild; degree->1 maps carry a
    dense invariant family (also attached to fibration verdicts when
    ``config.force_family`` is set).  The minimal polynomial of A and its
    cyclotomic part are computed once and passed to every stage.
    """
    spectrum = spectral_data(phi.matrix)
    degree = dynamical_degree(phi, config.rel_tol, spectrum)
    fibration = find_invariant_fibration(phi, config.iterate_cap, spectrum)
    wildness = None
    family: tuple[CosetFamily, ...] = ()
    density = None
    flags: list[str] = []

    if fibration is not None:
        verdict = VERDICT_FIBRATION
        if not degree.exact_one and config.force_family:
            family, density = _family_with_density(phi, config, spectrum)
    elif degree.exact_one:
        verdict = VERDICT_WILD
        if phi.is_automorphism:
            wildness = wildness_certificate(phi, degree.certificate)
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
        family, density = _family_with_density(phi, config, spectrum)

    return ClassificationReport(verdict, degree, fibration, wildness, family, density, tuple(flags))
