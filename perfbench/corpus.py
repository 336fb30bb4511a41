"""Seeded corpora for the four workloads.

A corpus is plain data: integer matrix rows, translation coordinates in the
torusdyn text syntax, and what the benchmark's own arithmetic expects of the
answer.  The program only ever receives the rows and the coordinate strings.
Generation uses the benchmark's exact arithmetic and never torusdyn.

Each corpus has a fixed composition (dimension, block types, cost band per
slot) and the seed draws everything else; a fixed composition is what keeps
one seed's figures close to another's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact

VERDICT_FIBRATION = "FIBRATION"
VERDICT_WILD = "DEGREE_ONE_WILD"
VERDICT_DENSE = "DEGREE_GT_ONE_DENSE_INVARIANTS"


@dataclass
class MapCase:
    """One classify operation: x -> gamma * x^rows."""

    name: str
    rows: list
    gamma: list
    expected_verdict: str
    degree_one_iterate: int | None = None  # lcm of finite block orders, degree-one maps only

    def point(self):
        return exact.parse_point(self.gamma)


@dataclass
class CliCase:
    """One torusdyn process; ``check`` names the independent check of its --json output."""

    name: str
    argv: list
    check: str
    spec: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


# -- shared pieces ---------------------------------------------------------------------


def unimodular_pair(rng: random.Random, n: int, shears: int):
    """(W, W^-1) as a product of elementary shears with multiplier +-1."""
    w, winv = exact.identity(n), exact.identity(n)
    done = 0
    while done < shears:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.choice((-1, 1))
        for r in range(n):
            w[r][j] += k * w[r][i]  # w <- w * E, E = I + k e_ij
        winv[i] = [a - k * b for a, b in zip(winv[i], winv[j])]  # winv <- E^-1 * winv
        done += 1
    return w, winv


def conjugate(rng, blocks, shears: int):
    w, winv = unimodular_pair(rng, len(blocks), shears)
    a = exact.matmul(exact.matmul(w, blocks), winv)
    assert abs(exact.det(a)) == abs(exact.det(blocks))
    return a


def block_diagonal(parts):
    n = sum(len(p) for p in parts)
    out = [[0] * n for _ in range(n)]
    at = 0
    for p in parts:
        for i, row in enumerate(p):
            out[at + i][at : at + len(row)] = row
        at += len(p)
    return out


def unipotent_block(rng, u: int):
    """Upper unitriangular with a nonzero superdiagonal: a single Jordan block."""
    return [
        [1 if i == j else (rng.choice((-1, 1)) if j == i + 1 else (rng.randint(-1, 1) if j > i else 0)) for j in range(u)]
        for i in range(u)
    ]


def translation(rng, n: int, primes, primes_per_coord: int, denoms, cycle_primes: bool = False) -> list[str]:
    """Coordinates with torsion order 1..6 and a fixed number of prime factors each.

    With cycle_primes, coordinate j has the one prime primes[j % len(primes)],
    so every translation uses the same primes (their number sets much of
    the cost of Kummer arithmetic).
    """
    out = []
    for j in range(n):
        m = rng.randint(1, 6)
        chosen = [primes[j % len(primes)]] if cycle_primes else rng.sample(primes, primes_per_coord)
        exps = {p: Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(denoms)) for p in chosen}
        out.append(exact.coord_str(exact.coord(Fraction(rng.randrange(m), m), exps)))
    return out


# -- dense_families ----------------------------------------------------------------------

DENSE_SLOTS = 42
# Coset-image band.  The coset count is decided by A alone
# (exact.predicted_coset_images) and sets most of a map's cost (about 1.7 ms
# per coset at n = 2 and 3 ms at n = 3), so a narrow band keeps one seed's
# corpus as heavy as another's, and its median and tail steady.
DENSE_BAND = (200, 260)


def dense_families(seed: int) -> list[MapCase]:
    """Acceptance-criterion-4 style maps: two thirds n = 2, one third n = 3."""
    rng = random.Random(f"dense_families/{seed}")
    lo, hi = DENSE_BAND
    out = []
    for i in range(DENSE_SLOTS):
        n = 3 if i % 3 == 2 else 2
        while True:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = exact.det(a)
            if d == 0 or abs(d) > 10 or exact.has_low_cyclotomic_factor(a):
                continue
            if lo <= exact.predicted_coset_images(a, stop_above=hi) <= hi:
                break
        gamma = translation(rng, n, (2, 3, 5), 2, (1, 2))
        out.append(MapCase(f"dense{i}_n{n}", a, gamma, VERDICT_DENSE))
    return out


# -- degree_one ------------------------------------------------------------------------------

FINITE_BLOCKS = {
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[1, -1], [1, 0]],
}
DEGREE_ONE_SLOTS = 240
DEGREE_ONE_PRIMES = (2, 3, 5, 7, 11)


# Unipotent block sizes of the wild maps.  A finite-order block without
# eigenvalue 1 always yields an invariant function (phi^k is the identity on
# it), so wild maps are unipotent; at most three blocks, so three fixed
# characters against five primes in the translation.
WILD_BLOCKS = {2: [2], 3: [3], 4: [2, 2], 5: [3, 2], 6: [3, 3]}


def _fibration_matrix(rng, n: int):
    """Finite-order and unipotent blocks, at least one of them of finite order."""
    parts, ell, left = [], 1, n
    while left:
        kinds = [k for k, b in FINITE_BLOCKS.items() if len(b) <= left]
        if ell > 1:
            kinds.append("unipotent")
        kind = rng.choice(kinds)
        if kind == "unipotent":
            u = rng.randint(1, min(left, 3))
            parts.append(unipotent_block(rng, u))
            left -= u
        else:
            parts.append(FINITE_BLOCKS[kind])
            ell = math.lcm(ell, kind)
            left -= len(FINITE_BLOCKS[kind])
    return conjugate(rng, block_diagonal(parts), shears=2 * n), ell


def degree_one(seed: int) -> list[MapCase]:
    """Quasi-unipotent automorphisms, n = 2..6; even slots FIBRATION, odd slots WILD."""
    rng = random.Random(f"degree_one/{seed}")
    return [degree_one_case(rng, i) for i in range(DEGREE_ONE_SLOTS)]


def degree_one_case(rng, i: int) -> MapCase:
    n = 2 + i % 5
    if i % 2 == 0:
        a, ell = _fibration_matrix(rng, n)
        gamma = translation(rng, n, DEGREE_ONE_PRIMES, rng.randint(1, 3), (1,))
        assert exact.fibration_exists(a, exact.parse_point(gamma), ell)
        return MapCase(f"deg1_{i}_n{n}", a, gamma, VERDICT_FIBRATION, degree_one_iterate=ell)
    while True:
        a = conjugate(rng, block_diagonal([unipotent_block(rng, u) for u in WILD_BLOCKS[n]]), shears=2 * n)
        gamma = translation(rng, n, DEGREE_ONE_PRIMES, 3, (1,))
        if not exact.fibration_exists(a, exact.parse_point(gamma), 1):
            return MapCase(f"deg1_{i}_n{n}", a, gamma, VERDICT_WILD, degree_one_iterate=1)


# -- highdim ------------------------------------------------------------------------------------

# Hyperbolic blocks (no root of unity among the eigenvalues) of rank 1..3,
# chosen so that each map builds 308-322 cosets and takes 1-4 s.
CAT = [[2, 1], [1, 1]]
RANK3 = [[3, 1, 0], [1, 1, 0], [0, 0, 2]]
HIGHDIM_SLOTS = [(4, [[3]])] + [(5, CAT)] * 5 + [(6, RANK3)] * 4
DOUBLING = [[3, 5, 7, 11], [3, 5, 7, 11, 13]]


def highdim(seed: int) -> list[MapCase]:
    """Conjugates of (hyperbolic block) + (unipotent Jordan block), plus the doubling maps.

    Five maps of one kind at n = 5 hold the median and four of one kind at
    n = 6 the tail, so neither is one map's time; the doubling maps fail
    (see README) and do not depend on the seed.
    """
    rng = random.Random(f"highdim/{seed}")
    out = []
    for i, (n, block) in enumerate(HIGHDIM_SLOTS):
        r = len(block)
        while True:
            a = conjugate(rng, block_diagonal([block, unipotent_block(rng, n - r)]), shears=n)
            gamma = translation(rng, n, (2, 3, 5), 1, (1,), cycle_primes=True)
            if not exact.fibration_exists(a, exact.parse_point(gamma), 1):
                break
        out.append(MapCase(f"highdim{i}_n{n}_r{r}", a, gamma, VERDICT_DENSE))
    for primes in DOUBLING:
        n = len(primes)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        out.append(MapCase(f"doubling_n{n}", rows, [str(p) for p in primes], VERDICT_DENSE))
    return out


# -- cli ----------------------------------------------------------------------------------------------

FIXTURE_VERDICTS = {
    "example_dense.json": VERDICT_DENSE,
    "example_dense3.json": VERDICT_DENSE,
    "example_fibration.json": VERDICT_FIBRATION,
    "example_shear_wild.json": VERDICT_WILD,
    "example_torsion_fibration.json": VERDICT_FIBRATION,
    "example_wild.json": VERDICT_WILD,
}


def cli(seed: int, fixtures: str, spec_dir: str) -> list[CliCase]:
    """One process per operation; spec files for the seeded maps go to spec_dir."""
    rng = random.Random(f"cli/{seed}")
    fx = lambda name: f"{fixtures}/{name}"  # noqa: E731
    cases = [CliCase(f"classify_{name[:-5]}", ["classify", fx(name)], "classify", extra={"verdict": v})
             for name, v in FIXTURE_VERDICTS.items()]
    cases += [
        CliCase("fibration_fixture", ["fibration", fx("example_fibration.json")], "fibration"),
        CliCase("wild_shear", ["wild", fx("example_shear_wild.json")], "wild"),
        CliCase("decompose_dense", ["decompose", fx("example_dense.json")], "decompose"),
        CliCase("check_density_wild", ["check-density", fx("example_wild.json"), "--point", "1,1"], "check_density"),
    ]
    # a fixed d: the cost of `periodic` moves by 2.5x between neighbouring d
    cases += [
        CliCase("periodic_dense_d7", ["periodic", fx("example_dense.json"), "-d", "7"], "periodic", extra={"d": 7}),
        CliCase("periodic_dense3_d7", ["periodic", fx("example_dense3.json"), "-d", "7"], "periodic", extra={"d": 7}),
    ]
    for name, lengths in (("example_wild.json", (10, 30)), ("example_dense.json", (5, 8))):
        pt = [exact.coord_str(exact.coord(0, {rng.choice((2, 3, 5)): rng.choice((-1, 1))})) for _ in range(2)]
        length = rng.randint(*lengths)
        cases.append(
            CliCase(f"orbit_{name[8:-5]}_n{length}", ["orbit", fx(name), "--point", ",".join(pt), "-n", str(length)],
                    "orbit", extra={"point": pt})
        )
    # seeded spec files: one map of each verdict, small enough for a command-line user
    seeded = [
        degree_one_case(rng, 0),  # n = 2, FIBRATION
        degree_one_case(rng, 3),  # n = 5, WILD
        _small_dense(rng),
    ]
    for case in seeded:
        spec = {"matrix": case.rows, "gamma": case.gamma, "options": {"seed": seed % 1000 + 1, "family_budget": 10}}
        path = f"{spec_dir}/{case.name}.json"
        cases.append(CliCase(f"classify_{case.name}", ["classify", path], "classify", spec=spec,
                             extra={"verdict": case.expected_verdict, "ell": case.degree_one_iterate}))
    for c in cases:
        c.argv.append("--json")
    return cases


def _small_dense(rng) -> MapCase:
    """A dense n = 2 map whose 10 families build 40-60 cosets (the middle of the range)."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        d = exact.det(a)
        if d and abs(d) <= 10 and not exact.has_low_cyclotomic_factor(a):
            if 40 <= exact.predicted_coset_images(a, budget=10, stop_above=60) <= 60:
                break
    return MapCase("seeded_dense_n2", a, translation(rng, 2, (2, 3, 5), 1, (1,)), VERDICT_DENSE)


WORKLOADS = ("dense_families", "degree_one", "highdim", "cli")
