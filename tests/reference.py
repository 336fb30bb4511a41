"""Reference routines that cross-check the pipeline at desk scale.

Finite dynamical models at torsion level, companion-matrix eigenvalues, a
brute-force search over bounded invariant cosets, and the lattice and matrix
helpers only the tests use.  No command runs them; the tests hold the
pipeline's answers against them.  The one numeric ingredient
(:func:`numeric_roots`) lives here, so the package never imports numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from torusdyn.errors import OracleError, PreconditionError
from torusdyn.intlinalg import (
    IntMatrix,
    Lattice,
    _echelon_rows,
    charpoly,
    left_kernel_saturated,
    solve_rational,
    vec_mat,
)
from torusdyn.kummer import KummerNumber, char_eval, layers_of
from torusdyn.polyalg import IntPoly, cyclotomic_part, divisors
from torusdyn.record import Record
from torusdyn.torus import AffineMonomialMap

_STATE_SPACE_CAP = 200_000


# -- lattices and matrices -------------------------------------------------------


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    """m times a column vector (entries may be ints or Fractions)."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(m[i, j] * v[j] for j in range(m.cols)) for i in range(m.rows))


def lattice_contains(lat: Lattice, vec: Sequence[int]) -> bool:
    if len(vec) != lat.ambient_dim:
        raise ValueError("dimension mismatch")
    v = list(vec)
    for row in lat.basis:
        p = next(j for j, x in enumerate(row) if x)
        if v[p] % row[p] != 0:
            return False
        q = v[p] // row[p]
        if q:
            v = [s - q * t for s, t in zip(v, row)]
    return all(x == 0 for x in v)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Lattice.from_rows(a.ambient_dim, list(a.basis) + list(b.basis))


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    stacked = IntMatrix.from_rows(list(a.basis) + [[-x for x in row] for row in b.basis], a.ambient_dim)
    ker = left_kernel_saturated(stacked)
    gens = [vec_mat(row[: a.rank], a.basis_matrix()) for row in ker.basis]
    return Lattice.from_rows(a.ambient_dim, gens)


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer rows: the pivots of one echelon pass, whose row operations keep it."""
    work = [list(row) for row in rows]
    return len(_echelon_rows(work, len(work[0]) if work else 0))


# -- finite dynamical models ---------------------------------------------------


class FiniteModelRun(Record):
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
    if (shared := math.gcd(d, phi.det)) != 1:
        raise PreconditionError(f"modulus {d} shares the factor {shared} with det A")
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
    import numpy as np  # only this oracle uses numpy; importing the other routines stays light

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
