"""Splitting a Leibniz algebra over its soluble radical.

Barnes' theorem: every left Leibniz algebra L is the direct sum of its
soluble radical R and a semisimple Lie subalgebra S.  One recursion
finds S.  If R·R is nonzero, split L/(R·R), whose radical R/(R·R) is
abelian, pull the complement back to a subalgebra P = S̄ + R·R, and split
P, whose radical R·R has smaller derived length.  If R·R is zero, lift a
basis u_i of L/R and solve one linear system for corrections a_i in R
that make the u_i + a_i multiply as the quotient does, over all ordered
pairs (i, j); the theorem says it is consistent.  Each coefficient of
that system is read off the structure table at a pivot of R's RREF
basis, which is exact because a vector of R is fixed by its entries at
those pivots.
Free variables are set to zero, so results are reproducible.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    LeibnizAlgebra,
    NotASubalgebraError,
    NotLieError,
    Sums,
    _through,
    is_lie,
    quotient,
    restrict_to_subalgebra,
    subspace_product,
)
from .exactlin import (
    Matrix,
    Subspace,
    embed_rows,
    solve_affine,
    subspace_sum,
)
from .structure import is_semisimple, soluble_radical

_ZERO = Fraction(0)


class NoSolutionError(ValueError):
    """The correction system is inconsistent: the ideal has no
    complementary subalgebra (for example, the quotient is not
    semisimple)."""


class LeviWitnesses(NamedTuple):
    """The four defining checks of a semisimple complement."""

    sum_is_full: bool
    intersection_is_zero: bool
    closed_under_product: bool
    complement_semisimple: bool

    @property
    def all_pass(self) -> bool:
        return (self.sum_is_full and self.intersection_is_zero
                and self.closed_under_product and self.complement_semisimple)

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()


class LeviVerificationError(ValueError):
    """The splitter returned a subspace that fails a complement witness."""

    def __init__(self, complement: Subspace, witnesses: LeviWitnesses):
        self.complement = complement
        self.witnesses = witnesses
        failed = [name for name, passed in witnesses.as_dict().items() if not passed]
        super().__init__(f"complement failed verification: {', '.join(failed)}")


class LeviDecomposition(NamedTuple):
    semisimple_part: Subspace
    radical: Subspace
    witnesses: LeviWitnesses


def verify_levi(alg: LeibnizAlgebra, s: Subspace) -> LeviWitnesses:
    """Independently recheck that s is a semisimple complement of the radical.

    S + R is reduced once, as dim(S ∩ R) = dim S + dim R − dim(S + R),
    and s is closed exactly when the restriction to it can be built.
    """
    rad = soluble_radical(alg)
    total = subspace_sum(s, rad)
    try:
        restricted = restrict_to_subalgebra(alg, s)
    except NotASubalgebraError:
        closed = semisimple = False
    else:
        closed, semisimple = True, is_semisimple(restricted)
    return LeviWitnesses(total.is_full(), total.dim == s.dim + rad.dim, closed, semisimple)


def _abelian_complement(alg: LeibnizAlgebra, ideal: Subspace) -> Subspace:
    """Complementary subalgebra of an ideal I with I·I = 0.

    With the lifts u_i = b_{f_i}, the unit vectors at I's free
    coordinates, and the quotient's structure constants c, solves
    u_i·a_j + a_i·u_j − Σ_k c_ijk a_k = −(u_i·u_j − Σ_k c_ijk u_k)
    over every ordered pair (i, j) for corrections a_i = Σ_m α_im w_m in
    I, w_m being I's RREF rows; then the u_i + a_i multiply exactly as
    the quotient basis does.  Both sides lie in I, where v = Σ_t v[p_t] w_t
    over I's pivots p_t, and every u_k is zero at p_t.  So equation
    (i, j, t) is read off the table at p_t: α_jm has coefficient
    (b_{f_i}·w_m)[p_t], α_im has (w_m·b_{f_j})[p_t], and the right side
    is −(b_{f_i}·b_{f_j})[p_t].  Raises NoSolutionError when the system
    is inconsistent.
    """
    qalg, lifts = quotient(alg, ideal)
    free, q, r = lifts.pivots, qalg.dim, ideal.dim
    at = {p: t for t, p in enumerate(ideal.pivots)}
    nonzero = alg.table.nonzero
    basis = dict(enumerate(ideal.sparse_rows))  # m -> w_m as its (c, w) pairs

    def pivot_entries(products: Sums) -> list[tuple[int, int, Fraction]]:
        # (t, m, entry at p_t of products[m])
        return [(at[k], m, x) for m, v in products.items() for k, x in v.items() if k in at]

    # left[i] / right[i]: (t, m, entry at p_t of b_{f_i}·w_m / w_m·b_{f_i}),
    # the latter through column f_i of the table, c -> b_c·b_{f_i}
    left = [pivot_entries(_through(nonzero[f], basis)) for f in free]
    columns = [{c: row[f] for c, row in enumerate(nonzero) if f in row} for f in free]
    right = [pivot_entries(_through(column, basis)) for column in columns]

    # unknowns: α_im flattened as i*r + m; equation (i, j, t) as {column: coefficient}
    rows, rhs = [], []
    for i, fi in enumerate(free):
        for j, fj in enumerate(free):
            eqs = [defaultdict(Fraction) for _ in range(r)]
            for t, m, x in left[i]:
                eqs[t][j * r + m] += x
            for t, m, x in right[j]:
                eqs[t][i * r + m] += x
            for k, c in qalg.table.nonzero[i].get(j, ()):
                for t in range(r):
                    eqs[t][k * r + t] -= c
            defect = dict(nonzero[fi].get(fj, ()))
            rows += [tuple(eq.items()) for eq in eqs]
            rhs += [-defect.get(p, _ZERO) for p in ideal.pivots]
    solved = solve_affine(Matrix._from_nonzero(len(rows), q * r, rows), tuple(rhs))
    if solved is None:
        raise NoSolutionError("correction system is inconsistent")
    alpha, _ = solved
    out = []
    for i, f in enumerate(free):
        v = [_ZERO] * alg.dim
        v[f] = Fraction(1)
        for a, row in zip(alpha[i * r:], ideal.sparse_rows):
            for c, e in row:
                v[c] += a * e
        out.append(v)
    return Subspace(alg.dim, out)


def _split(alg: LeibnizAlgebra) -> Subspace:
    """Semisimple complement of the soluble radical R of alg."""
    rad = soluble_radical(alg)
    if rad.is_zero():
        return Subspace.full(alg.dim)
    if rad.is_full():
        return Subspace(alg.dim)
    rad_sq = subspace_product(alg, rad, rad)
    if rad_sq.is_zero():
        return _abelian_complement(alg, rad)
    # the complement of L/(R·R), whose radical R/(R·R) is abelian, pulls
    # back to a subalgebra P whose radical is R·R
    qalg, lifts = quotient(alg, rad_sq)
    pre = subspace_sum(embed_rows(lifts, _split(qalg).rows()), rad_sq)
    inner = _split(restrict_to_subalgebra(alg, pre))
    return embed_rows(pre, inner.rows())


def lie_levi(alg: LeibnizAlgebra) -> Subspace:
    """Semisimple complement of the radical in a Lie algebra."""
    if not is_lie(alg):
        raise NotLieError("Levi complement requires a Lie algebra")
    return _split(alg)


def leibniz_levi(alg: LeibnizAlgebra) -> LeviDecomposition:
    """Semisimple complement of the soluble radical of a Leibniz algebra,
    rechecked by ``verify_levi``; raises LeviVerificationError if a
    witness fails."""
    rad = soluble_radical(alg)
    s = _split(alg)
    witnesses = verify_levi(alg, s)
    if not witnesses.all_pass:
        raise LeviVerificationError(s, witnesses)
    return LeviDecomposition(semisimple_part=s, radical=rad, witnesses=witnesses)
