"""Splitting a Leibniz algebra over its soluble radical.

Barnes' theorem: every left Leibniz algebra L is the direct sum of its
soluble radical R and a semisimple Lie subalgebra S.  One recursion
finds S.  If R·R is nonzero, split L/(R·R), whose radical R/(R·R) is
abelian, pull the complement back to a subalgebra P = S̄ + R·R, and split
P, whose radical R·R has smaller derived length.  If R·R is zero, lift a
basis u_i of L/R and solve one linear system for corrections a_i in R
that make the u_i + a_i multiply as the quotient does, over all ordered
pairs (i, j); the theorem says it is consistent.  Free variables are set
to zero, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    LeibnizAlgebra,
    NotASubalgebraError,
    NotLieError,
    is_lie,
    product,
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


@dataclass(frozen=True)
class LeviWitnesses:
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
        return {
            "sum_is_full": self.sum_is_full,
            "intersection_is_zero": self.intersection_is_zero,
            "closed_under_product": self.closed_under_product,
            "complement_semisimple": self.complement_semisimple,
        }


class LeviVerificationError(ValueError):
    """The splitter returned a subspace that fails a complement witness."""

    def __init__(self, complement: Subspace, witnesses: LeviWitnesses):
        self.complement = complement
        self.witnesses = witnesses
        failed = [name for name, passed in witnesses.as_dict().items() if not passed]
        super().__init__(f"complement failed verification: {', '.join(failed)}")


@dataclass(frozen=True)
class LeviDecomposition:
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

    Lifts the quotient basis to u_i and solves, over every ordered pair
    (i, j), u_i·a_j + a_i·u_j − Σ_k c_ijk a_k = −(u_i·u_j − Σ_k c_ijk u_k)
    for corrections a_i in I, c being the quotient's structure constants;
    then the u_i + a_i multiply exactly as the quotient basis does.
    Raises NoSolutionError when the system is inconsistent.
    """
    qalg, lift_space = quotient(alg, ideal)
    q, r = qalg.dim, ideal.dim
    lifts = lift_space.rows()
    basis = ideal.rows()

    def coords(v) -> tuple[Fraction, ...]:
        c = ideal.coordinates(v)
        assert c is not None  # I is an ideal and contains every defect
        return c

    def by_coordinate(images):
        # images[m] in I-coordinates -> for each t, the nonzero (m, entry t)
        return [[(m, x[t]) for m, x in enumerate(images) if x[t]] for t in range(r)]

    # left[i][t] / right[i][t]: coordinate t of u_i·w_m / w_m·u_i, per m
    left = [by_coordinate([coords(product(alg, u, w)) for w in basis]) for u in lifts]
    right = [by_coordinate([coords(product(alg, w, u)) for w in basis]) for u in lifts]

    # unknowns: coordinate m of a_i, flattened as i*r + m
    rows = []
    rhs = []
    for i in range(q):
        for j in range(q):
            pairs = qalg.table.nonzero[i].get(j, ())
            target = list(product(alg, lifts[i], lifts[j]))
            for k, c in pairs:
                target = [x - c * e for x, e in zip(target, lifts[k])]
            defect = coords(target)
            for t in range(r):
                entries: dict[int, Fraction] = {}
                for m, x in left[i][t]:
                    entries[j * r + m] = entries.get(j * r + m, _ZERO) + x
                for m, x in right[j][t]:
                    entries[i * r + m] = entries.get(i * r + m, _ZERO) + x
                for k, c in pairs:
                    entries[k * r + t] = entries.get(k * r + t, _ZERO) - c
                row = [_ZERO] * (q * r)
                for col, x in entries.items():
                    row[col] = x
                rows.append(tuple(row))
                rhs.append(-defect[t])
    solved = solve_affine(Matrix(len(rows), q * r, tuple(rows)), tuple(rhs))
    if solved is None:
        raise NoSolutionError("correction system is inconsistent")
    alpha, _ = solved
    out = []
    for i, u in enumerate(lifts):
        v = list(u)
        for m, w in enumerate(basis):
            a = alpha[i * r + m]
            if a:
                v = [x + a * e for x, e in zip(v, w)]
        out.append(v)
    return Subspace(alg.dim, out)


def _split(alg: LeibnizAlgebra, rad: Subspace) -> Subspace:
    """Semisimple complement of ``rad``, the soluble radical of alg."""
    if rad.is_zero():
        return Subspace.full(alg.dim)
    if rad.is_full():
        return Subspace.zero(alg.dim)
    rad_sq = subspace_product(alg, rad, rad)
    if rad_sq.is_zero():
        return _abelian_complement(alg, rad)
    # L/(R·R) has the abelian radical R/(R·R), the rows of R reduced
    # modulo R·R and read at the free coordinates; its complement pulls
    # back to a subalgebra P whose radical is R·R
    qalg, lifts = quotient(alg, rad_sq)
    residuals = [rad_sq._eliminate(w)[1] for w in rad.rows()]
    s_bar = _split(qalg, Subspace(qalg.dim, [[x[f] for f in lifts.pivots] for x in residuals]))
    pre = subspace_sum(embed_rows(lifts, s_bar.rows()), rad_sq)
    sub = restrict_to_subalgebra(alg, pre)
    inner = _split(sub, Subspace(pre.dim, [pre.coordinates(w) for w in rad_sq.rows()]))
    return embed_rows(pre, inner.rows())


def lie_levi(alg: LeibnizAlgebra) -> Subspace:
    """Semisimple complement of the radical in a Lie algebra."""
    if not is_lie(alg):
        raise NotLieError("Levi complement requires a Lie algebra")
    return _split(alg, soluble_radical(alg))


def leibniz_levi(alg: LeibnizAlgebra) -> LeviDecomposition:
    """Semisimple complement of the soluble radical of a Leibniz algebra,
    rechecked by ``verify_levi``; raises LeviVerificationError if a
    witness fails."""
    rad = soluble_radical(alg)
    s = _split(alg, rad)
    witnesses = verify_levi(alg, s)
    if not witnesses.all_pass:
        raise LeviVerificationError(s, witnesses)
    return LeviDecomposition(semisimple_part=s, radical=rad, witnesses=witnesses)
