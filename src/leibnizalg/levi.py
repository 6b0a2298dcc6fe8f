"""Splitting a Leibniz algebra over its soluble radical.

The pipeline: find a semisimple complement in the Lie quotient by the
squares ideal (constructive Levi, recursing along the derived series of
the radical), pull it back, then split the pulled-back subalgebra over
the squares ideal with an equivariant projection found by exact linear
algebra.  Every solver degree of freedom is resolved by setting free
variables to zero, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    LeibnizAlgebra,
    NotLieError,
    embed_rows,
    is_lie,
    left_multiplication,
    product,
    quotient,
    restrict_to_subalgebra,
    subspace_product,
)
from .exactlin import (
    LinearMap,
    Matrix,
    Subspace,
    kernel_basis,
    solve_affine,
    subspace_intersection,
    subspace_sum,
    vec_sub,
)
from .structure import is_semisimple, leibniz_kernel, soluble_radical

_ZERO = Fraction(0)


class NoSolutionError(ValueError):
    """The complement system is inconsistent; a precondition was violated
    (for example the acting algebra is not semisimple)."""


class NotReducedError(ValueError):
    """Module construction attempted outside the reduced case: the
    splitting ideal must equal the soluble radical and left-annihilate
    the algebra."""


@dataclass(frozen=True)
class ModuleAction:
    """A list of operators on Q^space_dim indexed by the acting basis."""

    acting_dim: int
    space_dim: int
    rho: tuple[LinearMap, ...]

    def __post_init__(self) -> None:
        if len(self.rho) != self.acting_dim:
            raise ValueError("one operator per acting basis element required")
        if any(m.dim != self.space_dim for m in self.rho):
            raise ValueError("operator dimension differs from space_dim")

    def of(self, coeffs) -> LinearMap:
        """Operator attached to a coefficient vector over the acting basis."""
        acc = Matrix.zeros(self.space_dim, self.space_dim)
        for c, m in zip(coeffs, self.rho, strict=True):
            if c != 0:
                acc = acc + m.matrix.scale(c)
        return LinearMap(self.space_dim, acc)


def module_law_report(acting: LeibnizAlgebra, action: ModuleAction) -> list[tuple[int, int]]:
    """Basis pairs where rho([x,y]) != rho(x)rho(y) - rho(y)rho(x)."""
    if acting.dim != action.acting_dim:
        raise ValueError("acting algebra dimension mismatch")
    bad = []
    for i in range(acting.dim):
        for j in range(acting.dim):
            lhs = action.of(acting.table.row(i, j)).matrix
            a, b = action.rho[i].matrix, action.rho[j].matrix
            if lhs != (a @ b) - (b @ a):
                bad.append((i, j))
    return bad


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


@dataclass(frozen=True)
class LeviDecomposition:
    semisimple_part: Subspace
    radical: Subspace
    witnesses: LeviWitnesses


def verify_levi(alg: LeibnizAlgebra, s: Subspace) -> LeviWitnesses:
    """Independently recheck that s is a semisimple complement of the radical."""
    rad = soluble_radical(alg)
    sum_full = subspace_sum(s, rad).is_full()
    inter_zero = subspace_intersection(s, rad).is_zero()
    closed = s.contains_subspace(subspace_product(alg, s, s))
    if closed:
        restricted = restrict_to_subalgebra(alg, s)
        semisimple = is_semisimple(restricted)
    else:
        semisimple = False
    return LeviWitnesses(sum_full, inter_zero, closed, semisimple)


def _whitehead_complement(alg: LeibnizAlgebra, rad: Subspace) -> Subspace:
    """Complement of an abelian radical in a Lie algebra.

    Lifts a basis of the semisimple quotient and solves the linear system
    for corrections inside the radical that make the lifted products
    reproduce the quotient table exactly.  Solvability is the vanishing
    of the relevant second cohomology for semisimple algebras.
    """
    qalg, _, section = quotient(alg, rad)
    q, r = qalg.dim, rad.dim
    if q == 0:
        return Subspace.zero(alg.dim)
    lifts = [section.apply(qalg.basis_vector(i)) for i in range(q)]

    # action of each lift on the radical, in radical coordinates
    act = []
    for u in lifts:
        cols = []
        for w in rad.rows():
            coords = rad.coordinates(product(alg, u, w))
            assert coords is not None
            cols.append(coords)
        act.append(Matrix(r, r, tuple(
            tuple(cols[m][t] for m in range(r)) for t in range(r)
        )))

    defects = {}
    for i in range(q):
        for j in range(i + 1, q):
            target = product(alg, lifts[i], lifts[j])
            for k, coeff in qalg.table.nonzero[i].get(j, ()):
                target = vec_sub(target, tuple(coeff * e for e in lifts[k]))
            coords = rad.coordinates(target)
            assert coords is not None
            defects[(i, j)] = coords

    # unknowns: correction coordinates a[i][m], flattened as i*r + m
    rows = []
    rhs = []
    for (i, j), defect in defects.items():
        qpairs = qalg.table.nonzero[i].get(j, ())
        for t in range(r):
            row = [_ZERO] * (q * r)
            for m in range(r):
                row[j * r + m] += act[i].entries[t][m]
                row[i * r + m] -= act[j].entries[t][m]
            for k, coeff in qpairs:
                row[k * r + t] -= coeff
            rows.append(tuple(row))
            rhs.append(-defect[t])
    solved = solve_affine(Matrix(len(rows), q * r, tuple(rows)), tuple(rhs))
    if solved is None:
        raise NoSolutionError("radical correction system is inconsistent")
    alpha, _ = solved
    out = []
    for i in range(q):
        v = list(lifts[i])
        for m, w in enumerate(rad.rows()):
            c = alpha[i * r + m]
            if c == 0:
                continue
            for pos, e in enumerate(w):
                if e != 0:
                    v[pos] += c * e
        out.append(tuple(v))
    return Subspace(alg.dim, out)


def lie_levi(alg: LeibnizAlgebra) -> Subspace:
    """Semisimple complement of the radical in a Lie algebra.

    If the radical is abelian, one linear solve suffices; otherwise
    recurse on the quotient by the radical's derived subalgebra and then
    on the pulled-back preimage, whose radical has strictly smaller
    derived length.
    """
    if not is_lie(alg):
        raise NotLieError("Levi complement requires a Lie algebra")
    rad = soluble_radical(alg)
    if rad.is_zero():
        return Subspace.full(alg.dim)
    rad_sq = subspace_product(alg, rad, rad)
    if rad_sq.is_zero():
        return _whitehead_complement(alg, rad)
    qalg, _, section = quotient(alg, rad_sq)
    s_bar = lie_levi(qalg)
    pre = subspace_sum(
        Subspace(alg.dim, [section.apply(row) for row in s_bar.rows()]),
        rad_sq,
    )
    sub = restrict_to_subalgebra(alg, pre)
    inner = lie_levi(sub)
    return embed_rows(pre, inner.rows())


def module_from_kernel(alg: LeibnizAlgebra, kernel: Subspace | None = None) -> ModuleAction:
    """View the algebra as a left module for its quotient by the squares
    ideal.

    Well-defined because the ideal annihilates the algebra from the left,
    so left multiplication only depends on the coset of the multiplier.
    ``kernel`` may name the splitting ideal explicitly (the restricted
    pulled-back case); it defaults to the squares ideal, and in both cases
    it must equal the soluble radical and left-annihilate everything.
    """
    kern = leibniz_kernel(alg) if kernel is None else kernel
    full = Subspace.full(alg.dim)
    if not subspace_product(alg, kern, full).is_zero():
        raise NotReducedError("splitting ideal does not left-annihilate the algebra")
    if soluble_radical(alg) != kern:
        raise NotReducedError("splitting ideal differs from the soluble radical")
    qalg, _, section = quotient(alg, kern)
    rho = tuple(
        left_multiplication(alg, section.apply(qalg.basis_vector(i)))
        for i in range(qalg.dim)
    )
    return ModuleAction(qalg.dim, alg.dim, rho)


def module_complement(action: ModuleAction, kern: Subspace) -> Subspace:
    """Invariant complement of an invariant subspace, by equivariant
    projection.

    Solves for a projection with image inside ``kern``, fixing ``kern``
    pointwise and commuting with every operator, then returns its null
    space.  For a semisimple acting algebra the system is always
    consistent; free variables are set to zero, so the complement is
    deterministic.
    """
    n = action.space_dim
    if kern.ambient_dim != n:
        raise ValueError("ambient dimension differs from module dimension")
    for m in action.rho:
        for row in kern.rows():
            if not kern.contains(m(row)):
                raise NoSolutionError("subspace is not invariant under the action")

    annihilator = kernel_basis(kern.basis)  # rows w with w . k = 0 for all k in kern
    seen = set()
    rows = []
    rhs = []

    def add(entries: dict[int, Fraction], b: Fraction) -> None:
        # equal rows have equal nonzero entries; hashing those beats
        # hashing every Fraction of an n*n-wide row
        nonzero = sorted((t, e) for t, e in entries.items() if e)
        key = (tuple((t, e.numerator, e.denominator) for t, e in nonzero), b)
        if key in seen:
            return
        seen.add(key)
        row = [_ZERO] * (n * n)
        for t, e in nonzero:
            row[t] = e
        rows.append(tuple(row))
        rhs.append(b)

    # image of the projection inside kern
    for w in annihilator.rows():
        for j in range(n):
            add({i * n + j: e for i, e in enumerate(w) if e}, _ZERO)
    # projection fixes kern pointwise
    for k in kern.rows():
        for i in range(n):
            add({i * n + j: e for j, e in enumerate(k) if e}, k[i])
    # projection commutes with every operator
    for m in action.rho:
        mat = m.matrix
        for i in range(n):
            for j in range(n):
                entries: dict[int, Fraction] = {}
                for t in range(n):
                    e = mat.entries[t][j]
                    if e:
                        entries[i * n + t] = entries.get(i * n + t, _ZERO) + e
                for t in range(n):
                    e = mat.entries[i][t]
                    if e:
                        entries[t * n + j] = entries.get(t * n + j, _ZERO) - e
                add(entries, _ZERO)

    solved = solve_affine(Matrix(len(rows), n * n, tuple(rows)), tuple(rhs))
    if solved is None:
        raise NoSolutionError("equivariant projection system is inconsistent")
    flat, _ = solved
    proj = Matrix(n, n, tuple(
        tuple(flat[i * n + j] for j in range(n)) for i in range(n)
    ))
    return kernel_basis(proj)


def leibniz_levi(alg: LeibnizAlgebra) -> LeviDecomposition:
    """Semisimple complement of the soluble radical of a Leibniz algebra.

    A soluble algebra gets the zero complement.  Otherwise: Levi
    complement in the Lie quotient by the squares ideal, pull back to a
    subalgebra containing the ideal, and split that subalgebra over the
    ideal with an equivariant projection.
    """
    kern = leibniz_kernel(alg)
    rad = soluble_radical(alg)
    if rad.is_full():
        s = Subspace.zero(alg.dim)
    else:
        qalg, _, section = quotient(alg, kern)
        s_bar = lie_levi(qalg)
        star = subspace_sum(
            Subspace(alg.dim, [section.apply(row) for row in s_bar.rows()]),
            kern,
        )
        if star.is_full():
            sub = alg
            kern_sub = kern
            action = module_from_kernel(sub, kern_sub)
            s = module_complement(action, kern_sub)
        else:
            sub = restrict_to_subalgebra(alg, star)
            coords = [star.coordinates(row) for row in kern.rows()]
            assert all(c is not None for c in coords)  # kern sits inside star
            kern_sub = Subspace(star.dim, coords)
            action = module_from_kernel(sub, kern_sub)
            inner = module_complement(action, kern_sub)
            s = embed_rows(star, inner.rows())
    witnesses = verify_levi(alg, s)
    if not witnesses.all_pass:
        raise RuntimeError(f"complement failed verification: {witnesses.as_dict()}")
    return LeviDecomposition(semisimple_part=s, radical=rad, witnesses=witnesses)
