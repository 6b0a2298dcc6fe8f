"""Left Leibniz algebras presented by structure constants.

An algebra on an ordered basis b_0..b_{n-1} is a structure table: the
constants c[i][j][k] with b_i . b_j = sum_k c[i][j][k] b_k, held only as
an index of the nonzero ones.  Tables are built straight into it, and
products, the identity check and the other walks over the table iterate
it, so their cost follows the number of nonzero products rather than a
power of the dimension.  Products and subspace products run on integers,
through a copy of the index scaled per coordinate.  Antisymmetry is never
assumed; Lie algebras are the special case where it holds.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exactlin import (
    Matrix,
    Subspace,
    Vector,
    _echelon,
    _Immutable,
    _make_primitive,
    _scaled_row,
    as_scalar,
    as_vector,
)

_ZERO = Fraction(0)


class LeibnizIdentityError(ValueError):
    """Construction of an algebra whose table violates the left Leibniz law."""

    def __init__(self, report: "ViolationReport"):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"left Leibniz identity fails on basis triple "
            f"({first.i},{first.j},{first.k}) and {len(report.violations) - 1} more"
        )


class NotLieError(ValueError):
    """An operation that needs an antisymmetric table got a non-Lie algebra."""


class NotASubalgebraError(ValueError):
    pass


class Violation(NamedTuple):
    """One failing basis triple (a,b,c): a(bc) != (ab)c + b(ac)."""

    i: int
    j: int
    k: int
    lhs: Vector
    rhs: Vector


class ViolationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# The nonzero (k, c) pairs of one basis product, in increasing k.
Pairs = tuple[tuple[int, Fraction], ...]
# The same pairs with each c scaled to an integer (see StructureTable).
IntPairs = tuple[tuple[int, int], ...]


class StructureTable(_Immutable):
    """The constants c[i][j][k] of b_i . b_j = sum_k c[i][j][k] b_k.

    ``nonzero[i]`` maps each j with b_i . b_j != 0, in increasing j, to
    that product's nonzero (k, c) pairs, in increasing k.  It is the one
    stored form, built alike from a dense tensor and by ``from_map``, and
    ``==`` and ``hash`` compare ``dim`` and it.  ``cache`` starts empty;
    it holds what ``structure`` derives from the table alone.  ``scaled``
    and ``den``, the integer form of the index, and ``c``, the dense dim³
    tensor that ``repr`` shows, are built on first read; the library
    never reads ``c`` or ``row``.
    """

    def __init__(self, dim: int, c: tuple[tuple[Vector, ...], ...]):
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in c
        ):
            raise ValueError("structure tensor shape differs from dim")
        self._index(dim, ((i, j, enumerate(row))
                          for i, plane in enumerate(c) for j, row in enumerate(plane)))

    def _index(self, dim: int,
               products: Iterable[tuple[int, int, Iterable[tuple[int, object]]]]) -> None:
        """Set the fields from (i, j, (k, coeff) pairs); zeros are dropped."""
        index: list[dict[int, Pairs]] = [{} for _ in range(dim)]
        for i, j, row in products:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"index pair ({i},{j}) out of range")
            pairs = []
            for k, coeff in row:
                if not 0 <= k < dim:
                    raise ValueError(f"target index {k} out of range")
                e = as_scalar(coeff)
                if e:
                    pairs.append((k, e))
            if pairs:
                index[i][j] = tuple(sorted(pairs))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nonzero", tuple(dict(sorted(p.items())) for p in index))
        object.__setattr__(self, "cache", {})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.nonzero) == (other.dim, other.nonzero)

    def __hash__(self) -> int:
        return hash((self.dim, tuple(tuple(p.items()) for p in self.nonzero)))

    def __repr__(self) -> str:
        return f"StructureTable(dim={self.dim!r}, c={self.c!r})"

    @cached_property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        n = self.dim
        return tuple(tuple(self.row(i, j) for j in range(n)) for i in range(n))

    @cached_property
    def den(self) -> tuple[int, ...]:
        """``den[k]`` is the lcm of the denominators in coordinate k of
        every product.  One denominator per coordinate keeps each scaled
        constant as long as its own coordinate needs; a table-wide lcm
        would multiply every constant by the denominators of all the
        other coordinates."""
        den = [1] * self.dim
        for products in self.nonzero:
            for pairs in products.values():
                for k, e in pairs:
                    den[k] = lcm(den[k], e.denominator)
        return tuple(den)

    @cached_property
    def scaled(self) -> tuple[dict[int, IntPairs], ...]:
        """``nonzero`` with each c[i][j][k] replaced by the integer
        c[i][j][k] * den[k]."""
        den = self.den
        return tuple(
            {j: tuple((k, e.numerator * (den[k] // e.denominator)) for k, e in pairs)
             for j, pairs in products.items()}
            for products in self.nonzero
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Sequence[object]]]) -> "StructureTable":
        return StructureTable(len(rows), rows)

    @staticmethod
    def from_map(dim: int, products: Mapping[tuple[int, int], Mapping[int, object]]) -> "StructureTable":
        """Build a table from a sparse {(i,j): {k: coeff}} description."""
        table = StructureTable.__new__(StructureTable)
        table._index(dim, ((i, j, row.items()) for (i, j), row in products.items()))
        return table

    def row(self, i: int, j: int) -> Vector:
        """Coordinates of the basis product b_i . b_j: its stored
        constants copied into a zero vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis pair ({i},{j}) out of range")
        acc = [_ZERO] * self.dim
        for k, e in self.nonzero[i].get(j, ()):
            acc[k] = e
        return tuple(acc)


class LeibnizAlgebra(_Immutable):
    """An algebra over Q with a fixed ordered basis and structure table.

    The left Leibniz identity is checked at construction unless
    ``validate=False``: the CLI path that must report violations instead
    of refusing to build, and quotients and restrictions, which inherit
    the identity from the algebra they come from, pass it.
    """

    __slots__ = ("dim", "labels", "table")

    def __init__(self, table: StructureTable, labels: Sequence[str] | None = None,
                 validate: bool = True):
        if labels is None:
            labels = tuple(f"x{i}" for i in range(table.dim))
        else:
            labels = tuple(labels)
            if len(labels) != table.dim:
                raise ValueError("label count differs from dim")
        object.__setattr__(self, "dim", table.dim)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", table)
        if validate:
            report = check_left_leibniz(self)
            if not report.ok:
                raise LeibnizIdentityError(report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeibnizAlgebra):
            return NotImplemented
        return (self.dim, self.labels, self.table) == (other.dim, other.labels, other.table)

    def __hash__(self) -> int:
        return hash((self.dim, self.labels, self.table))

    def __repr__(self) -> str:
        return f"LeibnizAlgebra(dim={self.dim}, labels={list(self.labels)})"

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        v = [_ZERO] * self.dim
        v[i] = Fraction(1)
        return tuple(v)


def product(alg: LeibnizAlgebra, x: Sequence[object], y: Sequence[object]) -> Vector:
    """Bilinear extension of the table: (x.y)_k = sum_{i,j} x_i y_j c[i][j][k].

    Runs on integers: with x = X/dx and y = Y/dy, coordinate k is
    sum X_i Y_j (c[i][j][k] * den[k]) over dx * dy * den[k].
    """
    xv = as_vector(x)
    yv = as_vector(y)
    n = alg.dim
    if len(xv) != n or len(yv) != n:
        raise ValueError("vector length differs from algebra dimension")
    dx, xs = _scaled_row([(i, a) for i, a in enumerate(xv) if a])
    dy, ys = _scaled_row([(j, a) for j, a in enumerate(yv) if a])
    y_at = dict(ys)
    acc = [0] * n
    scaled = alg.table.scaled
    for i, xi in xs:
        for j, pairs in scaled[i].items():
            yj = y_at.get(j)
            if yj:
                f = xi * yj
                for k, e in pairs:
                    acc[k] += f * e
    d = dx * dy
    den = alg.table.den
    return tuple(Fraction(a, d * den[k]) if a else _ZERO for k, a in enumerate(acc))


# A term list [(a, pairs), ...] stands for the sparse vector
# sum of a * pairs over its terms.

def _dense_sum(n: int, terms: Iterable[tuple[Fraction, Pairs]]) -> Vector:
    acc = [_ZERO] * n
    for a, pairs in terms:
        for k, e in pairs:
            acc[k] += a * e
    return tuple(acc)


def _derivation_failures(nonzero: Sequence[Mapping[int, Pairs]],
                         images: Mapping[int, Pairs]) -> Iterator[tuple[int, int, list, list]]:
    """Walk the derivation law d(b_j.b_k) = d(b_j).b_k + b_j.d(b_k).

    ``nonzero`` is a table's index and ``images[m]`` is d(b_m) as its
    nonzero (k, c) pairs, with m omitted where d(b_m) = 0.  Yields, in
    (j, k) order, each basis pair where the law fails, with both sides
    as term lists.  For each j the defect is summed only at the k that a
    term reaches: b_j.b_k meeting an m with d(b_m) != 0, b_m.b_k for m
    in the support of d(b_j), or b_j.b_m for m in that of d(b_k).  Any
    other pair has three empty sides and costs nothing.
    """
    users: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)  # m -> (k, d(b_k)_m)
    for k, dk in images.items():
        for m, a in dk:
            users[m].append((k, a))
    for j, row_j in enumerate(nonzero):
        dj = images.get(j, ())
        defect: dict[int, dict[int, Fraction]] = defaultdict(lambda: defaultdict(int))
        for k, pairs in row_j.items():          # d(b_j.b_k)
            for m, a in pairs:
                for t, e in images.get(m, ()):
                    defect[k][t] += a * e
        for m, a in dj:                          # d(b_j).b_k
            for k, pairs in nonzero[m].items():
                for t, e in pairs:
                    defect[k][t] -= a * e
        for m, pairs in row_j.items():           # b_j.d(b_k)
            for k, a in users.get(m, ()):
                for t, e in pairs:
                    defect[k][t] -= a * e
        for k in sorted(defect):
            if any(defect[k].values()):
                yield (j, k, [(a, images.get(m, ())) for m, a in row_j.get(k, ())],
                       [(a, nonzero[m].get(k, ())) for m, a in dj]
                       + [(a, row_j.get(m, ())) for m, a in images.get(k, ())])


def check_left_leibniz(alg: LeibnizAlgebra) -> ViolationReport:
    """Evaluate a(bc) = (ab)c + b(ac) on every basis triple.

    The report is empty exactly when the identity holds; otherwise it
    lists each violating triple, in (i, j, k) order, with both sides as
    dense vectors.  Triple (i, j, k) is the derivation law of left
    multiplication by b_i at the pair (j, k), which holds for every pair
    when that map is zero (an empty ``nonzero[i]``).
    """
    n = alg.dim
    nonzero = alg.table.nonzero
    violations = []
    for i, images in enumerate(nonzero):
        if not images:
            continue
        for j, k, lhs, rhs in _derivation_failures(nonzero, images):
            violations.append(Violation(i, j, k, _dense_sum(n, lhs), _dense_sum(n, rhs)))
    return ViolationReport(tuple(violations))


def is_lie(alg: LeibnizAlgebra) -> bool:
    """Antisymmetry of the table; with the Leibniz identity this gives Jacobi."""
    nonzero = alg.table.nonzero
    for i, products in enumerate(nonzero):
        for j, pairs in products.items():
            if nonzero[j].get(i) != tuple((k, -e) for k, e in pairs):
                return False
    return True


def left_multiplication(alg: LeibnizAlgebra, a: Sequence[object]) -> Matrix:
    """The operator x -> a.x; column j is the product a . b_j."""
    av = as_vector(a)
    if len(av) != alg.dim:
        raise ValueError("vector length differs from algebra dimension")
    n = alg.dim
    nonzero = alg.table.nonzero
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, ai in enumerate(av):
        if not ai:
            continue
        for j, pairs in nonzero[i].items():
            for k, e in pairs:
                rows[k][j] = rows[k].get(j, _ZERO) + ai * e
    return Matrix._from_nonzero(n, n, [row.items() for row in rows])


def _scaled_span(table: StructureTable, sums: Iterable[Mapping[int, int]]) -> Subspace:
    """Canonical span of the vectors whose coordinate k is s[k] / den[k],
    one per mapping s of sums over the table's ``scaled`` index.  Each
    reaches the elimination as its primitive integer multiple."""
    den = table.den
    rows = []
    for s in sums:
        row = {k: a for k, a in s.items() if a}
        if row:
            m = lcm(*[den[k] for k in row])
            if m != 1:
                for k in row:
                    row[k] *= m // den[k]
            rows.append(_make_primitive(row))
    return Subspace._from_echelon(table.dim, _echelon(rows))


def subspace_product(alg: LeibnizAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Canonical span of all products of basis vectors of u with those of v.

    Multiplies the sparse basis rows, scaled to integers, pairwise
    through the table's ``scaled`` index.
    """
    if u.ambient_dim != alg.dim or v.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    scaled = alg.table.scaled
    v_rows = [_scaled_row(y)[1] for y in v.sparse_rows]

    def products() -> Iterator[dict[int, int]]:
        for x in u.sparse_rows:
            x_terms = [(scaled[i], xi) for i, xi in _scaled_row(x)[1]]
            for y in v_rows:
                acc: dict[int, int] = {}
                for row_i, xi in x_terms:
                    for j, yj in y:
                        pairs = row_i.get(j)
                        if pairs:
                            f = xi * yj
                            for k, e in pairs:
                                acc[k] = acc.get(k, 0) + f * e
                yield acc

    return _scaled_span(alg.table, products())


def quotient(alg: LeibnizAlgebra, ideal: Subspace) -> tuple[LeibnizAlgebra, Subspace]:
    """Quotient algebra by an ideal, with the lifts of its basis.

    The quotient basis is the non-pivot coordinates of the ideal in index
    order, so the construction is deterministic.  Returns (quotient,
    lifts), where ``lifts`` is the subspace whose RREF rows are the unit
    vectors at those coordinates: ``embed_rows(lifts, rows)`` maps
    quotient coordinates back.  A free basis vector maps to itself and
    the pivot of ideal row r to minus the rest of row r.  The quotient
    of a Leibniz algebra satisfies the identity, so it is built without
    rechecking it.  Every caller passes an ideal by theorem (the squares
    ideal, the radical, R·R), so that is not re-proved either.
    """
    if ideal.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    pivot_set = set(ideal.pivots)
    free = [c for c in range(alg.dim) if c not in pivot_set]
    q = len(free)
    position = {f: t for t, f in enumerate(free)}

    # image of each ambient basis vector, as (quotient index, coeff) pairs
    images = {f: ((t, Fraction(1)),) for t, f in enumerate(free)}
    for p, row in zip(ideal.pivots, ideal.sparse_rows):
        images[p] = tuple((position[c], -e) for c, e in row if c != p)
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ti, f in enumerate(free):
        for j, pairs in alg.table.nonzero[f].items():
            tj = position.get(j)
            if tj is not None:
                image = _dense_sum(q, ((e, images[k]) for k, e in pairs))
                products[(ti, tj)] = dict(enumerate(image))
    qalg = LeibnizAlgebra(
        StructureTable.from_map(q, products),
        labels=[alg.labels[f] for f in free],
        validate=False,
    )
    return qalg, Subspace._from_echelon(alg.dim, [(f, 1, {f: 1}) for f in free])


def restrict_to_subalgebra(alg: LeibnizAlgebra, u: Subspace) -> LeibnizAlgebra:
    """The algebra induced on a subalgebra's canonical basis.

    Coordinates of the restricted algebra are coefficients over u's RREF
    basis rows; map them back with ``embed_rows(u, rows)``.  Like
    ``quotient``, the result is built without rechecking the identity.
    Raises NotASubalgebraError at the first basis product outside u.
    """
    if u.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    rows = u.rows()
    products = {}
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            coords = u.coordinates(product(alg, x, y))
            if coords is None:
                raise NotASubalgebraError("restriction to a subspace that is not a subalgebra")
            products[(a, b)] = dict(enumerate(coords))
    return LeibnizAlgebra(
        StructureTable.from_map(len(rows), products),
        labels=[alg.labels[p] for p in u.pivots],
        validate=False,
    )
