"""Left Leibniz algebras presented by structure constants.

An algebra on an ordered basis b_0..b_{n-1} is a structure table: the
constants c[i][j][k] with b_i . b_j = sum_k c[i][j][k] b_k, held only as
an index of the nonzero ones.  Tables are built straight into it, and
products, the identity check and the other walks over the table iterate
it, so their cost follows the number of nonzero products rather than a
power of the dimension.  Every product of two vectors, single or of
subspace rows, goes through one kernel (``_products``) that runs on
integers, through a copy of the index scaled per coordinate.  Antisymmetry
is never assumed; Lie algebras are the special case where it holds.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exactlin import (
    Matrix,
    Subspace,
    Vector,
    _echelon,
    _fraction_repr,
    _Immutable,
    _integer_rows,
    _make_primitive,
    _modulo,
    _null_rows,
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
Sums = dict[int, dict[int, Fraction]]  # k -> a sparse vector {t: coefficient}


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
        return f"StructureTable(dim={self.dim!r}, c={_fraction_repr(self.c)})"

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
    """Bilinear extension of the table: (x.y)_k = sum_{i,j} x_i y_j c[i][j][k]."""
    xv = as_vector(x)
    yv = as_vector(y)
    n = alg.dim
    if len(xv) != n or len(yv) != n:
        raise ValueError("vector length differs from algebra dimension")
    (v,) = _rational_products(alg.table, [list(compress(enumerate(xv), xv))],
                              [list(compress(enumerate(yv), yv))])
    return tuple(v.get(k, _ZERO) for k in range(n))


def _products(table: StructureTable, xs: Iterable[Sequence[tuple[int, Fraction]]],
              ys: Iterable[Sequence[tuple[int, Fraction]]]) -> Iterator[tuple[int, dict[int, int]]]:
    """(d, s) for each x of xs and, inside that, each y of ys, given as
    their nonzero (i, c) pairs: coordinate k of x.y is s[k] / (d * den[k]).
    Each row is scaled to integers once, X = dx * x and Y = dy * y, so
    s[k] = sum X_i Y_j (c[i][j][k] * den[k]) and d = dx * dy."""
    scaled = table.scaled
    y_rows = [_scaled_row(y) for y in ys]
    for x in xs:
        dx, xs_scaled = _scaled_row(x)
        x_terms = [(scaled[i], xi) for i, xi in xs_scaled]
        for dy, y in y_rows:
            acc: dict[int, int] = {}
            for row_i, xi in x_terms:
                for j, yj in y:
                    pairs = row_i.get(j)
                    if pairs:
                        f = xi * yj
                        for k, e in pairs:
                            acc[k] = acc.get(k, 0) + f * e
            yield dx * dy, acc


def _rational_products(table: StructureTable, xs: Iterable[Sequence[tuple[int, Fraction]]],
                       ys: Iterable[Sequence[tuple[int, Fraction]]]) -> Iterator[dict[int, Fraction]]:
    """Each product of ``_products`` as its nonzero {k: c}, one Fraction
    per nonzero coordinate."""
    for d, acc in _products(table, xs, ys):
        den = table.den  # read after ``scaled``, which builds it
        yield {k: Fraction(a, d * den[k]) for k, a in acc.items() if a}


def _sums(terms: Iterable[tuple[int, object, Pairs]]) -> Sums:
    """k -> the sum of a * pairs over the terms (k, a, pairs)."""
    sums: Sums = defaultdict(dict)
    for k, a, pairs in terms:
        acc = sums[k]
        for t, e in pairs:
            acc[t] = acc[t] + a * e if t in acc else a * e
    return sums


# The walks below take index rows: maps from an index to its nonzero
# (t, c) pairs, such as ``nonzero[i]`` (j -> b_i.b_j) or the columns of a
# map (m -> d(b_m)).  They take any number type.

def _through(outer: Mapping[int, Pairs], inner: Mapping[int, Pairs]) -> Sums:
    """k -> sum_m inner[k]_m * outer[m]: with outer = nonzero[i] and
    inner = nonzero[j], A(i, j, k) = b_i(b_j.b_k)."""
    return _sums((k, a, outer[m]) for k, pairs in inner.items()
                 for m, a in pairs if m in outer)


def _times(nonzero: Sequence[Mapping[int, Pairs]], v: Pairs) -> Sums:
    """k -> v.b_k for v given by its nonzero (m, a) pairs: with
    v = b_i.b_j, B(i, j, k) = (b_i.b_j).b_k."""
    return _sums((k, a, pairs) for m, a in v for k, pairs in nonzero[m].items())


def _defects(lhs: Sums, a: Sums, b: Sums) -> Iterator[tuple[int, dict, dict]]:
    """Each k where lhs[k] != a[k] + b[k], with lhs[k] and that sum."""
    for k in lhs.keys() | a.keys() | b.keys():
        left, rhs = lhs.get(k, {}), dict(a.get(k, {}))
        for t, e in b.get(k, {}).items():
            rhs[t] = rhs[t] + e if t in rhs else e
        if left != rhs and any(left.get(t, 0) != rhs.get(t, 0) for t in left.keys() | rhs.keys()):
            yield k, left, rhs


def _left_annihilator(table: StructureTable) -> Subspace:
    """Ann = {a : a.y = 0 for all y}: the null space of the map
    m -> (c[m][k][l])_{k,l}, one row per nonzero (k, l) of the index."""
    columns: dict[tuple[int, int], list[tuple[int, Fraction]]] = defaultdict(list)
    for m, products in enumerate(table.nonzero):
        for k, pairs in products.items():
            for t, e in pairs:
                columns[k, t].append((m, e))
    echelon = _echelon(_integer_rows(columns.values()))
    return Subspace._from_echelon(table.dim, _echelon(_null_rows(echelon, table.dim)))


def check_left_leibniz(alg: LeibnizAlgebra) -> ViolationReport:
    """Evaluate a(bc) = (ab)c + b(ac) on every basis triple; the report
    lists each failing one, in (i, j, k) order, with both sides as vectors.

    In operator form the identity is L_{ab} = [L_a, L_b].  With
    A(i, j, k) = b_i(b_j.b_k) and B(i, j, k) = (b_i.b_j).b_k, the defect
    at (i, j, k) is A(i, j, k) - A(j, i, k) - B(i, j, k), and at (i, i, k)
    it is -B(i, i, k).  L_x depends only on x modulo the left annihilator
    Ann, so each product is reduced modulo Ann's RREF rows, and the
    reduction r is zero exactly on Ann.  Adding the identity at (i, j, k)
    and (j, i, k) gives L_{b_i.b_j + b_j.b_i} = 0, so the pair {i, j}
    passes in both orders iff A(i, j, .) - A(j, i, .) = B(i, j, .) and
    r(b_j.b_i) = -r(b_i.b_j); B(j, i, .) is formed only for the report of
    a failing pair.  The diagonal passes iff r(b_i.b_i) = 0.  A pair is
    visited if both left multiplications are nonzero or one of b_i.b_j
    and b_j.b_i is.  The identity at (i, j, k) is the derivation law at
    (j, k) for d = L_{b_i}, which ``is_derivation`` walks through the
    same helpers on unreduced sums."""
    n = alg.dim
    nonzero = alg.table.nonzero
    rows = _left_annihilator(alg.table)._off_pivot()
    violations = []

    def report(i: int, j: int, lhs: Sums, ji: Sums, ij: Sums) -> None:
        violations.extend(Violation(i, j, k, *(tuple(v.get(t, _ZERO) for t in range(n))
                                               for v in sides))
                          for k, *sides in _defects(lhs, ji, ij))

    active = [i for i, row in enumerate(nonzero) if row]
    for p, i in enumerate(active):
        square = _modulo(nonzero[i].get(i, ()), rows)
        if square:
            report(i, i, diagonal := _through(nonzero[i], nonzero[i]), diagonal,
                   _times(nonzero, square.items()))
        for j in active[p + 1:] + [j for j in nonzero[i] if not nonzero[j]]:
            ij = _through(nonzero[i], nonzero[j])
            # A(j, i, .) is zero when b_j multiplies everything to zero
            ji = _through(nonzero[j], nonzero[i]) if nonzero[j] else {}
            v = _modulo(nonzero[i].get(j, ()), rows)
            w = _modulo(nonzero[j].get(i, ()), rows)
            found = len(violations)
            report(i, j, ij, ji, _times(nonzero, v.items()))
            if len(violations) > found or w != {t: -a for t, a in v.items()}:
                report(j, i, ji, ij, _times(nonzero, w.items()))
    violations.sort()
    return ViolationReport(tuple(violations))


def is_derivation(alg: LeibnizAlgebra, d: Matrix) -> bool:
    """d(x.y) = d(x).y + x.d(y) on all basis pairs.

    With images[m] = d(b_m), the law at (j, k) compares d(b_j.b_k) with
    b_j.d(b_k) + d(b_j).b_k.  For images = ``nonzero[i]`` these are the
    identity check's sums A(i, j, k), A(j, i, k) and B(i, j, k).
    """
    if (d.rows, d.cols) != (alg.dim, alg.dim):
        raise ValueError("map dimension differs from algebra dimension")
    images: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)  # column m of d
    for k, row in enumerate(d.nonzero):
        for m, e in row:
            images[m].append((k, e))
    return not any(_derivation_failures(alg.table.nonzero, images))


def _derivation_failures(nonzero: Sequence[Mapping[int, Pairs]],
                         images: Mapping[int, Pairs]) -> Iterator[tuple[int, int, dict, dict]]:
    """Each basis pair (j, k) where d(b_j.b_k) != d(b_j).b_k + b_j.d(b_k),
    with both sides as {t: c} maps; j ascends, k in no fixed order.
    ``images[m]`` is d(b_m) as its nonzero (t, c) pairs, with m omitted
    where d(b_m) = 0."""
    for j, row_j in enumerate(nonzero):
        # only d(b_j).b_k can be nonzero when b_j multiplies everything to zero
        lhs, dk = (_through(images, row_j), _through(row_j, images)) if row_j else ({}, {})
        for k, left, rhs in _defects(lhs, dk, _times(nonzero, images.get(j, ()))):
            yield j, k, left, rhs


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
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(alg.dim)]
    for j, column in _times(alg.table.nonzero, compress(enumerate(av), av)).items():
        for k, e in column.items():
            rows[k].append((j, e))
    return Matrix._from_nonzero(alg.dim, alg.dim, rows)


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

    The integer sums of ``_products`` over the sparse basis rows go
    straight to the elimination.
    """
    if u.ambient_dim != alg.dim or v.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    return _scaled_span(alg.table, (acc for _, acc in _products(alg.table, u.sparse_rows,
                                                                   v.sparse_rows)))


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
    position = {f: t for t, f in enumerate(free)}

    # image of each ambient basis vector, as (quotient index, coeff) pairs
    images = {f: ((t, Fraction(1)),) for t, f in enumerate(free)}
    for p, row in zip(ideal.pivots, ideal.sparse_rows):
        images[p] = tuple((position[c], -e) for c, e in row if c != p)
    products = {(ti, tj): image for ti, f in enumerate(free) for tj, image in _sums(
        (position[j], e, images[k]) for j, pairs in alg.table.nonzero[f].items()
        if j in position for k, e in pairs).items()}
    qalg = LeibnizAlgebra(
        StructureTable.from_map(len(free), products),
        labels=[alg.labels[f] for f in free],
        validate=False,
    )
    return qalg, Subspace._from_echelon(alg.dim, [(f, 1, {f: 1}) for f in free])


def restrict_to_subalgebra(alg: LeibnizAlgebra, u: Subspace) -> LeibnizAlgebra:
    """The algebra induced on a subalgebra's canonical basis.

    Coordinates of the restricted algebra are coefficients over u's RREF
    basis rows, read off each product at u's pivots; map them back with
    ``embed_rows(u, rows)``.  Like ``quotient``, the result is built
    without rechecking the identity.
    Raises NotASubalgebraError at the first basis product outside u.
    """
    if u.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    rows = u._off_pivot()
    pairs = ((a, b) for a in range(u.dim) for b in range(u.dim))
    products = {}
    for ab, v in zip(pairs, _rational_products(alg.table, u.sparse_rows, u.sparse_rows)):
        if _modulo(v.items(), rows):
            raise NotASubalgebraError("restriction to a subspace that is not a subalgebra")
        products[ab] = {t: v[p] for t, p in enumerate(u.pivots) if p in v}
    return LeibnizAlgebra(
        StructureTable.from_map(u.dim, products),
        labels=[alg.labels[p] for p in u.pivots],
        validate=False,
    )
