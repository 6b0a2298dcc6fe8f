"""Exact linear algebra over the rationals.

Values are :class:`fractions.Fraction`; there is no floating point
anywhere.  Vectors are tuples of scalars.  A matrix is immutable and
stored as its nonzero entries, row by row; its dense grid is a view,
built on first read.  A subspace always carries the unique reduced row
echelon basis of its span, so two subspaces are equal as sets exactly
when they compare equal structurally.

Elimination runs on integers.  One kernel (``_echelon``) serves ``rref``,
``Subspace`` and ``solve_affine``, which also returns the null space of
its matrix.  Each row's nonzero entries are scaled once to their
primitive integer multiple, kept as a sparse ``{column: int}`` dict, and
reduced by fraction-free row operations with the gcd content removed
after every step.  Fractions are made only when the result is written
back, one division by the pivot entry per entry.  The RREF is unique, so
this gives the same bases, pivots and solutions as Gauss-Jordan over
Fractions.  Every membership and coordinates test goes through one sparse
reduction (``_modulo``) of a vector modulo a subspace's RREF rows.

``Matrix`` is the one type for linear maps.  Matrix-vector products
(``Matrix.apply``, and through it ``apply_to_subspace``) run on integers
too: each matrix keeps its columns scaled by their own denominators,
the vector is scaled once, and each output coordinate is one integer
sum and at most one Fraction.  The dense sums, scalings and
products of matrices serve ``exp_nilpotent``; the only other user is
``Matrix.__sub__`` in the benchmark's sl(n) builder (``workloads.sln``).

Rationals as text live here too.  ``as_scalar`` matches a string to
``RATIONAL`` first, since ``Fraction`` evaluates an exponent such as
"1e10000000" before any check.  ``scalar_to_str`` writes ``str(x)``, in
chunks past the interpreter's int-to-string limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotNilpotentError(ValueError):
    """Raised when a map required to be nilpotent has a power d^k with
    nonzero trace, which proves it is not nilpotent."""


# A rational as text: the shape ``str(Fraction)`` writes, any denominator.
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_scalar(value: object) -> Fraction:
    """Coerce a Fraction, an int that is not a bool, or a ``RATIONAL``
    string ("2/4" reads as 1/2) to a rational.  Anything else, floats and
    "0.5" too, raises TypeError; "1/0" raises ZeroDivisionError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and RATIONAL.fullmatch(value):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# Decimal digits per chunk when writing an integer.  ``str(int)`` refuses
# integers of more digits than the interpreter's limit (4300 by default),
# which computed values reach from legal inputs: a 3000-digit table entry
# squares to 6000 digits in a violation report.
_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_to_str(n: int) -> str:
    """Decimal form of n, written in fixed-width chunks when it is large."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    chunks = []
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    return sign + str(chunks.pop()) + "".join(
        f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


def scalar_to_str(x: int | Fraction) -> str:
    """``str(x)`` of an int or Fraction, also for numerators and
    denominators longer than the interpreter's int-to-string limit."""
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def _fraction_repr(x: object) -> str:
    """``repr`` of nested tuples of Fractions, also past the int-to-string limit."""
    if isinstance(x, tuple):
        return f"({', '.join(map(_fraction_repr, x))}{',' * (len(x) == 1)})"
    return f"{type(x).__name__}({_int_to_str(x.numerator)}, {_int_to_str(x.denominator)})"


def as_vector(entries: Iterable[object]) -> Vector:
    """Coerce entries to a tuple of rationals.

    A tuple whose entries are all Fractions already is one, and is
    returned as it is after a type check of each entry.
    """
    if type(entries) is tuple and all(map(isinstance, entries, repeat(Fraction))):
        return entries
    return tuple(as_scalar(x) for x in entries)


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_scale(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


class _Immutable:
    """Base of the library's value types: fields are set once, through
    ``object.__setattr__``, and assigning or deleting one afterwards
    raises."""

    __slots__ = ()

    def __setattr__(self, *args: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__


class Matrix(_Immutable):
    """Immutable rows x cols matrix of rationals.  As a linear map it acts
    on column vectors: column j is the image of the j-th basis vector.

    ``nonzero[i]`` is row i as its nonzero (column, value) pairs, in
    increasing column.  It is the one stored form, and ``==`` and
    ``hash`` compare ``rows``, ``cols`` and it.  ``_from_nonzero`` is the
    library's builder.  ``entries``, the dense grid, is a view built on
    first read; the dense constructor coerces each row of the grid it is
    given with ``as_vector`` and keeps the result as that view.
    """

    def __init__(self, rows: int, cols: int, entries: Iterable[Sequence[object]]):
        entries = tuple(map(as_vector, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entries shape differs from rows x cols")
        self._set(rows, cols, tuple(tuple(compress(enumerate(r), r)) for r in entries))
        object.__setattr__(self, "entries", entries)

    def _set(self, rows: int, cols: int, nonzero: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzero", nonzero)

    @staticmethod
    def _from_nonzero(rows: int, cols: int,
                      pairs: Iterable[Iterable[tuple[int, object]]]) -> "Matrix":
        """The matrix whose row i has the (column, value) pairs pairs[i],
        given in any order; zero values are dropped."""
        m = Matrix.__new__(Matrix)
        m._set(rows, cols, tuple(tuple(sorted((j, x) for j, x in row if x)) for row in pairs))
        return m

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.nonzero) == (other.rows, other.cols, other.nonzero)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzero))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={_fraction_repr(self.entries)})"

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        grid = [[_ZERO] * self.cols for _ in self.nonzero]
        for row, pairs in zip(grid, self.nonzero):
            for j, x in pairs:
                row[j] = x
        return tuple(map(tuple, grid))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]], cols: int | None = None) -> "Matrix":
        width = len(rows[0]) if rows else 0 if cols is None else cols
        if cols is not None and width != cols:
            raise ValueError(f"expected {cols} columns, got {width}")
        return Matrix(len(rows), width, rows)  # which coerces and refuses ragged rows

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_nonzero(n, n, [((i, _ONE),) for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._from_nonzero(rows, cols, [()] * rows)

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return tuple(r[j] for r in self.entries)

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(
            vec_add(a, b) for a, b in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-_ONE)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = [_ZERO] * other.cols
            for k, a in enumerate(self.entries[i]):
                if a == 0:
                    continue
                orow = other.entries[k]
                for j, b in enumerate(orow):
                    if b != 0:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    @cached_property
    def _scaled_columns(self) -> dict[int, tuple[int, list[tuple[int, int]]]]:
        """Each nonzero column j as ``_scaled_row`` of its (row, entry)
        pairs, built from ``nonzero`` by the first ``apply``.  As a cached
        property it stays out of ``==``, ``hash`` and ``repr``."""
        columns: dict[int, list[tuple[int, Fraction]]] = {}
        for i, row in enumerate(self.nonzero):
            for j, x in row:
                columns.setdefault(j, []).append((i, x))
        return {j: _scaled_row(pairs) for j, pairs in columns.items()}

    def apply(self, v: Sequence[object]) -> Vector:
        """Matrix times column vector, on integers.

        v is scaled once to dv * v.  Each column j is kept scaled by d_j,
        the lcm of its own denominators; with D the lcm of the d_j of the
        nonzero columns that v meets, output coordinate i is one integer
        sum over D * dv.
        """
        vv = as_vector(v)
        if len(vv) != self.cols:
            raise ValueError("shape mismatch")
        dv, scaled = _scaled_row([(j, x) for j, x in enumerate(vv) if x])
        columns = self._scaled_columns
        terms = [(columns[j], x) for j, x in scaled if j in columns]
        den = lcm(*[d for (d, _), _ in terms])
        acc = [0] * self.rows
        for (d, pairs), x in terms:
            f = x * (den // d)
            for i, a in pairs:
                acc[i] += a * f
        return tuple(Fraction(s, den * dv) if s else _ZERO for s in acc)


def _scaled_row(pairs: Sequence[tuple[int, Fraction]]) -> tuple[int, list[tuple[int, int]]]:
    """(d, d * row) for a sparse rational row, d the lcm of its denominators."""
    d = lcm(*[x.denominator for _, x in pairs])
    return d, [(c, x.numerator * (d // x.denominator)) for c, x in pairs]


def _integer_rows(rows: Iterable[Sequence[tuple[int, Fraction]]]) -> Iterator[dict[int, int]]:
    """Each nonempty row of (column, value) pairs, none of them zero, as
    its primitive integer multiple ``{column: int}``: scaled by the lcm
    of its denominators and divided by the gcd of the numerators."""
    for row in rows:
        if row:
            yield _make_primitive(dict(_scaled_row(row)[1]))


def _make_primitive(r: dict[int, int]) -> dict[int, int]:
    """Divide the integer row r, in place, by the gcd of its entries."""
    g = gcd(*r.values())
    if g > 1:
        for c in r:
            r[c] //= g
    return r


def _cancel(r: dict[int, int], p: int, d: int, e: dict[int, int]) -> dict[int, int]:
    """Clear column p of r against the row e whose column-p entry is d.

    Replaces r in place by the primitive part of (d·r − r[p]·e), with both
    factors divided by gcd(d, r[p]).
    """
    f = r[p]
    g = gcd(d, f)
    a, b = d // g, f // g
    if a != 1:
        for c in r:
            r[c] *= a
    for c, v in e.items():
        w = r.get(c, 0) - b * v
        if w:
            r[c] = w
        else:
            del r[c]
    return _make_primitive(r)


# One echelon row: (pivot column, pivot entry, primitive integer row).
_Echelon = list[tuple[int, int, dict[int, int]]]


def _echelon(rows: Iterable[dict[int, int]], stop_at: int = -1) -> _Echelon | None:
    """Reduced row echelon form of the span of integer rows, kept integral.

    Each incoming row is reduced against the echelon rows found so far,
    its leading column becomes a new pivot, and that column is then
    cleared from the earlier rows (fraction-free Gauss-Jordan with the
    content removed after every step).  Every echelon row is zero in the
    other pivot columns and starts at its own pivot, so dividing each by
    its pivot entry gives the unique RREF whatever the input order.
    Returns the rows sorted by pivot, or None as soon as a row leads in
    column ``stop_at``.
    """
    found: dict[int, list] = {}   # pivot column -> [pivot entry, row]
    for r in rows:
        for p in [c for c in r if c in found]:
            d, e = found[p]
            _cancel(r, p, d, e)
        if not r:
            continue
        p = min(r)
        if p == stop_at:
            return None
        d = r[p]
        for q, entry in found.items():
            e = entry[1]
            if p in e:
                _cancel(e, p, d, r)
                entry[0] = e[q]
        found[p] = [d, r]
    return [(p, d, e) for p, (d, e) in sorted(found.items())]


def _fraction_entries(echelon: _Echelon) -> list[list[tuple[int, Fraction]]]:
    """The echelon rows divided by their pivot entries, as (column, value)
    pairs: the RREF rows, sparse."""
    return [[(c, Fraction(v, d)) for c, v in e.items()] for _, d, e in echelon]


def _null_rows(echelon: _Echelon, n_cols: int) -> Iterator[dict[int, int]]:
    """One integer null vector per free column f below ``n_cols``: 1 at f
    and, at each pivot, minus the column-f entry of that pivot's RREF row,
    scaled to integers."""
    pivots = {p for p, _, _ in echelon}
    by_col: dict[int, list[tuple[int, int, int]]] = {}
    for p, d, e in echelon:
        for c, v in e.items():
            if c != p:
                by_col.setdefault(c, []).append((p, d, v))
    for f in range(n_cols):
        if f in pivots:
            continue
        hits = by_col.get(f, ())
        den = lcm(*[d for _, d, _ in hits])
        row = {f: den}
        for p, d, v in hits:
            row[p] = -v * (den // d)
        yield _make_primitive(row)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Unique reduced row echelon form of m, with pivot columns and rank."""
    echelon = _echelon(_integer_rows(m.nonzero))
    reduced = Matrix._from_nonzero(
        m.rows, m.cols, _fraction_entries(echelon) + [()] * (m.rows - len(echelon)))
    return reduced, tuple(p for p, _, _ in echelon), len(echelon)


class Subspace(_Immutable):
    """A subspace of Q^n held by its canonical RREF basis.

    The basis rows are the reduced row echelon form of any spanning set,
    with zero rows dropped, so equal subspaces have identical bases and
    ``==`` decides equality of spans.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, spanning_rows: Iterable[Sequence[object]] = ()):
        rows = [as_vector(r) for r in spanning_rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length differs from ambient dimension")
        nonzero = [list(compress(enumerate(r), r)) for r in rows]
        self._set(ambient_dim, _echelon(_integer_rows(nonzero)))

    def _set(self, ambient_dim: int, echelon: _Echelon) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", Matrix._from_nonzero(
            len(echelon), ambient_dim, _fraction_entries(echelon)))
        object.__setattr__(self, "pivots", tuple(p for p, _, _ in echelon))

    @staticmethod
    def _from_echelon(ambient_dim: int, echelon: _Echelon) -> "Subspace":
        sub = Subspace.__new__(Subspace)
        sub._set(ambient_dim, echelon)
        return sub

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._from_echelon(ambient_dim,
                                      [(i, 1, {i: 1}) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def rows(self) -> tuple[Vector, ...]:
        return self.basis.entries

    @property
    def sparse_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The basis rows as their nonzero (column, value) pairs."""
        return self.basis.nonzero

    def _off_pivot(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        """Each basis row, keyed by its pivot, without the leading 1 there:
        the rows ``_modulo`` reduces by."""
        return {p: row[1:] for p, row in zip(self.pivots, self.basis.nonzero)}

    def contains(self, v: Sequence[object]) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence[object]) -> Vector | None:
        """Coefficients of v over the basis rows, or None if v is outside:
        a vector of the span is fixed by its entries at the pivots."""
        w = as_vector(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        if _modulo(compress(enumerate(w), w), self._off_pivot()):
            return None
        return tuple(w[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        rows = self._off_pivot()
        return not any(_modulo(r, rows) for r in other.sparse_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        rows = [list(map(scalar_to_str, r)) for r in self.basis.entries]
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}, rows={rows})"


def _modulo(v: Iterable[tuple[int, Fraction]],
            rows: Mapping[int, Sequence[tuple[int, Fraction]]]) -> dict[int, Fraction]:
    """v minus the multiple of each RREF row ``rows[p]`` (its pairs off
    the pivot p) that clears coordinate p, as its nonzero {t: c}: empty
    exactly when v lies in the span.  v is (t, c) pairs, a t may repeat.
    Only the pivots v meets are read, so the cost follows v's nonzeros."""
    acc: dict[int, Fraction] = {}
    for t, a in v:
        if t in rows:
            for s, e in rows[t]:
                acc[s] = acc[s] - a * e if s in acc else -a * e
        else:
            acc[t] = acc[t] + a if t in acc else a
    return {t: a for t, a in acc.items() if a}


def solve_affine(a: Matrix, b: Sequence[object]) -> tuple[Vector, Subspace] | None:
    """Solve a @ x = b exactly.

    Returns (particular solution with every free variable set to zero,
    kernel of a), or None when the system is inconsistent.  Both are read
    off the echelon form of the augmented rows [a | b].
    """
    bb = as_vector(b)
    if len(bb) != a.rows:
        raise ValueError("right-hand side length differs from row count")
    n = a.cols
    echelon = _echelon(_integer_rows(row + ((n, c),) if c else row
                                     for row, c in zip(a.nonzero, bb)), stop_at=n)
    if echelon is None:
        return None
    x = [_ZERO] * n
    for p, d, e in echelon:
        if n in e:
            x[p] = Fraction(e[n], d)
    return tuple(x), Subspace._from_echelon(n, _echelon(_null_rows(echelon, n)))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace._from_echelon(u.ambient_dim,
                                  _echelon(_integer_rows(u.sparse_rows + v.sparse_rows)))


def embed_rows(u: Subspace, rows: Iterable[Sequence[object]]) -> Subspace:
    """Span of the combinations sum_t r[t] * (basis row t of u), one per
    coefficient row r: u-coordinates mapped back to the ambient space.
    It maps back both the coordinates of a restriction to u and, with u
    the lifts that ``quotient`` returns, quotient coordinates."""
    out = []
    for r in rows:
        w = [_ZERO] * u.ambient_dim
        for c, basis_row in zip(as_vector(r), u.sparse_rows, strict=True):
            if c:
                for j, e in basis_row:
                    w[j] += c * e
        out.append(w)
    return Subspace(u.ambient_dim, out)


def apply_to_subspace(m: Matrix, u: Subspace) -> Subspace:
    """Canonical span of the images of u's basis under the column map m."""
    return Subspace(m.rows, [m.apply(r) for r in u.rows()])


def exp_nilpotent(d: Matrix) -> Matrix:
    """Exact exponential of a nilpotent square matrix via its terminating series.

    Raises ValueError when d is not square, and NotNilpotentError at the
    first power d^k whose trace is nonzero.  Over Q, by Newton's
    identities, d is nilpotent exactly when tr(d^k) = 0 for k = 1..n, so
    such a trace proves d is not nilpotent, and a map that passes every
    trace vanishes by its n-th power, where the series ends.
    """
    n = d.rows
    if d.cols != n:
        raise ValueError("matrix is not square")
    total = Matrix.zeros(n, n)
    power = Matrix.identity(n)
    k = 0
    while not power.is_zero():
        total = total + power.scale(Fraction(1, factorial(k)))
        power = power @ d
        k += 1
        trace = sum(power.entries[i][i] for i in range(n))
        if trace:
            raise NotNilpotentError(
                f"map is not nilpotent: tr(d^{k}) = {trace} is nonzero")
    return total
