"""Structural invariants: squares ideal, derived series, Killing form,
soluble radical, semisimplicity."""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import Callable, Iterator

from .algebra import (
    LeibnizAlgebra,
    NotASubalgebraError,
    NotLieError,
    _scaled_span,
    is_lie,
    quotient,
    subspace_product,
)
from .exactlin import Matrix, Subspace, embed_rows, rref, solve_affine, subspace_sum

_ZERO = Fraction(0)


def _per_table(
        compute: Callable[[LeibnizAlgebra], Subspace]) -> Callable[[LeibnizAlgebra], Subspace]:
    """Memoise ``compute``, which reads nothing of an algebra but its
    table, in that table's cache: each table computes it once."""
    key = compute.__name__

    @wraps(compute)
    def memoised(alg: LeibnizAlgebra) -> Subspace:
        cache = alg.table.cache
        if key not in cache:
            cache[key] = compute(alg)
        return cache[key]
    return memoised


@_per_table
def leibniz_kernel(alg: LeibnizAlgebra) -> Subspace:
    """Canonical span of all squares x.x.

    Computed by polarization as span{b_i.b_j + b_j.b_i : i <= j}, which
    equals the span of squares in characteristic zero.
    """
    scaled = alg.table.scaled

    def sums() -> Iterator[dict[int, int]]:
        for i, products in enumerate(scaled):
            for j, pairs in products.items():
                if j < i and i in scaled[j]:
                    continue  # the pair (j, i) already gave this row
                acc: dict[int, int] = {}
                for k, e in pairs + scaled[j].get(i, ()):
                    acc[k] = acc.get(k, 0) + e
                yield acc

    return _scaled_span(alg.table, sums())


def derived_series(alg: LeibnizAlgebra, u: Subspace) -> tuple[Subspace, ...]:
    """The terms u, u·u, (u·u)·(u·u), ... of a subalgebra, up to the
    first that is zero or equals the one before; the first product, u·u,
    is also the subalgebra check."""
    nxt = subspace_product(alg, u, u)
    if not u.contains_subspace(nxt):
        raise NotASubalgebraError("derived series of a non-subalgebra")
    terms = [u]
    while not terms[-1].is_zero():
        terms.append(nxt)
        if nxt == terms[-2]:
            break
        nxt = subspace_product(alg, nxt, nxt)
    return tuple(terms)


def killing_form(alg: LeibnizAlgebra) -> Matrix:
    """Gram matrix gram[i][j] = trace(ad b_i o ad b_j); Lie algebras only."""
    if not is_lie(alg):
        raise NotLieError("Killing form of a non-Lie algebra")
    n = alg.dim
    # ad[i][s, r] = c[i][s][r], read off the index
    ad = [{(s, r): e for s, pairs in products.items() for r, e in pairs}
          for products in alg.table.nonzero]
    # trace(ad b_i o ad b_j) = sum over s, r of c[i][s][r] * c[j][r][s],
    # an int sum on an integer table
    gram: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj = ad[j]
            gram[i][j] = gram[j][i] = Fraction(
                sum(e * adj[r, s] for (s, r), e in ad[i].items() if (r, s) in adj))
    return Matrix._from_nonzero(n, n, [row.items() for row in gram])


def _lie_radical(alg: LeibnizAlgebra) -> Subspace:
    """Radical of a Lie algebra: Killing-orthogonal complement of the
    derived subalgebra (the characteristic-zero criterion)."""
    derived = subspace_product(alg, Subspace.full(alg.dim), Subspace.full(alg.dim))
    if derived.is_zero():
        return Subspace.full(alg.dim)
    gram = killing_form(alg)
    constraints = Matrix._from_nonzero(derived.dim, alg.dim, [
        enumerate(gram.apply(row)) for row in derived.rows()
    ])
    return solve_affine(constraints, (_ZERO,) * derived.dim)[1]


@_per_table
def soluble_radical(alg: LeibnizAlgebra) -> Subspace:
    """Largest soluble ideal.

    Reduce modulo the squares ideal (a soluble ideal contained in every
    candidate), take the Lie quotient's radical by the Killing criterion,
    and pull it back with ``embed_rows`` over the quotient's lifts.
    """
    kern = leibniz_kernel(alg)
    qalg, lifts = quotient(alg, kern)
    return subspace_sum(embed_rows(lifts, _lie_radical(qalg).rows()), kern)


def is_semisimple(alg: LeibnizAlgebra) -> bool:
    """Lie with nondegenerate Killing form (equivalently, zero radical)."""
    return is_lie(alg) and rref(killing_form(alg))[2] == alg.dim
