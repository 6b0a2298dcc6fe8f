"""Builders: simple Lie algebra catalog, adjoint modules, split extensions
with zero right action, and the two-complements bundle they produce."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .algebra import (
    LeibnizAlgebra,
    NotLieError,
    StructureTable,
    _rational_products,
    is_lie,
    left_multiplication,
)
from .exactlin import (
    Matrix,
    Subspace,
    _echelon,
    _fraction_entries,
    _integer_rows,
    _modulo,
    as_scalar,
)
from .levi import verify_levi
from .structure import leibniz_kernel

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UnknownAlgebraError(ValueError):
    """Catalog lookup with a name that is not in it."""


class _ModuleActionFields(NamedTuple):
    acting_dim: int
    space_dim: int
    rho: tuple[Matrix, ...]


class ModuleAction(_ModuleActionFields):
    """A list of operators on Q^space_dim indexed by the acting basis."""

    __slots__ = ()

    def __new__(cls, acting_dim: int, space_dim: int, rho: tuple[Matrix, ...]):
        if len(rho) != acting_dim:
            raise ValueError("one operator per acting basis element required")
        if any((m.rows, m.cols) != (space_dim, space_dim) for m in rho):
            raise ValueError("operator is not space_dim x space_dim")
        return super().__new__(cls, acting_dim, space_dim, rho)


class CounterexampleBundle(NamedTuple):
    """A split extension carrying two distinct semisimple complements.

    ``L`` has the simple algebra as its first coordinate block and a copy
    of it (as a left module, primes in the labels) as the second block.
    ``S`` is the first block and ``S1`` the diagonal.
    """

    name: str
    L: LeibnizAlgebra
    K: Subspace
    S: Subspace
    S1: Subspace


def _table_from_matrices(mats: list[Matrix]) -> StructureTable:
    """Structure constants of the matrix Lie algebra spanned by ``mats``
    (square, of one size, linearly independent) under the commutator.

    With F_t generator t flattened row by row, one elimination of the rows
    [F_t | e_t] gives [E | G], E = RREF(F) and G F = E; a pivot in the
    e-block means the generators are dependent.  A bracket B, formed from
    the nonzero entries, lies in the span exactly when B = sum_r B[p_r] E_r
    over the pivots p_r of E; its coordinates are then sum_r B[p_r] G_r.
    """
    if not mats or any((m.rows, m.cols) != (mats[0].rows,) * 2 for m in mats):
        raise ValueError("generators must be square matrices of one size")
    size = mats[0].rows
    width = size * size
    echelon = _echelon(_integer_rows(
        [(i * size + j, x) for i, row in enumerate(m.nonzero) for j, x in row]
        + [(width + t, _ONE)] for t, m in enumerate(mats)))
    if echelon[-1][0] >= width:
        raise ValueError("the generators are linearly dependent")
    rows = {p: [(c, x) for c, x in row if c != p]
            for (p, _, _), row in zip(echelon, _fraction_entries(echelon))}

    def flat_product(u: Matrix, v: Matrix) -> list[tuple[int, Fraction]]:
        return [(i * size + j, x * y) for i, row in enumerate(u.nonzero)
                for k, x in row for j, y in v.nonzero[k]]

    products = {}
    for s, a in enumerate(mats):
        for t, b in enumerate(mats):
            # B - sum_r B[p_r] [E_r | G_r]: zero below ``width`` exactly
            # when B is in the span, minus B's coordinates above
            rest = _modulo(flat_product(a, b) + [(c, -x) for c, x in flat_product(b, a)], rows)
            if any(c < width for c in rest):
                raise ValueError("bracket escapes the span of the generators")
            products[(s, t)] = {c - width: -x for c, x in rest.items()}
    return StructureTable.from_map(len(mats), products)


def _sln_generators(n: int) -> dict[str, Matrix]:
    """The n x n matrices spanning sl(n), by label: e_ij for i < j, then
    the e_ji in the same order, then h_m = e_mm - e_{m+1,m+1}."""
    def matrix(cells: dict[tuple[int, int], Fraction]) -> Matrix:
        return Matrix._from_nonzero(n, n, [
            [(c, x) for (r, c), x in cells.items() if r == i] for i in range(n)])

    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gens = {f"e{i + 1}{j + 1}": matrix({(i, j): _ONE}) for i, j in upper}
    gens.update((f"e{j + 1}{i + 1}", matrix({(j, i): _ONE})) for i, j in upper)
    gens.update((f"h{m + 1}", matrix({(m, m): _ONE, (m + 1, m + 1): -_ONE}))
                for m in range(n - 1))
    return gens


def _generators(**grids: list[list[int]]) -> dict[str, Matrix]:
    return {label: Matrix.from_rows(rows) for label, rows in grids.items()}


# The one builder above makes every catalog algebra from its generators:
# sl2 on (e, h, f), sl(n) on ``_sln_generators(n)``, so3 on (x, y, z) with
# x.y = z cyclically.  The catalog stops at sl8: its bundle, of dim
# 2 * 63 = 126, is the largest that fits in a file (``files.MAX_DIM``).
_GENERATORS = {
    "sl2": partial(_generators, e=[[0, 1], [0, 0]], h=[[1, 0], [0, -1]], f=[[0, 0], [1, 0]]),
    **{f"sl{n}": partial(_sln_generators, n) for n in range(3, 9)},
    "so3": partial(_generators, x=[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                   y=[[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                   z=[[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
}
CATALOG = tuple(_GENERATORS)


def simple_algebra(name: str) -> LeibnizAlgebra:
    """The catalog simple Lie algebra of that name (see ``CATALOG``)."""
    if name not in _GENERATORS:
        raise UnknownAlgebraError(f"unknown algebra {name!r}; catalog: {', '.join(CATALOG)}")
    gens = _GENERATORS[name]()
    return LeibnizAlgebra(_table_from_matrices(list(gens.values())), labels=tuple(gens))


def adjoint_module(alg: LeibnizAlgebra) -> ModuleAction:
    """The algebra acting on its own space by left multiplication."""
    if not is_lie(alg):
        raise NotLieError("adjoint module of a non-Lie algebra")
    rho = tuple(
        left_multiplication(alg, alg.basis_vector(i)) for i in range(alg.dim)
    )
    return ModuleAction(alg.dim, alg.dim, rho)


def split_extension_zero_right(salg: LeibnizAlgebra, action: ModuleAction,
                               module_labels: tuple[str, ...] | None = None) -> LeibnizAlgebra:
    """Split extension of a module by a Lie algebra with zero right action.

    Basis is the algebra block then the module block; products are
    (s,0)(t,0) = (st,0), (s,0)(0,m) = (0, s acting on m), and the module
    block multiplies everything to zero.  The result is validated against
    the left Leibniz identity rather than trusted.
    """
    if action.acting_dim != salg.dim:
        raise ValueError("action acting_dim differs from algebra dimension")
    if not is_lie(salg):
        raise NotLieError("split extension base must be a Lie algebra here")
    sd, md = salg.dim, action.space_dim
    n = sd + md
    products = {(i, j): dict(pairs)
                for i, row in enumerate(salg.table.nonzero) for j, pairs in row.items()}
    for i, rho in enumerate(action.rho):
        for k, row in enumerate(rho.nonzero):
            for j, x in row:
                products.setdefault((i, sd + j), {})[sd + k] = x
    table = StructureTable.from_map(n, products)
    if module_labels is None:
        module_labels = tuple(f"m{i}" for i in range(md))
    elif len(module_labels) != md:
        raise ValueError("one label per module basis vector required")
    return LeibnizAlgebra(table, labels=tuple(salg.labels) + tuple(module_labels))


def counterexample(name: str) -> CounterexampleBundle:
    """The bundle over a catalog algebra: split extension of its adjoint
    module with zero right action, first block and diagonal complements."""
    salg = simple_algebra(name)
    sd = salg.dim
    alg = split_extension_zero_right(salg, adjoint_module(salg),
                                     module_labels=tuple(f"{lbl}'" for lbl in salg.labels))
    n = alg.dim
    s_block, diagonal = _diagonal(n, _ZERO), _diagonal(n, _ONE)
    k_block = Subspace(n, [alg.basis_vector(sd + i) for i in range(sd)])

    if leibniz_kernel(alg) != k_block:
        raise AssertionError("squares ideal differs from the module block")
    # (b_i + b_i').(b_j + b_j') = (b_i.b_j, (b_i.b_j)')
    products = _rational_products(alg.table, diagonal.sparse_rows, diagonal.sparse_rows)
    for row in salg.table.nonzero:
        for j in range(sd):
            st = dict(row.get(j, ()))
            if next(products) != {**st, **{sd + k: e for k, e in st.items()}}:
                raise AssertionError("diagonal block violates the product identity")
    for cand in (s_block, diagonal):
        if not verify_levi(alg, cand).all_pass:
            raise AssertionError("complement witness failed at construction")
    if s_block == diagonal:
        raise AssertionError("complements coincide")
    return CounterexampleBundle(name=name, L=alg, K=k_block, S=s_block,
                                S1=diagonal)


def _diagonal(n: int, lam: Fraction) -> Subspace:
    """The span of the b_i + lam*b_{n/2+i}, i < n/2: the graph {(v, lam*v')}."""
    sd = n // 2
    return Subspace(n, [tuple(_ONE if j == i else lam if j == sd + i else _ZERO
                              for j in range(n)) for i in range(sd)])


def diagonal_complement(bundle: CounterexampleBundle, lam: object) -> Subspace:
    """The complement {(v, lam*v')}; lam=0 gives S and lam=1 gives S1."""
    return _diagonal(bundle.L.dim, as_scalar(lam))
