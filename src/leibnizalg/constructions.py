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
    is_lie,
    left_multiplication,
    product,
)
from .exactlin import (
    Matrix,
    Subspace,
    as_scalar,
    solve_affine,
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
    """Structure constants of a matrix Lie algebra spanned by ``mats``,
    with the commutator as product.

    The generators, flattened row by row, are the columns of F; they must
    be linearly independent.  Row t of a left inverse G of F solves
    F^T g = e_t, one ``solve_affine`` per generator.  Each bracket is
    formed from the generators' nonzero entries, checked to lie in their
    span, and read off as G times the flattened bracket.
    """
    n = len(mats)
    size = mats[0].rows
    flat = [tuple(x for row in m.entries for x in row) for m in mats]
    span = Subspace(size * size, flat)
    if span.dim != n:
        raise ValueError("the generators are linearly dependent")
    flat_rows = Matrix(n, size * size, tuple(flat))
    left_inverse = Matrix(n, size * size, tuple(
        solve_affine(flat_rows, [_ONE if s == t else _ZERO for s in range(n)])[0]
        for t in range(n)
    ))
    products = {}
    for s, a in enumerate(mats):
        for t, b in enumerate(mats):
            acc = [_ZERO] * (size * size)
            for i in range(size):
                for k, x in a.nonzero[i]:
                    for j, y in b.nonzero[k]:
                        acc[i * size + j] += x * y
                for k, y in b.nonzero[i]:
                    for j, x in a.nonzero[k]:
                        acc[i * size + j] -= y * x
            bracket = tuple(acc)
            if not span.contains(bracket):
                raise ValueError("bracket escapes the span of the generators")
            products[(s, t)] = dict(enumerate(left_inverse.apply(bracket)))
    return StructureTable.from_map(n, products)


def _sl2() -> LeibnizAlgebra:
    # basis (e, h, f): h.e = 2e, h.f = -2f, e.f = h, antisymmetric
    table = StructureTable.from_map(3, {
        (0, 1): {0: -2},
        (1, 0): {0: 2},
        (0, 2): {1: 1},
        (2, 0): {1: -1},
        (1, 2): {2: -2},
        (2, 1): {2: 2},
    })
    return LeibnizAlgebra(table, labels=("e", "h", "f"))


def _so3() -> LeibnizAlgebra:
    # basis (x, y, z): x.y = z cyclically, antisymmetric
    table = StructureTable.from_map(3, {
        (0, 1): {2: 1},
        (1, 0): {2: -1},
        (1, 2): {0: 1},
        (2, 1): {0: -1},
        (2, 0): {1: 1},
        (0, 2): {1: -1},
    })
    return LeibnizAlgebra(table, labels=("x", "y", "z"))


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


def _sln(n: int) -> LeibnizAlgebra:
    gens = _sln_generators(n)
    return LeibnizAlgebra(_table_from_matrices(list(gens.values())), labels=tuple(gens))


# The catalog stops at sl5, whose bundle has dim 48.  ``_sln(n)`` builds
# larger ones: ``leibniz_levi`` takes about 0.5 s and a 32 MB process
# peak on the sl6 bundle, and 3 s and 85 MB on the sl8 bundle (README
# "Cost").
_BUILDERS = {
    "sl2": _sl2,
    "sl3": partial(_sln, 3),
    "sl4": partial(_sln, 4),
    "sl5": partial(_sln, 5),
    "so3": _so3,
}
CATALOG = tuple(_BUILDERS)


def simple_algebra(name: str) -> LeibnizAlgebra:
    """The catalog simple Lie algebra of that name (see ``CATALOG``)."""
    if name not in _BUILDERS:
        raise UnknownAlgebraError(f"unknown algebra {name!r}; catalog: {', '.join(CATALOG)}")
    return _BUILDERS[name]()


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
    action = adjoint_module(salg)
    sd = salg.dim
    alg = split_extension_zero_right(
        salg, action, module_labels=tuple(f"{lbl}'" for lbl in salg.labels)
    )
    n = alg.dim

    s_block = Subspace(n, [alg.basis_vector(i) for i in range(sd)])
    k_block = Subspace(n, [alg.basis_vector(sd + i) for i in range(sd)])
    diagonal = Subspace(n, [
        tuple(_ONE if j == i or j == sd + i else _ZERO for j in range(n))
        for i in range(sd)
    ])

    if leibniz_kernel(alg) != k_block:
        raise AssertionError("squares ideal differs from the module block")
    for i in range(sd):
        for j in range(sd):
            left = product(alg, diagonal.rows()[i], diagonal.rows()[j])
            st = product(salg, salg.basis_vector(i), salg.basis_vector(j))
            expected = tuple(st) + tuple(st)
            if left != expected:
                raise AssertionError("diagonal block violates the product identity")
    for cand in (s_block, diagonal):
        if not verify_levi(alg, cand).all_pass:
            raise AssertionError("complement witness failed at construction")
    if s_block == diagonal:
        raise AssertionError("complements coincide")
    return CounterexampleBundle(name=name, L=alg, K=k_block, S=s_block,
                                S1=diagonal)


def diagonal_complement(bundle: CounterexampleBundle, lam: object) -> Subspace:
    """The complement {(v, lam*v')}; lam=0 gives S and lam=1 gives S1."""
    lam = as_scalar(lam)
    n = bundle.L.dim
    sd = n // 2
    rows = []
    for i in range(sd):
        row = [_ZERO] * n
        row[i] = _ONE
        row[sd + i] = lam
        rows.append(row)
    return Subspace(n, rows)
