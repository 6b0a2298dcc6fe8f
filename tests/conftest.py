"""Shared fixtures: catalog algebras, bundles, a zoo of small valid
algebras, builders for Lie semidirect sums used as Levi test inputs, and
a hypothesis generator of valid Leibniz algebras with known radical and
squares ideal."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import strategies as st

from leibnizalg import (
    LeibnizAlgebra,
    Matrix,
    ModuleAction,
    StructureTable,
    Subspace,
    counterexample,
    product,
    simple_algebra,
    split_extension_zero_right,
)
from leibnizalg.algebra import left_multiplication, quotient, subspace_product
from leibnizalg.exactlin import NotNilpotentError, apply_to_subspace, exp_nilpotent, solve_affine

F = Fraction


def table_from_map(dim, products):
    return StructureTable.from_map(dim, products)


def algebra(dim, products, labels=None):
    return LeibnizAlgebra(table_from_map(dim, products), labels=labels)


def is_ideal(alg, u) -> bool:
    """Whether u is a two-sided ideal: the oracle for the precondition
    that ``quotient`` trusts its callers with."""
    full = Subspace.full(alg.dim)
    return (u.contains_subspace(subspace_product(alg, full, u))
            and u.contains_subspace(subspace_product(alg, u, full)))


def dense_product(alg, x, y):
    """x.y from the full tensor c, over every pair (i, j) with x_i y_j != 0."""
    n = alg.dim
    c = alg.table.c
    terms = [(F(x[i]) * y[j], c[i][j]) for i in range(n) for j in range(n) if x[i] and y[j]]
    return tuple(sum((f * row[k] for f, row in terms), F(0)) for k in range(n))


def sympy_rank(rows):
    rows = list(rows)
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows]).rank()


@pytest.fixture(scope="session")
def sl2():
    return simple_algebra("sl2")


@pytest.fixture(scope="session")
def so3():
    return simple_algebra("so3")


@pytest.fixture(scope="session")
def sl3():
    return simple_algebra("sl3")


@pytest.fixture(scope="session")
def bundle_sl2():
    return counterexample("sl2")


@pytest.fixture(scope="session")
def bundle_so3():
    return counterexample("so3")


@pytest.fixture(scope="session")
def bundle_sl3():
    return counterexample("sl3")


@pytest.fixture(scope="session")
def square_algebra():
    """Two dimensions, a.a = b, everything else zero."""
    return algebra(2, {(0, 0): {1: 1}}, labels=("a", "b"))


@pytest.fixture(scope="session")
def abelian2():
    return algebra(2, {})


@pytest.fixture(scope="session")
def nonabelian2():
    """[x,y] = y, the smallest nonabelian Lie algebra."""
    return algebra(2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, labels=("x", "y"))


@pytest.fixture(scope="session")
def heisenberg():
    return algebra(3, {(0, 1): {2: 1}, (1, 0): {2: -1}}, labels=("x", "y", "z"))


@pytest.fixture(scope="session")
def gl2_style(sl2):
    """sl2 plus a one-dimensional center."""
    products = {}
    for i in range(3):
        for j in range(3):
            row = {k: e for k, e in enumerate(sl2.table.row(i, j)) if e != 0}
            if row:
                products[(i, j)] = row
    return algebra(4, products, labels=("e", "h", "f", "z"))


def sl2_irrep(m: int) -> ModuleAction:
    """The irreducible representation of dimension m+1, acting basis (e,h,f)."""
    n = m + 1
    e_rows = [[F(0)] * n for _ in range(n)]
    h_rows = [[F(0)] * n for _ in range(n)]
    f_rows = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        h_rows[j][j] = F(m - 2 * j)
        if j > 0:
            e_rows[j - 1][j] = F(j * (m - j + 1))
        if j < m:
            f_rows[j + 1][j] = F(1)
    maps = tuple(Matrix.from_rows(rows) for rows in (e_rows, h_rows, f_rows))
    return ModuleAction(3, n, maps)


def trivial_action(acting_dim: int, space_dim: int) -> ModuleAction:
    return ModuleAction(acting_dim, space_dim,
                        tuple(Matrix.zeros(space_dim, space_dim) for _ in range(acting_dim)))


def direct_sum_actions(a: ModuleAction, b: ModuleAction) -> ModuleAction:
    assert a.acting_dim == b.acting_dim
    n = a.space_dim + b.space_dim
    maps = []
    for ma, mb in zip(a.rho, b.rho):
        rows = []
        for i in range(a.space_dim):
            rows.append(tuple(ma.entries[i]) + (F(0),) * b.space_dim)
        for i in range(b.space_dim):
            rows.append((F(0),) * a.space_dim + tuple(mb.entries[i]))
        maps.append(Matrix.from_rows(rows))
    return ModuleAction(a.acting_dim, n, tuple(maps))


def module_law_report(acting: LeibnizAlgebra, action: ModuleAction) -> list[tuple[int, int]]:
    """Basis pairs where rho(x.y) != rho(x)rho(y) - rho(y)rho(x)."""
    assert acting.dim == action.acting_dim
    n = action.space_dim
    bad = []
    for i in range(acting.dim):
        for j in range(acting.dim):
            lhs = Matrix.zeros(n, n)
            for c, m in zip(acting.table.row(i, j), action.rho, strict=True):
                if c != 0:
                    lhs = lhs + m.scale(c)
            a, b = action.rho[i], action.rho[j]
            if lhs != (a @ b) - (b @ a):
                bad.append((i, j))
    return bad


def matrix_inverse(m: Matrix) -> Matrix:
    cols = []
    for j in range(m.rows):
        rhs = [F(1) if i == j else F(0) for i in range(m.rows)]
        solved = solve_affine(m, rhs)
        assert solved is not None and solved[1].is_zero()
        cols.append(solved[0])
    return Matrix.from_rows([
        [cols[j][i] for j in range(m.rows)] for i in range(m.rows)
    ])


def random_invertible(rng: random.Random, n: int) -> Matrix:
    from leibnizalg import rref
    while True:
        m = Matrix.from_rows([
            [F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ])
        if rref(m)[2] == n:
            return m


def conjugate_action(act: ModuleAction, g: Matrix) -> ModuleAction:
    g_inv = matrix_inverse(g)
    maps = tuple((g @ m) @ g_inv for m in act.rho)
    return ModuleAction(act.acting_dim, act.space_dim, maps)


def lie_semidirect(salg: LeibnizAlgebra, action: ModuleAction) -> LeibnizAlgebra:
    """Lie semidirect sum: [(s,k),(t,m)] = ([s,t], s.m - t.k)."""
    sd, md = salg.dim, action.space_dim
    n = sd + md
    grid = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(sd):
        for j in range(sd):
            for k, e in enumerate(salg.table.row(i, j)):
                grid[i][j][k] = e
        rho = action.rho[i]
        for j in range(md):
            for k in range(md):
                e = rho.entries[k][j]
                if e != 0:
                    grid[i][sd + j][sd + k] = e
                    grid[sd + j][i][sd + k] = -e
    return LeibnizAlgebra(StructureTable.from_rows(grid))


def exp_left_multiplication(alg: LeibnizAlgebra, x) -> Matrix:
    """exp(L_x) for nilpotent L_x, asserted to be an automorphism of alg on
    every basis pair: g(b_i.b_j) = g(b_i).g(b_j)."""
    g = exp_nilpotent(left_multiplication(alg, x))
    cols = [g.column(j) for j in range(alg.dim)]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        assert g.apply(alg.table.row(i, j)) == product(alg, cols[i], cols[j]), (i, j)
    return g


@pytest.fixture(scope="session")
def moved_levi_pair():
    """sl2 acting on V(1), its sl2 block S, and S's image S1 under the
    exponential of left multiplication by b_3.  Both are Levi
    complements, but left multiplication by b_3 moves S out of itself."""
    alg = lie_semidirect(simple_algebra("sl2"), sl2_irrep(1))
    s = Subspace(alg.dim, [alg.basis_vector(i) for i in range(3)])
    s1 = apply_to_subspace(exp_left_multiplication(alg, alg.basis_vector(3)), s)
    return alg, s, s1


@pytest.fixture(scope="session")
def mixed_radical_algebra(sl2):
    """sl2 acting on a copy of itself plus a central line z, with an extra
    generator t whose square is z.  The pulled-back subalgebra in the
    splitting pipeline then has a squares ideal strictly smaller than its
    radical, exercising the explicit-ideal path."""
    products = {}
    for i in range(3):
        for j in range(3):
            row = {k: e for k, e in enumerate(sl2.table.row(i, j)) if e != 0}
            if row:
                products[(i, j)] = row
            arow = {3 + k: e for k, e in enumerate(sl2.table.row(i, j)) if e != 0}
            if arow:
                products[(i, 3 + j)] = arow
    products[(7, 7)] = {6: 1}
    return algebra(8, products,
                   labels=("e", "h", "f", "e'", "h'", "f'", "z", "t"))


@pytest.fixture(scope="session")
def zoo(sl2, so3, square_algebra, abelian2, nonabelian2, heisenberg, gl2_style,
        bundle_sl2, bundle_so3, mixed_radical_algebra):
    """Small valid algebras covering soluble, semisimple and mixed cases."""
    extension = split_extension_zero_right(sl2, sl2_irrep(1))
    semidirect = lie_semidirect(sl2, sl2_irrep(2))
    return [
        ("abelian2", abelian2),
        ("square", square_algebra),
        ("nonabelian2", nonabelian2),
        ("heisenberg", heisenberg),
        ("sl2", sl2),
        ("so3", so3),
        ("gl2_style", gl2_style),
        ("bundle_sl2", bundle_sl2.L),
        ("bundle_so3", bundle_so3.L),
        ("ext_sl2_irrep2", extension),
        ("semidirect_sl2_adjointish", semidirect),
        ("mixed_radical", mixed_radical_algebra),
    ]


@pytest.fixture(scope="session")
def bundle_sl4():
    """The dim-30 sl4 bundle."""
    return counterexample("sl4").L


def change_basis(alg: LeibnizAlgebra, g: Matrix, g_inv: Matrix,
                 validate: bool = True) -> LeibnizAlgebra:
    """The algebra on the basis f_a = sum_b g[b][a] e_b; a vector with old
    coordinates x has new coordinates g_inv x.  A change of basis keeps
    the identity, so ``validate=False`` skips the recheck, which on a
    dense table costs about dim^3 * dim^2 Fraction operations."""
    cols = [g.column(a) for a in range(alg.dim)]
    return LeibnizAlgebra(StructureTable(alg.dim, tuple(
        tuple(g_inv.apply(product(alg, x, y)) for y in cols) for x in cols
    )), validate=validate)


@dataclass(frozen=True)
class KnownAlgebra:
    """A generated algebra with the spans its construction predicts.

    Without t.t = z the radical M is abelian and the splitter makes one
    abelian step.  ``d`` is the dimension of that step's null space, so of
    the affine family of complements, and ``b`` the rank of the inner
    moves r -> (s -> r.s), r in M.  With zero right action a complement
    is the graph of an S-map from the adjoint module to M, so d is the
    multiplicity of V(2), and b = 0.  For the Lie semidirect sum,
    Whitehead's first lemma gives d = b = dim M - dim M^S, the sum of
    m + 1 over m > 0.  With t.t = z both are None."""

    alg: LeibnizAlgebra
    radical: Subspace
    squares: Subspace
    irreps: tuple[int, ...]
    lie: bool
    square: bool
    d: int | None
    b: int | None


# +-p/q for p, q <= 3, 1 first so that hypothesis shrinks towards it
DIAGONAL_SCALES = list(dict.fromkeys(
    s * F(p, q) for p in (1, 2, 3) for q in (1, 2, 3) for s in (1, -1)))


@st.composite
def leibniz_algebras(draw, max_dim=9):
    """sl2 acting on 1-3 irreducibles V(m), m <= 2, with zero right action
    (or, if ``lie``, as a Lie semidirect sum), optionally a pair t, z with
    t.t = z as the only product, then a change of basis: a permutation, a
    few integer shears and a diagonal with entries +-p/q, p, q <= 3.  The
    diagonal makes the radical's RREF rows carry non-integer entries off
    their pivots.  Most of the table stays zero and an example costs
    milliseconds.

    On the original basis the radical is everything after sl2, and the
    squares ideal is z plus, with zero right action, the nontrivial V(m).
    """
    lie = draw(st.booleans())
    square = draw(st.booleans())
    room = max_dim - 3 - 2 * square
    irreps = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 2))
        if sum(k + 1 for k in irreps) + m + 1 <= room:
            irreps.append(m)
    if not irreps:
        irreps.append(0)
    action = sl2_irrep(irreps[0])
    for m in irreps[1:]:
        action = direct_sum_actions(action, sl2_irrep(m))
    if lie:
        base = lie_semidirect(simple_algebra("sl2"), action)
    else:
        base = split_extension_zero_right(simple_algebra("sl2"), action)
    n = base.dim + 2 * square
    grid = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(base.dim):
        for j in range(base.dim):
            grid[i][j][:base.dim] = base.table.row(i, j)
    if square:
        grid[n - 2][n - 2][n - 1] = F(1)  # t.t = z
    alg = LeibnizAlgebra(StructureTable.from_rows(grid))

    # g = a permutation times up to n shears b_i += c b_j, c in -2..2,
    # times a diagonal b_i -> d_i b_i
    order = draw(st.permutations(range(n)))
    g = Matrix.from_rows([[int(j == order[i]) for j in range(n)] for i in range(n)])
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        shear = [[int(r == c) for c in range(n)] for r in range(n)]
        shear[j][i] = draw(st.integers(-2, 2))
        g = g @ Matrix.from_rows(shear)
    d = draw(st.lists(st.sampled_from(DIAGONAL_SCALES), min_size=n, max_size=n))
    g = g @ Matrix.from_rows([[d[r] if r == c else 0 for c in range(n)] for r in range(n)])
    g_inv = matrix_inverse(g)

    def span(indices):
        return Subspace(n, [g_inv.column(k) for k in indices])

    nontrivial = sum(m + 1 for m in irreps if m > 0)  # dim M - dim M^S
    module = []
    start = 3
    for m in irreps:
        if m > 0 and not lie:
            module += range(start, start + m + 1)
        start += m + 1
    return KnownAlgebra(
        alg=change_basis(alg, g, g_inv),
        radical=span(range(3, n)),
        squares=span(module + ([n - 1] if square else [])),
        irreps=tuple(irreps),
        lie=lie,
        square=square,
        d=None if square else nontrivial if lie else irreps.count(2),
        b=None if square else nontrivial if lie else 0,
    )


def correction_system_oracle(alg: LeibnizAlgebra, ideal: Subspace) -> tuple[Matrix, tuple]:
    """The correction system of ``levi._abelian_complement``, built the
    direct way: every coefficient is an I-coordinate of a product.

    With lifts u_i of the quotient basis, quotient constants c_ijk and I's
    RREF rows w_m, equation (i, j, t) is coordinate t of
    u_i·a_j + a_i·u_j - sum_k c_ijk a_k = -(u_i·u_j - sum_k c_ijk u_k),
    and the unknown (i, m), column i*r + m, is the coefficient of w_m in a_i.
    """
    qalg, lift_space = quotient(alg, ideal)
    q, r = qalg.dim, ideal.dim
    lifts = lift_space.rows()
    basis = ideal.rows()

    def coords(v):
        c = ideal.coordinates(v)
        assert c is not None, "a product left the ideal"
        return c

    # left[i][m] / right[i][m]: I-coordinates of u_i·w_m / w_m·u_i
    left = [[coords(product(alg, u, w)) for w in basis] for u in lifts]
    right = [[coords(product(alg, w, u)) for w in basis] for u in lifts]
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
                row = [F(0)] * (q * r)
                for m in range(r):
                    row[j * r + m] += left[i][m][t]
                    row[i * r + m] += right[j][m][t]
                for k, c in pairs:
                    row[k * r + t] -= c
                rows.append(tuple(row))
                rhs.append(-defect[t])
    return Matrix(len(rows), q * r, tuple(rows)), tuple(rhs)


def exp_nilpotent_oracle(d: Matrix) -> Matrix:
    """``exactlin.exp_nilpotent`` without its trace test: sum the dense
    series, and reject d only once d^n != 0 for n x n d, since by
    Cayley-Hamilton a nilpotent map on n-space vanishes at the n-th power."""
    n = d.rows
    total = Matrix.zeros(n, n)
    power = Matrix.identity(n)
    k = 0
    while not power.is_zero():
        if k == n:
            raise NotNilpotentError(f"d^{n} != 0")
        total = total + power.scale(F(1, factorial(k)))
        power = power @ d
        k += 1
    return total
