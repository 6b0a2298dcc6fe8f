"""Catalog entries, adjoint modules, split extensions, bundles, and
diagonal complements."""

import random
from fractions import Fraction

import pytest

from leibnizalg import (
    LeibnizAlgebra,
    Matrix,
    ModuleAction,
    NotLieError,
    StructureTable,
    Subspace,
    UnknownAlgebraError,
    adjoint_module,
    counterexample,
    diagonal_complement,
    is_lie,
    leibniz_kernel,
    leibniz_levi,
    product,
    simple_algebra,
    soluble_radical,
    split_extension_zero_right,
    verify_levi,
)
from leibnizalg import constructions, exactlin
from leibnizalg.algebra import subspace_product
from leibnizalg.constructions import _sln_generators, _table_from_matrices
from leibnizalg.exactlin import solve_affine, subspace_sum
from leibnizalg.files import MAX_DIM
from leibnizalg.structure import is_semisimple

from conftest import module_law_report, random_invertible, trivial_action

F = Fraction


def ideal_closure(alg, seed_rows):
    """Smallest ideal containing the given rows."""
    current = Subspace(alg.dim, seed_rows)
    full = Subspace.full(alg.dim)
    while True:
        grown = subspace_sum(
            current,
            subspace_sum(subspace_product(alg, full, current),
                         subspace_product(alg, current, full)),
        )
        if grown == current:
            return current
        current = grown


# --- catalog ----------------------------------------------------------------

def test_sl2_entry(sl2):
    assert sl2.dim == 3
    assert sl2.labels == ("e", "h", "f")
    assert is_lie(sl2)
    assert is_semisimple(sl2)
    assert product(sl2, [0, 1, 0], [1, 0, 0]) == (F(2), F(0), F(0))
    # every basis vector generates the whole algebra as an ideal
    for i in range(3):
        assert ideal_closure(sl2, [sl2.basis_vector(i)]).is_full()


def test_so3_entry(so3):
    assert so3.dim == 3
    assert is_lie(so3)
    assert is_semisimple(so3)
    x, y, z = (so3.basis_vector(i) for i in range(3))
    assert product(so3, x, y) == z
    assert product(so3, y, z) == x
    assert product(so3, z, x) == y
    for i in range(3):
        assert ideal_closure(so3, [so3.basis_vector(i)]).is_full()


def test_sl3_entry(sl3):
    assert sl3.dim == 8
    assert sl3.labels == ("e12", "e13", "e23", "e21", "e31", "e32", "h1", "h2")
    assert is_lie(sl3)
    assert is_semisimple(sl3)


@pytest.mark.parametrize("n", [4, 5])
def test_sln_entry(n):
    sln = simple_algebra(f"sl{n}")
    gens = _sln_generators(n)
    assert sln.dim == n * n - 1 == len(gens)
    assert sln.labels == tuple(gens)
    assert is_semisimple(sln)
    assert sln.table == oracle_table_from_matrices(list(gens.values()))


def test_catalog_bundles_fit_in_a_file():
    """The catalog stops where ``example`` would write a bundle, of twice
    the algebra's dimension, that the file reader refuses; counted from
    the generators, without building a table."""
    assert constructions.CATALOG == (
        "sl2", "sl3", "sl4", "sl5", "sl6", "sl7", "sl8", "so3")
    dims = {name: 2 * len(constructions._GENERATORS[name]())
            for name in constructions.CATALOG}
    assert dims == {"sl2": 6, "sl3": 16, "sl4": 30, "sl5": 48, "sl6": 70,
                    "sl7": 96, "sl8": 126, "so3": 6}
    assert max(dims.values()) <= MAX_DIM < 2 * (9 * 9 - 1)


def test_unknown_name(sl2):
    with pytest.raises(UnknownAlgebraError,
                       match=r"^unknown algebra 'e8'; catalog: sl2, sl3, sl4, sl5, sl6, sl7, sl8, so3$"):
        simple_algebra("e8")


# --- matrix Lie algebras -------------------------------------------------------
#
# ``_table_from_matrices`` eliminates the flattened generators, next to an
# identity block, once, forms each bracket from the generators' nonzero
# entries, and reads its coordinates off that one reduced form.  This is
# the builder it replaced: two dense products and one solve per bracket.
# On independent generators the two must agree.

def oracle_table_from_matrices(mats):
    n = len(mats)
    size = mats[0].rows
    flat_cols = Matrix(size * size, n, tuple(
        tuple(mats[t].entries[i][j] for t in range(n))
        for i in range(size) for j in range(size)
    ))
    grid = []
    for a in mats:
        plane = []
        for b in mats:
            bracket = (a @ b) - (b @ a)
            flat = tuple(bracket.entries[i][j] for i in range(size) for j in range(size))
            solved = solve_affine(flat_cols, flat)
            if solved is None:
                raise ValueError("bracket escapes the span of the generators")
            plane.append(solved[0])
        grid.append(tuple(plane))
    return StructureTable(n, tuple(grid))


SL2_MATRICES = [Matrix.from_rows(m) for m in (
    [[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]])]
SO3_MATRICES = [Matrix.from_rows(m) for m in (
    [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 0]])]


def recombined_sl3_matrices(seed):
    """The sl3 generators under a seeded invertible change of basis with
    rational entries: every generator is a dense mix of all eight."""
    rng = random.Random(seed)
    g = random_invertible(rng, 8)
    scales = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)]
    mats = list(_sln_generators(3).values())
    out = []
    for t in range(8):
        m = Matrix.zeros(3, 3)
        for s, gen in enumerate(mats):
            if g.entries[s][t]:
                m = m + gen.scale(g.entries[s][t] * scales[t])
        out.append(m)
    return out


@pytest.mark.parametrize("mats", [
    SL2_MATRICES, SO3_MATRICES, *(list(_sln_generators(n).values()) for n in (3, 4, 5)),
    recombined_sl3_matrices(0), recombined_sl3_matrices(1),
], ids=["sl2", "so3", "sl3", "sl4", "sl5", "sl3-recombined-0", "sl3-recombined-1"])
def test_matrix_algebra_tables_match_the_per_bracket_oracle(mats):
    assert _table_from_matrices(mats) == oracle_table_from_matrices(mats)


# sl2 on (e, h, f): h.e = 2e, h.f = -2f, e.f = h; so3 on (x, y, z): x.y = z
# cyclically; both antisymmetric
SL2_BY_HAND = LeibnizAlgebra(StructureTable.from_map(3, {
    (0, 1): {0: -2}, (1, 0): {0: 2},
    (0, 2): {1: 1}, (2, 0): {1: -1},
    (1, 2): {2: -2}, (2, 1): {2: 2},
}), labels=("e", "h", "f"))
SO3_BY_HAND = LeibnizAlgebra(StructureTable.from_map(3, {
    (0, 1): {2: 1}, (1, 0): {2: -1},
    (1, 2): {0: 1}, (2, 1): {0: -1},
    (2, 0): {1: 1}, (0, 2): {1: -1},
}), labels=("x", "y", "z"))


def test_matrix_algebra_tables_of_the_catalog():
    """The catalog builds sl2 and so3 from their matrices; the tables
    written out by hand, labels included (``==`` compares them), are an
    oracle that shares nothing with the builder."""
    assert simple_algebra("sl2") == SL2_BY_HAND
    assert simple_algebra("so3") == SO3_BY_HAND


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matrix_algebra_tables_take_one_elimination(monkeypatch, n):
    """One elimination of [F | I], and no solve, whatever the size."""
    calls = {"_echelon": 0, "solve_affine": 0}

    def counted(name):
        inner = getattr(exactlin, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(exactlin, name, spy)
        for attr, value in vars(constructions).items():
            if value is inner:
                monkeypatch.setattr(constructions, attr, spy)

    counted("_echelon")
    counted("solve_affine")
    _table_from_matrices(list(_sln_generators(n).values()))
    assert calls == {"_echelon": 1, "solve_affine": 0}


def test_dependent_generators_are_rejected():
    e, h, f = SL2_MATRICES
    with pytest.raises(ValueError, match="linearly dependent"):
        _table_from_matrices([e, h, f, e + h.scale(F(1, 2))])


def test_bracket_outside_the_span_is_rejected():
    e, _, f = SL2_MATRICES
    with pytest.raises(ValueError, match="escapes the span"):
        _table_from_matrices([e, f])


@pytest.mark.parametrize("mats", [
    [],
    [Matrix.from_rows([[0, 1, 0], [0, 0, 0]])],
    [Matrix.from_rows([[0, 1], [0, 0], [1, 0]])],
    [SL2_MATRICES[0], SO3_MATRICES[0]],
    [SO3_MATRICES[0], SL2_MATRICES[0]],
], ids=["none", "2x3", "3x2", "2x2-then-3x3", "3x3-then-2x2"])
def test_generators_of_the_wrong_shape_are_rejected(mats):
    with pytest.raises(ValueError, match="^generators must be square matrices of one size$"):
        _table_from_matrices(mats)


# --- adjoint module -----------------------------------------------------------

def test_adjoint_of_abelian_is_zero(abelian2):
    act = adjoint_module(abelian2)
    assert all(m.is_zero() for m in act.rho)


def test_adjoint_of_sl2(sl2):
    act = adjoint_module(sl2)
    assert act.rho[1] == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert module_law_report(sl2, act) == []


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2, 2), (4, 4)])
def test_module_action_rejects_an_operator_of_the_wrong_shape(sl2, shape):
    rho = adjoint_module(sl2).rho
    with pytest.raises(ValueError, match="not space_dim x space_dim"):
        ModuleAction(3, 3, (rho[0], Matrix.zeros(*shape), rho[2]))


@pytest.mark.parametrize("count", [2, 4])
def test_module_action_rejects_a_wrong_operator_count(sl2, count):
    rho = adjoint_module(sl2).rho
    with pytest.raises(ValueError, match="one operator per acting basis element"):
        ModuleAction(3, 3, (rho * 2)[:count])


def test_adjoint_requires_lie(square_algebra):
    with pytest.raises(NotLieError):
        adjoint_module(square_algebra)


# --- split extension ------------------------------------------------------------

def test_zero_action_extension_of_abelian_is_abelian(abelian2):
    ext = split_extension_zero_right(abelian2, trivial_action(2, 2))
    assert ext.dim == 4
    assert all(
        all(e == 0 for e in ext.table.row(i, j))
        for i in range(4) for j in range(4)
    )


def test_extension_of_sl2_by_adjoint_is_the_bundle(sl2, bundle_sl2):
    ext = split_extension_zero_right(sl2, adjoint_module(sl2))
    assert ext.dim == 6
    assert not is_lie(ext)
    assert ext.table == bundle_sl2.L.table
    # (e,0).(0,f') = (0,h')
    e = [1, 0, 0, 0, 0, 0]
    f_prime = [0, 0, 0, 0, 0, 1]
    assert product(ext, e, f_prime) == (F(0),) * 4 + (F(1), F(0))


# --- bundle ------------------------------------------------------------------------

def test_bundle_dimensions(bundle_sl2):
    assert bundle_sl2.L.dim == 6
    assert bundle_sl2.K.dim == 3
    assert bundle_sl2.S.dim == 3
    assert bundle_sl2.S1.dim == 3


def test_bundle_invariants(bundle_sl2):
    alg = bundle_sl2.L
    assert leibniz_kernel(alg) == bundle_sl2.K
    assert soluble_radical(alg) == bundle_sl2.K
    assert verify_levi(alg, bundle_sl2.S).all_pass
    assert verify_levi(alg, bundle_sl2.S1).all_pass
    assert bundle_sl2.S != bundle_sl2.S1


def test_diagonal_is_a_subalgebra(bundle_sl2):
    alg = bundle_sl2.L
    rows = bundle_sl2.S1.rows()
    # (e,e').(f,f') = (h,h')
    assert product(alg, rows[0], rows[2]) == (F(0), F(1), F(0), F(0), F(1), F(0))
    assert subspace_product(alg, bundle_sl2.S1, bundle_sl2.S1).contains_subspace(
        Subspace(6, [product(alg, rows[0], rows[2])]))


def test_first_block_and_diagonal_meet_trivially(bundle_sl2):
    total = subspace_sum(bundle_sl2.S, bundle_sl2.S1)
    assert total.dim == bundle_sl2.S.dim + bundle_sl2.S1.dim
    assert total.is_full()


def test_so3_bundle(bundle_so3):
    assert bundle_so3.L.dim == 6
    assert leibniz_kernel(bundle_so3.L) == bundle_so3.K


def test_unknown_bundle_name():
    with pytest.raises(UnknownAlgebraError):
        counterexample("g2")


# --- diagonal complements -------------------------------------------------------------

def test_lambda_zero_and_one(bundle_sl2):
    assert diagonal_complement(bundle_sl2, 0) == bundle_sl2.S
    assert diagonal_complement(bundle_sl2, 1) == bundle_sl2.S1


def test_lambda_two_is_a_third_complement(bundle_sl2):
    third = diagonal_complement(bundle_sl2, 2)
    assert third not in (bundle_sl2.S, bundle_sl2.S1)
    assert verify_levi(bundle_sl2.L, third).all_pass


def test_five_distinct_verified_complements(bundle_sl2):
    lams = [F(0), F(1), F(2), F(-1), F(1, 2)]
    subs = [diagonal_complement(bundle_sl2, lam) for lam in lams]
    assert len(set(subs)) == 5
    for sub in subs:
        assert verify_levi(bundle_sl2.L, sub).all_pass


def test_intertwiner_graphs_are_complements(bundle_sl2):
    """The deterministic Levi complement is one of the diagonals, the
    graphs of the intertwiners lam*id from the first block to the second."""
    comp = leibniz_levi(bundle_sl2.L).semisimple_part
    lam = comp.basis.entries[0][3]  # scale read off the canonical rows
    assert comp == diagonal_complement(bundle_sl2, lam)
