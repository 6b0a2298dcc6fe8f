"""Catalog entries, adjoint modules, split extensions, bundles, and
diagonal complements."""

from fractions import Fraction

import pytest

from leibnizalg import (
    Matrix,
    NotLieError,
    Subspace,
    UnknownAlgebraError,
    adjoint_module,
    counterexample,
    diagonal_complement,
    is_lie,
    is_semisimple,
    leibniz_kernel,
    leibniz_levi,
    product,
    simple_algebra,
    soluble_radical,
    split_extension_zero_right,
    subspace_product,
    subspace_sum,
    verify_levi,
)

from conftest import module_law_report, trivial_action

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
    assert is_lie(sl3)
    assert is_semisimple(sl3)


def test_unknown_name(sl2):
    with pytest.raises(UnknownAlgebraError):
        simple_algebra("e8")


# --- adjoint module -----------------------------------------------------------

def test_adjoint_of_abelian_is_zero(abelian2):
    act = adjoint_module(abelian2)
    assert all(m.is_zero() for m in act.rho)


def test_adjoint_of_sl2(sl2):
    act = adjoint_module(sl2)
    assert act.rho[1].matrix == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert module_law_report(sl2, act) == []


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
