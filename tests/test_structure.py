"""Squares ideal, derived series, Killing form, radical, semisimplicity."""

import random
from fractions import Fraction

import pytest
import sympy

from leibnizalg import (
    NotASubalgebraError,
    NotLieError,
    Subspace,
    derived_series,
    is_ideal,
    is_semisimple,
    is_soluble,
    killing_form,
    leibniz_kernel,
    product,
    quotient,
    soluble_radical,
    subspace_product,
)
from leibnizalg.exactlin import Matrix, rref
from leibnizalg.sampling import rational_vector

F = Fraction


# --- squares ideal --------------------------------------------------------

def test_kernel_of_lie_algebra_is_zero(sl2, so3, heisenberg):
    for alg in (sl2, so3, heisenberg):
        assert leibniz_kernel(alg).is_zero()


def test_kernel_of_square_algebra(square_algebra):
    assert leibniz_kernel(square_algebra) == Subspace(2, [[0, 1]])


def test_kernel_of_bundle_is_module_block(bundle_sl2):
    assert leibniz_kernel(bundle_sl2.L) == bundle_sl2.K


def test_kernel_is_an_abelian_left_annihilating_ideal(zoo):
    for _, alg in zoo:
        kern = leibniz_kernel(alg)
        full = Subspace.full(alg.dim)
        assert is_ideal(alg, kern)
        assert subspace_product(alg, kern, full).is_zero()
        assert subspace_product(alg, kern, kern).is_zero()


def test_random_squares_land_in_kernel(zoo):
    rng = random.Random(0)
    for _, alg in zoo:
        kern = leibniz_kernel(alg)
        for _ in range(10):
            x = rational_vector(rng, alg.dim)
            assert kern.contains(product(alg, x, x))


def test_random_squares_span_kernel_of_bundle(bundle_sl2):
    alg = bundle_sl2.L
    rng = random.Random(0)
    squares = [product(alg, x, x)
               for x in (rational_vector(rng, alg.dim) for _ in range(3 * alg.dim))]
    assert Subspace(alg.dim, squares) == leibniz_kernel(alg)


def test_kernel_inside_radical(zoo):
    for _, alg in zoo:
        assert soluble_radical(alg).contains_subspace(leibniz_kernel(alg))


# --- derived series -------------------------------------------------------

def test_series_of_abelian_subspace(abelian2):
    series = derived_series(abelian2, Subspace.full(2))
    assert series.dims() == (2, 0)


def test_series_of_perfect_algebra(sl2):
    series = derived_series(sl2, Subspace.full(3))
    assert [t.dim for t in series.terms] == [3, 3]
    assert not series.reaches_zero


def test_series_of_square_algebra(square_algebra):
    series = derived_series(square_algebra, Subspace.full(2))
    assert series.dims() == (2, 1, 0)
    assert series.terms[1] == Subspace(2, [[0, 1]])


def test_series_requires_subalgebra(sl2):
    # span{e,f} is not closed: e.f = h
    with pytest.raises(NotASubalgebraError):
        derived_series(sl2, Subspace(3, [[1, 0, 0], [0, 0, 1]]))


def test_is_soluble(abelian2, sl2, bundle_sl2):
    assert is_soluble(abelian2, Subspace.full(2))
    assert not is_soluble(sl2, Subspace.full(3))
    assert is_soluble(bundle_sl2.L, bundle_sl2.K)


# --- Killing form ---------------------------------------------------------

def _brute_force_gram(alg):
    """Independent trace computation from raw products."""
    n = alg.dim
    ads = []
    for i in range(n):
        cols = [product(alg, alg.basis_vector(i), alg.basis_vector(j))
                for j in range(n)]
        ads.append([[cols[j][k] for j in range(n)] for k in range(n)])
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            t = F(0)
            for r in range(n):
                for s in range(n):
                    t += ads[i][r][s] * ads[j][s][r]
            row.append(t)
        gram.append(row)
    return gram


def test_killing_of_abelian_is_zero(abelian2):
    assert killing_form(abelian2).is_zero()


def test_killing_of_sl2(sl2):
    gram = killing_form(sl2)
    assert gram == Matrix.from_rows([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert [list(r) for r in gram.entries] == _brute_force_gram(sl2)
    det = sympy.Matrix(3, 3, [sympy.Rational(x) for r in gram.entries for x in r]).det()
    assert det == -128
    assert rref(gram)[2] == 3


def test_killing_of_nonabelian2(nonabelian2):
    gram = killing_form(nonabelian2)
    assert gram == Matrix.from_rows([[1, 0], [0, 0]])
    assert [list(r) for r in gram.entries] == _brute_force_gram(nonabelian2)


def test_killing_rejects_non_lie(square_algebra):
    with pytest.raises(NotLieError):
        killing_form(square_algebra)


# --- radical ----------------------------------------------------------------

def test_radical_of_soluble_is_everything(abelian2, square_algebra, heisenberg):
    for alg in (abelian2, square_algebra, heisenberg):
        assert soluble_radical(alg) == Subspace.full(alg.dim)


def test_radical_of_sl2_is_zero(sl2):
    assert soluble_radical(sl2).is_zero()


def test_radical_of_bundle_is_kernel(bundle_sl2):
    assert soluble_radical(bundle_sl2.L) == bundle_sl2.K


def test_radical_of_gl2_style_is_center(gl2_style):
    assert soluble_radical(gl2_style) == Subspace(4, [[0, 0, 0, 1]])


def test_radical_is_a_soluble_ideal_with_semisimple_quotient(zoo):
    for _, alg in zoo:
        rad = soluble_radical(alg)
        assert is_ideal(alg, rad)
        assert is_soluble(alg, rad)
        qalg, _ = quotient(alg, rad)
        assert soluble_radical(qalg).is_zero()
        if qalg.dim:
            assert is_semisimple(qalg)


# --- semisimplicity ---------------------------------------------------------

def test_is_semisimple(sl2, so3, sl3, abelian2, bundle_sl2):
    assert is_semisimple(sl2)
    assert is_semisimple(so3)
    assert is_semisimple(sl3)
    assert not is_semisimple(abelian2)
    assert not is_semisimple(bundle_sl2.L)
