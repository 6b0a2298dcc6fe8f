"""Exact linear algebra: frozen examples, hypothesis properties, and
cross-checks against sympy as an independent oracle."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from conftest import exp_nilpotent_oracle, matrix_inverse
from leibnizalg import (
    Matrix,
    Subspace,
    counterexample,
    diagonal_complement,
    inner_derivation,
    product,
    rref,
)
from leibnizalg.exactlin import (
    NotNilpotentError,
    as_scalar,
    as_vector,
    exp_nilpotent,
    scalar_to_str,
    solve_affine,
    subspace_sum,
)

F = Fraction

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def null_space(m: Matrix) -> Subspace:
    """The null space of m: the kernel ``solve_affine`` returns with a zero
    right-hand side."""
    return solve_affine(m, (F(0),) * m.rows)[1]


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(Matrix.from_rows)
        )
    )


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in m.entries for x in row])


def from_sympy(v) -> tuple:
    return tuple(F(sympy.Rational(x).p, sympy.Rational(x).q) for x in v)


# --- the Fraction Gauss-Jordan oracle ----------------------------------------
#
# The elimination kernel works on integer rows; this is the plain
# Gauss-Jordan over Fractions it replaced.  The RREF is unique, so the two
# must agree entry for entry on every input.

def gauss_jordan(rows: list[list[F]]) -> list[int]:
    """Reduce rows in place; returns the pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        src = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def oracle_rref(m: Matrix):
    rows = [list(r) for r in m.entries]
    pivots = gauss_jordan(rows)
    return rows, pivots


def oracle_basis(rows) -> tuple:
    reduced = [list(r) for r in rows]
    rank = len(gauss_jordan(reduced))
    return tuple(tuple(r) for r in reduced[:rank])


def oracle_kernel(m: Matrix) -> tuple:
    reduced, pivots = oracle_rref(m)
    rows = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [F(0)] * m.cols
        v[f] = F(1)
        for t, p in enumerate(pivots):
            v[p] = -reduced[t][f]
        rows.append(v)
    return oracle_basis(rows)


def oracle_solve(m: Matrix, b):
    aug = [list(r) + [F(c)] for r, c in zip(m.entries, b)]
    pivots = gauss_jordan(aug)
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for t, p in enumerate(pivots):
        x[p] = aug[t][m.cols]
    return tuple(x), oracle_kernel(m)


def check_against_oracles(m: Matrix, b) -> None:
    """rref, Subspace, the null space and solve_affine against the
    Gauss-Jordan oracle, and against sympy."""
    reduced, pivots, rank = rref(m)
    want_rows, want_pivots = oracle_rref(m)
    assert [list(r) for r in reduced.entries] == want_rows
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
    assert pivots == tuple(want_pivots)
    assert rank == len(want_pivots)
    sym = to_sympy(m)
    sym_rref, sym_pivots = sym.rref()
    assert to_sympy(reduced) == sym_rref
    assert pivots == tuple(sym_pivots)

    span = Subspace(m.cols, m.entries)
    assert span.rows() == oracle_basis(m.entries)
    assert span.pivots == pivots

    kern = null_space(m)
    assert kern.rows() == oracle_kernel(m)
    assert kern == Subspace(m.cols, [from_sympy(v) for v in sym.nullspace()])

    solved = solve_affine(m, b)
    want = oracle_solve(m, b)
    assert (solved is None) == (want is None)
    if solved is not None:
        assert solved[0] == want[0]
        assert solved[1].rows() == want[1]
    sym_b = sympy.Matrix(m.rows, 1, [sympy.Rational(x.numerator, x.denominator)
                                     for x in b])
    assert (solved is None) == (sym.row_join(sym_b).rank() > sym.rank())
    if solved is not None:
        x, hom = solved
        assert m.apply(x) == tuple(b)
        assert hom == kern
        free = set(range(m.cols)) - set(pivots)
        assert all(x[f] == 0 for f in free)


def rhs_for(m: Matrix, data, values) -> tuple:
    """Either m times a drawn vector (consistent) or a drawn vector."""
    if data.draw(st.booleans()):
        x = data.draw(st.lists(values, min_size=m.cols, max_size=m.cols))
        return m.apply(x)
    return tuple(data.draw(st.lists(values, min_size=m.rows, max_size=m.rows)))


small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
mostly_zero = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), small)
forty_bit = st.builds(F, st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 2 ** 40))


@st.composite
def sparse_matrices(draw):
    """Tall or wide, up to 10 x 12, mostly zero, some rows entirely zero."""
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    zero_row = st.just([F(0)] * c)
    row = st.lists(mostly_zero, min_size=c, max_size=c)
    return Matrix.from_rows(draw(st.lists(st.one_of(zero_row, row),
                                          min_size=r, max_size=r)))


@st.composite
def wide_entry_matrices(draw):
    """40-bit numerators and denominators, with duplicated and zero rows."""
    c = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(forty_bit, min_size=c, max_size=c),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        extra = (draw(st.sampled_from(rows)) if draw(st.booleans())
                 else [F(0)] * c)
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return Matrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_kernel_matches_oracles_on_sparse_matrices(m, data):
    check_against_oracles(m, rhs_for(m, data, mostly_zero))


@settings(max_examples=40, deadline=None)
@given(wide_entry_matrices(), st.data())
def test_kernel_matches_oracles_on_40_bit_entries(m, data):
    check_against_oracles(m, rhs_for(m, data, forty_bit))


@pytest.mark.parametrize("m", [
    Matrix.from_rows([], cols=0),
    Matrix.from_rows([], cols=3),
    Matrix.from_rows([[], []]),
], ids=["0x0", "0x3", "2x0"])
def test_kernel_on_empty_shapes(m):
    check_against_oracles(m, (F(0),) * m.rows)
    assert null_space(m) == Subspace.full(m.cols)
    assert Subspace(m.cols, m.entries) == Subspace(m.cols)


def test_inconsistent_zero_column_system():
    assert solve_affine(Matrix.from_rows([[], []]), [F(0), F(1)]) is None


def test_hilbert_8():
    n = 8
    h = Matrix.from_rows([[F(1, i + j + 1) for j in range(n)] for i in range(n)])
    b = tuple(F((-1) ** i, i + 1) for i in range(n))
    check_against_oracles(h, b)
    reduced, pivots, rank = rref(h)
    assert reduced == Matrix.identity(n) and rank == n
    x, hom = solve_affine(h, b)
    assert x == from_sympy(to_sympy(h).LUsolve(sympy.Matrix(
        [sympy.Rational(v.numerator, v.denominator) for v in b])))
    assert hom == Subspace(n)


def test_particular_solution_sets_free_variables_to_zero():
    # pivots at columns 1 and 3; columns 0, 2, 4 are free
    m = Matrix.from_rows([[0, 2, 4, 0, 6], [0, 1, 2, 3, 3]])
    x, hom = solve_affine(m, [2, 7])
    assert x == (F(0), F(1), F(0), F(2), F(0))
    assert hom.dim == 3


# --- matrix times vector --------------------------------------------------
#
# Matrix.apply runs on integers; this is the Fraction evaluation it
# replaced, which it must match exactly.

def dense_apply(m: Matrix, v) -> tuple:
    return tuple(sum((a * F(x) for a, x in zip(row, v)), F(0)) for row in m.entries)


def check_apply(m: Matrix, v) -> None:
    got = m.apply(v)
    assert got == dense_apply(m, v)
    assert all(type(x) is F for x in got)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_apply_matches_fractions_on_sparse_matrices(m, data):
    check_apply(m, data.draw(st.lists(mostly_zero, min_size=m.cols, max_size=m.cols)))
    check_apply(m, [0] * m.cols)


@settings(max_examples=40, deadline=None)
@given(wide_entry_matrices(), st.data())
def test_apply_matches_fractions_on_40_bit_entries(m, data):
    check_apply(m, data.draw(st.lists(forty_bit, min_size=m.cols, max_size=m.cols)))
    check_apply(m, [0] * m.cols)


@pytest.mark.parametrize("m", [
    Matrix.from_rows([], cols=0),
    Matrix.from_rows([], cols=3),
    Matrix.from_rows([[], []]),
], ids=["0x0", "0x3", "2x0"])
def test_apply_on_empty_shapes(m):
    check_apply(m, (F(0),) * m.cols)
    assert m.apply([1] * m.cols) == (F(0),) * m.rows


def test_apply_with_a_1000_digit_entry():
    big = F(10 ** 1000 - 1, 7 ** 1000)
    m = Matrix.from_rows([[big, F(1, 3), 0], [0, 0, 0], [F(-2), big, F(5, 6)]])
    for v in ([1, 0, 0], [F(1, 2), F(-3, 4), F(7, 9)], [0, big, 1], [0, 0, 0]):
        check_apply(m, v)


def test_applied_matrix_compares_hashes_and_prints_as_a_fresh_copy():
    rows = [[F(1, 2), 0, F(3)], [0, F(-5, 7), F(1, 3)]]
    used, fresh = Matrix.from_rows(rows), Matrix.from_rows(rows)
    assert used.apply([1, 2, 3]) == (F(19, 2), F(-3, 7))
    assert vars(used)["_scaled_columns"] and "_scaled_columns" not in vars(fresh)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_matrix_repr_names_its_three_fields():
    m = Matrix(1, 2, ((F(1), F(0)),))
    assert repr(m) == "Matrix(rows=1, cols=2, entries=((Fraction(1, 1), Fraction(0, 1)),))"


def test_matrix_repr_writes_entries_past_the_digit_limit():
    m = Matrix.from_rows([[F(10 ** 5000 + 1, 3)]])
    assert repr(m) == ("Matrix(rows=1, cols=1, entries=((Fraction(1" + "0" * 4999
                       + "1, 3),),))")


@pytest.mark.parametrize("name", ["rows", "cols", "nonzero", "entries", "_scaled_columns",
                                  "other"])
def test_matrix_rejects_assignment(name):
    m = Matrix.identity(2)
    m.apply([1, 2])  # fills _scaled_columns
    with pytest.raises(AttributeError):
        setattr(m, name, 0)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert m == Matrix.identity(2)


@pytest.mark.parametrize("name", ["ambient_dim", "basis", "pivots", "other"])
def test_subspace_rejects_assignment(name):
    s = Subspace.full(2)
    with pytest.raises(AttributeError):
        setattr(s, name, 0)
    with pytest.raises(AttributeError):
        delattr(s, name)
    assert s == Subspace.full(2) and s.pivots == (0, 1)
    assert Subspace.__slots__ == ("ambient_dim", "basis", "pivots")


def test_matrix_equality_is_by_value_and_type():
    m = Matrix.from_rows([[1, 2]])
    assert m == Matrix(1, 2, (as_vector([1, 2]),))
    # the same matrix built dense with explicit zeros and from its nonzeros,
    # given out of column order and with a zero pair
    rows = [[0, F(1, 2), 0], [0, 0, 0], [F(-3), 0, 7]]
    dense = Matrix.from_rows(rows)
    sparse = Matrix._from_nonzero(3, 3, [[(1, F(1, 2))], [(1, F(0))], [(2, F(7)), (0, F(-3))]])
    assert set(vars(sparse)) == {"rows", "cols", "nonzero"}
    assert set(vars(dense)) == {"rows", "cols", "nonzero", "entries"}
    assert sparse.nonzero == dense.nonzero == (
        ((1, F(1, 2)),), (), ((0, F(-3)), (2, F(7))))
    assert sparse == dense and hash(sparse) == hash(dense)
    assert repr(sparse) == repr(dense) and sparse.entries == dense.entries
    assert sparse != Matrix._from_nonzero(3, 2, sparse.nonzero)
    assert m != Matrix.from_rows([[1, 3]])
    assert m != Matrix.from_rows([[1], [2]])
    assert m != (1, 2, m.entries)
    assert Matrix.zeros(0, 2) != Matrix.zeros(0, 3)


def test_scaled_columns_are_built_once_per_matrix(monkeypatch):
    prop = vars(Matrix)["_scaled_columns"]
    built = []
    original = prop.func
    monkeypatch.setattr(prop, "func", lambda self: built.append(self) or original(self))
    m, other = Matrix.from_rows([[1, F(1, 2)], [0, 3]]), Matrix.identity(2)
    for v in ([1, 0], [0, 1], [1, 1]):
        m.apply(v)
        other.apply(v)
    assert len(built) == 2 and built[0] is m and built[1] is other


def test_apply_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2]]).apply([1, 2, 3])
    # a dense grid of another shape than rows x cols is refused when built
    for rows, cols, entries in [(2, 3, ((F(1),),)), (1, 1, ((F(1), F(2)),))]:
        with pytest.raises(ValueError, match=r"^entries shape differs from rows x cols$"):
            Matrix(rows, cols, entries)


def test_dense_constructor_coerces_each_row():
    """``Matrix(rows, cols, entries)`` coerces each row with ``as_vector``,
    as ``from_rows`` does through it: a float is refused when the matrix is
    built, and exact strings become Fractions."""
    with pytest.raises(TypeError, match=r"^not an exact rational: 1\.5$"):
        Matrix(1, 2, (("0", 1.5),))
    with pytest.raises(TypeError, match=r"^not an exact rational: 1\.5$"):
        Matrix.from_rows([["0", 1.5]])
    m, built = Matrix(1, 2, (("1/2", 0),)), Matrix.from_rows([["1/2", 0]])
    assert m.entries == ((F(1, 2), F(0)),) and m.nonzero == (((0, F(1, 2)),),)
    assert m == built and hash(m) == hash(built) and repr(m) == repr(built)
    assert Matrix(1, 1, (("0",),)).is_zero()
    assert rref(m) == (Matrix.from_rows([[1, 0]]), (0,), 1)


@pytest.mark.parametrize("j", [-1, 2])
def test_column_checks_its_range(j):
    """-1 used to return the last column."""
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.column(1) == (F(2), F(4))
    with pytest.raises(IndexError, match=rf"^column {j} out of range$"):
        m.column(j)


# --- as_vector ------------------------------------------------------------

def test_as_vector_returns_an_exact_tuple_unchanged():
    v = (F(1), F(-2, 3), F(0))
    assert as_vector(v) is v


def test_as_vector_coerces_other_input():
    assert as_vector([1, "2/3", F(1, 2)]) == (F(1), F(2, 3), F(1, 2))
    assert as_vector((1, F(2))) == (F(1), F(2))
    assert as_vector([F(1), F(2)]) == (F(1), F(2))


def test_as_vector_rejects_floats():
    with pytest.raises(TypeError):
        as_vector((F(1), 0.5))
    with pytest.raises(TypeError):
        as_vector([0.5])


# --- scalars as text -----------------------------------------------------

# Each public entry point that coerces a scalar, applied to the sl2
# bundle and a value v.
ENTRY_POINTS = {
    "as_scalar": lambda bundle, v: as_scalar(v),
    "as_vector": lambda bundle, v: as_vector([F(1), v]),
    "Subspace": lambda bundle, v: Subspace(1, [[v]]),
    "product": lambda bundle, v: product(bundle.L, [v] + [0] * 5, [1] + [0] * 5),
    "diagonal_complement": diagonal_complement,
}


@pytest.mark.parametrize("value", ["1e10000000", "1e-5000", "0.5", "+1", " 7", "1_0",
                                   "1 /2", True, 0.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_what_is_not_an_exact_rational(bundle_sl2, entry, value):
    """``Fraction`` reads all of these; "1e10000000" took 6.7 s of CPU
    time before it was refused by shape."""
    start = time.process_time()
    with pytest.raises(TypeError, match=r"^not an exact rational: "):
        ENTRY_POINTS[entry](bundle_sl2, value)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_exact_rationals_and_refuse_a_zero_denominator(bundle_sl2, entry):
    for value in ("-3/4", "2/4", 5, F(2, 3)):
        ENTRY_POINTS[entry](bundle_sl2, value)
    with pytest.raises(ZeroDivisionError):
        ENTRY_POINTS[entry](bundle_sl2, "1/0")


def test_as_scalar_reads_each_accepted_form():
    assert [as_scalar(v) for v in ("-3/4", "2/4", "007", 5, F(2, 3))] == [
        F(-3, 4), F(1, 2), F(7), F(5), F(2, 3)]
    assert type(as_scalar(5)) is Fraction


def integers_of_up_to(digits):
    return st.integers(1, digits).flatmap(lambda d: st.integers(1 - 10 ** d, 10 ** d - 1))


@settings(deadline=None)
@given(integers_of_up_to(4000), integers_of_up_to(4000).filter(bool))
@example(10 ** 1000 - 1, 1)
@example(-(10 ** 1000 + 1), 10 ** 1000 - 1)
@example(10 ** 3999, 7 ** 4000 // 10 ** 3000)
def test_scalar_text_round_trips(num, den):
    """Below the interpreter's 4300-digit limit ``scalar_to_str`` writes
    what ``str`` writes, chunked or not, and ``as_scalar`` reads it back."""
    x = F(num, den)
    text = scalar_to_str(x)
    assert text == str(x)
    assert as_scalar(text) == x


def test_a_string_past_the_digit_limit_is_a_value_error():
    with pytest.raises(ValueError, match="4300"):
        as_scalar("9" * 5000)


def test_subspace_repr_writes_entries_past_the_digit_limit():
    sub = Subspace(2, [[1, F(10 ** 5000 + 1, 3)]])
    assert repr(sub) == ("Subspace(dim 1 of Q^2, rows=[['1', '1" + "0" * 4999
                         + "1/3']])")


def test_subspace_repr_shows_the_canonical_rows():
    assert repr(Subspace(3, [[0, 2, 1], [0, 4, 2]])) == (
        "Subspace(dim 1 of Q^3, rows=[['0', '1', '1/2']])")


# --- rref ---------------------------------------------------------------

def test_rref_rank_one_dependency():
    reduced, pivots, rank = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rank == 1


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    reduced, pivots, rank = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_swap():
    # hand row-reduction: swap rows, both become pivots
    reduced, pivots, rank = rref(Matrix.from_rows([[0, 1], [1, 0]]))
    assert reduced == Matrix.identity(2)
    assert pivots == (0, 1)
    assert rank == 2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(m):
    reduced, pivots, rank = rref(m)
    sym, sym_pivots = to_sympy(m).rref()
    assert to_sympy(reduced) == sym
    assert pivots == tuple(sym_pivots)
    assert rank == len(sym_pivots)


# --- kernel -------------------------------------------------------------

def test_kernel_zero_map_is_everything():
    assert null_space(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_identity_is_zero():
    assert null_space(Matrix.identity(3)) == Subspace(3)


def test_kernel_line():
    kern = null_space(Matrix.from_rows([[1, 1]]))
    assert kern == Subspace(2, [[1, -1]])
    m = Matrix.from_rows([[1, 1]])
    for v in kern.rows():
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilates_and_has_complementary_dim(m):
    kern = null_space(m)
    _, _, rank = rref(m)
    assert kern.dim == m.cols - rank
    for v in kern.rows():
        assert all(x == 0 for x in m.apply(v))
    # span agrees with sympy's nullspace
    sym_null = to_sympy(m).nullspace()
    sym_span = Subspace(m.cols, [
        [F(sympy.Rational(x).p, sympy.Rational(x).q) for x in vec]
        for vec in (list(v) for v in sym_null)
    ])
    assert kern == sym_span


# --- solve_affine -------------------------------------------------------

def test_solve_identity():
    x, hom = solve_affine(Matrix.identity(2), [1, 2])
    assert x == (F(1), F(2))
    assert hom == Subspace(2)


def test_solve_underdetermined_free_vars_zero():
    x, hom = solve_affine(Matrix.from_rows([[1, 1]]), [3])
    assert x == (F(3), F(0))
    assert hom == Subspace(2, [[1, -1]])


def test_solve_inconsistent_is_a_value():
    assert solve_affine(Matrix.from_rows([[0, 0]]), [1]) is None


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_substitutes_back(m, data):
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    solved = solve_affine(m, b)
    if solved is None:
        # oracle: sympy agrees there is no solution
        aug = to_sympy(m).row_join(sympy.Matrix(m.rows, 1, [
            sympy.Rational(x.numerator, x.denominator) for x in map(F, b)
        ]))
        assert aug.rank() > to_sympy(m).rank()
        return
    x, hom = solved
    assert list(m.apply(x)) == [F(v) for v in b]
    for h in hom.rows():
        shifted = tuple(a + c for a, c in zip(x, h))
        assert list(m.apply(shifted)) == [F(v) for v in b]


# --- subspaces ----------------------------------------------------------

def test_sum_of_axes():
    e1 = Subspace(3, [[1, 0, 0]])
    e2 = Subspace(3, [[0, 1, 0]])
    assert subspace_sum(e1, e2) == Subspace(3, [[1, 0, 0], [0, 1, 0]])


def test_contains_scalar_multiple():
    assert Subspace(2, [[1, 1]]).contains([2, 2])


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace(2, [[1, 0]]), Subspace(3, [[1, 0, 0]]))


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4), st.data())
def test_canonicity_under_respanning(m, data):
    """Row-operations on a spanning set never change the canonical basis."""
    first = Subspace(m.cols, m.entries)
    rows = [list(r) for r in m.entries]
    # add random multiples of rows to other rows and rescale
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(rationals)
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    scale = data.draw(st.sampled_from([F(1), F(2), F(-1), F(1, 3)]))
    rows.append([scale * x for x in rows[0]])
    assert Subspace(m.cols, rows) == first


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4), matrices(3, 4))
def test_dimension_formula(a, b):
    cols = max(a.cols, b.cols)
    u = Subspace(cols, [list(r) + [0] * (cols - a.cols) for r in a.entries])
    v = Subspace(cols, [list(r) + [0] * (cols - b.cols) for r in b.entries])
    stacked = Matrix.from_rows(u.rows() + v.rows(), cols)
    assert subspace_sum(u, v).dim == to_sympy(stacked).rank()


def test_subspace_coordinates_roundtrip():
    u = Subspace(3, [[1, 2, 0], [0, 0, 1]])
    v = (F(2), F(4), F(-5))
    coords = u.coordinates(v)
    assert coords == (F(2), F(-5))
    assert u.coordinates([1, 0, 0]) is None


@settings(max_examples=80, deadline=None)
@given(matrices(4, 5), st.data())
def test_membership_and_coordinates_match_sympy(m, data):
    """One vector drawn as a rational combination of the spanning rows,
    one drawn at random: v lies in the span exactly when appending it
    leaves sympy's rank unchanged, and its coordinates rebuild it from
    the basis rows."""
    span = Subspace(m.cols, m.entries)
    weights = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    combination = tuple(sum((w * x for w, x in zip(weights, column)), F(0))
                        for column in zip(*m.entries))
    drawn = tuple(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    rank = to_sympy(m).rank()
    for v in (combination, drawn):
        inside = to_sympy(Matrix.from_rows(m.entries + (v,))).rank() == rank
        coords = span.coordinates(v)
        assert span.contains(v) == inside == (coords is not None)
        if inside:
            assert len(coords) == span.dim == rank
            assert tuple(sum((c * row[j] for c, row in zip(coords, span.rows())), F(0))
                         for j in range(m.cols)) == v


@pytest.mark.parametrize("method", ["contains", "coordinates"])
@pytest.mark.parametrize("length", [2, 4])
def test_membership_rejects_a_vector_of_the_wrong_length(method, length):
    span = Subspace(3, [[1, 2, 0]])
    with pytest.raises(ValueError, match="^vector length differs from ambient dimension$"):
        getattr(span, method)([1] * length)


# --- exponentials -------------------------------------------------------

def test_exp_zero_is_identity():
    assert exp_nilpotent(Matrix.zeros(3, 3)) == Matrix.identity(3)


def test_exp_single_jordan_block():
    d = Matrix.from_rows([[0, 1], [0, 0]])
    assert exp_nilpotent(d) == Matrix.from_rows([[1, 1], [0, 1]])


def test_exp_rejects_identity():
    with pytest.raises(NotNilpotentError, match=r"tr\(d\^1\) = 2 is nonzero"):
        exp_nilpotent(Matrix.identity(2))


def test_exp_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="not square") as info:
        exp_nilpotent(Matrix.zeros(2, 3))
    assert info.type is ValueError


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_exp_inverse_of_negation(n, data):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = data.draw(rationals)
    d = Matrix.from_rows(rows)
    assert exp_nilpotent(d) @ exp_nilpotent(d.scale(F(-1))) == Matrix.identity(n)


def count_products(monkeypatch) -> list:
    calls = []
    real = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or real(a, b))
    return calls


def test_exp_rejects_h1_of_the_sl3_bundle_at_the_second_power(monkeypatch, bundle_sl3):
    # tr(L_h1) = 0 but tr(L_h1^2) != 0; the Cayley-Hamilton stop at
    # d^16 would take 16 products
    alg = bundle_sl3.L
    d = inner_derivation(alg, alg.basis_vector(alg.labels.index("h1")))
    calls = count_products(monkeypatch)
    with pytest.raises(NotNilpotentError) as info:
        exp_nilpotent(d)
    assert len(calls) <= 2
    assert "tr(d^2)" in str(info.value)


def test_exp_rejects_a_three_cycle_at_its_cube(monkeypatch):
    # a 3-cycle permutation block plus a zero row and column: tr(d) and
    # tr(d^2) vanish, tr(d^3) = 3
    d = Matrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    calls = count_products(monkeypatch)
    with pytest.raises(NotNilpotentError) as info:
        exp_nilpotent(d)
    assert len(calls) == 3
    assert "tr(d^3) = 3 is nonzero" in str(info.value)


def exp_or_none(exp, d: Matrix) -> Matrix | None:
    try:
        return exp(d)
    except NotNilpotentError:
        return None


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_exp_of_a_conjugated_triangular_map_matches_the_oracle(n, data):
    # P N P^-1 is nilpotent, but unlike N its diagonal need not vanish
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = data.draw(rationals)
    p = Matrix.from_rows(data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(rref(p)[2] == n)
    d = p @ Matrix.from_rows(rows) @ matrix_inverse(p)
    assert exp_nilpotent(d) == exp_nilpotent_oracle(d)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_exp_of_a_small_integer_map_matches_the_oracle(rows):
    d = Matrix.from_rows(rows)
    assert exp_or_none(exp_nilpotent, d) == exp_or_none(exp_nilpotent_oracle, d)


@pytest.mark.parametrize("name", ["sl2", "so3", "sl3", "sl4"])
def test_exp_of_bundle_left_multiplications_matches_the_oracle(name):
    alg = counterexample(name).L
    for i in range(alg.dim):
        d = inner_derivation(alg, alg.basis_vector(i))
        assert exp_or_none(exp_nilpotent, d) == exp_or_none(exp_nilpotent_oracle, d), \
            alg.labels[i]
