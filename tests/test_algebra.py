"""Products, the identity checker, multiplication operators, subspace
products, ideals, and quotients."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg import (
    LeibnizAlgebra,
    LeibnizIdentityError,
    StructureTable,
    Subspace,
    check_left_leibniz,
    counterexample,
    invariance_check,
    is_derivation,
    is_lie,
    leibniz_kernel,
    leibniz_levi,
    product,
    soluble_radical,
)
from leibnizalg.algebra import (
    _derivation_failures,
    _left_annihilator,
    left_multiplication,
    quotient,
    restrict_to_subalgebra,
    subspace_product,
)
from leibnizalg.exactlin import Matrix, embed_rows, solve_affine, vec_add
from leibnizalg.files import MAX_DIM
from leibnizalg.sampling import rational_vector
from leibnizalg.structure import is_semisimple

from conftest import (
    change_basis,
    dense_product,
    is_ideal,
    leibniz_algebras,
    matrix_inverse,
    random_invertible,
    sl2_irrep,
    sympy_rank,
)

F = Fraction


def mutate_entry(alg, i, j, k, value):
    grid = [[list(row) for row in plane] for plane in alg.table.c]
    grid[i][j][k] = F(value)
    return LeibnizAlgebra(StructureTable.from_rows(grid), validate=False)


# --- dense reference evaluators ---------------------------------------------
# Walk the full tensor c, independently of the table's nonzero index.

def _dense_scaled_row_sum(c, coeffs, side, other):
    """sum_m coeffs[m] * (b_m . b_other) or (b_other . b_m), skipping zeros."""
    acc = [F(0)] * len(coeffs)
    for m, cm in enumerate(coeffs):
        if cm == 0:
            continue
        row = c[m][other] if side == "left" else c[other][m]
        for k, e in enumerate(row):
            if e != 0:
                acc[k] += cm * e
    return tuple(acc)


def dense_identity_violations(alg):
    """(i, j, k, lhs, rhs) for each basis triple where a(bc) != (ab)c + b(ac)."""
    n = alg.dim
    c = alg.table.c
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _dense_scaled_row_sum(c, c[j][k], "right", i)
                rhs = vec_add(
                    _dense_scaled_row_sum(c, c[i][j], "left", k),
                    _dense_scaled_row_sum(c, c[i][k], "right", j),
                )
                if lhs != rhs:
                    out.append((i, j, k, lhs, rhs))
    return out


def assert_checker_matches_oracle(alg):
    report = check_left_leibniz(alg)
    got = [(v.i, v.j, v.k, v.lhs, v.rhs) for v in report.violations]
    assert got == dense_identity_violations(alg)
    assert report.ok == (not got)


@st.composite
def random_tables(draw):
    """A dense table of small integers, about 80% of entries nonzero, or
    a sparse one of dim <= 6 with a few entries +-p/q.  On a sparse table
    many pairs (j, k) are reached by only one of the three terms of the
    derivation law, d(b_j.b_k), d(b_j).b_k and b_j.d(b_k)."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 5))
        entries = st.integers(-2, 2)
        grid = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        return StructureTable.from_rows(grid)
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    scalar = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([1, 1, 2, 3]))
    entries = draw(st.dictionaries(st.tuples(index, index, index), scalar, max_size=2 * n))
    products: dict = {}
    for (i, j, k), e in entries.items():
        products.setdefault((i, j), {})[k] = e
    return StructureTable.from_map(n, products)


# --- the nonzero index --------------------------------------------------

def assert_index_matches_tensor(table):
    """``nonzero`` is sorted, and ``c`` and ``row`` are its dense copies,
    every entry a ``Fraction``."""
    for i in range(table.dim):
        assert list(table.nonzero[i]) == sorted(table.nonzero[i])
        for j in range(table.dim):
            row = table.row(i, j)
            assert row == table.c[i][j] and len(row) == table.dim
            assert all(type(e) is Fraction for e in row)
            expected = tuple((k, e) for k, e in enumerate(row) if e != 0)
            assert table.nonzero[i].get(j, ()) == expected


def test_index_matches_tensor_on_zoo(zoo):
    for _, alg in zoo:
        assert_index_matches_tensor(alg.table)


def test_equal_tables_compare_and_hash_equal(sl2):
    dense = StructureTable(3, sl2.table.c)
    rows = StructureTable.from_rows([[list(r) for r in plane] for plane in sl2.table.c])
    sparse = StructureTable.from_map(3, {
        (i, j): dict(pairs)
        for i, products in enumerate(sl2.table.nonzero)
        for j, pairs in products.items()
    })
    # keys in reverse order, scalars as strings, and explicit "0"
    # coefficients, next to a product's nonzero one and as a whole product
    unsorted = StructureTable.from_map(3, {
        (i, j): {(k + 1) % 3: "0", k: str(e)}
        for i, products in reversed(list(enumerate(sl2.table.nonzero)))
        for j, ((k, e),) in reversed(products.items())
    } | {(2, 2): {0: "0"}})
    soluble_radical(sl2)  # fills sl2's cache, not theirs
    for table in (dense, rows, sparse, unsorted):
        assert table == sl2.table
        assert hash(table) == hash(sl2.table)
        assert repr(table) == repr(sl2.table)
        assert [list(p.items()) for p in table.nonzero] == [
            list(p.items()) for p in sl2.table.nonzero]
        for name in ("nonzero", "scaled", "den", "cache"):
            assert name not in repr(table)
    assert LeibnizAlgebra(sparse, labels=sl2.labels) == sl2
    assert StructureTable.from_map(3, {}) != sl2.table
    assert StructureTable.from_map(2, {(1, 1): {1: 1}, (1, 0): {1: 1, 0: "1/2"}}).nonzero == (
        {}, {0: ((0, F(1, 2)), (1, F(1))), 1: ((1, F(1)),)})
    with pytest.raises(ValueError, match=r"^index pair \(0,3\) out of range$"):
        StructureTable.from_map(3, {(0, 1): {0: 1}, (0, 3): {0: 1}})
    with pytest.raises(ValueError, match=r"^index pair \(-1,0\) out of range$"):
        StructureTable.from_map(3, {(-1, 0): {0: 1}})
    with pytest.raises(ValueError, match=r"^target index 3 out of range$"):
        StructureTable.from_map(3, {(0, 1): {0: 1, 3: 0}})
    with pytest.raises(ValueError, match=r"^structure tensor shape differs from dim$"):
        StructureTable(2, sl2.table.c)


@settings(max_examples=80, deadline=None)
@given(random_tables(), st.data())
def test_sparse_walks_match_dense_on_random_tables(table, data):
    assert_index_matches_tensor(table)
    alg = LeibnizAlgebra(table, validate=False)
    assert_checker_matches_oracle(alg)
    n = table.dim
    assert is_lie(alg) == all(
        table.c[i][j][k] == -table.c[j][i][k]
        for i in range(n) for j in range(n) for k in range(n)
    )
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    x, y = data.draw(vectors), data.draw(vectors)
    assert product(alg, x, y) == dense_product(alg, x, y)
    d = left_multiplication(alg, x)
    for j in range(n):
        assert d.column(j) == dense_product(alg, x, alg.basis_vector(j))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_checker_matches_oracle_on_zoo_mutants(zoo, data):
    _, alg = data.draw(st.sampled_from(zoo))
    i, j, k = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    mutant = mutate_entry(alg, i, j, k, data.draw(st.integers(-2, 2)))
    assert_checker_matches_oracle(mutant)


# --- the derivation law -------------------------------------------------

def dense_derivation_failures(alg, d):
    """(j, k, d(b_j.b_k), d(b_j).b_k + b_j.d(b_k)) for each basis pair
    where the two sides differ, on dense vectors."""
    n = alg.dim
    m = d.entries

    def apply(v):
        return tuple(sum((m[r][c] * v[c] for c in range(n)), F(0)) for r in range(n))

    basis = [alg.basis_vector(j) for j in range(n)]
    images = [apply(b) for b in basis]
    out = []
    for j in range(n):
        for k in range(n):
            lhs = apply(dense_product(alg, basis[j], basis[k]))
            rhs = vec_add(dense_product(alg, images[j], basis[k]),
                          dense_product(alg, basis[j], images[k]))
            if lhs != rhs:
                out.append((j, k, lhs, rhs))
    return out


@st.composite
def maps_on(draw, alg):
    """A plain map with a few small entries, or the inner derivation of a
    random x, either one perhaps off by 1 in one entry.  On a valid
    algebra inner derivations pass the derivation law, and their
    perturbations mostly fail it."""
    n = alg.dim
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows = [list(r) for r in left_multiplication(alg, x).entries]
    else:
        entries = st.sampled_from([0, 0, 0, 1, -1, 2])
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
    return Matrix.from_rows(rows, cols=n)


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_identity_is_the_derivation_law_of_left_multiplications(table):
    alg = LeibnizAlgebra(table, validate=False)
    assert check_left_leibniz(alg).ok == all(
        is_derivation(alg, left_multiplication(alg, alg.basis_vector(i)))
        for i in range(alg.dim)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_derivation_matches_dense_oracle(zoo, data):
    # small valid algebras; random tables are in the next test
    alg = data.draw(st.sampled_from([a for _, a in zoo if a.dim <= 5]))
    d = data.draw(maps_on(alg))
    assert is_derivation(alg, d) == (not dense_derivation_failures(alg, d))


@settings(max_examples=150, deadline=None)
@given(random_tables(), st.data())
def test_derivation_failures_match_dense_oracle(table, data):
    """The walk yields every failing pair with both sides, not only
    whether one fails.  On a sparse table many pairs are reached by only
    one of the law's three terms, so a walk that skips such pairs fails
    here."""
    alg = LeibnizAlgebra(table, validate=False)
    d = data.draw(maps_on(alg))
    n = alg.dim
    images = {m: pairs for m in range(n)
              if (pairs := tuple((k, e) for k, e in enumerate(d.column(m)) if e))}
    got = sorted((j, k, *(tuple(side.get(t, F(0)) for t in range(n)) for side in sides))
                 for j, k, *sides in _derivation_failures(table.nonzero, images))
    expected = dense_derivation_failures(alg, d)
    assert got == expected
    assert is_derivation(alg, d) == (not expected)


@pytest.mark.parametrize("term, products, rows, pair", [
    # d(b_0.b_0) = d(b_1) = b_1, and d(b_0) = 0
    (0, {(0, 0): {1: 1}}, [[0, 0], [0, 1]], (0, 0)),
    # d(b_0).b_2 = b_1.b_2 = b_2, and b_0 multiplies everything to zero
    (1, {(1, 2): {2: 1}}, [[0, 0, 0], [1, 0, 0], [0, 0, 0]], (0, 2)),
    # b_0.d(b_0) = b_0.b_1 = b_1, and b_1 multiplies everything to zero
    (2, {(0, 1): {1: 1}}, [[0, 0], [1, 0]], (0, 0)),
], ids=["d_of_product", "image_times_basis", "basis_times_image"])
def test_is_derivation_fails_where_one_term_alone_is_nonzero(term, products, rows, pair):
    """The law fails at one basis pair only, where the one term of
    d(b_j.b_k), d(b_j).b_k and b_j.d(b_k) that is nonzero is ``term``."""
    d = Matrix.from_rows(rows)
    alg = LeibnizAlgebra(StructureTable.from_map(d.rows, products), validate=False)
    j, k = pair
    bj, bk = alg.basis_vector(j), alg.basis_vector(k)
    terms = (d.apply(dense_product(alg, bj, bk)), dense_product(alg, d.column(j), bk),
             dense_product(alg, bj, d.column(k)))
    assert [any(v) for v in terms] == [t == term for t in range(3)]
    assert [f[:2] for f in dense_derivation_failures(alg, d)] == [pair]
    assert not is_derivation(alg, d)


# --- product ------------------------------------------------------------

def test_product_abelian_vanishes(abelian2):
    assert product(abelian2, [3, -2], [F(1, 2), 5]) == (F(0), F(0))


def test_product_sl2_h_on_e(sl2):
    assert product(sl2, [0, 1, 0], [1, 0, 0]) == (F(2), F(0), F(0))


def test_product_square_generator(square_algebra):
    assert product(square_algebra, [1, 0], [1, 0]) == (F(0), F(1))


def test_product_dimension_mismatch(sl2):
    with pytest.raises(ValueError):
        product(sl2, [1, 0], [0, 1, 0])


# --- identity checker ---------------------------------------------------

def test_lie_algebras_pass(sl2, so3, heisenberg):
    for alg in (sl2, so3, heisenberg):
        assert check_left_leibniz(alg).ok


def test_bundle_passes(bundle_sl2):
    assert check_left_leibniz(bundle_sl2.L).ok


def test_single_entry_mutation_is_caught(sl2, bundle_sl2):
    # change h.e from 2e to 3e
    mutated = mutate_entry(sl2, 1, 0, 0, 3)
    report = check_left_leibniz(mutated)
    assert not report.ok
    # the report re-evaluates both sides exactly
    for violation in report.violations:
        lhs = product(mutated, mutated.basis_vector(violation.i),
                      product(mutated, mutated.basis_vector(violation.j),
                              mutated.basis_vector(violation.k)))
        ab = product(mutated, mutated.basis_vector(violation.i),
                     mutated.basis_vector(violation.j))
        ac = product(mutated, mutated.basis_vector(violation.i),
                     mutated.basis_vector(violation.k))
        rhs = tuple(
            x + y for x, y in zip(
                product(mutated, ab, mutated.basis_vector(violation.k)),
                product(mutated, mutated.basis_vector(violation.j), ac),
            )
        )
        assert violation.lhs == lhs
        assert violation.rhs == rhs
        assert lhs != rhs
    # the module rows 3..5 of the sl2 bundle are empty (L_b = 0 there);
    # changing h.e' from 2e' to 3e' breaks the identity in the other rows
    bundle_mutant = mutate_entry(bundle_sl2.L, 1, 3, 3, 3)
    assert not any(bundle_mutant.table.nonzero[3:])
    assert not check_left_leibniz(bundle_mutant).ok
    assert_checker_matches_oracle(bundle_mutant)


def padded_to_max_dim(alg):
    """alg on its basis followed by MAX_DIM - dim basis vectors whose
    products are all zero."""
    return LeibnizAlgebra(StructureTable.from_map(MAX_DIM, {
        (i, j): dict(pairs)
        for i, products in enumerate(alg.table.nonzero)
        for j, pairs in products.items()
    }), validate=False)


@pytest.mark.parametrize("check", [
    pytest.param(lambda alg, d: check_left_leibniz(alg).ok, id="check_left_leibniz"),
    pytest.param(is_derivation, id="is_derivation"),
])
def test_padding_with_zero_basis_vectors_does_not_multiply_the_walk(check):
    """The sl5 bundle embedded in dim MAX_DIM: 80 basis vectors with zero
    products add no work to the walk, which follows the nonzero
    products.  They all lie in the left annihilator, and reducing a
    product modulo it reads only the pivots the product meets.
    ``is_derivation`` checks the inner derivation of a seeded x, the same
    map on both.  CPU times are the best of three in this process, the
    two walks alternating so that both see the same machine load."""
    bundle = counterexample("sl5").L
    padded = padded_to_max_dim(bundle)
    assert padded.dim == MAX_DIM == 128
    x = rational_vector(random.Random(5), bundle.dim)
    cases = [(alg, left_multiplication(alg, x + (F(0),) * (alg.dim - bundle.dim)))
             for alg in (bundle, padded)]
    best = [math.inf, math.inf]
    for _ in range(3):
        for side, (alg, d) in enumerate(cases):
            start = time.process_time()
            ok = check(alg, d)
            best[side] = min(best[side], time.process_time() - start)
            assert ok
    assert best[1] < 1.5 * best[0]


def test_idempotent_square_fails_only_at_the_diagonal_triple():
    """x.x = x: x(xx) = x, but (xx)x + x(xx) = 2x.  On the diagonal the
    defect is -(b_i.b_i).b_k, and the report still carries both sides."""
    alg = LeibnizAlgebra(StructureTable.from_map(1, {(0, 0): {0: 1}}), validate=False)
    assert [tuple(v) for v in check_left_leibniz(alg).violations] == [(0, 0, 0, (F(1),), (F(2),))]
    assert_checker_matches_oracle(alg)


@pytest.mark.parametrize("products, failing", [
    # b_0.b_1 = b_1 and b_1.b_0 = 0: a Leibniz algebra
    ({(0, 1): {1: 1}}, 0),
    # b_0.b_1 = b_0 and b_1.b_0 = 0: (b_0.b_1).b_1 = b_0.b_1 = b_0 != 0
    ({(0, 1): {0: 1}}, 1),
    # b_1.b_0 = b_0 + b_1 alone, the pair reached in the other order:
    # b_1(b_0.b_0) = 0, but (b_1.b_0).b_0 = b_1.b_0 != 0
    ({(1, 0): {0: 1, 1: 1}}, 1),
])
def test_a_pair_reached_in_one_order_only(products, failing):
    alg = LeibnizAlgebra(StructureTable.from_map(2, products), validate=False)
    assert len(check_left_leibniz(alg).violations) == failing
    assert_checker_matches_oracle(alg)


def test_a_row_without_products_paired_with_one_that_has_some():
    """b_2 multiplies everything to zero, b_0.b_2 = b_1 and b_1.b_1 = b_2:
    (b_0.b_2).b_1 = b_2 fails at (0, 2, 1), and each pair with b_2 is
    reached by b_0.b_2 or by neither product."""
    alg = LeibnizAlgebra(StructureTable.from_map(
        3, {(0, 2): {1: 1}, (1, 1): {2: 1}, (0, 0): {0: 2}}), validate=False)
    assert not alg.table.nonzero[2]
    report = check_left_leibniz(alg)
    assert (0, 2, 1) in [v[:3] for v in report.violations]
    assert_checker_matches_oracle(alg)
    assert_checker_matches_oracle(mutate_entry(alg, 1, 1, 2, 0))


@pytest.mark.parametrize("products, failing", [
    # x.y = y.x = y + z: [L_x, L_y] = L_y = L_{x.y}, but x.y + y.x = 2y + 2z
    # is not in Ann = <z>, and (y.x).x + x(y.x) = 2y + 2z != y(x.x) = 0
    ({(0, 1): {1: 1, 2: 1}, (1, 0): {1: 1, 2: 1}}, [(1, 0, 0)]),
    # x.y = y.x = z and x.z = z: x.y + y.x = 2z is in Ann = <z>, but
    # [L_x, L_y] sends x to x.z = z, while L_{x.y} = L_z = 0
    ({(0, 1): {2: 1}, (1, 0): {2: 1}, (0, 2): {2: 1}}, [(0, 1, 0), (1, 0, 0)]),
    # x.x = x + z is x modulo Ann = <z> and fails; y.y = z is 0 and passes
    ({(0, 0): {0: 1, 2: 1}, (1, 1): {2: 1}}, [(0, 0, 0)]),
], ids=["symmetric", "commutator", "square"])
def test_each_test_modulo_the_annihilator_fails_alone(products, failing):
    """x = b_0, y = b_1 and z = b_2 with z.z = z.x = z.y = 0, so the left
    annihilator is <z>, and each product reaching z is reduced modulo it.
    The pair {x, y} passes in both orders iff [L_x, L_y] = L_{x.y} and
    x.y + y.x lies in Ann; the diagonal iff x.x does.  Each table breaks
    just one of the three."""
    alg = LeibnizAlgebra(StructureTable.from_map(3, products), validate=False)
    assert _left_annihilator(alg.table) == Subspace(3, [[0, 0, 1]])
    assert [v[:3] for v in check_left_leibniz(alg).violations] == failing
    assert_checker_matches_oracle(alg)


def dense_dim7(sl2, seed):
    """sl2 acting from the left on V(1), with zero right action, and a
    generator t with t.t = z (dim 3 + 2 + 2), after a seeded change of
    basis that leaves every table entry nonzero."""
    products = {(i, j): dict(pairs)
                for i, row in enumerate(sl2.table.nonzero) for j, pairs in row.items()}
    for a, rho in enumerate(sl2_irrep(1).rho):
        for r, row in enumerate(rho.entries):
            for col, e in enumerate(row):
                if e:
                    products.setdefault((a, 3 + col), {})[3 + r] = e
    products[(5, 5)] = {6: 1}
    base = LeibnizAlgebra(StructureTable.from_map(7, products))
    rng = random.Random(seed)
    while True:
        g = random_invertible(rng, 7)
        alg = change_basis(base, g, matrix_inverse(g), validate=False)
        if all(e for plane in alg.table.c for row in plane for e in row):
            return alg


def seeded_mutants(alg, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        yield mutate_entry(alg, i, j, k, alg.table.c[i][j][k] + F(rng.choice([-2, -1, 1, 2]), 3))


def test_checker_matches_oracle_on_a_dense_table_and_its_mutants(sl2):
    alg = dense_dim7(sl2, 5)
    assert check_left_leibniz(alg).ok
    assert_checker_matches_oracle(alg)
    for mutant in seeded_mutants(alg, 6, 3):
        assert not check_left_leibniz(mutant).ok
        assert_checker_matches_oracle(mutant)


class CountingFraction(Fraction):
    """A Fraction that counts the multiplications it takes part in."""

    calls = 0

    def __mul__(self, other):
        CountingFraction.calls += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.calls += 1
        return Fraction.__rmul__(self, other)


def test_dense_walk_makes_each_composite_once(sl2):
    """On a dense dim-7 table each unordered pair {i, j} forms
    b_i(b_j.b_k) and b_j(b_i.b_k), of dim³ multiplications each, once,
    and (b_i.b_j).b_k from b_i.b_j reduced modulo the left annihilator
    Ann, which has dim 3 here; (b_j.b_i).b_k and, on the diagonal,
    b_i(b_i.b_k) are formed only where the pair fails.  That is at most
    2·7⁵ constant multiplications on every table, where a walk that forms
    b_i(b_j.b_k) at both (i, j, k) and (j, i, k) makes 3·7⁵.  On the
    passing table it is at most (3·7⁵ - 7⁴)/2, which the pair walk that
    formed all four sums of every pair, 2·7⁵ - 7⁴, exceeds."""
    alg = dense_dim7(sl2, 5)
    assert _left_annihilator(alg.table).dim == 3
    counts = []
    for table in [alg.table] + [m.table for m in seeded_mutants(alg, 6, 3)]:
        counting = LeibnizAlgebra(StructureTable.from_map(7, {
            (i, j): {k: CountingFraction(e) for k, e in pairs}
            for i, row in enumerate(table.nonzero) for j, pairs in row.items()
        }), validate=False)
        assert all(type(e) is CountingFraction
                   for row in counting.table.nonzero for pairs in row.values() for _, e in pairs)
        CountingFraction.calls = 0
        report = check_left_leibniz(counting)
        assert 0 < CountingFraction.calls <= 2 * 7 ** 5
        assert report == check_left_leibniz(LeibnizAlgebra(table, validate=False))
        counts.append(CountingFraction.calls)
    assert counts[0] <= (3 * 7 ** 5 - 7 ** 4) // 2 == 24_010


def assert_annihilator_matches_dense(table):
    """Each basis row x of ``_left_annihilator`` has x.b_k = 0 for every
    k, read off the dense tensor, and there are n - rank(m -> c[m]) of
    them, sympy's rank over the nonzero columns (k, l) of c[m][k][l]:
    so they span every such x."""
    n = table.dim
    c = table.c
    columns = sorted({(k, l) for plane in c for k, row in enumerate(plane)
                      for l, e in enumerate(row) if e})
    flat = [[c[m][k][l] for k, l in columns] for m in range(n)]
    ann = _left_annihilator(table)
    for x in ann.sparse_rows:
        assert not any(sum(a * flat[m][col] for m, a in x) for col in range(len(columns)))
    assert ann.dim == n - sympy_rank(row for row in flat if any(row))


def test_left_annihilator_matches_its_dense_definition(zoo, sl2):
    bundles = [counterexample(name).L for name in ("sl2", "so3", "sl3", "sl4", "sl5")]
    padded = padded_to_max_dim(bundles[-1])
    dense = dense_dim7(sl2, 5)
    # b_3 of the sl2 bundle has a zero row; a nonzero b_3.b_0 takes it out of Ann
    mutant = mutate_entry(bundles[0], 3, 0, 3, 1)
    tables = ([alg.table for _, alg in zoo] + [b.table for b in bundles]
              + [padded.table, dense.table, next(seeded_mutants(dense, 6, 1)).table, mutant.table])
    for table in tables:
        assert_annihilator_matches_dense(table)
    assert _left_annihilator(padded.table).dim == _left_annihilator(bundles[-1].table).dim + 80
    assert _left_annihilator(mutant.table).dim == _left_annihilator(bundles[0].table).dim - 1


@st.composite
def planted_annihilators(draw, alg):
    """alg with one or two basis vectors z_c planted in its left
    annihilator, after a seeded dense change of basis, and in half the
    draws one entry then moved by 1; returns (algebra, whether moved).

    Each product x.y gains f_c(x.y) z_c for drawn linear forms f_c, and
    z_c multiplies everything to zero from either side; the identity
    holds since f_c is linear.  So products reach Ann, and after the
    change of basis Ann is no span of basis vectors.  ``random_tables()``
    almost never draws a table whose left annihilator is nonzero."""
    m = alg.dim
    forms = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                          min_size=1, max_size=2))
    n = m + len(forms)
    products = {}
    for i, row in enumerate(alg.table.nonzero):
        for j, pairs in row.items():
            products[i, j] = dict(pairs) | {m + c: sum(f[t] * e for t, e in pairs)
                                             for c, f in enumerate(forms)}
    planted = LeibnizAlgebra(StructureTable.from_map(n, products), validate=False)
    g = random_invertible(random.Random(draw(st.integers(0, 2 ** 16))), n)
    moved = change_basis(planted, g, matrix_inverse(g), validate=False)
    if not draw(st.booleans()):
        return moved, False
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    return mutate_entry(moved, i, j, k, moved.table.c[i][j][k] + 1), True


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checker_matches_oracle_with_a_planted_left_annihilator(zoo, data):
    alg = data.draw(st.sampled_from([a for _, a in zoo if a.dim <= 4]))
    planted, mutated = data.draw(planted_annihilators(alg))
    assert_checker_matches_oracle(planted)
    if not mutated:
        assert check_left_leibniz(planted).ok
        assert _left_annihilator(planted.table).dim > _left_annihilator(alg.table).dim


def test_mutation_sensitivity_seeded(sl2):
    rng = random.Random(7)
    for _ in range(50):
        i, j, k = (rng.randrange(3) for _ in range(3))
        old = sl2.table.c[i][j][k]
        value = old
        while value == old:
            value = F(rng.randint(-5, 5))
        mutated = mutate_entry(sl2, i, j, k, value)
        assert not check_left_leibniz(mutated).ok


def test_constructor_validates(sl2):
    with pytest.raises(LeibnizIdentityError):
        LeibnizAlgebra(mutate_entry(sl2, 1, 0, 0, 3).table)


# --- is_lie -------------------------------------------------------------

def test_is_lie(sl2, square_algebra, bundle_sl2):
    assert is_lie(sl2)
    assert not is_lie(square_algebra)
    assert not is_lie(bundle_sl2.L)


# --- left multiplication ------------------------------------------------

def test_left_multiplication_zero(sl2):
    assert left_multiplication(sl2, [0, 0, 0]).is_zero()


def test_left_multiplication_by_h_is_diagonal(sl2):
    d = left_multiplication(sl2, [0, 1, 0])
    # column-by-column product oracle
    for j in range(3):
        assert d.column(j) == product(sl2, [0, 1, 0], sl2.basis_vector(j))
    assert d == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


def test_kernel_block_multiplies_to_zero(bundle_sl2):
    alg = bundle_sl2.L
    for row in bundle_sl2.K.rows():
        assert left_multiplication(alg, row).is_zero()


def test_left_multiplication_is_a_derivation(zoo):
    rng = random.Random(11)
    for _, alg in zoo:
        for _ in range(3):
            a = rational_vector(rng, alg.dim)
            x = rational_vector(rng, alg.dim)
            y = rational_vector(rng, alg.dim)
            d = left_multiplication(alg, a)
            lhs = d.apply(product(alg, x, y))
            rhs = tuple(
                p + q for p, q in zip(product(alg, d.apply(x), y), product(alg, x, d.apply(y)))
            )
            assert lhs == rhs


# --- subspace products and ideals ---------------------------------------

def test_abelian_full_product_is_zero(abelian2):
    full = Subspace.full(2)
    assert subspace_product(abelian2, full, full).is_zero()


def test_sl2_is_perfect(sl2):
    full = Subspace.full(3)
    assert subspace_product(sl2, full, full) == full


def test_kernel_annihilates_bundle(bundle_sl2):
    assert subspace_product(bundle_sl2.L, bundle_sl2.K,
                            Subspace.full(6)).is_zero()


def test_subspace_product_monotone(sl2, bundle_sl2):
    rng = random.Random(3)
    for alg in (sl2, bundle_sl2.L):
        for _ in range(5):
            small = Subspace(alg.dim, [rational_vector(rng, alg.dim)])
            bigger = Subspace(alg.dim, list(small.rows())
                              + [rational_vector(rng, alg.dim)])
            v = Subspace(alg.dim, [rational_vector(rng, alg.dim)])
            assert subspace_product(alg, bigger, v).contains_subspace(
                subspace_product(alg, small, v))


@settings(max_examples=60, deadline=None)
@given(random_tables(), st.data())
def test_subspace_product_matches_dense_products(table, data):
    alg = LeibnizAlgebra(table, validate=False)
    n = table.dim
    spans = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=3)
    u, v = Subspace(n, data.draw(spans)), Subspace(n, data.draw(spans))
    expected = Subspace(n, [dense_product(alg, x, y) for x in u.rows() for y in v.rows()])
    assert subspace_product(alg, u, v) == expected


# --- integer products against the oracles ------------------------------------

def rational_vectors(n):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=n, max_size=n)


def assert_products_match_oracles(alg, x, y, u_rows, v_rows):
    assert product(alg, x, y) == dense_product(alg, x, y)
    u, v = Subspace(alg.dim, u_rows), Subspace(alg.dim, v_rows)
    dense = [dense_product(alg, a, b) for a in u.rows() for b in v.rows()]
    got = subspace_product(alg, u, v)
    assert got.dim == sympy_rank(dense)
    assert all(got.contains(w) for w in dense)


def assert_restriction_and_invariance_match_oracles(alg, u):
    """The restricted table against dense products solved for their
    coordinates over u's basis, and the invariance rows against a dense
    loop that stops at the first product outside u."""
    rows = u.rows()
    basis = Matrix.from_rows([tuple(r[k] for r in rows) for k in range(alg.dim)], cols=u.dim)

    def coordinates(v):
        solved = solve_affine(basis, v)
        return None if solved is None else solved[0]

    restricted = restrict_to_subalgebra(alg, u)
    assert [[restricted.table.row(a, b) for b in range(u.dim)] for a in range(u.dim)] == [
        [coordinates(dense_product(alg, x, y)) for y in rows] for x in rows]
    dense = []
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        failing = next((t for t, r in enumerate(rows)
                        if coordinates(dense_product(alg, b, r)) is None), None)
        dense.append((failing is None, failing))
    assert [(r.passed, r.failing_row) for r in invariance_check(alg, u).rows] == dense


@settings(max_examples=25, deadline=None)
@given(leibniz_algebras(), st.data())
def test_integer_products_match_oracles_on_leibniz_algebras(known, data):
    """Products and subspace products on drawn vectors and spans, and the
    restriction and invariance check on the radical and the complement
    that ``leibniz_levi`` finds."""
    vectors = rational_vectors(known.alg.dim)
    spans = st.lists(vectors, max_size=3)
    assert_products_match_oracles(known.alg, data.draw(vectors), data.draw(vectors),
                                  data.draw(spans), data.draw(spans))
    decomposition = leibniz_levi(known.alg)
    for u in (decomposition.radical, decomposition.semisimple_part):
        assert_restriction_and_invariance_match_oracles(known.alg, u)


# Distinct primes, so pairwise coprime.
COPRIME = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)


@pytest.fixture(scope="module")
def coprime_bundle(bundle_sl2):
    """The sl2 bundle on the basis f_a = g_a e_a, g = COPRIME:
    f_a . f_b = sum_k (g_a g_b / g_k) c[a][b][k] f_k, so the denominators
    in coordinate k divide g_k and no other g."""
    alg = bundle_sl2.L
    n, c, g = alg.dim, alg.table.c, COPRIME
    grid = [[[F(g[a] * g[b], g[k]) * c[a][b][k] for k in range(n)] for b in range(n)]
            for a in range(n)]
    return LeibnizAlgebra(StructureTable.from_rows(grid), labels=alg.labels)


def test_structure_table_repr_shows_dim_and_c():
    table = StructureTable(1, (((F(0),),),))
    assert repr(table) == "StructureTable(dim=1, c=(((Fraction(0, 1),),),))"


def test_structure_table_repr_writes_entries_past_the_digit_limit():
    table = StructureTable.from_map(1, {(0, 0): {0: F(10 ** 5000 + 1, 3)}})
    assert repr(table) == ("StructureTable(dim=1, c=(((Fraction(1" + "0" * 4999
                           + "1, 3),),),))")


def test_structure_tables_compare_and_hash_by_dim_and_c(coprime_bundle):
    """``==`` and ``hash`` compare ``dim`` and the index, which fixes c;
    ``cache``, ``den``, ``scaled`` and ``c`` itself stay out, whether or
    not they have been filled."""
    table = coprime_bundle.table
    used, fresh = StructureTable(table.dim, table.c), StructureTable(table.dim, table.c)
    used.cache["marker"] = 1
    assert used.den and used.scaled and used.c == table.c
    assert not fresh.cache and not {"den", "scaled", "c"} & set(vars(fresh))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used != StructureTable.from_map(used.dim, {})
    assert used != (used.dim, used.c)


@pytest.mark.parametrize("name", ["dim", "c", "nonzero", "cache", "den", "scaled", "other"])
def test_structure_table_rejects_assignment(name):
    table = StructureTable.from_map(2, {(0, 1): {1: 1}})
    assert table.c and table.den and table.scaled  # fill the cached views
    with pytest.raises(AttributeError):
        setattr(table, name, ())
    with pytest.raises(AttributeError):
        delattr(table, name)
    assert table == StructureTable.from_map(2, {(0, 1): {1: 1}})
    assert table.row(0, 1) == (F(0), F(1))


@pytest.mark.parametrize("name", ["dim", "labels", "table", "other"])
def test_algebra_rejects_assignment(name, sl2):
    alg = LeibnizAlgebra(sl2.table, sl2.labels)
    with pytest.raises(AttributeError):
        setattr(alg, name, ())
    with pytest.raises(AttributeError):
        delattr(alg, name)
    assert alg == sl2 and alg.labels == ("e", "h", "f")


def test_row_reads_the_index_and_checks_its_range():
    table = StructureTable.from_map(3, {(0, 2): {1: 1}})
    assert [table.row(0, j) for j in range(3)] == [(F(0),) * 3, (F(0),) * 3, (F(0), F(1), F(0))]
    assert "c" not in vars(table)
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError, match="out of range"):
            table.row(i, j)


@pytest.mark.parametrize("i", [-1, 6])
def test_basis_vector_checks_its_range(bundle_sl2, i):
    """-1 used to return the last basis vector."""
    alg = bundle_sl2.L
    assert alg.basis_vector(5) == (F(0),) * 5 + (F(1),)
    with pytest.raises(IndexError, match=rf"^basis index {i} out of range$"):
        alg.basis_vector(i)


def test_den_and_scaled_are_built_once_per_table(monkeypatch, coprime_bundle):
    built = []
    for name in ("den", "scaled"):
        prop = vars(StructureTable)[name]
        monkeypatch.setattr(prop, "func", lambda self, f=prop.func, name=name:
                            built.append((name, self)) or f(self))
    table = StructureTable(coprime_bundle.dim, coprime_bundle.table.c)
    alg = LeibnizAlgebra(table, coprime_bundle.labels, validate=False)
    for _ in range(3):  # each product reads both
        product(alg, alg.basis_vector(0), alg.basis_vector(1))
        assert table.scaled and table.den
    assert [name for name, _ in built] == ["scaled", "den"]
    assert all(owner is table for _, owner in built)


def test_each_coordinate_has_its_own_denominator(coprime_bundle):
    table = coprime_bundle.table
    n = table.dim
    for k in range(n):
        column = [table.c[i][j][k].denominator for i in range(n) for j in range(n)]
        assert table.den[k] == math.lcm(*column)
        assert table.den[k] in (1, COPRIME[k])
    # several coordinates have a denominator, and none carries the others'
    assert max(table.den) < math.lcm(*table.den)
    for i, products in enumerate(table.nonzero):
        assert list(table.scaled[i]) == list(products)
        for j, pairs in products.items():
            scaled = table.scaled[i][j]
            assert all(type(e) is int for _, e in scaled)
            assert scaled == tuple((k, e * table.den[k]) for k, e in pairs)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_integer_products_match_oracles_with_coprime_denominators(coprime_bundle, data):
    vectors = rational_vectors(coprime_bundle.dim)
    spans = st.lists(vectors, max_size=3)
    assert_products_match_oracles(coprime_bundle, data.draw(vectors), data.draw(vectors),
                                  data.draw(spans), data.draw(spans))


def test_coprime_denominators_keep_the_radical(coprime_bundle, bundle_sl2):
    # the module block is spanned by basis vectors, which a diagonal
    # change of basis only rescales
    assert leibniz_kernel(coprime_bundle) == bundle_sl2.K
    assert soluble_radical(coprime_bundle) == bundle_sl2.K


def test_zero_subspace_is_everything(sl2):
    zero = Subspace(3)
    assert restrict_to_subalgebra(sl2, zero).dim == 0
    assert is_ideal(sl2, zero)


def test_bundle_blocks(bundle_sl2):
    assert restrict_to_subalgebra(bundle_sl2.L, bundle_sl2.S).dim == 3
    assert is_ideal(bundle_sl2.L, bundle_sl2.K)
    assert not is_ideal(bundle_sl2.L, bundle_sl2.S)


# --- quotient -----------------------------------------------------------

def dense_projection(alg, ideal):
    """The q x n projection onto the quotient by ideal, built densely: row
    t has 1 at free[t] and, at each pivot p_r, minus row r's entry at
    free[t]."""
    free = [c for c in range(alg.dim) if c not in ideal.pivots]
    rows = []
    for f in free:
        row = [F(0)] * alg.dim
        row[f] = F(1)
        for p, basis_row in zip(ideal.pivots, ideal.rows()):
            row[p] = -basis_row[f]
        rows.append(row)
    return free, Matrix.from_rows(rows, cols=alg.dim)


def assert_quotient_matches_projection(alg, ideal):
    """pi is a homomorphism onto the quotient, the lifts are the unit
    vectors at the free coordinates, and pi undoes their embedding."""
    qalg, lifts = quotient(alg, ideal)
    free, pi = dense_projection(alg, ideal)
    assert qalg.dim == len(free)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert pi.apply(alg.table.row(i, j)) == product(qalg, pi.column(i), pi.column(j))
    assert lifts.rows() == tuple(alg.basis_vector(f) for f in free)
    identity = Matrix.identity(qalg.dim)
    embedded = embed_rows(lifts, identity.entries).rows()
    assert Matrix(qalg.dim, qalg.dim, tuple(pi.apply(r) for r in embedded)) == identity


def test_quotient_by_zero_is_a_copy(sl2):
    qalg, _ = quotient(sl2, Subspace(3))
    assert qalg.table == sl2.table
    assert_quotient_matches_projection(sl2, Subspace(3))


def test_bundle_modulo_kernel_looks_like_sl2(bundle_sl2, sl2):
    qalg, _ = quotient(bundle_sl2.L, bundle_sl2.K)
    assert qalg.dim == 3
    assert is_lie(qalg)
    assert is_semisimple(qalg)
    assert qalg.table == sl2.table  # first block carries the same constants
    assert_quotient_matches_projection(bundle_sl2.L, bundle_sl2.K)


@settings(max_examples=30, deadline=None)
@given(leibniz_algebras())
def test_quotient_matches_the_dense_projection(known):
    # the change of basis leaves nonzero free-column entries in the
    # ideals' RREF rows, so pi has entries off the free columns
    for ideal in (known.squares, known.radical):
        assert_quotient_matches_projection(known.alg, ideal)


def test_square_algebra_quotient(square_algebra):
    qalg, _ = quotient(square_algebra, Subspace(2, [[0, 1]]))
    assert qalg.dim == 1
    assert qalg.table.row(0, 0) == (F(0),)


def test_quotient_by_kernel_is_lie(zoo):
    for _, alg in zoo:
        qalg, _ = quotient(alg, leibniz_kernel(alg))
        assert is_lie(qalg)


def test_quotients_and_restrictions_satisfy_the_identity(zoo):
    # Built from valid algebras, these can never break the identity;
    # recheck that directly in case their construction stops validating.
    for name, alg in zoo:
        kern = leibniz_kernel(alg)
        rad = soluble_radical(alg)
        for ideal in (kern, rad):
            qalg, _ = quotient(alg, ideal)
            assert check_left_leibniz(qalg).ok, name
            assert_index_matches_tensor(qalg.table)
        for sub in (rad, Subspace.full(alg.dim), Subspace(alg.dim)):
            restricted = restrict_to_subalgebra(alg, sub)
            assert check_left_leibniz(restricted).ok, name
