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
    is_derivation,
    is_lie,
    leibniz_kernel,
    product,
    soluble_radical,
)
from leibnizalg.algebra import (
    _dense_sum,
    _derivation_failures,
    left_multiplication,
    quotient,
    restrict_to_subalgebra,
    subspace_product,
)
from leibnizalg.exactlin import Matrix, embed_rows, vec_add
from leibnizalg.files import MAX_DIM
from leibnizalg.sampling import rational_vector
from leibnizalg.structure import is_semisimple

from conftest import dense_product, is_ideal, leibniz_algebras, sympy_rank

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
    got = [(j, k, _dense_sum(n, lhs), _dense_sum(n, rhs))
           for j, k, lhs, rhs in _derivation_failures(table.nonzero, images)]
    expected = dense_derivation_failures(alg, d)
    assert got == expected
    assert is_derivation(alg, d) == (not expected)


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


def test_padding_with_zero_basis_vectors_does_not_multiply_the_walk():
    """The sl5 bundle embedded in dim MAX_DIM: 80 basis vectors with zero
    products add no work to the walk, which follows the nonzero
    products.  CPU times are the best of three in this process, the two
    walks alternating so that both see the same machine load."""
    bundle = counterexample("sl5").L
    padded = LeibnizAlgebra(StructureTable.from_map(MAX_DIM, {
        (i, j): dict(pairs)
        for i, products in enumerate(bundle.table.nonzero)
        for j, pairs in products.items()
    }), validate=False)
    assert padded.dim == MAX_DIM == 128
    best = [math.inf, math.inf]
    for _ in range(3):
        for side, alg in enumerate((bundle, padded)):
            start = time.process_time()
            report = check_left_leibniz(alg)
            best[side] = min(best[side], time.process_time() - start)
            assert report.ok
    assert best[1] < 1.5 * best[0]


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


@settings(max_examples=25, deadline=None)
@given(leibniz_algebras(), st.data())
def test_integer_products_match_oracles_on_leibniz_algebras(known, data):
    vectors = rational_vectors(known.alg.dim)
    spans = st.lists(vectors, max_size=3)
    assert_products_match_oracles(known.alg, data.draw(vectors), data.draw(vectors),
                                  data.draw(spans), data.draw(spans))


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
