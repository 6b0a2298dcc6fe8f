"""The splitting recursion: Lie Levi complements, the correction solve
over an abelian ideal, and the verified Leibniz decomposition."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from leibnizalg import (
    LeibnizAlgebra,
    ModuleAction,
    NoSolutionError,
    NotLieError,
    StructureTable,
    Subspace,
    adjoint_module,
    counterexample,
    diagonal_complement,
    is_lie,
    leibniz_kernel,
    leibniz_levi,
    lie_levi,
    non_conjugacy_certificate,
    product,
    soluble_radical,
    split_extension_zero_right,
    verify_levi,
)
from leibnizalg import levi, structure
from leibnizalg.algebra import (
    NotASubalgebraError,
    left_multiplication,
    quotient,
    restrict_to_subalgebra,
    subspace_product,
)
from leibnizalg.constructions import _sln_generators, _table_from_matrices
from leibnizalg.exactlin import Matrix, apply_to_subspace, subspace_sum
from leibnizalg.structure import derived_series, killing_form

from conftest import (
    change_basis,
    conjugate_action,
    correction_system_oracle,
    dense_product,
    is_ideal,
    direct_sum_actions,
    leibniz_algebras,
    lie_semidirect,
    matrix_inverse,
    module_law_report,
    random_invertible,
    sl2_irrep,
    sympy_rank,
    trivial_action,
)

F = Fraction


# --- lie_levi -------------------------------------------------------------

def test_semisimple_input_returns_everything(sl2):
    assert lie_levi(sl2) == Subspace.full(3)


def test_gl2_style_complement_is_the_simple_block(gl2_style):
    s = lie_levi(gl2_style)
    assert s == Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert verify_levi(gl2_style, s).all_pass


def test_semidirect_with_adjoint_like_module(sl2):
    alg = lie_semidirect(sl2, sl2_irrep(2))
    s = lie_levi(alg)
    assert s.dim == 3
    assert verify_levi(alg, s).all_pass


def test_soluble_lie_input_gets_zero(heisenberg):
    assert lie_levi(heisenberg) == Subspace(3)


def test_non_lie_rejected(bundle_sl2):
    with pytest.raises(NotLieError):
        lie_levi(bundle_sl2.L)


def test_seeded_semidirect_sums(sl2):
    rng = random.Random(13)
    for _ in range(5):
        pieces = [sl2_irrep(rng.choice([0, 1, 2]))]
        while sum(p.space_dim for p in pieces) > 4:
            pieces = [sl2_irrep(rng.choice([0, 1, 2]))]
        act = pieces[0]
        if act.space_dim <= 2 and rng.random() < 0.5:
            act = direct_sum_actions(act, sl2_irrep(rng.choice([0, 1])))
        g = random_invertible(rng, act.space_dim)
        act = conjugate_action(act, g)
        alg = lie_semidirect(sl2, act)
        s = lie_levi(alg)
        assert verify_levi(alg, s).all_pass
        assert s.dim + soluble_radical(alg).dim == alg.dim


def test_nonabelian_radical_recursion(sl2):
    # radical = 2-dim nonabelian: adjoin b with [a,b] = b below an sl2 x
    # trivial-action block, forcing the recursive branch
    act = direct_sum_actions(trivial_action(3, 1), trivial_action(3, 1))
    alg = lie_semidirect(sl2, act)
    # splice in [a, b] = b inside the module block (stays a Lie algebra)
    grid = [[list(row) for row in plane] for plane in alg.table.c]
    grid[3][4][4] = F(1)
    grid[4][3][4] = F(-1)
    alg = LeibnizAlgebra(StructureTable.from_rows(grid))
    rad = soluble_radical(alg)
    assert rad.dim == 2
    assert not subspace_product(alg, rad, rad).is_zero()
    s = lie_levi(alg)
    assert verify_levi(alg, s).all_pass


# --- the complement as an acting algebra ----------------------------------------

def test_bundle_action_is_two_adjoint_blocks(bundle_sl2, sl2):
    # the module block left-annihilates, so each complement row (v, lam v')
    # acts on the bundle as ad v on both blocks
    comp = leibniz_levi(bundle_sl2.L).semisimple_part
    for i, row in enumerate(comp.rows()):
        assert row[i] == 1 and row[:3] == sl2.basis_vector(i)
        ad = left_multiplication(sl2, sl2.basis_vector(i))
        expected = Matrix.from_rows([
            list(ad.entries[r]) + [0, 0, 0] for r in range(3)
        ] + [
            [0, 0, 0] + list(ad.entries[r]) for r in range(3)
        ])
        assert left_multiplication(bundle_sl2.L, row) == expected


def test_lie_algebra_with_zero_kernel_gives_adjoint(sl2, monkeypatch):
    # zero radical: the complement is everything and nothing is solved
    def no_solve(*args):
        raise AssertionError("no correction solve expected")
    monkeypatch.setattr(levi, "solve_affine", no_solve)
    comp = leibniz_levi(sl2).semisimple_part
    assert comp == Subspace.full(3)
    for i, row in enumerate(comp.rows()):
        assert left_multiplication(sl2, row) == left_multiplication(sl2, sl2.basis_vector(i))


def test_module_law_on_bundle(bundle_sl2):
    alg = bundle_sl2.L
    comp = leibniz_levi(alg).semisimple_part
    act = ModuleAction(3, 6, tuple(left_multiplication(alg, row) for row in comp.rows()))
    # rho(h)rho(e) - rho(e)rho(h) = 2 rho(e)
    e, h = act.rho[0], act.rho[1]
    assert (h @ e) - (e @ h) == e.scale(F(2))
    assert module_law_report(restrict_to_subalgebra(alg, comp), act) == []


# --- the correction solve ----------------------------------------------------------

def test_zero_subspace_complement_is_everything(sl2):
    assert lie_levi(sl2) == Subspace.full(3)
    assert levi._split(sl2) == Subspace.full(3)


def test_full_subspace_complement_is_zero(bundle_sl2):
    # the module block is an abelian algebra on its own: all radical
    block = restrict_to_subalgebra(bundle_sl2.L, bundle_sl2.K)
    assert levi._split(block) == Subspace(3)
    assert leibniz_levi(block).semisimple_part == Subspace(3)


def test_indecomposable_module_has_no_complement(heisenberg):
    # the centre z = [x, y] is an abelian ideal, but no lift of the abelian
    # quotient closes up, so the correction system is inconsistent
    centre = Subspace(3, [[0, 0, 1]])
    with pytest.MonkeyPatch.context() as mp:
        calls = record_correction_systems(mp)
        with pytest.raises(NoSolutionError):
            levi._abelian_complement(heisenberg, centre)
    [(_, _, _, system)] = calls
    assert system == correction_system_oracle(heisenberg, centre)


def test_no_dense_grid_on_the_way_to_the_solve(bundle_sl3, sl3, monkeypatch):
    # the correction system, the maps and the bases are built from their
    # nonzero entries: the dense view ``entries`` is never filled in
    dense = []
    solve = levi.solve_affine
    monkeypatch.setattr(levi, "solve_affine",
                        lambda a, b: dense.append("entries" in vars(a)) or solve(a, b))
    alg = bundle_sl3.L
    assert leibniz_levi(alg).witnesses.all_pass
    assert dense == [False]
    fresh = [left_multiplication(alg, alg.basis_vector(i)) for i in range(alg.dim)]
    fresh.append(killing_form(sl3))
    fresh.append(Subspace(alg.dim, bundle_sl3.S1.rows()).basis)
    fresh.append(subspace_sum(bundle_sl3.S, bundle_sl3.K).basis)
    for m in fresh:
        assert "entries" not in vars(m)


def test_bundle_complement_properties(bundle_sl2):
    alg = bundle_sl2.L
    comp = leibniz_levi(alg).semisimple_part
    assert comp == levi._abelian_complement(alg, bundle_sl2.K)
    assert subspace_sum(comp, bundle_sl2.K).is_full()
    assert subspace_sum(comp, bundle_sl2.K).dim == comp.dim + bundle_sl2.K.dim
    # invariance under left multiplication by every basis element
    for i in range(alg.dim):
        m = left_multiplication(alg, alg.basis_vector(i))
        for row in comp.rows():
            assert comp.contains(m.apply(row))
    # closure under the product makes it a subalgebra
    assert comp.contains_subspace(subspace_product(alg, comp, comp))


# --- leibniz_levi -------------------------------------------------------------

def test_soluble_algebra_splits_trivially(square_algebra):
    dec = leibniz_levi(square_algebra)
    assert dec.semisimple_part == Subspace(2)
    assert dec.radical == Subspace.full(2)
    assert dec.witnesses.all_pass


def test_bundle_decomposition(bundle_sl2):
    dec = leibniz_levi(bundle_sl2.L)
    # the lifted first block already closes up; free variables are zero,
    # so no diagonal correction is added
    assert dec.semisimple_part == bundle_sl2.S
    assert dec.radical == bundle_sl2.K
    assert dec.witnesses.all_pass


def test_semisimple_input(sl2):
    dec = leibniz_levi(sl2)
    assert dec.semisimple_part == Subspace.full(3)
    assert dec.radical == Subspace(3)
    assert dec.witnesses.all_pass


def test_whole_zoo_splits(zoo):
    for name, alg in zoo:
        dec = leibniz_levi(alg)
        assert dec.witnesses.all_pass, name
        assert dec.semisimple_part.dim + dec.radical.dim == alg.dim, name
        if dec.semisimple_part.dim:
            assert is_lie(restrict_to_subalgebra(alg, dec.semisimple_part)), name


def test_mixed_radical_exercises_explicit_ideal_path(mixed_radical_algebra):
    # R.R = span(z) is nonzero here: split modulo z, then split the
    # pulled-back subalgebra over its radical z
    dec = leibniz_levi(mixed_radical_algebra)
    assert dec.semisimple_part.dim == 3
    assert dec.radical.dim == 5
    assert dec.witnesses.all_pass


def sl2_plus_upper_triangular():
    """sl2 ⊕ b(3) as 5 x 5 block matrices: sl2 (e, h, f) in the top-left
    2 x 2 block, the upper-triangular 3 x 3 matrices in the bottom-right
    one.  The radical b(3) has derived dims 6, 3, 1, 0."""
    def matrix(cells):
        return Matrix.from_rows([[cells.get((r, c), 0) for c in range(5)] for r in range(5)])

    sl2_block = [matrix({(0, 1): 1}), matrix({(0, 0): 1, (1, 1): -1}), matrix({(1, 0): 1})]
    upper = [matrix({(i, j): 1}) for i in range(2, 5) for j in range(i, 5)]
    return LeibnizAlgebra(_table_from_matrices(sl2_block + upper))


def test_nested_derived_radical_recursion():
    # R.R is nonzero in R = b(3) and again in the radical R.R of the
    # pulled-back subalgebra, so the R.R branch runs inside itself
    alg = sl2_plus_upper_triangular()
    rad = soluble_radical(alg)
    assert [t.dim for t in derived_series(alg, rad)] == [6, 3, 1, 0]
    g = random_invertible(random.Random(7), alg.dim)
    g_inv = matrix_inverse(g)
    moved = change_basis(alg, g, g_inv)
    # one correction solve inside the branch at depth 1 and two inside
    # the one at depth 2, each with the oracle's system
    assert assert_systems_match_oracle(moved) == [1, 2, 2]
    dec = leibniz_levi(moved)
    assert dec.semisimple_part.dim == 3
    assert dec.radical.dim == 6
    # sl2 commutes with R, so its block is the only complement
    assert dec.semisimple_part == Subspace(alg.dim, [g_inv.column(k) for k in range(3)])


# --- the correction system against its oracle ---------------------------------

def record_correction_systems(mp: pytest.MonkeyPatch) -> list[list]:
    """Patch ``levi`` so that each ``_abelian_complement`` call appends
    [alg, ideal, depth, (matrix, rhs)].  depth counts the enclosing
    ``_split`` calls that took the R·R branch, and (matrix, rhs) is the
    system the call passed to ``solve_affine``."""
    calls = []
    depth = 0
    split, complement, solve = levi._split, levi._abelian_complement, levi.solve_affine

    def traced_split(alg):
        nonlocal depth
        rad = soluble_radical(alg)
        branch = not (rad.is_zero() or rad.is_full()
                      or subspace_product(alg, rad, rad).is_zero())
        depth += branch
        try:
            return split(alg)
        finally:
            depth -= branch

    def recorded_complement(alg, ideal):
        calls.append([alg, ideal, depth, None])
        return complement(alg, ideal)

    def recorded_solve(a, b):
        calls[-1][3] = (a, tuple(b))
        return solve(a, b)

    mp.setattr(levi, "_split", traced_split)
    mp.setattr(levi, "_abelian_complement", recorded_complement)
    mp.setattr(levi, "solve_affine", recorded_solve)
    return calls


def assert_systems_match_oracle(alg: LeibnizAlgebra) -> list[int]:
    """Split alg and compare every correction system with the oracle's,
    entry for entry; returns the R·R-branch depth of each solve."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_correction_systems(mp)
        dec = leibniz_levi(alg)
    assert dec.witnesses.all_pass
    for a, ideal, _, system in calls:
        assert system == correction_system_oracle(a, ideal)
    return [depth for _, _, depth, _ in calls]


def bundle_and_moved(name: str, bundle_sl4: LeibnizAlgebra) -> tuple[LeibnizAlgebra, ...]:
    """The named bundle, plain and under a seed-1 random_invertible change
    of basis.  A dense one of the dim-30 sl4 bundle makes its split take
    about 28 s, 19 s of it in the solve of a dense 3375 x 225 system, so
    there it mixes only coordinates 0, 5, ..., 25, three in each block."""
    alg = bundle_sl4 if name == "sl4" else counterexample(name).L
    mixed = range(0, alg.dim, 5 if name == "sl4" else 1)
    block = random_invertible(random.Random(1), len(mixed))
    at = {c: a for a, c in enumerate(mixed)}
    g = Matrix.from_rows([
        [block.entries[at[r]][at[c]] if r in at and c in at else int(r == c)
         for c in range(alg.dim)] for r in range(alg.dim)])
    return alg, change_basis(alg, g, matrix_inverse(g), validate=False)


@pytest.mark.parametrize("name", ["sl2", "so3", "sl3", "sl4"])
def test_correction_system_matches_oracle_on_bundles(name, bundle_sl4):
    for a in bundle_and_moved(name, bundle_sl4):
        assert assert_systems_match_oracle(a) == [0]


def test_correction_system_matches_oracle_on_zoo(zoo):
    depths = {name: assert_systems_match_oracle(alg) for name, alg in zoo}
    # the Lie semidirect sum is the one whose radical multiplies the
    # lifts from the right, so its w_m·b_{f_j} coefficients are nonzero
    assert depths["semidirect_sl2_adjointish"] == [0]
    # R.R = span(z): one solve modulo z, then one over z itself
    assert depths["mixed_radical"] == [1, 1]


# --- the ideals that quotients are trusted with --------------------------------

def ideals_passed_to_quotient(alg: LeibnizAlgebra) -> list[tuple[LeibnizAlgebra, Subspace]]:
    """Every (algebra, ideal) that ``quotient`` receives while the
    radical and the Levi decomposition of a fresh copy of alg are
    computed, so that no memoised radical hides a call."""
    calls = []

    def recorded(a, ideal):
        calls.append((a, ideal))
        return quotient(a, ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "quotient", recorded)
        mp.setattr(levi, "quotient", recorded)
        copy = LeibnizAlgebra(StructureTable(alg.dim, alg.table.c), alg.labels, validate=False)
        soluble_radical(copy)
        assert leibniz_levi(copy).witnesses.all_pass
    return calls


def assert_quotients_receive_ideals(alg: LeibnizAlgebra) -> int:
    calls = ideals_passed_to_quotient(alg)
    assert [(a.dim, ideal.dim) for a, ideal in calls if not is_ideal(a, ideal)] == []
    return len(calls)


@pytest.mark.parametrize("name", ["sl2", "so3", "sl3", "sl4"])
def test_quotients_receive_ideals_on_bundles(name, bundle_sl4):
    for alg in bundle_and_moved(name, bundle_sl4):
        # the squares ideal, then the radical for the correction solve
        assert assert_quotients_receive_ideals(alg) == 2


def test_quotients_receive_ideals_on_zoo(zoo):
    assert sum(assert_quotients_receive_ideals(alg) for _, alg in zoo) > len(zoo)


def test_quotients_receive_ideals_in_nested_recursion():
    alg = sl2_plus_upper_triangular()
    g = random_invertible(random.Random(7), alg.dim)
    for a in (alg, change_basis(alg, g, matrix_inverse(g))):
        # (algebra dim, ideal dim): each algebra is Lie, so its squares
        # ideal is 0; then R·R of L, the radical of L/R·R, R·R of P, ...
        assert [(b.dim, ideal.dim) for b, ideal in ideals_passed_to_quotient(a)] == [
            (9, 0), (9, 3), (6, 0), (6, 3), (6, 0), (6, 1), (5, 0), (5, 2), (4, 0), (4, 1)]
        assert assert_quotients_receive_ideals(a) == 10


@settings(max_examples=50, deadline=None)
@given(leibniz_algebras())
def test_quotients_receive_ideals_on_generated_algebras(known):
    assert assert_quotients_receive_ideals(known.alg) >= 1


@settings(max_examples=50, deadline=None)
@given(leibniz_algebras())
def test_generated_algebras_split(known):
    alg = known.alg
    assert assert_systems_match_oracle(alg)
    dec = leibniz_levi(alg)
    assert verify_levi(alg, dec.semisimple_part).all_pass
    assert dec.semisimple_part.dim == 3
    assert soluble_radical(alg) == dec.radical == known.radical
    assert leibniz_kernel(alg) == known.squares
    assert subspace_product(alg, dec.radical, dec.radical).dim == int(known.square)
    assert leibniz_levi(alg).semisimple_part == dec.semisimple_part
    if known.lie and not known.square:
        assert lie_levi(alg) == dec.semisimple_part


def spied_levi(alg):
    """``leibniz_levi(alg)`` with the one abelian step's solve read
    through a spy: (decomposition, particular solution, null space)."""
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        solve = levi.solve_affine
        mp.setattr(levi, "solve_affine", lambda a, b: solves.append(solve(a, b)) or solves[-1])
        dec = leibniz_levi(alg)
    [(alpha, null)] = solves
    return dec, alpha, null


def inner_move_rank(alg, dec):
    """b: the rank of the inner moves r -> (s -> r.s), r in the radical."""
    s, rad = dec.semisimple_part, dec.radical
    moves = [[x for row in s.rows() for x in product(alg, r, row)] for r in rad.rows()]
    return Subspace(alg.dim * s.dim, moves).dim


def complement_graph(alg, rad, coeffs):
    """The complement that the solve's unknowns ``coeffs`` describe: the
    span of b_f + sum_m coeffs[i*r + m] w_m over the radical's free
    columns f, the i-th one at i, with w_m its RREF rows and r = rad.dim."""
    rows = []
    free = [c for c in range(alg.dim) if c not in rad.pivots]
    for i, f in enumerate(free):
        v = list(alg.basis_vector(f))
        for a, w in zip(coeffs[i * rad.dim:], rad.rows()):
            v = [x + a * y for x, y in zip(v, w)]
        rows.append(v)
    return Subspace(alg.dim, rows)


def assert_moved_complement_is_certified(alg, dec, alpha, null):
    """The returned complement is the one the solve's unknowns describe,
    and it is certified against itself moved along the first null-space
    direction."""
    s, rad = dec.semisimple_part, dec.radical
    assert complement_graph(alg, rad, alpha) == s
    moved = complement_graph(alg, rad, [a + v for a, v in zip(alpha, null.rows()[0])])
    cert = non_conjugacy_certificate(alg, s, moved)
    assert cert.S1 == moved != s
    assert all(r.passed for r in cert.invariance_rows)


@settings(max_examples=50, deadline=None)
@given(leibniz_algebras())
def test_generated_complement_families_have_the_predicted_dimensions(known):
    """Without t.t = z: the abelian step's null space has dimension d and
    the inner moves r -> (s -> r.s) have rank b, as ``KnownAlgebra``
    predicts.  With zero right action every complement is invariant
    under every left multiplication, so the returned one is certified
    against itself moved along a null-space direction."""
    assume(not known.square)
    alg = known.alg
    dec, alpha, null = spied_levi(alg)
    assert null.dim == known.d
    assert inner_move_rank(alg, dec) == known.b
    if not known.lie and known.d > 0:
        assert_moved_complement_is_certified(alg, dec, alpha, null)


def sl3_zero_right(sl3, module):
    """sl3 acting with zero right action on Q^3 by its own generators (the
    standard module, in the catalog's basis order), or on adjoint +
    standard."""
    standard = ModuleAction(8, 3, tuple(_sln_generators(3).values()))
    action = (standard if module == "standard"
              else direct_sum_actions(adjoint_module(sl3), standard))
    return split_extension_zero_right(sl3, action)


@pytest.mark.parametrize("rebased", [False, True], ids=["plain", "rebased"])
@pytest.mark.parametrize("module, d", [("standard", 0), ("adjoint+standard", 1)])
def test_sl3_zero_right_complement_families(sl3, module, d, rebased):
    """sl3 acting with zero right action on Q^3 by its own generators
    (the standard module, in the catalog's basis order), and on adjoint
    + standard.  d is the multiplicity of the adjoint module and b = 0.
    With d = 0 the complement is unique, so it is the S block; with d = 1
    it is certified against itself moved along the null-space direction.
    Both hold after a seeded change of basis too."""
    alg = sl3_zero_right(sl3, module)
    s_block = Subspace(alg.dim, [alg.basis_vector(i) for i in range(8)])
    if rebased:
        g = random_invertible(random.Random(5), alg.dim)
        g_inv = matrix_inverse(g)
        alg = change_basis(alg, g, g_inv, validate=False)
        s_block = apply_to_subspace(g_inv, s_block)
    dec, alpha, null = spied_levi(alg)
    assert null.dim == d
    assert inner_move_rank(alg, dec) == 0
    if d == 0:
        assert dec.semisimple_part == s_block
    else:
        assert_moved_complement_is_certified(alg, dec, alpha, null)


def test_sl3_adjoint_plus_standard_family_is_pairwise_certified(sl3):
    """Three members of the one-parameter complement family of sl3 on
    adjoint + standard, the returned complement moved by 0, 1 and -2/3
    times the null-space direction: with zero right action each is
    invariant under every left multiplication, so every ordered pair of
    them gets a certificate with every exponential check passing."""
    alg = sl3_zero_right(sl3, "adjoint+standard")
    dec, alpha, null = spied_levi(alg)
    [direction] = null.rows()
    family = [complement_graph(alg, dec.radical, [a + t * v for a, v in zip(alpha, direction)])
              for t in (0, 1, F(-2, 3))]
    assert family[0] == dec.semisimple_part and len(set(family)) == 3
    for s, s1 in itertools.permutations(family, 2):
        cert = non_conjugacy_certificate(alg, s, s1)
        assert (cert.S, cert.S1) == (s, s1)
        assert all(r.passed for r in cert.invariance_rows)
        assert cert.exp_checks and all(c.passed for c in cert.exp_checks)


def test_sl4_bundle_splits_within_budget(bundle_sl4):
    start = time.monotonic()
    dec = leibniz_levi(bundle_sl4)
    elapsed = time.monotonic() - start
    assert bundle_sl4.dim == 30
    assert dec.semisimple_part.dim == 15
    assert dec.radical.dim == 15
    assert dec.witnesses.all_pass
    assert verify_levi(bundle_sl4, dec.semisimple_part).all_pass
    assert elapsed < 30.0


def test_sl5_bundle_builds_and_splits_within_budget():
    """The dim-48 rung: the catalog's sl5, its bundle, and the split, on
    one budget."""
    start = time.monotonic()
    bundle = counterexample("sl5").L
    dec = leibniz_levi(bundle)
    elapsed = time.monotonic() - start
    assert bundle.dim == 48
    assert dec.radical.dim == 24
    assert dec.semisimple_part.dim == 24
    assert dec.witnesses.as_dict() == {
        "sum_is_full": True, "intersection_is_zero": True,
        "closed_under_product": True, "complement_semisimple": True,
    }
    assert elapsed < 30.0


def test_failed_witness_raises_with_the_witnesses(monkeypatch, bundle_sl2):
    monkeypatch.setattr(levi, "_split", lambda alg: Subspace(alg.dim))
    with pytest.raises(levi.LeviVerificationError) as info:
        leibniz_levi(bundle_sl2.L)
    assert info.value.complement == Subspace(6)
    assert not info.value.witnesses.sum_is_full
    assert info.value.witnesses.intersection_is_zero


# --- verify_levi ----------------------------------------------------------------

def test_verify_first_block(bundle_sl2):
    assert verify_levi(bundle_sl2.L, bundle_sl2.S).all_pass


def test_verify_rejects_the_radical(bundle_sl2):
    w = verify_levi(bundle_sl2.L, bundle_sl2.K)
    assert not w.sum_is_full
    assert not w.intersection_is_zero
    assert w.closed_under_product
    assert not w.complement_semisimple


def test_verify_diagonal(bundle_sl2):
    assert verify_levi(bundle_sl2.L, bundle_sl2.S1).all_pass


def test_witnesses_as_dict_keeps_the_field_order(bundle_sl2):
    """The CLI reports the witnesses in this order."""
    w = verify_levi(bundle_sl2.L, bundle_sl2.K)
    assert list(w.as_dict().items()) == [
        ("sum_is_full", False), ("intersection_is_zero", False),
        ("closed_under_product", True), ("complement_semisimple", False)]


# Subspaces of the sl2 bundle (basis e, h, f, e', h', f'), by name.
BUNDLE_SUBSPACES = {
    "S": lambda b: b.S,
    "S1": lambda b: b.S1,
    "K": lambda b: b.K,
    "diagonal_2": lambda b: diagonal_complement(b, 2),
    "diagonal_-1/2": lambda b: diagonal_complement(b, F(-1, 2)),
    "zero": lambda b: Subspace(6),
    "full": lambda b: Subspace.full(6),
    "e": lambda b: Subspace(6, [[1, 0, 0, 0, 0, 0]]),
    "e_f": lambda b: Subspace(6, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),  # e.f = h
}


@pytest.mark.parametrize("name", BUNDLE_SUBSPACES)
def test_witnesses_match_an_oracle(bundle_sl2, name):
    alg, rad = bundle_sl2.L, bundle_sl2.K  # the module block is the radical
    s = BUNDLE_SUBSPACES[name](bundle_sl2)
    w = verify_levi(alg, s)
    stacked = s.rows() + rad.rows()
    assert w.sum_is_full == (sympy_rank(stacked) == alg.dim)
    # both bases are independent, so they meet trivially exactly when
    # the stacked rows are independent too
    assert w.intersection_is_zero == (sympy_rank(stacked) == len(stacked))
    closed = all(sympy_rank(s.rows() + (dense_product(alg, x, y),)) == s.dim
                 for x in s.rows() for y in s.rows())
    assert w.closed_under_product == closed
    if not closed:
        assert not w.complement_semisimple
    assert w.all_pass == (name in ("S", "S1", "diagonal_2", "diagonal_-1/2"))


def test_restriction_rejects_non_subalgebras_and_wrong_dimensions(bundle_sl2):
    alg = bundle_sl2.L
    with pytest.raises(NotASubalgebraError,
                       match="restriction to a subspace that is not a subalgebra"):
        restrict_to_subalgebra(alg, BUNDLE_SUBSPACES["e_f"](bundle_sl2))
    for u in (Subspace(5), Subspace.full(3), Subspace(7, [[1, 0, 0, 0, 0, 0, 0]])):
        with pytest.raises(ValueError,
                           match="ambient dimension differs from algebra dimension") as info:
            restrict_to_subalgebra(alg, u)
        assert info.type is ValueError
