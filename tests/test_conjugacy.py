"""Derivations, exponentials, invariance, and the non-conjugacy
certificate."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import exp_left_multiplication
from leibnizalg import (
    DistinctnessError,
    InvarianceError,
    Matrix,
    NotAComplementError,
    Subspace,
    diagonal_complement,
    inner_derivation,
    invariance_check,
    is_derivation,
    leibniz_kernel,
    non_conjugacy_certificate,
    product,
    verify_levi,
)
from leibnizalg import conjugacy
from leibnizalg.exactlin import NotNilpotentError, apply_to_subspace, exp_nilpotent
from leibnizalg.files import algebra_digest
from leibnizalg.sampling import rational_vector

F = Fraction


# --- derivations -----------------------------------------------------------

def test_zero_map_is_a_derivation(sl2):
    assert is_derivation(sl2, Matrix.zeros(3, 3))


def test_left_multiplications_are_derivations(zoo):
    rng = random.Random(5)
    for _, alg in zoo:
        for _ in range(5):
            x = rational_vector(rng, alg.dim)
            assert is_derivation(alg, inner_derivation(alg, x))


def test_identity_is_not_a_derivation(sl2):
    assert not is_derivation(sl2, Matrix.identity(3))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_is_derivation_rejects_a_map_of_the_wrong_shape(sl2, shape):
    with pytest.raises(ValueError, match="map dimension differs"):
        is_derivation(sl2, Matrix.zeros(*shape))


# --- inner derivations --------------------------------------------------------

def test_kernel_components_contribute_nothing(bundle_sl2):
    alg = bundle_sl2.L
    assert inner_derivation(alg, [0, 0, 0, 0, 1, 0]).is_zero()
    mixed = inner_derivation(alg, [1, 0, 0, 0, 0, 1])  # (e, f')
    plain = inner_derivation(alg, [1, 0, 0, 0, 0, 0])  # (e, 0)
    assert mixed == plain


def test_zero_vector_gives_zero_map(sl2):
    assert inner_derivation(sl2, [0, 0, 0]).is_zero()


# --- invariance -------------------------------------------------------------------

def test_full_space_is_invariant(bundle_sl2):
    assert invariance_check(bundle_sl2.L, Subspace.full(6)).passed


def test_first_block_is_invariant(bundle_sl2):
    report = invariance_check(bundle_sl2.L, bundle_sl2.S)
    assert report.passed
    assert len(report.rows) == 6
    assert [r.label for r in report.rows] == ["e", "h", "f", "e'", "h'", "f'"]


def test_diagonal_is_invariant_too(bundle_sl2):
    # left multiplication by (s,k) sends (t,t') to (st,(st)'), staying on
    # the diagonal, so the diagonal passes as well; non-conjugacy comes
    # from the invariance of S rather than any failure here
    assert invariance_check(bundle_sl2.L, bundle_sl2.S1).passed


def test_failing_report_localizes_first_pair(bundle_sl2):
    sub = Subspace(6, [bundle_sl2.L.basis_vector(0)])  # span {(e,0)}
    report = invariance_check(bundle_sl2.L, sub)
    assert not report.passed
    failing = [r for r in report.rows if not r.passed]
    assert [(r.basis_index, r.failing_row) for r in failing] == [(2, 0)]


# --- exponentials ------------------------------------------------------------------

def test_exp_at_zero_is_identity(bundle_sl2):
    assert exp_left_multiplication(bundle_sl2.L, [0] * 6) == Matrix.identity(6)


def test_exp_at_e_maps_s_onto_s(bundle_sl2):
    g = exp_left_multiplication(bundle_sl2.L, bundle_sl2.L.basis_vector(0))
    assert g.entries[0][1] != 0  # genuinely unipotent, not identity
    assert apply_to_subspace(g, bundle_sl2.S) == bundle_sl2.S


def test_exp_rejects_semisimple_elements(sl2):
    with pytest.raises(NotNilpotentError):
        exp_left_multiplication(sl2, [0, 1, 0])


def test_exp_is_an_automorphism_and_fixes_kernel(bundle_sl2):
    alg = bundle_sl2.L
    rng = random.Random(17)
    kern = leibniz_kernel(alg)
    for index in (0, 2, 3):
        g = exp_left_multiplication(alg, alg.basis_vector(index))
        for _ in range(5):
            u = rational_vector(rng, 6)
            v = rational_vector(rng, 6)
            assert g.apply(product(alg, u, v)) == product(alg, g.apply(u), g.apply(v))
        assert apply_to_subspace(g, kern) == kern


# --- certificate ----------------------------------------------------------------------

def test_bundle_certificate(bundle_sl2):
    cert = non_conjugacy_certificate(bundle_sl2.L, bundle_sl2.S, bundle_sl2.S1)
    assert cert.algebra_digest == algebra_digest(bundle_sl2.L)
    assert cert.distinctness == (F(1), F(0), F(0), F(1), F(0), F(0))
    assert not bundle_sl2.S.contains(cert.distinctness)
    assert bundle_sl2.S1.contains(cert.distinctness)
    assert len(cert.invariance_rows) == 6
    assert all(r.passed for r in cert.invariance_rows)
    checked = {c.label for c in cert.exp_checks}
    assert "e" in checked and "f" in checked
    assert "h" not in checked  # not nilpotent, excluded from exp checks
    assert all(c.passed for c in cert.exp_checks)
    assert cert.witnesses == (verify_levi(bundle_sl2.L, bundle_sl2.S),
                              verify_levi(bundle_sl2.L, bundle_sl2.S1))


def test_self_certificate_impossible(bundle_sl2):
    with pytest.raises(DistinctnessError) as info:
        non_conjugacy_certificate(bundle_sl2.L, bundle_sl2.S, bundle_sl2.S)
    assert info.value.witnesses == (verify_levi(bundle_sl2.L, bundle_sl2.S),) * 2
    assert all(w.all_pass for w in info.value.witnesses)


def test_non_complement_rejected(bundle_sl2):
    # the witnesses stop at the first subspace that fails them
    with pytest.raises(NotAComplementError) as info:
        non_conjugacy_certificate(bundle_sl2.L, bundle_sl2.K, bundle_sl2.S1)
    assert info.value.witnesses == (verify_levi(bundle_sl2.L, bundle_sl2.K),)
    assert not info.value.witnesses[0].all_pass


def test_second_non_complement_rejected(bundle_sl2):
    with pytest.raises(NotAComplementError) as info:
        non_conjugacy_certificate(bundle_sl2.L, bundle_sl2.S, bundle_sl2.K)
    assert info.value.witnesses == (verify_levi(bundle_sl2.L, bundle_sl2.S),
                                    verify_levi(bundle_sl2.L, bundle_sl2.K))
    assert [w.all_pass for w in info.value.witnesses] == [True, False]


def test_non_invariant_complement_rejected(moved_levi_pair):
    alg, s, s1 = moved_levi_pair
    with pytest.raises(InvarianceError) as info:
        non_conjugacy_certificate(alg, s, s1)
    assert info.value.witnesses == (verify_levi(alg, s), verify_levi(alg, s1))
    assert all(w.all_pass for w in info.value.witnesses)


def test_sl3_certificate(bundle_sl3):
    cert = non_conjugacy_certificate(bundle_sl3.L, bundle_sl3.S, bundle_sl3.S1)
    assert len(cert.invariance_rows) == 16
    assert all(r.passed for r in cert.invariance_rows)
    assert all(c.passed for c in cert.exp_checks)


@pytest.mark.parametrize("name", ["bundle_sl2", "bundle_so3", "bundle_sl3"])
def test_every_pair_of_diagonal_complements_is_certified(request, name):
    """With zero right action every complement is invariant under every
    left multiplication, so every ordered pair of distinct diagonals, at
    lambda = 0, 1, 2 and -2/3, gets a certificate with every exponential
    check passing."""
    bundle = request.getfixturevalue(name)
    diagonals = [diagonal_complement(bundle, lam) for lam in (0, 1, 2, F(-2, 3))]
    for s, s1 in itertools.permutations(diagonals, 2):
        cert = non_conjugacy_certificate(bundle.L, s, s1)
        assert (cert.S, cert.S1) == (s, s1)
        assert all(r.passed for r in cert.invariance_rows)
        assert cert.exp_checks and all(c.passed for c in cert.exp_checks)


def test_one_left_multiplication_per_basis_element(monkeypatch, bundle_sl3):
    # the invariance check multiplies through the table; only the
    # exponential checks build the map, and only where it is nonzero:
    # the 8 elements of the module block multiply everything to zero
    calls = []
    real = conjugacy.left_multiplication
    monkeypatch.setattr(conjugacy, "left_multiplication",
                        lambda alg, a: calls.append(1) or real(alg, a))
    non_conjugacy_certificate(bundle_sl3.L, bundle_sl3.S, bundle_sl3.S1)
    assert len(calls) == bundle_sl3.L.dim - 8


@pytest.mark.parametrize("name", ["bundle_sl2", "bundle_so3", "bundle_sl3"])
def test_zero_maps_are_recorded_without_their_exponential(request, name):
    """A basis element with no nonzero product gets a passing check, as
    the exponential of its (zero) map would give."""
    bundle = request.getfixturevalue(name)
    alg = bundle.L
    expected = []
    for i in range(alg.dim):
        try:
            g = exp_nilpotent(inner_derivation(alg, alg.basis_vector(i)))
        except NotNilpotentError:
            continue
        expected.append((i, alg.labels[i], apply_to_subspace(g, bundle.S) == bundle.S))
    cert = non_conjugacy_certificate(alg, bundle.S, bundle.S1)
    assert [tuple(c) for c in cert.exp_checks] == expected
    assert sum(not products for products in alg.table.nonzero) == alg.dim // 2


def test_words_of_exponentials_fix_s(bundle_sl2):
    """Every length <= 2 word in the nilpotent basis exponentials maps S
    onto S, the checkable core of the non-conjugacy argument."""
    alg = bundle_sl2.L
    exps = []
    for i in range(6):
        try:
            exps.append(exp_left_multiplication(alg, alg.basis_vector(i)))
        except NotNilpotentError:
            continue
    assert len(exps) == 5  # e, f and the three zero maps from the kernel block
    for g in exps:
        assert apply_to_subspace(g, bundle_sl2.S) == bundle_sl2.S
    for g, h in itertools.product(exps, repeat=2):
        w = g @ h
        assert apply_to_subspace(w, bundle_sl2.S) == bundle_sl2.S
        assert apply_to_subspace(w, bundle_sl2.S) != bundle_sl2.S1
