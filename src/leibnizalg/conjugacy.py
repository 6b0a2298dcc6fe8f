"""Inner derivations, their exponentials, and the machine-checkable
certificate that two semisimple complements cannot be conjugate.

The certificate records: a vector separating the two complements, the
check that every basis left multiplication maps the first complement into
itself (linearity extends this to all multipliers), and the explicit
exponential checks at the nilpotent basis derivations.  Together these
rule out any product of exponentials of inner derivations carrying one
complement to the other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import LeibnizAlgebra, _rational_products, left_multiplication
from .exactlin import (
    Matrix,
    NotNilpotentError,
    Subspace,
    Vector,
    _modulo,
    apply_to_subspace,
    exp_nilpotent,
)
from .files import algebra_digest
from .levi import LeviWitnesses, verify_levi


class CertificateError(ValueError):
    """No certificate could be issued.  ``witnesses`` holds the
    complement witnesses computed before the failure, in argument order."""

    def __init__(self, message: str, witnesses: tuple[LeviWitnesses, ...] = ()):
        super().__init__(message)
        self.witnesses = witnesses


class InvarianceError(CertificateError):
    """The first complement is not invariant under some basis derivation,
    so the certificate's argument does not apply."""


class DistinctnessError(CertificateError):
    """No separating vector exists: the two subspaces coincide."""


class NotAComplementError(CertificateError):
    """A certificate was requested for a subspace that fails the
    complement witnesses."""


class InvarianceRow(NamedTuple):
    basis_index: int
    label: str
    passed: bool
    failing_row: int | None  # first row of U (in index order) leaving U, if any


class InvarianceReport(NamedTuple):
    rows: tuple[InvarianceRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


class ExpCheck(NamedTuple):
    basis_index: int
    label: str
    passed: bool


class NonConjugacyCertificate(NamedTuple):
    algebra_digest: str
    S: Subspace
    S1: Subspace
    witnesses: tuple[LeviWitnesses, LeviWitnesses]  # verify_levi of S, then S1
    distinctness: Vector  # a vector in S1 outside S
    invariance_rows: tuple[InvarianceRow, ...]
    exp_checks: tuple[ExpCheck, ...]
    claim: str


def inner_derivation(alg: LeibnizAlgebra, x) -> Matrix:
    """Left multiplication by x; a derivation whenever the algebra is valid."""
    return left_multiplication(alg, x)


def invariance_check(alg: LeibnizAlgebra, u: Subspace) -> InvarianceReport:
    """Per basis element b: does left multiplication by b map u into u?

    By linearity an all-pass report extends to every multiplier x.  Each
    b times each sparse row of u goes through the product kernel and is
    reduced modulo u's rows.  The failing row reported is the first in
    index order.
    """
    if u.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    rows = u._off_pivot()
    products = _rational_products(alg.table, [((i, Fraction(1)),) for i in range(alg.dim)],
                                  u.sparse_rows)
    report = []
    for i in range(alg.dim):
        leaving = [bool(_modulo(next(products).items(), rows)) for _ in range(u.dim)]
        failing = leaving.index(True) if any(leaving) else None
        report.append(InvarianceRow(i, alg.labels[i], failing is None, failing))
    return InvarianceReport(tuple(report))


def _separating_vector(s: Subspace, s1: Subspace) -> Vector | None:
    rows = s._off_pivot()
    return next((v for r, v in zip(s1.sparse_rows, s1.rows()) if _modulo(r, rows)), None)


def non_conjugacy_certificate(alg: LeibnizAlgebra, s: Subspace,
                              s1: Subspace) -> NonConjugacyCertificate:
    """Certificate that no product of exponentials of inner derivations
    maps s onto s1.

    Requires both subspaces to pass the complement witnesses, which it
    records.  Emits the separating vector, the all-basis invariance of s,
    and an exponential fixed-subspace check at every nilpotent basis
    derivation.
    """
    witnesses: tuple[LeviWitnesses, ...] = ()
    for name, cand in (("first", s), ("second", s1)):
        witnesses += (verify_levi(alg, cand),)
        if not witnesses[-1].all_pass:
            raise NotAComplementError(f"{name} subspace fails the complement witnesses",
                                      witnesses)
    witness = _separating_vector(s, s1)
    if witness is None:
        raise DistinctnessError("subspaces are equal; nothing separates them", witnesses)
    invariance = invariance_check(alg, s)
    if not invariance.passed:
        raise InvarianceError("first complement is not invariant under all "
                              "inner derivations", witnesses)
    exp_checks = []
    for i in range(alg.dim):
        if not alg.table.nonzero[i]:
            # b_i multiplies everything to zero: exp(0) = 1 fixes s
            exp_checks.append(ExpCheck(i, alg.labels[i], True))
            continue
        d = inner_derivation(alg, alg.basis_vector(i))
        try:
            g = exp_nilpotent(d)
        except NotNilpotentError:
            continue
        exp_checks.append(ExpCheck(
            basis_index=i,
            label=alg.labels[i],
            passed=apply_to_subspace(g, s) == s,
        ))
    claim = (
        "the two subspaces are distinct complements of the radical, and every "
        "inner derivation maps the first into itself; hence every product of "
        "exponentials of (nilpotent) inner derivations fixes the first "
        "complement as a set and none carries it onto the second"
    )
    return NonConjugacyCertificate(
        algebra_digest=algebra_digest(alg),
        S=s,
        S1=s1,
        witnesses=witnesses,
        distinctness=witness,
        invariance_rows=invariance.rows,
        exp_checks=tuple(exp_checks),
        claim=claim,
    )
