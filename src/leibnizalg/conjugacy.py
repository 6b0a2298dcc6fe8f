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

from dataclasses import dataclass

from .algebra import (
    LeibnizAlgebra,
    _dense_sum,
    _derivation_failures,
    left_multiplication,
    product,
)
from .exactlin import (
    LinearMap,
    NotNilpotentError,
    Subspace,
    Vector,
    apply_to_subspace,
    as_vector,
    exp_nilpotent,
)
from .files import algebra_digest
from .levi import verify_levi

__all__ = [
    "DistinctnessError",
    "InvarianceError",
    "InvarianceReport",
    "InvarianceRow",
    "NonConjugacyCertificate",
    "NotAComplementError",
    "exp_inner_automorphism",
    "inner_derivation",
    "invariance_check",
    "is_derivation",
    "non_conjugacy_certificate",
]


class InvarianceError(ValueError):
    """The first complement is not invariant under some basis derivation,
    so the certificate's argument does not apply."""


class DistinctnessError(ValueError):
    """No separating vector exists: the two subspaces coincide."""


class NotAComplementError(ValueError):
    """A certificate was requested for a subspace that fails the
    complement witnesses."""


@dataclass(frozen=True)
class InvarianceRow:
    basis_index: int
    label: str
    passed: bool
    failing_row: int | None  # first row of U (in index order) leaving U, if any


@dataclass(frozen=True)
class InvarianceReport:
    rows: tuple[InvarianceRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


@dataclass(frozen=True)
class ExpCheck:
    basis_index: int
    label: str
    passed: bool


@dataclass(frozen=True)
class NonConjugacyCertificate:
    algebra_digest: str
    S: Subspace
    S1: Subspace
    distinctness: Vector  # a vector in S1 outside S
    invariance_rows: tuple[InvarianceRow, ...]
    exp_checks: tuple[ExpCheck, ...]
    claim: str


def is_derivation(alg: LeibnizAlgebra, d: LinearMap) -> bool:
    """d(x.y) = d(x).y + x.d(y) on all basis pairs."""
    if d.dim != alg.dim:
        raise ValueError("map dimension differs from algebra dimension")
    images = {}
    for m in range(d.dim):
        pairs = tuple((k, e) for k, e in enumerate(d.matrix.column(m)) if e)
        if pairs:
            images[m] = pairs
    return next(_derivation_failures(alg.table.nonzero, images), None) is None


def inner_derivation(alg: LeibnizAlgebra, x) -> LinearMap:
    """Left multiplication by x; a derivation whenever the algebra is valid."""
    return left_multiplication(alg, as_vector(x))


def invariance_check(alg: LeibnizAlgebra, u: Subspace) -> InvarianceReport:
    """Per basis element b: does left multiplication by b map u into u?

    By linearity an all-pass report extends to every multiplier x.  The
    failing row reported is the first in index order.
    """
    if u.ambient_dim != alg.dim:
        raise ValueError("ambient dimension differs from algebra dimension")
    rows = []
    for i in range(alg.dim):
        d = inner_derivation(alg, alg.basis_vector(i))
        failing = next(
            (t for t, r in enumerate(u.rows()) if not u.contains(d(r))),
            None,
        )
        rows.append(InvarianceRow(
            basis_index=i,
            label=alg.labels[i],
            passed=failing is None,
            failing_row=failing,
        ))
    return InvarianceReport(tuple(rows))


def exp_inner_automorphism(alg: LeibnizAlgebra, x) -> LinearMap:
    """Exponential of the inner derivation at x (x nilpotent required).

    The result is checked to be an algebra automorphism on basis pairs
    before it is returned.
    """
    g = exp_nilpotent(inner_derivation(alg, x))
    n = alg.dim
    cols = [g.matrix.column(j) for j in range(n)]
    images = [tuple((m, e) for m, e in enumerate(col) if e) for col in cols]
    for i, products in enumerate(alg.table.nonzero):
        for j in range(n):
            image = _dense_sum(n, ((e, images[k]) for k, e in products.get(j, ())))
            if image != product(alg, cols[i], cols[j]):
                raise AssertionError("exponential is not an automorphism; "
                                     "the algebra is inconsistent")
    return g


def _separating_vector(s: Subspace, s1: Subspace) -> Vector | None:
    return next((r for r in s1.rows() if not s.contains(r)), None)


def non_conjugacy_certificate(alg: LeibnizAlgebra, s: Subspace,
                              s1: Subspace) -> NonConjugacyCertificate:
    """Certificate that no product of exponentials of inner derivations
    maps s onto s1.

    Requires both subspaces to pass the complement witnesses.  Emits the
    separating vector, the all-basis invariance of s, and an exponential
    fixed-subspace check at every nilpotent basis derivation.
    """
    for name, cand in (("first", s), ("second", s1)):
        if not verify_levi(alg, cand).all_pass:
            raise NotAComplementError(f"{name} subspace fails the complement witnesses")
    witness = _separating_vector(s, s1)
    if witness is None:
        raise DistinctnessError("subspaces are equal; nothing separates them")
    invariance = invariance_check(alg, s)
    if not invariance.passed:
        raise InvarianceError("first complement is not invariant under all "
                              "inner derivations")
    exp_checks = []
    for i in range(alg.dim):
        d = inner_derivation(alg, alg.basis_vector(i))
        try:
            g = exp_nilpotent(d)
        except NotNilpotentError:
            continue
        exp_checks.append(ExpCheck(
            basis_index=i,
            label=alg.labels[i],
            passed=apply_to_subspace(g.matrix, s) == s,
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
        distinctness=witness,
        invariance_rows=invariance.rows,
        exp_checks=tuple(exp_checks),
        claim=claim,
    )
