"""Exact-arithmetic toolkit for finite-dimensional left Leibniz algebras
over the rationals: squares ideal, soluble radical, semisimple
complements of the radical, and certificates that such complements need
not be conjugate.

The package exports what the README example, the acceptance suite and
the benchmark use, and the types those names return, take or raise;
everything else is imported from its own module."""

from .exactlin import Matrix, Subspace, rref
from .algebra import (
    LeibnizAlgebra,
    LeibnizIdentityError,
    NotLieError,
    StructureTable,
    ViolationReport,
    check_left_leibniz,
    is_derivation,
    is_lie,
    product,
)
from .structure import leibniz_kernel, soluble_radical
from .levi import (
    LeviDecomposition,
    LeviVerificationError,
    LeviWitnesses,
    NoSolutionError,
    leibniz_levi,
    lie_levi,
    verify_levi,
)
from .constructions import (
    CounterexampleBundle,
    ModuleAction,
    UnknownAlgebraError,
    adjoint_module,
    counterexample,
    diagonal_complement,
    simple_algebra,
    split_extension_zero_right,
)
from .conjugacy import (
    DistinctnessError,
    InvarianceError,
    NonConjugacyCertificate,
    NotAComplementError,
    inner_derivation,
    invariance_check,
    non_conjugacy_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CounterexampleBundle",
    "DistinctnessError",
    "InvarianceError",
    "LeibnizAlgebra",
    "LeibnizIdentityError",
    "LeviDecomposition",
    "LeviVerificationError",
    "LeviWitnesses",
    "Matrix",
    "ModuleAction",
    "NonConjugacyCertificate",
    "NoSolutionError",
    "NotAComplementError",
    "NotLieError",
    "StructureTable",
    "Subspace",
    "UnknownAlgebraError",
    "ViolationReport",
    "adjoint_module",
    "check_left_leibniz",
    "counterexample",
    "diagonal_complement",
    "inner_derivation",
    "invariance_check",
    "is_derivation",
    "is_lie",
    "leibniz_kernel",
    "leibniz_levi",
    "lie_levi",
    "non_conjugacy_certificate",
    "product",
    "rref",
    "simple_algebra",
    "soluble_radical",
    "split_extension_zero_right",
    "verify_levi",
]
