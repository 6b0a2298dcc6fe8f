"""Command-line interface.

Exit codes: 0 success, 1 mathematical failure (identity violation, no
certificate, no verified complement), 2 usage or parse error, or input
too large for the memory available.  Reports are emitted as text or
JSON with a fixed key order; apart from the trailing elapsed-time field
they are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import constructions
from .algebra import LeibnizIdentityError, check_left_leibniz, is_lie, product
from .conjugacy import CertificateError, NotAComplementError, non_conjugacy_certificate
from .exactlin import RATIONAL, Subspace, as_scalar, scalar_to_str
from .files import (
    AlgebraFileError,
    algebra_digest,
    dump_algebra,
    load_algebra,
    load_subspace,
    serialize_subspace,
)
from .levi import LeviVerificationError, NoSolutionError, leibniz_levi
from .sampling import rational_vector
from .structure import derived_series, is_semisimple, leibniz_kernel, soluble_radical

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

_KERNEL_SPOT_TRIALS = 20


def _subspace_payload(sub: Subspace) -> dict:
    return {
        "dim": sub.dim,
        "rows": serialize_subspace(sub)["rows"],
    }


def _vector_payload(v) -> list[str]:
    return [scalar_to_str(x) for x in v]


class _Report:
    """Accumulates fields in a fixed order; rendered as JSON or text."""

    def __init__(self, command: str, arguments: dict):
        self.data: dict = {
            "command": command,
            "arguments": arguments,
            "input_digest": None,
            "checks": [],
            "results": {},
        }
        self._start = time.monotonic()

    def set_digest(self, digest) -> None:
        self.data["input_digest"] = digest

    def add_check(self, name: str, passed: bool, witness=None) -> None:
        entry = {"name": name, "passed": passed}
        if witness is not None:
            entry["witness"] = witness
        self.data["checks"].append(entry)

    def set_result(self, key: str, value) -> None:
        self.data["results"][key] = value

    def render(self, fmt: str) -> str:
        self.data["elapsed_ms"] = int((time.monotonic() - self._start) * 1000)
        if fmt == "json":
            return json.dumps(self.data, indent=2)
        lines = [f"command: {self.data['command']}"]
        for key, value in self.data["arguments"].items():
            lines.append(f"  {key}: {value}")
        digest = self.data["input_digest"]
        if not isinstance(digest, str):  # conjugacy's dict, or null if unread
            digest = json.dumps(digest)
        lines.append(f"input_digest: {digest}")
        for check in self.data["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"check {check['name']}: {status}")
            witness = check.get("witness")
            if witness is not None and not check["passed"]:
                lines.append(f"  witness: {json.dumps(witness)}")
        for key, value in self.data["results"].items():
            lines.append(f"{key}: {json.dumps(value)}")
        lines.append(f"elapsed_ms: {self.data['elapsed_ms']}")
        return "\n".join(lines)


def _violation_payload(report) -> list:
    return [
        {
            "triple": [v.i, v.j, v.k],
            "lhs": _vector_payload(v.lhs),
            "rhs": _vector_payload(v.rhs),
        }
        for v in report.violations
    ]


def _load_checked(args, report: _Report):
    """Load the algebra file unvalidated and report the left Leibniz
    identity; returns the algebra and whether the identity holds."""
    alg = load_algebra(args.file, validate=False)
    report.set_digest(algebra_digest(alg))
    violations = check_left_leibniz(alg)
    report.add_check("leibniz_identity", violations.ok,
                     witness=None if violations.ok else _violation_payload(violations))
    return alg, violations.ok


def cmd_validate(args, report: _Report) -> int:
    alg, ok = _load_checked(args, report)
    report.set_result("lie", ok and is_lie(alg))
    return EXIT_OK if ok else EXIT_MATH


def cmd_analyze(args, report: _Report) -> int:
    alg, ok = _load_checked(args, report)
    if not ok:
        return EXIT_MATH
    kern = leibniz_kernel(alg)
    rad = soluble_radical(alg)
    series = derived_series(alg, Subspace.full(alg.dim))
    report.set_result("lie", is_lie(alg))
    report.set_result("kernel_dim", kern.dim)
    report.set_result("kernel_rows", serialize_subspace(kern)["rows"])
    report.set_result("derived_series_dims", [t.dim for t in series])
    report.set_result("radical_dim", rad.dim)
    report.set_result("radical_rows", serialize_subspace(rad)["rows"])
    report.set_result("semisimple", is_semisimple(alg))

    rng = random.Random(args.seed)
    in_kernel = all(
        kern.contains(product(alg, x, x))
        for x in (rational_vector(rng, alg.dim) for _ in range(_KERNEL_SPOT_TRIALS))
    )
    report.add_check("random_squares_in_kernel", in_kernel,
                     witness={"trials": _KERNEL_SPOT_TRIALS, "seed": args.seed})
    return EXIT_OK if in_kernel else EXIT_MATH


def cmd_levi(args, report: _Report) -> int:
    alg, ok = _load_checked(args, report)
    if not ok:
        return EXIT_MATH
    decomposition = leibniz_levi(alg)
    for name, passed in decomposition.witnesses.as_dict().items():
        report.add_check(name, passed)
    report.set_result("semisimple_part", _subspace_payload(decomposition.semisimple_part))
    report.set_result("radical", _subspace_payload(decomposition.radical))
    return EXIT_OK


def cmd_example(args, report: _Report) -> int:
    bundle = constructions.counterexample(args.simple)
    report.set_digest(algebra_digest(bundle.L))
    out_path = args.output or f"example_{args.simple}.json"
    dump_algebra(bundle.L, out_path)
    report.set_result("written", str(out_path))
    report.set_result("dim", bundle.L.dim)
    report.set_result("basis", list(bundle.L.labels))
    report.set_result("S", _subspace_payload(bundle.S))
    report.set_result("K", _subspace_payload(bundle.K))
    report.set_result("S1", _subspace_payload(bundle.S1))
    for lam in args.lam or []:
        sub = constructions.diagonal_complement(bundle, lam)
        report.set_result(f"S_lambda({scalar_to_str(lam)})", _subspace_payload(sub))
    return EXIT_OK


def _add_complement_checks(report: _Report, witnesses) -> None:
    """Report the certificate's complement witnesses; a failing one ends
    the command as unusable input, named by its option."""
    for name, found in zip(("complement_a", "complement_b"), witnesses):
        report.add_check(f"{name}_complement", found.all_pass, witness=found.as_dict())
        if not found.all_pass:
            raise NotAComplementError(f"{name} fails the complement witnesses")


def cmd_conjugacy(args, report: _Report) -> int:
    alg = load_algebra(args.file)
    sub_a = load_subspace(args.complement_a)
    sub_b = load_subspace(args.complement_b)
    report.set_digest({
        "algebra": algebra_digest(alg),
        "complement_a": _subspace_payload(sub_a),
        "complement_b": _subspace_payload(sub_b),
    })
    for name, sub in (("complement_a", sub_a), ("complement_b", sub_b)):
        if sub.ambient_dim != alg.dim:
            raise AlgebraFileError(f"{name} lives in dimension {sub.ambient_dim}, "
                                   f"algebra has {alg.dim}")
    try:
        certificate = non_conjugacy_certificate(alg, sub_a, sub_b)
    except CertificateError as exc:
        _add_complement_checks(report, exc.witnesses)
        raise
    _add_complement_checks(report, certificate.witnesses)
    report.add_check("distinctness", True,
                     witness=_vector_payload(certificate.distinctness))
    report.add_check(
        "invariance",
        all(r.passed for r in certificate.invariance_rows),
        witness=[{"basis": r.label, "passed": r.passed}
                 for r in certificate.invariance_rows],
    )
    report.add_check(
        "exponential_fixes_complement",
        all(c.passed for c in certificate.exp_checks),
        witness=[{"basis": c.label, "passed": c.passed}
                 for c in certificate.exp_checks],
    )
    report.set_result("certificate", {
        "algebra_digest": certificate.algebra_digest,
        "S": _subspace_payload(certificate.S),
        "S1": _subspace_payload(certificate.S1),
        "distinctness": _vector_payload(certificate.distinctness),
        "invariance_rows": [
            {"basis_index": r.basis_index, "label": r.label, "passed": r.passed}
            for r in certificate.invariance_rows
        ],
        "exp_checks": [
            {"basis_index": c.basis_index, "label": c.label, "passed": c.passed}
            for c in certificate.exp_checks
        ],
        "claim": certificate.claim,
    })
    return EXIT_OK


def _parse_lambda(text: str) -> Fraction:
    try:
        return as_scalar(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _attach_negative_lambdas(argv: list[str]) -> list[str]:
    """Write "--lambda -1/2" as "--lambda=-1/2": argparse takes a separate
    value starting with "-" for an option unless it looks like a negative
    int or decimal, and "-1/2" does not."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--lambda" and arg[:1] == "-" and RATIONAL.fullmatch(arg):
            out[-1] = f"--lambda={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact computations in left Leibniz algebras over Q.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spot checks (default 0)")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        dest="fmt", help="report format (default text)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the left Leibniz identity")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="kernel, derived series, radical, semisimplicity")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("levi", help="semisimple complement of the radical with witnesses")
    p.add_argument("file")
    p.set_defaults(func=cmd_levi)

    p = sub.add_parser("example", help="emit a two-complements bundle as an algebra file")
    p.add_argument("--simple", required=True, metavar="NAME",
                   help=f"catalog name: {', '.join(constructions.CATALOG)}")
    p.add_argument("--lambda", dest="lam", action="append", type=_parse_lambda,
                   metavar="P/Q", help="also report the diagonal complement at this scale "
                   "(repeatable)")
    p.add_argument("--output", help="path for the algebra file "
                   "(default example_<name>.json)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("conjugacy", help="emit a non-conjugacy certificate for two complements")
    p.add_argument("file")
    p.add_argument("--complement-a", required=True)
    p.add_argument("--complement-b", required=True)
    p.set_defaults(func=cmd_conjugacy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_lambdas(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    report = _Report(args.subcommand, _echo_arguments(args))
    try:
        code = args.func(args, report)
    except (AlgebraFileError, constructions.UnknownAlgebraError, NotAComplementError) as exc:
        report.add_check("usable_input", False, witness=str(exc))
        code = EXIT_USAGE
    except MemoryError:
        # the report is rendered after this block, once the frames that
        # held the failed computation are released
        report.add_check("usable_input", False, witness="out of memory")
        code = EXIT_USAGE
    except CertificateError as exc:
        report.add_check("certificate", False, witness=str(exc))
        code = EXIT_MATH
    except LeviVerificationError as exc:
        for name, passed in exc.witnesses.as_dict().items():
            report.add_check(name, passed)
        code = EXIT_MATH
    except NoSolutionError as exc:
        report.add_check("complement_solve", False, witness=str(exc))
        code = EXIT_MATH
    except LeibnizIdentityError as exc:
        report.add_check("leibniz_identity", False,
                         witness=_violation_payload(exc.report))
        code = EXIT_MATH
    print(report.render(args.fmt))
    return code


def _echo_arguments(args) -> dict:
    skip = {"func", "subcommand", "fmt"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if key == "lam":
            out["lambda"] = [scalar_to_str(x) for x in value]
        elif isinstance(value, (str, int, bool)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


if __name__ == "__main__":
    sys.exit(main())
