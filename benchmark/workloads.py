"""Seeded inputs, job lists and expected outputs for the three workloads.

Every workload is a fixed list of CLI invocations run against files that
this module writes.  The expected results come from the construction of
each input (which block is the radical, which subspaces are complements),
not from running the program, so a job's check does not share the code
path that produced the report.  Only the package's public API is used to
build inputs.

* ``sparse-ladder``: the sl2/so3/sl3 bundles and the sl4 bundle under a
  seeded signed permutation of the basis.  Tables stay sparse with integer
  constants.
* ``dense-screen``: sl2 acting on sums of sl2 irreducibles with zero right
  action (one algebra also has a central square t.t = z), after a seeded
  small-integer change of basis that leaves no table entry zero, plus one
  seeded one-entry mutant of each.
* ``certify``: ``example`` for each catalog algebra, then ``conjugacy`` of
  the first block against the diagonal and against seeded diagonals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from leibnizalg import (
    LeibnizAlgebra,
    Matrix,
    StructureTable,
    Subspace,
    adjoint_module,
    counterexample,
    product,
    rref,
    simple_algebra,
    split_extension_zero_right,
    verify_levi,
)
from leibnizalg.constructions import _table_from_matrices
from leibnizalg.files import dump_algebra
from tracing import max_entry_bits

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A check gets the exit code and the parsed JSON report of one job and
# returns the list of problems it found (empty when the output is right).
Check = Callable[[int, dict], list]


@dataclass(frozen=True)
class Job:
    id: str
    command: str
    argv: tuple[str, ...]
    check: Check


def _cli_argv(seed: int, *rest: str) -> tuple[str, ...]:
    return ("--seed", str(seed), "--format", "json") + rest


def _rows_as_str(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def _failed_checks(report: dict) -> list[str]:
    return [c["name"] for c in report.get("checks", []) if not c.get("passed")]


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------- building


def sln(n: int) -> LeibnizAlgebra:
    """sl(n) on the basis e_ij (i != j) then h_i = e_ii - e_{i+1,i+1}."""
    def unit(i: int, j: int) -> Matrix:
        return Matrix(n, n, tuple(
            tuple(_ONE if (r, c) == (i, j) else _ZERO for c in range(n))
            for r in range(n)
        ))

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [unit(i, j) for i, j in pairs]
    mats += [unit(i, i) - unit(i + 1, i + 1) for i in range(n - 1)]
    labels = [f"e{i + 1}{j + 1}" for i, j in pairs] + [f"h{i + 1}" for i in range(n - 1)]
    return LeibnizAlgebra(_table_from_matrices(mats), labels=labels)


def bundle_of(salg: LeibnizAlgebra) -> LeibnizAlgebra:
    """Split extension of the adjoint module with zero right action."""
    return split_extension_zero_right(
        salg, adjoint_module(salg),
        module_labels=tuple(f"{lbl}'" for lbl in salg.labels),
    )


def signed_permutation(alg: LeibnizAlgebra, rng: random.Random) -> tuple[LeibnizAlgebra, list[int]]:
    """The algebra on the basis b'_p = s_p b_{perm[p]}, signs s_p = +-1.

    Returns the new algebra and ``where``, with ``where[old] = new`` index.
    Sparsity and integrality of the table are preserved.
    """
    n = alg.dim
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    where = [0] * n
    for p, old in enumerate(perm):
        where[old] = p
    products = {}
    for p in range(n):
        for q in range(n):
            row = {}
            for k, e in enumerate(alg.table.row(perm[p], perm[q])):
                if e != 0:
                    r = where[k]
                    row[r] = e * signs[p] * signs[q] * signs[r]
            if row:
                products[(p, q)] = row
    labels = [("-" if signs[p] < 0 else "") + alg.labels[perm[p]] for p in range(n)]
    return LeibnizAlgebra(StructureTable.from_map(n, products), labels=labels,
                          validate=False), where


def sl2_irrep(m: int) -> list[dict[tuple[int, int], int]]:
    """Matrices of e, h, f on the irreducible sl2-module of dimension m+1."""
    e, h, f = {}, {}, {}
    for j in range(m + 1):
        h[(j, j)] = m - 2 * j
        if j > 0:
            e[(j - 1, j)] = j * (m - j + 1)
        if j < m:
            f[(j + 1, j)] = 1
    return [e, h, f]


@dataclass(frozen=True)
class DenseShape:
    """sl2 acting on the sum of irreducibles of the given highest weights,
    zero right action, optionally with two more vectors t, z and t.t = z."""

    name: str
    weights: tuple[int, ...]
    square: bool

    @property
    def module_dim(self) -> int:
        return sum(m + 1 for m in self.weights)

    @property
    def dim(self) -> int:
        return 3 + self.module_dim + (2 if self.square else 0)

    @property
    def kernel_index(self) -> list[int]:
        """Old-basis coordinates spanning the squares ideal."""
        extra = [3 + self.module_dim + 1] if self.square else []
        return list(range(3, 3 + self.module_dim)) + extra

    @property
    def radical_index(self) -> list[int]:
        return list(range(3, self.dim))

    @property
    def derived_series_dims(self) -> list[int]:
        # L.L drops t (t is only ever a left factor of t.t = z); the next
        # term drops z, which no product of the remaining span reaches.
        if not self.square:
            return [self.dim, self.dim]
        return [self.dim, self.dim - 1, self.dim - 2, self.dim - 2]


DENSE_SHAPES = (
    DenseShape("sq", (1,), True),
    DenseShape("mix", (1, 1), False),
)

# Every seed draws the same number of change-of-basis matrices and keeps
# the one whose table entries come closest to this size, so that set-up
# and the arithmetic of the timed commands cost about the same for every
# seed.
DENSE_ENTRY_RANGE = 3
DENSE_CANDIDATES = 8
DENSE_TARGET_BITS = 18


def dense_base(shape: DenseShape) -> LeibnizAlgebra:
    sl2 = simple_algebra("sl2")
    products: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(3):
        for j in range(3):
            row = {k: e for k, e in enumerate(sl2.table.row(i, j)) if e != 0}
            if row:
                products[(i, j)] = row
    offset = 3
    for m in shape.weights:
        for a, mat in enumerate(sl2_irrep(m)):
            for (r, c), e in mat.items():
                products.setdefault((a, offset + c), {})[offset + r] = e
        offset += m + 1
    labels = list(sl2.labels) + [f"v{i}" for i in range(shape.module_dim)]
    if shape.square:
        products[(offset, offset)] = {offset + 1: 1}
        labels += ["t", "z"]
    return LeibnizAlgebra(StructureTable.from_map(shape.dim, products), labels=labels)


def entry_bits(table: StructureTable) -> int:
    return max_entry_bits(row for plane in table.c for row in plane)


def change_basis(alg: LeibnizAlgebra, rng: random.Random) -> tuple[LeibnizAlgebra, Matrix]:
    """The algebra on the basis given by the columns of a seeded integer
    matrix P with every table entry nonzero.  Of ``DENSE_CANDIDATES``
    draws, the first with entry size closest to ``DENSE_TARGET_BITS`` is
    kept.  Returns the new algebra and P^-1, which maps old coordinates to
    new ones."""
    n = alg.dim
    r = DENSE_ENTRY_RANGE
    best = None
    draws = 0
    while draws < DENSE_CANDIDATES or best is None:
        draws += 1
        p = Matrix(n, n, tuple(
            tuple(Fraction(rng.randint(-r, r)) for _ in range(n)) for _ in range(n)
        ))
        augmented = Matrix(n, 2 * n, tuple(p.entries[i] + _unit(n, i) for i in range(n)))
        reduced, pivots, _ = rref(augmented)
        if pivots[:n] != tuple(range(n)):
            continue
        p_inv = Matrix(n, n, tuple(row[n:] for row in reduced.entries))
        cols = [p.column(i) for i in range(n)]
        table = StructureTable(n, tuple(
            tuple(p_inv.apply(product(alg, cols[i], cols[j])) for j in range(n))
            for i in range(n)
        ))
        if any(e == 0 for plane in table.c for row in plane for e in row):
            continue
        miss = abs(entry_bits(table) - DENSE_TARGET_BITS)
        if best is None or miss < best[0]:
            best = (miss, table, p_inv)
    _, table, p_inv = best
    return LeibnizAlgebra(table, labels=[f"b{i}" for i in range(n)], validate=False), p_inv


def identity_defect(c, i: int, j: int, k: int) -> tuple[list, list]:
    """Both sides of b_i(b_j b_k) = (b_i b_j)b_k + b_j(b_i b_k), computed
    directly from the structure constants ``c[i][j][k]``."""
    n = len(c)
    lhs = [_ZERO] * n
    rhs = [_ZERO] * n
    for m in range(n):
        a = c[j][k][m]
        if a:
            for t, e in enumerate(c[i][m]):
                lhs[t] += a * e
        a = c[i][j][m]
        if a:
            for t, e in enumerate(c[m][k]):
                rhs[t] += a * e
        a = c[i][k][m]
        if a:
            for t, e in enumerate(c[j][m]):
                rhs[t] += a * e
    return lhs, rhs


def violations(c) -> list[tuple[tuple[int, int, int], list, list]]:
    """Every basis triple, in (i, j, k) order, where the identity fails,
    with both sides."""
    n = len(c)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs, rhs = identity_defect(c, i, j, k)
                if lhs != rhs:
                    out.append(((i, j, k), lhs, rhs))
    return out


def mutate(alg: LeibnizAlgebra, rng: random.Random) -> LeibnizAlgebra:
    """One table entry b_i.b_j shifted by a seeded nonzero rational,
    redrawn until the identity fails on a triple (b_i, b, c)."""
    n = alg.dim
    while True:
        i, j, k = (rng.randrange(n) for _ in range(3))
        delta = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        grid = [[list(row) for row in plane] for plane in alg.table.c]
        grid[i][j][k] += delta
        defects = [identity_defect(grid, i, b, c) for b in range(n) for c in range(n)]
        if any(lhs != rhs for lhs, rhs in defects):
            table = StructureTable(n, tuple(tuple(tuple(row) for row in plane) for plane in grid))
            return LeibnizAlgebra(table, labels=alg.labels, validate=False)


# ---------------------------------------------------------------- checks


def _check_identity_ok(code: int, report: dict, problems: list) -> None:
    _expect(problems, "exit code", code, 0)
    _expect(problems, "failed checks", _failed_checks(report), [])


def analyze_check(n: int, kernel: Subspace, radical: Subspace, series: list[int]) -> Check:
    def check(code: int, report: dict) -> list:
        problems: list = []
        _check_identity_ok(code, report, problems)
        res = report.get("results", {})
        _expect(problems, "lie", res.get("lie"), False)
        _expect(problems, "semisimple", res.get("semisimple"), False)
        _expect(problems, "kernel_dim", res.get("kernel_dim"), kernel.dim)
        _expect(problems, "kernel_rows", res.get("kernel_rows"), _rows_as_str(kernel.rows()))
        _expect(problems, "radical_dim", res.get("radical_dim"), radical.dim)
        _expect(problems, "radical_rows", res.get("radical_rows"), _rows_as_str(radical.rows()))
        _expect(problems, "derived_series_dims", res.get("derived_series_dims"), series)
        _expect(problems, "checks", [c["name"] for c in report.get("checks", [])],
                ["leibniz_identity", "random_squares_in_kernel"])
        return problems
    return check


def levi_check(alg: LeibnizAlgebra, semisimple_dim: int, radical: Subspace) -> Check:
    def check(code: int, report: dict) -> list:
        problems: list = []
        _check_identity_ok(code, report, problems)
        _expect(problems, "checks", [c["name"] for c in report.get("checks", [])],
                ["leibniz_identity", "sum_is_full", "intersection_is_zero",
                 "closed_under_product", "complement_semisimple"])
        res = report.get("results", {})
        _expect(problems, "radical", res.get("radical"),
                {"dim": radical.dim, "rows": _rows_as_str(radical.rows())})
        part = res.get("semisimple_part", {})
        _expect(problems, "semisimple_part.dim", part.get("dim"), semisimple_dim)
        rows = [[Fraction(x) for x in row] for row in part.get("rows", [])]
        if len(rows) == semisimple_dim:
            witnesses = verify_levi(alg, Subspace(alg.dim, rows))
            _expect(problems, "verify_levi recheck", witnesses.as_dict(),
                    {name: True for name in witnesses.as_dict()})
        return problems
    return check


def validate_check(mutant: LeibnizAlgebra | None = None) -> Check:
    """A valid input must pass; a mutant must exit 1 and report exactly the
    violations the benchmark computes from its structure constants."""
    def check(code: int, report: dict) -> list:
        problems: list = []
        found = violations(mutant.table.c) if mutant is not None else []
        _expect(problems, "exit code", code, 1 if mutant is not None else 0)
        first = report.get("checks", [{}])[0]
        _expect(problems, "leibniz_identity", (first.get("name"), first.get("passed")),
                ("leibniz_identity", mutant is None))
        _expect(problems, "lie", report.get("results", {}).get("lie"), False)
        if mutant is not None:
            _expect(problems, "violations", first.get("witness"), [
                {"triple": list(triple), "lhs": [str(x) for x in lhs],
                 "rhs": [str(x) for x in rhs]}
                for triple, lhs, rhs in found
            ])
        return problems
    return check


def example_check(name: str, sd: int, lambdas: list[Fraction], subspaces: dict) -> Check:
    def check(code: int, report: dict) -> list:
        problems: list = []
        _expect(problems, "exit code", code, 0)
        res = report.get("results", {})
        _expect(problems, "dim", res.get("dim"), 2 * sd)
        _expect(problems, "written", res.get("written"), f"{name}.json")
        for key in ("S", "K", "S1"):
            _expect(problems, key, res.get(key),
                    {"dim": sd, "rows": _rows_as_str(subspaces[key])})
        for lam in lambdas:
            _expect(problems, f"S_lambda({lam})", res.get(f"S_lambda({lam})"),
                    {"dim": sd, "rows": _rows_as_str(subspaces[lam])})
        return problems
    return check


def conjugacy_check(sd: int, lam: Fraction, s_rows, t_rows) -> Check:
    """S = first block against the diagonal {(v, lam v')}."""
    n = 2 * sd

    def check(code: int, report: dict) -> list:
        problems: list = []
        _expect(problems, "exit code", code, 0)
        checks = {c["name"]: c for c in report.get("checks", [])}
        _expect(problems, "checks", list(checks),
                ["complement_a_complement", "complement_b_complement", "distinctness",
                 "invariance", "exponential_fixes_complement"])
        _expect(problems, "failed checks", _failed_checks(report), [])
        for name in ("complement_a_complement", "complement_b_complement"):
            witness = checks.get(name, {}).get("witness", {})
            _expect(problems, f"{name} witnesses", sorted(witness.values()), [True] * 4)
        _expect(problems, "invariance rows",
                len(checks.get("invariance", {}).get("witness", [])), n)
        cert = report.get("results", {}).get("certificate", {})
        for key, rows in (("S", s_rows), ("S1", t_rows)):
            _expect(problems, f"certificate.{key}", cert.get(key),
                    {"dim": sd, "rows": _rows_as_str(rows)})
        _expect(problems, "claim present", bool(cert.get("claim")), True)
        v = [Fraction(x) for x in cert.get("distinctness", [])]
        in_second = (len(v) == n and any(v[:sd])
                     and all(v[sd + i] == lam * v[i] for i in range(sd)))
        outside_first = len(v) == n and any(v[sd:])
        _expect(problems, "distinctness vector in S1 and outside S",
                (in_second, outside_first), (True, True))
        return problems
    return check


# ---------------------------------------------------------------- workloads


def _write_subspace(path: Path, n: int, rows) -> None:
    path.write_text(json.dumps({"format_version": "1", "dim": n, "rows": _rows_as_str(rows)}),
                    encoding="utf-8")


def _old_basis_span(n: int, index: list[int], where=None, p_inv: Matrix | None = None) -> Subspace:
    """Span of old basis vectors ``index`` in new coordinates."""
    if p_inv is not None:
        return Subspace(n, [p_inv.column(i) for i in index])
    return Subspace(n, [_unit(n, where[i]) for i in index])


def sparse_ladder(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs_levi, jobs_analyze = [], []
    sources = [(name, counterexample(name).L) for name in ("sl2", "so3", "sl3")]
    sources.append(("sl4", bundle_of(sln(4))))
    for name, alg in sources:
        alg, where = signed_permutation(alg, rng)
        n, sd = alg.dim, alg.dim // 2
        dump_algebra(alg, workdir / f"{name}.json")
        module = _old_basis_span(n, list(range(sd, n)), where=where)
        if name != "sl4":
            jobs_levi.append(Job(f"levi:{name}", "levi", _cli_argv(seed, "levi", f"{name}.json"),
                                 levi_check(alg, sd, module)))
        if name in ("sl3", "sl4"):
            jobs_analyze.append(Job(f"analyze:{name}", "analyze",
                                    _cli_argv(seed, "analyze", f"{name}.json"),
                                    analyze_check(n, module, module, [n, n])))
    return jobs_levi + jobs_analyze


def dense_screen(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for shape in DENSE_SHAPES:
        alg, p_inv = change_basis(dense_base(shape), rng)
        mutant = mutate(alg, rng)
        n = alg.dim
        dump_algebra(alg, workdir / f"{shape.name}.json")
        dump_algebra(mutant, workdir / f"{shape.name}-mutant.json")
        kernel = _old_basis_span(n, shape.kernel_index, p_inv=p_inv)
        radical = _old_basis_span(n, shape.radical_index, p_inv=p_inv)
        file = f"{shape.name}.json"
        jobs += [
            Job(f"validate:{shape.name}", "validate", _cli_argv(seed, "validate", file),
                validate_check()),
            Job(f"analyze:{shape.name}", "analyze", _cli_argv(seed, "analyze", file),
                analyze_check(n, kernel, radical, shape.derived_series_dims)),
            Job(f"levi:{shape.name}", "levi", _cli_argv(seed, "levi", file),
                levi_check(alg, 3, radical)),
            Job(f"validate:{shape.name}-mutant", "validate",
                _cli_argv(seed, "validate", f"{shape.name}-mutant.json"),
                validate_check(mutant)),
        ]
    return jobs


def _seeded_lambdas(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        lam = Fraction(rng.choice([p for p in range(-9, 10) if p]), rng.randint(1, 9))
        if lam not in out and lam != 1:
            out.append(lam)
    return out


def certify(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, sd in (("sl2", 3), ("so3", 3), ("sl3", 8)):
        n = 2 * sd
        lambdas = _seeded_lambdas(rng, 2)
        subspaces = {
            "S": [_unit(n, i) for i in range(sd)],
            "K": [_unit(n, sd + i) for i in range(sd)],
        }
        for lam in [_ONE] + lambdas:
            subspaces[lam] = [tuple(_ONE if j == i else lam if j == sd + i else _ZERO
                                    for j in range(n)) for i in range(sd)]
        subspaces["S1"] = subspaces[_ONE]
        _write_subspace(workdir / f"{name}-S.json", n, subspaces["S"])
        argv = ["example", "--simple", name]
        for lam in lambdas:
            argv.append(f"--lambda={lam}")
        jobs.append(Job(f"example:{name}", "example",
                        _cli_argv(seed, *argv, "--output", f"{name}.json"),
                        example_check(name, sd, lambdas, subspaces)))
        for tag, lam in [("S1", _ONE)] + [(f"lambda{t}", lam) for t, lam in enumerate(lambdas)]:
            _write_subspace(workdir / f"{name}-{tag}.json", n, subspaces[lam])
            jobs.append(Job(f"conjugacy:{name}:{tag}", "conjugacy",
                            _cli_argv(seed, "conjugacy", f"{name}.json",
                                      "--complement-a", f"{name}-S.json",
                                      "--complement-b", f"{name}-{tag}.json"),
                            conjugacy_check(sd, lam, subspaces["S"], subspaces[lam])))
    return jobs


WORKLOADS = {
    "sparse-ladder": sparse_ladder,
    "dense-screen": dense_screen,
    "certify": certify,
}

# Passes whose per-job times make up ``run_s``: about what a 30 s run
# reaches on a 2-vCPU machine when other tenants slow it down.  Every
# run makes at least this many, so two versions of the program are
# judged on the same number of samples.
TIMED_PASSES = {
    "sparse-ladder": 6,
    "dense-screen": 10,
    "certify": 12,
}
