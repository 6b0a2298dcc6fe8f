"""CLI contract: subcommands, exit codes, file round-trips, and report
determinism."""

import json
import re
import time
import tracemalloc

import pytest

from leibnizalg import (
    StructureTable,
    Subspace,
    cli,
    counterexample,
    leibniz_levi,
    levi,
    non_conjugacy_certificate,
    structure,
)
from leibnizalg.cli import main
from leibnizalg.files import (
    MAX_DIM,
    AlgebraFileError,
    dump_algebra,
    dump_subspace,
    load_algebra,
    parse_algebra,
    serialize_algebra,
    serialize_subspace,
    parse_subspace,
)


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    bundle = counterexample("sl2")
    paths = {
        "algebra": root / "L.json",
        "S": root / "S.json",
        "S1": root / "S1.json",
        "K": root / "K.json",
    }
    dump_algebra(bundle.L, paths["algebra"])
    dump_subspace(bundle.S, paths["S"])
    dump_subspace(bundle.S1, paths["S1"])
    dump_subspace(bundle.K, paths["K"])
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def strip_timing(text: str) -> str:
    return re.sub(r'"?elapsed_ms"?: \d+,?\n?', "", text)


# --- round-trips -------------------------------------------------------------

def test_algebra_round_trip(sl2, so3, sl3, bundle_sl2):
    for alg in (sl2, so3, sl3, bundle_sl2.L):
        assert parse_algebra(serialize_algebra(alg)) == alg


def test_subspace_round_trip(bundle_sl2):
    for sub in (bundle_sl2.S, bundle_sl2.S1, bundle_sl2.K):
        assert parse_subspace(serialize_subspace(sub)) == sub


def test_non_canonical_scalar_rejected(sl2):
    data = serialize_algebra(sl2)
    data["table"][0][2][0][1] = "2/4"
    with pytest.raises(AlgebraFileError):
        parse_algebra(data)


@pytest.mark.parametrize("path", [
    ("table", 0, 0),
    ("table", 0, 1),
    ("table", 0, 2, 0, 0),
])
def test_boolean_index_rejected(sl2, path):
    data = serialize_algebra(sl2)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = True
    with pytest.raises(AlgebraFileError):
        parse_algebra(data)


def test_boolean_subspace_dim_rejected():
    with pytest.raises(AlgebraFileError):
        parse_subspace({"format_version": "1", "dim": True, "rows": [["1"]]})


def test_validate_boolean_dim_file(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"format_version": "1", "dim": True,
                                "basis": ["a"], "table": []}))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "check usable_input: FAIL" in out


def _empty_table(dim):
    return {"format_version": "1", "dim": dim,
            "basis": [f"b{i}" for i in range(dim)], "table": []}


def test_dim_at_the_limit_is_accepted():
    assert parse_algebra(_empty_table(MAX_DIM), validate=False).dim == MAX_DIM


def test_empty_table_at_the_limit_is_cheap(capsys, tmp_path):
    """A file at the limit with no products parses into its empty index
    alone, with no dim³ tensor, and every command reading it exits 0."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_empty_table(MAX_DIM)))
    tracemalloc.start()
    try:
        alg = load_algebra(path, validate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == MAX_DIM and alg.table.nonzero == ({},) * MAX_DIM
    assert peak < 1 << 20
    for command in ("validate", "analyze", "levi"):
        assert run(capsys, command, str(path))[0] == 0


def test_library_never_reads_the_dense_tensor(monkeypatch, capsys, tmp_path, bundle_sl3):
    """No library call and no command reads ``c`` or ``row``, so their
    cost never reaches a command's."""
    path = tmp_path / "sl3.json"
    dump_algebra(bundle_sl3.L, path)
    dump_subspace(bundle_sl3.S, tmp_path / "S.json")
    dump_subspace(bundle_sl3.S1, tmp_path / "S1.json")
    violating = tmp_path / "idempotent.json"  # x.x = x
    violating.write_text(json.dumps({"format_version": "1", "dim": 1, "basis": ["x"],
                                     "table": [[0, 0, [[0, "1"]]]]}))
    alg = load_algebra(path)
    reads = []
    prop = vars(StructureTable)["c"]
    monkeypatch.setattr(prop, "func", lambda self, f=prop.func: reads.append("c") or f(self))
    row = StructureTable.row
    monkeypatch.setattr(StructureTable, "row",
                        lambda self, i, j: reads.append("row") or row(self, i, j))
    leibniz_levi(alg)
    structure.derived_series(alg, Subspace.full(alg.dim))
    structure.is_semisimple(alg)
    non_conjugacy_certificate(alg, bundle_sl3.S, bundle_sl3.S1)
    assert "c" not in vars(alg.table)
    codes = [run(capsys, *argv)[0] for argv in (
        ("validate", str(path)),
        ("analyze", str(path)),
        ("levi", str(path)),
        ("example", "--simple", "sl3", "--output", str(tmp_path / "example.json")),
        ("conjugacy", str(path), "--complement-a", str(tmp_path / "S.json"),
         "--complement-b", str(tmp_path / "S1.json")),
        ("validate", str(violating)),
    )]
    assert codes == [0, 0, 0, 0, 0, 1]
    assert reads == []


def test_dim_above_the_limit_is_rejected(capsys, tmp_path):
    # Only limit + 1: a broken guard must not be able to allocate much.
    with pytest.raises(AlgebraFileError, match="exceeds the limit"):
        parse_algebra(_empty_table(MAX_DIM + 1))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_empty_table(MAX_DIM + 1)))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "check usable_input: FAIL" in out
    assert f"exceeds the limit of {MAX_DIM}" in out


def test_file_round_trip(tmp_path, sl2):
    path = tmp_path / "sl2.json"
    dump_algebra(sl2, path)
    assert load_algebra(path) == sl2


# --- validate ------------------------------------------------------------------

def test_validate_lie_file(capsys, tmp_path, sl2):
    path = tmp_path / "sl2.json"
    dump_algebra(sl2, path)
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert "lie: true" in out


def test_validate_bundle_file(capsys, bundle_files):
    code, out = run(capsys, "validate", str(bundle_files["algebra"]))
    assert code == 0
    assert "check leibniz_identity: PASS" in out
    assert "lie: false" in out


def test_validate_mutated_file(capsys, tmp_path, sl2):
    data = serialize_algebra(sl2)
    for entry in data["table"]:
        if entry[0] == 1 and entry[1] == 0:
            entry[2][0][1] = "3"  # h.e = 3e
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "--format", "json", "validate", str(path))
    assert code == 1
    report = json.loads(out)
    check = report["checks"][0]
    assert check["name"] == "leibniz_identity"
    assert not check["passed"]
    assert check["witness"][0]["triple"]  # a concrete violating triple


@pytest.mark.parametrize("command", ["validate", "analyze", "levi"])
def test_huge_scalars_are_reported_in_full(capsys, tmp_path, command):
    # a.a = X a with X = 10^3000 - 1, a legal 3000-digit scalar; the
    # violation's lhs X^2 has 6000 digits, past Python's default
    # int-to-string limit of 4300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format_version": "1", "dim": 1, "basis": ["a"],
                                "table": [[0, 0, [[0, "9" * 3000]]]]}))
    code, out = run(capsys, "--format", "json", command, str(path))
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "leibniz_identity" and not check["passed"]
    assert check["witness"] == [{
        "triple": [0, 0, 0],
        "lhs": ["9" * 2999 + "8" + "0" * 2999 + "1"],             # X^2
        "rhs": ["1" + "9" * 2999 + "6" + "0" * 2999 + "2"],       # 2 X^2
    }]


def test_validate_garbage_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_missing_file(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/L.json")
    assert code == 2


def _hostile_text(kind, payload):
    if payload == "nested":
        return "[" * 100_000
    if kind == "algebra":
        return json.dumps({"format_version": "1", "dim": 1, "basis": ["a"],
                           "table": [[0, 0, [[0, payload]]]]})
    return json.dumps({"format_version": "1", "dim": 6,
                       "rows": [[payload, "0", "0", "0", "0", "0"]]})


@pytest.mark.parametrize("payload", ["1e5000", "1e-5000", "1e10000000", "nested"])
@pytest.mark.parametrize("kind", ["algebra", "subspace"])
def test_hostile_file_is_reported(capsys, tmp_path, bundle_files, kind, payload):
    # Fraction evaluates an exponent before any check ("1e10000000" took
    # 15 s), and str() of the result passes the int-to-string limit; deep
    # nesting passes the JSON decoder's recursion limit.
    path = tmp_path / "hostile.json"
    path.write_text(_hostile_text(kind, payload))
    if kind == "algebra":
        argv = ["validate", str(path)]
    else:
        argv = ["conjugacy", str(bundle_files["algebra"]),
                "--complement-a", str(path), "--complement-b", str(bundle_files["S1"])]
    start = time.perf_counter()
    code, out = run(capsys, "--format", "json", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    check = json.loads(out)["checks"][-1]
    assert check["name"] == "usable_input" and not check["passed"]
    assert ("is not valid JSON" if payload == "nested"
            else "is not in canonical lowest terms") in check["witness"]


# --- analyze ----------------------------------------------------------------------

def test_analyze_bundle(capsys, bundle_files):
    code, out = run(capsys, "--format", "json", "analyze",
                    str(bundle_files["algebra"]))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["kernel_dim"] == 3
    assert report["results"]["radical_dim"] == 3
    assert report["results"]["semisimple"] is False
    assert report["results"]["lie"] is False


def test_analyze_sl2(capsys, tmp_path, sl2):
    path = tmp_path / "sl2.json"
    dump_algebra(sl2, path)
    code, out = run(capsys, "--format", "json", "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["kernel_dim"] == 0
    assert report["results"]["radical_dim"] == 0
    assert report["results"]["semisimple"] is True


def test_analyze_abelian(capsys, tmp_path, abelian2):
    path = tmp_path / "ab.json"
    dump_algebra(abelian2, path)
    code, out = run(capsys, "--format", "json", "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["kernel_dim"] == 0
    assert report["results"]["radical_dim"] == 2


# --- levi --------------------------------------------------------------------------

def test_levi_bundle(capsys, bundle_files):
    code, out = run(capsys, "--format", "json", "levi", str(bundle_files["algebra"]))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["semisimple_part"]["dim"] == 3
    names = {c["name"] for c in report["checks"]}
    assert {"sum_is_full", "intersection_is_zero", "closed_under_product",
            "complement_semisimple"} <= names
    assert all(c["passed"] for c in report["checks"])


def test_levi_soluble(capsys, tmp_path, square_algebra):
    path = tmp_path / "sq.json"
    dump_algebra(square_algebra, path)
    code, out = run(capsys, "--format", "json", "levi", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["semisimple_part"]["dim"] == 0
    assert report["results"]["radical"]["dim"] == 2


def test_levi_gl2_style(capsys, tmp_path, gl2_style):
    path = tmp_path / "gl2.json"
    dump_algebra(gl2_style, path)
    code, out = run(capsys, "--format", "json", "levi", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["semisimple_part"]["dim"] == 3


def test_levi_failed_witness_is_reported(capsys, monkeypatch, bundle_files):
    # a splitter that returns the radical instead of a complement
    monkeypatch.setattr(levi, "_split", structure.soluble_radical)
    code, out = run(capsys, "--format", "json", "levi", str(bundle_files["algebra"]))
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert checks == {"leibniz_identity": True, "sum_is_full": False,
                      "intersection_is_zero": False, "closed_under_product": True,
                      "complement_semisimple": False}
    assert report["results"] == {}


def test_levi_inconsistent_solve_is_reported(capsys, monkeypatch, bundle_files):
    # a solve that finds the correction system inconsistent
    monkeypatch.setattr(levi, "solve_affine", lambda a, b: None)
    code, out = run(capsys, "--format", "json", "levi", str(bundle_files["algebra"]))
    assert code == 1
    report = json.loads(out)
    assert report["checks"][-1] == {"name": "complement_solve", "passed": False,
                                    "witness": "correction system is inconsistent"}


def test_levi_out_of_memory_is_reported(capsys, monkeypatch, bundle_files):
    # a splitter that runs out of memory, as the dense one did on the
    # dim-126 sl8 bundle; the sparse one splits it in about 80 MB
    def exhausted(alg):
        raise MemoryError
    monkeypatch.setattr(cli, "leibniz_levi", exhausted)
    code = main(["--format", "json", "levi", str(bundle_files["algebra"])])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["checks"][-1] == {"name": "usable_input", "passed": False,
                                    "witness": "out of memory"}
    assert report["results"] == {}
    assert "Traceback" not in captured.err


# --- example ------------------------------------------------------------------------

def test_example_writes_bundle(capsys, tmp_path):
    out_path = tmp_path / "bundle.json"
    code, out = run(capsys, "--format", "json", "example", "--simple", "sl2",
                    "--lambda", "1/2", "--output", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim"] == 6
    assert report["results"]["S_lambda(1/2)"]["rows"][0][3] == "1/2"
    written = load_algebra(out_path)
    assert written.dim == 6
    assert written == counterexample("sl2").L


def test_example_so3(capsys, tmp_path):
    out_path = tmp_path / "so3.json"
    code, out = run(capsys, "example", "--simple", "so3", "--output", str(out_path))
    assert code == 0
    assert load_algebra(out_path).dim == 6


@pytest.mark.parametrize("target", ["missing/bundle.json", "."],
                         ids=["missing_parent", "directory"])
def test_example_unwritable_output(capsys, tmp_path, target):
    out_path = tmp_path / target
    code, out = run(capsys, "--format", "json", "example", "--simple", "sl2",
                    "--output", str(out_path))
    assert code == 2
    check = json.loads(out)["checks"][-1]
    assert check["name"] == "usable_input" and not check["passed"]
    assert check["witness"].startswith(f"cannot write {out_path}: ")


@pytest.mark.parametrize("spelling", [["--lambda", "-1/2"], ["--lambda=-1/2"]],
                         ids=["separate", "joined"])
def test_example_negative_lambda(capsys, tmp_path, spelling):
    argv = ["--format", "json", "example", "--simple", "sl2",
            "--output", str(tmp_path / "sl2.json")]
    code, out = run(capsys, *argv, *spelling)
    assert code == 0
    report = json.loads(out)
    assert report["arguments"]["lambda"] == ["-1/2"]
    assert report["results"]["S_lambda(-1/2)"]["rows"][0] == ["1", "0", "0", "-1/2", "0", "0"]
    _, joined = run(capsys, *argv, "--lambda=-1/2")
    assert strip_timing(out) == strip_timing(joined)


@pytest.mark.parametrize("value", ["1e200000", "1e10000000", "0.5", "1/0", "+1", "1 /2"])
def test_example_lambda_of_another_shape_is_rejected(capsys, tmp_path, value):
    # an exponent is refused before it is evaluated
    out_path = tmp_path / "sl2.json"
    start = time.monotonic()
    code = main(["example", "--simple", "sl2", "--lambda", value, "--output", str(out_path)])
    assert time.monotonic() - start < 1
    assert code == 2
    assert f"not an exact rational: {value!r}" in capsys.readouterr().err
    assert not out_path.exists()


def test_example_sl4(capsys, tmp_path):
    out_path = tmp_path / "sl4.json"
    code, out = run(capsys, "--format", "json", "example", "--simple", "sl4",
                    "--output", str(out_path))
    assert code == 0
    results = json.loads(out)["results"]
    bundle = counterexample("sl4")
    assert results["dim"] == 30
    assert load_algebra(out_path) == bundle.L
    for name in ("S", "K", "S1"):
        sub = getattr(bundle, name)
        assert results[name] == {"dim": 15, "rows": serialize_subspace(sub)["rows"]}


def test_example_unknown_name(capsys, tmp_path):
    code, out = run(capsys, "--format", "json", "example", "--simple", "e8",
                    "--output", str(tmp_path / "x.json"))
    assert code == 2
    assert json.loads(out)["checks"] == [{
        "name": "usable_input", "passed": False,
        "witness": "unknown algebra 'e8'; catalog: sl2, sl3, sl4, sl5, sl6, sl7, sl8, so3",
    }]


# --- conjugacy -----------------------------------------------------------------------

def test_conjugacy_certificate(capsys, bundle_files):
    code, out = run(capsys, "--format", "json", "conjugacy",
                    str(bundle_files["algebra"]),
                    "--complement-a", str(bundle_files["S"]),
                    "--complement-b", str(bundle_files["S1"]))
    assert code == 0
    report = json.loads(out)
    cert = report["results"]["certificate"]
    assert cert["distinctness"] == ["1", "0", "0", "1", "0", "0"]
    assert len(cert["invariance_rows"]) == 6
    assert all(r["passed"] for r in cert["invariance_rows"])


def test_text_digest_is_json(capsys, bundle_files, tmp_path):
    # the conjugacy digest (algebra and both subspaces), and the missing
    # digest of an unread file, are written as JSON in text reports; a
    # plain digest string is written as it is
    conjugacy = ["conjugacy", str(bundle_files["algebra"]),
                 "--complement-a", str(bundle_files["S"]),
                 "--complement-b", str(bundle_files["S1"])]
    validate = ["validate", str(bundle_files["algebra"])]
    missing = ["validate", str(tmp_path / "missing.json")]
    for argv, parse in ((conjugacy, json.loads), (validate, str), (missing, json.loads)):
        _, text = run(capsys, *argv)
        _, as_json = run(capsys, "--format", "json", *argv)
        line = next(x for x in text.splitlines() if x.startswith("input_digest: "))
        assert parse(line.removeprefix("input_digest: ")) == json.loads(as_json)["input_digest"]


def test_conjugacy_same_subspace(capsys, bundle_files):
    code, _ = run(capsys, "conjugacy", str(bundle_files["algebra"]),
                  "--complement-a", str(bundle_files["S"]),
                  "--complement-b", str(bundle_files["S"]))
    assert code == 1


def test_conjugacy_non_complement(capsys, bundle_files):
    code, _ = run(capsys, "conjugacy", str(bundle_files["algebra"]),
                  "--complement-a", str(bundle_files["K"]),
                  "--complement-b", str(bundle_files["S1"]))
    assert code == 2


@pytest.fixture(scope="module")
def non_invariant_files(tmp_path_factory, moved_levi_pair):
    root = tmp_path_factory.mktemp("semidirect")
    alg, s, s1 = moved_levi_pair
    paths = {"algebra": root / "M.json", "S": root / "S.json", "S1": root / "S1.json"}
    dump_algebra(alg, paths["algebra"])
    dump_subspace(s, paths["S"])
    dump_subspace(s1, paths["S1"])
    return paths


_NOT_A_COMPLEMENT = {"sum_is_full": False, "intersection_is_zero": False,
                     "closed_under_product": True, "complement_semisimple": False}


@pytest.mark.parametrize("files, a, b, code, checks", [
    ("bundle", "S", "S1", 0, [
        ("complement_a_complement", True, None),
        ("complement_b_complement", True, None),
        ("distinctness", True, None),
        ("invariance", True, None),
        ("exponential_fixes_complement", True, None),
    ]),
    ("bundle", "K", "S1", 2, [
        ("complement_a_complement", False, _NOT_A_COMPLEMENT),
        ("usable_input", False, "complement_a fails the complement witnesses"),
    ]),
    ("bundle", "S", "K", 2, [
        ("complement_a_complement", True, None),
        ("complement_b_complement", False, _NOT_A_COMPLEMENT),
        ("usable_input", False, "complement_b fails the complement witnesses"),
    ]),
    ("bundle", "S", "S", 1, [
        ("complement_a_complement", True, None),
        ("complement_b_complement", True, None),
        ("certificate", False, "subspaces are equal; nothing separates them"),
    ]),
    ("semidirect", "S", "S1", 1, [
        ("complement_a_complement", True, None),
        ("complement_b_complement", True, None),
        ("certificate", False,
         "first complement is not invariant under all inner derivations"),
    ]),
], ids=["success", "a_not_complement", "b_not_complement", "equal", "not_invariant"])
def test_conjugacy_outcome_checks(capsys, bundle_files, non_invariant_files,
                                  files, a, b, code, checks):
    paths = bundle_files if files == "bundle" else non_invariant_files
    got, out = run(capsys, "--format", "json", "conjugacy", str(paths["algebra"]),
                   "--complement-a", str(paths[a]), "--complement-b", str(paths[b]))
    assert got == code
    assert [(c["name"], c["passed"], None if c["passed"] else c["witness"])
            for c in json.loads(out)["checks"]] == checks


def test_conjugacy_verifies_each_complement_once(capsys, monkeypatch, bundle_files):
    # every complement check computes the radical once
    calls = []
    real = levi.soluble_radical
    monkeypatch.setattr(levi, "soluble_radical", lambda alg: calls.append(1) or real(alg))
    code, _ = run(capsys, "conjugacy", str(bundle_files["algebra"]),
                  "--complement-a", str(bundle_files["S"]),
                  "--complement-b", str(bundle_files["S1"]))
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["levi", "analyze", "example", "conjugacy"])
def test_one_radical_per_command(capsys, monkeypatch, tmp_path, bundle_files, command):
    # each table computes its radical once, however many checks ask for it
    calls = []
    real = structure._lie_radical
    monkeypatch.setattr(structure, "_lie_radical", lambda alg: calls.append(1) or real(alg))
    algebra_file = str(bundle_files["algebra"])
    argv = {
        "levi": ["levi", algebra_file],
        "analyze": ["analyze", algebra_file],
        "example": ["example", "--simple", "sl2", "--output", str(tmp_path / "sl2.json")],
        "conjugacy": ["conjugacy", algebra_file, "--complement-a", str(bundle_files["S"]),
                      "--complement-b", str(bundle_files["S1"])],
    }[command]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_conjugacy_non_leibniz_algebra(capsys, tmp_path, bundle_files):
    data = json.loads(bundle_files["algebra"].read_text())
    for entry in data["table"]:
        if entry[0] == 1 and entry[1] == 0:
            entry[2][0][1] = "3"  # h.e = 3e
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "--format", "json", "conjugacy", str(path),
                    "--complement-a", str(bundle_files["S"]),
                    "--complement-b", str(bundle_files["S1"]))
    assert code == 1
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == ["leibniz_identity"]
    check = report["checks"][0]
    assert not check["passed"]
    first = check["witness"][0]
    assert len(first["triple"]) == 3
    assert first["lhs"] != first["rhs"]


# --- determinism ------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_are_stable_modulo_timing(capsys, bundle_files, fmt):
    argv = ["--format", fmt, "levi", str(bundle_files["algebra"])]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert strip_timing(first) == strip_timing(second)


def test_written_files_are_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dump_algebra(counterexample("sl2").L, a)
    dump_algebra(counterexample("sl2").L, b)
    assert a.read_bytes() == b.read_bytes()
