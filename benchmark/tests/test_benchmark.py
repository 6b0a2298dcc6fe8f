"""Self-checks of the benchmark: its generated inputs, its correctness
gate and the repeatability of its traced counters.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import contention  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from leibnizalg import (  # noqa: E402
    check_left_leibniz,
    counterexample,
    leibniz_kernel,
    soluble_radical,
)
from leibnizalg import cli  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("shape", workloads.DENSE_SHAPES, ids=lambda s: s.name)
def test_dense_generator(seed, shape):
    rng = random.Random(seed)
    alg, p_inv = workloads.change_basis(workloads.dense_base(shape), rng)
    assert check_left_leibniz(alg).ok
    assert all(e != 0 for plane in alg.table.c for row in plane for e in row)
    assert abs(workloads.entry_bits(alg.table) - workloads.DENSE_TARGET_BITS) <= 1
    kernel = leibniz_kernel(alg)
    radical = soluble_radical(alg)
    assert kernel.dim == len(shape.kernel_index)
    assert radical.dim == len(shape.radical_index) == shape.dim - 3
    assert kernel == workloads._old_basis_span(alg.dim, shape.kernel_index, p_inv=p_inv)
    assert radical == workloads._old_basis_span(alg.dim, shape.radical_index, p_inv=p_inv)

    mutant = workloads.mutate(alg, rng)
    report = check_left_leibniz(mutant)
    assert not report.ok
    assert workloads.violations(alg.table.c) == []
    assert workloads.violations(mutant.table.c) == [
        ((v.i, v.j, v.k), list(v.lhs), list(v.rhs)) for v in report.violations]


def test_signed_permutation_keeps_the_bundle_valid():
    bundle = counterexample("sl3").L
    alg, where = workloads.signed_permutation(bundle, random.Random(3))
    assert check_left_leibniz(alg).ok
    n, sd = alg.dim, alg.dim // 2
    assert leibniz_kernel(alg) == workloads._old_basis_span(n, list(range(sd, n)), where=where)


def test_gate_accepts_right_reports_and_flags_tampered_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = [j for j in workloads.certify(4, tmp_path) if ":sl2" in j.id]
    passes = [run.run_pass(cli, jobs) for _ in range(2)]
    problems, failed, digests = run.check_outputs(jobs, passes, golden=None)
    assert (problems, failed) == ([], 0)
    assert sorted(digests) == sorted(j.id for j in jobs)

    conj = next(i for i, j in enumerate(jobs) if j.id == "conjugacy:sl2:S1")
    report = json.loads(passes[1][conj].text)
    report["results"]["certificate"]["distinctness"] = ["1"] + ["0"] * 5
    passes[1][conj].text = json.dumps(report, indent=2)
    problems, failed, _ = run.check_outputs(jobs, passes, golden=None)
    assert failed == 1 and "pass 1 differs" in problems[0]
    assert jobs[conj].check(0, report)

    golden = dict(digests, **{"example:sl2": "0" * 64})
    problems, failed, _ = run.check_outputs(jobs, passes[:1], golden=golden)
    assert failed == 1 and "golden" in problems[0]


def test_levi_check_rechecks_the_complement(tmp_path):
    alg = counterexample("sl2").L
    module = workloads._old_basis_span(6, [3, 4, 5], where=list(range(6)))
    check = workloads.levi_check(alg, 3, module)
    rows = [["0"] * 6 for _ in range(3)]
    for i in range(3):
        rows[i][3 + i] = "1"
    report = {
        "checks": [{"name": n, "passed": True} for n in (
            "leibniz_identity", "sum_is_full", "intersection_is_zero",
            "closed_under_product", "complement_semisimple")],
        "results": {"semisimple_part": {"dim": 3, "rows": rows},
                    "radical": {"dim": 3, "rows": workloads._rows_as_str(module.rows())}},
    }
    assert any("verify_levi" in p for p in check(0, report))
    for i in range(3):
        rows[i][3 + i], rows[i][i] = "0", "1"
    assert check(0, report) == []


def test_spans_nest_within_their_parent_and_job(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = [j for j in workloads.certify(4, tmp_path) if ":sl2" in j.id]
    original = cli.main
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        run.run_pass(cli, jobs, tracer)
    finally:
        uninstall()
    assert cli.main is original
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans)
    roots = [s for s in tracer.spans if s[4] is None]
    assert [(s[1], s[5]) for s in roots] == [("cli.main", j.id) for j in jobs]
    for sid, _, t0, t1, parent, job in tracer.spans:
        if parent is not None:
            _, _, p0, p1, _, pjob = spans[parent]
            assert p0 <= t0 <= t1 <= p1 and pjob == job


def test_clock_subtracts_its_probes_and_disarms_the_timer():
    clock = contention.Clock()

    def busy():
        start = perf_counter()
        while perf_counter() - start < 0.1:
            contention.probe()
        return "done"

    start = perf_counter()
    result, timing = clock.time(busy)
    wall = perf_counter() - start
    assert result == "done" and timing.probe_s > 0
    assert 0.05 < timing.seconds < wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert contention.adjusted(contention.Timing(1.0, 2 * contention.REFERENCE_PROBE_S)) == 0.5

    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_listed_metric_that_was_not_measured_is_reported_missing():
    spec = [{"name": "run_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]
    assert run.select({"run_s": 1.5, "other": 2.0}, spec) == (
        {"run_s": {"value": 1.5, "unit": "s"}}, ["setup_s"])


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(workload):
    first = _traced_counts(workload, 5)
    assert first and all(v > 0 for v in first.values())
    assert _traced_counts(workload, 5) == first
