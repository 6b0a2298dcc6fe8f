"""Closed-loop benchmark of the leibnizalg command line.

    python3 benchmark/run.py --workload sparse-ladder --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all

One caller in one process, no threads: each command goes through
``leibnizalg.cli.main`` only after the previous one has returned, on
input files generated from ``--seed`` (see ``workloads.py``).  A pass is
one run over the workload's fixed job list; passes repeat until
``--seconds`` have gone by and at least the workload's ``TIMED_PASSES``
are done.  ``run_s`` sums each job's median time over the first
``TIMED_PASSES`` passes, so a slower program is not judged on fewer
samples.  Each time is adjusted for CPU contention from other tenants by
the probe in ``contention.py``; the raw wall figures are printed as
``run_wall_s`` and ``run_median_s``.  Garbage from one command is
collected, untimed, before the next starts, as it would be in a fresh CLI
process.

Every report is checked after the timed passes: exit code, the results
the construction of the input predicts, a ``verify_levi`` recheck of each
returned complement, byte-identical bodies across passes (modulo
``elapsed_ms``), and, for seed 0, the sha256 of each body against
``golden_seed0.json``.

With ``--trace 1`` the first half of the time runs untraced passes and
the second half traced ones (see ``tracing.py``), both without the
probe; the per-layer figures are the medians over traced passes and
``trace.overhead`` is the ratio of the two pass times.  The spans go to ``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` names for the chosen mode.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import contention

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden_seed0.json"
GOLDEN_SEED = 0
# setup_s is the median import time over IMPORT_REPEATS fresh interpreters
# plus the median time of SETUP_REPEATS rounds of generating the inputs,
# both adjusted for contention (see contention.py).  Not the fastest: an
# import spans only a few probes, and one probe slowed by a context switch
# makes its adjusted time read far too low.
IMPORT_REPEATS = 9
SETUP_REPEATS = 3
COMMANDS = ("validate", "analyze", "levi", "example", "conjugacy")
WORKLOAD_NAMES = ("sparse-ladder", "dense-screen", "certify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the report digests of this run (seed 0 only) "
                        "instead of checking them")
    return parser.parse_args(argv)


class Outcome:
    """One job execution: exit code (or the traceback it raised), the text
    it printed, and its timing (``contention.Timing``)."""

    __slots__ = ("code", "text", "timing")

    def __init__(self, code, text: str, timing):
        self.code = code
        self.text = text
        self.timing = timing


def _call_main(cli, argv, buf):
    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(list(argv))
    except Exception:
        return "raised: " + traceback.format_exc(limit=3)


def run_pass(cli, jobs, tracer=None, clock=None) -> list[Outcome]:
    """One run over the jobs; with a clock, each is timed with the probe."""
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        gc.collect()
        buf = io.StringIO()
        if clock is not None:
            code, timing = clock.time(lambda: _call_main(cli, job.argv, buf))
        else:
            start = perf_counter()
            code = _call_main(cli, job.argv, buf)
            timing = contention.Timing(perf_counter() - start, None)
        out.append(Outcome(code, buf.getvalue(), timing))
    return out


def measure(cli, jobs, seconds: float, min_passes: int, tracer=None, clock=None):
    """Passes until ``seconds`` have gone by and at least ``min_passes``
    are done; with a tracer, also the per-pass layer aggregates."""
    passes, stats = [], []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.new_pass()
        passes.append(run_pass(cli, jobs, tracer, clock))
        if tracer is not None:
            stats.append(tracer.new_pass())
    return passes, stats


def body_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, indent=2).encode("utf-8")).hexdigest()


def check_outputs(jobs, passes, golden: dict | None):
    """Problems per job and the number of failed job executions.

    The first pass's reports are checked in full; every later pass must
    reproduce them exactly, apart from ``elapsed_ms``.
    """
    problems: list[str] = []
    digests: dict[str, str] = {}
    failed = 0
    for idx, job in enumerate(jobs):
        first = passes[0][idx]
        job_problems = []
        digest = None
        if isinstance(first.code, str):
            job_problems.append(first.code)
        else:
            try:
                report = json.loads(first.text)
            except ValueError:
                job_problems.append("report is not JSON")
            else:
                digest = digests[job.id] = body_digest(report)
                try:
                    job_problems += job.check(first.code, report)
                except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
                    job_problems.append(f"malformed report: {exc!r}")
                if golden is not None and golden.get(job.id) != digest:
                    job_problems.append("report body differs from golden_seed0.json")
        problems += [f"{job.id}: {p}" for p in job_problems]
        for n, outcome in enumerate(passes):
            o = outcome[idx]
            same = o.code == first.code and (n == 0 or _digest_of(o) == digest)
            if job_problems or not same:
                failed += 1
            if not same:
                problems.append(f"{job.id}: pass {n} differs from pass 0")
    return problems, failed, digests


def _digest_of(outcome: Outcome) -> str | None:
    try:
        return body_digest(json.loads(outcome.text))
    except ValueError:
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def best_pass_s(passes, idx=None) -> float:
    """Each job's fastest wall time over the passes, summed over the jobs
    (or over the job indices ``idx``)."""
    idx = range(len(passes[0])) if idx is None else idx
    return sum(min(p[i].timing.seconds for p in passes) for i in idx)


def adjusted_pass_s(passes, idx=None) -> float:
    """Each job's median contention-adjusted time over the passes, summed
    over the jobs (or over the job indices ``idx``)."""
    idx = range(len(passes[0])) if idx is None else idx
    return sum(statistics.median(contention.adjusted(p[i].timing) for p in passes)
               for i in idx)


def end_to_end(passes, timed: int, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "run_wall_s": best_pass_s(passes[:timed]),
        "run_median_s": _median([sum(o.timing.seconds for o in p) for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def adjusted(jobs, passes, timed: int, clock) -> dict[str, float]:
    """``run_s``, the per-command times and the median slowdown of the
    probe, from passes timed with ``clock``."""
    out = {"run_s": adjusted_pass_s(passes[:timed]),
           "probe_slowdown": statistics.median(clock.slowdowns)}
    for command in COMMANDS:
        idx = [i for i, job in enumerate(jobs) if job.command == command]
        if idx:
            out[f"{command}_s"] = adjusted_pass_s(passes[:timed], idx)
    return out


def per_layer(tracing, stats, traced_passes, untraced_passes, timed: int):
    """Medians of per-pass times, counts of the first traced pass, and the
    names of counts that did not repeat exactly between traced passes."""
    rows = [tracing.layer_metrics(s) for s in stats]
    names = sorted(set().union(*rows))
    out, unsteady = {}, []
    for name in names:
        values = [r.get(name, 0) for r in rows]
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = _median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    out["trace.overhead"] = (best_pass_s(traced_passes[:timed])
                             / best_pass_s(untraced_passes[:timed]))
    return out, unsteady


def write_trace(tracer, workload: str, seed: int) -> Path:
    """Spans of the traced passes, times in seconds from the first span."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    path = out_dir / f"trace-{workload}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
        "spans": [[sid, name, round(t0 - origin, 7), round(t1 - origin, 7), parent, job]
                  for sid, name, t0, t1, parent, job in tracer.spans],
    }, separators=(",", ":")), encoding="utf-8")
    return path


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("slowdown", "overhead")) else "count"


def select(metrics: dict, spec: list[dict]) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json lists, in its order, with its units, and
    the names of listed metrics the run did not produce."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    return ({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
             for m in spec if m["name"] not in missing}, missing)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}


def import_s() -> float:
    """Median contention-adjusted time to import the CLI module in a fresh
    interpreter.  The probe's own imports, ``fractions`` and ``signal``,
    come first and are not timed, and one untimed probe warms it up: a cold
    first probe is slow and would shrink the adjusted time."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import contention; contention.probe(); "
            "_, t = contention.Clock().time(lambda: __import__('leibnizalg.cli')); "
            "print(contention.adjusted(t))")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS))


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def run_workload(args) -> int:
    if not (SRC / "leibnizalg" / "__init__.py").is_file():
        print(f"run.py: no leibnizalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != GOLDEN_SEED:
        print(f"run.py: --record-golden needs --seed {GOLDEN_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from leibnizalg import cli
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    build = workloads.WORKLOADS[args.workload]
    timed = workloads.TIMED_PASSES[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    clock = contention.Clock()
    setup_timings = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            jobs, timing = clock.time(lambda: build(args.seed, _fresh(workdir)))
            setup_timings.append(timing)
        import_time = import_s()

        os.chdir(workdir)
        tracer = None
        if args.trace:
            untraced, _ = measure(cli, jobs, args.seconds / 2, timed)
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced, stats = measure(cli, jobs, args.seconds / 2, timed, tracer)
            finally:
                uninstall()
            passes = untraced + traced
        else:
            passes, _ = measure(cli, jobs, args.seconds, timed, clock=clock)
        golden = None
        if args.seed == GOLDEN_SEED and not args.record_golden:
            golden = load_golden().get(args.workload, {})
        problems, failed, digests = check_outputs(jobs, passes, golden)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = import_time + statistics.median(contention.adjusted(t) for t in setup_timings)
    metrics = end_to_end(passes, timed, setup_s)
    if args.trace:
        layers, unsteady = per_layer(tracing, stats, traced, untraced, timed)
        metrics.update(layers)
        for name in unsteady:
            print(f"  WARNING count {name} differs between traced passes")
        print(f"spans written to {write_trace(tracer, args.workload, args.seed)}")
    else:
        metrics.update(adjusted(jobs, passes, timed, clock))
    if args.record_golden:
        golden_all = load_golden()
        golden_all[args.workload] = digests
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")

    attempted = len(jobs) * len(passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs (times over the first {timed}), "
          f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units.get(name) or _unit(name)}")
    selected, missing = select(metrics, spec["per_layer" if args.trace else "end_to_end"])
    problems += [f"{name} is listed in BENCHMARK.json but was not measured" for name in missing]
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": selected,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
