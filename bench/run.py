"""suffcause benchmark: three workloads, end-to-end metrics and traced layers.

Run one workload (what ``BENCHMARK.json`` names):

    python3 bench/run.py --workload exact_large --seed 1 --seconds 40 --trace 0

or every workload, each in its own single-threaded process, followed by a
short second run per workload that must reproduce the output digest:

    python3 bench/run.py --seed 1 [--seconds 40] [--trace 1]

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(input sizes, environment, output digest, tail percentile, draw accounting,
problems found) goes to ``.bench_results/<workload>-seed<N>-trace<T>.json``.
Model files are written under ``.bench_work/`` and removed at the end.

Seeds: development used seed 1..10; seed 7919 is held out for confirming
later claims.

Method. Set-up (importing suffcause, generating the seeded inputs, writing
the model files) runs once before the operations and once more after every
pass of an untraced run. Operations run in a closed loop with one client:
the fixed operation list is traversed pass after pass until ``--seconds``
have passed and at least ``MIN_PASSES`` passes are complete. Every
operation is timed on its own; its output is checked after the clock
stops. Pass 0 outputs get the full check and form the digest (the same at
every run of one seed); later passes must reproduce them byte for byte.

Every pass repeats the same inputs, so the runs of one operation differ
only by what the machine took from it. On a small shared host that is a
lot: other tenants slow a core down by up to 2x, for a second or two at a
time and now and then for minutes, so a median or even the fastest run
over a 40 s run moves by tens of percent from run to run. The operations'
costs are therefore measured against a fixed reference computation
(``reference_work``: exact fractions, tuples and a dict, in the library's
style, 2.3 to 2.9 ms on an unloaded 2.0 GHz Xeon core), timed just before
and just after every operation. One run of an operation costs its latency
over the mean of those two reference times; the operation's cost, in
"ref" units, is the median of that over its runs. A slow spell slows the
operation and the reference around it alike, so the cost repeats within a
few percent where the wall-clock figures move by 30% or more. Set-up is
timed the same way, and its median cost is reported in seconds at
``SECONDS_PER_REF`` per ref. The wall-clock figures (best run of each
operation, median set-up time) are kept in the results file and the
summary table.

End-to-end metrics (``--trace 0``):

    op_mean_ref   mean cost of the workload's operations, in ref; the
                  inverse of throughput at a stated input size (recorded
                  beside it in the results file)
    op_p50_ref    median over the workload's operations of their cost
    op_tail_ref   p90 (nearest rank) over the workload's operations of
                  their cost: its slow operations. The operation count and
                  how many lie beyond are in the results file
    setup_s       median set-up cost over the run's repeats, in seconds at
                  SECONDS_PER_REF
    peak_rss_mb   peak resident set size of the process
    failed_op_ratio  share of attempted operations that raised, exited with
                  an unexpected code or failed the output check. It is 0
                  when the program is correct, so it is reported in the
                  results file and summary, and through ``failed``, not as
                  a bounded metric.

Workloads, and why each exists:

    oracle_check  in-process ``oracle-check`` on premise-only models: the
                  coaggregation_null fixture (README flagship command, at
                  generator seeds 7, 8, 9) plus twelve variants (three
                  shapes of one eight-node graph with a two-parent target,
                  four asserted flags), each at its own fixed generator
                  seed. Only here does ``oracle.random_instance`` run; it
                  builds many small joints (about 10^3 worlds) and asks few
                  queries of each. Every draw of one check shares one graph,
                  so caching per graph or per node shows up here. The draws
                  set a check's cost (by up to 4x between generator seeds),
                  so this workload's inputs are the same at every seed.
    exact_large   fully specified 10-14 node models of 1024 to 3072
                  worlds. ``oracle-check`` builds the joint twice and asks a
                  handful of queries; the d-separation audit builds it once
                  and checks 8 separated ``d_separated`` verdicts against
                  exact ``conditional_independent``. Joint cost per world,
                  memory and query cost dominate; the generator does no work
                  and no two operations share work.
    structural    ``signs``, ``dsep``, ``stratum-ci``, ``expand``,
                  ``canonical`` and premise-only ``covsign`` on the 11
                  fixtures plus seeded banded signed DAGs (10-13 nodes),
                  separated queries through width-3 layered DAGs (5 and 6
                  layers) and 3-5 parent equations. graph, signs, causes,
                  expansion and modelfile do the work; scm and oracle do
                  none, so this workload should not move when the oracle
                  changes. Its work does not depend on the seed.

Per-layer metrics (``--trace 1``), per pass over the operation list: counts
from the first traced pass (same inputs as the digest pass, so they repeat
exactly), times and rates as medians over traced passes. The run spends half
its time untraced and half traced; layers are the suffcause modules, wrapped
at cross-module call sites (see tracer.py).

    metric                                   moves            mostly on
    scm.self_s joint_calls worlds            op_mean_ref,     exact_large,
      support_rows worlds_per_s               peak_rss_mb      oracle_check
    oracle.self_s queries rows_scanned       op_mean_ref      exact_large
    oracle.generator_s draws accepted        op_mean_ref,     oracle_check
      accept_ratio gen_errors                 op_tail_ref
      assert_mismatch zero_prob
    causes.self_s canonical_builds           op_mean_ref,     structural,
      conjunctions (sum of 3^parents)         op_tail_ref      oracle_check
    graph.self_s dsep_calls witness_calls    op_tail_ref,     structural
      witness_s paths_enumerated              op_mean_ref
    signs.self_s assoc_calls                 op_tail_ref      structural
    expansion.self_s, covsign.self_s         op_mean_ref      structural,
      facts_builds                                             oracle_check
    modelfile.self_s bytes                   setup_s,         structural
                                              op_p50_ref
    cli.self_s (parsing, rendering, JSON)    op_p50_ref       all
    trace.overhead_ratio                     none (sanity)    all

Each layer also reports ``<layer>.calls``. ``bench.self_s`` is the
benchmark's own time (output capture, checks, hashing); ``trace.residual_s``
is traced wall time that no span accounts for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
RESULTS = Path(".bench_results")

WORKLOADS = ("oracle_check", "exact_large", "structural")
HELDOUT_SEED = 7919
MIN_PASSES = 4
TAIL_PERCENTILE = 90
# setup_s is reported in seconds at this many seconds per ref, a round
# figure near one reference run on an unloaded core of a 2.0 GHz Xeon
SECONDS_PER_REF = 0.003

END_TO_END = (
    ("op_mean_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("scm.self_s", "s"), ("scm.calls", "count"), ("scm.joint_calls", "count"),
    ("scm.worlds", "count"), ("scm.support_rows", "count"), ("scm.worlds_per_s", "1/s"),
    ("oracle.self_s", "s"), ("oracle.calls", "count"), ("oracle.queries", "count"),
    ("oracle.rows_scanned", "count"), ("oracle.generator_s", "s"), ("oracle.draws", "count"),
    ("oracle.accepted", "count"), ("oracle.accept_ratio", "ratio"), ("oracle.gen_errors", "count"),
    ("oracle.assert_mismatch", "count"), ("oracle.zero_prob", "count"),
    ("causes.self_s", "s"), ("causes.calls", "count"), ("causes.canonical_builds", "count"),
    ("causes.conjunctions", "count"),
    ("graph.self_s", "s"), ("graph.calls", "count"), ("graph.dsep_calls", "count"),
    ("graph.witness_calls", "count"), ("graph.witness_s", "s"), ("graph.paths_enumerated", "count"),
    ("signs.self_s", "s"), ("signs.calls", "count"), ("signs.assoc_calls", "count"),
    ("expansion.self_s", "s"), ("expansion.calls", "count"),
    ("covsign.self_s", "s"), ("covsign.calls", "count"), ("covsign.facts_builds", "count"),
    ("modelfile.self_s", "s"), ("modelfile.calls", "count"), ("modelfile.bytes", "B"),
    ("cli.self_s", "s"), ("cli.calls", "count"),
    ("bench.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.residual_s", "s"), ("trace.wall_s", "s"),
)


# -- set-up ----------------------------------------------------------------------

def _import_library():
    for name in [m for m in sys.modules if m == "suffcause" or m.startswith("suffcause.")]:
        del sys.modules[name]
    importlib.import_module("suffcause")
    importlib.import_module("suffcause.cli")


def setup(workload: str, seed: int):
    """Import, generate and write the inputs; returns them and the time taken."""
    workdir = WORK / f"{workload}-seed{seed}"
    t0 = time.perf_counter()
    _import_library()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    built = workloads.BUILDERS[workload](seed, str(workdir))
    return built, workdir, time.perf_counter() - t0


def repeat_setup(workload: str, seed: int) -> float:
    """Time one more set-up and leave the run as it was: the library modules
    in use go back into ``sys.modules``, and the model files it rewrote are
    byte for byte the ones the operations read (same seed, same inputs)."""
    kept = {n: m for n, m in sys.modules.items() if n == "suffcause" or n.startswith("suffcause.")}
    try:
        return setup(workload, seed)[2]
    finally:
        sys.modules.update(kept)


def _api(modules) -> types.SimpleNamespace:
    return types.SimpleNamespace(**{n: modules[n] for n in ("cli", "scm", "graph", "oracle", "modelfile")})


# -- measurement -----------------------------------------------------------------

class Outcomes:
    """Checks each result after the clock stops and keeps the pass-0 digest."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[str | None] = [None] * len(ops)
        self.first_result: dict[str, tuple[int, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, res, exc: BaseException | None, pass_no: int) -> list[str]:
        """Full check until an output passes it on pass 0; afterwards the
        output must equal that checked output."""
        op = self.ops[i]
        self.attempted += 1
        if exc is None and self.reference[i] is not None:
            problems = [] if res.digest_text() == self.reference[i] else ["output differs from pass 0"]
        else:
            problems = evaluate(op, res, exc)
            if not problems and pass_no == 0:
                self.reference[i] = res.digest_text()
                self.first_result.setdefault(op.kind, (i, res))
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"pass {pass_no} op {i} ({op.kind}): {'; '.join(problems)}")
        return problems

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reference:
            h.update(hashlib.sha256((text or "<failed>").encode()).digest())
        return h.hexdigest()


def evaluate(op, res, exc: BaseException | None) -> list[str]:
    """Problems with one result; an exception or a failing check both count."""
    if exc is not None:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return [f"raised {type(exc).__name__}: {exc} at {Path(where.filename).name}:{where.lineno}"]
    try:
        return op.check(res)
    except Exception as e:  # a malformed output must count as a failure, not stop the run
        return [f"check raised {type(e).__name__}: {e}"]


def planted_fault_selftest(outcomes: Outcomes) -> dict[str, bool]:
    """Flip one verdict per operation kind and confirm the checker fails it."""
    caught = {}
    for kind, (i, res) in outcomes.first_result.items():
        op = outcomes.ops[i]
        if op.fault is not None:
            caught[kind] = bool(evaluate(op, op.fault(res), None))
    return caught


def measure(ops, api, outcomes: Outcomes, seconds: float, min_passes: int, tracer=None, on_op=None,
            after_pass=None):
    """Passes until ``seconds`` have passed and at least ``min_passes`` are
    complete. An untraced run stops at the deadline inside a pass; a traced
    run finishes the pass, as its figures are per pass.

    Returns the latencies as a list of passes, each a list with one entry per
    operation run (only the last pass may be short), and the per-pass trace
    snapshots when ``tracer`` is given. ``after_pass`` runs after every
    complete pass, outside the operations' clocks.
    """
    def span(paused: bool):
        return contextlib.nullcontext() if tracer is None else tracer.bench_span(paused)

    passes: list[list[float]] = []
    pass_refs: list[list[float]] = []
    pass_traces: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        pass_no = len(passes)
        latencies: list[float] = []
        refs = [time_reference()] if tracer is None else []
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        for i, op in enumerate(ops):
            if tracer is None and pass_no >= min_passes and time.perf_counter() >= deadline:
                break
            with span(paused=False):
                t0 = time.perf_counter()
                try:
                    res, exc = op.run(api), None
                except Exception as e:  # the operation failed; counted, never fatal
                    res, exc = None, e
                latencies.append(time.perf_counter() - t0)
            if tracer is None:
                refs.append(time_reference())
            with span(paused=True):
                problems = outcomes.record(i, res, exc, pass_no)
                if on_op is not None:
                    on_op(op, res, problems)
        if latencies:
            passes.append(latencies)
            pass_refs.append(refs)
        if tracer is not None:
            pass_traces.append(_trace_snapshot(tracer, time.perf_counter() - pass_start))
        if after_pass is not None and len(latencies) == len(ops):
            after_pass()
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            return passes, pass_refs, pass_traces


def reference_work() -> int:
    """A fixed pure-Python computation in the library's style: products and
    sums of exact fractions, tuples and a dict of marginals. One run is the
    unit ("ref") of the operations' costs; it uses nothing of suffcause, so
    no change to the library moves it."""
    probs = [Fraction(k, 16) for k in range(1, 16)]
    marginal: dict[tuple[int, ...], Fraction] = {}
    for i in range(400):
        p = probs[i % 15] * probs[i * 7 % 15] * probs[i * 11 % 15]
        row = tuple((i >> b) & 1 for b in range(6))
        marginal[row[:3]] = marginal.get(row[:3], Fraction(0)) + p
    return len(marginal)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def paired_costs(passes: list[list[float]], pass_refs: list[list[float]]) -> list[float]:
    """Each operation's cost in reference units: per run, its latency over
    the mean of the reference runs just before and after it; the median of
    that over its runs."""
    ratios: list[list[float]] = [[] for _ in passes[0]]
    for latencies, refs in zip(passes, pass_refs):
        for i, t in enumerate(latencies):
            ratios[i].append(2 * t / (refs[i] + refs[i + 1]))
    return [statistics.median(r) for r in ratios]


def runs_per_op(passes: list[list[float]]) -> list[list[float]]:
    return [[p[i] for p in passes if i < len(p)] for i in range(len(passes[0]))]


def best_latencies(passes: list[list[float]]) -> list[float]:
    """Each operation's fastest run: its cost without the time other
    tenants of the machine took (see the module docstring)."""
    return [min(runs) for runs in runs_per_op(passes)]


def ops_per_s(passes: list[list[float]]) -> float:
    best = best_latencies(passes)
    return len(best) / sum(best)


def _trace_snapshot(tracer: tr.Tracer, wall: float) -> dict:
    snap: dict[str, float] = {}
    for layer in tr.LAYERS + (tr.BENCH,):
        snap[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        if layer != tr.BENCH:
            snap[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    for name, value in tracer.counts.items():
        snap[name] = value
    snap["trace.wall_s"] = wall
    snap["trace.residual_s"] = wall - sum(snap[f"{l}.self_s"] for l in tr.LAYERS + (tr.BENCH,))
    return snap


def tail(values: list[float]) -> tuple[float, int]:
    """(value, values beyond it): the TAIL_PERCENTILE by nearest rank."""
    ordered = sorted(values)
    rank = -(-TAIL_PERCENTILE * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_one(args) -> int:
    before = time_reference()
    built, workdir, first_setup = setup(args.workload, args.seed)
    setup_runs = [(first_setup, before, time_reference())]  # (seconds, reference before, after)

    def after_pass():
        before = time_reference()
        seconds = repeat_setup(args.workload, args.seed)
        setup_runs.append((seconds, before, time_reference()))

    modules = {n: sys.modules[f"suffcause.{n}"] for n in tr.LAYERS}
    ops = built.ops
    outcomes = Outcomes(ops)
    draw_mismatches: list[str] = []
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_size": built.input_size(),
        "models": built.models,
        "environment": environment(),
        "setup_s_repeats": setup_runs,
    }
    try:
        if args.trace:
            # per-layer metrics are medians of per-pass figures and need no
            # tail, so each half stops after two passes once its time is up
            passes, pass_refs, _ = measure(ops, _api(modules), outcomes, args.seconds / 2, 2)
            tracer = tr.Tracer()
            proxies, restore = tr.install(tracer)

            def on_op(op, res, problems):
                split = tracer.ledger.close()
                tracer.ledger = tr.DrawLedger()
                for k, v in split.items():
                    tracer.add(f"oracle.{k}", v)
                if op.reports_draws and not problems:
                    doc = res.doc()
                    if sum(split.values()) != doc["instances_drawn"] or split["accepted"] != doc["instances_accepted"]:
                        draw_mismatches.append(
                            f"draw split {split} vs report drawn={doc['instances_drawn']} "
                            f"accepted={doc['instances_accepted']}"
                        )
            try:
                traced, _, traces = measure(ops, _api(proxies), outcomes, args.seconds / 2, 2, tracer, on_op)
            finally:
                restore()
            metrics = layer_metrics(traces, ops_per_s(passes) / ops_per_s(traced))
            record["draw_split_mismatches"] = draw_mismatches
            record["traced_passes"] = len(traces)
        else:
            passes, pass_refs, _ = measure(ops, _api(modules), outcomes, args.seconds, MIN_PASSES, after_pass=after_pass)
            metrics = {}
        costs = paired_costs(passes, pass_refs)
        cost_tail, beyond = tail(costs)
        summary = {
            "op_mean_ref": statistics.mean(costs),
            "op_p50_ref": statistics.median(costs),
            "op_tail_ref": cost_tail,
            "setup_s": statistics.median(2 * t / (a + b) for t, a, b in setup_runs) * SECONDS_PER_REF,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        best = best_latencies(passes)
        record["wall_clock"] = {
            "ops_per_s": ops_per_s(passes),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_tail_ms": tail(best)[0] * 1e3,
            "setup_s": statistics.median(t for t, _, _ in setup_runs),
            "reference_best_ms": min(r for refs in pass_refs for r in refs) * 1e3,
        }
        record.update({
            "end_to_end": summary,
            "failed_op_ratio": outcomes.failed / outcomes.attempted,
            "tail": {"percentile": TAIL_PERCENTILE, "operations": len(costs), "beyond": beyond},
            "passes": len(passes),
            "op_latency": [
                {"op": i, "kind": op.kind, "runs": len(runs), "cost_ref": cost, "best_ms": min(runs) * 1e3,
                 "median_ms": statistics.median(runs) * 1e3, "slowest_ms": max(runs) * 1e3}
                for i, (op, runs, cost) in enumerate(zip(ops, runs_per_op(passes), costs))
            ],
            "pass_latencies_ms": [[round(t * 1e3, 3) for t in p] for p in passes],
            "digest": outcomes.digest(),
            "selftest": planted_fault_selftest(outcomes),
            "problems": outcomes.problems,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (
        outcomes.failed == 0
        and bool(record["selftest"])
        and all(record["selftest"].values())
        and not draw_mismatches
    )
    units = dict(PER_LAYER if args.trace else END_TO_END)
    chosen = metrics if args.trace else summary
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k, _ in (PER_LAYER if args.trace else END_TO_END)},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")

    size = record["input_size"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {size['ops_per_pass']} ops "
          f"({size['ops_by_kind']}); nodes {size['nodes']}, worlds/model {size['worlds_per_model']}")
    print(f"  failed_op_ratio {record['failed_op_ratio']:.4f} ratio ({outcomes.failed}/{outcomes.attempted}); "
          f"tail p{TAIL_PERCENTILE} with {beyond} of {len(costs)} operations beyond; digest {record['digest'][:16]}; "
          f"self-test {record['selftest']}")
    for p in outcomes.problems[:5] + draw_mismatches[:5]:
        print(f"  problem: {p}")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def layer_metrics(traces: list[dict], overhead_ratio: float) -> dict:
    """Counts come from traced pass 0, whose inputs are those of the digest
    pass, so they repeat exactly; times and rates are medians over passes."""
    for t in traces:
        joint_s = t.get("scm.joint_s", 0.0)
        t["scm.worlds_per_s"] = t.get("scm.worlds", 0.0) / joint_s if joint_s else 0.0
    keys = {k for t in traces for k in t}
    out = {
        k: statistics.median(t.get(k, 0.0) for t in traces) if k.endswith("_s") else traces[0].get(k, 0.0)
        for k in keys
    }
    draws = out.get("oracle.draws", 0.0)
    out["oracle.accept_ratio"] = out.get("oracle.accepted", 0.0) / draws if draws else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return {k: out.get(k, 0.0) for k, _ in PER_LAYER}


# -- all workloads ---------------------------------------------------------------

def run_all(args) -> int:
    ok = True
    rows = []
    for w in WORKLOADS:
        base = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed)]
        proc = subprocess.run(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        record = json.loads((RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json").read_text())
        again = subprocess.run(base + ["--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=900)
        second = json.loads((RESULTS / f"{w}-seed{args.seed}-trace0.json").read_text())
        same = again.returncode == 0 and second["digest"] == record["digest"]
        ok = ok and result["correct"] and same
        rows.append((w, result, record, same))
    for w, result, record, same in rows:
        print(f"== {w} (seed {args.seed}): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={record['digest'][:16]} reproduced={same}")
        print(f"   input: {record['input_size']}")
        for name, m in result["metrics"].items():
            print(f"   {name:<26} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'failed_op_ratio':<26} {record['failed_op_ratio']:>14.6g} ratio")
        for name, value in record["wall_clock"].items():
            unit = {"ops_per_s": "1/s", "setup_s": "s"}.get(name, "ms")
            print(f"   {name:<26} {value:>14.6g} {unit} (wall clock)")
        t = record["tail"]
        print(f"   (op_tail is p{t['percentile']} of {t['operations']} operations, {t['beyond']} beyond)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suffcause" / "__init__.py").is_file():
        print(f"error: no suffcause sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
