"""Workload inputs, operations and output checks.

Each builder turns a seed into model files plus a fixed list of operations.
An operation is one real entry point: ``suffcause.cli.main(argv)`` with its
output captured, or a short sequence of public library calls. Operations
reach the library only through ``api`` (the modules themselves, or the
tracer's stand-ins for them), so a traced run sees every call the benchmark
makes. Checks read the results afterwards, outside the timed region, and
return a list of problems; an empty list means the output is correct.

Sizes are fixed by the workload, and the seed chooses only the content
(edges, signs, response rows, probabilities, queries), so runs at different
seeds do the same amount of work. oracle_check takes nothing from the seed,
because there the content itself sets the cost (see VARIANT_SHAPES).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FIXTURE_DIR = "fixtures"


@dataclass
class Op:
    kind: str
    run: Callable[[object], object]  # api -> result
    check: Callable[[object], list[str]]
    fault: Callable[[object], object] | None = None  # plants a flipped verdict
    reports_draws: bool = False  # an oracle-check report whose draws come from the generator


@dataclass
class Workload:
    ops: list[Op]
    models: list[dict] = field(default_factory=list)  # one size record per model file

    def input_size(self) -> dict:
        worlds = [m["worlds"] for m in self.models if m["worlds"] is not None]
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {
            "model_files": len(self.models),
            "nodes": _spread([m["nodes"] for m in self.models]),
            "max_parents": max(m["max_parents"] for m in self.models),
            "worlds_per_model": _spread(worlds) if worlds else None,
            "ops_per_pass": len(self.ops),
            "ops_by_kind": kinds,
        }


def _spread(values: list[int]) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


# -- model construction --------------------------------------------------------

def _table(rng: random.Random, node: str, parents: tuple[str, ...], n_states: int,
           must: tuple[int, ...] = ()):
    from suffcause import scm
    n_configs = 1 << len(parents)
    rows = list(must)
    while len(rows) < n_states:
        r = rng.getrandbits(n_configs)
        if r not in rows:
            rows.append(r)
    # state probabilities are multiples of 1/16, so the exact rationals a
    # joint multiplies, and with them its cost, have the same size at every seed
    cuts = sorted(rng.sample(range(1, 16), n_states - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [16])]
    return scm.ResponseTable(node, parents, tuple(rows), tuple(Fraction(w, 16) for w in weights))


def _write(workdir: str, name: str, dag, tables=None, assertions=()) -> tuple[str, dict]:
    from suffcause import modelfile, scm
    model = modelfile.Model(dag, tables or {}, {}, tuple(modelfile.Assertion(k, tuple(a)) for k, a in assertions))
    path = os.path.join(workdir, f"{name}.model")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(modelfile.serialize_model(model))
    worlds = scm.Scm(dag, tables).world_count() if tables and len(tables) == len(dag.nodes) else None
    size = {
        "file": name,
        "nodes": len(dag.nodes),
        "max_parents": max(len(dag.parents(n)) for n in dag.nodes),
        "worlds": worlds,
    }
    return path, size


def _fixture(name: str) -> tuple[str, dict]:
    from suffcause import modelfile
    path = os.path.join(FIXTURE_DIR, f"{name}.model")
    model = modelfile.load_model(path)
    worlds = model.to_scm().world_count() if model.fully_specified else None
    return path, {
        "file": name,
        "nodes": len(model.dag.nodes),
        "max_parents": max(len(model.dag.parents(n)) for n in model.dag.nodes),
        "worlds": worlds,
    }


# -- command-line operations ---------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def doc(self) -> dict:
        return json.loads(self.out)

    def digest_text(self) -> str:
        return f"{self.code}\n{self.out}"


def _cli_op(kind: str, argv: list[str], check, fault=None) -> Op:
    argv = list(argv) + ["--format", "json"]

    def run(api) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return Op(kind, run, check, fault)


def _expect_code(res: CliResult, codes: tuple[int, ...]) -> list[str]:
    if res.code not in codes:
        return [f"exit {res.code}, expected {codes}: {res.err.strip()[:200]}"]
    return []


def _with_doc(res: CliResult, codes: tuple[int, ...], inspect_doc) -> list[str]:
    problems = _expect_code(res, codes)
    if problems:
        return problems
    try:
        doc = res.doc()
    except ValueError as e:
        return [f"report is not JSON: {e}"]
    return inspect_doc(doc)


def _edit_doc(res: CliResult, edit, code: int | None = None) -> CliResult:
    doc = res.doc()
    edit(doc)
    return CliResult(res.code if code is None else code, json.dumps(doc, indent=2), res.err)


# oracle-check: zero violations and exit 0

def _check_oracle_report(doc: dict, premise_only: bool) -> list[str]:
    problems = []
    if doc["failures"]:
        problems.append(f"{len(doc['failures'])} violations")
    for v in doc["verification"]:
        if v["violations"]:
            problems.append(f"{v['conclusion']}: {v['violations']} violations")
        if v["checked"] != doc["instances_accepted"]:
            problems.append(f"{v['conclusion']}: checked {v['checked']} of {doc['instances_accepted']}")
    if not premise_only and doc["instances_accepted"] != 1:
        problems.append("fully specified model must be checked once")
    if not doc["verification"]:
        problems.append("no conclusions verified")
    return problems


def oracle_check_op(argv: list[str], premise_only: bool) -> Op:
    def check(res):
        return _with_doc(res, (0,), lambda doc: _check_oracle_report(doc, premise_only))

    def fault(res):
        def edit(doc):
            doc["verification"][0]["violations"] += 1
            doc["failures"].append({"conclusion": doc["verification"][0]["conclusion"], "seed": None})
        return _edit_doc(res, edit, code=1)

    op = _cli_op("oracle-check", argv, check, fault)
    op.reports_draws = premise_only
    return op


# dsep: find_unblocked_path returns None exactly when d_separated holds

def dsep_op(path: str, x: list[str], y: list[str], z: list[str]) -> Op:
    argv = ["dsep", path]
    for flag, names in (("--x", x), ("--y", y), ("--z", z)):
        for n in names:
            argv += [flag, n]

    def check(res):
        from suffcause import graph, modelfile
        dag = modelfile.load_model(path).dag

        def inspect_doc(doc):
            truth = graph.d_separated(dag, x, y, z)
            if doc["separated"] != truth:
                return [f"separated={doc['separated']} but d_separated={truth}"]
            if (doc["witness"] is None) != truth:
                return ["witness present exactly when not separated"]
            if res.code != (0 if truth else 1):
                return [f"exit {res.code} for separated={truth}"]
            return []
        return _with_doc(res, (0, 1), inspect_doc)

    def fault(res):
        def edit(doc):
            doc["separated"] = not doc["separated"]
        return _edit_doc(res, edit)

    return _cli_op("dsep", argv, check, fault)


# canonical: terms determinative, each minimal sufficient; monotone criteria agree

def _terms_from_doc(entry: dict):
    from suffcause.causes import CoCause, CoCauseKind, Conjunction, Literal
    terms = []
    for t in entry["terms"]:
        lits = tuple(Literal.parse(s) for s in t["literals"])
        cocause = CoCause(CoCauseKind.ONE) if t["cocause"] == "one" else CoCause(CoCauseKind.STATES, tuple(t["cocause"]))
        terms.append(Conjunction(lits, cocause))
    return terms


def _monotone_agreement(table) -> list[str]:
    from suffcause import signs
    problems = []
    for p in table.parents:
        direct = signs.detect_monotonic_effect(table, p)
        via = signs.monotonic_effect_via_canonical(table, p)
        if direct is not via:
            problems.append(f"{table.node}<-{p}: detect={direct.value} canonical={via.value}")
    return problems


def canonical_op(path: str, node: str) -> Op:
    def check(res):
        from suffcause import causes, modelfile, scm
        model = modelfile.load_model(path)

        def inspect_doc(doc):
            problems = []
            (entry,) = doc["representations"]
            table = scm.dedupe_states(model.tables[node])
            terms = _terms_from_doc(entry)
            if not causes.is_determinative(table, terms):
                problems.append("terms are not determinative")
            for t in terms:
                if not causes.is_minimal_sufficient(table, t):
                    problems.append(f"term {t.render()} is not minimal sufficient")
            return problems + _monotone_agreement(table)
        return _with_doc(res, (0,), inspect_doc)

    def fault(res):
        def edit(doc):
            doc["representations"][0]["terms"].pop()
        return _edit_doc(res, edit)

    return _cli_op("canonical", ["canonical", path, "--node", node], check, fault)


# signs: computed edge signs agree with the canonical complement criterion

def signs_op(path: str) -> Op:
    def check(res):
        from suffcause import modelfile, scm, signs
        model = modelfile.load_model(path)

        def inspect_doc(doc):
            problems = []
            n = len(model.dag.nodes)
            if len(doc["associations"]) != n * (n - 1) // 2:
                problems.append("association table is incomplete")
            for e in doc["edges"]:
                if e["to"] not in model.tables:
                    continue
                table = scm.dedupe_states(model.tables[e["to"]])
                via = signs.monotonic_effect_via_canonical(table, e["from"]).value
                if e["computed"] != via:
                    problems.append(f"edge {e['from']}->{e['to']}: computed {e['computed']} canonical {via}")
            return problems
        return _with_doc(res, (0,), inspect_doc)

    def fault(res):
        flip = {"+": "-", "-": "+", "?": "+", None: "+"}

        def edit(doc):
            if any(e["computed"] is not None for e in doc["edges"]):
                e = next(e for e in doc["edges"] if e["computed"] is not None)
                e["computed"] = flip[e["computed"]]
            else:
                doc["associations"].pop()
        return _edit_doc(res, edit)

    return _cli_op("signs", ["signs", path], check, fault)


# expand: the target becomes an OR over one AND node per term

def expand_op(path: str, node: str) -> Op:
    def check(res):
        def inspect_doc(doc):
            kinds = {n["name"]: n["kind"] for n in doc["nodes"]}
            into_target = [e["from"] for e in doc["edges"] if e["to"] == node]
            ands = [n for n in into_target if kinds[n] in ("and", "cocause")]
            problems = []
            if kinds.get(node) != "or":
                problems.append("target is not the OR node")
            if len(ands) != len(into_target) or len(ands) != len(doc["representation"]["terms"]):
                problems.append("target parents are not exactly one AND node per term")
            return problems
        return _with_doc(res, (0,), inspect_doc)

    def fault(res):
        def edit(doc):
            doc["edges"].remove(next(e for e in doc["edges"] if e["to"] == node))
        return _edit_doc(res, edit)

    return _cli_op("expand", ["expand", path, "--node", node], check, fault)


# stratum-ci: an "independent" verdict holds exactly in the model's own joint,
# which is one parameterization the verdict covers

def stratum_op(path: str, node: str, x: str, y: str, stratum: int) -> Op:
    argv = ["stratum-ci", path, "--node", node, "--x", x, "--y", y, "--stratum", str(stratum)]

    def check(res):
        from suffcause import modelfile, oracle, scm
        model = modelfile.load_model(path)

        def inspect_doc(doc):
            independent = doc["verdict"] == "independent within stratum"
            if independent != (res.code == 0) or independent != (doc["witness"] is None):
                return ["verdict, witness and exit code disagree"]
            if independent:
                dist = scm.joint_distribution(model.to_scm())
                if not oracle.conditional_independent(dist, x, y, (), {node: stratum}):
                    return ["independent verdict fails exact conditional independence"]
            return []
        return _with_doc(res, (0, 1), inspect_doc)

    def fault(res):
        def edit(doc):
            flipped = doc["verdict"] != "independent within stratum"
            doc["verdict"] = "independent within stratum" if flipped else "not implied independent"
        return _edit_doc(res, edit, code=1 - res.code)

    return _cli_op("stratum-ci", argv, check, fault)


# covsign: deterministic verdict with conclusions exactly when it succeeds

def covsign_op(path: str, d: str, f: str | None, g: str | None, q: tuple[str, ...], code: int) -> Op:
    argv = ["covsign", path, "--d", d]
    for flag, v in (("--f", f), ("--g", g)):
        if v is not None:
            argv += [flag, v]
    for n in q:
        argv += ["--q", n]

    def check(res):
        def inspect_doc(doc):
            transfer_ok = "transferred_conclusions" not in doc or bool(doc["transferred_conclusions"])
            if (code == 0) != (bool(doc["parent_conclusions"]) and transfer_ok):
                return [f"exit {res.code} disagrees with the conclusions reported"]
            return []
        return _with_doc(res, (code,), inspect_doc)

    def fault(res):
        return CliResult(1 - res.code, res.out, res.err)

    return _cli_op("covsign", argv, check, fault)


# d-separation audit: one joint, every verdict against exact independence

@dataclass
class AuditResult:
    dist: object
    verdicts: list[tuple[str, str, tuple[str, ...], bool, bool]]

    def digest_text(self) -> str:
        return json.dumps([str(self.dist.mass()), self.verdicts])


def audit_op(path: str, queries: list[tuple[str, str, tuple[str, ...]]]) -> Op:
    def run(api) -> AuditResult:
        model = api.modelfile.load_model(path)
        dag = model.dag
        dist = api.scm.joint_distribution(model.to_scm())
        verdicts = []
        for x, y, z in queries:
            sep = api.graph.d_separated(dag, x, y, z)
            ind = api.oracle.conditional_independent(dist, x, y, z)
            verdicts.append((x, y, z, sep, ind))
        return AuditResult(dist, verdicts)

    def check(res: AuditResult) -> list[str]:
        problems = []
        if res.dist.mass() != 1:
            problems.append(f"joint mass is {res.dist.mass()}, not 1")
        for x, y, z, sep, ind in res.verdicts:
            if sep and not ind:
                problems.append(f"{x} _||_ {y} | {list(z)} separated but dependent")
        if not any(sep for *_, sep, _ in res.verdicts):
            problems.append("no separated query was audited")
        return problems

    def fault(res: AuditResult) -> AuditResult:
        verdicts = list(res.verdicts)
        i = next(i for i, v in enumerate(verdicts) if v[3])
        x, y, z, sep, ind = verdicts[i]
        verdicts[i] = (x, y, z, sep, not ind)
        return AuditResult(res.dist, verdicts)

    return Op("audit", run, check, fault)


# -- oracle_check ----------------------------------------------------------------

ORACLE_INSTANCES = 3
# The flagship coaggregation check (the README example) at fixed generator
# seeds, among the slowest operations of the pass.
FLAGSHIP_SEEDS = (7, 8, 9)
FLAGSHIP_INSTANCES = 20
ORACLE_VARIANTS = (
    # one asserted flag on the two-parent target D; every variant also
    # asks for the proxy transfer to F and G
    ("no-synergism", ("D", "E1", "E2")),
    ("rep-flag", ("D", "E1", "E2", "a0", "zero")),
    ("rep-flag", ("D", "E1", "E2", "a1", "zero")),
    ("rep-flag", ("D", "E2", "E1", "a1", "one")),
)
# Each assertion runs on these three graph shapes, each check at its own
# fixed generator seed. The draws set a check's cost: six instances of one
# shape took 33 to 143 ms over five generator seeds, and forty instances of
# the coaggregation check 290 to 600 ms over ten; the shape moves it up to
# 2x more. So no part of this workload's input depends on the benchmark
# seed, and its runs differ only by the machine.
VARIANT_SHAPES = (
    # (A1 -> F, A2 -> G, E2 -> D negative, D -> H negative)
    (False, False, False, False),
    (True, False, True, False),
    (False, True, True, True),
)


def _premise_variant(shape: tuple[bool, bool, bool, bool], assertion: tuple[str, tuple[str, ...]]):
    """Eight premise-only nodes around a two-parent target, all edges signed."""
    from suffcause.graph import Dag
    a1_f, a2_g, e2_d_negative, d_h_negative = shape
    nodes = ["A1", "A2", "E1", "E2", "D", "F", "G", "H"]
    edges = [("A1", "E1"), ("A2", "E2"), ("E1", "D"), ("E2", "D"), ("E1", "F"), ("E2", "G"), ("D", "H")]
    if a1_f:
        edges.append(("A1", "F"))
    if a2_g:
        edges.append(("A2", "G"))
    signs = {e: "+" for e in edges}
    if e2_d_negative:
        signs[("E2", "D")] = "-"
    if d_h_negative:
        signs[("D", "H")] = "-"
    return Dag(nodes, edges, signs), [assertion]


def build_oracle_check(seed: int, workdir: str) -> Workload:
    """The same inputs at every ``seed`` (see VARIANT_SHAPES)."""
    ops, models = [], []
    path, size = _fixture("coaggregation_null")
    models.append(size)
    for flagship_seed in FLAGSHIP_SEEDS:
        argv = ["oracle-check", path, "--d", "P1", "--f", "B1", "--g", "P2",
                "--instances", str(FLAGSHIP_INSTANCES), "--seed", str(flagship_seed)]
        ops.append(oracle_check_op(argv, True))
    for i, assertion in enumerate(ORACLE_VARIANTS):
        for j, shape in enumerate(VARIANT_SHAPES):
            dag, assertions = _premise_variant(shape, assertion)
            path, size = _write(workdir, f"premise_{i}_{j}", dag, None, assertions)
            models.append(size)
            argv = ["oracle-check", path, "--d", "D", "--f", "F", "--g", "G",
                    "--instances", str(ORACLE_INSTANCES), "--seed", str(100 + len(VARIANT_SHAPES) * i + j)]
            ops.append(oracle_check_op(argv, True))
    return Workload(ops, models)


# -- exact_large -----------------------------------------------------------------

# (nodes, three-state nodes, one-state nodes); every other node has two
# states. Worlds: 1024, 1536, 2048, 2304 and 3072, so a pass takes a few
# seconds and a 40 s run repeats every operation several times.
EXACT_MODELS = ((10, 0, 0), (11, 1, 1), (12, 0, 1), (13, 2, 3), (14, 1, 3))
AUDIT_QUERIES = 8


def _exact_model(rng: random.Random, n: int, n_three: int, n_one: int):
    """A fully specified model whose target D has two positive monotone parents.

    E1 and E2 each carry a constant-0 and a constant-1 state and D's two
    rows are "one parent alone" and OR, so both strata of D have positive
    mass and D has no background cause (the no_background_d1 rule always
    applies). D's rows decide which rules fire and so how many conclusions
    oracle-check verifies (1 to 6 over pairs of AND, E1, E2 and OR rows),
    so they are fixed.

    Every non-root node has two parents, so the seed moves edges but not
    the width of any table or audit query.
    """
    from suffcause.graph import Dag
    roots = ["R0", "R1", "R2"]
    rest = [f"X{i}" for i in range(n - 6)]
    nodes = roots + ["E1", "E2", "D"] + rest
    edges = [("R0", "E1"), ("R1", "E1"), ("R1", "E2"), ("R2", "E2"), ("E1", "D"), ("E2", "D")]
    for i, x in enumerate(rest):
        for p in rng.sample(nodes[: 6 + i], 2):
            edges.append((p, x))
    dag = Dag(nodes, edges)
    states = dict.fromkeys(nodes, 2)
    for node in rng.sample(["E1", "E2"] + rest, n_three):
        states[node] = 3
    for node in rng.sample([x for x in rest if states[x] == 2], n_one):
        states[node] = 1
    tables = {}
    for node in nodes:
        parents = dag.parents(node)
        if node == "D":
            tables[node] = _table(rng, node, parents, 2, must=(10, 14))
        elif node in ("E1", "E2"):
            constant_one = (1 << (1 << len(parents))) - 1
            tables[node] = _table(rng, node, parents, states[node], must=(0, constant_one))
        else:
            tables[node] = _table(rng, node, parents, states[node])
    return dag, tables


def _audit_queries(rng: random.Random, dag) -> list[tuple[str, str, tuple[str, ...]]]:
    """Local-Markov queries: a non-root node against a non-descendant given
    its two parents. Each is separated by construction, so each verdict gets
    the full exact check; a dependent pair would end that check at its first
    unequal cell, and how many of those a seed drew would set the cost."""
    nodes = list(dag.nodes)
    queries = []
    while len(queries) < AUDIT_QUERIES:
        x = rng.choice([n for n in nodes if dag.parents(n)])
        others = [n for n in nodes if n != x and n not in dag.descendants(x) and n not in dag.parents(x)]
        if others:
            queries.append((x, rng.choice(others), dag.parents(x)))
    return queries


def build_exact_large(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops, models = [], []
    for i, (n, n_three, n_one) in enumerate(EXACT_MODELS):
        dag, tables = _exact_model(rng, n, n_three, n_one)
        path, size = _write(workdir, f"exact_{i}", dag, tables)
        models.append(size)
        ops.append(oracle_check_op(["oracle-check", path, "--d", "D"], premise_only=False))
        ops.append(audit_op(path, _audit_queries(rng, dag)))
    return Workload(ops, models)


# -- structural ------------------------------------------------------------------

DENSE_SIZES = (10, 11, 12, 13)
DENSE_BAND = 4  # N_i -> N_j for 0 < j - i <= DENSE_BAND
LAYERED_DEPTHS = (5, 6)
LAYER_WIDTH = 3
CANONICAL_PARENTS = (3, 4, 5)
CANONICAL_STATES = 3

FIXTURE_OPS = (
    ("coaggregation_null", "covsign", ("P1", "B1", "P2", ()), 0),
    ("coaggregation_null", "covsign", ("P2", "B2", "P1", ()), 0),
    ("transfer_chain_a", "covsign", ("D", "F", "G", ()), 1),
    ("transfer_chain_b", "covsign", ("D", "F", "G", ()), 1),
    ("transfer_descendants", "covsign", ("D", "F", "G", ()), 1),
    ("transfer_shared_a", "covsign", ("D", "F", "G", ("Q",)), 1),
    ("transfer_shared_b", "covsign", ("D", "F", "G", ("Q",)), 1),
    ("coaggregation_full", "dsep", (["P2"], ["B1"], ["P1"]), None),
    ("coaggregation_null", "dsep", (["P2"], ["B1"], ["P1"]), None),
    ("coaggregation_null", "dsep", (["B1"], ["B2"], []), None),
    ("transfer_shared_b", "dsep", (["F"], ["G"], ["E1", "E2", "D", "Q"]), None),
    ("pairs_disjoint", "stratum-ci", ("D", "E1", "E3", 0), None),
    ("pairs_overlap", "stratum-ci", ("D", "E1", "A", 0), None),
    ("redundancy_base", "stratum-ci", ("D", "A", "E", 0), None),
    ("redundancy_extra", "stratum-ci", ("D", "A", "F", 1), None),
)
FULL_FIXTURES = ("pairs_disjoint", "pairs_overlap", "redundancy_base", "redundancy_extra")
ALL_FIXTURES = (
    "coaggregation_full", "coaggregation_null", "pairs_disjoint", "pairs_overlap",
    "redundancy_base", "redundancy_extra", "transfer_chain_a", "transfer_chain_b",
    "transfer_descendants", "transfer_shared_a", "transfer_shared_b",
)


def _dense_dag(rng: random.Random, n: int):
    """A banded DAG: its shape, and so the work ``signs`` does on it, is fixed
    by ``n``; the seed picks the edge signs and the declaration order."""
    from suffcause.graph import Dag
    order = [f"N{i}" for i in range(n)]
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, min(n, i + DENSE_BAND + 1))]
    declared = rng.sample(order, n)
    return Dag(declared, edges, {e: rng.choice("+-") for e in edges})


def _layered_dag(rng: random.Random, depth: int):
    from suffcause.graph import Dag
    layers = [[f"L{d}_{k}" for k in range(LAYER_WIDTH)] for d in range(depth)]
    edges = [(a, b) for d in range(depth - 1) for a in layers[d] for b in layers[d + 1]]
    nodes = [n for layer in layers for n in layer]
    return Dag(nodes, edges, {e: rng.choice("+-") for e in edges}), layers


def _canonical_model(rng: random.Random, k: int):
    """D's response rows are the same for every seed, which only orders the
    parents (so renames the variables of D's functions) and picks their
    probabilities: the size of a canonical representation, and with it the
    cost of canonical, expand and stratum-ci, moved by 20% between random
    five-parent tables."""
    from suffcause.graph import Dag
    from suffcause.scm import ResponseTable
    order = rng.sample([f"P{i}" for i in range(k)], k)
    dag = Dag(order + ["D"], [(p, "D") for p in order])
    tables = {p: ResponseTable.bernoulli(p, Fraction(rng.randint(1, 7), 8)) for p in order}
    tables["D"] = _table(random.Random(k), "D", tuple(order), CANONICAL_STATES)
    return dag, tables


def build_structural(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops, models = [], []
    paths = {}
    for name in ALL_FIXTURES:
        paths[name], size = _fixture(name)
        models.append(size)
        ops.append(signs_op(paths[name]))
    for name in FULL_FIXTURES:
        ops.append(canonical_op(paths[name], "D"))
        ops.append(expand_op(paths[name], "D"))
    for name, kind, args, code in FIXTURE_OPS:
        if kind == "covsign":
            ops.append(covsign_op(paths[name], *args, code=code))
        elif kind == "dsep":
            ops.append(dsep_op(paths[name], *args))
        else:
            ops.append(stratum_op(paths[name], *args))
    for i, n in enumerate(DENSE_SIZES):
        path, size = _write(workdir, f"dense_{i}", _dense_dag(rng, n))
        models.append(size)
        ops.append(signs_op(path))
    for i, depth in enumerate(LAYERED_DEPTHS):
        dag, layers = _layered_dag(rng, depth)
        path, size = _write(workdir, f"layered_{i}", dag)
        models.append(size)
        x, y = rng.choice(layers[0]), rng.choice(layers[-1])
        ops.append(dsep_op(path, [x], [y], layers[-2]))  # separated: every path crosses that layer
        ops.append(dsep_op(path, [x], [y], []))  # open: a directed path exists
    for i, k in enumerate(CANONICAL_PARENTS):
        dag, tables = _canonical_model(rng, k)
        path, size = _write(workdir, f"canonical_{i}", dag, tables)
        models.append(size)
        ops.append(canonical_op(path, "D"))
        ops.append(signs_op(path))
        ops.append(expand_op(path, "D"))
        ops.append(stratum_op(path, "D", "P0", "P1", rng.randint(0, 1)))
    return Workload(ops, models)


BUILDERS = {
    "oracle_check": build_oracle_check,
    "exact_large": build_exact_large,
    "structural": build_structural,
}
