"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every criterion prints a single pass line (visible with ``pytest -s``); the
pytest verdict per test is the machine-readable pass/fail signal. All
tolerances are zero: claims are checked with exact rationals.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from suffcause import (
    Dag,
    EventSpace,
    Literal,
    ResponseTable,
    canonical_representation,
    check_transfer_premises_direct,
    check_transfer_premises_shared,
    conditional_covariance,
    conditional_independent,
    d_separated,
    detect_monotonic_effect,
    draw_plan,
    expand_model,
    facts_from_scm,
    is_determinative,
    is_minimal_sufficient,
    joint_distribution,
    load_model,
    monotonic_effect_via_canonical,
    pair_conclusions,
    random_instance,
    stratum_independent,
    transfer_sign,
    verify_claim,
)
from suffcause.covsign import Flag
from suffcause.oracle import ConditioningError, GenerationError
from suffcause.signs import Relation

from support import CASE_RULES, case_instances, fixture, random_dag, without_term

REPO = Path(__file__).resolve().parent.parent


def _elapsed_ok(t0: float, budget: float, label: str) -> None:
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {label}: PASS ({dt:.1f}s)")


def _single_parent_supports():
    return [
        tuple(r for i, r in enumerate((0, 1, 2, 3)) if mask >> i & 1)
        for mask in range(1, 16)
    ]


def _two_parent_supports(count=1000, seed=20260808):
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        mask = rng.randint(1, (1 << 16) - 1)
        if mask in seen:
            continue
        seen.add(mask)
        out.append(tuple(r for r in range(16) if mask >> r & 1))
    return out


def _table(parents, rows):
    k = len(rows)
    return ResponseTable("D", parents, tuple(rows), (Fraction(1, k),) * k)


def test_criterion_1_canonical_representation_soundness():
    t0 = time.monotonic()
    tables = [_table(("E",), rows) for rows in _single_parent_supports()]
    tables += [_table(("E1", "E2"), rows) for rows in _two_parent_supports()]
    rng = random.Random(99)
    for _ in range(200):
        rows = tuple(rng.sample(range(256), rng.randint(1, 6)))
        tables.append(_table(("E1", "E2", "E3"), rows))
    for t in tables:
        rep = canonical_representation(t)
        assert is_determinative(t, rep.terms)
        for term in rep.terms:
            assert is_minimal_sufficient(t, term)
    _elapsed_ok(t0, 10.0, "1 canonical-representation soundness")


def test_criterion_2_example_fidelity():
    t0 = time.monotonic()

    # event-level minimal sufficient conjunction lists
    sp = EventSpace("B", "C", "E", "F")
    B, C, E, F = sp.vars()
    A = B | (C & E)
    events = {"B": B, "C": C, "D": E & F}
    assert sp.minimal_sufficient_conjunctions(A, events) == [("B",), ("C", "D")]
    events["E"] = E
    assert sp.minimal_sufficient_conjunctions(A, events) == [("B",), ("C", "D"), ("C", "E")]
    terms = [[B], [C, E & F], [C, E]]
    assert sp.determinative(A, terms)
    assert not sp.nonredundant(A, terms)

    # full single-parent family: background, identity, and inverter co-causes
    full = ResponseTable("D", ("E",), (0, 1, 2, 3), (Fraction(1, 4),) * 4)
    rep = canonical_representation(full)
    assert len(rep.terms) == 3
    t_bg, t_id, t_inv = rep.terms
    assert t_bg.literals == () and t_bg.cocause.states == (3,)
    assert [l.render() for l in t_id.literals] == ["E"] and t_id.cocause.states == (2,)
    assert [l.render() for l in t_inv.literals] == ["~E"] and t_inv.cocause.states == (1,)

    # stratum verdicts on the four expansion fixtures
    def expanded(name):
        exp, source = expand_model(load_model(fixture(name)), "D")
        assert source == "declared"
        return exp

    pairs = expanded("pairs_disjoint")
    for x in ("E1", "E2"):
        for y in ("E3", "E4"):
            assert stratum_independent(pairs, x, y, (), 0)
    assert not stratum_independent(pairs, "E1", "E3", (), 1)

    overlap = expanded("pairs_overlap")
    assert not stratum_independent(overlap, "E1", "A", (), 0)
    assert not stratum_independent(overlap, "E1", "E2", (), 0)
    assert not stratum_independent(overlap, "E2", "A", (), 0)

    assert stratum_independent(expanded("redundancy_base"), "A", "E", (), 0)
    assert not stratum_independent(expanded("redundancy_extra"), "A", "E", (), 0)

    _elapsed_ok(t0, 1.0, "2 example fidelity")


def test_criterion_3_monotonicity_criteria_agree():
    t0 = time.monotonic()
    tables = [_table(("E",), rows) for rows in _single_parent_supports()]
    tables += [_table(("E1", "E2"), rows) for rows in _two_parent_supports()]
    for t in tables:
        for p in t.parents:
            assert detect_monotonic_effect(t, p) is monotonic_effect_via_canonical(t, p)
    _elapsed_ok(t0, 10.0, "3 monotonic-effect criteria agreement")


def test_criterion_4_pair_covariance_cases():
    t0 = time.monotonic()
    for rule in CASE_RULES:
        checked = 0
        for scm, facts in case_instances(rule, 200, seed=1000 + hash(rule) % 1000):
            conclusions = [c for c in pair_conclusions(facts) if c.rule == rule]
            assert conclusions, rule
            dist = joint_distribution(scm)
            for c in conclusions:
                assert verify_claim(dist, c), (rule, checked)
            checked += 1
        assert checked == 200
    _elapsed_ok(t0, 60.0, "4 pair-covariance rules, 8 cases x 200 instances")


def test_criterion_5_d_separation_soundness():
    t0 = time.monotonic()
    rng = random.Random(555)
    graphs = 0
    verdicts = 0
    while graphs < 500:
        g = random_dag(rng, rng.randint(2, 6), 0.45)
        m = random_instance(draw_plan(g, states=(1, 2)), graphs)
        graphs += 1
        dist = joint_distribution(m)
        names = list(g.nodes)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                x, y = names[i], names[j]
                rest = [n for n in names if n not in (x, y)]
                zs = [frozenset()]
                for _ in range(2):
                    zs.append(frozenset(n for n in rest if rng.random() < 0.5))
                for z in set(zs):
                    verdicts += 1
                    if d_separated(g, x, y, z):
                        assert conditional_independent(dist, x, y, sorted(z)), (
                            g.edges, x, y, sorted(z))
    assert verdicts >= 500
    _elapsed_ok(t0, 120.0, f"5 d-separation soundness ({graphs} graphs, {verdicts} verdicts)")


TRANSFER_FIXTURES = (
    # name, passes_direct, inner rule, D row pool, expected outer relation
    ("transfer_chain_a", True, "no_background_d1", (0, 8, 10, 12, 14), Relation.LE0),
    ("transfer_chain_b", True, "no_background_d1", (0, 8, 10, 12, 14), Relation.LE0),
    ("transfer_descendants", False, "no_background_d1", (0, 8, 10, 12, 14), Relation.LE0),
    ("transfer_shared_a", False, "lone_cause_absent_d1", (0, 8, 12, 15), Relation.GE0),
    ("transfer_shared_b", False, "no_background_d1", (0, 8, 10, 12, 14), Relation.LE0),
)


def test_criterion_6_transfer_rules():
    t0 = time.monotonic()

    # applicability pattern
    for name, passes_direct, *_ in TRANSFER_FIXTURES:
        model = load_model(fixture(name))
        q = ("Q",) if "Q" in model.dag else ()
        direct = check_transfer_premises_direct(model.dag, "F", "G", "E1", "E2", "D")
        shared = check_transfer_premises_shared(model.dag, "F", "G", "E1", "E2", "D", q)
        assert direct.satisfied == passes_direct, (name, direct.failures())
        assert shared.satisfied, (name, shared.failures())

    # oracle sweeps
    for name, passes_direct, inner_rule, pool, outer_rel in TRANSFER_FIXTURES:
        model = load_model(fixture(name))
        g = model.dag
        q = ("Q",) if "Q" in g else ()
        premises = (
            check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
            if passes_direct
            else check_transfer_premises_shared(g, "F", "G", "E1", "E2", "D", q)
        )
        plan = draw_plan(g, row_filter={"D": lambda rows, pool=pool: set(rows) <= set(pool)}, states=(1, 2))
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            assert seed < 6000, (name, checked)
            try:
                m = random_instance(plan, seed)
            except GenerationError:
                continue
            try:
                facts = facts_from_scm(m, "D", "E1", "E2")
            except ValueError:
                continue
            inner = [c for c in pair_conclusions(facts) if c.rule == inner_rule]
            if not inner:
                continue
            dist = joint_distribution(m)
            try:
                conditional_covariance(dist, "F", "G", {"D": 1})
            except ConditioningError:
                continue
            outer = transfer_sign(premises, inner[0])
            assert any(c.relation is outer_rel for c in outer), (name, seed)
            for c in outer:
                assert verify_claim(dist, c), (name, seed, c.key())
            checked += 1
    _elapsed_ok(t0, 120.0, "6 transfer rules on the five fixture graphs")


def test_criterion_7_coaggregation_end_to_end():
    t0 = time.monotonic()

    null = load_model(fixture("coaggregation_null"))
    g = null.dag
    shared = check_transfer_premises_shared(g, "B1", "P2", "E1", "GP", "P1")
    assert shared.satisfied

    plan = draw_plan(
        g, row_filter={"P1": without_term("P1", g.parents("P1"), (Literal("E1"), Literal("GP")))}, states=(1, 2)
    )
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        assert seed < 4000
        try:
            m = random_instance(plan, seed)
        except GenerationError:
            continue
        facts = facts_from_scm(m, "P1", "E1", "GP")
        if facts.a3 is not Flag.ZERO or not facts.e_cov.implies(Relation.LE0):
            continue
        dist = joint_distribution(m)
        try:
            cov = conditional_covariance(dist, "B1", "P2", {"P1": 1})
        except ConditioningError:
            continue
        assert cov <= 0, (seed, cov)
        inner = [c for c in pair_conclusions(facts) if c.rule == "no_synergy_d1"]
        assert inner
        for c in transfer_sign(shared, inner[0]):
            assert verify_claim(dist, c), seed
        checked += 1

    # power: restoring the shared familial factor can push the covariance
    # strictly positive under the same mechanism constraints, on a copy of
    # its graph with every edge signed "+"
    full = load_model(fixture("coaggregation_full")).dag
    gf = Dag(full.nodes, full.edges, dict.fromkeys(full.edges, "+"))
    plan_f = draw_plan(
        gf, row_filter={"P1": without_term("P1", gf.parents("P1"), (Literal("E1"), Literal("GP")))}, states=(1, 2)
    )
    found = None
    for seed in range(4000):
        try:
            m = random_instance(plan_f, seed)
        except GenerationError:
            continue
        dist = joint_distribution(m)
        try:
            cov = conditional_covariance(dist, "B1", "P2", {"P1": 1})
        except ConditioningError:
            continue
        if cov > 0:
            found = (seed, cov)
            break
    assert found is not None, "no strictly positive instance found"
    _elapsed_ok(t0, 60.0, f"7 coaggregation end-to-end (positive witness seed {found[0]})")


def _report_bytes(hashseed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = hashseed
    chunks = []
    commands = [
        ["canonical", fixture("pairs_overlap"), "--node", "D"],
        ["expand", fixture("pairs_disjoint"), "--node", "D"],
        ["dsep", fixture("coaggregation_full"), "--x", "P2", "--y", "B1", "--z", "P1"],
        ["stratum-ci", fixture("pairs_overlap"), "--node", "D", "--x", "E1", "--y", "A"],
        ["signs", fixture("coaggregation_null")],
        ["covsign", fixture("coaggregation_null"), "--d", "P1", "--f", "B1", "--g", "P2"],
        ["oracle-check", fixture("coaggregation_null"), "--d", "P1", "--f", "B1",
         "--g", "P2", "--instances", "10", "--seed", "3"],
    ]
    for cmd in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "suffcause", *cmd, "--format", "json"],
            capture_output=True, env=env, cwd=str(REPO),
        )
        assert proc.returncode in (0, 1), (cmd, proc.stderr.decode())
        chunks.append(proc.stdout)
    return b"\n".join(chunks)


def test_criterion_8_deterministic_reports():
    t0 = time.monotonic()
    first = _report_bytes("0")
    second = _report_bytes("424242")
    assert first == second
    _elapsed_ok(t0, 120.0, "8 byte-identical reports across runs")
