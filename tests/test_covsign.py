"""Pair covariance rules, premise checkers, and sign transfer."""

import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from suffcause import (
    Dag,
    RepFacts,
    ResponseTable,
    Scm,
    SignConclusion,
    TransferPremises,
    check_transfer_premises_direct,
    check_transfer_premises_shared,
    conditional_covariance,
    covsign_analysis,
    expectation_monotone_premise,
    facts_from_scm,
    joint_distribution,
    load_model,
    oracle_check,
    pair_conclusions,
    parse_model,
    read_assertions,
    transfer_sign,
    verify_claim,
)
from suffcause import covsign, oracle
from suffcause.causes import CoCauseKind, canonical_representation
from suffcause.modelfile import Assertion
from suffcause.covsign import FACT_FIELDS, CovQuantity, Flag, Outcome, _PAIR_RULES, _table_slots
from suffcause.scm import dedupe_states
from suffcause.signs import Relation, directional_effect_holds

from support import (
    CASE_RULES,
    MONOTONE_PAIR_ROWS,
    ROW_CONST0,
    ROW_CONST1,
    ROW_E1,
    ROW_E2,
    ROW_OR,
    _case_premises_hold,
    case_instances,
    complement_parent,
    fixture,
    grid_models,
    grid_target_tables,
    random_dag,
    reference_admits,
    reference_q_independent,
    reference_table_slots,
)

half = Fraction(1, 2)


def facts(**kw) -> RepFacts:
    base = dict(target="D", e1="E1", e2="E2")
    base.update(kw)
    return RepFacts(**base)


def rules_of(conclusions):
    return {(c.rule, c.quantity.stratum, c.relation) for c in conclusions}


class TestPairConclusions:
    def test_no_background_alone(self):
        got = rules_of(pair_conclusions(facts(a0=Flag.ZERO)))
        assert got == {("no_background_d1", 1, Relation.LE0)}

    def test_no_background_with_independence(self):
        got = rules_of(pair_conclusions(facts(a0=Flag.ZERO, a1_a2_indep=True, e_indep=True)))
        assert ("no_background_d0", 0, Relation.LE0) in got

    def test_lone_cause_certain(self):
        got = rules_of(pair_conclusions(facts(a1=Flag.ONE, e_cov=Relation.LE0)))
        assert ("lone_cause_certain_d1", 1, Relation.LE0) in got
        assert ("lone_cause_certain_d0", 0, Relation.EQ0) in got
        # without the marginal side condition only the zero-stratum claim fires
        got = rules_of(pair_conclusions(facts(a2=Flag.ONE, e_cov=Relation.UNKNOWN)))
        assert got == {("lone_cause_certain_d0", 0, Relation.EQ0)}

    def test_lone_cause_absent_needs_nonnegative_cov(self):
        got = rules_of(pair_conclusions(facts(a1=Flag.ZERO, e_cov=Relation.GE0, e_indep=True)))
        assert ("lone_cause_absent_d1", 1, Relation.GE0) in got
        assert ("lone_cause_absent_d0", 0, Relation.LE0) in got
        assert rules_of(pair_conclusions(facts(a1=Flag.ZERO, e_cov=Relation.LE0))) == set()

    def test_lone_cause_absent_zero_stratum_needs_independence(self):
        # Without independent parents the zero-stratum claim is not emitted;
        # the frozen model below is an exact counterexample to the claim.
        got = rules_of(pair_conclusions(facts(a1=Flag.ZERO, e_cov=Relation.GE0)))
        assert ("lone_cause_absent_d1", 1, Relation.GE0) in got
        assert ("lone_cause_absent_d0", 0, Relation.LE0) not in got

        g = Dag(["C", "E1", "E2", "D"], [("C", "E1"), ("C", "E2"), ("E1", "D"), ("E2", "D")])
        m = Scm(g, {
            "C": ResponseTable("C", (), (1, 0), (Fraction(1, 3), Fraction(2, 3))),
            "E1": ResponseTable("E1", ("C",), (2, 3), (Fraction(1, 7), Fraction(6, 7))),
            "E2": ResponseTable("E2", ("C",), (2,), (Fraction(1),)),
            "D": ResponseTable("D", ("E1", "E2"), (0, 12, 15),
                               (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))),
        })
        f = facts_from_scm(m, "D", "E1", "E2")
        assert f.a1 is Flag.ZERO and f.e_cov is Relation.GE0 and not f.e_indep
        dist = joint_distribution(m)
        assert conditional_covariance(dist, "E1", "E2", {"D": 0}) == Fraction(4, 175)

    def test_no_synergy(self):
        got = rules_of(pair_conclusions(facts(a3=Flag.ZERO, e_cov=Relation.EQ0)))
        assert ("no_synergy_d1", 1, Relation.LE0) in got
        full = facts(a3=Flag.ZERO, e_cov=Relation.EQ0, a1_a2_indep=True,
                     e_indep=True, a0_a1_indep=True)
        assert ("no_synergy_d0", 0, Relation.EQ0) in rules_of(pair_conclusions(full))

    def test_no_synergy_zero_stratum_needs_background_independence(self, monkeypatch):
        # Independent parents, no synergy and independent lone causes, but a
        # background cause tied to them: the zero stratum keeps a strictly
        # negative covariance, so a rule table without the a0 independence
        # premise claims a false "=0".
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        m = Scm(g, {
            "E1": ResponseTable.bernoulli("E1", half),
            "E2": ResponseTable.bernoulli("E2", half),
            "D": ResponseTable("D", ("E1", "E2"), (ROW_CONST1, ROW_E1, ROW_E2, ROW_OR, ROW_CONST0),
                               (Fraction(1, 8), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))),
        })
        dist = joint_distribution(m)
        f = facts_from_scm(m, "D", "E1", "E2", dist=dist)
        assert f.a3 is Flag.ZERO and f.e_indep and f.a1_a2_indep
        assert not f.a0_a1_indep and not f.a0_a2_indep
        assert conditional_covariance(dist, "E1", "E2", {"D": 0}) == Fraction(-1, 98)
        assert [c.rule for c in pair_conclusions(f)] == ["no_synergy_d1"]

        weakened = tuple(
            (rule, stratum, relation, tuple(p for p in premises if "a0_a1_indep" not in p))
            if rule == "no_synergy_d0" else (rule, stratum, relation, premises)
            for rule, stratum, relation, premises in _PAIR_RULES
        )
        monkeypatch.setattr(covsign, "_PAIR_RULES", weakened)
        (c,) = [c for c in pair_conclusions(f) if c.rule == "no_synergy_d0"]
        assert not verify_claim(dist, c)

    def test_nothing_established_nothing_emitted(self):
        assert pair_conclusions(facts()) == ()

    def test_premise_provenance_recorded(self):
        (c,) = pair_conclusions(facts(a0=Flag.ZERO, sources={"a0": "assertion"}))
        assert "a0=zero (assertion)" in c.premises
        assert "monotone(E1)=+" in c.premises


# each rule's claim about the original variables at polarity (+,+)
RULE_CLAIMS = {
    "no_background_d1": (1, Relation.LE0),
    "no_background_d0": (0, Relation.LE0),
    "lone_cause_certain_d1": (1, Relation.LE0),
    "lone_cause_certain_d0": (0, Relation.EQ0),
    "lone_cause_absent_d1": (1, Relation.GE0),
    "lone_cause_absent_d0": (0, Relation.LE0),
    "no_synergy_d1": (1, Relation.LE0),
    "no_synergy_d0": (0, Relation.EQ0),
}


def fact_space():
    """Every ``RepFacts`` over the flags, the independences, the four signs
    of Cov(E1, E2) and the four polarities: 3^4 * 2^4 * 4 * 4 of them."""
    for flags in product(Flag, repeat=4):
        for indep in product((False, True), repeat=4):
            for e_cov in (Relation.UNKNOWN, Relation.LE0, Relation.GE0, Relation.EQ0):
                for negative in product((False, True), repeat=2):
                    yield facts(
                        **dict(zip(("a0", "a1", "a2", "a3"), flags)),
                        **dict(zip(("e_indep", "a1_a2_indep", "a0_a1_indep", "a0_a2_indep"), indep)),
                        e_cov=e_cov, negative=negative, sources={"a1": "structural", "e_cov": "oracle"},
                    )


class TestRuleTable:
    def test_case_rules_are_the_table_rows_in_order(self):
        assert CASE_RULES == tuple(rule for rule, *_ in _PAIR_RULES)

    def test_each_rule_fires_exactly_when_its_premises_hold(self):
        seen = 0
        for f in fact_space():
            out = pair_conclusions(f)
            assert [c.rule for c in out] == [r for r in CASE_RULES if _case_premises_hold(r, f)], f
            flip = sum(f.negative) % 2
            described = {f.describe(fact) for fact in FACT_FIELDS}
            for c in out:
                stratum, relation = RULE_CLAIMS[c.rule]
                assert c.quantity == CovQuantity("E1", "E2", "D", stratum)
                assert c.relation is (relation.flipped() if flip else relation)
                assert c.premises[:2] == ("monotone(E1)=+", "monotone(E2)=+")
                tail = c.premises[2:]
                if any(f.negative):
                    *tail, polarity = tail
                    assert polarity.startswith("polarity=(")
                assert tail and set(tail) <= described, c.premises
            seen += 1
        assert seen == 20_736


class TestGridAudit:
    """Each rule of ``_PAIR_RULES`` checked exactly on every grid model.

    The grid: D's table is every set of 1-3 monotone rows with weights in
    {1, 2, 3}, and (E1, E2), with E1 -> E2, every joint whose cells are
    multiples of 1/2; facts come from the model itself, at each of the four
    polarities of the pair. A conclusion on a stratum with no mass is skipped.
    """

    @pytest.fixture(scope="class")
    def cases(self):
        out = {}
        for negative in product((False, True), repeat=2):
            out[negative] = []
            for scm in grid_models(2, negative):
                dist = joint_distribution(scm)
                out[negative].append((dist, facts_from_scm(scm, "D", "E1", "E2", negative, dist)))
        return out

    @staticmethod
    def audit(cases):
        fired = Counter()
        violations = []
        for dist, f in cases:
            for c in pair_conclusions(f):
                try:
                    holds = verify_claim(dist, c)
                except oracle.ConditioningError:
                    continue
                fired[c.rule] += 1
                if not holds:
                    violations.append((c.key(), f))
        return fired, violations

    @pytest.mark.parametrize("negative", [(False, False), (True, False), (False, True), (True, True)])
    def test_no_rule_is_violated_and_every_rule_fires(self, cases, negative):
        assert len(cases[negative]) == 611 * 10
        fired, violations = self.audit(cases[negative])
        assert violations == []
        assert set(fired) == set(CASE_RULES)

    def test_the_audit_catches_a_dropped_premise(self, cases, monkeypatch):
        weakened = tuple(
            (rule, stratum, relation, tuple(p for p in premises if "e_indep" not in p))
            if rule == "lone_cause_absent_d0" else (rule, stratum, relation, premises)
            for rule, stratum, relation, premises in _PAIR_RULES
        )
        monkeypatch.setattr(covsign, "_PAIR_RULES", weakened)
        _, violations = self.audit(cases[(False, False)])
        assert violations
        assert {key for key, _ in violations} == {"Cov(E1,E2 | D=0) <=0 [lone_cause_absent_d0]"}

    @pytest.mark.parametrize("negative", [(False, False), (True, False), (False, True), (True, True)])
    def test_e_indep_is_the_pair_independence(self, cases, negative):
        # binary parents are independent exactly when their covariance is 0
        verdicts = [(f.e_indep, oracle.conditional_independent(dist, "E1", "E2")) for dist, f in cases[negative]]
        assert all(got == want for got, want in verdicts)
        assert {got for got, _ in verdicts} == {True, False}


class TestFactsFromScm:
    def build(self, fn, e1=half, e2=half):
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        return Scm(g, {
            "E1": ResponseTable.bernoulli("E1", e1),
            "E2": ResponseTable.bernoulli("E2", e2),
            "D": ResponseTable.deterministic("D", ("E1", "E2"), fn),
        })

    def test_disjunction_flags(self):
        f = facts_from_scm(self.build(lambda a, b: a | b), "D", "E1", "E2")
        assert (f.a0, f.a1, f.a2, f.a3) == (Flag.ZERO, Flag.ONE, Flag.ONE, Flag.ZERO)
        assert f.e_indep and f.e_cov is Relation.EQ0

    def test_conjunction_flags(self):
        f = facts_from_scm(self.build(lambda a, b: a & b), "D", "E1", "E2")
        assert (f.a0, f.a1, f.a2, f.a3) == (Flag.ZERO, Flag.ZERO, Flag.ZERO, Flag.ONE)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            facts_from_scm(self.build(lambda a, b: a ^ b), "D", "E1", "E2")

    def test_rejects_extra_parents(self):
        g = Dag(["E1", "E2", "E3", "D"], [("E1", "D"), ("E2", "D"), ("E3", "D")])
        m = Scm(g, {
            "E1": ResponseTable.bernoulli("E1", half),
            "E2": ResponseTable.bernoulli("E2", half),
            "E3": ResponseTable.bernoulli("E3", half),
            "D": ResponseTable.deterministic("D", ("E1", "E2", "E3"), lambda a, b, c: a | b | c),
        })
        with pytest.raises(ValueError, match="exactly the parents"):
            facts_from_scm(m, "D", "E1", "E2")

    def test_parent_order_independent(self):
        m = self.build(lambda a, b: a, e1=Fraction(1, 3))
        f = facts_from_scm(m, "D", "E2", "E1")
        # with E2 named first, the lone-cause slot for E1 is a2
        assert f.a2 is Flag.ONE and f.a1 is Flag.ZERO


class TestCaseSweeps:
    def test_each_case_holds_on_fifteen_instances(self):
        # a fast smoke sweep; the acceptance suite runs the full 200-instance version
        for rule in CASE_RULES:
            for i, (scm, f) in enumerate(case_instances(rule, 15, seed=hash(rule) % 10_000)):
                conclusions = [c for c in pair_conclusions(f) if c.rule == rule]
                assert conclusions, rule
                dist = joint_distribution(scm)
                for c in conclusions:
                    assert verify_claim(dist, c), (rule, i)


class TestNegativeAnalogue:
    def _flip_e1(self, scm: Scm) -> Scm:
        tables = dict(scm.tables)
        tables["D"] = complement_parent(tables["D"], "E1")
        return Scm(scm.graph, tables)

    def test_single_flip_reverses_relations(self):
        checked = 0
        for scm, f in case_instances("no_background_d1", 60, seed=6):
            flipped = self._flip_e1(scm)
            dist = joint_distribution(flipped)
            if set(dist.marginal(["D"])) != {(0,), (1,)}:
                continue
            f2 = facts_from_scm(flipped, "D", "E1", "E2", negative=(True, False))
            assert f2.a0 is Flag.ZERO
            out = pair_conclusions(f2)
            wanted = [c for c in out if c.rule == "no_background_d1"]
            assert wanted and wanted[0].relation is Relation.GE0
            for c in out:
                assert verify_claim(dist, c)
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25

    def test_double_flip_matches_original(self):
        for scm, f in case_instances("no_background_d1", 5, seed=12):
            double = pair_conclusions(replace(f, negative=(True, True)))
            assert rules_of(double) == rules_of(pair_conclusions(f))

        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        table = ResponseTable.deterministic("D", ("E1", "E2"), lambda a, b: (1 - a) | (1 - b))
        m = Scm(g, {"E1": ResponseTable.bernoulli("E1", half),
                    "E2": ResponseTable.bernoulli("E2", half), "D": table})
        f = facts_from_scm(m, "D", "E1", "E2", negative=(True, True))
        assert f.negative == (True, True)
        out = pair_conclusions(f)
        assert ("no_background_d1", 1, Relation.LE0) in rules_of(out)
        dist = joint_distribution(m)
        for c in out:
            assert verify_claim(dist, c)


class TestTransferPremiseCheckers:
    def test_chain_fixtures_pass_direct(self):
        for name in ("transfer_chain_a", "transfer_chain_b"):
            g = load_model(fixture(name)).dag
            rep = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
            assert rep.satisfied, (name, rep.failures())

    def test_descendant_fixture_fails_direct_passes_shared(self):
        g = load_model(fixture("transfer_descendants")).dag
        direct = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        assert not direct.satisfied
        assert "f_separated_from_e2_d" in direct.failures()
        shared = check_transfer_premises_shared(g, "F", "G", "E1", "E2", "D")
        assert shared.satisfied
        assert shared.q_same_sign and shared.q_opposite_sign

    def test_shared_cause_fixtures(self):
        ga = load_model(fixture("transfer_shared_a")).dag
        assert not check_transfer_premises_direct(ga, "F", "G", "E1", "E2", "D").satisfied
        rep = check_transfer_premises_shared(ga, "F", "G", "E1", "E2", "D", ("Q",))
        assert rep.satisfied
        assert rep.q_same_sign and not rep.q_opposite_sign

        gb = load_model(fixture("transfer_shared_b")).dag
        assert not check_transfer_premises_direct(gb, "F", "G", "E1", "E2", "D").satisfied
        rep = check_transfer_premises_shared(gb, "F", "G", "E1", "E2", "D", ("Q",))
        assert rep.satisfied
        assert rep.q_opposite_sign and not rep.q_same_sign

    def test_coaggregation_null_premises(self):
        g = load_model(fixture("coaggregation_null")).dag
        direct = check_transfer_premises_direct(g, "B1", "P2", "E1", "GP", "P1")
        assert not direct.satisfied  # B1 descends from the conditioning node
        shared = check_transfer_premises_shared(g, "B1", "P2", "E1", "GP", "P1")
        assert shared.satisfied

    def test_shared_q_with_common_ancestor_rejected(self):
        g = Dag(
            ["R", "Q1", "Q2", "E1", "E2", "D", "F", "G"],
            [("R", "Q1"), ("R", "Q2"), ("Q1", "F"), ("Q2", "G"),
             ("E1", "F"), ("E2", "G"), ("E1", "D"), ("E2", "D")],
            {("Q1", "F"): "+", ("Q2", "G"): "+", ("E1", "F"): "+",
             ("E2", "G"): "+", ("E1", "D"): "+", ("E2", "D"): "+"},
        )
        rep = check_transfer_premises_shared(g, "F", "G", "E1", "E2", "D", ("Q1", "Q2"))
        assert "q_mutually_independent" in rep.failures()

    def test_monotone_expectation_routes(self):
        ga = load_model(fixture("transfer_chain_a")).dag
        ok, route = expectation_monotone_premise(ga, "F", "E1", "D")
        assert ok and route == "separated-and-associated"
        gd = load_model(fixture("transfer_descendants")).dag
        ok, route = expectation_monotone_premise(gd, "F", "E1", "D")
        assert ok and route == "positive-paths-outside-target"
        unsigned = Dag(["E1", "D", "F"], [("E1", "D"), ("E1", "F"), ("D", "F")])
        ok, _ = expectation_monotone_premise(unsigned, "F", "E1", "D")
        assert not ok
        assert expectation_monotone_premise(ga, "E1", "E1", "D") == (True, "identity")

    def test_the_pair_must_be_parents_of_the_target(self):
        g = load_model(fixture("transfer_chain_a")).dag
        for check in (check_transfer_premises_direct, check_transfer_premises_shared):
            with pytest.raises(ValueError, match="^E1 and C must be parents of D$"):
                check(g, "F", "G", "E1", "C", "D")


class TestTransferSign:
    def _inner(self, relation, stratum=1):
        return SignConclusion(
            CovQuantity("E1", "E2", "D", stratum), relation, "no_background_d1", ())

    def test_direct_transfer_gives_sign_equality_and_relation(self):
        g = load_model(fixture("transfer_chain_a")).dag
        prem = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        out = transfer_sign(prem, self._inner(Relation.LE0))
        assert [c.relation for c in out] == [Relation.SIGN_EQUALS, Relation.LE0]
        assert out[0].other == CovQuantity("E1", "E2", "D", 1)
        assert all(c.quantity == CovQuantity("F", "G", "D", 1) for c in out)

    def test_shared_transfer_gates_on_q_signs(self):
        ga = load_model(fixture("transfer_shared_a")).dag
        prem = check_transfer_premises_shared(ga, "F", "G", "E1", "E2", "D", ("Q",))
        (c,) = transfer_sign(prem, self._inner(Relation.GE0))
        assert c.relation is Relation.GE0
        with pytest.raises(ValueError, match="no transferable direction"):
            transfer_sign(prem, self._inner(Relation.LE0))

    def test_unverified_premises_rejected(self):
        g = load_model(fixture("transfer_descendants")).dag
        prem = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        with pytest.raises(ValueError, match="not verified"):
            transfer_sign(prem, self._inner(Relation.LE0))

    def test_zero_inner_relation_transfers_as_zero(self):
        g = load_model(fixture("transfer_chain_a")).dag
        prem = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        out = transfer_sign(prem, self._inner(Relation.EQ0, stratum=0))
        assert [c.relation for c in out] == [Relation.SIGN_EQUALS, Relation.EQ0]
        assert all(c.quantity.stratum == 0 for c in out)

    # (inner, q_same_sign, q_opposite_sign) -> transferred relation, None: refused
    SHARED_RULE = {
        (Relation.LE0, True, True): Relation.LE0,
        (Relation.LE0, True, False): None,
        (Relation.LE0, False, True): Relation.LE0,
        (Relation.LE0, False, False): None,
        (Relation.GE0, True, True): Relation.GE0,
        (Relation.GE0, True, False): Relation.GE0,
        (Relation.GE0, False, True): None,
        (Relation.GE0, False, False): None,
        (Relation.EQ0, True, True): Relation.EQ0,
        (Relation.EQ0, True, False): Relation.GE0,
        (Relation.EQ0, False, True): Relation.LE0,
        (Relation.EQ0, False, False): None,
    }

    @pytest.mark.parametrize("inner,same,opposite", list(SHARED_RULE))
    def test_shared_rule_table(self, inner, same, opposite):
        prem = TransferPremises("proxy-shared", "F", "G", "E1", "E2", "D", (), (), same, opposite)
        expected = self.SHARED_RULE[inner, same, opposite]
        if expected is None:
            with pytest.raises(ValueError, match="no transferable direction"):
                transfer_sign(prem, self._inner(inner))
        else:
            (c,) = transfer_sign(prem, self._inner(inner))
            assert (c.relation, c.rule) == (expected, "proxy-shared+no_background_d1")
            assert c.quantity == CovQuantity("F", "G", "D", 1)

    def test_inner_quantity_must_match(self):
        g = load_model(fixture("transfer_chain_a")).dag
        prem = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        bad = SignConclusion(CovQuantity("E1", "F", "D", 1), Relation.LE0, "x", ())
        with pytest.raises(ValueError, match="does not describe"):
            transfer_sign(prem, bad)


class TestPremiseMonotonicity:
    def test_adding_edges_never_creates_a_premise(self):
        # d-separation premises can only break as the graph grows
        rng = random.Random(2025)
        grown = 0
        trials = 0
        while grown < 60 and trials < 500:
            trials += 1
            from support import random_dag
            g = random_dag(rng, 6, 0.3)
            nodes = list(g.nodes)
            d = rng.choice(nodes)
            parents = list(g.parents(d))
            if len(parents) < 2:
                continue
            e1, e2 = parents[0], parents[1]
            rest = [n for n in nodes if n not in (d, e1, e2)]
            if len(rest) < 2:
                continue
            f, gg = rest[0], rest[1]
            candidates = [
                (a, b)
                for i, a in enumerate(nodes)
                for b in nodes[i + 1:]
                if not g.has_edge(a, b) and b not in (e1, e2)
            ]
            if not candidates:
                continue
            try:
                before = check_transfer_premises_shared(g, f, gg, e1, e2, d)
                g2 = Dag(g.nodes, list(g.edges) + [rng.choice(candidates)])
                after = check_transfer_premises_shared(g2, f, gg, e1, e2, d)
            except ValueError:
                continue
            dsep_names = {
                "f_g_separated_given_q", "f_separated_from_e2", "g_separated_from_e1",
                "q_separated_from_pair", "q_separated_from_target",
            }
            held_before = {c.name for c in before.checks if c.holds and c.name in dsep_names}
            held_after = {c.name for c in after.checks if c.holds and c.name in dsep_names}
            assert held_after <= held_before
            grown += 1
        assert grown >= 60


class TestDoubleComplement:
    def test_rules_and_oracle_agree_under_double_flip(self):
        checked = 0
        for scm, f in case_instances("no_background_d1", 40, seed=77):
            tables = dict(scm.tables)
            t = tables["D"]
            t = complement_parent(complement_parent(t, "E1"), "E2")
            t = complement_parent(complement_parent(t, "E1"), "E2")
            tables["D"] = t
            assert Scm(scm.graph, tables).tables["D"] == scm.tables["D"]
            double = pair_conclusions(replace(f, negative=(True, True)))
            plain = pair_conclusions(f)
            assert {(c.rule, c.quantity.stratum, c.relation) for c in double} == \
                {(c.rule, c.quantity.stratum, c.relation) for c in plain}
            checked += 1
        assert checked == 40


def slots_of(table, e1, e2, negative):
    """``_table_slots`` of a whole table, as the library's callers ask for it."""
    return _table_slots(table.node, table.parents, table.rows, e1, e2, negative)


class TestTableSlots:
    """``_table_slots`` reads the complemented frame's slots off the target's own table."""

    @staticmethod
    def _frame_slots(table, e1, e2, negative):
        """The reference: complement each negative parent, then read the plain-literal terms."""
        frame = dedupe_states(table)
        for p, neg in zip((e1, e2), negative):
            if neg:
                frame = complement_parent(frame, p)
        rows = dedupe_states(table).rows
        key_for = {frozenset(): "a0", frozenset({e1}): "a1", frozenset({e2}): "a2", frozenset({e1, e2}): "a3"}
        slots = dict.fromkeys(("a0", "a1", "a2", "a3"), frozenset())
        for term in canonical_representation(frame).terms:
            assert not any(l.complemented for l in term.literals)
            slot = key_for[frozenset(l.base for l in term.literals)]
            slots[slot] = None if term.cocause.kind is CoCauseKind.ONE else frozenset(
                rows[i] for i in term.cocause.states
            )
        return slots

    def test_complement_parent_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = tuple(rng.sample(range(16), 3))
            t = ResponseTable("D", ("A", "B"), rows, (Fraction(1, 3),) * 3)
            assert complement_parent(complement_parent(t, "A"), "A") == t

    def test_every_small_monotone_table_matches_the_complemented_frame(self):
        checked = 0
        for parents in (("E1", "E2"), ("E2", "E1")):
            for negative in product((False, True), repeat=2):
                signs = {p: "-" if n else "+" for p, n in zip(("E1", "E2"), negative)}
                monotone = [
                    r for r in range(16)
                    if all(directional_effect_holds(ResponseTable("D", parents, (r,), (Fraction(1),)), p, s)
                           for p, s in signs.items())
                ]
                assert len(monotone) == 6
                for k in range(1, 7):
                    for rows in combinations(monotone, k):
                        table = ResponseTable("D", parents, rows, (Fraction(1, k),) * k)
                        for e1, e2, neg in (("E1", "E2", negative), ("E2", "E1", negative[::-1])):
                            assert slots_of(table, e1, e2, neg) == self._frame_slots(table, e1, e2, neg), \
                                (parents, rows, e1, neg)
                        checked += 1
        assert checked == 504

    def test_duplicate_rows_key_the_same_slots(self):
        table = ResponseTable("D", ("E1", "E2"), (ROW_E1, 14, ROW_E1), (Fraction(1, 3),) * 3)
        assert slots_of(table, "E1", "E2", (False, False)) == \
            slots_of(dedupe_states(table), "E1", "E2", (False, False))

    @pytest.mark.parametrize("rows, negative, frame", [
        ((6,), (False, False), "E1, E2"),          # E1 xor E2: monotone at no polarity
        ((14,), (True, False), "~E1, E2"),         # E1 or E2 is positive in E1
        ((ROW_E1, 12), (False, True), "E1, ~E2"),  # E2 alone is positive in E2
    ])
    def test_a_table_not_monotone_in_the_frame_raises(self, rows, negative, frame):
        table = ResponseTable("D", ("E1", "E2"), rows, (Fraction(1, len(rows)),) * len(rows))
        with pytest.raises(ValueError, match=rf"fits no slot of the \({frame}\) frame"):
            slots_of(table, "E1", "E2", negative)

    def test_the_closed_form_matches_the_canonical_reference(self):
        """Every set of 1-4 of the 16 two-parent rows, in a seeded order, at
        both parent orders and all four polarities: the same slots as the
        canonical-term reference, or a raise naming the same frame."""
        frame_phrase = re.compile(r"fits no slot of the \([^)]*\) frame")
        rng = random.Random(17)
        checked = raised = 0
        for k in range(1, 5):
            for chosen in combinations(range(16), k):
                rows = tuple(rng.sample(chosen, k))
                for parents in (("E1", "E2"), ("E2", "E1")):
                    table = ResponseTable("D", parents, rows, (Fraction(1, k),) * k)
                    for negative in product((False, True), repeat=2):
                        try:
                            want = reference_table_slots(table, "E1", "E2", negative)
                        except ValueError as e:
                            with pytest.raises(ValueError) as got:
                                slots_of(table, "E1", "E2", negative)
                            assert frame_phrase.search(str(got.value)).group() == frame_phrase.search(str(e)).group()
                            raised += 1
                        else:
                            assert slots_of(table, "E1", "E2", negative) == want, (parents, rows, negative)
                        checked += 1
        assert checked == (16 + 120 + 560 + 1820) * 2 * 4
        assert 0 < raised < checked

    def test_slots_ignore_row_order_duplicates_and_probabilities(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = tuple(rng.sample(MONOTONE_PAIR_ROWS, rng.randint(1, 4)))
            negative = (rng.random() < 0.5, rng.random() < 0.5)
            table = ResponseTable("D", ("E1", "E2"), rows, (Fraction(1, len(rows)),) * len(rows))
            for p, neg in zip(("E1", "E2"), negative):
                if neg:
                    table = complement_parent(table, p)
            want = slots_of(table, "E1", "E2", negative)
            shuffled = tuple(rng.sample(table.rows, len(table.rows)))
            doubled = shuffled + table.rows[:1]
            weights = [rng.randint(1, 5) for _ in doubled]
            for variant in (
                ResponseTable("D", ("E1", "E2"), shuffled, table.probs),
                ResponseTable("D", ("E1", "E2"), doubled, tuple(Fraction(w, sum(weights)) for w in weights)),
            ):
                assert slots_of(variant, "E1", "E2", negative) == want


class TestCocauseIndependence:
    """Co-cause independence cross-multiplies integer row weights; the reference sums Fractions."""

    @staticmethod
    def reference(a, b, table):
        prob = {}
        for row, p in zip(table.rows, table.probs):
            prob[row] = prob.get(row, Fraction(0)) + p
        sa, sb = set(prob) if a is None else a, set(prob) if b is None else b
        total = lambda rows: sum((prob[r] for r in rows), Fraction(0))
        return total(sa & sb) == total(sa) * total(sb)

    def test_every_grid_table_and_its_doubled_rows(self):
        outcomes = Counter()
        for table in grid_target_tables():
            doubled = ResponseTable("D", table.parents, table.rows + table.rows[:1],
                                    (table.probs[0] / 2,) + table.probs[1:] + (table.probs[0] / 2,))
            slots = slots_of(table, "E1", "E2", (False, False))
            for t in (table, doubled):
                mass = covsign._row_mass(t)
                for a, b in (("a1", "a2"), ("a0", "a1"), ("a0", "a2")):
                    got = covsign._sets_independent(slots[a], slots[b], mass)
                    assert got == self.reference(slots[a], slots[b], t), (t.rows, t.probs, a, b)
                    outcomes[got] += 1
        assert outcomes[True] and outcomes[False]


def _chain_a_scm(rng, d_rows):
    g = load_model(fixture("transfer_chain_a")).dag
    from support import random_fraction

    def mono(node, parents, pool):
        k = rng.randint(1, min(2, len(pool)))
        rows = tuple(rng.sample(pool, k))
        weights = [rng.randint(1, 6) for _ in rows]
        total = sum(weights)
        return ResponseTable(node, parents, rows, tuple(Fraction(w, total) for w in weights))

    one_parent_up = (0, 2, 3)
    two_parent_up = MONOTONE_PAIR_ROWS
    tables = {
        "C": ResponseTable.bernoulli("C", random_fraction(rng)),
        "G": ResponseTable.bernoulli("G", random_fraction(rng)),
        "E1": mono("E1", ("C",), one_parent_up),
        "E2": mono("E2", ("G",), one_parent_up),
        "F": mono("F", ("C", "E1"), two_parent_up),
        "D": ResponseTable("D", ("E1", "E2"), d_rows, (Fraction(1, len(d_rows)),) * len(d_rows)),
    }
    return Scm(g, tables)


class TestTransferAgainstOracle:
    def test_direct_transfer_weak_sign_equality(self):
        rng = random.Random(606)
        g = load_model(fixture("transfer_chain_a")).dag
        prem = check_transfer_premises_direct(g, "F", "G", "E1", "E2", "D")
        assert prem.satisfied
        checked = 0
        while checked < 60:
            rows = tuple(rng.sample([r for r in MONOTONE_PAIR_ROWS if r != 15],
                                    rng.randint(1, 3)))
            scm = _chain_a_scm(rng, rows)
            dist = joint_distribution(scm)
            if set(dist.marginal(["D"])) != {(0,), (1,)}:
                continue
            claim = SignConclusion(
                CovQuantity("F", "G", "D", 1), Relation.SIGN_EQUALS, "proxy-direct", (),
                other=CovQuantity("E1", "E2", "D", 1))
            assert verify_claim(dist, claim)
            checked += 1

    def test_degenerate_proxy_covariance_forces_zero(self):
        # when Cov(F, E1) is exactly zero the transferred covariance is exactly zero
        rng = random.Random(41)
        g = load_model(fixture("transfer_chain_a")).dag
        found = 0
        while found < 10:
            scm = _chain_a_scm(rng, (ROW_E1,))
            tables = dict(scm.tables)
            # F constant in both its parents: its conditional mean cannot move
            tables["F"] = ResponseTable("F", ("C", "E1"), (15,), (Fraction(1),))
            scm = Scm(scm.graph, tables)
            dist = joint_distribution(scm)
            if dist.marginal(["D"]).get((1,), 0) == 0:
                continue
            assert conditional_covariance(dist, "F", "E1") == 0
            assert conditional_covariance(dist, "F", "G", {"D": 1}) == 0
            found += 1


class TestAssertionReader:
    PAIR = "node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D +\n"

    def test_reversed_pair_flag_lands_in_swapped_slot(self):
        model = parse_model(self.PAIR + "assert rep-flag D E2 E1 a1 one\n")
        asserted = read_assertions(model.assertions, "D", "E1", "E2")
        assert dict(asserted.flags) == {"a2": Flag.ONE}
        facts = covsign_analysis(model, "D").facts
        assert (facts.a1, facts.a2) == (Flag.NEITHER, Flag.ONE)
        assert facts.source("a2") == "assertion"
        # D = E2 has a2 = one; D = E1 has a1 = one and a2 = zero
        for row, admitted in ((0b1100, True), (0b1010, False)):
            assert asserted.admits_rows((row,)) is admitted

    def test_other_targets_and_pairs_are_left_out_of_the_slots(self):
        model = parse_model(
            self.PAIR + "node H\nedge D H +\n"
            "assert rep-flag H D D a1 one\nassert cocause-independent D E1 H a1 a2\n"
            "assert independent E1 H\nassert cov-sign H E2 >=0\n"
        )
        asserted = read_assertions(model.assertions, "D", "E1", "E2")
        assert dict(asserted.flags) == {} and asserted.cocause_indep == ()
        # independence and covariance claims on any pair are still read
        assert asserted.independent == (("E1", "H"),)
        assert asserted.cov_of("E2", "H") is Relation.GE0

    def test_repeated_cov_sign_keeps_the_meet(self):
        model = parse_model(self.PAIR + "assert cov-sign E1 E2 <=0\nassert cov-sign E2 E1 >=0\n")
        asserted = read_assertions(model.assertions, "D", "E1", "E2")
        assert asserted.cov_of("E1", "E2") is Relation.EQ0
        assert covsign_analysis(model, "D").facts.e_cov is Relation.EQ0


class TestEachQuestionOnce:
    """The questions covsign asks once agree with the forms that asked them
    twice, kept as references in ``support``."""

    @pytest.mark.parametrize("negative", [(False, False), (True, False), (False, True), (True, True)])
    def test_e_indep_is_the_pair_independence_on_seeded_models(self, negative):
        signs = {("E1", "D"): "-" if negative[0] else "+", ("E2", "D"): "-" if negative[1] else "+"}
        g = Dag(["C", "E1", "E2", "D"], [("C", "E1"), ("C", "E2"), ("E1", "E2"), ("E1", "D"), ("E2", "D")], signs)
        plan = oracle.draw_plan(g)
        seen = Counter()
        for seed in range(200):
            scm = oracle.random_instance(plan, seed)
            dist = joint_distribution(scm)
            e_indep = facts_from_scm(scm, "D", "E1", "E2", negative, dist).e_indep
            assert e_indep == oracle.conditional_independent(dist, "E1", "E2"), seed
            seen[e_indep] += 1
        assert seen[True] and seen[False]

    def test_admits_is_the_two_pass_form_on_seeded_joints(self):
        rng = random.Random(2028)
        seen = Counter()
        for seed in range(300):
            g = random_dag(rng, rng.randint(2, 5), 0.45)
            dist = joint_distribution(oracle.random_instance(oracle.draw_plan(g, states=(1, 2)), seed))
            names = list(g.nodes)
            assertions = []
            for _ in range(rng.randint(1, 3)):
                x, y = rng.choice(names), rng.choice(names)
                if rng.random() < 0.5:
                    assertions.append(Assertion("independent", (x, y)))
                else:
                    assertions.append(Assertion("cov-sign", (x, y, rng.choice(("<=0", ">=0", "=0")))))
                if rng.random() < 0.3:  # the same pair asserted the other way round
                    kind, (x, y, *rest) = assertions[-1].kind, assertions[-1].args
                    assertions.append(Assertion(kind, (y, x, *rest)))
            if seed % 5 == 0:
                assertions.append(Assertion("independent", (names[0], names[0])))
            asserted = read_assertions(assertions, "D", "E1", "E2")
            verdict = asserted.admits(dist)
            assert verdict == reference_admits(asserted, dist), (g.edges, assertions)
            seen[verdict] += 1
        assert seen[True] > 30 and seen[False] > 30

    def test_q_mutually_independent_is_the_ancestor_test_on_seeded_dags(self):
        rng = random.Random(2029)
        seen = Counter()
        for _ in range(300):
            g = random_dag(rng, rng.randint(4, 8), 0.3)
            q = rng.sample(g.nodes, rng.randint(2, 4))
            # the parent pair and its proxies, apart from the random part
            full = Dag(
                [*g.nodes, "E1", "E2", "D", "F", "G"],
                [*g.edges, ("E1", "D"), ("E2", "D"), ("E1", "F"), ("E2", "G")],
            )
            premises = check_transfer_premises_shared(full, "F", "G", "E1", "E2", "D", q)
            holds = {c.name: c.holds for c in premises.checks}["q_mutually_independent"]
            assert holds == reference_q_independent(full, q), (g.edges, q)
            seen[holds] += 1
        assert seen[True] > 30 and seen[False] > 30

    def test_covsign_asks_no_independence_query(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("covsign asked oracle.conditional_independent")

        monkeypatch.setattr(oracle, "conditional_independent", refused)
        assert covsign_analysis(load_model(fixture("redundancy_extra")), "Q").facts.sources["e_indep"] == "oracle"
        check = oracle_check(parse_model(TestIndependenceClosesCovariance.MODEL), "D", instances=5)
        assert check.ok and check.accepted == 5


def _premise_variant(assertion: str, e2_sign: str) -> str:
    """Eight premise-only nodes around the two-parent target D, every edge signed."""
    return (
        "".join(f"node {n}\n" for n in ("A1", "A2", "E1", "E2", "D", "F", "G", "H"))
        + "edge A1 E1 +\nedge A2 E2 +\nedge E1 D +\n"
        + f"edge E2 D {e2_sign}\n"
        + "edge E1 F +\nedge E2 G +\nedge D H +\n"
        + f"assert {assertion}\n"
    )


class TestIndependenceClosesCovariance:
    """An asserted independence of the parents gives their covariance "=0"."""

    # the pair shares the cause C, and the C -> E2 edge carries no sign, so
    # neither d-separation nor monotone association says anything
    MODEL = (
        "node C\nnode E1\nnode E2\nnode D\n"
        "edge C E1 +\nedge C E2\nedge E1 D +\nedge E2 D +\n"
        "assert independent E1 E2\nassert no-synergism D E1 E2\n"
    )

    def test_asserted_independence_reaches_the_rules_that_read_the_covariance(self):
        analysis = covsign_analysis(parse_model(self.MODEL), "D")
        assert analysis.facts.e_indep and analysis.facts.e_cov is Relation.EQ0
        assert analysis.facts.describe("e_cov") == "e_cov==0 (assertion)"
        assert [c.rule for c in analysis.inner] == ["no_synergy_d1"]

    def test_an_asserted_sign_is_narrowed_to_zero(self):
        model = parse_model(self.MODEL + "assert cov-sign E1 E2 >=0\n")
        assert covsign_analysis(model, "D").facts.e_cov is Relation.EQ0

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_the_oracle_accepts_the_new_conclusion(self, seed):
        check = oracle_check(parse_model(self.MODEL), "D", instances=20, seed=seed)
        assert check.ok and check.accepted == 20


class TestOracleCheckDraws:
    """Draw accounting, and the generator drawing only tables that carry the asserted flags."""

    VARIANT_ASSERTIONS = (
        "no-synergism D E1 E2",
        "rep-flag D E1 E2 a0 zero",
        "rep-flag D E1 E2 a1 zero",
        "rep-flag D E2 E1 a1 one",
    )

    @staticmethod
    def split(check):
        """The draws by outcome: generation errors, mismatches, zero mass, accepted."""
        return tuple(check.count(outcome) for outcome in Outcome)

    def test_flagship_draws_no_mismatch(self):
        model = load_model(fixture("coaggregation_null"))
        check = oracle_check(model, "P1", "B1", "P2", instances=20, seed=7)
        assert check.ok
        assert sum(self.split(check)) == check.drawn
        assert check.count(Outcome.ASSERTION_MISMATCH) == 0
        assert check.accepted == 20

    def test_every_flag_variant_draws_no_mismatch(self):
        for assertion in self.VARIANT_ASSERTIONS:
            for e2_sign in "+-":
                model = parse_model(_premise_variant(assertion, e2_sign))
                check = oracle_check(model, "D", "F", "G", instances=5, seed=100)
                assert check.ok, (assertion, e2_sign)
                assert sum(self.split(check)) == check.drawn, (assertion, e2_sign)
                assert check.count(Outcome.ASSERTION_MISMATCH) == 0, (assertion, e2_sign, self.split(check))

    def test_mismatches_still_counted_for_assertions_past_the_flags(self):
        # the row filter covers only the flags; a co-cause independence is
        # checked on the drawn table, and a failing draw counts as a mismatch
        model = parse_model(
            _premise_variant("no-synergism D E1 E2", "+") + "assert cocause-independent D E1 E2 a0 a1\n"
        )
        check = oracle_check(model, "D", "F", "G", instances=5, seed=100)
        assert sum(self.split(check)) == check.drawn
        assert check.count(Outcome.ASSERTION_MISMATCH) > 0

    @staticmethod
    def count_reads(monkeypatch) -> Counter:
        """Count the plan's filter calls, the target slot read-offs and the row-mass tallies."""
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(covsign, "_table_slots", counting("slots", covsign._table_slots))
        monkeypatch.setattr(covsign, "_row_mass", counting("mass", covsign._row_mass))
        monkeypatch.setattr(covsign.AssertedFacts, "admits_rows", counting("filter", covsign.AssertedFacts.admits_rows))
        return calls

    def test_slots_are_read_past_the_filter_only_for_a_cocause_assertion(self, monkeypatch):
        calls = self.count_reads(monkeypatch)
        oracle_check(load_model(fixture("coaggregation_null")), "P1", "B1", "P2", instances=20, seed=7)
        # the filter reads each distinct row tuple's slots once, and nothing else does
        assert calls["filter"] > 0 and calls["slots"] == calls["filter"] and calls["mass"] == 0
        calls.clear()
        model = parse_model(
            _premise_variant("no-synergism D E1 E2", "+") + "assert cocause-independent D E1 E2 a0 a1\n"
        )
        check = oracle_check(model, "D", "F", "G", instances=5, seed=100)
        reached = check.drawn - check.count(Outcome.GENERATION_ERROR)
        assert calls["slots"] - calls["filter"] == calls["mass"] == reached > 0

    def test_fully_specified_model_is_one_accepted_draw(self):
        model = parse_model(
            TestAssertionReader.PAIR
            + "equation E1 states 2\nstate 0 prob 1/2 bits 1\nstate 1 prob 1/2 bits 0\n"
            + "equation E2 states 2\nstate 0 prob 1/2 bits 1\nstate 1 prob 1/2 bits 0\n"
            + "equation D states 1\nstate 0 prob 1 bits 0111\n"
        )
        check = oracle_check(model, "D", instances=5)
        assert (check.drawn, self.split(check)) == (1, (0, 0, 0, 1))

    def test_unsatisfiable_flags_fail_fast(self):
        model = parse_model(
            TestAssertionReader.PAIR + "assert rep-flag D E1 E2 a0 one\nassert rep-flag D E1 E2 a1 one\n"
        )
        with pytest.raises(ValueError, match=r"asserted flags a0=one, a1=one on \(E1, E2\)"):
            oracle_check(model, "D", instances=100)

    def test_row_sets_are_enumerated_on_the_first_generation_error_only(self, monkeypatch):
        # every third draw fails to generate; the draws stop at the fifth accepted one
        calls = []
        end_draw, row_sets = covsign._end_draw, oracle.admissible_row_sets

        def failing(*args):
            seed = args[-1]
            return covsign.Draw(seed, Outcome.GENERATION_ERROR) if seed % 3 == 0 else end_draw(*args)

        def counted(*args):
            calls.append(args)
            return row_sets(*args)

        monkeypatch.setattr(covsign, "_end_draw", failing)
        monkeypatch.setattr(oracle, "admissible_row_sets", counted)
        check = oracle_check(load_model(fixture("coaggregation_null")), "P1", "B1", "P2", instances=5, seed=7)
        assert len(calls) == 1 and check.count(Outcome.GENERATION_ERROR) > 1
        assert check.accepted == 5 and check.draws[-1].outcome is Outcome.ACCEPTED

    @pytest.mark.parametrize("model, args, asked", [
        # the flagship: two claims on two quantities, one sign equality in provenance only
        (lambda: load_model(fixture("coaggregation_null")), ("P1", "B1", "P2"), 2),
        # a sign equality whose other quantity another claim asks for too
        (lambda: parse_model(_premise_variant("no-synergism D E1 E2", "-")), ("D", "F", "G"), 4),
    ])
    def test_each_distinct_covariance_is_computed_once_per_accepted_draw(self, monkeypatch, model, args, asked):
        # count the covariances that the claim verdicts compute, draw by draw
        per_draw: list[int] = []
        verifying: list[bool] = []
        draw, verify, covariance = oracle.random_instance, oracle.verify_claim, oracle.conditional_covariance

        def drawn(*a):
            per_draw.append(0)
            return draw(*a)

        def verified(*a):
            verifying.append(True)
            try:
                return verify(*a)
            finally:
                verifying.pop()

        def counted(*a):
            if verifying:
                per_draw[-1] += 1
            return covariance(*a)

        monkeypatch.setattr(oracle, "random_instance", drawn)
        monkeypatch.setattr(oracle, "verify_claim", verified)
        monkeypatch.setattr(oracle, "conditional_covariance", counted)
        check = oracle_check(model(), *args, instances=20, seed=7)
        claims = {c.key(): c for c in check.analysis.conclusions}.values()
        # what the claims ask, one by one: a sign equality asks for its other quantity too
        quantities = [
            q for c in claims for q in ((c.quantity, c.other) if c.relation is Relation.SIGN_EQUALS else (c.quantity,))
        ]
        assert len(quantities) == asked and len(set(quantities)) == 2
        accepted = [n for record, n in zip(check.draws, per_draw) if record.outcome is Outcome.ACCEPTED]
        assert len(per_draw) == check.drawn and len(accepted) == check.accepted == 20
        assert set(accepted) == {2}

    def test_a_claim_two_rules_derive_is_checked_once_per_draw(self, monkeypatch):
        # no_background and lone_cause_absent both fire, and both transfer
        # the same sign equality to the proxies
        drawn = parse_model(
            _premise_variant("rep-flag D E1 E2 a0 zero", "+")
            + "assert rep-flag D E1 E2 a1 zero\nassert rep-flag D E1 E2 a2 zero\n"
        )
        monkeypatch.setattr(oracle, "verify_claim", lambda dist, claim, known=None: False)
        for check in (
            oracle_check(drawn, "D", "F", "G", instances=3, seed=5),
            oracle_check(load_model(fixture("redundancy_extra")), "Q", "A", "F"),
        ):
            keys = list(dict.fromkeys(c.key() for c in check.analysis.conclusions))
            assert len(keys) < len(check.analysis.conclusions)
            seeds = [draw.seed for draw in check.draws if draw.outcome is Outcome.ACCEPTED]
            assert len(seeds) == check.accepted > 0
            assert check.failures == tuple({"conclusion": k, "seed": s} for s in seeds for k in keys)
            assert check.tallies == {k: {"checked": len(seeds), "violations": len(seeds)} for k in keys}


class TestZeroMassBeforeTheJoint:
    """A draw whose tables keep a conditioned node off its stratum ends as zero mass, with no joint."""

    CHECKS = [(("coaggregation_null", "P1", "B1", "P2"), seed, 20) for seed in (7, 8, 9)] + [
        ((assertion, "D", "F", "G"), 100, 5) for assertion in TestOracleCheckDraws.VARIANT_ASSERTIONS
    ]

    @staticmethod
    def run(target, seed, instances):
        source, d, f, g = target
        model = load_model(fixture(source)) if source == "coaggregation_null" else \
            parse_model(_premise_variant(source, "-"))
        return oracle_check(model, d, f, g, instances=instances, seed=seed)

    @staticmethod
    def forced(scm, check):
        """The (node, value) pairs conditioned on whose node every table row holds at 1 - value."""
        full = {n: (1 << t.n_configs) - 1 for n, t in scm.tables.items()}
        quantities = [q for c in check.analysis.conclusions for q in (c.quantity, c.other) if q is not None]
        return [
            (q.given, q.stratum) for q in quantities
            if set(scm.tables[q.given].rows) == {full[q.given] if q.stratum == 0 else 0}
        ]

    def test_no_joint_is_built_for_a_forced_stratum(self, monkeypatch):
        drawn, built = [], []
        draw, joint = oracle.random_instance, covsign.joint_distribution

        def drawing(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def building(scm, *args):
            built.append(scm)
            return joint(scm, *args)

        monkeypatch.setattr(oracle, "random_instance", drawing)
        monkeypatch.setattr(covsign, "joint_distribution", building)
        skipped = 0
        for target, seed, instances in self.CHECKS:
            drawn.clear()
            built.clear()
            check = self.run(target, seed, instances)
            forced = [scm for scm in drawn if self.forced(scm, check)]
            # these checks draw no table the assertions reject, so every
            # draw without a joint is one with a forced stratum
            assert (check.count(Outcome.GENERATION_ERROR), check.count(Outcome.ASSERTION_MISMATCH)) == (0, 0)
            assert not [scm for scm in built if self.forced(scm, check)]
            assert len(drawn) - len(built) == len(forced)
            skipped += len(forced)
        assert skipped > 0

    def test_the_same_check_as_reading_zero_mass_off_the_joint(self, monkeypatch):
        for target, seed, instances in self.CHECKS:
            fast = self.run(target, seed, instances)
            with monkeypatch.context() as m:
                m.setattr(covsign, "_never_takes", lambda table, value: False)
                slow = self.run(target, seed, instances)
            assert [draw.seed for draw in fast.draws] == [draw.seed for draw in slow.draws]
            # only the pre-check's zero mass differs, and the joint reads it
            # as zero mass or as an assertion mismatch
            for a, b in zip(fast.draws, slow.draws):
                if a != b:
                    assert a.outcome is Outcome.ZERO_MASS, (target, a, b)
                    assert b.outcome in (Outcome.ZERO_MASS, Outcome.ASSERTION_MISMATCH), (target, a, b)
            assert (fast.tallies, fast.failures) == (slow.tallies, slow.failures)


def _partial_pair_model(rows, probs, edge_signs=("", ""), flag="D E1 E2 a0 zero") -> str:
    """E1, E2 -> D with an equation for D alone: premise-only parents, one flag on D."""
    states = "".join(
        f"state {i} prob {p.numerator}/{p.denominator} bits {''.join(str((r >> c) & 1) for c in range(4))}\n"
        for i, (r, p) in enumerate(zip(rows, probs))
    )
    edges = "".join(f"edge {e} D {s}".rstrip() + "\n" for e, s in zip(("E1", "E2"), edge_signs))
    return f"node E1\nnode E2\nnode D\n{edges}equation D states {len(rows)}\n{states}assert rep-flag {flag}\n"


class TestPolarityDrawnOnce:
    """oracle-check draws the target in the frame its polarity is read in, from its equation."""

    @staticmethod
    def run(monkeypatch, model, seed):
        """The check at ``seed`` and every target table the generator drew for it."""
        drawn = []
        draw = oracle.random_instance

        def recording(plan, instance_seed):
            scm = draw(plan, instance_seed)
            drawn.append(scm.tables["D"])
            return scm

        monkeypatch.setattr(oracle, "random_instance", recording)
        return oracle_check(model, "D", instances=5, seed=seed), drawn

    def assert_checked_in_frame(self, model, check, drawn):
        assert check.accepted == 5 and not check.failures
        assert all(v["violations"] == 0 for v in check.tallies.values())
        polarity = dict(zip(("E1", "E2"), check.analysis.facts.negative))
        assert drawn
        for table in drawn:
            for p, neg in polarity.items():
                assert directional_effect_holds(table, p, "-" if neg else "+"), (table.rows, p)
            for (p, _), s in model.dag.signs.items():
                assert directional_effect_holds(table, p, s), (table.rows, p, s)

    @pytest.mark.parametrize("seed", (0, 3, 11))
    @pytest.mark.parametrize("row, negative", [
        (0b1110, (False, False)),  # E1 or E2
        (0b1101, (True, False)),   # not E1, or E2
        (0b1011, (False, True)),   # E1, or not E2
        (0b0111, (True, True)),    # not E1, or not E2
    ])
    def test_unsigned_edges_take_the_equation_polarity(self, monkeypatch, row, negative, seed):
        model = parse_model(_partial_pair_model((row,), (Fraction(1),)))
        check, drawn = self.run(monkeypatch, model, seed)
        assert check.analysis.facts.negative == negative
        self.assert_checked_in_frame(model, check, drawn)

    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_negative_edge_on_a_parent_the_equation_ignores(self, monkeypatch, seed):
        # D = E2 is constant in E1; the declared "-" comes first, so E1 acts
        # negatively and the generator draws tables nonincreasing in E1
        model = parse_model(_partial_pair_model((ROW_E2,), (Fraction(1),), ("-", "")))
        check, drawn = self.run(monkeypatch, model, seed)
        assert check.analysis.facts.negative == (True, False)
        self.assert_checked_in_frame(model, check, drawn)
        assert all(directional_effect_holds(table, "E1", "-") for table in drawn)

    LICENSING_FLAGS = ("a0 zero", "a1 zero", "a1 one", "a2 zero", "a2 one", "a3 zero")

    def test_seeded_sweep_of_partial_models(self):
        rng = random.Random(2024)
        outcomes = {"checked": 0, "no table": 0, "no instance": 0}
        for i in range(400):
            negative = (rng.random() < 0.5, rng.random() < 0.5)
            signs = {p: "-" if neg else "+" for p, neg in zip(("E1", "E2"), negative)}
            pool = [
                r for r in range(16)
                if all(directional_effect_holds(ResponseTable("D", ("E1", "E2"), (r,), (Fraction(1),)), p, s)
                       for p, s in signs.items())
            ]
            rows = tuple(rng.sample(pool, rng.randint(1, 3)))
            weights = [rng.randint(1, 4) for _ in rows]
            probs = tuple(Fraction(w, sum(weights)) for w in weights)
            table = ResponseTable("D", ("E1", "E2"), rows, probs)
            edge_signs = tuple(
                rng.choice([""] + [s for s in "+-" if directional_effect_holds(table, p, s)]) for p in ("E1", "E2")
            )
            # a0=one and a3=one license no rule, so they leave nothing to check
            flag = f"D {rng.choice(('E1 E2', 'E2 E1'))} {rng.choice(self.LICENSING_FLAGS)}"
            text = _partial_pair_model(rows, probs, edge_signs, flag)
            try:
                check = oracle_check(parse_model(text), "D", instances=3, seed=i)
            except ValueError as e:
                if str(e).startswith("no table the generator can draw"):
                    outcomes["no table"] += 1
                elif str(e).startswith("no premise-satisfying instance"):
                    outcomes["no instance"] += 1
                else:
                    raise AssertionError(f"{e}\n{text}") from None
                continue
            assert not check.failures, text
            outcomes["checked"] += 1
        assert outcomes["checked"] == 400, outcomes
