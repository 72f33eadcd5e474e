"""Graph expansion, stratum conditioning, and oracle soundness of stratum claims."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from suffcause import (
    BudgetExceededError,
    CoCauseKind,
    Dag,
    Representation,
    ResponseTable,
    Scm,
    canonical_representation,
    conditional_independent,
    conj,
    d_separated,
    dedupe_states,
    expand,
    expand_model,
    expanded_distribution,
    joint_distribution,
    marginalize,
    reduce_to_nonredundant,
    stratum_conditioning_set,
    stratum_independent,
    stratum_witness,
)
from suffcause.modelfile import Model

from support import dfs_unblocked_path, path_blocked, random_fraction

half = Fraction(1, 2)


def roots(names, rng=None):
    if rng is None:
        return {n: ResponseTable.bernoulli(n, half) for n in names}
    return {n: ResponseTable.bernoulli(n, random_fraction(rng)) for n in names}


def pairs_model(rng=None):
    g = Dag(["E1", "E2", "E3", "E4", "D"], [(p, "D") for p in ("E1", "E2", "E3", "E4")])
    m = Scm(g, {**roots(("E1", "E2", "E3", "E4"), rng),
                "D": ResponseTable.deterministic(
                    "D", ("E1", "E2", "E3", "E4"), lambda a, b, c, d: (a & b) | (c & d))})
    rep = Representation("D", (conj("E1", "E2"), conj("E3", "E4")))
    return m, rep


def overlap_model(rng=None):
    g = Dag(["E1", "E2", "A", "D"], [("E1", "D"), ("E2", "D"), ("A", "D")])
    m = Scm(g, {**roots(("E1", "E2", "A"), rng),
                "D": ResponseTable.deterministic(
                    "D", ("E1", "E2", "A"), lambda e1, e2, a: (e1 & e2) | (a & (1 - e2)))})
    rep = Representation("D", (conj("E1", "E2"), conj("A", "~E2")))
    return m, rep


def seeded_expansions(seed, count):
    """Models with a 1-3-parent target, each expanded under its canonical
    and its nonredundant representation."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        parents = ("E1", "E2", "E3")[:rng.randint(1, 3)]
        rows = tuple(rng.sample(range(1 << (1 << len(parents))), rng.randint(1, 2 + len(parents))))
        weights = [rng.randint(1, 4) for _ in rows]
        table = ResponseTable("D", parents, rows,
                              tuple(Fraction(w, sum(weights)) for w in weights))
        g = Dag([*parents, "D"], [(p, "D") for p in parents])
        m = Scm(g, {**roots(parents, rng), "D": table})
        canonical = canonical_representation(table)
        nonredundant = Representation("D", tuple(reduce_to_nonredundant(table, canonical.terms)))
        for rep in (canonical, nonredundant):
            if rep.terms:
                out.append((m, expand(g, "D", rep, table)))
    return out


def markov_expansions(seed, count):
    """Models with E1 -> E2, a 1-3-parent target D and a child C of D, each
    expanded under D's canonical and its nonredundant representation."""
    rng = random.Random(seed)

    def table(node, parents, k):
        rows = tuple(rng.sample(range(1 << (1 << len(parents))), k))
        weights = [rng.randint(1, 4) for _ in rows]
        return ResponseTable(node, parents, rows, tuple(Fraction(w, sum(weights)) for w in weights))

    out = []
    while len(out) < count:
        parents = ("E1", "E2", "E3")[:rng.randint(1, 3)]
        g = Dag(["E1", "E2", *parents[2:], "D", "C"],
                [("E1", "E2"), *((p, "D") for p in parents), ("D", "C")])
        d = table("D", parents, rng.randint(2, 2 + len(parents)))
        m = Scm(g, {**roots(("E1", *parents[2:]), rng), "E2": table("E2", ("E1",), rng.randint(1, 3)),
                    "D": d, "C": table("C", ("D",), rng.randint(1, 2))})
        canonical = canonical_representation(d)
        nonredundant = Representation("D", tuple(reduce_to_nonredundant(d, canonical.terms)))
        for rep in (canonical, nonredundant):
            if rep.terms:
                out.append((m, expand(g, "D", rep, d)))
    return out[:count]


def markov_violations(dag, dist, sizes=(0, 1)):
    """Every (x, y, Z) with |Z| in ``sizes`` that ``dag`` d-separates but
    ``dist`` does not make conditionally independent."""
    found = []
    for x, y in combinations(dag.nodes, 2):
        rest = [n for n in dag.nodes if n not in (x, y)]
        for z in (z for k in sizes for z in combinations(rest, k)):
            if d_separated(dag, x, y, z) and not conditional_independent(dist, x, y, z):
                found.append((x, y, z))
    return found


class TestExpand:
    def test_disjoint_pairs_structure(self):
        m, rep = pairs_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert exp.and_nodes == ("E1E2", "E3E4")
        assert exp.exogenous is None
        assert exp.dag.parents("D") == ("E1E2", "E3E4")
        assert exp.dag.parents("E1E2") == ("E1", "E2")

    def test_overlap_structure_with_complement_edge(self):
        m, rep = overlap_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert exp.and_nodes == ("E1E2", "A~E2")
        assert exp.dag.parents("A~E2") == ("E2", "A")
        assert exp.dag.signs[("E2", "A~E2")] == "-"
        assert exp.dag.signs[("A", "A~E2")] == "+"

    def test_single_term_chain(self):
        # the conjunction label "E" is taken by the base node, so the AND
        # node falls back to M0 and the chain is E -> M0 -> D
        g = Dag(["E", "D"], [("E", "D")])
        m = Scm(g, {"E": ResponseTable.bernoulli("E", half),
                    "D": ResponseTable.deterministic("D", ("E",), lambda e: e)})
        exp = expand(m.graph, "D", Representation("D", (conj("E"),)), m.tables["D"])
        assert exp.and_nodes == ("M0",)
        assert exp.dag.edges == (("E", "M0"), ("M0", "D"))

    def test_rejects_nondeterminative_rep(self):
        m, _ = pairs_model()
        with pytest.raises(ValueError, match="not determinative"):
            expand(m.graph, "D", Representation("D", (conj("E1", "E2"),)), m.tables["D"])

    def test_state_bound_terms_add_exogenous_chain(self):
        g = Dag(["E", "D"], [("E", "D")])
        table = ResponseTable("D", ("E",), (3, 2, 1, 0), (Fraction(1, 4),) * 4)
        m = Scm(g, {"E": ResponseTable.bernoulli("E", half), "D": table})
        rep = canonical_representation(table)
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert exp.exogenous == "U"
        assert exp.cocause_nodes == ("A0", "A1", "A2")
        assert exp.and_nodes == ("A0", "A1E", "A2~E")
        assert exp.dag.parents("A0") == ("U",)
        assert exp.dag.parents("A1E") == ("E", "A1")
        assert exp.dag.parents("D") == ("A0", "A1E", "A2~E")

    def test_name_collision_falls_back(self):
        # a base node already named A0 pushes the co-cause to its fallback name
        g = Dag(["E", "A0", "D"], [("E", "D"), ("A0", "D")])
        table = ResponseTable("D", ("E", "A0"), (12, 0), (half, half))
        m = Scm(g, {"E": ResponseTable.bernoulli("E", half),
                    "A0": ResponseTable.bernoulli("A0", half), "D": table})
        rep = canonical_representation(table)
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert exp.cocause_nodes == ("cocause0",)
        assert all(n not in ("E", "A0", "D") or n in m.graph.nodes for n in exp.dag.nodes)

    def test_marginalizing_auxiliaries_recovers_base_structure(self):
        for build in (pairs_model, overlap_model):
            m, rep = build()
            exp = expand(m.graph, "D", rep, m.tables["D"])
            back = marginalize(exp.dag, exp.auxiliary_nodes)
            assert back.nodes == m.graph.nodes
            assert back.edges == m.graph.edges


class TestAlignedRecord:
    def test_record_is_aligned_and_kinds_follow_it(self):
        for m, exp in seeded_expansions(2718, 120):
            assert len(exp.cocause_nodes) == len(exp.and_nodes) == len(exp.terms)
            for term, c_name, a_name in zip(exp.terms, exp.cocause_nodes, exp.and_nodes):
                assert (c_name is None) == (term.cocause.kind is not CoCauseKind.STATES)
                assert (c_name == a_name) == (c_name is not None and not term.literals)
                assert exp.kind_of(a_name) == ("cocause" if a_name == c_name else "and")
                if c_name is not None:
                    assert exp.kind_of(c_name) == "cocause"
                    assert exp.dag.parents(c_name) == (exp.exogenous,)
            assert exp.kind_of("D") == "or"
            assert all(exp.kind_of(n) == "base" for n in m.graph.nodes if n != "D")
            if exp.exogenous is not None:
                assert exp.kind_of(exp.exogenous) == "exogenous"
            assert set(exp.auxiliary_nodes) == set(exp.dag.nodes) - set(m.graph.nodes)
            assert exp.auxiliary_nodes == exp.dag.nodes[len(m.graph.nodes):]

    def test_collapsed_state_bound_term_and_true_node(self):
        g = Dag(["E", "D"], [("E", "D")])
        # state 0 is constantly 1, state 1 copies E and state 2 negates it:
        # the empty conjunction is completed by state 0 alone
        table = ResponseTable("D", ("E",), (3, 2, 1), (Fraction(1, 3),) * 3)
        exp = expand(g, "D", canonical_representation(table), table)
        assert exp.cocause_nodes == ("A0", "A1", "A2")
        assert exp.and_nodes == ("A0", "A1E", "A2~E")
        assert [(n, exp.kind_of(n)) for n in exp.dag.nodes] == [
            ("E", "base"), ("D", "or"), ("U", "exogenous"), ("A0", "cocause"),
            ("A1", "cocause"), ("A1E", "and"), ("A2", "cocause"), ("A2~E", "and")]

        always = ResponseTable("D", ("E",), (3,), (Fraction(1),))
        exp = expand(g, "D", canonical_representation(always), always)
        assert exp.cocause_nodes == (None,)
        assert exp.and_nodes == ("TRUE",)
        assert exp.exogenous is None
        assert exp.kind_of("TRUE") == "and"
        assert exp.auxiliary_nodes == ("TRUE",)

    def test_exogenous_name_collision(self):
        g = Dag(["U", "U_D", "D"], [("U", "D"), ("U_D", "D")])
        table = ResponseTable("D", ("U", "U_D"), (8, 0), (half, half))
        exp = expand(g, "D", canonical_representation(table), table)
        assert exp.exogenous == "U_D_1"
        assert exp.dag.parents("A0") == ("U_D_1",)


class TestNaming:
    def test_single_literal_term_on_a_parent_named_like_its_fallback(self):
        # the term E1 is labelled "E1" (taken) with fallback "M0" (taken too)
        g = Dag(["M0", "E1", "D"], [("E1", "D")])
        table = ResponseTable("D", ("E1",), (2,), (Fraction(1),))
        exp = expand(g, "D", canonical_representation(table), table)
        assert exp.and_nodes == ("M0_1",)
        assert exp.dag.edges == (("E1", "M0_1"), ("M0_1", "D"))

    def test_every_valid_model_expands_whatever_its_base_names(self):
        rng = random.Random(4242)
        pool = ["U", "U_D", "TRUE", "A0", "A1", "A2", "cocause0", "cocause1", "M0", "M1", "M2", "M0_1",
                "A0M0", "A1M1", "M0M1", "A0~M0", "A1~M1", "U_D_1"]
        expanded = 0
        for _ in range(300):
            names = rng.sample(pool, rng.randint(1, 5))
            parents = tuple(names[:rng.randint(1, min(3, len(names)))])
            rows = tuple(rng.sample(range(1 << (1 << len(parents))), rng.randint(1, 2 + len(parents))))
            table = ResponseTable("D", parents, rows, (Fraction(1, len(rows)),) * len(rows))
            g = Dag([*names, "D"], [(p, "D") for p in parents])
            canonical = canonical_representation(table)
            for rep in (canonical, Representation("D", tuple(reduce_to_nonredundant(table, canonical.terms)))):
                if not rep.terms:
                    continue
                exp = expand(g, "D", rep, table)
                assert exp.dag.nodes[:len(g.nodes)] == g.nodes
                assert len(set(exp.dag.nodes)) == len(exp.dag.nodes)
                assert exp.dag.parents("D") == exp.and_nodes
                expanded += 1
        assert expanded > 300


class TestStratumConditioning:
    def test_stratum_sets(self):
        m, rep = pairs_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert stratum_conditioning_set(exp, 0) == {"D", "E1E2", "E3E4"}
        assert stratum_conditioning_set(exp, 1) == {"D"}
        assert stratum_conditioning_set(exp, 1, ("E1", "D")) == {"D", "E1"}
        with pytest.raises(ValueError, match="stratum"):
            stratum_conditioning_set(exp, 2)

    def test_disjoint_pairs_verdicts(self):
        m, rep = pairs_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        for x in ("E1", "E2"):
            for y in ("E3", "E4"):
                assert stratum_independent(exp, x, y, (), 0)
        assert not stratum_independent(exp, "E1", "E3", (), 1)
        assert not stratum_independent(exp, "E1", "E2", (), 0)

    def test_overlap_verdicts_and_witness(self):
        m, rep = overlap_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        assert not stratum_independent(exp, "E1", "A", (), 0)
        assert not stratum_independent(exp, "E1", "E2", (), 0)
        assert not stratum_independent(exp, "E2", "A", (), 0)
        w = stratum_witness(exp, "E1", "A", (), 0)
        assert w is not None and w.nodes == ("E1", "E1E2", "E2", "A~E2", "A")

    def test_redundant_term_obscures_independence(self):
        g1 = Dag(["A", "B", "E", "F", "D"], [(p, "D") for p in "ABEF"])
        m1 = Scm(g1, {**roots("ABEF"),
                      "D": ResponseTable.deterministic(
                          "D", ("A", "B", "E", "F"), lambda a, b, e, f: (a & b) | (e & f))})
        exp1 = expand(m1.graph, "D", Representation("D", (conj("A", "B"), conj("E", "F"))), m1.tables["D"])
        assert stratum_independent(exp1, "A", "E", (), 0)

        g2 = Dag(["A", "B", "E", "F", "Q", "D"],
                 [("B", "Q"), ("E", "Q")] + [(p, "D") for p in ("A", "B", "E", "F", "Q")])
        m2 = Scm(g2, {**roots("ABEF"),
                      "Q": ResponseTable.deterministic("Q", ("B", "E"), lambda b, e: b & e),
                      "D": ResponseTable.deterministic(
                          "D", ("A", "B", "E", "F", "Q"),
                          lambda a, b, e, f, q: (a & b) | (a & q) | (e & f))})
        rep2 = Representation("D", (conj("A", "B"), conj("A", "Q"), conj("E", "F")))
        exp2 = expand(m2.graph, "D", rep2, m2.tables["D"])
        assert stratum_conditioning_set(exp2, 0) == {"D", "AB", "AQ", "EF"}
        assert not stratum_independent(exp2, "A", "E", (), 0)

    def test_witnesses_are_unblocked_paths_on_seeded_expansions(self):
        # the witness is None exactly when the exhaustive search finds no
        # path, and otherwise passes the literal blocking test
        rng = random.Random(2413)
        found = {True: 0, False: 0}
        for _, exp in seeded_expansions(2413, 16):
            nodes = exp.dag.nodes
            for stratum in (0, 1):
                for x, y in combinations(nodes, 2):
                    z = tuple(rng.sample([n for n in nodes if n not in (x, y)], rng.randint(0, 1)))
                    cond = stratum_conditioning_set(exp, stratum, z)
                    if x in cond or y in cond:
                        continue
                    w = stratum_witness(exp, x, y, z, stratum)
                    assert stratum_independent(exp, x, y, z, stratum) is (w is None)
                    assert (w is None) is (dfs_unblocked_path(exp.dag, x, y, cond) is None), (x, y, cond)
                    if w is not None:
                        assert (w.nodes[0], w.nodes[-1]) == (x, y) and not path_blocked(exp.dag, w, cond)
                    found[w is None] += 1
        assert found[True] >= 10 and found[False] >= 100, found


class TestExpandModel:
    """The declared representation when there is one, else the canonical one of the deduplicated table."""

    def test_declared(self):
        m, rep = overlap_model()
        model = Model(m.graph, m.tables, {"D": rep})
        exp, source = expand_model(model, "D")
        assert source == "declared"
        assert exp == expand(m.graph, "D", rep, m.tables["D"])

    def test_canonical_from_a_table_with_repeated_rows(self):
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        table = ResponseTable("D", ("E1", "E2"), (8, 14, 8), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        exp, source = expand_model(Model(g, {"D": table}), "D")
        deduped = dedupe_states(table)
        assert source == "canonical" and deduped.rows == (8, 14)
        assert exp == expand(g, "D", canonical_representation(deduped), deduped)

    def test_neither(self):
        g = Dag(["E", "D"], [("E", "D")])
        with pytest.raises(ValueError) as info:
            expand_model(Model(g), "D")
        assert str(info.value) == "no representation or equation for 'D'"


class TestExpandedJoint:
    def test_columns_follow_the_sufficient_cause_equations(self):
        for m, exp in seeded_expansions(4242, 120):
            dist = expanded_distribution(m, exp)
            assert dist.columns[-len(exp.auxiliary_nodes):] == exp.auxiliary_nodes
            for vals, _ in dist.rows:
                v = dict(zip(dist.columns, vals))
                for term, c_name, a_name in zip(exp.terms, exp.cocause_nodes, exp.and_nodes):
                    cocause = 1
                    if c_name is not None:
                        cocause = v[c_name]
                        assert cocause == int(v[exp.exogenous] in term.cocause.states)
                    literals = [v[lit.base] != lit.complemented for lit in term.literals]
                    assert v[a_name] == int(cocause == 1 and all(literals))
                assert v["D"] == max(v[a] for a in exp.and_nodes)

    def test_budget_bounds_the_split_by_positive_states(self):
        # X's base joint has 2 rows; its three positive states split them into 3
        third = Fraction(1, 3)
        g = Dag(["X"], [])
        table = ResponseTable("X", (), (1, 0, 1, 0), (third, third, third, Fraction(0)))
        m = Scm(g, {"X": table})
        exp = expand(g, "X", Representation("X", (conj(states=(0, 2)),)), table)
        assert len(joint_distribution(m, budget=2).rows) == 2
        assert len(expanded_distribution(m, exp, budget=3).rows) == 3
        with pytest.raises(BudgetExceededError, match="3 joint rows at node X exceed the budget of 2"):
            expanded_distribution(m, exp, budget=2)

    def test_columns_are_base_then_auxiliary_nodes(self):
        g = Dag(["E1", "E2", "D", "C"], [("E1", "D"), ("E2", "D"), ("D", "C")])
        table = ResponseTable("D", ("E1", "E2"), (8, 14, 6), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        m = Scm(g, {**roots(("E1", "E2")), "D": table,
                    "C": ResponseTable.deterministic("C", ("D",), lambda d: d)})
        exp = expand(g, "D", canonical_representation(table), table)
        dist = expanded_distribution(m, exp)
        assert dist.columns == g.nodes + exp.auxiliary_nodes == (
            "E1", "E2", "D", "C", "U", "A0", "A0E1", "A1", "A1E2", "A2", "A2E1E2", "A3", "A3E1~E2", "A4", "A4~E1E2")

    def test_rejects_a_representation_of_the_deduplicated_table(self):
        # D's states 0 and 2 are the same row: the canonical representation
        # of the deduplicated table numbers its states 0 and 1, so state 2 of
        # the model's own table is in no term's state set
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        table = ResponseTable("D", ("E1", "E2"), (14, 8, 14),
                              (Fraction(1, 4), half, Fraction(1, 4)))
        m = Scm(g, {**roots(("E1", "E2")), "D": table})
        deduped = dedupe_states(table)
        exp = expand(g, "D", canonical_representation(deduped), deduped)
        with pytest.raises(ValueError, match="representation for 'D' is not determinative"):
            expanded_distribution(m, exp)


class TestMarkovAudit:
    """The expanded DAG's d-separations hold as exact CI in the expanded joint."""

    def test_separations_hold_exactly(self):
        for m, exp in markov_expansions(2009, 10):
            assert markov_violations(exp.dag, expanded_distribution(m, exp)) == []

    def test_separations_hold_exactly_given_two_nodes(self):
        # the expansions of at most 19 nodes: all 10 take about 7 times as long
        small = [(m, exp) for m, exp in markov_expansions(2009, 10) if len(exp.dag.nodes) <= 19]
        assert len(small) == 6
        for m, exp in small:
            assert markov_violations(exp.dag, expanded_distribution(m, exp), sizes=(2,)) == []

    def test_a_dropped_cocause_edge_is_caught(self):
        # drop the first co-cause -> AND edge whose AND node is not constant
        # (a constant one shows no dependence to miss)
        for m, exp in markov_expansions(2009, 10):
            dist = expanded_distribution(m, exp)
            edges = [(c, a) for c, a in zip(exp.cocause_nodes, exp.and_nodes) if c not in (None, a)]
            dropped = next(e for e in edges if len(dist.marginal([e[1]])) == 2)
            mutant = Dag(exp.dag.nodes, [e for e in exp.dag.edges if e != dropped])
            assert markov_violations(mutant, dist), dropped


class TestOracleSoundness:
    def test_expanded_distribution_matches_base_marginal(self):
        m, rep = pairs_model()
        exp = expand(m.graph, "D", rep, m.tables["D"])
        base_cols = list(m.graph.nodes)
        assert expanded_distribution(m, exp).marginal(base_cols) == \
            joint_distribution(m).marginal(base_cols)

    def test_true_verdicts_hold_exactly_for_random_parameterizations(self):
        rng = random.Random(515)
        for _ in range(25):
            m, rep = pairs_model(rng)
            exp = expand(m.graph, "D", rep, m.tables["D"])
            dist = expanded_distribution(m, exp)
            if dist.marginal(["D"]).get((0,), 0) == 0:
                continue
            assert conditional_independent(dist, "E1", "E3", (), {"D": 0})
            assert conditional_independent(dist, "E1", "E4", (), {"D": 0})

    def test_false_verdict_is_not_a_dependence_claim_but_can_be_dependence(self):
        # some parameterization of the overlapping model shows real dependence
        rng = random.Random(99)
        found = False
        for _ in range(40):
            m, rep = overlap_model(rng)
            exp = expand(m.graph, "D", rep, m.tables["D"])
            dist = expanded_distribution(m, exp)
            if dist.marginal(["D"]).get((0,), 0) == 0:
                continue
            if not conditional_independent(dist, "E1", "A", (), {"D": 0}):
                found = True
                break
        assert found

    def test_random_representations_stratum_soundness(self):
        # every true stratum verdict on randomly parameterized canonical
        # expansions is confirmed exactly by the oracle, in both strata
        rng = random.Random(31337)
        checked = 0
        seed = 0
        while checked < 60:
            seed += 1
            k = rng.randint(1, 5)
            rows = tuple(rng.sample(range(16), k))
            weights = [rng.randint(1, 4) for _ in rows]
            total = sum(weights)
            table = ResponseTable("D", ("E1", "E2"), rows,
                                  tuple(Fraction(w, total) for w in weights))
            g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
            m = Scm(g, {"E1": ResponseTable.bernoulli("E1", random_fraction(rng)),
                        "E2": ResponseTable.bernoulli("E2", random_fraction(rng)),
                        "D": table})
            rep = canonical_representation(table)
            if not rep.terms:
                continue
            exp = expand(m.graph, "D", rep, m.tables["D"])
            dist = expanded_distribution(m, exp)
            queryable = [n for n in exp.dag.nodes if n != "D"]
            for stratum in (0, 1):
                if dist.marginal(["D"]).get((stratum,), 0) == 0:
                    continue
                for i, x in enumerate(queryable):
                    for y in queryable[i + 1:]:
                        cond = stratum_conditioning_set(exp, stratum)
                        if x in cond or y in cond:
                            continue
                        if stratum_independent(exp, x, y, (), stratum):
                            assert conditional_independent(
                                dist, x, y, (), {"D": stratum}), (rows, x, y, stratum)
            checked += 1

    def test_cocauses_independent_of_parents(self):
        # co-cause indicators are functions of the target's response term only
        rng = random.Random(808)
        for seed in range(30):
            k = rng.randint(1, 6)
            rows = tuple(rng.sample(range(16), k))
            weights = [rng.randint(1, 5) for _ in rows]
            total = sum(weights)
            table = ResponseTable("D", ("E1", "E2"), rows,
                                  tuple(Fraction(w, total) for w in weights))
            g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
            m = Scm(g, {"E1": ResponseTable.bernoulli("E1", random_fraction(rng)),
                        "E2": ResponseTable.bernoulli("E2", random_fraction(rng)),
                        "D": table})
            rep = canonical_representation(table)
            if not rep.terms:
                continue
            exp = expand(m.graph, "D", rep, m.tables["D"])
            dist = expanded_distribution(m, exp)
            for a in filter(None, exp.cocause_nodes):
                for parent in ("E1", "E2"):
                    assert conditional_independent(dist, a, parent)
