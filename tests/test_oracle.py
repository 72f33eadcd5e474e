"""Exact oracle queries and the constrained random generator."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from suffcause import (
    CoCauseKind,
    ConditioningError,
    Dag,
    GenerationError,
    Literal,
    ResponseTable,
    Scm,
    Sign,
    canonical_representation,
    conditional_covariance,
    conditional_independent,
    dedupe_states,
    detect_monotonic_effect,
    draw_plan,
    expand,
    expanded_distribution,
    joint_distribution,
    random_instance,
    read_assertions,
    verify_claim,
)
from suffcause.covsign import CovQuantity, SignConclusion
from suffcause.modelfile import Assertion
from suffcause.oracle import _candidate_rows, admissible_row_sets
from suffcause.scm import _monotone_close, _parent_mask
from suffcause.signs import Relation

from support import (
    MONOTONE_PAIR_ROWS,
    enumerate_joint,
    random_dag,
    random_signs,
    reference_covariance,
    ref_canonical_terms,
    reference_independent,
    reference_monotone_close,
    reference_random_instance,
    reference_restricted_covariance,
    reference_row_direction_holds,
    reference_tally_independent,
    value_marginal,
    without_term,
)

half = Fraction(1, 2)


def fair(name):
    return ResponseTable.bernoulli(name, half)


def or_model():
    g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
    return Scm(g, {"E1": fair("E1"), "E2": fair("E2"),
                   "D": ResponseTable.deterministic("D", ("E1", "E2"), lambda a, b: a | b)})


class TestConditionalCovariance:
    def test_disjunction_stratum(self):
        dist = joint_distribution(or_model())
        assert conditional_covariance(dist, "E1", "E2", {"D": 1}) == Fraction(-1, 9)

    def test_independent_unconditioned(self):
        g = Dag(["X", "Y"], [])
        dist = joint_distribution(Scm(g, {"X": fair("X"), "Y": fair("Y")}))
        assert conditional_covariance(dist, "X", "Y") == 0

    def test_self_covariance_is_variance(self):
        g = Dag(["X"], [])
        dist = joint_distribution(Scm(g, {"X": ResponseTable.bernoulli("X", Fraction(1, 3))}))
        assert conditional_covariance(dist, "X", "X") == Fraction(2, 9)

    def test_zero_probability_conditioning(self):
        g = Dag(["X"], [])
        dist = joint_distribution(Scm(g, {"X": ResponseTable.constant("X", 1)}))
        with pytest.raises(ConditioningError):
            conditional_covariance(dist, "X", "X", {"X": 0})


class TestConditionalIndependence:
    def test_fork(self):
        g = Dag(["C", "X", "Y"], [("C", "X"), ("C", "Y")])
        m = Scm(g, {"C": fair("C"),
                    "X": ResponseTable("X", ("C",), (2, 3), (half, half)),
                    "Y": ResponseTable("Y", ("C",), (2, 0), (half, half))})
        dist = joint_distribution(m)
        assert not conditional_independent(dist, "X", "Y")
        assert conditional_independent(dist, "X", "Y", ("C",))

    def test_collider_conditioning_creates_dependence(self):
        dist = joint_distribution(or_model())
        assert conditional_independent(dist, "E1", "E2")
        assert not conditional_independent(dist, "E1", "E2", ("D",))

    def test_stratum_restriction(self):
        dist = joint_distribution(or_model())
        assert not conditional_independent(dist, "E1", "E2", (), {"D": 1})

    def test_set_arguments(self):
        g = Dag(["A", "B", "C"], [])
        m = Scm(g, {n: fair(n) for n in "ABC"})
        dist = joint_distribution(m)
        assert conditional_independent(dist, ("A", "B"), "C")


class TestVerifyClaim:
    def test_relations(self):
        dist = joint_distribution(or_model())
        q = CovQuantity("E1", "E2", "D", 1)
        assert verify_claim(dist, SignConclusion(q, Relation.LE0, "r", ()))
        assert not verify_claim(dist, SignConclusion(q, Relation.GE0, "r", ()))
        assert not verify_claim(dist, SignConclusion(q, Relation.EQ0, "r", ()))

    def test_sign_equality_weak_semantics(self):
        dist = joint_distribution(or_model())
        inner = CovQuantity("E1", "E2", "D", 1)
        outer_q = CovQuantity("E1", "E2", "D", 1)
        claim = SignConclusion(outer_q, Relation.SIGN_EQUALS, "r", (), other=inner)
        assert verify_claim(dist, claim)

    def test_deliberately_false_claim(self):
        g = Dag(["X"], [])
        dist = joint_distribution(Scm(g, {"X": ResponseTable.bernoulli("X", Fraction(1, 3))}))
        claim = SignConclusion(CovQuantity("X", "X", "X", 1), Relation.LE0, "r", ())
        # Var(X | X=1) is 0, so <=0 holds; flip to a strict impossibility instead
        assert verify_claim(dist, claim)
        g2 = or_model()
        dist2 = joint_distribution(g2)
        bad = SignConclusion(CovQuantity("E1", "E2", "D", 1), Relation.GE0, "r", ())
        assert not verify_claim(dist2, bad)


def _rough_table(rng, node, parents):
    """Arbitrary table: 1-3 states (repeats allowed), some of probability 0."""
    k = rng.randint(1, 3)
    rows = tuple(rng.randrange(1 << (1 << len(parents))) for _ in range(k))
    weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in rows]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    return ResponseTable(node, parents, rows, tuple(Fraction(w, sum(weights)) for w in weights))


def _differential_models():
    """random_instance models on 200 seeded DAGs of 1-7 nodes, 60 models of
    rough tables, and one with denominators 3 and 7 in one table."""
    rng = random.Random(4040)
    for seed in range(200):
        g = random_dag(rng, rng.randint(1, 7))
        yield random_instance(draw_plan(g), seed)
    for _ in range(60):
        g = random_dag(rng, rng.randint(1, 6), 0.5)
        yield Scm(g, {n: _rough_table(rng, n, g.parents(n)) for n in g.nodes})
    g = Dag(["A", "B", "D"], [("A", "D"), ("B", "D")])
    yield Scm(g, {
        "A": ResponseTable.bernoulli("A", Fraction(1, 3)),
        "B": ResponseTable("B", (), (1, 0, 1), (Fraction(2, 7), Fraction(0), Fraction(5, 7))),
        "D": ResponseTable("D", ("A", "B"), (8, 14, 6), (Fraction(1, 3), Fraction(2, 7), Fraction(8, 21))),
    })


class TestMatchesWorldEnumeration:
    """Forward propagation against the test-only world enumerator."""

    def test_joint_covariance_and_independence(self):
        rng = random.Random(77)
        for m in _differential_models():
            nodes = m.graph.nodes
            values = value_marginal(m, enumerate_joint(m))
            dist = joint_distribution(m)
            assert dist.columns == nodes
            assert dist.marginal(nodes) == values
            assert len(dist.rows) == len(values)
            for i, x in enumerate(nodes):
                for y in nodes[i + 1:]:
                    z = rng.choice(nodes)
                    assert conditional_independent(dist, x, y) == reference_independent(m, values, x, y)
                    assert conditional_independent(dist, x, y, (z,)) == \
                        reference_independent(m, values, x, y, (z,))
                    for given in ({}, {z: 0}, {z: 1}):
                        ref = reference_covariance(m, values, x, y, given)
                        if ref is None:
                            with pytest.raises(ConditioningError):
                                conditional_covariance(dist, x, y, given)
                        else:
                            assert conditional_covariance(dist, x, y, given) == ref

    def test_expanded_joint_splits_the_target_by_state(self):
        # the expanded joint's (values, exogenous) marginal is the world
        # enumerator's (values, target state) marginal; a representation
        # with no state-bound term keeps one row per base row
        seen = Counter()
        for m in _differential_models():
            nodes = m.graph.nodes
            k = len(nodes)
            worlds = enumerate_joint(m)
            base = joint_distribution(m)
            for i, n in enumerate(nodes):
                table = m.tables[n]
                if table.n_parents > 3 or len(set(table.rows)) < table.n_states:
                    continue
                rep = canonical_representation(table)
                if not rep.terms:
                    continue
                exp = expand(m.graph, n, rep, table)
                dist = expanded_distribution(m, exp)
                assert dist.columns == nodes + exp.auxiliary_nodes
                assert dist.scale == base.scale
                seen[exp.exogenous is not None, bool(m.graph.children(n))] += 1
                if exp.exogenous is None:
                    assert dist.marginal(nodes) == value_marginal(m, worlds)
                    assert len(dist.rows) == len(base.rows)
                    continue
                expected: dict[tuple[int, ...], Fraction] = {}
                for key, p in worlds.items():
                    cell = key[:k] + (key[k + i],)
                    expected[cell] = expected.get(cell, Fraction(0)) + p
                assert dist.marginal(nodes + (exp.exogenous,)) == expected
                assert len(dist.rows) == len(expected)
        # with and without a state-bound term, on targets with and without a child
        assert set(seen) == set(product((False, True), repeat=2)), seen


class TestQueriesMatchReferences:
    """The single-pass covariance and tally against the sums and the
    three-getter tally over a per-row filtered copy, on seeded models of
    4-8 nodes."""

    @staticmethod
    def _cases(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            g = random_dag(rng, rng.randint(4, 8), 0.45)
            m = Scm(g, {n: _rough_table(rng, n, g.parents(n)) for n in g.nodes})
            yield rng, g.nodes, joint_distribution(m)

    @staticmethod
    def _assignment(rng, nodes, k):
        return {c: rng.randint(0, 1) for c in rng.sample(nodes, k)}

    @staticmethod
    def _off_bits(assignment):
        """``assignment`` with its first column set to 2 or -1: a value outside {0, 1} matches no row."""
        return {**assignment, next(iter(assignment)): (2, -1)[len(assignment) % 2]}

    def test_covariances_match_on_the_filtered_rows(self):
        # the single pass against the sums over a restricted copy, error text included
        outcomes = Counter()
        for rng, nodes, dist in self._cases(2302, 40):
            for k in (0, 1, 2, 3):
                x, y = rng.choice(nodes), rng.choice(nodes)
                given = self._assignment(rng, nodes, k)
                try:
                    want = reference_restricted_covariance(dist, x, y, given)
                except ConditioningError as e:
                    with pytest.raises(ConditioningError) as got:
                        conditional_covariance(dist, x, y, given)
                    assert str(got.value) == str(e)
                    outcomes["empty", k] += 1
                else:
                    assert conditional_covariance(dist, x, y, given) == want
                    outcomes["kept", k] += 1
                if given:
                    off = self._off_bits(given)
                    with pytest.raises(ConditioningError) as ref:
                        reference_restricted_covariance(dist, x, y, off)
                    with pytest.raises(ConditioningError) as got:
                        conditional_covariance(dist, x, y, off)
                    assert str(got.value) == str(ref.value)
        assert {("kept", k) for k in range(4)} | {("empty", 1), ("empty", 2)} <= set(outcomes), outcomes

    def test_independence_matches_the_three_getter_tally(self):
        verdicts = Counter()
        for rng, nodes, dist in self._cases(2303, 60):
            for _ in range(6):
                x = rng.sample(nodes, rng.randint(1, 2))
                y = rng.sample([n for n in nodes if n not in x], rng.randint(1, 2))
                stratum = self._assignment(rng, nodes, rng.randint(0, 2))
                # z may share columns with the stratum
                z = rng.sample(nodes, rng.randint(0, 3))
                if len(x) == 1 and rng.random() < 0.5:
                    x = x[0]  # a column name as well as a list of them
                got = conditional_independent(dist, x, y, z, stratum)
                assert got == reference_tally_independent(dist, x, y, z, stratum)
                verdicts[got] += 1
                verdicts["overlap"] += bool(set(z) & set(stratum))
                if stratum:
                    off = self._off_bits(stratum)
                    assert conditional_independent(dist, x, y, z, off)
                    assert reference_tally_independent(dist, x, y, z, off)
        assert verdicts[True] and verdicts[False] and verdicts["overlap"]

    def test_an_unknown_column_raises_the_same_error(self):
        _, _, dist = next(self._cases(2304, 1))
        x, y = dist.columns[:2]
        bad = {x: 1, "nope": 0}
        cases = [
            (lambda: conditional_independent(dist, x, "nope"),
             lambda: reference_tally_independent(dist, x, "nope")),
            (lambda: conditional_independent(dist, x, y, ("nope",)),
             lambda: reference_tally_independent(dist, x, y, ("nope",))),
            (lambda: conditional_independent(dist, x, y, (), bad),
             lambda: reference_tally_independent(dist, x, y, (), bad)),
            # the stratum is read before an empty x or y answers True
            (lambda: conditional_independent(dist, x, (), (), bad),
             lambda: reference_tally_independent(dist, x, (), (), bad)),
            (lambda: conditional_independent(dist, (), y, (), bad),
             lambda: reference_tally_independent(dist, (), y, (), bad)),
        ]
        for ours, ref in cases:
            with pytest.raises(KeyError) as got:
                ours()
            with pytest.raises(KeyError) as want:
                ref()
            assert str(got.value) == str(want.value) == "\"unknown column 'nope'\""

    def test_empty_x_or_y_is_independent(self):
        dist = joint_distribution(or_model())
        for x, y in (((), "D"), ("E1", ()), ((), ())):
            assert conditional_independent(dist, x, y, ("E2",))
            assert reference_tally_independent(dist, x, y, ("E2",))


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        g = random_dag(random.Random(0), 5)
        plan = draw_plan(g)
        a = random_instance(plan, 42)
        b = random_instance(draw_plan(g), 42)
        assert a.tables == b.tables
        c = random_instance(plan, 43)
        assert a.tables != c.tables  # overwhelmingly likely across 5 nodes

    def test_monotone_constraint_single_parent(self):
        plan = draw_plan(Dag(["E", "D"], [("E", "D")], {("E", "D"): "+"}))
        for seed in range(40):
            m = random_instance(plan, seed)
            assert detect_monotonic_effect(m.tables["D"], "E") is Sign.POSITIVE
            # the inverter row never appears
            assert 1 not in m.tables["D"].rows

    def test_monotone_constraint_negative(self):
        plan = draw_plan(Dag(["E", "D"], [("E", "D")], {("E", "D"): "-"}))
        for seed in range(40):
            m = random_instance(plan, seed)
            assert 2 not in m.tables["D"].rows

    def test_forbidden_synergy_term(self):
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")], {("E1", "D"): "+", ("E2", "D"): "+"})
        plan = draw_plan(g, row_filter={"D": without_term("D", ("E1", "E2"), (Literal("E1"), Literal("E2")))})
        for seed in range(60):
            m = random_instance(plan, seed)
            rep = canonical_representation(dedupe_states(m.tables["D"]))
            assert all({l.base for l in t.literals} != {"E1", "E2"} for t in rep.terms)

    def test_candidates_hold_both_constant_rows(self):
        # the two constant rows meet every requirement, so no node's
        # candidate list is ever empty
        for m in range(4):
            full = (1 << (1 << m)) - 1
            for signs in product((None, "+", "-"), repeat=m):
                candidates = _candidate_rows(signs)
                assert 0 in candidates and full in candidates, signs

    def test_candidates_match_the_per_configuration_reference(self):
        for m in range(4):
            n_configs = 1 << m
            for signs in product((None, "+", "-"), repeat=m):
                expected = tuple(
                    r for r in range(1 << n_configs)
                    if all(reference_row_direction_holds(r, n_configs, 1 << i, s == "+")
                           for i, s in enumerate(signs) if s)
                )
                assert _candidate_rows(signs) == expected, signs

    def test_monotone_close_matches_the_bit_by_bit_reference(self):
        rng = random.Random(2024)
        for _ in range(3000):
            m = rng.randint(1, 7)
            n_configs = 1 << m
            requirements = [(1 << rng.randrange(m), rng.choice("+-")) for _ in range(rng.randint(0, m + 1))]
            steps = [(_parent_mask(n_configs, bit), bit, sign) for bit, sign in requirements]
            row = rng.getrandbits(n_configs)
            assert _monotone_close(row, steps) == \
                reference_monotone_close(row, n_configs, requirements), (row, m, requirements)

    def test_larger_parent_sets_via_closure(self):
        g = Dag(["A", "B", "C", "E", "D"], [(p, "D") for p in ("A", "B", "C", "E")],
                {("A", "D"): "+", ("B", "D"): "-"})
        from suffcause.signs import directional_effect_holds
        plan = draw_plan(g)
        for seed in range(10):
            m = random_instance(plan, seed)
            assert directional_effect_holds(m.tables["D"], "A", "+")
            assert directional_effect_holds(m.tables["D"], "B", "-")

    def test_closure_path_keeps_required_signs(self):
        # Nodes with more than 3 parents draw rows by monotone closure, not
        # from a filtered candidate list; closing along one parent must not
        # undo the closure along another.
        from suffcause.signs import is_constant_in
        for n_parents in (4, 5):
            parents = [f"P{i}" for i in range(n_parents)]
            signs = ("+", "-", "-", "+", "-")[:n_parents]
            required = tuple(zip(parents, signs))
            g = Dag(parents + ["D"], [(p, "D") for p in parents], {(p, "D"): s for p, s in required})
            plan = draw_plan(g)
            for seed in range(100):
                t = random_instance(plan, seed).tables["D"]
                for p, s in required:
                    bit = 1 << parents.index(p)
                    assert all(reference_row_direction_holds(r, t.n_configs, bit, s == "+") for r in t.rows)
                    effect = detect_monotonic_effect(t, p)
                    if s == "+":
                        assert effect is Sign.POSITIVE
                    else:
                        assert effect is Sign.NEGATIVE or is_constant_in(t, p)

    def test_signed_in_edges_constrain_every_node(self):
        # default constraints: the graph's signs alone make each drawn table
        # monotone along every signed in-edge, over candidates (1-3 parents)
        # and by closure (4-5), while an unsigned in-edge stays free
        rng = random.Random(1717)
        monotone = {"candidates": 0, "closure": 0}
        free = {"candidates": 0, "closure": 0}
        for seed in range(120):
            nodes = [f"X{i}" for i in range(7)]
            edges = [(p, c) for j, c in enumerate(nodes[1:], 1)
                     for p in rng.sample(nodes[:j], rng.randint(1, min(5, j)))]
            g = random_signs(rng, Dag(nodes, edges))
            m = random_instance(draw_plan(g), seed)
            for node in nodes[1:]:
                t = m.tables[node]
                path = "candidates" if t.n_parents <= 3 else "closure"
                for i, p in enumerate(t.parents):
                    s = g.signs.get((p, node))
                    if s is None:
                        free[path] += detect_monotonic_effect(t, p) is Sign.UNDEFINED
                        continue
                    assert all(reference_row_direction_holds(r, t.n_configs, 1 << i, s == "+") for r in t.rows), \
                        (seed, node, p, s, t.rows)
                    monotone[path] += 1
        assert min(monotone.values()) >= 50, monotone
        assert min(free.values()) >= 10, free

    def test_candidate_cache_keeps_draws(self):
        g = Dag(["A", "B", "C", "E", "F", "D"],
                [("A", "C"), ("B", "C"), ("A", "E"), ("C", "E"), ("B", "F"),
                 ("C", "D"), ("E", "D"), ("F", "D")],
                {("A", "C"): "+", ("B", "C"): "-", ("C", "D"): "+", ("E", "D"): "-", ("F", "D"): "+"})
        plan = draw_plan(g)
        drawn = []
        for seed in range(50):
            _candidate_rows.cache_clear()
            cold = random_instance(draw_plan(g), seed)
            warm = random_instance(plan, seed)
            assert cold.tables == warm.tables
            drawn.append(repr([(n, cold.tables[n].rows, cold.tables[n].probs) for n in g.nodes]))
        # the same draws as the uncached generator that preceded the cache
        assert hashlib.sha256("\n".join(drawn).encode()).hexdigest()[:16] == "31cc44a6e3b196bd"

    def test_repeat_runs_are_byte_identical(self):
        g = random_dag(random.Random(1), 4)
        reprs = set()
        for _ in range(3):
            m = random_instance(draw_plan(g), 7)
            reprs.add(repr(sorted((n, t.rows, t.probs) for n, t in m.tables.items())))
        assert len(reprs) == 1


def _chi2_bound(df: int, z: float = 3.0902) -> float:
    """Upper 0.1% point of the chi-square law with ``df`` degrees of freedom (Wilson-Hilferty)."""
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


NO_SYNERGY = without_term("D", ("E1", "E2"), (Literal("E1"), Literal("E2")))


class TestRowFilter:
    """A filtered node's rows come from the unfiltered law conditioned on the filter."""

    PARENTS = ("E1", "E2")
    GRAPH = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")], {("E1", "D"): "+", ("E2", "D"): "+"})
    SLOT_BASES = {
        "a0": frozenset(), "a1": frozenset({"E1"}), "a2": frozenset({"E2"}), "a3": frozenset({"E1", "E2"})
    }
    DRAWS = 1200

    @classmethod
    def reference_flags(cls, rows) -> dict[str, str]:
        """Slot flags from the atom-by-atom canonical terms of a table with these rows."""
        table = ResponseTable("D", cls.PARENTS, rows, (Fraction(1, len(rows)),) * len(rows))
        terms = {frozenset(l.base for l in t.literals): t for t in ref_canonical_terms(table)}
        flags = {}
        for slot, bases in cls.SLOT_BASES.items():
            term = terms.get(bases)
            if term is None:
                flags[slot] = "zero"
            else:
                flags[slot] = "one" if term.cocause.kind is CoCauseKind.ONE else "neither"
        return flags

    def filters(self):
        """(name, row filter, reference predicate on a row set) for each case."""
        out = []
        for slot in self.SLOT_BASES:
            for value in ("zero", "one"):
                flag = Assertion("rep-flag", ("D", "E1", "E2", slot, value))
                asserted = read_assertions([flag], "D", "E1", "E2")
                out.append((
                    f"{slot} {value}",
                    asserted.admits_rows,
                    lambda flags, slot=slot, value=value: flags[slot] == value,
                ))
        out.append(("no E1*E2 term", NO_SYNERGY, lambda flags: flags["a3"] == "zero"))
        return out

    def test_draws_match_brute_force_and_the_conditional_law(self):
        row_sets = [frozenset(c) for k in (1, 2, 3) for c in combinations(MONOTONE_PAIR_ROWS, k)]
        assert len(row_sets) == 41
        flags = {s: self.reference_flags(tuple(sorted(s))) for s in row_sets}
        for name, keep, holds in self.filters():
            admissible = {s for s in row_sets if holds(flags[s])}
            plan = draw_plan(self.GRAPH, row_filter={"D": keep})
            enumerated = admissible_row_sets(plan, "D")
            assert {frozenset(r) for r in enumerated} == admissible, name
            counts = Counter(
                frozenset(random_instance(plan, seed).tables["D"].rows)
                for seed in range(self.DRAWS)
            )
            assert set(counts) == admissible, name
            # unfiltered, a draw picks its size uniformly, then a uniform
            # subset of that size: P(S) is proportional to 1 / C(6, |S|)
            weight = {s: Fraction(1, math.comb(len(MONOTONE_PAIR_ROWS), len(s))) for s in admissible}
            total = sum(weight.values())
            expected = {s: self.DRAWS * w / total for s, w in weight.items()}
            chi2 = sum((counts[s] - e) ** 2 / e for s, e in expected.items())
            if len(admissible) > 1:
                assert chi2 < _chi2_bound(len(admissible) - 1), (name, float(chi2), len(admissible))

    def test_unfiltered_nodes_draw_no_extra_numbers(self):
        # the filter on D redraws only D's rows: the roots, drawn before
        # it, keep their tables, and a filter that accepts everything
        # changes nothing
        everything = draw_plan(self.GRAPH, row_filter={"D": lambda rows: True})
        plain = draw_plan(self.GRAPH)
        no_synergy = draw_plan(self.GRAPH, row_filter={"D": NO_SYNERGY})
        for seed in range(50):
            base = random_instance(plain, seed).tables
            assert random_instance(everything, seed).tables == base
            filtered = random_instance(no_synergy, seed).tables
            assert (filtered["E1"], filtered["E2"]) == (base["E1"], base["E2"])

    def test_generation_error_names_the_node(self):
        plan = draw_plan(self.GRAPH, row_filter={"D": lambda rows: False})
        with pytest.raises(GenerationError) as caught:
            random_instance(plan, 0)
        assert caught.value.node == "D"
        assert admissible_row_sets(plan, "D") == []


class TestDrawPlan:
    """A draw from a plan is the per-call reference generator's draw, table for table."""

    @staticmethod
    def assert_draws_match(g, seeds, **kw):
        plan = draw_plan(g, **kw)  # one plan for every seed, as oracle-check uses it
        for seed in seeds:
            try:
                want = reference_random_instance(g, seed, **kw)
            except GenerationError as e:
                with pytest.raises(GenerationError, match=str(e)):
                    random_instance(plan, seed)
                continue
            got = random_instance(plan, seed)
            for n in g.nodes:
                a, b = want.tables[n], got.tables[n]
                assert (a.rows, a.weights, a.scale, a.probs) == (b.rows, b.weights, b.scale, b.probs), (seed, n)

    def test_the_seeded_dags(self):
        # the 200 DAGs of _differential_models, unsigned and with random signs
        rng, signing = random.Random(4040), random.Random(4041)
        for seed in range(200):
            g = random_dag(rng, rng.randint(1, 7))
            states = ((1, 3), (1, 2), (2, 4))[seed % 3]
            for h in (g, random_signs(signing, g)):
                self.assert_draws_match(h, range(seed, seed + 3), states=states, max_weight=1 + seed % 8)

    def test_nodes_drawn_by_closure(self):
        rng = random.Random(4042)
        for n_parents in (4, 5):
            parents = [f"P{i}" for i in range(n_parents)]
            g = random_signs(rng, Dag(parents + ["D"], [(p, "D") for p in parents]))
            for states in ((1, 3), (2, 2)):
                self.assert_draws_match(g, range(60), states=states)

    def test_row_filters(self):
        flag = Assertion("rep-flag", ("D", "E1", "E2", "a1", "zero"))
        for keep in (NO_SYNERGY, read_assertions([flag], "D", "E1", "E2").admits_rows, lambda rows: False):
            self.assert_draws_match(TestRowFilter.GRAPH, range(80), row_filter={"D": keep})
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        self.assert_draws_match(g, range(80), row_filter={"D": lambda rows: len(rows) > 1})
