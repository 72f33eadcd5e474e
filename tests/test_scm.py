"""Response tables, exact joint distributions, and substitution."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from suffcause import (
    DEFAULT_WORLD_BUDGET,
    BudgetExceededError,
    Dag,
    ResponseTable,
    Scm,
    can_marginalize,
    config_index,
    dedupe_states,
    joint_distribution,
    marginalize,
    substitute,
)
from suffcause.scm import _monotone_step, _parent_mask

from support import enumerate_joint, random_dag, reference_row_direction_holds, value_marginal

half = Fraction(1, 2)


def fair(name: str) -> ResponseTable:
    return ResponseTable.bernoulli(name, half)


class TestResponseTable:
    def test_identity_equation(self):
        t = ResponseTable.deterministic("D", ("E",), lambda e: e)
        assert t.output(0, 1) == 1
        assert t.output(0, 0) == 0

    def test_constant_zero(self):
        t = ResponseTable.constant("D", 0)
        assert t.output(0, 0) == 0

    def test_state_semantics(self):
        # state with f(1)=1, f(0)=0 is the identity row
        t = ResponseTable("D", ("E",), (2,), (Fraction(1),))
        assert t.output(0, config_index([1])) == 1
        assert t.output(0, config_index([0])) == 0

    def test_out_of_range(self):
        t = ResponseTable.constant("D", 1)
        with pytest.raises(ValueError):
            t.output(1, 0)
        with pytest.raises(ValueError):
            t.output(0, 1)

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ResponseTable("D", (), (0, 1), (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError, match="negative"):
            ResponseTable("D", (), (0, 1), (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="at least one"):
            ResponseTable("D", (), (), ())


def _random_table(rng: random.Random, node: str, parents: tuple[str, ...]) -> ResponseTable:
    """Rows may repeat and states may have probability zero."""
    k = rng.randint(1, 4)
    rows = tuple(rng.randrange(1 << (1 << len(parents))) for _ in range(k))
    weights = [rng.choice((0, 1, 2, 3, 5)) for _ in range(k)]
    if not any(weights):
        weights[0] = 1
    return ResponseTable(node, parents, rows, tuple(Fraction(w, sum(weights)) for w in weights))


class TestIntegerWeights:
    """A table validates its probabilities once and keeps them as integer weights."""

    @pytest.mark.parametrize("probs, message", [
        ((0.5, Fraction(1, 2)), "D: probabilities must be Fractions, got 0.5"),
        ((Fraction(3, 2), Fraction(-1, 2)), "D: negative state probability -1/2"),
        ((Fraction(1, 2), Fraction(5, 8)), "D: state probabilities sum to 9/8, not 1"),
        ((Fraction(1), Fraction(1)), "D: state probabilities sum to 2, not 1"),
    ])
    def test_validation_messages(self, probs, message):
        with pytest.raises(ValueError) as e:
            ResponseTable("D", (), (0, 1), probs)
        assert str(e.value) == message

    def test_weights_over_the_least_common_denominator(self):
        rng = random.Random(11)
        for _ in range(300):
            t = _random_table(rng, "D", ("A", "B")[:rng.randint(0, 2)])
            assert t.scale == lcm(*(p.denominator for p in t.probs))
            assert sum(t.weights) == t.scale
            assert all(Fraction(w, t.scale) == p for w, p in zip(t.weights, t.probs))
            assert "weights" not in repr(t)

    @staticmethod
    def assert_same_as_probs(parents, rows, weights):
        """``from_weights`` equals the table built from ``Fraction(w, total)`` probabilities."""
        total = sum(weights)
        want = ResponseTable("D", parents, rows, tuple(Fraction(w, total) for w in weights))
        got = ResponseTable.from_weights("D", parents, rows, weights)
        assert got == want and hash(got) == hash(want)
        assert (got.weights, got.scale, got.probs) == (want.weights, want.scale, want.probs)
        assert all(type(p) is Fraction for p in got.probs) and repr(got) == repr(want)

    def test_from_weights_matches_the_probability_constructor(self):
        rng = random.Random(14)
        for _ in range(300):
            parents = ("A", "B")[:rng.randint(0, 2)]
            k = rng.randint(1, 4)
            rows = tuple(rng.randrange(1 << (1 << len(parents))) for _ in range(k))
            weights = [rng.choice((0, 1, 2, 3, 4, 6, 8)) for _ in range(k)]
            if not any(weights):
                weights[0] = rng.randint(1, 8)
            self.assert_same_as_probs(parents, rows, weights)

    @pytest.mark.parametrize("weights, reduced, scale", [
        ((2, 4, 6), (1, 2, 3), 6),  # a shared factor
        ((0, 3), (0, 1), 1),  # a zero weight
        ((0, 4, 0, 6), (0, 2, 0, 3), 5),
        ((5,), (1,), 1),
    ])
    def test_from_weights_in_lowest_terms(self, weights, reduced, scale):
        rows = tuple(range(len(weights)))
        t = ResponseTable.from_weights("D", ("E",), rows, weights)
        assert (t.weights, t.scale) == (reduced, scale)
        self.assert_same_as_probs(("E",), rows, weights)

    @pytest.mark.parametrize("rows, weights, message", [
        ((0, 4), (1, 1), "D: row 4 out of range for 1 parents"),
        ((0, 1, 2), (1, 1), "D: 3 rows but 2 probabilities"),
        ((0, 1), (3, -1), "D: negative state probability -1/2"),
        ((0, 1), (0, 0), "D: state probabilities sum to 0, not 1"),
        ((), (), "D: a table needs at least one response state"),
    ])
    def test_from_weights_validation_messages(self, rows, weights, message):
        with pytest.raises(ValueError) as e:
            ResponseTable.from_weights("D", ("E",), rows, weights)
        assert str(e.value) == message
        if sum(weights) > 0:  # the same text as the probabilities Fraction(w, total) give
            with pytest.raises(ValueError) as e:
                ResponseTable("D", ("E",), rows, tuple(Fraction(w, sum(weights)) for w in weights))
            assert str(e.value) == message

    @pytest.mark.parametrize("weights, message", [
        ((Fraction(1, 2), Fraction(1, 2)), "D: weights must be ints, got Fraction(1, 2)"),
        ((1, 0.5), "D: weights must be ints, got 0.5"),
        (("1", 1), "D: weights must be ints, got '1'"),
    ])
    def test_from_weights_refuses_weights_that_are_not_ints(self, weights, message):
        # refused by type, naming the node, before any sum or gcd of the weights
        with pytest.raises(ValueError) as e:
            ResponseTable.from_weights("D", ("E",), (0, 1), weights)
        assert str(e.value) == message

    def test_dedupe_returns_a_table_with_distinct_rows_itself(self):
        t = ResponseTable("D", ("E",), (0, 3, 2), (Fraction(1, 6), Fraction(1, 3), half))
        assert dedupe_states(t) is t

    def test_dedupe_merges_integer_weights(self):
        t = ResponseTable("D", ("E",), (2, 1, 2), (Fraction(1, 4), half, Fraction(1, 4)))
        out = dedupe_states(t)
        assert (out.rows, out.weights, out.scale) == ((2, 1), (1, 1), 2)
        rng = random.Random(12)
        for _ in range(300):
            t = _random_table(rng, "D", ("A",))
            out = dedupe_states(t)
            assert len(set(out.rows)) == len(out.rows) and set(out.rows) == set(t.rows)
            for row, p in zip(out.rows, out.probs):
                assert p == sum((q for r, q in zip(t.rows, t.probs) if r == row), Fraction(0))

    def test_joint_matches_world_enumeration_on_seeded_models(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_dag(rng, rng.randint(2, 5))
            m = Scm(g, {n: _random_table(rng, n, g.parents(n)) for n in g.nodes})
            dist = joint_distribution(m)
            assert dist.marginal(g.nodes) == value_marginal(m, enumerate_joint(m))


class TestTableIsItsWeights:
    """A table's fields are its integer weights; its probabilities are derived when read."""

    def test_fields_are_the_weights_and_probs_is_derived(self):
        t = ResponseTable("D", ("E",), (1, 2), (Fraction(1, 3), Fraction(2, 3)))
        assert [f.name for f in dataclasses.fields(t)] == ["node", "parents", "rows", "weights", "scale"]
        assert "probs" not in vars(t)
        unread = ResponseTable.from_weights("D", ("E",), (1, 2), (2, 4))
        assert t.probs == (Fraction(1, 3), Fraction(2, 3)) and vars(t)["probs"] is t.probs
        # a cached read changes neither equality nor the hash
        assert t == unread and hash(t) == hash(unread) and "probs" not in vars(unread)

    def test_list_arguments_give_the_tuple_table(self):
        listed = ResponseTable("D", ["A"], [1, 2], [half, half])
        tupled = ResponseTable("D", ("A",), (1, 2), (half, half))
        assert listed == tupled == ResponseTable.from_weights("D", ["A"], [1, 2], [1, 1])
        assert hash(listed) == hash(tupled)
        assert (listed.parents, listed.rows, listed.probs) == (("A",), (1, 2), (half, half))
        m = Scm(Dag(["A", "D"], [("A", "D")]), {"A": fair("A"), "D": listed})
        assert m.tables["D"] == tupled

    def test_drawn_tables_derive_probs_only_when_read(self):
        from suffcause import draw_plan, random_instance
        rng = random.Random(29)
        for seed in range(60):
            g = random_dag(rng, rng.randint(1, 6))
            m = random_instance(draw_plan(g), seed)
            for t in m.tables.values():
                assert "probs" not in vars(t), (seed, t.node)
                assert t.probs == tuple(Fraction(w, t.scale) for w in t.weights)
                assert all(type(p) is Fraction for p in t.probs) and "probs" in vars(t)


class TestDedupe:
    def test_merges_identical_rows(self):
        t = ResponseTable("D", (), (1, 1), (Fraction(1, 3), Fraction(2, 3)))
        out = dedupe_states(t)
        assert out.rows == (1,)
        assert out.probs == (Fraction(1),)

    def test_distinct_rows_unchanged(self):
        t = ResponseTable("D", ("E",), (0, 3), (half, half))
        assert dedupe_states(t) == t

    def test_full_single_parent_family_has_four_rows(self):
        t = ResponseTable("D", ("E",), (0, 1, 2, 3, 0, 2), (Fraction(1, 6),) * 6)
        out = dedupe_states(t)
        assert out.rows == (0, 1, 2, 3)
        assert set(out.rows) == set(t.rows)

    def test_dedupe_preserves_joint(self):
        g = Dag(["E", "D"], [("E", "D")])
        t = ResponseTable("D", ("E",), (2, 2, 1), (Fraction(1, 4), Fraction(1, 4), half))
        m1 = Scm(g, {"E": fair("E"), "D": t})
        m2 = Scm(g, {"E": fair("E"), "D": dedupe_states(t)})
        assert joint_distribution(m1).marginal(["E", "D"]) == joint_distribution(m2).marginal(["E", "D"])


class TestJointDistribution:
    def test_constant_single_node(self):
        g = Dag(["X"], [])
        dist = joint_distribution(Scm(g, {"X": ResponseTable.constant("X", 1)}))
        assert dist.marginal(["X"]) == {(1,): Fraction(1)}

    def test_disjunction_probability(self):
        g = Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])
        m = Scm(g, {
            "E1": fair("E1"), "E2": fair("E2"),
            "D": ResponseTable.deterministic("D", ("E1", "E2"), lambda a, b: a | b),
        })
        dist = joint_distribution(m)
        assert dist.marginal(["D"])[(1,)] == Fraction(3, 4)

    def test_two_fair_bits(self):
        g = Dag(["X", "Y"], [])
        dist = joint_distribution(Scm(g, {"X": fair("X"), "Y": fair("Y")}))
        assert dist.marginal(["X", "Y"]) == {
            (0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4),
            (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4),
        }

    def test_mass_is_exactly_one(self):
        rng = random.Random(11)
        from suffcause import draw_plan, random_instance
        for seed in range(30):
            g = random_dag(rng, 4)
            m = random_instance(draw_plan(g), seed)
            assert joint_distribution(m).mass() == 1

    def test_budget(self):
        g = Dag(["X", "Y"], [])
        m = Scm(g, {"X": fair("X"), "Y": fair("Y")})
        with pytest.raises(BudgetExceededError, match="4 joint rows at node Y exceed the budget of 3"):
            joint_distribution(m, budget=3)
        assert len(joint_distribution(m, budget=4).rows) == 4

    def test_budget_counts_rows_not_worlds(self):
        # every node copies its parent through two identical states: 2^25
        # worlds, but only the two rows "all 0" and "all 1"
        nodes = [f"X{i}" for i in range(25)]
        g = Dag(nodes, list(zip(nodes, nodes[1:])))
        copy = (Fraction(1, 2), Fraction(1, 2))
        tables = {n: ResponseTable(n, (p,), (0b10, 0b10), copy) for p, n in zip(nodes, nodes[1:])}
        m = Scm(g, {"X0": fair("X0"), **tables})
        assert m.world_count() == 1 << 25 > DEFAULT_WORLD_BUDGET
        dist = joint_distribution(m)
        assert sorted(vals for vals, _ in dist.rows) == [(0,) * 25, (1,) * 25]
        assert dist.mass() == 1

    @pytest.mark.parametrize("table, fanout", [
        # a zero-weight state, given as probabilities and as weights
        (ResponseTable("Z", ("X", "Y"), (0b1000, 0b0110), (Fraction(1), Fraction(0))), 1),
        (ResponseTable.from_weights("Z", ("X", "Y"), (0b0110, 0b1110, 0b1000), (0, 5, 0)), 1),
        # a single state
        (ResponseTable.deterministic("Z", ("X", "Y"), lambda a, b: a ^ b), 1),
        # two positive states, even with one row between them
        (ResponseTable("Z", ("X", "Y"), (0b0110, 0b0110), (half, half)), 2),
        (ResponseTable.from_weights("Z", ("X", "Y"), (0b0110, 0b1000), (1, 3)), 2),
    ])
    def test_budget_boundary_by_fanout(self, table, fanout):
        # two fair roots give Z four rows to split
        g = Dag(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")])
        m = Scm(g, {"X": fair("X"), "Y": fair("Y"), "Z": table})
        need = 4 * fanout
        assert joint_distribution(m, budget=need).mass() == 1
        with pytest.raises(BudgetExceededError) as e:
            joint_distribution(m, budget=need - 1)
        # with one child per row, Y's split of two rows into four is the binding one
        node = "Z" if fanout == 2 else "Y"
        assert str(e.value) == f"{need} joint rows at node {node} exceed the budget of {need - 1}"

    def test_a_lone_node_needs_its_positive_state_count_up_to_two(self):
        # the reference rule: one child per positive-weight state, at most 2
        rng = random.Random(2930)
        for _ in range(200):
            k = rng.randint(1, 4)
            rows = tuple(rng.randrange(2) for _ in range(k))
            weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(k)]
            if not any(weights):
                weights[rng.randrange(k)] = 1
            m = Scm(Dag(["D"], []), {"D": ResponseTable.from_weights("D", (), rows, weights)})
            fanout = min(sum(1 for w in weights if w), 2)
            assert joint_distribution(m, budget=fanout).mass() == 1
            with pytest.raises(BudgetExceededError) as e:
                joint_distribution(m, budget=fanout - 1)
            assert str(e.value) == f"{fanout} joint rows at node D exceed the budget of {fanout - 1}"

    def test_budget_refuses_before_the_rows_are_built(self):
        g = Dag([f"R{i}" for i in range(40)], [])
        m = Scm(g, {n: fair(n) for n in g.nodes})
        with pytest.raises(BudgetExceededError, match="2048 joint rows at node R10 exceed the budget of 2000"):
            joint_distribution(m, budget=2000)


class TestSubstitution:
    def test_chain_substitution(self):
        g = Dag(["A", "M", "B"], [("A", "M"), ("M", "B")])
        m = Scm(g, {
            "A": fair("A"),
            "M": ResponseTable.deterministic("M", ("A",), lambda a: a),
            "B": ResponseTable.deterministic("B", ("M",), lambda x: 1 - x),
        })
        sub = substitute(m, {"M"})
        assert sub.graph == Dag(["A", "B"], [("A", "B")])
        assert joint_distribution(sub).marginal(["A", "B"]) == \
            joint_distribution(m).marginal(["A", "B"])

    def test_substitution_matches_marginal_distribution(self):
        rng = random.Random(2026)
        from suffcause import draw_plan, random_instance
        done = 0
        seed = 0
        while done < 40:
            seed += 1
            g = random_dag(rng, 5, 0.45)
            w = {n for n in g.nodes if rng.random() < 0.4}
            if not w or not can_marginalize(g, w):
                continue
            m = random_instance(draw_plan(g, states=(1, 2)), seed)
            sub = substitute(m, w)
            assert sub.graph == marginalize(g, w)
            retained = [n for n in g.nodes if n not in w]
            assert joint_distribution(m).marginal(retained) == \
                joint_distribution(sub).marginal(retained)
            done += 1


class TestScmValidation:
    def test_parent_mismatch(self):
        g = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(ValueError, match="do not match"):
            Scm(g, {"A": fair("A"), "B": ResponseTable.constant("B", 1)})

    def test_missing_equation(self):
        g = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(ValueError, match="missing equations"):
            Scm(g, {"A": fair("A")})


class TestParentMask:
    """One mask per parent and one closure step decide row monotonicity."""

    def test_mask_matches_the_repeated_block_pattern(self):
        for m in range(1, 11):
            n = 1 << m
            for i in range(m):
                b = 1 << i
                assert _parent_mask(n, b) == int(("1" * b + "0" * b) * (n // (2 * b)), 2), (m, i)

    def test_step_matches_the_loop_reference_on_every_small_row(self):
        # every row over 0 to 3 parents, every parent, both signs
        for m in range(4):
            n = 1 << m
            for i in range(m):
                bit = 1 << i
                on = _parent_mask(n, bit)
                for row in range(1 << n):
                    for sign in "+-":
                        assert (not _monotone_step(row, on, bit, sign)) == \
                            reference_row_direction_holds(row, n, bit, sign == "+"), (m, i, row, sign)
