"""Monotonic effects, path signs, association, and covariance claims."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffcause import (
    Dag,
    ResponseTable,
    Sign,
    conditional_covariance,
    detect_monotonic_effect,
    draw_plan,
    is_constant_in,
    joint_distribution,
    monotonic_effect_via_canonical,
    monotonically_associated,
    path_signs,
    random_instance,
)
from suffcause.scm import _monotone_close, _parent_mask
from suffcause.signs import Relation, directional_effect_holds

from support import (
    directed_paths,
    labeled_dags,
    path_product,
    random_dag,
    random_signs,
    reference_row_direction_holds,
)


def det(parents, fn):
    return ResponseTable.deterministic("D", parents, fn)


class TestSignAlgebra:
    @given(st.sampled_from(list(Sign)), st.sampled_from(list(Sign)), st.sampled_from(list(Sign)))
    @settings(max_examples=100, deadline=None)
    def test_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    def test_multiplication_table(self):
        assert Sign.POSITIVE * Sign.NEGATIVE is Sign.NEGATIVE
        assert Sign.NEGATIVE * Sign.NEGATIVE is Sign.POSITIVE
        assert Sign.ZERO * Sign.NEGATIVE is Sign.ZERO
        assert Sign.UNDEFINED * Sign.ZERO is Sign.UNDEFINED


class TestRelationLattice:
    """The four plain relations read as the sets of signs they allow."""

    ALLOWS = {
        Relation.LE0: {-1, 0},
        Relation.GE0: {0, 1},
        Relation.EQ0: {0},
        Relation.UNKNOWN: {-1, 0, 1},
    }

    def test_meet_implies_and_flipped_are_set_operations(self):
        by_set = {frozenset(v): r for r, v in self.ALLOWS.items()}
        for a, sa in self.ALLOWS.items():
            assert self.ALLOWS[a.flipped()] == {-x for x in sa}
            for b, sb in self.ALLOWS.items():
                assert a.meet(b) is by_set[frozenset(sa & sb)]
                assert a.implies(b) is (sa <= sb)

    def test_holds_and_of_value(self):
        for x in (-1, 0, 1):
            assert Relation.of_value(x) is {-1: Relation.LE0, 0: Relation.EQ0, 1: Relation.GE0}[x]
            assert Relation.of_value(Fraction(x, 3)) is Relation.of_value(x)
            for r, allowed in self.ALLOWS.items():
                assert r.holds(x) is (x in allowed)
                assert r.holds(Fraction(x, 7)) is (x in allowed)

    def test_of_association(self):
        expected = {
            Sign.POSITIVE: Relation.GE0,
            Sign.NEGATIVE: Relation.LE0,
            Sign.ZERO: Relation.EQ0,
            Sign.UNDEFINED: Relation.UNKNOWN,
        }
        assert {s: Relation.of_association(s) for s in Sign} == expected

    def test_sign_equality_flips_to_itself(self):
        assert Relation.SIGN_EQUALS.flipped() is Relation.SIGN_EQUALS


class TestMonotonicEffect:
    def test_disjunction_positive(self):
        t = det(("E1", "E2"), lambda a, b: a | b)
        assert detect_monotonic_effect(t, "E1") is Sign.POSITIVE
        assert detect_monotonic_effect(t, "E2") is Sign.POSITIVE

    def test_complement_negative(self):
        t = det(("E",), lambda e: 1 - e)
        assert detect_monotonic_effect(t, "E") is Sign.NEGATIVE

    def test_xor_undefined(self):
        t = det(("E1", "E2"), lambda a, b: a ^ b)
        assert detect_monotonic_effect(t, "E1") is Sign.UNDEFINED

    def test_constant_reports_positive_with_degenerate_flag(self):
        t = det(("E",), lambda e: 1)
        assert detect_monotonic_effect(t, "E") is Sign.POSITIVE
        assert is_constant_in(t, "E")
        assert not is_constant_in(det(("E",), lambda e: e), "E")

    def test_quantifies_over_states(self):
        # monotone within each state in opposite directions: no monotonic effect
        t = ResponseTable("D", ("E",), (2, 1), (Fraction(1, 2), Fraction(1, 2)))
        assert detect_monotonic_effect(t, "E") is Sign.UNDEFINED

    def test_not_a_parent(self):
        with pytest.raises(ValueError, match="not a parent"):
            detect_monotonic_effect(det(("E",), lambda e: e), "Z")

    def test_declared_sign_validation_helper(self):
        t = det(("E",), lambda e: e)
        assert directional_effect_holds(t, "E", "+")
        assert not directional_effect_holds(t, "E", "-")
        assert directional_effect_holds(det(("E",), lambda e: 1), "E", "-")

    def test_table_checks_match_the_per_configuration_reference(self):
        # seeded tables of random and of monotone-closed rows up to 12 parents
        rng = random.Random(2411)
        for m in range(1, 13):
            n = 1 << m
            parents = tuple(f"P{i}" for i in range(m))
            for _ in range(4):
                required = [(_parent_mask(n, 1 << i), 1 << i, rng.choice("+-"))
                            for i in rng.sample(range(m), rng.randint(0, m))]
                rows = {_monotone_close(rng.getrandbits(n), required) for _ in range(rng.randint(1, 3))}
                if rng.random() < 0.5:
                    rows.add(rng.getrandbits(n))
                t = ResponseTable("D", parents, tuple(rows), (Fraction(1, len(rows)),) * len(rows))
                for i, p in enumerate(parents):
                    up, down = (all(reference_row_direction_holds(r, n, 1 << i, s) for r in t.rows)
                                for s in (True, False))
                    assert (directional_effect_holds(t, p, "+"), directional_effect_holds(t, p, "-")) == (up, down)
                    assert is_constant_in(t, p) == (up and down)
                    expected = Sign.POSITIVE if up else Sign.NEGATIVE if down else Sign.UNDEFINED
                    assert detect_monotonic_effect(t, p) is expected, (m, p, t.rows)


class TestCanonicalCriterion:
    def test_identity_positive(self):
        assert monotonic_effect_via_canonical(det(("E",), lambda e: e), "E") is Sign.POSITIVE

    def test_inverter_state_removal_flips_verdict(self):
        full = ResponseTable("D", ("E",), (0, 1, 2, 3), (Fraction(1, 4),) * 4)
        assert monotonic_effect_via_canonical(full, "E") is Sign.UNDEFINED
        no_inverter = ResponseTable("D", ("E",), (0, 2, 3), (Fraction(1, 3),) * 3)
        assert monotonic_effect_via_canonical(no_inverter, "E") is Sign.POSITIVE

    def test_agreement_exhaustive_single_parent(self):
        rows = (0, 1, 2, 3)
        for mask in range(1, 16):
            support = tuple(r for i, r in enumerate(rows) if mask >> i & 1)
            t = ResponseTable("D", ("E",), support, (Fraction(1, len(support)),) * len(support))
            assert detect_monotonic_effect(t, "E") is monotonic_effect_via_canonical(t, "E")

    def test_agreement_random_two_parent(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.randint(1, 5)
            support = tuple(rng.sample(range(16), k))
            t = ResponseTable("D", ("E1", "E2"), support, (Fraction(1, k),) * k)
            for p in ("E1", "E2"):
                assert detect_monotonic_effect(t, p) is monotonic_effect_via_canonical(t, p)

    def test_agreement_on_tables_with_repeated_rows(self):
        t = ResponseTable("D", ("A", "B"), (8, 8, 14), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        assert monotonic_effect_via_canonical(t, "A") is Sign.POSITIVE
        rng = random.Random(7)
        for _ in range(200):
            support = rng.sample(range(16), rng.randint(1, 4))
            rows = tuple(support + rng.choices(support, k=rng.randint(1, 3)))
            t = ResponseTable("D", ("E1", "E2"), rows, (Fraction(1, len(rows)),) * len(rows))
            for p in ("E1", "E2"):
                assert detect_monotonic_effect(t, p) is monotonic_effect_via_canonical(t, p)


class TestPathSign:
    def g(self):
        return Dag(
            ["A", "B", "C", "D"],
            [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")],
            {("A", "B"): "+", ("B", "C"): "-", ("C", "D"): "-"},
        )

    def test_products(self):
        g = self.g()
        assert path_signs(g, "C")["A"] == {Sign.NEGATIVE}
        # A -> B -> C -> D is positive, the unsigned A -> D undefined
        assert path_signs(g, "D")["A"] == {Sign.POSITIVE, Sign.UNDEFINED}

    def test_unsigned_edge_undefined(self):
        g = self.g()
        assert path_signs(g, "D", avoid=("B",))["A"] == {Sign.UNDEFINED}


class TestAssociation:
    def test_single_positive_edge(self):
        g = Dag(["X", "Y"], [("X", "Y")], {("X", "Y"): "+"})
        assert monotonically_associated(g, "X", "Y") is Sign.POSITIVE

    def test_common_cause_opposite_signs(self):
        g = Dag(["C", "X", "Y"], [("C", "X"), ("C", "Y")],
                {("C", "X"): "+", ("C", "Y"): "-"})
        assert monotonically_associated(g, "X", "Y") is Sign.NEGATIVE

    def test_no_connection_is_zero(self):
        g = Dag(["X", "Y"], [])
        assert monotonically_associated(g, "X", "Y") is Sign.ZERO
        assert monotonically_associated(g, "X", "Y") is Sign.ZERO

    def test_collider_only_connection_is_zero(self):
        g = Dag(["X", "Y", "D"], [("X", "D"), ("Y", "D")],
                {("X", "D"): "+", ("Y", "D"): "+"})
        assert monotonically_associated(g, "X", "Y") is Sign.ZERO

    def test_unsigned_edge_undefined(self):
        g = Dag(["X", "M", "Y"], [("X", "M"), ("M", "Y")], {("X", "M"): "+"})
        assert monotonically_associated(g, "X", "Y") is Sign.UNDEFINED
        assert monotonically_associated(g, "X", "Y") is Sign.UNDEFINED

    def test_mixed_directed_paths_undefined(self):
        g = Dag(["X", "M", "Y"], [("X", "M"), ("M", "Y"), ("X", "Y")],
                {("X", "M"): "+", ("M", "Y"): "+", ("X", "Y"): "-"})
        assert monotonically_associated(g, "X", "Y") is Sign.UNDEFINED

    def test_coaggregation_null_exposure_to_disorder(self):
        from suffcause import load_model
        from support import fixture
        g = load_model(fixture("coaggregation_null")).dag
        assert monotonically_associated(g, "E1", "B1") is Sign.POSITIVE
        assert monotonically_associated(g, "E1", "GP") is Sign.ZERO

    def test_symmetry(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_dag(rng, 5, 0.4)
            signs = {}
            for e in g.edges:
                r = rng.random()
                if r < 0.45:
                    signs[e] = "+"
                elif r < 0.9:
                    signs[e] = "-"
            g = Dag(g.nodes, g.edges, signs)
            x, y = rng.sample(list(g.nodes), 2)
            assert monotonically_associated(g, x, y) == monotonically_associated(g, y, x)


def _reference_association(g: Dag, x: str, y: str) -> Sign:
    """``monotonically_associated`` by its docstring, over enumerated paths."""
    def signs(a, b, avoid=()):
        return {path_product(g, p) for p in directed_paths(g, a, b, avoid)}

    between = signs(x, y) | signs(y, x)
    groups = [(signs(c, x, [y]), signs(c, y, [x])) for c in g.nodes if c not in (x, y)]
    groups = [(to_x, to_y) for to_x, to_y in groups if to_x and to_y]
    if not between and not groups:
        return Sign.ZERO
    defined = [(to_x, to_y) for to_x, to_y in groups
               if len(to_x) == len(to_y) == 1 and Sign.UNDEFINED not in to_x | to_y]
    if len(defined) == len(groups):
        if between <= {Sign.POSITIVE} and all(to_x == to_y for to_x, to_y in groups):
            return Sign.POSITIVE
        if between <= {Sign.NEGATIVE} and all(to_x != to_y for to_x, to_y in groups):
            return Sign.NEGATIVE
    return Sign.UNDEFINED


class TestAssociationMatchesEnumeration:
    @staticmethod
    def _check(g: Dag) -> None:
        for x in g.nodes:
            for y in g.nodes:
                if x != y:
                    assert monotonically_associated(g, x, y) is _reference_association(g, x, y), (g, x, y)

    def test_every_labeled_four_node_dag(self):
        for g in labeled_dags(4, 4004):
            self._check(g)

    def test_random_five_to_seven_nodes(self):
        rng = random.Random(5577)
        for _ in range(150):
            g = random_dag(rng, rng.randint(5, 7), rng.uniform(0.3, 0.7))
            order = list(g.nodes)
            rng.shuffle(order)
            self._check(random_signs(rng, Dag(order, g.edges)))


class TestCovarianceClaimsAgainstOracle:
    def test_signed_random_models(self):
        rng = random.Random(2468)
        claims = 0
        trials = 0
        while claims < 120 and trials < 400:
            trials += 1
            g = random_dag(rng, 5, 0.4)
            signs = {}
            for e in g.edges:
                signs[e] = "+" if rng.random() < 0.5 else "-"
            g = Dag(g.nodes, g.edges, signs)
            m = random_instance(draw_plan(g, states=(1, 3)), trials)
            dist = joint_distribution(m)
            for x, y in [rng.sample(list(g.nodes), 2) for _ in range(4)]:
                claim = monotonically_associated(g, x, y)
                if claim is Sign.UNDEFINED:
                    continue
                cov = conditional_covariance(dist, x, y)
                claims += 1
                if claim is Sign.POSITIVE:
                    assert cov >= 0
                elif claim is Sign.NEGATIVE:
                    assert cov <= 0
                else:
                    assert cov == 0
        assert claims >= 120
