"""Model-file parsing, validation diagnostics, and canonical round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffcause import Dag, ModelError, ResponseTable, load_model, parse_model, serialize_model
from suffcause.modelfile import Assertion, Model
from suffcause.scm import _monotone_close, _parent_mask

from support import FIXTURES, fixture

MINIMAL = """
node A
node B
edge A B
"""


class TestParsing:
    def test_minimal_two_node_model(self):
        m = parse_model(MINIMAL)
        assert m.dag.nodes == ("A", "B")
        assert m.dag.edges == (("A", "B"),)
        assert not m.fully_specified

    def test_comments_and_blank_lines(self):
        m = parse_model("# heading\nnode A\n\nnode B # trailing\nedge A B +\n")
        assert m.dag.signs == {("A", "B"): "+"}

    def test_equation_parsing(self):
        text = MINIMAL + "equation B states 2\nstate 0 prob 1/3 bits 01\nstate 1 prob 2/3 bits 11\n"
        m = parse_model(text)
        t = m.tables["B"]
        assert t.rows == (2, 3)
        assert t.probs == (Fraction(1, 3), Fraction(2, 3))

    def test_representation_parsing(self):
        text = (MINIMAL
                + "equation B states 1\nstate 0 prob 1 bits 01\n"
                + "represent B term one A\n")
        m = parse_model(text)
        assert m.representations["B"].terms[0].render() == "A"


class TestDiagnostics:
    def assert_problem(self, text, needle):
        with pytest.raises(ModelError) as exc:
            parse_model(text)
        assert needle in str(exc.value)

    def problems(self, text):
        with pytest.raises(ModelError) as exc:
            parse_model(text)
        return exc.value.problems

    def test_bad_probability_sum_names_the_node(self):
        text = MINIMAL + "equation B states 2\nstate 0 prob 1/2 bits 01\nstate 1 prob 5/8 bits 11\n"
        self.assert_problem(text, "B: state probabilities sum to 9/8")

    def test_wrong_bit_width(self):
        self.assert_problem(MINIMAL + "equation B states 1\nstate 0 prob 1 bits 0111\n",
                            "needs 2 bits")

    def test_state_index_out_of_order(self):
        text = MINIMAL + "equation B states 2\nstate 1 prob 1/2 bits 01\nstate 0 prob 1/2 bits 11\n"
        self.assert_problem(text, "out of order")

    def test_unknown_directive_and_line_numbers(self):
        with pytest.raises(ModelError) as exc:
            parse_model("node A\nfrobnicate B\n")
        assert exc.value.problems[0][0] == 2

    def test_cycle_reported(self):
        self.assert_problem("node A\nnode B\nedge A B\nedge B A\n", "cycle")

    def test_sign_contradicting_equation(self):
        text = "node A\nnode B\nedge A B -\nequation B states 1\nstate 0 prob 1 bits 01\n"
        self.assert_problem(text, "contradicts")

    def test_foreign_representation_literal(self):
        text = (MINIMAL
                + "equation B states 1\nstate 0 prob 1 bits 01\n"
                + "represent B term one C\n")
        self.assert_problem(text, "not a parent")

    def test_nondeterminative_representation(self):
        text = ("node A\nnode B\nnode D\nedge A D\nedge B D\n"
                + "equation D states 1\nstate 0 prob 1 bits 0111\n"
                + "represent D term one A B\n")
        self.assert_problem(text, "not determinative")

    def test_bad_assertions(self):
        self.assert_problem(MINIMAL + "assert cov-sign A B ~0\n", "bad relation")
        self.assert_problem(MINIMAL + "assert no-synergism A B\n", "expects 3")
        self.assert_problem(MINIMAL + "assert independent A Z\n", "unknown node")

    def test_checks_after_the_graph_name_their_directive_line(self):
        text = ("node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D\n"
                "equation D states 1\nstate 0 prob 1 bits 1011\n"
                "assert rep-flag D E1 E2 a9 one\n")
        assert self.problems(text) == [
            (8, "assert rep-flag: bad slot/value 'a9' 'one'"),
            (4, "declared sign '+' on edge E1->D contradicts the equation of D"),
        ]

    @pytest.mark.parametrize("line, message", [
        ("assert rep-flag B A A a1 two", "assert rep-flag: bad slot/value 'a1' 'two'"),
        ("assert cocause-independent B A A a2 a4", "assert cocause-independent: bad slots 'a2' 'a4'"),
        ("assert cov-sign A B ~0", "assert cov-sign: bad relation '~0'"),
        ("assert independent A Z", "assert independent: unknown node 'Z'"),
    ])
    def test_assertion_problems_name_their_line(self, line, message):
        assert self.problems(MINIMAL + line + "\n") == [(5, message)]

    def test_bad_assertion_values_survive_a_graph_error(self):
        text = "node A\nnode B\nedge A B\nedge B A\nassert cov-sign A B ~0\n"
        assert self.problems(text) == [(5, "assert cov-sign: bad relation '~0'"),
                                       (0, "graph contains a directed cycle")]

    def test_multiple_problems_collected(self):
        with pytest.raises(ModelError) as exc:
            parse_model("node A\nnode A\nfrobnicate\n")
        assert len(exc.value.problems) >= 2


class TestRoundTrip:
    def test_fixture_round_trips(self):
        for path in sorted(FIXTURES.glob("*.model")):
            text = path.read_text()
            m = parse_model(text)
            again = serialize_model(m)
            assert parse_model(again) == m
            assert serialize_model(parse_model(again)) == again

    def test_a_wide_row_round_trips(self):
        # 16 parents: a row of 65,536 bits, each character c the row's bit c
        parents = [f"P{i}" for i in range(16)]
        rng = random.Random(16)
        bits = "".join(rng.choice("01") for _ in range(1 << 16))
        text = (
            "".join(f"node {p}\n" for p in parents) + "node D\n"
            + "".join(f"edge {p} D\n" for p in parents)
            + f"equation D states 1\nstate 0 prob 1/1 bits {bits}\n"
        )
        m = parse_model(text)
        row = m.tables["D"].rows[0]
        assert all((row >> c) & 1 == int(bits[c]) for c in range(0, 1 << 16, 997))
        again = serialize_model(m)
        assert f"bits {bits}\n" in again
        assert parse_model(again) == m

    def test_fixtures_parse_expected_shapes(self):
        null = load_model(fixture("coaggregation_null"))
        assert all(s == "+" for s in null.dag.signs.values())
        assert len(null.dag.signs) == len(null.dag.edges)
        assert {a.kind for a in null.assertions} == {"no-synergism"}

        pairs = load_model(fixture("pairs_disjoint"))
        assert pairs.fully_specified
        assert pairs.representations["D"].render() == "E1*E2 v E3*E4"


_NAMES = st.sampled_from(["A", "B", "D", "E1", "E2", "GP", "x", "node", "P_1", "Z9"])


@st.composite
def signed_models(draw):
    """A signed DAG, equations consistent with the signs on some nodes, assertions."""
    nodes = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    edges, signs = [], {}
    for j, b in enumerate(nodes):
        for a in nodes[:j]:
            if draw(st.booleans()):
                edges.append((a, b))
                sign = draw(st.sampled_from(["+", "-", None]))
                if sign:
                    signs[(a, b)] = sign
    dag = Dag(nodes, edges, signs)
    tables = {}
    for n in nodes:
        if not draw(st.booleans()):
            continue
        parents = dag.parents(n)
        n_configs = 1 << len(parents)
        closing = [(_parent_mask(n_configs, 1 << i), 1 << i, signs[(p, n)])
                   for i, p in enumerate(parents) if (p, n) in signs]
        raw = draw(st.lists(st.integers(0, (1 << n_configs) - 1), min_size=1, max_size=4))
        rows = tuple(_monotone_close(r, closing) for r in raw)
        weights = draw(st.lists(st.fractions(0, 5, max_denominator=40), min_size=len(rows), max_size=len(rows)))
        if not any(weights):
            weights[0] = Fraction(1)
        total = sum(weights)
        tables[n] = ResponseTable(n, parents, rows, tuple(w / total for w in weights))
    node = st.sampled_from(nodes)
    slot = st.sampled_from(["a0", "a1", "a2", "a3"])
    assertion = st.one_of(
        st.tuples(st.just("no-synergism"), node, node, node),
        st.tuples(st.just("rep-flag"), node, node, node, slot, st.sampled_from(["zero", "one"])),
        st.tuples(st.just("independent"), node, node),
        st.tuples(st.just("cocause-independent"), node, node, node, slot, slot),
        st.tuples(st.just("cov-sign"), node, node, st.sampled_from(["<=0", ">=0", "=0"])),
    )
    assertions = tuple(Assertion(a[0], a[1:]) for a in draw(st.lists(assertion, max_size=3)))
    return Model(dag, tables, {}, assertions)


class TestRoundTripProperty:
    @given(signed_models())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_parse_serialize_round_trip(self, model):
        text = serialize_model(model)
        again = parse_model(text)
        assert serialize_model(again) == text
        assert again.dag.nodes == model.dag.nodes
        assert again.dag.edges == model.dag.edges
        assert again.dag.signs == model.dag.signs
        assert again.tables.keys() == model.tables.keys()
        for n, t in model.tables.items():
            assert (again.tables[n].rows, again.tables[n].probs) == (t.rows, t.probs)
        assert again.assertions == model.assertions
        assert again == model
