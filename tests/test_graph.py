"""Graph structure, d-separation, and marginalization."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffcause import (
    Dag,
    GraphError,
    Path,
    Sign,
    can_marginalize,
    common_causes,
    d_separated,
    find_unblocked_path,
    marginalize,
    path_signs,
)

from support import (
    dfs_unblocked_path, directed_paths, labeled_dags, path_blocked, path_product, random_dag, random_signs
)

POS, NEG, UND = Sign.POSITIVE, Sign.NEGATIVE, Sign.UNDEFINED


def coaggregation_full() -> Dag:
    edges = [("GB", "B1"), ("GP", "P1"), ("GP", "P2"),
             ("E1", "P1"), ("E1", "B1"), ("E2", "P2"), ("E2", "B2"),
             ("F", "P1"), ("F", "P2"), ("F", "B1"), ("F", "B2"),
             ("P1", "B1"), ("P2", "B2")]
    return Dag(["GB", "GP", "E1", "E2", "F", "P1", "P2", "B1", "B2"], edges)


class TestConstruction:
    def test_rejects_cycles(self):
        with pytest.raises(GraphError, match="cycle"):
            Dag(["A", "B"], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError, match="self-loop"):
            Dag(["A"], [("A", "A")])
        with pytest.raises(GraphError, match="duplicate edge"):
            Dag(["A", "B"], [("A", "B"), ("A", "B")])
        with pytest.raises(GraphError, match="duplicate node"):
            Dag(["A", "A"], [])

    def test_rejects_unknown_endpoints_and_signs(self):
        with pytest.raises(GraphError, match="unknown node"):
            Dag(["A"], [("A", "B")])
        with pytest.raises(GraphError, match="missing edge"):
            Dag(["A", "B"], [("A", "B")], {("B", "A"): "+"})
        with pytest.raises(GraphError, match="invalid edge sign"):
            Dag(["A", "B"], [("A", "B")], {("A", "B"): "x"})

    def test_declaration_order_is_stable(self):
        g = Dag(["Z", "A", "M"], [("Z", "A"), ("A", "M")])
        assert g.nodes == ("Z", "A", "M")
        assert g.topological() == ("Z", "A", "M")
        # edges listed against declaration order
        h = Dag(["A", "B", "C", "D"], [("C", "D"), ("B", "D"), ("A", "D"), ("A", "C"), ("A", "B")])
        assert h.parents("D") == ("A", "B", "C")
        assert h.children("A") == ("B", "C", "D")


class TestAncestry:
    def test_chain_descendants(self):
        g = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert g.descendants("A") == {"B", "C"}
        assert g.ancestors("C") == {"A", "B"}

    def test_isolated_node(self):
        g = Dag(["X", "Y"], [])
        assert g.ancestors("X") == frozenset()
        assert g.descendants("X") == frozenset()

    def test_coaggregation_ancestors(self):
        g = coaggregation_full()
        assert g.ancestors("B1") == {"P1", "E1", "GB", "GP", "F"}

    def test_unknown_node(self):
        g = Dag(["A"], [])
        with pytest.raises(GraphError, match="unknown node"):
            g.ancestors("Z")


class TestDSeparation:
    def test_coaggregation_paths(self):
        g = coaggregation_full()
        assert not d_separated(g, "P2", "B1")
        assert not d_separated(g, "P2", "B1", {"P1"})

    def test_isolated_pair(self):
        g = Dag(["X", "Y"], [])
        assert d_separated(g, "X", "Y")

    def test_collider_opens(self):
        g = Dag(["X", "Y", "D", "S"], [("X", "D"), ("Y", "D"), ("D", "S")])
        assert d_separated(g, "X", "Y")
        assert not d_separated(g, "X", "Y", {"D"})
        assert not d_separated(g, "X", "Y", {"S"})

    def test_overlap_rejected(self):
        g = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(GraphError, match="overlap"):
            d_separated(g, "A", "B", {"A"})

    def test_witness_on_null_graph(self):
        g = coaggregation_full()
        w = find_unblocked_path(g, "P2", "B1", {"P1"})
        assert w is not None
        assert w.nodes == ("P2", "F", "B1")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_dag(rng, 5)
        names = list(g.nodes)
        x, y = rng.sample(names, 2)
        z = {n for n in names if n not in (x, y) and rng.random() < 0.3}
        assert d_separated(g, x, y, z) == d_separated(g, y, x, z)


def _all_simple_paths(g: Dag, x: str, y: str):
    out = []

    def walk(trail):
        for w in g.adjacent(trail[-1]):
            if w in trail:
                continue
            if w == y:
                out.append(trail + [w])
            else:
                walk(trail + [w])

    walk([x])
    return out


def _d_separated_literal(g: Dag, x: str, y: str, z) -> bool:
    return all(path_blocked(g, Path.through(g, p), z) for p in _all_simple_paths(g, x, y))


class TestReachabilityMatchesLiteralDefinition:
    @pytest.mark.parametrize("n_nodes", [4, 5])
    def test_exhaustive_small_graphs(self, n_nodes):
        nodes = ["A", "B", "C", "D", "E"][:n_nodes]
        slots = list(combinations(range(n_nodes), 2))
        for mask in range(1 << len(slots)):
            edges = [
                (nodes[i], nodes[j]) for k, (i, j) in enumerate(slots) if mask >> k & 1
            ]
            g = Dag(nodes, edges)
            for x, y in combinations(nodes, 2):
                paths = [Path.through(g, p) for p in _all_simple_paths(g, x, y)]
                rest = [n for n in nodes if n not in (x, y)]
                for zmask in range(1 << len(rest)):
                    z = {rest[k] for k in range(len(rest)) if zmask >> k & 1}
                    witness = find_unblocked_path(g, x, y, z)
                    separated = all(path_blocked(g, p, z) for p in paths)
                    assert (witness is None) == separated
                    assert (dfs_unblocked_path(g, x, y, z) is None) == separated
                    if witness is not None:
                        assert (witness.nodes[0], witness.nodes[-1]) == (x, y)
                        assert not {x, y} & set(witness.nodes[1:-1])
                        assert not path_blocked(g, witness, z)

    def test_witness_avoids_the_exhaustive_blowup(self):
        # X feeds a complete DAG on 20 nodes; the depth-first reference walks
        # its 2^20 directed paths before it tries X -> W -> Y
        inner = [f"C{i}" for i in range(20)]
        edges = [("X", c) for c in inner] + list(combinations(inner, 2)) + [("X", "W"), ("W", "Y")]
        g = Dag(["X", *inner, "W", "Y"], edges)
        assert str(find_unblocked_path(g, "X", "Y")) == "X -> W -> Y"

    def test_random_six_nodes(self):
        rng = random.Random(20260808)
        for _ in range(150):
            g = random_dag(rng, 6, 0.35)
            x, y = rng.sample(list(g.nodes), 2)
            z = {n for n in g.nodes if n not in (x, y) and rng.random() < 0.35}
            assert d_separated(g, x, y, z) == _d_separated_literal(g, x, y, z)

    def test_adding_edges_never_creates_separation(self):
        rng = random.Random(77)
        for _ in range(80):
            g = random_dag(rng, 5, 0.3)
            x, y = rng.sample(list(g.nodes), 2)
            z = {n for n in g.nodes if n not in (x, y) and rng.random() < 0.3}
            before = d_separated(g, x, y, z)
            candidates = [
                (a, b)
                for i, a in enumerate(g.nodes)
                for b in g.nodes[i + 1:]
                if not g.has_edge(a, b)
            ]
            if not candidates or before:
                continue
            extra = rng.choice(candidates)
            g2 = Dag(g.nodes, list(g.edges) + [extra])
            assert not d_separated(g2, x, y, z)


class TestMarginalization:
    def test_single_cause_is_legal(self):
        g = Dag(["A", "B"], [("A", "B")])
        assert can_marginalize(g, {"A"})

    def test_common_cause_is_illegal(self):
        g = Dag(["C", "A", "B"], [("C", "A"), ("C", "B")])
        assert not can_marginalize(g, {"C"})
        with pytest.raises(GraphError, match="common cause"):
            marginalize(g, {"C"})

    def test_coaggregation_gb_marginalizable(self):
        g = coaggregation_full()
        # GB feeds only the B side, so it is not a common cause of retained pairs.
        assert can_marginalize(g, {"GB"})

    def test_chain_contraction(self):
        g = Dag(["A", "M", "B"], [("A", "M"), ("M", "B")])
        assert marginalize(g, {"M"}) == Dag(["A", "B"], [("A", "B")])

    def test_empty_is_identity(self):
        g = Dag(["A", "B"], [("A", "B")])
        assert marginalize(g, ()) == g

    def test_sign_composition(self):
        g = Dag(
            ["A", "M", "B"],
            [("A", "M"), ("M", "B")],
            {("A", "M"): "+", ("M", "B"): "-"},
        )
        out = marginalize(g, {"M"})
        assert out.signs == {("A", "B"): "-"}

    def test_disagreeing_paths_drop_the_sign(self):
        g = Dag(
            ["A", "M", "N", "B"],
            [("A", "M"), ("M", "B"), ("A", "N"), ("N", "B")],
            {("A", "M"): "+", ("M", "B"): "+", ("A", "N"): "+", ("N", "B"): "-"},
        )
        out = marginalize(g, {"M", "N"})
        assert out.edges == (("A", "B"),)
        assert out.signs == {}

    def test_random_marginalization_stays_acyclic(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_dag(rng, 6, 0.4)
            w = {n for n in g.nodes if rng.random() < 0.4}
            if not can_marginalize(g, w):
                continue
            out = marginalize(g, w)
            assert set(out.nodes) == set(g.nodes) - w
            # reachability among retained nodes is preserved
            for a in out.nodes:
                for b in out.nodes:
                    if a == b:
                        continue
                    reach_old = b in g.descendants(a)
                    reach_new = b in out.descendants(a)
                    assert reach_new == reach_old or (reach_old and not reach_new) is False


class TestPathsAndCommonCauses:
    def test_path_through_validates(self):
        g = Dag(["A", "B", "C"], [("A", "B"), ("C", "B")])
        p = Path.through(g, ["A", "B", "C"])
        assert p.forward == (True, False)
        with pytest.raises(GraphError, match="not adjacent"):
            Path.through(g, ["A", "C"])
        with pytest.raises(GraphError, match="repeats"):
            Path.through(g, ["A", "B", "A"])

    def test_directed_paths_avoiding(self):
        g = Dag(
            ["A", "B", "C", "D"],
            [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")],
            {("A", "B"): "+", ("B", "D"): "+", ("A", "C"): "+", ("C", "D"): "-"},
        )
        assert path_signs(g, "D") == {"A": {POS, NEG}, "B": {POS}, "C": {NEG}}
        # only interior nodes must avoid: B keeps its own path into D
        assert path_signs(g, "D", avoid=("B",)) == {"A": {NEG}, "B": {POS}, "C": {NEG}}
        assert path_signs(g, "D", avoid=("B", "C")) == {"B": {POS}, "C": {NEG}}
        assert path_signs(g, "A") == {}

    def test_common_causes(self):
        g = Dag(["C", "A", "B"], [("C", "A"), ("C", "B")])
        assert common_causes(g, "A", "B") == ("C",)
        chain = Dag(["C", "A", "B"], [("C", "A"), ("A", "B")])
        # every path from C to B runs through A, so C is not a common cause
        assert common_causes(chain, "A", "B") == ()


def _assert_path_signs_match_enumeration(g: Dag) -> None:
    for avoid in [()] + [(n,) for n in g.nodes]:
        for b in g.nodes:
            fast = path_signs(g, b, avoid)
            assert list(fast) == [a for a in g.nodes if a in fast]
            for a in g.nodes:
                interior_avoid = [n for n in avoid if n not in (a, b)]
                expected = {path_product(g, p) for p in directed_paths(g, a, b, interior_avoid)}
                assert fast.get(a, frozenset()) == expected, (g, a, b, avoid)


class TestPathSignsMatchEnumeration:
    @pytest.mark.parametrize("n_nodes", [4, 5])
    def test_exhaustive_small_graphs(self, n_nodes):
        for g in labeled_dags(n_nodes, 1000 + n_nodes):
            _assert_path_signs_match_enumeration(g)

    def test_random_six_to_nine_nodes(self):
        rng = random.Random(20261018)
        for _ in range(150):
            g = random_dag(rng, rng.randint(6, 9), rng.uniform(0.25, 0.6))
            order = list(g.nodes)
            rng.shuffle(order)
            _assert_path_signs_match_enumeration(random_signs(rng, Dag(order, g.edges)))


class TestDSeparationMatchesNetworkx:
    """Graphs well past the reach of the literal all-paths check."""

    def test_random_large_dags(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(606)
        for _ in range(100):
            n = rng.randint(30, 60)
            g = random_dag(rng, n, rng.uniform(1.5, 3.0) / n)
            ng = nx.DiGraph(g.edges)
            ng.add_nodes_from(g.nodes)
            for _ in range(10):
                picked = rng.sample(list(g.nodes), rng.randint(2, 8))
                k = rng.randint(1, len(picked) - 1)
                xs, ys = set(picked[:k]), set(picked[k:])
                rest = [v for v in g.nodes if v not in xs | ys]
                zs = set(rng.sample(rest, rng.randint(0, min(len(rest), n // 4))))
                separated = d_separated(g, xs, ys, zs)
                assert separated == nx.is_d_separator(ng, xs, ys, zs)
                if not separated:
                    witness = find_unblocked_path(g, xs, ys, zs)
                    assert witness is not None
                    assert witness.nodes[0] in xs and witness.nodes[-1] in ys
                    assert not path_blocked(g, witness, zs)
