"""Directed acyclic graph core: paths, path signs, d-separation, marginalization.

One active-trail search decides d-separation and names an unblocked path as
its witness (``find_unblocked_path``; ``d_separated`` is its None test).

Nodes are case-sensitive strings. Declaration order is preserved and drives
every deterministic iteration downstream (truth-table indexing, witness
search, report ordering). A ``Dag`` is immutable after construction; all
queries are pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Raised for structural problems with a graph or a graph query."""


def _as_names(x: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(x, str):
        return (x,)
    return tuple(x)


class Sign(Enum):
    """Signs of edges and directed paths; a path's sign is the product of its edges'."""

    POSITIVE = "+"
    NEGATIVE = "-"
    ZERO = "0"
    UNDEFINED = "?"

    def __mul__(self, other: "Sign") -> "Sign":
        if Sign.UNDEFINED in (self, other):
            return Sign.UNDEFINED
        if Sign.ZERO in (self, other):
            return Sign.ZERO
        return Sign.POSITIVE if self is other else Sign.NEGATIVE


class Dag:
    """A finite directed acyclic graph with optionally signed edges.

    Edge signs are stored as labels ("+" or "-"); an unsigned edge reads as
    ``Sign.UNDEFINED``. ``path_signs`` multiplies them along directed paths,
    which is all the sign layer and ``marginalize`` need of them.
    """

    __slots__ = ("nodes", "edges", "signs", "_index", "_parents", "_children", "_topo")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        signs: Mapping[tuple[str, str], str] | None = None,
    ):
        node_list = tuple(nodes)
        if len(set(node_list)) != len(node_list):
            raise GraphError("duplicate node names")
        index = {n: i for i, n in enumerate(node_list)}

        edge_list = list(edges)
        seen = set()
        for a, b in edge_list:
            if a not in index or b not in index:
                raise GraphError(f"edge ({a!r}, {b!r}) references an unknown node")
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((a, b))
        edge_list.sort(key=lambda e: (index[e[0]], index[e[1]]))

        sign_map: dict[tuple[str, str], str] = {}
        for edge, s in (signs or {}).items():
            if tuple(edge) not in seen:
                raise GraphError(f"sign declared for missing edge {edge!r}")
            if s not in ("+", "-"):
                raise GraphError(f"invalid edge sign {s!r} (expected '+' or '-')")
            sign_map[tuple(edge)] = s

        parents: dict[str, list[str]] = {n: [] for n in node_list}
        children: dict[str, list[str]] = {n: [] for n in node_list}
        # edge_list is sorted, so both lists come out in declaration order
        for a, b in edge_list:
            parents[b].append(a)
            children[a].append(b)

        # Kahn's algorithm; also the cycle check.
        degree = {n: len(parents[n]) for n in node_list}
        ready = deque(n for n in node_list if degree[n] == 0)
        topo: list[str] = []
        while ready:
            n = ready.popleft()
            topo.append(n)
            for c in children[n]:
                degree[c] -= 1
                if degree[c] == 0:
                    ready.append(c)
        if len(topo) != len(node_list):
            raise GraphError("graph contains a directed cycle")

        self.nodes = node_list
        self.edges = tuple(edge_list)
        self.signs = dict(sign_map)
        self._index = index
        self._parents = {n: tuple(parents[n]) for n in node_list}
        self._children = {n: tuple(children[n]) for n in node_list}
        self._topo = tuple(topo)

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges and self.signs == other.signs

    def __hash__(self):
        return hash((self.nodes, self.edges, tuple(sorted(self.signs.items()))))

    def __repr__(self) -> str:
        return f"Dag(nodes={list(self.nodes)!r}, edges={list(self.edges)!r})"

    def require(self, *names: str) -> None:
        for n in names:
            if n not in self._index:
                raise GraphError(f"unknown node {n!r}")

    def index(self, node: str) -> int:
        self.require(node)
        return self._index[node]

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._children.get(a, ())

    def parents(self, node: str) -> tuple[str, ...]:
        self.require(node)
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        self.require(node)
        return self._children[node]

    def adjacent(self, node: str) -> tuple[str, ...]:
        """Parents and children of ``node``, in declaration order."""
        self.require(node)
        return tuple(sorted(self._parents[node] + self._children[node], key=self._index.__getitem__))

    def topological(self) -> tuple[str, ...]:
        return self._topo

    def ancestors(self, node: str) -> frozenset[str]:
        """Nodes with a directed path into ``node``; excludes ``node`` itself."""
        self.require(node)
        return frozenset(_closure(self._parents[node], self._parents))

    def descendants(self, node: str) -> frozenset[str]:
        """Nodes reachable from ``node`` by a directed path; excludes ``node``."""
        self.require(node)
        return frozenset(_closure(self._children[node], self._children))


def _closure(start: Iterable[str], step: Mapping[str, tuple[str, ...]]) -> set[str]:
    """``start`` plus every node reachable from it through ``step``."""
    out = set(start)
    stack = list(out)
    while stack:
        for n in step[stack.pop()]:
            if n not in out:
                out.add(n)
                stack.append(n)
    return out


@dataclass(frozen=True)
class Path:
    """A simple path: adjacent nodes plus the direction of each step.

    ``forward[i]`` is True when the edge between ``nodes[i]`` and
    ``nodes[i + 1]`` points toward ``nodes[i + 1]``.
    """

    nodes: tuple[str, ...]
    forward: tuple[bool, ...]

    @classmethod
    def through(cls, g: Dag, nodes: Iterable[str]) -> "Path":
        seq = tuple(nodes)
        if len(seq) < 2:
            raise GraphError("a path needs at least two nodes")
        if len(set(seq)) != len(seq):
            raise GraphError("path repeats a node")
        steps = []
        for a, b in zip(seq, seq[1:]):
            if g.has_edge(a, b):
                steps.append(True)
            elif g.has_edge(b, a):
                steps.append(False)
            else:
                raise GraphError(f"{a!r} and {b!r} are not adjacent")
        return cls(seq, tuple(steps))

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for step, node in zip(self.forward, self.nodes[1:]):
            parts.append(" -> " if step else " <- ")
            parts.append(node)
        return "".join(parts)


def _node_set(g: Dag, x: str | Iterable[str]) -> frozenset[str]:
    names = _as_names(x)
    g.require(*names)
    return frozenset(names)


def _check_disjoint(*sets: frozenset[str]) -> None:
    for a, b in combinations(sets, 2):
        overlap = a & b
        if overlap:
            raise GraphError(f"query sets overlap on {sorted(overlap)}")


def d_separated(
    g: Dag,
    x: str | Iterable[str],
    y: str | Iterable[str],
    z: str | Iterable[str] = (),
) -> bool:
    """Whether every path between ``x`` and ``y`` is blocked given ``z``.

    A path is blocked when it carries a non-collider that is conditioned on,
    or a collider with no conditioned descendant (itself included). Decided
    by the witness search: separated exactly when it finds no path.
    """
    return find_unblocked_path(g, x, y, z) is None


def find_unblocked_path(
    g: Dag,
    x: str | Iterable[str],
    y: str | Iterable[str],
    z: str | Iterable[str] = (),
) -> Path | None:
    """An unblocked simple path from ``x`` to ``y`` given ``z``, or None.

    Linear-time active-trail (Bayes-ball) search over (up, node) states,
    where ``up`` means the trail entered the node from a child (Shachter
    1998; Koller & Friedman 2009, Alg. 3.1). Start states and neighbors
    follow declaration order, so the witness is deterministic. The first
    trail to reach ``y`` is read back from the predecessor map, and it is
    already a simple path that meets ``x`` only at its start:

    - every ``x`` start state is expanded before any other state, and the
      down state of an ``x`` node adds no successor its up state lacks;
    - an up state in ``z`` has no successor, so it ends no trail;
    - otherwise, of a node's two states the later-expanded one adds no new
      successor, except the up state of a node outside ``z`` and its
      ancestors expanded after its down state. A trail through that down
      state only goes further down, so it never returns to the node.

    ``Path.through`` rejects a repeated node, so a breach would raise
    rather than return a wrong witness.
    """
    xs, ys, zs = _node_set(g, x), _node_set(g, y), _node_set(g, z)
    _check_disjoint(xs, ys, zs)
    open_colliders = _closure(zs, g._parents)  # zs and its ancestors
    parents, children = g._parents, g._children

    start = [(True, s) for s in g.nodes if s in xs]
    came_from: dict[tuple[bool, str], tuple[bool, str] | None] = dict.fromkeys(start)
    queue = deque(start)
    while queue:
        state = queue.popleft()
        up, v = state
        if v in ys:
            trail = []
            while state is not None:
                trail.append(state[1])
                state = came_from[state]
            return Path.through(g, reversed(trail))
        if up:
            if v in zs:
                continue
            steps = [(True, p) for p in parents[v]] + [(False, c) for c in children[v]]
        else:
            steps = [] if v in zs else [(False, c) for c in children[v]]
            if v in open_colliders:
                steps += [(True, p) for p in parents[v]]
        for nxt in steps:
            if nxt not in came_from:
                came_from[nxt] = state
                queue.append(nxt)
    return None


# path_signs carries each node's set of path signs as a 3-bit mask: + = 1,
# - = 2, ? = 4. Crossing an edge maps the mask through the edge's table: "+"
# keeps it, "-" swaps the + and - bits, and an unsigned edge makes any
# non-empty set {?}.
_EDGE_MASK = {"+": (0, 1, 2, 3, 4, 5, 6, 7), "-": (0, 2, 1, 3, 4, 6, 5, 7)}
_UNSIGNED_MASK = (0, 4, 4, 4, 4, 4, 4, 4)
_MASK_SIGNS = tuple(
    frozenset(s for bit, s in ((1, Sign.POSITIVE), (2, Sign.NEGATIVE), (4, Sign.UNDEFINED)) if m & bit)
    for m in range(8)
)


def path_signs(g: Dag, b: str, avoid: str | Iterable[str] = ()) -> dict[str, frozenset[Sign]]:
    """Sign products of the directed paths into ``b``, grouped by source.

    Maps every node ``a`` with a directed path a -> ... -> b whose interior
    nodes avoid ``avoid`` to the set of those paths' signs (a subset of
    {+, -, ?}); ``a`` itself may lie in ``avoid``. One pass in reverse
    topological order; the keys follow declaration order.
    """
    g.require(b)
    avoid_set = _node_set(g, avoid) - {b}
    masks = {b: 1}
    topo = g.topological()
    # only nodes before b in topological order can reach it
    for v in reversed(topo[:topo.index(b)]):
        mask = 0
        for c in g._children[v]:
            if c in masks and c not in avoid_set:
                mask |= _EDGE_MASK.get(g.signs.get((v, c)), _UNSIGNED_MASK)[masks[c]]
        if mask:
            masks[v] = mask
    return {a: _MASK_SIGNS[masks[a]] for a in g.nodes if a in masks and a != b}


def common_causes(g: Dag, x: str, y: str) -> tuple[str, ...]:
    """Nodes with a directed path to ``x`` avoiding ``y`` and one to ``y`` avoiding ``x``."""
    into_y = path_signs(g, y, avoid=x)
    return tuple(c for c in path_signs(g, x, avoid=y) if c in into_y)


def can_marginalize(g: Dag, w: str | Iterable[str]) -> bool:
    """True when no node of ``w`` is a common cause of two retained nodes."""
    ws = _node_set(g, w)
    retained = [n for n in g.nodes if n not in ws]
    return not any(ws.intersection(common_causes(g, a, b)) for a, b in combinations(retained, 2))


def marginalize(g: Dag, w: str | Iterable[str]) -> Dag:
    """Contract the graph over ``w``: keep an edge a -> b when some directed
    path a -> ... -> b runs entirely through ``w``-interior nodes.

    A contracted edge keeps a sign only when every contracted path agrees on
    the product of its edge signs.
    """
    ws = _node_set(g, w)
    if not can_marginalize(g, ws):
        raise GraphError(f"cannot marginalize: a node of {sorted(ws)} is a common cause of retained nodes")
    retained = [n for n in g.nodes if n not in ws]
    into = {b: path_signs(g, b, avoid=retained) for b in retained}
    edges: list[tuple[str, str]] = []
    signs: dict[tuple[str, str], str] = {}
    for a in retained:
        for b in retained:
            found = into[b].get(a)
            if found is None:
                continue
            edges.append((a, b))
            if len(found) == 1 and Sign.UNDEFINED not in found:
                signs[(a, b)] = next(iter(found)).value
    return Dag(retained, edges, signs)
