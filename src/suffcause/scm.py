"""Binary structural equations as finite response-function tables.

Each node's mechanism is a table: the exogenous term takes one of N
"response states", and every state fixes a boolean function of the parent
configuration. A state is canonically encoded as an integer whose bit ``c``
is the output on parent configuration ``c``; configuration ``c`` itself
packs parent values with bit ``i`` holding the value of the i-th parent in
declaration order.

The exact joint is built by forward propagation over node values: each
support row splits into its children for the next node in topological
order. A table is its integer weights over ``scale``, the least common
denominator of its probabilities; the probabilities themselves are derived
(``probs``) only when read. Masses are Python ints on one common scale. All
probability is exact; floats are never used on this path. One parent mask
and one monotone step test a row's monotonicity in a parent and close it;
a closing step carries its mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .graph import Dag, marginalize, path_signs

DEFAULT_WORLD_BUDGET = 1 << 24


class BudgetExceededError(ValueError):
    """Building a model's exact joint could reach more rows than the budget allows."""


def config_index(values: Sequence[int]) -> int:
    """Pack parent values (declaration order) into a configuration index."""
    c = 0
    for i, v in enumerate(values):
        if v not in (0, 1):
            raise ValueError(f"parent values must be bits, got {v!r}")
        c |= v << i
    return c


def _parent_mask(n_configs: int, bit: int) -> int:
    """The configurations below ``n_configs`` where the parent at ``bit`` is 1, one bit each."""
    mask, width = ((1 << bit) - 1) << bit, 2 * bit
    while width < n_configs:
        mask |= mask << width
        width *= 2
    return mask


def _monotone_step(row: int, on: int, bit: int, sign: str) -> int:
    """The outputs that one "+" ("-") closure step of ``row`` along the parent at
    ``bit`` adds, given ``on = _parent_mask(n_configs, bit)``: none exactly
    when the row never falls (never rises) as the parent turns on."""
    moved = (row << bit) & on if sign == "+" else (row & on) >> bit
    return moved & ~row


def _monotone_close(row: int, steps: Sequence[tuple[int, int, str]]) -> int:
    """Force row-level monotonicity by one step along each (mask, bit, sign) step."""
    for on, bit, sign in steps:
        row |= _monotone_step(row, on, bit, sign)
    return row


def _check_weights(node: str, n_parents: int, rows: Sequence[int], weights: Sequence[int], scale: int) -> None:
    """The one check of a table's rows and its integer state weights over ``scale`` (a positive int).

    There must be at least one row, each a response state of ``n_parents``
    parents, with one weight each; no weight may be negative, and the
    weights must sum to ``scale``. Raises ``ValueError`` naming ``node``.
    """
    if len(rows) == 0:
        raise ValueError(f"{node}: a table needs at least one response state")
    if len(rows) != len(weights):
        raise ValueError(f"{node}: {len(rows)} rows but {len(weights)} probabilities")
    limit = 1 << (1 << n_parents)
    for r in rows:
        if not 0 <= r < limit:
            raise ValueError(f"{node}: row {r} out of range for {n_parents} parents")
    for w in weights:
        if w < 0:
            raise ValueError(f"{node}: negative state probability {Fraction(w, scale)}")
    if sum(weights) != scale:
        raise ValueError(f"{node}: state probabilities sum to {Fraction(sum(weights), scale)}, not 1")


@dataclass(frozen=True, init=False, repr=False)
class ResponseTable:
    """One node's structural equation over canonical response states.

    A table is its integer weights: state ``j`` has probability
    ``Fraction(weights[j], scale)``, where ``scale`` is the least common
    denominator of the probabilities and the weights sum to it, so equal
    probabilities give equal weights and scale. The constructor takes the
    probabilities as ``Fraction``s and validates them once, in integers;
    ``from_weights`` builds the same table from integer weights directly.
    ``probs`` is derived from the weights when it is first read.
    """

    node: str
    parents: tuple[str, ...]
    rows: tuple[int, ...]
    weights: tuple[int, ...]
    scale: int

    def __init__(self, node: str, parents: Sequence[str], rows: Sequence[int], probs: Sequence[Fraction]):
        parents, rows, probs = tuple(parents), tuple(rows), tuple(probs)
        for p in probs:
            if not isinstance(p, Fraction):
                raise ValueError(f"{node}: probabilities must be Fractions, got {p!r}")
        scale = lcm(*(p.denominator for p in probs))
        weights = tuple(p.numerator * (scale // p.denominator) for p in probs)
        _check_weights(node, len(parents), rows, weights, scale)
        # the instance is frozen: fill its fields directly
        vars(self).update(node=node, parents=parents, rows=rows, weights=weights, scale=scale)

    @classmethod
    def from_weights(
        cls, node: str, parents: Sequence[str], rows: Sequence[int], weights: Sequence[int]
    ) -> "ResponseTable":
        """The table whose state j has probability ``weights[j] / sum(weights)``, built in integers.

        It equals the table built from those probabilities as ``Fraction``s:
        its ``weights`` and ``scale`` are the given weights and their sum,
        each divided by the weights' gcd.
        """
        parents, rows, weights = tuple(parents), tuple(rows), tuple(weights)
        for w in weights:
            if not isinstance(w, int):
                raise ValueError(f"{node}: weights must be ints, got {w!r}")
        # a sum below 1 comes only with zero or negative weights, which the check rejects over 1
        _check_weights(node, len(parents), rows, weights, max(sum(weights), 1))
        common = gcd(*weights)
        weights = tuple(w // common for w in weights)
        scale = sum(weights)
        table = object.__new__(cls)
        # fill the frozen fields without re-checking
        vars(table).update(node=node, parents=parents, rows=rows, weights=weights, scale=scale)
        return table

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """Each state's probability, ``Fraction(weights[j], scale)``."""
        return tuple(Fraction(w, self.scale) for w in self.weights)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(node={self.node!r}, parents={self.parents!r}, "
            f"rows={self.rows!r}, probs={self.probs!r})"
        )

    @property
    def n_parents(self) -> int:
        return len(self.parents)

    @property
    def n_configs(self) -> int:
        return 1 << len(self.parents)

    @property
    def n_states(self) -> int:
        return len(self.rows)

    def output(self, state: int, config: int) -> int:
        """Table lookup: the node's value in ``state`` under parent ``config``."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"{self.node}: state index {state} out of range")
        if not 0 <= config < self.n_configs:
            raise ValueError(f"{self.node}: parent configuration {config} out of range")
        return (self.rows[state] >> config) & 1

    def parent_index(self, parent: str) -> int:
        try:
            return self.parents.index(parent)
        except ValueError:
            raise ValueError(f"{parent!r} is not a parent of {self.node!r}") from None

    @classmethod
    def deterministic(cls, node: str, parents: Sequence[str], fn: Callable[..., int]) -> "ResponseTable":
        """Single-state table computed from a boolean function of the parents."""
        parents = tuple(parents)
        row = 0
        for c in range(1 << len(parents)):
            bits = [(c >> i) & 1 for i in range(len(parents))]
            if fn(*bits):
                row |= 1 << c
        return cls(node, parents, (row,), (Fraction(1),))

    @classmethod
    def constant(cls, node: str, value: int) -> "ResponseTable":
        return cls(node, (), ((1 if value else 0),), (Fraction(1),))

    @classmethod
    def bernoulli(cls, node: str, p: Fraction) -> "ResponseTable":
        """Root node that is 1 with probability ``p``."""
        p = Fraction(p)
        if p == 1:
            return cls(node, (), (1,), (Fraction(1),))
        if p == 0:
            return cls(node, (), (0,), (Fraction(1),))
        return cls(node, (), (1, 0), (p, 1 - p))


def dedupe_states(table: ResponseTable) -> ResponseTable:
    """Merge identical rows, summing their integer weights.

    Returns ``table`` itself when its rows are already distinct. Otherwise
    keeps first-occurrence row order; zero-probability rows survive as long
    as their row value is distinct, so the row set is unchanged as a set.
    """
    if len(set(table.rows)) == len(table.rows):
        return table
    mass: dict[int, int] = {}
    for row, w in zip(table.rows, table.weights):
        mass[row] = mass.get(row, 0) + w
    return ResponseTable.from_weights(table.node, table.parents, tuple(mass), mass.values())


@dataclass(frozen=True)
class Scm:
    """A causal model: a DAG plus one response table per node.

    Response states of distinct nodes are mutually independent by
    construction; the joint distribution is their product pushed through the
    tables in topological order.
    """

    graph: Dag
    tables: Mapping[str, ResponseTable]

    def __post_init__(self):
        object.__setattr__(self, "tables", dict(self.tables))
        missing = [n for n in self.graph.nodes if n not in self.tables]
        if missing:
            raise ValueError(f"missing equations for {missing}")
        extra = [n for n in self.tables if n not in self.graph]
        if extra:
            raise ValueError(f"equations for unknown nodes {extra}")
        for n in self.graph.nodes:
            t = self.tables[n]
            if t.node != n:
                raise ValueError(f"table for {n!r} is labeled {t.node!r}")
            if t.parents != self.graph.parents(n):
                raise ValueError(
                    f"{n}: table parents {t.parents} do not match graph parents {self.graph.parents(n)}"
                )

    def world_count(self) -> int:
        count = 1
        for n in self.graph.nodes:
            count *= self.tables[n].n_states
        return count


class ExactDistribution:
    """An exact finite distribution as a column table of integer weights.

    A row is ``(values, w)`` with ``w`` a Python int; its probability is
    ``w / scale``. Every row shares the one ``scale``, so sums and
    cross-products of weights stay in integers and only ``mass`` and
    ``marginal`` turn them into ``Fraction``s.
    """

    __slots__ = ("columns", "rows", "scale", "_index")

    def __init__(self, columns: Iterable[str], rows: Iterable[tuple[tuple[int, ...], int]], scale: int):
        self.columns = tuple(columns)
        self.rows = tuple(rows)
        if not isinstance(scale, int) or scale <= 0:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        self.scale = scale
        self._index = {c: i for i, c in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise ValueError("duplicate column names")

    def column(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown column {name!r}")
        return self._index[name]

    def mass(self) -> Fraction:
        return Fraction(sum(w for _, w in self.rows), self.scale)

    def marginal(self, columns: Sequence[str]) -> dict[tuple[int, ...], Fraction]:
        idx = [self.column(c) for c in columns]
        out: dict[tuple[int, ...], int] = {}
        for vals, w in self.rows:
            key = tuple(vals[i] for i in idx)
            out[key] = out.get(key, 0) + w
        return {key: Fraction(w, self.scale) for key, w in out.items()}


def joint_distribution(model: Scm, budget: int = DEFAULT_WORLD_BUDGET) -> ExactDistribution:
    """Exact joint over node values, by forward propagation with integer weights.

    Nodes are visited in topological order and every support row (one
    positive-probability assignment of the nodes so far) splits into its
    ``0`` and ``1`` children for the next node. A child's weight is the
    row's weight times the summed integer ``weights`` of the table's states
    that give its value, and the distribution's ``scale`` is the product of
    the tables' ``scale``s. Zero-weight children are dropped, so the rows
    are exactly the support of the node values.

    Columns are the nodes in declaration order. Before each node's split,
    the current row count times the node's largest number of children per
    row (1 when one state holds all of its weight, else 2) must stay within
    ``budget``, so the rows are bounded before they are built.
    """
    nodes = model.graph.nodes
    position: dict[str, int] = {}  # node value's slot in a propagated row
    rows: list[tuple[tuple[int, ...], int]] = [((), 1)]
    scale = 1
    for n in model.graph.topological():
        t = model.tables[n]
        scale *= t.scale
        # nonnegative weights summing to scale leave one child exactly when one state holds them all
        fanout = 1 if t.scale in t.weights else 2
        if len(rows) * fanout > budget:
            raise BudgetExceededError(
                f"{len(rows) * fanout} joint rows at node {n} exceed the budget of {budget}"
            )
        position[n] = len(position)
        children = _children(t)
        if t.parents:
            # a row's children, keyed by its parent values as parent_values reads them
            parent_values = _row_key([position[p] for p in t.parents])
            by_key = dict(zip(_config_keys(t.n_parents), children))
            rows = [
                (vals + v, weight * w)
                for vals, weight in rows
                for v, w in by_key[parent_values(vals)]
            ]
        else:
            (kids,) = children
            rows = [(vals + v, weight * w) for vals, weight in rows for v, w in kids]

    order = [position[n] for n in nodes]
    if order != list(range(len(order))):
        reorder = itemgetter(*order)  # two or more columns here, so it returns tuples
        rows = [(reorder(vals), w) for vals, w in rows]
    return ExactDistribution(nodes, rows, scale)


def _children(t: ResponseTable) -> list[tuple[tuple[tuple[int], int], ...]]:
    """Per parent configuration, the node's values with positive weight and
    their summed integer weights over ``t.scale``."""
    scale, weighted = t.scale, list(zip(t.rows, t.weights))
    out = []
    for c in range(t.n_configs):
        one = 0
        for r, w in weighted:
            if (r >> c) & 1:
                one += w
        if not one:
            out.append((((0,), scale),))
        elif one == scale:
            out.append((((1,), one),))
        else:
            out.append((((0,), scale - one), ((1,), one)))
    return out


def _row_key(indices: Sequence[int]) -> Callable[[Sequence[int]], object]:
    """Row -> hashable key of its values at ``indices``; equal keys iff equal values."""
    return itemgetter(*indices) if indices else (lambda vals: ())


@lru_cache(maxsize=64)
def _config_keys(n_parents: int) -> tuple[object, ...]:
    """Configuration c's parent values as ``_row_key`` reads them, for each c."""
    pick = _row_key(range(n_parents))
    return tuple(
        pick(tuple((c >> i) & 1 for i in range(n_parents))) for c in range(1 << n_parents)
    )


def substitute(model: Scm, w: str | Iterable[str]) -> Scm:
    """The model induced on ``marginalize(graph, w)`` by equation substitution.

    Every absorbed node's mechanism is folded into the unique retained node
    it feeds; the combined exogenous term enumerates the product of the
    member states. Requires the marginalization to be legal, which also
    guarantees the absorbed nodes partition cleanly among retained nodes.
    """
    ws = frozenset((w,) if isinstance(w, str) else w)
    g2 = marginalize(model.graph, ws)

    tables: dict[str, ResponseTable] = {}
    for v in g2.nodes:
        # nodes that feed v through absorbed nodes only, in declaration order
        absorbed = [u for u in path_signs(model.graph, v, avoid=g2.nodes) if u in ws]
        if not absorbed:
            old = model.tables[v]
            if old.parents == g2.parents(v):
                tables[v] = old
                continue
        members = absorbed + [v]
        member_order = [n for n in model.graph.topological() if n in members]
        inputs = g2.parents(v)
        state_axes = [range(model.tables[n].n_states) for n in members]
        new_rows: list[int] = []
        new_probs: list[Fraction] = []
        for combo in product(*state_axes):
            states = dict(zip(members, combo))
            prob = Fraction(1)
            for n in members:
                prob *= model.tables[n].probs[states[n]]
            row = 0
            for c in range(1 << len(inputs)):
                env = {p: (c >> i) & 1 for i, p in enumerate(inputs)}
                for n in member_order:
                    t = model.tables[n]
                    cfg = config_index([env[p] for p in t.parents])
                    env[n] = t.output(states[n], cfg)
                if env[v]:
                    row |= 1 << c
            new_rows.append(row)
            new_probs.append(prob)
        tables[v] = ResponseTable(v, inputs, tuple(new_rows), tuple(new_probs))
    return Scm(g2, tables)

