"""Graph expansion with sufficient-causation structure.

Given a determinative representation for a node, the expansion inserts one
AND node per term (fed by the term's parent literals and, for state-bound
terms, by a co-cause node hanging off a shared exogenous node) and rewires
the target as an OR of the AND nodes. The result is itself a causal DAG, so
ordinary d-separation applies; conditioning on the target being 0 further
pins every AND node to 0, which is what stratum queries exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import TYPE_CHECKING, Iterable

from .causes import CoCauseKind, Conjunction, Representation, canonical_representation, validate_representation
from .graph import Dag, Path, find_unblocked_path
from .scm import (
    DEFAULT_WORLD_BUDGET, BudgetExceededError, ExactDistribution, ResponseTable, Scm, config_index, dedupe_states,
    joint_distribution,
)

if TYPE_CHECKING:  # pragma: no cover
    from .modelfile import Model

EXOGENOUS_NAME = "U"


@dataclass(frozen=True)
class ExpandedDag:
    """A base graph rewired through sufficient-cause AND nodes.

    ``cocause_nodes`` and ``and_nodes`` are aligned with ``terms``: term
    ``i`` has co-cause node ``cocause_nodes[i]`` (None for an unrestricted
    co-cause) and AND node ``and_nodes[i]``. A term with no parent literals
    collapses into its co-cause node, which then fills both slots.
    """

    dag: Dag
    base: Dag
    target: str
    exogenous: str | None
    cocause_nodes: tuple[str | None, ...]
    and_nodes: tuple[str, ...]
    terms: tuple[Conjunction, ...]

    @property
    def auxiliary_nodes(self) -> tuple[str, ...]:
        """The nodes the expansion added, in ``dag`` order."""
        return tuple(n for n in self.dag.nodes if n not in self.base)

    def kind_of(self, node: str) -> str:
        if node == self.target:
            return "or"
        if node == self.exogenous:
            return "exogenous"
        if node in self.cocause_nodes:
            return "cocause"
        if node in self.and_nodes:
            return "and"
        return "base"


def expand(base: Dag, d: str, rep: Representation, table: ResponseTable | None = None) -> ExpandedDag:
    """Rewire ``d`` in ``base`` through the representation's AND nodes.

    Only the graph is needed; when ``d``'s equation ``table`` is given, the
    representation must be determinative for it. A complemented literal
    still induces an edge from the parent; the complement lives inside the
    AND node's equation and shows up as a negative edge sign.

    New nodes follow the base nodes, each named by the first free candidate
    in this order: the exogenous node (``U``, else ``U_<d>``) when some term
    is state-bound, then per term ``i`` its co-cause node (``A<i>``, else
    ``cocause<i>``) and its AND node (the co-cause name followed by the
    rendered literals, or the literals alone, or ``TRUE``; else ``M<i>``).
    When every candidate is taken, the last one gets the first free suffix
    ``_1``, ``_2``, ..., so every valid model expands.
    """
    base.require(d)
    if rep.target != d:
        raise ValueError(f"representation targets {rep.target!r}, not {d!r}")
    if any(t.cocause.kind is CoCauseKind.ZERO for t in rep.terms):
        raise ValueError("representation terms must not carry the impossible co-cause")
    if table is not None:
        validate_representation(table, rep)

    nodes = list(base.nodes)
    taken = set(nodes)

    def fresh(*candidates: str) -> str:
        suffixed = (f"{candidates[-1]}_{k}" for k in count(1))
        name = next(n for n in chain(candidates, suffixed) if n not in taken)
        taken.add(name)
        nodes.append(name)
        return name

    exogenous = None
    if any(t.cocause.kind is CoCauseKind.STATES for t in rep.terms):
        exogenous = fresh(EXOGENOUS_NAME, f"{EXOGENOUS_NAME}_{d}")
    edges = [(a, b) for a, b in base.edges if b != d]
    signs = {e: s for e, s in base.signs.items() if e[1] != d}
    cocause_nodes: list[str | None] = []
    and_nodes: list[str] = []
    for i, term in enumerate(rep.terms):
        body = "".join(lit.render() for lit in term.literals)
        if term.cocause.kind is not CoCauseKind.STATES:
            c_name, a_name = None, fresh(body or "TRUE", f"M{i}")
        else:
            c_name = a_name = fresh(f"A{i}", f"cocause{i}")
            edges.append((exogenous, c_name))
            if term.literals:
                a_name = fresh(c_name + body, f"M{i}")
                edges.append((c_name, a_name))
                signs[(c_name, a_name)] = "+"
        for lit in term.literals:
            edges.append((lit.base, a_name))
            signs[(lit.base, a_name)] = "-" if lit.complemented else "+"
        edges.append((a_name, d))
        signs[(a_name, d)] = "+"
        cocause_nodes.append(c_name)
        and_nodes.append(a_name)

    dag = Dag(nodes, edges, signs)
    return ExpandedDag(dag, base, d, exogenous, tuple(cocause_nodes), tuple(and_nodes), rep.terms)


def expand_model(model: Model, node: str) -> tuple[ExpandedDag, str]:
    """``node``'s expansion under its declared representation ("declared"),
    else under the canonical one of its deduplicated table ("canonical")."""
    table = model.tables.get(node)
    if node in model.representations:
        rep, source = model.representations[node], "declared"
    elif table is not None:
        table = dedupe_states(table)
        rep, source = canonical_representation(table), "canonical"
    else:
        raise ValueError(f"no representation or equation for {node!r}")
    return expand(model.dag, node, rep, table), source


def stratum_conditioning_set(e: ExpandedDag, stratum: int, z: Iterable[str] = ()) -> frozenset[str]:
    """``z`` and what conditioning on the target's stratum pins down: the
    target, and in the 0 stratum every AND node, which is then 0."""
    if stratum not in (0, 1):
        raise ValueError(f"stratum must be 0 or 1, got {stratum!r}")
    pinned = (e.target, *e.and_nodes) if stratum == 0 else (e.target,)
    return frozenset((*z, *pinned))


def stratum_witness(e: ExpandedDag, x: str, y: str, z: Iterable[str] = (), stratum: int = 0) -> Path | None:
    """An unblocked path between ``x`` and ``y`` on the expansion given
    ``stratum_conditioning_set(e, stratum, z)``, or None when there is none."""
    return find_unblocked_path(e.dag, x, y, stratum_conditioning_set(e, stratum, z))


def stratum_independent(e: ExpandedDag, x: str, y: str, z: Iterable[str] = (), stratum: int = 0) -> bool:
    """Sound graphical test of independence inside one stratum of the target.

    True, when ``stratum_witness`` finds no path, means ``x`` and ``y`` are
    conditionally independent given ``z`` within the stratum, for every
    parameterization compatible with the representation. False is NOT a
    dependence claim; report it as "not implied independent".
    """
    return stratum_witness(e, x, y, z, stratum) is None


def expanded_distribution(
    model: Scm, e: ExpandedDag, budget: int = DEFAULT_WORLD_BUDGET
) -> ExactDistribution:
    """Exact joint over the base nodes, then ``e.auxiliary_nodes``.

    With an exogenous node, each base row splits into the target's
    positive-probability states that give its target value at its parent
    configuration. The row's weight ``w`` holds their summed weight ``S``
    exactly once, so state ``j`` gets ``(w // S) * weights[j]``; the split
    rows are counted against ``budget`` before any is built. The exogenous
    column carries the state index, each co-cause column indicates that
    index's membership in the term's state set, and each AND column
    multiplies its co-cause with its literals. The state sets must index
    the target's own table, so the representation must be determinative for
    it (one built from ``dedupe_states`` of a table with repeated rows is not).
    """
    table = model.tables[e.target]
    validate_representation(table, Representation(e.target, e.terms))
    dist = joint_distribution(model, budget)
    if e.exogenous is None:
        split = [(vals, None, w) for vals, w in dist.rows]
    else:
        parents, target = [dist.column(p) for p in table.parents], dist.column(e.target)
        weighted = [(j, r, w) for j, (r, w) in enumerate(zip(table.rows, table.weights)) if w]
        fits = []
        for vals, _ in dist.rows:
            c = config_index([vals[i] for i in parents])
            fits.append([(j, w) for j, r, w in weighted if (r >> c) & 1 == vals[target]])
        count = sum(map(len, fits))
        if count > budget:
            raise BudgetExceededError(f"{count} joint rows at node {e.target} exceed the budget of {budget}")
        split = []
        for (vals, w), fit in zip(dist.rows, fits):
            share = w // sum(wj for _, wj in fit)  # w holds the target's factor once
            split.extend((vals, j, share * wj) for j, wj in fit)
    literals = [[(dist.column(lit.base), lit.complemented) for lit in t.literals] for t in e.terms]
    aux = e.auxiliary_nodes

    rows = []
    for vals, j, w in split:
        out = {} if e.exogenous is None else {e.exogenous: j}
        for term, c_name, a_name, lits in zip(e.terms, e.cocause_nodes, e.and_nodes, literals):
            a_val = 1
            if c_name is not None:
                a_val = out[c_name] = int(j in term.cocause.states)
            for i, complemented in lits:
                a_val &= vals[i] ^ complemented
            out[a_name] = a_val
        rows.append((vals + tuple(out[n] for n in aux), w))
    return ExactDistribution(dist.columns + aux, rows, dist.scale)
