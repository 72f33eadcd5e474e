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
from typing import Iterable, Mapping

from .causes import CoCauseKind, Conjunction, Representation, validate_representation
from .graph import Dag, GraphError, d_separated
from .scm import DEFAULT_WORLD_BUDGET, ExactDistribution, ResponseTable, Scm, joint_distribution, state_column

EXOGENOUS_NAME = "U"


@dataclass(frozen=True)
class ExpandedDag:
    """A base graph rewired through sufficient-cause AND nodes.

    ``and_nodes`` are aligned with ``terms``; a term with no parent literals
    collapses into its co-cause node, which then appears in both
    ``cocause_nodes`` and ``and_nodes``.
    """

    dag: Dag
    base: Dag
    target: str
    exogenous: str | None
    cocause_nodes: tuple[str, ...]
    and_nodes: tuple[str, ...]
    terms: tuple[Conjunction, ...]

    @property
    def auxiliary_nodes(self) -> tuple[str, ...]:
        extra = () if self.exogenous is None else (self.exogenous,)
        seen: dict[str, None] = dict.fromkeys(extra + self.cocause_nodes + self.and_nodes)
        return tuple(seen)

    def kind_of(self, node: str) -> str:
        if node == self.target:
            return "or"
        if node == self.exogenous:
            return "exogenous"
        if node in self.and_nodes:
            return "and" if node not in self.cocause_nodes else "cocause"
        if node in self.cocause_nodes:
            return "cocause"
        return "base"


def _term_node_names(
    terms: Iterable[Conjunction], taken: set[str]
) -> tuple[list[str | None], list[str]]:
    """Pick fresh node names: conjunction labels, with M{i}/cocause{i} fallbacks."""

    def fresh(*candidates: str) -> str:
        for name in candidates:
            if name not in taken:
                taken.add(name)
                return name
        raise GraphError(f"cannot find a free node name among {candidates}")

    cocause_names: list[str | None] = []
    and_names: list[str] = []
    for i, term in enumerate(terms):
        state_bound = term.cocause.kind is CoCauseKind.STATES
        body = "".join(lit.render() for lit in term.literals)
        if state_bound:
            c_name = fresh(f"A{i}", f"cocause{i}")
            cocause_names.append(c_name)
            if not term.literals:
                and_names.append(c_name)
            else:
                and_names.append(fresh(f"{c_name}{body}", f"M{i}"))
        else:
            cocause_names.append(None)
            and_names.append(fresh(body or "TRUE", f"M{i}"))
    return cocause_names, and_names


def expand(base: Dag, d: str, rep: Representation, table: ResponseTable | None = None) -> ExpandedDag:
    """Rewire ``d`` in ``base`` through the representation's AND nodes.

    Only the graph is needed; when ``d``'s equation ``table`` is given, the
    representation must be determinative for it. A complemented literal
    still induces an edge from the parent; the complement lives inside the
    AND node's equation and shows up as a negative edge sign.
    """
    base.require(d)
    if rep.target != d:
        raise ValueError(f"representation targets {rep.target!r}, not {d!r}")
    if any(t.cocause.kind is CoCauseKind.ZERO for t in rep.terms):
        raise ValueError("representation terms must not carry the impossible co-cause")
    if table is not None:
        validate_representation(table, rep)

    taken = set(base.nodes)
    needs_exogenous = any(t.cocause.kind is CoCauseKind.STATES for t in rep.terms)
    exogenous = None
    if needs_exogenous:
        for candidate in (EXOGENOUS_NAME, f"{EXOGENOUS_NAME}_{d}"):
            if candidate not in taken:
                exogenous = candidate
                taken.add(candidate)
                break
        else:
            raise GraphError("cannot name the exogenous node; rename the base nodes")
    cocause_names, and_names = _term_node_names(rep.terms, taken)

    nodes = list(base.nodes)
    if exogenous:
        nodes.append(exogenous)
    for c, a in zip(cocause_names, and_names):
        if c is not None and c != a:
            nodes.append(c)
        nodes.append(a)

    edges = [(a, b) for a, b in base.edges if b != d]
    signs = {e: s for e, s in base.signs.items() if e[1] != d}
    for term, c_name, a_name in zip(rep.terms, cocause_names, and_names):
        if c_name is not None:
            edges.append((exogenous, c_name))
            if c_name != a_name:
                edges.append((c_name, a_name))
                signs[(c_name, a_name)] = "+"
        for lit in term.literals:
            edges.append((lit.base, a_name))
            signs[(lit.base, a_name)] = "-" if lit.complemented else "+"
        edges.append((a_name, d))
        signs[(a_name, d)] = "+"

    dag = Dag(nodes, edges, signs)
    cocauses = tuple(c for c in cocause_names if c is not None)
    return ExpandedDag(dag, base, d, exogenous, cocauses, tuple(and_names), rep.terms)


def stratum_conditioning_set(e: ExpandedDag, stratum: int) -> frozenset[str]:
    """What conditioning on the target's stratum pins down.

    In the 0 stratum every AND node is deterministically 0, so they join
    the conditioning set; in the 1 stratum no single AND node is fixed.
    """
    if stratum not in (0, 1):
        raise ValueError(f"stratum must be 0 or 1, got {stratum!r}")
    if stratum == 0:
        return frozenset((e.target, *e.and_nodes))
    return frozenset((e.target,))


def stratum_independent(
    e: ExpandedDag,
    x: str,
    y: str,
    z: Iterable[str] = (),
    stratum: int = 0,
) -> bool:
    """Sound graphical test of independence inside one stratum of the target.

    True means ``x`` and ``y`` are conditionally independent given ``z``
    within the stratum, for every parameterization compatible with the
    representation. False is NOT a dependence claim; report it as "not
    implied independent".
    """
    cond = set(z) | stratum_conditioning_set(e, stratum)
    return d_separated(e.dag, x, y, cond)


def expanded_distribution(
    model: Scm, e: ExpandedDag, budget: int = DEFAULT_WORLD_BUDGET
) -> ExactDistribution:
    """Exact joint extended with the exogenous, co-cause and AND columns.

    The auxiliary values are deterministic functions of the base support:
    the exogenous column carries the target's response-state index, each
    co-cause column indicates membership of that index in the term's state
    set, and each AND column multiplies its co-cause with its literals.
    """
    dist = joint_distribution(model, budget, states=(e.target,))
    st_col = state_column(e.target)

    names: list[str] = []
    seen: set[str] = set()
    if e.exogenous is not None:
        names.append(e.exogenous)
        seen.add(e.exogenous)
    cocause_iter = iter(e.cocause_nodes)
    cocause_by_term = [
        next(cocause_iter) if t.cocause.kind is CoCauseKind.STATES else None
        for t in e.terms
    ]
    for c_name, a_name in zip(cocause_by_term, e.and_nodes):
        for n in (c_name, a_name):
            if n is not None and n not in seen:
                names.append(n)
                seen.add(n)

    def derive(env: Mapping[str, int]) -> list[int]:
        j = env[st_col]
        out: dict[str, int] = {}
        if e.exogenous is not None:
            out[e.exogenous] = j
        for term, c_name, a_name in zip(e.terms, cocause_by_term, e.and_nodes):
            a_val = 1
            if c_name is not None:
                a_val = 1 if j in term.cocause.states else 0
                out[c_name] = a_val
            for lit in term.literals:
                bit = env[lit.base]
                a_val &= (1 - bit) if lit.complemented else bit
            out[a_name] = a_val
        return [out[n] for n in names]

    return dist.with_columns(names, derive)
