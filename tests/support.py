"""Shared helpers: fixture paths, random graphs, references (path enumeration,
the exhaustive witness search, atom-by-atom sufficient causes, world
enumeration, complemented parents, per-configuration monotonicity and
monotone closure, the per-row query filters, the per-call generator, the
two-pass assertion test, the ancestor test of shared causes), and constrained
instance families."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path
from typing import Callable

from suffcause import (
    CoCause,
    CoCauseKind,
    ConditioningError,
    Conjunction,
    Dag,
    ExactDistribution,
    GenerationError,
    Literal,
    Path as GraphPath,
    ResponseTable,
    Scm,
    Sign,
    canonical_representation,
    conditional_covariance,
    conditional_independent,
    config_index,
    dedupe_states,
    facts_from_scm,
)
from suffcause.covsign import Flag, RepFacts
from suffcause.graph import _as_names
from suffcause.oracle import _MAX_TRIES, _candidate_rows, _sign_steps
from suffcause.scm import _monotone_close, _row_key
from suffcause.signs import Relation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Monotone-in-both rows for a two-parent table, bit c = output at config c
# with bit0 = E1, bit1 = E2.
ROW_CONST0 = 0
ROW_AND = 8
ROW_E1 = 10
ROW_E2 = 12
ROW_OR = 14
ROW_CONST1 = 15
MONOTONE_PAIR_ROWS = (ROW_CONST0, ROW_AND, ROW_E1, ROW_E2, ROW_OR, ROW_CONST1)


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.model")


def complement_parent(table: ResponseTable, parent: str) -> ResponseTable:
    """Reexpress the equation in terms of the complement of one parent.

    The reference for the pair frame, where each negative parent is
    complemented (``covsign._table_slots`` reads that frame off the table).
    """
    i = table.parent_index(parent)
    bit = 1 << i
    new_rows = []
    for row in table.rows:
        flipped = 0
        for c in range(table.n_configs):
            if (row >> (c ^ bit)) & 1:
                flipped |= 1 << c
        new_rows.append(flipped)
    return ResponseTable(table.node, table.parents, tuple(new_rows), table.probs)


def reference_table_slots(
    table: ResponseTable, e1: str, e2: str, negative: tuple[bool, bool]
) -> dict[str, frozenset[int] | None]:
    """The canonical-term slot read-off that ``covsign._table_slots`` replaces with the closed form.

    Deduplicate the table, build its canonical representation and key each
    term by its literals at the parents' polarity; a slot is the set of its
    rows, or None for all rows. A term that fits no slot raises
    ``ValueError`` naming the term and, in the library's words, the frame.
    """
    table = dedupe_states(table)
    l1, l2 = Literal(e1, negative[0]), Literal(e2, negative[1])
    key_for = {(): "a0", (l1,): "a1", (l2,): "a2", tuple(sorted((l1, l2))): "a3"}
    slots: dict[str, frozenset[int] | None] = dict.fromkeys(("a0", "a1", "a2", "a3"), frozenset())
    for term in canonical_representation(table).terms:
        slot = key_for.get(term.literals)
        if slot is None:
            raise ValueError(
                f"{table.node}: canonical term {term.render()} fits no slot of the ({l1.render()}, "
                f"{l2.render()}) frame; the two-parent rule set needs monotone effects"
            )
        states = term.cocause.states
        slots[slot] = None if term.cocause.kind is CoCauseKind.ONE else frozenset(table.rows[i] for i in states)
    return slots


def reference_row_direction_holds(row: int, n_configs: int, bit: int, nondecreasing: bool) -> bool:
    """One response row never falls (or never rises) when the parent at
    ``bit`` turns on, one configuration at a time: the reference for the
    mask step ``scm._monotone_step``."""
    for c in range(n_configs):
        if c & bit:
            continue
        low = (row >> c) & 1
        high = (row >> (c | bit)) & 1
        if high < low if nondecreasing else high > low:
            return False
    return True


def reference_monotone_close(row: int, n_configs: int, requirements) -> int:
    """Bit-by-bit monotone closure, one configuration at a time: the
    reference for ``scm._monotone_close``."""
    for bit, sign in requirements:
        for c in range(n_configs):
            if c & bit:
                if sign == "+":
                    row |= ((row >> (c ^ bit)) & 1) << c
                else:
                    row |= ((row >> c) & 1) << (c ^ bit)
    return row


def reference_random_instance(
    g: Dag, seed: int, *, row_filter: dict | None = None, states: tuple[int, int] = (1, 3), max_weight: int = 8
) -> Scm:
    """The generator as it was before draw plans: every call works out each
    node's signs, candidate rows and size range again, and each table goes
    through ``Fraction(w, total)``. ``random_instance(draw_plan(g, **kw), seed)``
    must draw the same tables as ``reference_random_instance(g, seed, **kw)``."""
    rng = random.Random(seed)
    tables: dict[str, ResponseTable] = {}
    lo, hi = states
    row_filter = row_filter or {}
    for node in g.nodes:
        parents = g.parents(node)
        signs = tuple([g.signs.get((p, node)) for p in parents])
        candidates = _candidate_rows(signs)
        keep = row_filter.get(node)
        if candidates is not None:
            sizes = range(min(lo, len(candidates)), min(hi, len(candidates)) + 1)
        else:
            n_configs = 1 << len(parents)
            closing = _sign_steps(signs)

        for _ in range(_MAX_TRIES):
            if candidates is not None:
                rows = tuple(rng.sample(candidates, rng.randint(sizes[0], sizes[-1])))
            else:
                picked: list[int] = []
                for _ in range(50):
                    row = _monotone_close(rng.getrandbits(n_configs), closing)
                    if row not in picked:
                        picked.append(row)
                    if len(picked) >= rng.randint(lo, hi):
                        break
                rows = tuple(picked)
            if keep is not None and not keep(rows):
                continue
            weights = [rng.randint(1, max_weight) for _ in rows]
            total = sum(weights)
            tables[node] = ResponseTable(node, parents, rows, tuple(Fraction(w, total) for w in weights))
            break
        else:
            raise GenerationError(node, f"no acceptable table after {_MAX_TRIES} tries")
    return Scm(g, tables)


def random_dag(rng: random.Random, n_nodes: int, edge_prob: float = 0.4) -> Dag:
    nodes = [f"X{i}" for i in range(n_nodes)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < edge_prob
    ]
    return Dag(nodes, edges)


def without_term(node: str, parents: tuple[str, ...], literals) -> Callable[[tuple[int, ...]], bool]:
    """Row filter: ``node``'s canonical representation has no term over exactly ``literals``."""
    forbidden = frozenset(literals)

    def keep(rows: tuple[int, ...]) -> bool:
        table = ResponseTable(node, parents, rows, (Fraction(1, len(rows)),) * len(rows))
        return all(frozenset(t.literals) != forbidden for t in canonical_representation(table).terms)

    return keep


def random_signs(rng: random.Random, g: Dag) -> Dag:
    """The same graph with each edge labeled "+", "-" or left unsigned at random."""
    signs = {}
    for e in g.edges:
        r = rng.random()
        if r < 0.4:
            signs[e] = "+"
        elif r < 0.8:
            signs[e] = "-"
    return Dag(g.nodes, g.edges, signs)


def labeled_dags(n_nodes: int, seed: int):
    """Every DAG on ``n_nodes`` nodes, seeded edge labels, shuffled declaration order."""
    rng = random.Random(seed)
    names = ["A", "B", "C", "D", "E"][:n_nodes]
    slots = list(combinations(range(n_nodes), 2))
    for mask in range(1 << len(slots)):
        edges = [(names[i], names[j]) for k, (i, j) in enumerate(slots) if mask >> k & 1]
        order = names[:]
        rng.shuffle(order)
        yield random_signs(rng, Dag(order, edges))


# -- test-only reference for graph.path_signs: enumerate every directed path --

def directed_paths(g: Dag, a: str, b: str, avoid=()) -> list[tuple[str, ...]]:
    """All directed simple paths from ``a`` to ``b`` skipping ``avoid`` nodes."""
    g.require(a, b, *avoid)
    avoid_set = set(avoid)
    if a in avoid_set or b in avoid_set or a == b:
        return []
    out: list[tuple[str, ...]] = []

    def walk(trail: list[str]) -> None:
        for c in g.children(trail[-1]):
            if c in avoid_set or c in trail:
                continue
            if c == b:
                out.append(tuple(trail) + (b,))
            else:
                trail.append(c)
                walk(trail)
                trail.pop()

    walk([a])
    return out


# -- test-only references for graph.find_unblocked_path ----------------------

def path_blocked(g: Dag, path: GraphPath, z=()) -> bool:
    """Literal blocking test for one path, applied node by node."""
    zs = {z} if isinstance(z, str) else set(z)
    g.require(*zs)
    open_colliders = zs.union(*(g.ancestors(n) for n in zs))  # zs and its ancestors
    for i in range(1, len(path.nodes) - 1):
        v = path.nodes[i]
        collider = path.forward[i - 1] and not path.forward[i]
        if collider:
            if v not in open_colliders:
                return True
        elif v in zs:
            return True
    return False


def dfs_unblocked_path(g: Dag, x, y, z=()) -> GraphPath | None:
    """First unblocked simple path between ``x`` and ``y`` given ``z``.

    Exhaustive depth-first search (exponential in the worst case): sources
    and neighbors are explored in node declaration order, and each step
    applies the literal blocking rule to the node it passes.
    """
    xs, ys, zs = (frozenset([s] if isinstance(s, str) else s) for s in (x, y, z))
    touches_z = {n: n in zs or bool(g.descendants(n) & zs) for n in g.nodes}

    def extend(trail: list[str], on_trail: set[str]) -> list[str] | None:
        v = trail[-1]
        for w in g.adjacent(v):
            if w in on_trail:
                continue
            if len(trail) >= 2:
                u = trail[-2]
                collider = g.has_edge(u, v) and g.has_edge(w, v)
                if collider:
                    if not touches_z[v]:
                        continue
                elif v in zs:
                    continue
            if w in ys:
                return trail + [w]
            on_trail.add(w)
            trail.append(w)
            found = extend(trail, on_trail)
            if found is not None:
                return found
            trail.pop()
            on_trail.remove(w)
        return None

    for s in g.nodes:
        if s not in xs:
            continue
        found = extend([s], {s})
        if found is not None:
            return GraphPath.through(g, found)
    return None


def path_product(g: Dag, nodes) -> Sign:
    """Product of edge signs along a directed node sequence."""
    out = Sign.POSITIVE
    for a, b in zip(nodes, nodes[1:]):
        label = g.signs.get((a, b))
        out = out * {"+": Sign.POSITIVE, "-": Sign.NEGATIVE}.get(label, Sign.UNDEFINED)
    return out


# -- test-only reference for the table surface of causes: read every atom ----

def seeded_tables(seed: int, count: int, min_parents: int = 0, max_parents: int = 5, max_states: int = 6):
    """Tables with distinct random rows over parents E1..Em, equal probabilities."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(min_parents, max_parents)
        parents = tuple(f"E{i}" for i in range(1, m + 1))
        space = 1 << (1 << m)
        k = min(rng.randint(1, max_states), space)
        rows = tuple(rng.sample(range(space), k))
        yield ResponseTable("D", parents, rows, (Fraction(1, k),) * k)


def _check_conjunction(table: ResponseTable, c: Conjunction) -> None:
    for lit in c.literals:
        table.parent_index(lit.base)
    for s in c.cocause.states:
        if not 0 <= s < table.n_states:
            raise ValueError(f"co-cause state {s} out of range for {table.n_states} states")


def _holds(table: ResponseTable, c: Conjunction, state: int, config: int) -> bool:
    """The conjunction read literally at one (state, configuration) atom."""
    if c.cocause.kind is CoCauseKind.ZERO:
        return False
    if c.cocause.kind is CoCauseKind.STATES and state not in c.cocause.states:
        return False
    return all((config >> table.parent_index(l.base) & 1) != l.complemented for l in c.literals)


def _atoms(table: ResponseTable):
    return product(range(table.n_states), range(table.n_configs))


def ref_sufficient(table: ResponseTable, c: Conjunction) -> bool:
    _check_conjunction(table, c)
    return all(table.output(s, x) for s, x in _atoms(table) if _holds(table, c, s, x))


def _weakenings(c: Conjunction) -> list[Conjunction]:
    """The conjunction with the state restriction or one literal dropped."""
    out = [Conjunction(c.literals)] if c.cocause.kind is CoCauseKind.STATES else []
    for i in range(len(c.literals)):
        out.append(Conjunction(c.literals[:i] + c.literals[i + 1:], c.cocause))
    return out


def ref_minimal_sufficient(table: ResponseTable, c: Conjunction) -> bool:
    return ref_sufficient(table, c) and not any(ref_sufficient(table, w) for w in _weakenings(c))


def ref_reduce_to_minimal(table: ResponseTable, c: Conjunction) -> Conjunction:
    if not ref_sufficient(table, c):
        raise ValueError("conjunction is not sufficient")
    current = c
    if c.cocause.kind is CoCauseKind.STATES and ref_sufficient(table, Conjunction(c.literals)):
        current = Conjunction(c.literals)
    for lit in sorted(c.literals, key=lambda l: table.parent_index(l.base), reverse=True):
        trial = Conjunction(tuple(l for l in current.literals if l != lit), current.cocause)
        if ref_sufficient(table, trial):
            current = trial
    return current


def ref_determinative(table: ResponseTable, terms) -> bool:
    for t in terms:
        _check_conjunction(table, t)
    return all(
        table.output(s, x) == any(_holds(table, t, s, x) for t in terms) for s, x in _atoms(table)
    )


def ref_nonredundant(table: ResponseTable, terms) -> bool:
    terms = list(terms)
    if not ref_determinative(table, terms):
        raise ValueError("term list is not determinative")
    return not any(ref_determinative(table, terms[:i] + terms[i + 1:]) for i in range(len(terms)))


def _term_key(table: ResponseTable, c: Conjunction) -> tuple:
    lits = sorted((table.parent_index(l.base), l.complemented) for l in c.literals)
    return (len(lits), tuple(lits), c.cocause.states)


def ref_reduce_to_nonredundant(table: ResponseTable, terms) -> list[Conjunction]:
    terms = list(terms)
    if not ref_determinative(table, terms):
        raise ValueError("term list is not determinative")
    kept = list(range(len(terms)))
    for i in sorted(range(len(terms)), key=lambda i: _term_key(table, terms[i]), reverse=True):
        rest = [k for k in kept if k != i]
        if ref_determinative(table, [terms[k] for k in rest]):
            kept = rest
    return [terms[k] for k in kept]


def ref_canonical_terms(table: ResponseTable) -> list[Conjunction]:
    """Every parent conjunction with the states completing it into a minimal sufficient cause."""
    terms = []
    for polarity in product((None, False, True), repeat=table.n_parents):
        lits = tuple(Literal(p, comp) for p, comp in zip(table.parents, polarity) if comp is not None)
        if ref_minimal_sufficient(table, Conjunction(lits)):
            terms.append(Conjunction(lits))
            continue
        states = [
            j for j in range(table.n_states)
            if ref_minimal_sufficient(table, Conjunction(lits, CoCause(CoCauseKind.STATES, (j,))))
        ]
        if states:
            terms.append(Conjunction(lits, CoCause.of_states(states, table.n_states)))
    return sorted(terms, key=lambda t: _term_key(table, t))


def random_conjunction(rng: random.Random, table: ResponseTable, foreign: float = 0.05) -> Conjunction:
    """Random literals (sometimes on a foreign node Z) with a ONE, ZERO, all-states
    or random state-set co-cause (sometimes naming a state out of range)."""
    names = list(table.parents) + (["Z"] if rng.random() < foreign else [])
    lits = tuple(Literal(n, rng.random() < 0.5) for n in names if rng.random() < 0.6)
    r = rng.random()
    if r < 0.15:
        cocause = CoCause.zero()
    elif r < 0.4:
        cocause = CoCause.one()
    elif r < 0.5:
        cocause = CoCause(CoCauseKind.STATES, tuple(range(table.n_states)))
    else:
        states = [j for j in range(table.n_states) if rng.random() < 0.5] or [0]
        if rng.random() < foreign:
            states.append(table.n_states)
        cocause = CoCause(CoCauseKind.STATES, tuple(states))
    return Conjunction(lits, cocause)


# -- test-only reference for scm.joint_distribution: enumerate every world ---

def enumerate_joint(model: Scm) -> dict[tuple[int, ...], Fraction]:
    """Probability of every positive-probability world, keyed by node values
    then response-state indices (both in declaration order)."""
    nodes = model.graph.nodes
    supports = [
        [(j, p) for j, p in enumerate(model.tables[n].probs) if p > 0]
        for n in nodes
    ]
    out: dict[tuple[int, ...], Fraction] = {}
    for combo in product(*supports):
        prob = Fraction(1)
        states: dict[str, int] = {}
        for n, (j, p) in zip(nodes, combo):
            prob *= p
            states[n] = j
        values: dict[str, int] = {}
        for n in model.graph.topological():
            t = model.tables[n]
            values[n] = t.output(states[n], config_index([values[p] for p in t.parents]))
        key = tuple(values[n] for n in nodes) + tuple(states[n] for n in nodes)
        out[key] = out.get(key, Fraction(0)) + prob
    return out


def value_marginal(model: Scm, joint: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Collapse an ``enumerate_joint`` result onto the node values."""
    k = len(model.graph.nodes)
    out: dict[tuple[int, ...], Fraction] = {}
    for key, p in joint.items():
        out[key[:k]] = out.get(key[:k], Fraction(0)) + p
    return out


def reference_covariance(model: Scm, values, x: str, y: str, given=None) -> Fraction | None:
    """Cov(x, y | given) over a ``value_marginal``; None for a probability-0 event."""
    ix, iy = model.graph.index(x), model.graph.index(y)
    cond = [(model.graph.index(n), v) for n, v in (given or {}).items()]
    rows = [(vals, p) for vals, p in values.items() if all(vals[i] == v for i, v in cond)]
    mass = sum((p for _, p in rows), Fraction(0))
    if mass == 0:
        return None
    ex = sum((p for vals, p in rows if vals[ix]), Fraction(0)) / mass
    ey = sum((p for vals, p in rows if vals[iy]), Fraction(0)) / mass
    exy = sum((p for vals, p in rows if vals[ix] and vals[iy]), Fraction(0)) / mass
    return exy - ex * ey


def reference_independent(model: Scm, values, x: str, y: str, z=()) -> bool:
    """P(x, y | z) == P(x | z) P(y | z) in every positive stratum of ``z``."""
    ix, iy = model.graph.index(x), model.graph.index(y)
    iz = [model.graph.index(n) for n in z]
    for vz in product((0, 1), repeat=len(iz)):
        rows = [(vals, p) for vals, p in values.items() if [vals[i] for i in iz] == list(vz)]
        mass = sum((p for _, p in rows), Fraction(0))
        if mass == 0:
            continue
        for a, b in product((0, 1), repeat=2):
            pxy = sum((p for vals, p in rows if (vals[ix], vals[iy]) == (a, b)), Fraction(0))
            px = sum((p for vals, p in rows if vals[ix] == a), Fraction(0))
            py = sum((p for vals, p in rows if vals[iy] == b), Fraction(0))
            if pxy / mass != (px / mass) * (py / mass):
                return False
    return True


# -- test-only references for the exact queries ------------------------------

def reference_restrict(dist: ExactDistribution, assignment) -> ExactDistribution:
    """The rows that match ``assignment``, by a per-row ``all(...)`` filter,
    as a copy: the stratum the exact queries match as they read."""
    if not assignment:
        return dist
    idx = [(dist.column(k), v) for k, v in assignment.items()]
    kept = [(vals, w) for vals, w in dist.rows if all(vals[i] == v for i, v in idx)]
    return ExactDistribution(dist.columns, kept, dist.scale)


def reference_restricted_covariance(dist: ExactDistribution, x: str, y: str, given=None) -> Fraction:
    """Cov(x, y | given) summed over a ``reference_restrict`` copy: the
    reference for the single-pass ``oracle.conditional_covariance``."""
    sub = reference_restrict(dist, given or {})
    ix, iy = sub.column(x), sub.column(y)
    m = sx = sy = sxy = 0
    for vals, w in sub.rows:
        m += w
        sx += vals[ix] * w
        sy += vals[iy] * w
        sxy += vals[ix] * vals[iy] * w
    if m == 0:
        raise ConditioningError(f"conditioning event {dict(given or {})} has probability 0")
    return Fraction(sxy * m - sx * sy, m * m)


def reference_tally_independent(dist: ExactDistribution, x, y, z=(), stratum=None) -> bool:
    """The three-getter tally, one (z, x, y) cell tuple per row, over the
    ``all(...)`` filter: the reference for ``oracle.conditional_independent``."""
    base = reference_restrict(dist, stratum or {})
    kz = _row_key([base.column(c) for c in z])
    kx = _row_key([base.column(c) for c in _as_names(x)])
    ky = _row_key([base.column(c) for c in _as_names(y)])
    cells: dict[tuple, int] = {}
    for vals, w in base.rows:
        cell = (kz(vals), kx(vals), ky(vals))
        cells[cell] = cells.get(cell, 0) + w
    mass: dict[object, int] = {}
    mx: dict[tuple, int] = {}
    my: dict[tuple, int] = {}
    for (vz, vx, vy), w in cells.items():
        mass[vz] = mass.get(vz, 0) + w
        mx[vz, vx] = mx.get((vz, vx), 0) + w
        my[vz, vy] = my.get((vz, vy), 0) + w
    ys_of: dict[object, list] = {}
    for vz, vy in my:
        ys_of.setdefault(vz, []).append(vy)
    for (vz, vx), wx in mx.items():
        for vy in ys_of[vz]:
            if cells.get((vz, vx, vy), 0) * mass[vz] != wx * my[vz, vy]:
                return False
    return True


def reference_admits(asserted, dist: ExactDistribution) -> bool:
    """An independence pass beside a covariance pass: the reference for
    ``covsign.AssertedFacts.admits``, which reads both off one covariance per pair."""
    return all(conditional_independent(dist, x, y) for x, y in asserted.independent) and all(
        fact.holds(conditional_covariance(dist, x, y)) for (x, y), fact in asserted.cov.items()
    )


def reference_q_independent(g: Dag, q) -> bool:
    """No directed path and no shared ancestor between two members of ``q``:
    the reference for the ``q_mutually_independent`` transfer premise."""
    return not any(
        a in g.ancestors(b) or b in g.ancestors(a) or g.ancestors(a) & g.ancestors(b)
        for a, b in combinations(q, 2)
    )


def random_fraction(rng: random.Random, max_den: int = 8) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


# -- structures for the two-parent covariance rule set -----------------------

def _pair_graph(correlated: bool) -> Dag:
    if correlated:
        return Dag(["C", "E1", "E2", "D"], [("C", "E1"), ("C", "E2"), ("E1", "D"), ("E2", "D")])
    return Dag(["E1", "E2", "D"], [("E1", "D"), ("E2", "D")])


def _pair_structure(rng: random.Random, kind: str, d_table: ResponseTable) -> Scm:
    """kind: 'ind' (independent roots), 'same' or 'opp' (common cause)."""
    if kind == "ind":
        g = _pair_graph(False)
        return Scm(g, {
            "E1": ResponseTable.bernoulli("E1", random_fraction(rng)),
            "E2": ResponseTable.bernoulli("E2", random_fraction(rng)),
            "D": d_table,
        })
    g = _pair_graph(True)
    # child rows over one parent C: 0 const0, 2 nondecreasing, 1 nonincreasing, 3 const1
    up_rows = (0, 2, 3)
    down_rows = (0, 1, 3)
    def child(name: str, rows: tuple[int, ...]) -> ResponseTable:
        k = rng.randint(1, 3)
        chosen = tuple(rng.sample(rows, k))
        weights = [rng.randint(1, 8) for _ in chosen]
        total = sum(weights)
        return ResponseTable(name, ("C",), chosen, tuple(Fraction(w, total) for w in weights))
    e2_rows = up_rows if kind == "same" else down_rows
    return Scm(g, {
        "C": ResponseTable.bernoulli("C", random_fraction(rng)),
        "E1": child("E1", up_rows),
        "E2": child("E2", e2_rows),
        "D": d_table,
    })


def _random_pair_table(rng: random.Random, pool: tuple[int, ...]) -> ResponseTable:
    k = rng.randint(1, min(3, len(pool)))
    rows = tuple(rng.sample(pool, k))
    weights = [rng.randint(1, 8) for _ in rows]
    total = sum(weights)
    return ResponseTable("D", ("E1", "E2"), rows, tuple(Fraction(w, total) for w in weights))


def _product_pair_table(rng: random.Random, with_background: bool) -> ResponseTable:
    """D = (u1 and E1) or (u2 and E2) [or u0], with independent latent bits.

    Gives exactly independent co-cause events for the single-cause slots.
    """
    p = random_fraction(rng)
    q = random_fraction(rng)
    rows = [ROW_CONST0, ROW_E1, ROW_E2, ROW_OR]
    probs = [(1 - p) * (1 - q), p * (1 - q), (1 - p) * q, p * q]
    if with_background:
        r = random_fraction(rng)
        rows.append(ROW_CONST1)
        probs = [x * (1 - r) for x in probs] + [r]
    return ResponseTable("D", ("E1", "E2"), tuple(rows), tuple(probs))


CASE_RULES = (
    "no_background_d1",
    "no_background_d0",
    "lone_cause_certain_d1",
    "lone_cause_certain_d0",
    "lone_cause_absent_d1",
    "lone_cause_absent_d0",
    "no_synergy_d1",
    "no_synergy_d0",
)


def _case_candidate(rng: random.Random, rule: str) -> Scm:
    no_bg = (ROW_CONST0, ROW_AND, ROW_E1, ROW_E2, ROW_OR)
    certain = (ROW_E1, ROW_OR, ROW_CONST1)
    absent = (ROW_CONST0, ROW_AND, ROW_E2, ROW_CONST1)
    no_syn = (ROW_CONST0, ROW_E1, ROW_E2, ROW_OR, ROW_CONST1)
    if rule == "no_background_d1":
        return _pair_structure(rng, rng.choice(["ind", "same", "opp"]), _random_pair_table(rng, no_bg))
    if rule == "no_background_d0":
        which = rng.choice(["product", "a1_empty", "a2_empty", "a1_one"])
        if which == "product":
            table = _product_pair_table(rng, with_background=False)
        elif which == "a1_empty":
            table = _random_pair_table(rng, (ROW_CONST0, ROW_AND, ROW_E2))
        elif which == "a2_empty":
            table = _random_pair_table(rng, (ROW_CONST0, ROW_AND, ROW_E1))
        else:
            table = _random_pair_table(rng, (ROW_E1, ROW_OR))
        return _pair_structure(rng, "ind", table)
    if rule == "lone_cause_certain_d1":
        return _pair_structure(rng, rng.choice(["ind", "opp"]), _random_pair_table(rng, certain))
    if rule == "lone_cause_certain_d0":
        return _pair_structure(rng, rng.choice(["ind", "same", "opp"]), _random_pair_table(rng, certain))
    if rule == "lone_cause_absent_d1":
        return _pair_structure(rng, rng.choice(["ind", "same"]), _random_pair_table(rng, absent))
    if rule == "lone_cause_absent_d0":
        # the zero-stratum rule carries an independence premise
        return _pair_structure(rng, "ind", _random_pair_table(rng, absent))
    if rule == "no_synergy_d1":
        return _pair_structure(rng, rng.choice(["ind", "opp"]), _random_pair_table(rng, no_syn))
    if rule == "no_synergy_d0":
        which = rng.choice(["product", "a1_one", "a2_one", "a1_empty", "a2_empty"])
        table = {
            "product": lambda: _product_pair_table(rng, with_background=False),
            "a1_one": lambda: _random_pair_table(rng, (ROW_E1, ROW_OR, ROW_CONST1)),
            "a2_one": lambda: _random_pair_table(rng, (ROW_E2, ROW_OR, ROW_CONST1)),
            "a1_empty": lambda: _random_pair_table(rng, (ROW_CONST0, ROW_E2, ROW_CONST1)),
            "a2_empty": lambda: _random_pair_table(rng, (ROW_CONST0, ROW_E1, ROW_CONST1)),
        }[which]()
        return _pair_structure(rng, "ind", table)
    raise ValueError(rule)


def _case_premises_hold(rule: str, facts: RepFacts) -> bool:
    if rule == "no_background_d1":
        return facts.a0 is Flag.ZERO
    if rule == "no_background_d0":
        return facts.a0 is Flag.ZERO and facts.a1_a2_indep and facts.e_indep
    if rule == "lone_cause_certain_d1":
        return (facts.a1 is Flag.ONE or facts.a2 is Flag.ONE) and facts.e_cov.implies(Relation.LE0)
    if rule == "lone_cause_certain_d0":
        return facts.a1 is Flag.ONE or facts.a2 is Flag.ONE
    if rule == "lone_cause_absent_d1":
        return (facts.a1 is Flag.ZERO or facts.a2 is Flag.ZERO) and facts.e_cov.implies(Relation.GE0)
    if rule == "lone_cause_absent_d0":
        return (
            (facts.a1 is Flag.ZERO or facts.a2 is Flag.ZERO)
            and facts.e_cov.implies(Relation.GE0) and facts.e_indep
        )
    if rule == "no_synergy_d1":
        return facts.a3 is Flag.ZERO and facts.e_cov.implies(Relation.LE0)
    if rule == "no_synergy_d0":
        return (
            facts.a3 is Flag.ZERO and facts.a1_a2_indep and facts.e_indep
            and (facts.a0_a1_indep or facts.a0_a2_indep)
        )
    raise ValueError(rule)


def case_instances(rule: str, count: int, seed: int):
    """Yield ``count`` models whose oracle-established facts satisfy the case.

    Each yielded pair is (scm, facts); the joint distribution is guaranteed
    to put positive mass on both strata of D.
    """
    from suffcause import joint_distribution
    from suffcause.oracle import ConditioningError

    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > count * 400:
            raise RuntimeError(f"could not build {count} instances for {rule}")
        scm = _case_candidate(rng, rule)
        facts = facts_from_scm(scm, "D", "E1", "E2")
        if not _case_premises_hold(rule, facts):
            continue
        dist = joint_distribution(scm)
        try:
            conditional_covariance(dist, "E1", "E2", {"D": 1})
            conditional_covariance(dist, "E1", "E2", {"D": 0})
        except ConditioningError:
            continue
        produced += 1
        yield scm, facts


# -- the exact grid of two-parent models --------------------------------------

GRID_GRAPH = Dag(["E1", "E2", "D"], [("E1", "E2"), ("E1", "D"), ("E2", "D")])


def grid_target_tables():
    """D's tables over (E1, E2): every set of 1-3 of the monotone rows, under
    every weight vector over {1, 2, 3} up to scale."""
    for k in (1, 2, 3):
        for rows in combinations(MONOTONE_PAIR_ROWS, k):
            for w in product((1, 2, 3), repeat=k):
                if gcd(*w) == 1:
                    yield ResponseTable("D", ("E1", "E2"), rows, tuple(Fraction(x, sum(w)) for x in w))


def grid_parent_tables(denominator: int):
    """E1 and E2 (with E1 -> E2), one pair of tables per joint whose four
    cells are multiples of 1/``denominator``.

    E2 answers each value of E1 independently; a value of E1 with no mass
    leaves E2 constant 0 there.
    """
    n = denominator
    for c00, c01, c10 in product(range(n + 1), repeat=3):  # cell (e1, e2) as c<e1><e2>
        c11 = n - c00 - c01 - c10
        if c11 < 0:
            continue
        q0 = Fraction(c01, c00 + c01) if c00 + c01 else Fraction(0)
        q1 = Fraction(c11, c10 + c11) if c10 + c11 else Fraction(0)
        # bit e of an E2 row is E2's value when E1 = e
        cells = [(row, (q0 if row & 1 else 1 - q0) * (q1 if row & 2 else 1 - q1)) for row in range(4)]
        rows, probs = zip(*((row, p) for row, p in cells if p))
        yield ResponseTable.bernoulli("E1", Fraction(c10 + c11, n)), ResponseTable("E2", ("E1",), rows, probs)


def grid_models(denominator: int = 2, negative: tuple[bool, bool] = (False, False)):
    """Every grid model: each parent joint with each target table, the target
    complemented in each parent that ``negative`` marks."""
    targets = list(grid_target_tables())
    for parent, neg in zip(("E1", "E2"), negative):
        if neg:
            targets = [complement_parent(t, parent) for t in targets]
    for e1, e2 in grid_parent_tables(denominator):
        for d in targets:
            yield Scm(GRID_GRAPH, {"E1": e1, "E2": e2, "D": d})
