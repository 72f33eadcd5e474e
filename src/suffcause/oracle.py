"""Exact ground truth and seeded random model generation.

Queries read the support rows of ``scm.joint_distribution``, whose masses
are integer weights on one common scale: conditional covariances sum
weights and divide once, and conditional independence cross-multiplies
weights, so the scale cancels. Each query reads every row once, matching
its stratum as it reads (``_stratum_key``). Nothing is rounded and no
tolerance enters covariances, conditional independence or claim
verification. The generator draws each node monotone along its signed
in-edges: a row that falls (rises) as a "+" ("-") parent turns on is never
drawn, and a node's row filter (a predicate on the drawn row set, such as
asserted representation flags) rejects the rows before any probability is
drawn, so the accepted tables keep the unconstrained distribution
conditioned on the filter. A ``DrawPlan`` holds only what the seed does not
decide, closing steps with their masks included, worked out once; the drawn
integer weights go straight into each table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .graph import Dag, _as_names
from .scm import ExactDistribution, ResponseTable, Scm, _monotone_close, _monotone_step, _parent_mask, _row_key
from .signs import Relation

if TYPE_CHECKING:  # pragma: no cover
    from .covsign import CovQuantity, SignConclusion


class ConditioningError(ValueError):
    """Conditioning event has zero probability."""


class GenerationError(RuntimeError):
    """The constrained generator ran out of attempts on ``node``."""

    def __init__(self, node: str, reason: str):
        super().__init__(f"{node}: {reason}")
        self.node = node


def _stratum_key(dist: ExactDistribution, assignment: Mapping[str, int]) -> tuple[Callable, object]:
    """``(key, want)``: a row of ``dist`` matches ``assignment`` exactly when ``key(vals) == want``."""
    key = _row_key([dist.column(k) for k in assignment])
    return key, _row_key(range(len(assignment)))(tuple(assignment.values()))


def conditional_covariance(
    dist: ExactDistribution, x: str, y: str, given: Mapping[str, int] | None = None
) -> Fraction:
    """Exact Cov(x, y | given): E[xy] - E[x]E[y] on the rows that match ``given``.

    With integer weight sums M, Sx, Sy and Sxy over the matching rows this
    is (Sxy M - Sx Sy) / M^2, in which the distribution's scale cancels. The
    rows are read once, each matched against ``given`` as it is read.
    """
    given = given or {}
    key, want = _stratum_key(dist, given)
    ix, iy = dist.column(x), dist.column(y)
    m = sx = sy = sxy = 0
    for vals, w in dist.rows:
        if given and key(vals) != want:
            continue
        a, b = vals[ix], vals[iy]
        m += w
        sx += a * w
        sy += b * w
        sxy += a * b * w
    if m == 0:
        raise ConditioningError(f"conditioning event {dict(given)} has probability 0")
    return Fraction(sxy * m - sx * sy, m * m)


def conditional_independent(
    dist: ExactDistribution,
    x: str | Iterable[str],
    y: str | Iterable[str],
    z: Iterable[str] = (),
    stratum: Mapping[str, int] | None = None,
) -> bool:
    """Exact factorization check of x against y given z.

    The check runs inside every positive-probability assignment of ``z``
    among the rows that match ``stratum``, each matched as it is read;
    zero-probability strata are skipped by construction. Inside a stratum
    of weight M it asks W(x, y) M == W(x) W(y) of the integer cell weights
    for every pair of values seen; both sides carry the scale squared.
    """
    rows = dist.rows
    if stratum:
        match, want = _stratum_key(dist, stratum)
        rows = (row for row in rows if match(row[0]) == want)
    cz = [dist.column(c) for c in z]
    cx = [dist.column(c) for c in _as_names(x)]
    cy = [dist.column(c) for c in _as_names(y)]
    if not cx or not cy:
        return True
    # one read per row; with x and y non-empty the key is a tuple z + x + y
    key = _row_key(cz + cx + cy)
    cells: dict[tuple, int] = {}
    for vals, w in rows:
        k = key(vals)
        cells[k] = cells.get(k, 0) + w

    nz, nzx = len(cz), len(cz) + len(cx)
    mass: dict[tuple, int] = {}
    mx: dict[tuple, int] = {}
    my: dict[tuple, int] = {}
    for k, w in cells.items():
        vz, vx, vy = k[:nz], k[nz:nzx], k[nzx:]
        mass[vz] = mass.get(vz, 0) + w
        mx[vz, vx] = mx.get((vz, vx), 0) + w
        my[vz, vy] = my.get((vz, vy), 0) + w
    ys_of: dict[tuple, list] = {}
    for vz, vy in my:
        ys_of.setdefault(vz, []).append(vy)
    for (vz, vx), wx in mx.items():
        for vy in ys_of[vz]:
            if cells.get(vz + vx + vy, 0) * mass[vz] != wx * my[vz, vy]:
                return False
    return True


def _quantity_covariance(dist: ExactDistribution, q: "CovQuantity", known: dict) -> Fraction:
    cov = known.get(q)
    if cov is None:
        cov = known[q] = conditional_covariance(dist, q.x, q.y, {q.given: q.stratum})
    return cov


def verify_claim(
    dist: ExactDistribution, claim: "SignConclusion", known: "dict[CovQuantity, Fraction] | None" = None
) -> bool:
    """Exact check of one covariance-sign conclusion against a distribution.

    Sign-equality claims hold in the transfer sense: the outer covariance is
    a nonnegative multiple of the inner one, so a strictly signed inner
    forces the weak inequality and an exactly-zero inner forces exact zero.
    ``known`` maps quantities to their covariances on ``dist``; the call
    reads it first and adds what it computes, so claims checked on one
    distribution with one ``known`` compute each distinct quantity once.
    """
    if known is None:
        known = {}
    cov = _quantity_covariance(dist, claim.quantity, known)
    relation = claim.relation
    if relation is Relation.SIGN_EQUALS:
        if claim.other is None:
            raise ValueError("sign-equality claim without a reference quantity")
        relation = Relation.of_value(_quantity_covariance(dist, claim.other, known))
    return relation.holds(cov)


def _sign_steps(signs: tuple[str | None, ...]) -> tuple[tuple[int, int, str], ...]:
    """Each signed parent's monotone step as (mask, bit, sign): the parent
    at ``bit`` and ``mask``, its ``_parent_mask`` over the configurations."""
    n_configs = 1 << len(signs)
    return tuple([(_parent_mask(n_configs, 1 << i), 1 << i, s) for i, s in enumerate(signs) if s])


@lru_cache(maxsize=1024)
def _candidate_rows(signs: tuple[str | None, ...]) -> tuple[int, ...] | None:
    """Every row monotone along each signed in-edge (never empty: both
    constant rows are), or None over more than three parents. ``signs`` are
    the in-edge labels in parent order, None where unsigned. Cached: every
    draw plan asks again for each of its nodes."""
    if len(signs) > 3:
        return None
    steps = _sign_steps(signs)
    return tuple(r for r in range(1 << (1 << len(signs))) if not any(_monotone_step(r, *step) for step in steps))


class DrawPlan:
    """What ``random_instance`` reads that the seed does not decide, and only that.

    Build it once with ``draw_plan`` and draw from it at many seeds; a draw
    writes nothing to it. ``nodes`` maps each node, in declaration order, to
    (parents, candidates, closing, low, high, keep): ``candidates`` are the
    rows to sample, or None over more than three parents, where each row
    closes random bits along the (mask, bit, sign) steps ``closing``, so a
    draw builds no mask; ``low`` and ``high`` bound the number of rows (the
    states range, capped at the candidates' count); ``keep`` is the row
    filter or None, asked on every drawn row set.
    """

    __slots__ = ("graph", "nodes", "max_weight")

    def __init__(self, graph: Dag, nodes: Mapping[str, tuple], max_weight: int):
        self.graph, self.nodes, self.max_weight = graph, nodes, max_weight


def draw_plan(
    g: Dag,
    *,
    row_filter: Mapping[str, Callable[[tuple[int, ...]], bool]] | None = None,
    states: tuple[int, int] = (1, 3),
    max_weight: int = 8,
) -> DrawPlan:
    """The plan of what a draw on ``g`` reads that the seed does not decide.

    That is each node's parents, candidate rows (or closing steps above
    three parents), row-count bounds and row filter. ``row_filter`` maps a
    node to a pure predicate on its drawn rows (distinct row values in draw
    order) that must hold for the table to be kept, such as "this canonical
    term is absent"; ``states`` bounds the number of rows a node draws and
    ``max_weight`` the integer weight of each. A bad range raises
    ``ValueError``.
    """
    lo, hi = states
    if not 1 <= lo <= hi:
        raise ValueError(f"states range {states} needs 1 <= low <= high")
    if max_weight < 1:
        raise ValueError(f"max_weight must be at least 1, got {max_weight}")
    row_filter = row_filter or {}
    nodes = {}
    for node in g.nodes:
        parents = g.parents(node)
        signs = tuple([g.signs.get((p, node)) for p in parents])
        candidates = _candidate_rows(signs)
        if candidates is None:
            low, high = lo, hi
        else:
            low, high = min(lo, len(candidates)), min(hi, len(candidates))
        nodes[node] = (parents, candidates, _sign_steps(signs), low, high, row_filter.get(node))
    return DrawPlan(g, nodes, max_weight)


# row sets a node may draw before the generator gives up on it
_MAX_TRIES = 500


def random_instance(plan: DrawPlan, seed: int) -> Scm:
    """Draw one model from ``plan``, deterministically per seed.

    Each node draws a set of distinct rows, each monotone along every
    signed in-edge of the plan's graph in that edge's direction: the signs
    of the graph constrain the draw by themselves. A node with a row filter
    redraws its rows until the filter accepts them, before any weight is
    drawn, so a node without one consumes exactly the random numbers it
    always did. Each row then draws an integer weight in 1..max_weight, and
    a state's probability is its weight over their sum. Raises
    ``GenerationError`` naming the node after ``_MAX_TRIES`` rejected row
    sets.
    """
    rng = random.Random(seed)
    randint, sample, getrandbits = rng.randint, rng.sample, rng.getrandbits
    max_weight = plan.max_weight
    tables: dict[str, ResponseTable] = {}
    for node, (parents, candidates, closing, low, high, keep) in plan.nodes.items():
        for _ in range(_MAX_TRIES):
            if candidates is not None:
                rows = tuple(sample(candidates, randint(low, high)))
            else:
                n_configs = 1 << len(parents)
                picked: list[int] = []
                for _ in range(50):
                    row = _monotone_close(getrandbits(n_configs), closing)
                    if row not in picked:
                        picked.append(row)
                    if len(picked) >= randint(low, high):
                        break
                rows = tuple(picked)
            if keep is not None and not keep(rows):
                continue
            weights = [randint(1, max_weight) for _ in rows]
            tables[node] = ResponseTable.from_weights(node, parents, rows, weights)
            break
        else:
            raise GenerationError(node, f"no acceptable table after {_MAX_TRIES} tries")
    return Scm(plan.graph, tables)


def admissible_row_sets(plan: DrawPlan, node: str) -> list[tuple[int, ...]]:
    """Every row set ``random_instance`` can keep for ``node`` under ``plan``.

    These are the sets of distinct candidate rows whose size the states
    range allows and that pass the node's row filter. The candidate rows
    must be enumerable: at most three parents. Sets come by size, then in
    lexicographic order of their sorted rows.
    """
    parents, candidates, _, low, high, keep = plan.nodes[node]
    if candidates is None:
        raise ValueError(f"{node}: rows over {len(parents)} parents are drawn, not enumerated")
    keep = keep or (lambda rows: True)
    ordered = sorted(candidates)
    return [rows for k in range(low, high + 1) for rows in combinations(ordered, k) if keep(rows)]
