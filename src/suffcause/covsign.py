"""Sign inference for conditional covariances.

The core rule set covers a binary node D with exactly two positively
monotone parents and a representation D = A0 v A1*E1 v A2*E2 v A3*E1*E2:
knowing which co-causes are degenerate (identically zero or one), which
pieces are independent, and the sign of the marginal Cov(E1, E2) yields
stratum-specific sign conclusions for Cov(E1, E2 | D). Transfer rules then
push such a conclusion outward to proxies F and G of the two parents when
the graph separates them strongly enough. Every emitted conclusion carries
its full premise list and is designed to be re-checked by the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from . import oracle
from .graph import Dag, common_causes, d_separated, path_signs
from .modelfile import Assertion, Model
from .scm import (
    DEFAULT_WORLD_BUDGET,
    ExactDistribution,
    ResponseTable,
    Scm,
    dedupe_states,
    joint_distribution,
)
from .signs import (
    Relation, Sign, detect_monotonic_effect, monotonically_associated, sign_agreement
)


class Flag(Enum):
    ZERO = "zero"
    ONE = "one"
    NEITHER = "neither"


@dataclass(frozen=True)
class CovQuantity:
    """A conditional covariance: Cov(x, y | given=stratum)."""

    x: str
    y: str
    given: str
    stratum: int

    def render(self) -> str:
        return f"Cov({self.x},{self.y} | {self.given}={self.stratum})"


@dataclass(frozen=True)
class SignConclusion:
    """One emitted claim with its rule identifier and premise provenance."""

    quantity: CovQuantity
    relation: Relation
    rule: str
    premises: tuple[str, ...]
    other: CovQuantity | None = None

    def key(self) -> str:
        """The claim with its rule, as oracle-check reports it."""
        return f"{self.quantity.render()} {self.relation.value} [{self.rule}]"


FACT_FIELDS = ("a0", "a1", "a2", "a3", "e_indep", "a1_a2_indep", "a0_a1_indep", "a0_a2_indep", "e_cov")


@dataclass(frozen=True)
class RepFacts:
    """Established facts about a two-parent representation of ``target``.

    Boolean fields mean "established", not merely "not known false"; the
    ``sources`` map records how each fact was established (oracle,
    structural, or assertion). ``negative`` marks the parents whose effect
    is negative: the facts are stated in the frame where those parents are
    complemented.
    """

    target: str
    e1: str
    e2: str
    negative: tuple[bool, bool] = (False, False)
    a0: Flag = Flag.NEITHER
    a1: Flag = Flag.NEITHER
    a2: Flag = Flag.NEITHER
    a3: Flag = Flag.NEITHER
    e_indep: bool = False
    a1_a2_indep: bool = False
    a0_a1_indep: bool = False
    a0_a2_indep: bool = False
    e_cov: Relation = Relation.UNKNOWN
    sources: Mapping[str, str] = field(default_factory=dict)

    def source(self, fact: str) -> str:
        return self.sources.get(fact, "assertion")

    def describe(self, fact: str) -> str:
        """The fact as a premise: its value and how it was established."""
        value = getattr(self, fact)
        value = value.value if isinstance(value, Enum) else str(value).lower()
        return f"{fact}={value} ({self.source(fact)})"


# (index of e1 among the parents, polarity) -> each two-parent row's frame row, whose bit
# a + 2*b is the row's value at (e1, e2) = (a, b) once each negative parent is complemented
_FRAME = {
    (i, neg): tuple(
        sum((row >> ((a ^ neg[0]) << i | (b ^ neg[1]) << (1 - i)) & 1) << (a + 2 * b) for a in (0, 1) for b in (0, 1))
        for row in range(16)
    )
    for i in (0, 1) for neg in product((False, True), repeat=2)
}
# the six monotone frame rows (1, E1, E2, E1 v E2, E1*E2, 0) -> the slots whose conjunction is one of its primes
_PRIMES = {15: ("a0",), 10: ("a1",), 12: ("a2",), 14: ("a1", "a2"), 8: ("a3",), 0: ()}
# slot -> the configurations where its conjunction (1, E1, E2, E1*E2) holds
_HOLDS = {"a0": 15, "a1": 10, "a2": 12, "a3": 8}


def _table_slots(
    node: str, parents: tuple[str, ...], rows: Iterable[int], e1: str, e2: str, negative: tuple[bool, bool]
) -> dict[str, frozenset[int] | None]:
    """The slots a0..a3 of D = A0 v A1*E1 v A2*E2 v A3*E1*E2, each negative parent complemented.

    A slot is the set of rows of which its conjunction is a prime implicant; when the
    conjunction implies every row, it is None if it is a prime of the rows' meet and empty
    otherwise. A row that is not one of the frame's six monotone functions raises ``ValueError``.
    """
    frame = _FRAME[parents.index(e1), negative]
    frames = {row: frame[row] for row in rows}
    bad = sorted(row for row, f in frames.items() if f not in _PRIMES)
    if bad:
        names = ", ".join(("~" if neg else "") + p for p, neg in zip((e1, e2), negative))
        raise ValueError(f"{node}: row {bad[0]} fits no slot of the ({names}) frame; "
                         "the two-parent rule set needs monotone effects")
    meet = reduce(int.__and__, frames.values())
    return {
        slot: (None if slot in _PRIMES[meet] else frozenset()) if meet & holds == holds
        else frozenset(row for row, f in frames.items() if slot in _PRIMES[f])
        for slot, holds in _HOLDS.items()
    }


def _row_mass(table: ResponseTable) -> dict[int, int]:
    """Each distinct row of the table with its summed integer weight."""
    table = dedupe_states(table)
    return dict(zip(table.rows, table.weights))


def _flag(states: frozenset[int] | None) -> Flag:
    if states is None:
        return Flag.ONE
    if not states:
        return Flag.ZERO
    return Flag.NEITHER


def _sets_independent(a: frozenset[int] | None, b: frozenset[int] | None, mass: Mapping[int, int]) -> bool:
    """Whether two co-cause events are independent; ``mass`` maps each row to its integer weight.

    With the weights' sum as the scale, P(a)P(b) = P(ab) reads
    ``pab * scale == pa * pb``.
    """
    universe = frozenset(mass)
    sa = universe if a is None else a
    sb = universe if b is None else b
    pa = sum(mass[i] for i in sa)
    pb = sum(mass[i] for i in sb)
    pab = sum(mass[i] for i in sa & sb)
    return pab * sum(mass.values()) == pa * pb


def facts_from_scm(
    model: Scm,
    d: str,
    e1: str,
    e2: str,
    negative: tuple[bool, bool] = (False, False),
    dist: ExactDistribution | None = None,
) -> RepFacts:
    """Establish representation facts exactly from a fully specified model.

    ``negative`` marks parents whose monotone effect is negative; the facts
    are computed, and kept, in the frame where those parents are complemented,
    and a target that is not monotone there raises ``ValueError``. ``dist`` is
    the model's joint distribution when the caller holds it; else it is built.
    Binary parents are independent exactly when their covariance is 0, so
    ``e_indep`` and ``e_cov`` read one covariance."""
    parents = model.graph.parents(d)
    if set(parents) != {e1, e2} or len(parents) != 2:
        raise ValueError(
            f"{d} must have exactly the parents {{{e1}, {e2}}} (marginalize other parents first); "
            f"got {parents}"
        )
    table = model.tables[d]
    slots = _table_slots(d, parents, table.rows, e1, e2, negative)
    mass = _row_mass(table)
    if dist is None:
        dist = joint_distribution(model)
    cov = oracle.conditional_covariance(dist, e1, e2)
    e_cov = Relation.of_value(-cov if sum(negative) % 2 else cov)
    return RepFacts(
        target=d,
        e1=e1,
        e2=e2,
        negative=negative,
        **{slot: _flag(states) for slot, states in slots.items()},
        e_indep=cov == 0,
        a1_a2_indep=_sets_independent(slots["a1"], slots["a2"], mass),
        a0_a1_indep=_sets_independent(slots["a0"], slots["a1"], mass),
        a0_a2_indep=_sets_independent(slots["a0"], slots["a2"], mass),
        e_cov=e_cov,
        sources=dict.fromkeys(FACT_FIELDS, "oracle"),
    )


_SWAPPED_SLOT = {"a0": "a0", "a1": "a2", "a2": "a1", "a3": "a3"}
_SLOT_INDEP = ("a1_a2_indep", "a0_a1_indep", "a0_a2_indep")


def _pair_key(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class AssertedFacts:
    """A model's assertions, read once for a target and its parent pair.

    Slots speak about the (e1, e2) frame, with each parent that ``negative``
    marks complemented: an assertion naming the pair reversed lands in the
    swapped slot, and a flag or co-cause assertion about another target or
    pair is left out. ``flags`` holds one flag per slot: two different flags
    on one slot raise ``ValueError``. ``independent`` and ``cov`` cover every
    pair of the model, keyed by the sorted pair; a cov-sign claim repeated on
    one pair keeps the meet of its relations, so "<=0" with ">=0" reads "=0".

    The target's slots come from ``_table_slots``, the one read-off that the
    generator's row filter and the facts share; it reads them off the row
    set in a few table lookups, so nothing is kept between calls. A draw asks
    each question once: the plan's row filter ``admits_rows`` the flags,
    ``cocauses_independent`` the co-cause independences, ``admits`` the rest.
    """

    target: str
    e1: str
    e2: str
    flags: Mapping[str, Flag]
    cocause_indep: tuple[tuple[str, str], ...]
    independent: tuple[tuple[str, str], ...]
    cov: Mapping[tuple[str, str], Relation]
    negative: tuple[bool, bool] = (False, False)

    def cov_of(self, x: str, y: str) -> Relation | None:
        return self.cov.get(_pair_key(x, y))

    def admits_rows(self, rows: Sequence[int]) -> bool:
        """Whether a target table with these rows over (e1, e2) carries every asserted flag."""
        slots = _table_slots(self.target, (self.e1, self.e2), rows, self.e1, self.e2, self.negative)
        return all(_flag(slots[slot]) is flag for slot, flag in self.flags.items())

    def cocauses_independent(self, table: ResponseTable) -> bool:
        """Whether the target's table meets every asserted co-cause independence."""
        if not self.cocause_indep:
            return True
        slots = _table_slots(self.target, table.parents, table.rows, self.e1, self.e2, self.negative)
        mass = _row_mass(table)
        return all(_sets_independent(slots[a], slots[b], mass) for a, b in self.cocause_indep)

    def admits(self, dist: ExactDistribution) -> bool:
        """Whether the joint ``dist`` meets every asserted covariance sign and independence, one
        covariance per distinct pair: binary nodes are independent exactly when it is 0."""
        # every cov-sign relation allows 0, so a pair also asserted independent needs "=0" alone
        facts = {**self.cov, **dict.fromkeys(self.independent, Relation.EQ0)}
        return all(fact.holds(oracle.conditional_covariance(dist, *pair)) for pair, fact in facts.items())


def read_assertions(
    assertions: Iterable[Assertion], d: str, e1: str, e2: str, negative: tuple[bool, bool] = (False, False)
) -> AssertedFacts:
    """Normalize a model's assertions for target ``d`` with parents (e1, e2) of polarity ``negative``."""

    def slot(x: str, y: str, name: str) -> str | None:
        if (x, y) == (e1, e2):
            return name
        return _SWAPPED_SLOT[name] if (x, y) == (e2, e1) else None

    flags: dict[str, Flag] = {}
    cocause: dict[tuple[str, str], None] = {}
    independent: dict[tuple[str, str], None] = {}
    cov: dict[tuple[str, str], Relation] = {}
    for a in assertions:
        if a.kind in ("no-synergism", "rep-flag") and a.args[0] == d:
            s = slot(a.args[1], a.args[2], "a3" if a.kind == "no-synergism" else a.args[3])
            flag = Flag.ZERO if a.kind == "no-synergism" else Flag(a.args[4])
            if s is not None and flags.setdefault(s, flag) is not flag:
                raise ValueError(
                    f"contradictory assertions on {d}: slot {s} of ({e1}, {e2}) "
                    f"is asserted both {flags[s].value} and {flag.value}"
                )
        elif a.kind == "cocause-independent" and a.args[0] == d:
            s1, s2 = slot(a.args[1], a.args[2], a.args[3]), slot(a.args[1], a.args[2], a.args[4])
            if s1 is not None and s2 is not None:
                cocause[(s1, s2)] = None
        elif a.kind == "independent":
            independent[_pair_key(a.args[0], a.args[1])] = None
        elif a.kind == "cov-sign":
            key = _pair_key(a.args[0], a.args[1])
            cov[key] = cov.get(key, Relation.UNKNOWN).meet(Relation(a.args[2]))
    return AssertedFacts(d, e1, e2, flags, tuple(cocause), tuple(independent), cov, negative)


def _facts_from_assertions(graph: Dag, asserted: AssertedFacts) -> RepFacts:
    """Representation facts from assertions, completed from the signed graph.

    Parent independence falls back to d-separation and the sign of
    Cov(e1, e2) to monotone association, and independent parents give it
    "=0"; like ``facts_from_scm``, the facts speak about the frame where
    the assertions' negative parents are complemented.
    """
    e1, e2, negative = asserted.e1, asserted.e2, asserted.negative
    sources = dict.fromkeys(asserted.flags, "assertion")
    indep = dict.fromkeys(("e_indep",) + _SLOT_INDEP, False)
    if _pair_key(e1, e2) in asserted.independent:
        indep["e_indep"] = True
    for pair in asserted.cocause_indep:
        key = "_".join(sorted(pair)) + "_indep"
        if key in _SLOT_INDEP:
            indep[key] = True
    sources.update((k, "assertion") for k, v in indep.items() if v)
    if not indep["e_indep"] and d_separated(graph, e1, e2):
        indep["e_indep"] = True
        sources["e_indep"] = "structural"
    e_cov = asserted.cov_of(e1, e2)
    if e_cov is not None:
        sources["e_cov"] = "assertion"
    else:
        e_cov = Relation.of_association(monotonically_associated(graph, e1, e2))
        if e_cov is not Relation.UNKNOWN:
            sources["e_cov"] = "structural"
    if indep["e_indep"] and not e_cov.implies(Relation.EQ0):
        # independent parents have zero covariance; a d-separated pair
        # already reads "=0" off the graph unless a cov-sign was asserted
        e_cov = e_cov.meet(Relation.EQ0)
        sources["e_cov"] = "assertion"
    return RepFacts(
        target=asserted.target, e1=e1, e2=e2, negative=negative,
        **{slot: asserted.flags.get(slot, Flag.NEITHER) for slot in ("a0", "a1", "a2", "a3")},
        **indep,
        e_cov=e_cov.flipped() if sum(negative) % 2 else e_cov,
        sources=sources,
    )


# The pair rules in emission order: (rule, stratum of the target, relation,
# premises). A premise maps facts to values and holds through its first fact
# that has its value (a ``Relation`` fact must imply it); that fact's
# description joins the conclusion's premises.
_PAIR_RULES: tuple[tuple[str, int, Relation, tuple[Mapping[str, object], ...]], ...] = (
    ("no_background_d1", 1, Relation.LE0, ({"a0": Flag.ZERO},)),
    ("no_background_d0", 0, Relation.LE0, ({"a0": Flag.ZERO}, {"a1_a2_indep": True}, {"e_indep": True})),
    ("lone_cause_certain_d1", 1, Relation.LE0, ({"a1": Flag.ONE, "a2": Flag.ONE}, {"e_cov": Relation.LE0})),
    ("lone_cause_certain_d0", 0, Relation.EQ0, ({"a1": Flag.ONE, "a2": Flag.ONE},)),
    ("lone_cause_absent_d1", 1, Relation.GE0, ({"a1": Flag.ZERO, "a2": Flag.ZERO}, {"e_cov": Relation.GE0})),
    # The zero-stratum claim needs independent parents: with a positively
    # correlated pair and the lone-cause slot empty, the zero stratum can
    # keep a strictly positive covariance (see the frozen counterexample in
    # the tests).
    ("lone_cause_absent_d0", 0, Relation.LE0,
     ({"a1": Flag.ZERO, "a2": Flag.ZERO}, {"e_indep": True}, {"e_cov": Relation.GE0})),
    ("no_synergy_d1", 1, Relation.LE0, ({"a3": Flag.ZERO}, {"e_cov": Relation.LE0})),
    ("no_synergy_d0", 0, Relation.EQ0,
     ({"a3": Flag.ZERO}, {"a1_a2_indep": True}, {"e_indep": True}, {"a0_a1_indep": True, "a0_a2_indep": True})),
)


def _holding_fact(facts: RepFacts, premise: Mapping[str, object]) -> str | None:
    """The first fact through which ``premise`` holds, or None."""
    for fact, want in premise.items():
        value = getattr(facts, fact)
        if value.implies(want) if isinstance(value, Relation) else value == want:
            return fact
    return None


def pair_conclusions(facts: RepFacts) -> tuple[SignConclusion, ...]:
    """All stratum sign conclusions licensed by the established facts.

    One conclusion per rule of ``_PAIR_RULES`` whose premises all hold:
    cases not established are suppressed, never guessed. The rules hold
    for positively monotone parents (the facts builders enforce this in
    the facts' frame); the rule set reaches a negative parent by
    complementing it, so each relation is flipped once per complemented
    parent to speak about the original variables again, and the polarity
    joins the premises.
    """
    monotone = (f"monotone({facts.e1})=+", f"monotone({facts.e2})=+")
    neg = facts.negative
    polarity = (f"polarity=({'-' if neg[0] else '+'},{'-' if neg[1] else '+'})",) if any(neg) else ()
    out = []
    for rule, stratum, relation, premises in _PAIR_RULES:
        held = [_holding_fact(facts, premise) for premise in premises]
        if None not in held:
            quantity = CovQuantity(facts.e1, facts.e2, facts.target, stratum)
            described = monotone + tuple(map(facts.describe, held)) + polarity
            out.append(SignConclusion(quantity, relation.flipped() if sum(neg) % 2 else relation, rule, described))
    return tuple(out)


@dataclass(frozen=True)
class PremiseCheck:
    name: str
    holds: bool
    source: str = "structural"
    detail: str = ""


@dataclass(frozen=True)
class TransferPremises:
    """Premise report for transferring a parent-pair conclusion to proxies."""

    rule: str
    f: str
    g: str
    e1: str
    e2: str
    d: str
    q: tuple[str, ...]
    checks: tuple[PremiseCheck, ...]
    q_same_sign: bool = True
    q_opposite_sign: bool = True

    @property
    def satisfied(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.holds)


def _require_pair(graph: Dag, f: str, g: str, e1: str, e2: str, d: str, *q: str) -> None:
    graph.require(f, g, e1, e2, d, *q)
    if e1 not in graph.parents(d) or e2 not in graph.parents(d):
        raise ValueError(f"{e1} and {e2} must be parents of {d}")


def _cov_nonneg_check(g: Dag, a: str, b: str, name: str, asserted: Relation | None) -> PremiseCheck:
    sign = monotonically_associated(g, a, b)
    if sign in (Sign.POSITIVE, Sign.ZERO):
        return PremiseCheck(name, True, "structural", f"association {sign.value}")
    if asserted is not None and asserted.implies(Relation.GE0):
        return PremiseCheck(name, True, "assertion", f"asserted {asserted.value}")
    return PremiseCheck(name, False, "structural", f"association {sign.value}")


def check_transfer_premises_direct(
    graph: Dag,
    f: str,
    g: str,
    e1: str,
    e2: str,
    d: str,
    cov_f_e1: Relation | None = None,
    cov_g_e2: Relation | None = None,
) -> TransferPremises:
    """Premises for the direct transfer: sign(Cov(F,G|D)) = sign(Cov(E1,E2|D)).

    Needs F and G separated given {E1, E2, D}, each proxy separated from the
    other side given its own parent, and nonnegative marginal covariance of
    each proxy with its parent (established structurally or by assertion).
    """
    _require_pair(graph, f, g, e1, e2, d)
    checks = (
        PremiseCheck("f_g_separated", d_separated(graph, f, g, {e1, e2, d})),
        PremiseCheck("f_separated_from_e2_d", d_separated(graph, f, {e2, d}, {e1})),
        PremiseCheck("g_separated_from_e1_d", d_separated(graph, g, {e1, d}, {e2})),
        _cov_nonneg_check(graph, f, e1, "cov_f_e1_nonneg", cov_f_e1),
        _cov_nonneg_check(graph, g, e2, "cov_g_e2_nonneg", cov_g_e2),
    )
    return TransferPremises("proxy-direct", f, g, e1, e2, d, (), checks)


def _q_path_sign_flags(graph: Dag, q: Sequence[str], f: str, g: str) -> tuple[bool, bool]:
    if not q:
        return (True, True)
    into_f, into_g = path_signs(graph, f), path_signs(graph, g)
    same_ok = True
    opposite_ok = True
    for qi in q:
        to_f, to_g = into_f.get(qi, frozenset()), into_g.get(qi, frozenset())
        if to_f and to_g or Sign.UNDEFINED in to_f | to_g:
            same, opposite = sign_agreement(to_f, to_g)
            same_ok = same_ok and same
            opposite_ok = opposite_ok and opposite
    return (same_ok, opposite_ok)


def expectation_monotone_premise(
    graph: Dag, f: str, e: str, d: str, q: Iterable[str] = ()
) -> tuple[bool, str]:
    """Sufficient structural conditions for E[f | e, d, q] nondecreasing in e.

    Route one: f is separated from d given q plus e, and f is positively
    monotonically associated with e. Route two: f descends from both e and
    d, shares no common cause with e, and every directed path from e to f
    that avoids d is positive.
    """
    qs = tuple(q)
    graph.require(f, e, d, *qs)
    if f == e:
        return (True, "identity")
    if f != d and f not in set(qs) and d_separated(graph, f, d, set(qs) | {e}):
        if monotonically_associated(graph, f, e) in (Sign.POSITIVE, Sign.ZERO):
            return (True, "separated-and-associated")
    if f in graph.descendants(e) and f in graph.descendants(d) and not common_causes(graph, f, e):
        if path_signs(graph, f, avoid=d).get(e, frozenset()) <= {Sign.POSITIVE}:
            return (True, "positive-paths-outside-target")
    return (False, "")


def check_transfer_premises_shared(
    graph: Dag,
    f: str,
    g: str,
    e1: str,
    e2: str,
    d: str,
    q: Iterable[str] = (),
) -> TransferPremises:
    """Premises for the transfer that tolerates shared causes of the proxies.

    ``q`` collects the declared common causes of F and G, a repeated name
    counting once at its first occurrence. They must be pairwise d-separated
    given nothing (no directed path or shared ancestor between two), separated
    from the parent pair given D and from D marginally. Direction of the
    transferred sign is gated by whether each q member's directed paths to
    F and to G agree or oppose in sign.
    """
    qs = tuple(dict.fromkeys(q))
    _require_pair(graph, f, g, e1, e2, d, *qs)
    cond = set(qs) | {d}
    mono_f, route_f = expectation_monotone_premise(graph, f, e1, d, qs)
    mono_g, route_g = expectation_monotone_premise(graph, g, e2, d, qs)
    checks = (
        PremiseCheck("f_g_separated_given_q", d_separated(graph, f, g, {e1, e2} | cond)),
        PremiseCheck("f_separated_from_e2", d_separated(graph, f, e2, {e1} | cond)),
        PremiseCheck("g_separated_from_e1", d_separated(graph, g, e1, {e2} | cond)),
        PremiseCheck("q_separated_from_pair", d_separated(graph, qs, {e1, e2}, {d})),
        PremiseCheck("q_separated_from_target", d_separated(graph, qs, d)),
        PremiseCheck("q_mutually_independent", all(d_separated(graph, a, b) for a, b in combinations(qs, 2))),
        PremiseCheck("f_expectation_monotone", mono_f, "structural", route_f),
        PremiseCheck("g_expectation_monotone", mono_g, "structural", route_g),
    )
    same_ok, opposite_ok = _q_path_sign_flags(graph, qs, f, g)
    return TransferPremises("proxy-shared", f, g, e1, e2, d, qs, checks, same_ok, opposite_ok)


def transfer_sign(premises: TransferPremises, inner: SignConclusion) -> tuple[SignConclusion, ...]:
    """Push a parent-pair conclusion out to the proxies.

    The direct rule yields sign equality plus the inner relation verbatim;
    the shared-cause rule transfers ">=0" under sign-agreeing q paths and
    "<=0" under sign-opposing ones. Raises unless every premise holds.
    """
    if not premises.satisfied:
        raise ValueError(f"transfer premises not verified: {', '.join(premises.failures())}")
    iq = inner.quantity
    if {iq.x, iq.y} != {premises.e1, premises.e2} or iq.given != premises.d:
        raise ValueError(
            f"inner conclusion {iq.render()} does not describe the parent pair "
            f"({premises.e1}, {premises.e2}) given {premises.d}"
        )
    if inner.relation is Relation.SIGN_EQUALS:
        raise ValueError("inner conclusion must be a resolved relation, not a sign equality")
    outer = CovQuantity(premises.f, premises.g, premises.d, iq.stratum)
    prem = tuple(c.name for c in premises.checks) + (f"inner:{inner.rule}:{inner.relation.value}",)

    if premises.rule == "proxy-direct":
        return (
            SignConclusion(outer, Relation.SIGN_EQUALS, "proxy-direct", prem, other=iq),
            SignConclusion(outer, inner.relation, f"proxy-direct+{inner.rule}", prem, other=iq),
        )

    prem = prem + (
        f"q_same_sign={str(premises.q_same_sign).lower()}",
        f"q_opposite_sign={str(premises.q_opposite_sign).lower()}",
    )
    directions = ((Relation.GE0, premises.q_same_sign), (Relation.LE0, premises.q_opposite_sign))
    kept = [r for r, allowed in directions if allowed and inner.relation.implies(r)]
    relation = reduce(Relation.meet, kept, Relation.UNKNOWN)
    if relation is not Relation.UNKNOWN:
        return (SignConclusion(outer, relation, f"proxy-shared+{inner.rule}", prem, other=iq),)
    raise ValueError(
        f"no transferable direction: inner {inner.relation.value} with "
        f"q_same_sign={premises.q_same_sign}, q_opposite_sign={premises.q_opposite_sign}"
    )


# -- the covsign and oracle-check pipeline ------------------------------------


@dataclass(frozen=True)
class CovsignAnalysis:
    """Facts, conclusions and transfer premises for one target and its pair.

    ``facts`` names the target, its parents (e1, e2) and their polarity.
    ``premises`` holds the (direct, shared) transfer reports when a transfer
    to proxies was asked for; ``dist`` is the joint of a fully specified
    model.
    """

    asserted: AssertedFacts
    facts: RepFacts
    inner: tuple[SignConclusion, ...]
    premises: tuple[TransferPremises, TransferPremises] | None = None
    transferred: tuple[SignConclusion, ...] = ()
    not_applicable: tuple[dict, ...] = ()
    dist: ExactDistribution | None = None

    @property
    def conclusions(self) -> tuple[SignConclusion, ...]:
        return self.inner + self.transferred

    @property
    def ok(self) -> bool:
        return bool(self.inner) and (self.premises is None or bool(self.transferred))


def _parent_pair(model: Model, d: str) -> tuple[str, str]:
    parents = model.dag.parents(d)
    if len(parents) != 2:
        raise ValueError(
            f"{d} has parents {list(parents)}; the covariance rule set needs exactly two "
            "(marginalize any others first)"
        )
    return parents[0], parents[1]


def _pair_polarity(model: Model, d: str, e1: str, e2: str) -> tuple[bool, bool]:
    """Which parents act negatively: the declared edge sign, else read off d's equation.

    ``parse_model`` rejects a sign that contradicts the equation, so the
    equation is read only for unsigned edges; a declared "-" on a parent the
    equation is constant in stays negative.
    """
    table = model.tables.get(d)
    out = []
    for p in (e1, e2):
        label = model.dag.signs.get((p, d))
        if label is None:
            if table is None:
                raise ValueError(f"edge {p}->{d} carries no sign and no equation is given")
            sign = detect_monotonic_effect(table, p)
            if sign is Sign.UNDEFINED:
                raise ValueError(f"{p} has no monotonic effect on {d}; the rule set does not apply")
            label = sign.value
        out.append(label == "-")
    return (out[0], out[1])


def covsign_analysis(
    model: Model,
    d: str,
    f: str | None = None,
    g: str | None = None,
    q: Sequence[str] = (),
    budget: int = DEFAULT_WORLD_BUDGET,
) -> CovsignAnalysis:
    """The pair rule set for ``d``, transferred to proxies ``f`` and ``g`` if given.

    Facts come from the exact joint (within ``budget`` worlds) when the
    model is fully specified, and from its assertions and signed graph
    otherwise. A transfer uses the first satisfied rule, direct before
    shared-cause; when neither holds, or an inner conclusion cannot be
    moved, the reason is recorded under ``not_applicable``. ``q`` and
    a single proxy raise ``ValueError`` unless both proxies are given, and
    ``q`` does too when the proxies are ``d``'s parent pair itself; so does
    a ``budget`` below 1, before any work."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if (f is None) != (g is None) or (q and f is None):
        given = ", ".join(f"{k}={v}" for k, v in (("f", f), ("g", g), ("q", ",".join(q))) if v)
        raise ValueError(f"a transfer to proxies needs both f and g; got {given}")
    model.dag.require(d, *(n for n in (f, g) if n), *q)
    e1, e2 = _parent_pair(model, d)
    if q and {f, g} == {e1, e2}:
        raise ValueError(f"q needs proxies other than {d}'s parents; got f={f}, g={g}, q={','.join(q)}")
    negative = _pair_polarity(model, d, e1, e2)
    asserted = read_assertions(model.assertions, d, e1, e2, negative)
    dist = None
    if model.fully_specified:
        scm = model.to_scm()
        dist = joint_distribution(scm, budget)
        facts = facts_from_scm(scm, d, e1, e2, negative, dist)
    else:
        facts = _facts_from_assertions(model.dag, asserted)
    inner = pair_conclusions(facts)
    analysis = CovsignAnalysis(asserted, facts, inner, dist=dist)
    if f is None or g is None or {f, g} == {e1, e2}:
        return analysis

    pairings = ((e1, e2), (e2, e1))
    direct = [
        check_transfer_premises_direct(model.dag, f, g, p1, p2, d, asserted.cov_of(f, p1), asserted.cov_of(g, p2))
        for p1, p2 in pairings
    ]
    shared = [check_transfer_premises_shared(model.dag, f, g, p1, p2, d, q) for p1, p2 in pairings]
    premises = (
        next((r for r in direct if r.satisfied), direct[0]),
        next((r for r in shared if r.satisfied), shared[0]),
    )
    chosen = next((r for r in premises if r.satisfied), None)
    transferred: list[SignConclusion] = []
    not_applicable: list[dict] = []
    if chosen is None:
        not_applicable = [{"rule": r.rule, "failed_premises": list(r.failures())} for r in premises]
    else:
        for c in inner:
            try:
                transferred.extend(transfer_sign(chosen, c))
            except ValueError as e:
                not_applicable.append({"rule": chosen.rule, "inner": c.rule, "reason": str(e)})
    return replace(
        analysis, premises=premises, transferred=tuple(transferred), not_applicable=tuple(not_applicable)
    )


class Outcome(Enum):
    """How an oracle-check draw ended. A mismatch breaks an assertion on the
    target's table or on the joint; zero mass leaves a checked stratum empty."""

    GENERATION_ERROR = "generation error"
    ASSERTION_MISMATCH = "assertion mismatch"
    ZERO_MASS = "zero mass"
    ACCEPTED = "accepted"


@dataclass(frozen=True)
class Draw:
    """One oracle-check draw: its seed (None for the model itself), outcome, and verdict per claim key."""

    seed: int | None
    outcome: Outcome
    verdicts: Mapping[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class OracleCheck:
    """An analysis whose conclusions were checked against exact joints, and one record per draw.

    Every count is read off the records. Each accepted draw holds one
    verdict per distinct claim key, so a claim two rules derive is checked
    once per draw; ``tallies`` maps each key to its checked and violation
    counts, and ``failures`` lists every violation with its draw's seed.
    """

    analysis: CovsignAnalysis
    draws: tuple[Draw, ...]

    def count(self, outcome: Outcome) -> int:
        return sum(draw.outcome is outcome for draw in self.draws)

    @property
    def accepted(self) -> int:
        return self.count(Outcome.ACCEPTED)

    @property
    def drawn(self) -> int:
        return len(self.draws)

    @property
    def tallies(self) -> dict[str, dict[str, int]]:
        accepted = [draw.verdicts for draw in self.draws if draw.outcome is Outcome.ACCEPTED]
        keys = accepted[0] if accepted else {}
        return {k: {"checked": len(accepted), "violations": sum(not v[k] for v in accepted)} for k in keys}

    @property
    def failures(self) -> tuple[dict, ...]:
        return tuple({"conclusion": k, "seed": d.seed} for d in self.draws for k, ok in d.verdicts.items() if not ok)

    @property
    def ok(self) -> bool:
        return self.analysis.ok and not self.failures


def _never_takes(table: ResponseTable, value: int) -> bool:
    """Whether every row of the table is the constant ``1 - value``."""
    constant = 0 if value else (1 << table.n_configs) - 1
    return all(row == constant for row in table.rows)


def _verdicts(dist: ExactDistribution, claims: Mapping[str, SignConclusion]) -> dict[str, bool]:
    """Each claim's verdict on ``dist``, computing each distinct covariance once."""
    known: dict[CovQuantity, Fraction] = {}
    return {key: oracle.verify_claim(dist, claim, known) for key, claim in claims.items()}


def _end_draw(
    plan: oracle.DrawPlan, asserted: AssertedFacts,
    claims: Mapping[str, SignConclusion], conditioned: set[tuple[str, int]], budget: int, seed: int,
) -> Draw:
    """Draw a model from ``plan`` at generator seed ``seed`` and check it against the assertions and ``claims``."""
    try:
        scm = oracle.random_instance(plan, seed)
    except oracle.GenerationError:
        return Draw(seed, Outcome.GENERATION_ERROR)
    # the plan's row filter has already checked the target's asserted flags
    if not asserted.cocauses_independent(scm.tables[asserted.target]):
        return Draw(seed, Outcome.ASSERTION_MISMATCH)
    if any(_never_takes(scm.tables[n], v) for n, v in conditioned):
        return Draw(seed, Outcome.ZERO_MASS)
    dist = joint_distribution(scm, budget)
    if not asserted.admits(dist):
        return Draw(seed, Outcome.ASSERTION_MISMATCH)
    try:
        return Draw(seed, Outcome.ACCEPTED, _verdicts(dist, claims))
    except oracle.ConditioningError:
        return Draw(seed, Outcome.ZERO_MASS)


def oracle_check(
    model: Model,
    d: str,
    f: str | None = None,
    g: str | None = None,
    q: Sequence[str] = (),
    budget: int = DEFAULT_WORLD_BUDGET,
    instances: int = 100,
    max_weight: int = 8,
    seed: int = 0,
) -> OracleCheck:
    """Verify ``covsign_analysis``'s conclusions with the exact oracle.

    A fully specified model is one accepted draw, checked against the joint
    its facts came from. Otherwise models are drawn at generator seeds
    ``seed``, ``seed + 1``, ... on the graph with ``d``'s in-edges signed
    by the pair's polarity, so every node is monotone along its signed
    in-edges, and ``d`` is drawn among row sets that carry the asserted
    flags, until ``instances`` draws are accepted or ``100 * instances``
    are made. A draw ends in one ``Outcome``: a table
    that forces a conditioned node to the other value is zero mass before
    any joint is built. On ``d``'s first generation error its admissible
    row sets are enumerated, and ``ValueError`` names the flags if there
    are none. ``instances``, ``max_weight`` and ``budget`` must be at least
    1; each is checked before any work.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if max_weight < 1:
        raise ValueError(f"max_weight must be at least 1, got {max_weight}")
    analysis = covsign_analysis(model, d, f, g, q, budget)
    if not analysis.conclusions:
        raise ValueError("no conclusions to check")
    # two rules can derive one claim; it is checked once per draw
    claims = {c.key(): c for c in analysis.conclusions}
    if analysis.dist is not None:
        return OracleCheck(analysis, (Draw(None, Outcome.ACCEPTED, _verdicts(analysis.dist, claims)),))

    # a node a claim conditions on, with the value it is conditioned at
    conditioned = {
        (quantity.given, quantity.stratum)
        for c in claims.values()
        for quantity in ((c.quantity, c.other) if c.relation is Relation.SIGN_EQUALS else (c.quantity,))
    }
    asserted = analysis.asserted
    # d's in-edges carry the pair's polarity, so the generator draws d monotone under it
    polarity = {(p, d): "-" if neg else "+" for p, neg in zip((asserted.e1, asserted.e2), asserted.negative)}
    dag = Dag(model.dag.nodes, model.dag.edges, {**model.dag.signs, **polarity})
    plan = oracle.draw_plan(dag, row_filter={d: asserted.admits_rows}, max_weight=max_weight)
    draws: list[Draw] = []
    seen = dict.fromkeys(Outcome, 0)  # draws so far by outcome
    for instance_seed in range(seed, seed + 100 * instances):
        draw = _end_draw(plan, asserted, claims, conditioned, budget, instance_seed)
        draws.append(draw)
        seen[draw.outcome] += 1
        # only d has a row filter, so only d's table can fail to be drawn
        if (draw.outcome is Outcome.GENERATION_ERROR and seen[draw.outcome] == 1
                and not oracle.admissible_row_sets(plan, d)):
            flags = ", ".join(f"{slot}={flag.value}" for slot, flag in sorted(asserted.flags.items()))
            raise ValueError(
                f"no table the generator can draw for {d} carries the asserted flags "
                f"{flags} on ({asserted.e1}, {asserted.e2})"
            )
        if draw.outcome is Outcome.ACCEPTED and seen[draw.outcome] == instances:
            break
    check = OracleCheck(analysis, tuple(draws))
    if not check.accepted:
        raise ValueError(f"no premise-satisfying instance found in {check.drawn} draws")
    return check
