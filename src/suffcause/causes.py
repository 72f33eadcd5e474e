"""Sufficient-cause algebra: one bitmask kernel over two atom universes.

The paper's relations are all comparisons of indicator sets, so one small
kernel decides them for any finite universe of atoms, with each set packed
into a Python integer (one bit per atom). A conjunction is a list of
factor sets whose meet starts from the universe, so the empty conjunction
is TRUE. Sufficiency: the meet lies inside the target. Minimal
sufficiency: no single factor can be dropped. Determinativeness: the union
of the terms' meets is the target. Nonredundancy: no single term can be
dropped. Reductions drop greedily in a given order.

Two surfaces feed the kernel. For a response table the atoms are
(response state, parent configuration) pairs: the target is the output
indicator, and a conjunction's factors are its co-cause's state set and
one set per parent literal. For an ``EventSpace`` the atoms are the
assignments of its free base events, and any event mask can be a factor,
so derived events (functions of other events) can be conjoined too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import Callable, Iterable, Mapping, Sequence

from .scm import ResponseTable, _parent_mask


class CoCauseKind(Enum):
    ONE = "one"
    ZERO = "zero"
    STATES = "states"


@dataclass(frozen=True)
class CoCause:
    """Event on the response states that completes a conjunction.

    ``ONE`` places no restriction, ``ZERO`` is the impossible event, and
    ``STATES`` is the disjunction of the listed state indices.
    """

    kind: CoCauseKind
    states: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind is CoCauseKind.STATES:
            if not self.states:
                raise ValueError("a state-disjunction co-cause needs at least one state")
            ordered = tuple(sorted(set(self.states)))
            object.__setattr__(self, "states", ordered)
        elif self.states:
            raise ValueError(f"{self.kind.value} co-cause cannot carry states")

    @classmethod
    def one(cls) -> "CoCause":
        return cls(CoCauseKind.ONE)

    @classmethod
    def zero(cls) -> "CoCause":
        return cls(CoCauseKind.ZERO)

    @classmethod
    def of_states(cls, states: Iterable[int], n_states: int | None = None) -> "CoCause":
        """Build a state disjunction, normalizing full/empty sets when N is known."""
        ordered = tuple(sorted(set(states)))
        if n_states is not None:
            if any(not 0 <= s < n_states for s in ordered):
                raise ValueError(f"state indices {ordered} out of range for {n_states} states")
            if len(ordered) == n_states:
                return cls.one()
            if not ordered:
                return cls.zero()
        return cls(CoCauseKind.STATES, ordered)

    def render(self) -> str:
        if self.kind is CoCauseKind.ONE:
            return ""
        if self.kind is CoCauseKind.ZERO:
            return "{}"
        return "{" + ",".join(str(s) for s in self.states) + "}"


@dataclass(frozen=True, order=True)
class Literal:
    """A parent or its complement."""

    base: str
    complemented: bool = False

    def render(self) -> str:
        return ("~" + self.base) if self.complemented else self.base

    @classmethod
    def parse(cls, text: str) -> "Literal":
        if text.startswith("~"):
            return cls(text[1:], True)
        return cls(text)


@dataclass(frozen=True)
class Conjunction:
    """A product of parent literals and one co-cause.

    Literals are kept sorted by name; a parent may appear at most once and
    never with both polarities.
    """

    literals: tuple[Literal, ...] = ()
    cocause: CoCause = field(default_factory=CoCause.one)

    def __post_init__(self):
        ordered = tuple(sorted(self.literals))
        bases = [l.base for l in ordered]
        if len(set(bases)) != len(bases):
            raise ValueError(f"conjunction repeats a parent: {bases}")
        object.__setattr__(self, "literals", ordered)

    def bases(self) -> tuple[str, ...]:
        return tuple(l.base for l in self.literals)

    def render(self) -> str:
        head = self.cocause.render()
        body = "*".join(l.render() for l in self.literals)
        if head and body:
            return f"{head}*{body}"
        if head:
            return head
        return body if body else "TRUE"


def conj(*literals: str | Literal, states: Iterable[int] | None = None) -> Conjunction:
    """Convenience constructor: ``conj("E1", "~E2", states=(0, 2))``."""
    lits = tuple(l if isinstance(l, Literal) else Literal.parse(l) for l in literals)
    cocause = CoCause.one() if states is None else CoCause(CoCauseKind.STATES, tuple(states))
    return Conjunction(lits, cocause)


@dataclass(frozen=True)
class Representation:
    """A determinative list of (co-cause, conjunction) terms for one node."""

    target: str
    terms: tuple[Conjunction, ...]

    def render(self) -> str:
        if not self.terms:
            return "FALSE"
        return " v ".join(t.render() for t in self.terms)


# -- the kernel: indicator sets as int masks over an explicit universe --------

def _join(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _meet(universe: int, factors: Iterable[int]) -> int:
    """Atoms satisfying every factor; the empty conjunction is the universe."""
    for f in factors:
        universe &= f
    return universe


def _sufficient(universe: int, target: int, factors: Sequence[int]) -> bool:
    return not _meet(universe, factors) & ~target


def _minimal(universe: int, target: int, factors: Sequence[int]) -> bool:
    """Sufficient, and no longer sufficient with any single factor dropped.

    Dropping factors only grows the meet, so single drops decide minimality
    over all sub-conjunctions.
    """
    return _sufficient(universe, target, factors) and not any(
        _sufficient(universe, target, factors[:i] + factors[i + 1:]) for i in range(len(factors))
    )


def _determinative(target: int, masks: Sequence[int]) -> bool:
    return _join(masks) == target


def _nonredundant(target: int, masks: Sequence[int]) -> bool:
    if not _determinative(target, masks):
        raise ValueError("term list is not determinative")
    return not any(_determinative(target, masks[:i] + masks[i + 1:]) for i in range(len(masks)))


def _reduce(masks: Sequence[int], order: Iterable[int], holds: Callable[[list[int]], bool]) -> list[int]:
    """Indices left after dropping ``masks[i]``, for each ``i`` in ``order``,
    whenever ``holds`` stays true of the rest; survivors keep their order."""
    kept = list(range(len(masks)))
    for i in order:
        rest = [k for k in kept if k != i]
        if holds([masks[k] for k in rest]):
            kept = rest
    return kept


# -- response tables: atoms are (state, parent configuration) pairs -----------

class _TableAtoms:
    """A table's indicator sets, built once per public call.

    Bit ``j * n_configs + c`` is the atom (state ``j``, configuration ``c``).
    """

    def __init__(self, table: ResponseTable):
        self.table = table
        n = table.n_configs
        block = (1 << n) - 1
        spread = _join(1 << (j * n) for j in range(table.n_states))  # bit 0 of each state block
        self.universe = block * spread
        self.target = _join(row << (j * n) for j, row in enumerate(table.rows))
        self.states = [block << (j * n) for j in range(table.n_states)]
        self.literals: dict[Literal, int] = {}
        for i, p in enumerate(table.parents):
            on = _parent_mask(n, 1 << i)
            self.literals[Literal(p)] = on * spread
            self.literals[Literal(p, True)] = (block ^ on) * spread

    def literal(self, lit: Literal) -> int:
        if lit not in self.literals:
            self.table.parent_index(lit.base)  # raises on a foreign literal
        return self.literals[lit]

    def state_set(self, cocause: CoCause) -> int:
        for s in cocause.states:
            if not 0 <= s < self.table.n_states:
                raise ValueError(f"co-cause state {s} out of range for {self.table.n_states} states")
        return _join(self.states[s] for s in cocause.states)

    def factors(self, c: Conjunction) -> tuple[int, list[int]]:
        """The universe a conjunction meets in, and its factors: the state
        set of a restricting co-cause, then one set per literal. A ``ZERO``
        co-cause empties the universe, so no drop can undo it."""
        lits = [self.literal(l) for l in c.literals]
        if c.cocause.kind is CoCauseKind.STATES:
            return self.universe, [self.state_set(c.cocause)] + lits
        return (0 if c.cocause.kind is CoCauseKind.ZERO else self.universe), lits

    def masks(self, terms: Sequence[Conjunction]) -> list[int]:
        return [_meet(*self.factors(t)) for t in terms]


def is_sufficient(table: ResponseTable, c: Conjunction) -> bool:
    """Every (state, configuration) satisfying the conjunction outputs 1."""
    atoms = _TableAtoms(table)
    universe, factors = atoms.factors(c)
    return _sufficient(universe, atoms.target, factors)


def is_minimal_sufficient(table: ResponseTable, c: Conjunction) -> bool:
    """Sufficient, and neither a literal nor the state restriction can be dropped."""
    atoms = _TableAtoms(table)
    universe, factors = atoms.factors(c)
    return _minimal(universe, atoms.target, factors)


def is_determinative(table: ResponseTable, terms: Sequence[Conjunction]) -> bool:
    """The node is 1 exactly when some term is 1, over all states and configs."""
    atoms = _TableAtoms(table)
    return _determinative(atoms.target, atoms.masks(terms))


def is_nonredundant(table: ResponseTable, terms: Sequence[Conjunction]) -> bool:
    """No single term can be dropped while staying determinative."""
    atoms = _TableAtoms(table)
    return _nonredundant(atoms.target, atoms.masks(terms))


def _canonical_term_key(table: ResponseTable, c: Conjunction) -> tuple:
    lits = tuple(sorted((table.parent_index(l.base), l.complemented) for l in c.literals))
    return (len(lits), lits, c.cocause.states)


def reduce_to_minimal(table: ResponseTable, c: Conjunction) -> Conjunction:
    """Drop unnecessary conjuncts until the conjunction is minimal sufficient.

    Drops are attempted from the back of the canonical order (the state
    restriction first, then literals from the highest parent index down), so
    earlier literals are preferred when several reductions exist.
    """
    atoms = _TableAtoms(table)
    universe, factors = atoms.factors(c)
    if not _sufficient(universe, atoms.target, factors):
        raise ValueError("conjunction is not sufficient")
    restricted = c.cocause.kind is CoCauseKind.STATES
    lits = sorted(c.literals, key=lambda l: table.parent_index(l.base), reverse=True)
    parts = ([c.cocause] if restricted else []) + lits
    masks = (factors[:1] if restricted else []) + [atoms.literal(l) for l in lits]
    survivors = _reduce(masks, range(len(masks)), lambda fs: _sufficient(universe, atoms.target, fs))
    kept = [parts[i] for i in survivors]
    cocause = CoCause.one() if restricted and c.cocause not in kept else c.cocause
    return Conjunction(tuple(p for p in kept if isinstance(p, Literal)), cocause)


def reduce_to_nonredundant(
    table: ResponseTable, terms: Sequence[Conjunction]
) -> list[Conjunction]:
    """Drop redundant terms until no single term can be removed.

    Candidates are tried from the back of the canonical term order; the
    survivors keep their input order.
    """
    terms = list(terms)
    atoms = _TableAtoms(table)
    masks = atoms.masks(terms)
    if not _determinative(atoms.target, masks):
        raise ValueError("term list is not determinative")
    order = sorted(range(len(terms)), key=lambda i: _canonical_term_key(table, terms[i]), reverse=True)
    return [terms[i] for i in _reduce(masks, order, lambda ms: _determinative(atoms.target, ms))]


def canonical_representation(table: ResponseTable) -> Representation:
    """The co-cause construction: for every conjunction of parent literals,
    attach the disjunction of response states completing it into a minimal
    sufficient cause.

    A conjunction that is minimal sufficient on its own gets the
    unrestricted co-cause; a conjunction no state can complete is omitted.
    The input table must already have distinct rows (see ``dedupe_states``).
    """
    if len(set(table.rows)) != len(table.rows):
        raise ValueError("canonical_representation needs deduplicated states; call dedupe_states first")

    atoms = _TableAtoms(table)
    universe, target = atoms.universe, atoms.target
    terms: list[Conjunction] = []
    for polarity in product((None, False, True), repeat=table.n_parents):
        literals = tuple(
            Literal(p, comp)
            for p, comp in zip(table.parents, polarity)
            if comp is not None
        )
        lits = [atoms.literals[l] for l in literals]
        if _minimal(universe, target, lits):
            terms.append(Conjunction(literals, CoCause.one()))
            continue
        states = [j for j, s in enumerate(atoms.states) if _minimal(universe, target, [s] + lits)]
        if states:
            terms.append(Conjunction(literals, CoCause.of_states(states, table.n_states)))
    terms.sort(key=lambda t: _canonical_term_key(table, t))
    return Representation(table.node, tuple(terms))


def validate_representation(table: ResponseTable, rep: Representation) -> None:
    """Raise unless the representation is determinative for the table."""
    if rep.target != table.node:
        raise ValueError(f"representation targets {rep.target!r}, table is for {table.node!r}")
    if not is_determinative(table, rep.terms):
        raise ValueError(f"representation for {table.node!r} is not determinative")


# -- boolean events: atoms are assignments of the free base events ------------

class EventSpace:
    """Named boolean events as truth-table bitmasks over free base events.

    Bit ``a`` of a mask is the event's value on the base assignment whose
    i-th bit is the value of the i-th base event. Masks combine with the
    ordinary integer operators ``&``, ``|`` and :meth:`invert`. A conjunction
    is a sequence of event masks; the empty one is the sure event ``all``.
    """

    def __init__(self, *base: str):
        if not base:
            raise ValueError("an event space needs at least one base event")
        if len(set(base)) != len(base):
            raise ValueError("duplicate base event names")
        self.base = tuple(base)
        self.n_assignments = 1 << len(base)
        self.all = (1 << self.n_assignments) - 1

    def var(self, name: str) -> int:
        return _parent_mask(self.n_assignments, 1 << self.base.index(name))

    def vars(self) -> tuple[int, ...]:
        return tuple(self.var(n) for n in self.base)

    def invert(self, mask: int) -> int:
        return self.all ^ mask

    def sufficient(self, target: int, events: Sequence[int]) -> bool:
        """The joint occurrence of ``events`` forces ``target``."""
        return _sufficient(self.all, target, list(events))

    def minimal_sufficient(self, target: int, events: Sequence[int]) -> bool:
        return _minimal(self.all, target, list(events))

    def determinative(self, target: int, terms: Sequence[Sequence[int]]) -> bool:
        return _determinative(target, [_meet(self.all, t) for t in terms])

    def nonredundant(self, target: int, terms: Sequence[Sequence[int]]) -> bool:
        return _nonredundant(target, [_meet(self.all, t) for t in terms])

    def reduce_nonredundant(self, target: int, terms: Sequence[Sequence[int]]) -> list[Sequence[int]]:
        """Drop redundant event conjunctions, preferring to keep earlier terms."""
        terms = list(terms)
        masks = [_meet(self.all, t) for t in terms]
        if not _determinative(target, masks):
            raise ValueError("term list is not determinative")
        kept = _reduce(masks, reversed(range(len(terms))), lambda ms: _determinative(target, ms))
        return [terms[i] for i in kept]

    def minimal_sufficient_conjunctions(
        self, target: int, candidates: Mapping[str, int]
    ) -> list[tuple[str, ...]]:
        """All minimal sufficient conjunctions of the named candidate events.

        Exhaustive over subsets from the empty one up, without complements;
        the result is ordered by (size, names), and a sure target yields
        ``[()]``.
        """
        if not candidates:
            raise ValueError("no candidate events given")
        names = sorted(candidates)
        return [
            subset
            for size in range(len(names) + 1)
            for subset in combinations(names, size)
            if self.minimal_sufficient(target, [candidates[n] for n in subset])
        ]
