"""Monotonic effects, monotone association, and qualitative covariance claims.

An edge carries a "+" when the child's equation is nondecreasing in that
parent for every response state and every setting of the other parents, and
a "-" for nonincreasing. Path signs multiply (``graph.path_signs``);
monotone association of two nodes then yields a sign claim about their
exact covariance. ``Relation`` is the one type of such claims, from a
model's ``cov-sign`` assertions through the rule set to the oracle's verdict.
"""

from __future__ import annotations

from enum import Enum

from .causes import canonical_representation
from .graph import Dag, GraphError, Sign, path_signs
from .scm import ResponseTable, _monotone_step, _parent_mask, dedupe_states


class Relation(Enum):
    """A qualitative claim about a covariance.

    The first four members read as the sets of signs they allow: "<=0"
    allows negative and zero, ">=0" zero and positive, "=0" zero alone and
    "unknown" all three; ``meet``, ``implies`` and ``holds`` are set
    operations on that reading. ``SIGN_EQUALS`` ties a covariance's sign to
    another one's and is resolved against it (``oracle.verify_claim``).
    """

    LE0 = "<=0"
    GE0 = ">=0"
    EQ0 = "=0"
    UNKNOWN = "unknown"
    SIGN_EQUALS = "sign-equals"

    @classmethod
    def of_value(cls, x) -> "Relation":
        """The strongest claim an exact value satisfies."""
        return cls.EQ0 if x == 0 else cls.LE0 if x < 0 else cls.GE0

    @classmethod
    def of_association(cls, sign: Sign) -> "Relation":
        """The claim a monotone association licenses about the covariance."""
        return {Sign.POSITIVE: cls.GE0, Sign.NEGATIVE: cls.LE0, Sign.ZERO: cls.EQ0}.get(sign, cls.UNKNOWN)

    def flipped(self) -> "Relation":
        """The claim about the covariance with one variable negated."""
        return {Relation.LE0: Relation.GE0, Relation.GE0: Relation.LE0}.get(self, self)

    def meet(self, other: "Relation") -> "Relation":
        """Both claims at once: two different signed claims leave only "=0"."""
        return _OF_SIGNS[_SIGNS[self] & _SIGNS[other]]

    def implies(self, other: "Relation") -> bool:
        return self.meet(other) is self

    def holds(self, x) -> bool:
        """Whether an exact covariance satisfies the claim."""
        return Relation.of_value(x).implies(self)


# allowed signs as a mask: bit 0 negative, bit 1 zero, bit 2 positive
_SIGNS = {Relation.LE0: 0b011, Relation.GE0: 0b110, Relation.EQ0: 0b010, Relation.UNKNOWN: 0b111}
_OF_SIGNS = {mask: r for r, mask in _SIGNS.items()}


def _direction_holds(table: ResponseTable, parent: str, signs: str) -> bool:
    """No row falls ("+") or rises ("-") as the parent turns on, for each sign in ``signs``."""
    bit = 1 << table.parent_index(parent)
    on = _parent_mask(table.n_configs, bit)
    return not any(_monotone_step(row, on, bit, s) for s in signs for row in table.rows)


def is_constant_in(table: ResponseTable, parent: str) -> bool:
    """The output never depends on this parent, in any state."""
    return _direction_holds(table, parent, "+-")


def detect_monotonic_effect(table: ResponseTable, parent: str) -> Sign:
    """Sign of the parent's monotonic effect, checked row by row.

    A parent the output never depends on satisfies both directions
    vacuously and is reported POSITIVE; use ``is_constant_in`` to flag the
    degenerate case. ZERO is never returned.
    """
    if _direction_holds(table, parent, "+"):
        return Sign.POSITIVE
    if _direction_holds(table, parent, "-"):
        return Sign.NEGATIVE
    return Sign.UNDEFINED


def monotonic_effect_via_canonical(table: ResponseTable, parent: str) -> Sign:
    """Same verdict, read off the canonical representation of the deduplicated table.

    Positive when no canonical conjunction contains the parent's complement;
    negative when none contains the parent plain. Must agree with
    ``detect_monotonic_effect``; the equivalence is enforced by tests.
    """
    table.parent_index(parent)
    rep = canonical_representation(dedupe_states(table))
    has_plain = any(
        lit.base == parent and not lit.complemented
        for term in rep.terms for lit in term.literals
    )
    has_complement = any(
        lit.base == parent and lit.complemented
        for term in rep.terms for lit in term.literals
    )
    if not has_complement:
        return Sign.POSITIVE
    if not has_plain:
        return Sign.NEGATIVE
    return Sign.UNDEFINED


def directional_effect_holds(table: ResponseTable, parent: str, sign: str) -> bool:
    """Whether a declared edge sign is consistent with the equation."""
    if sign not in ("+", "-"):
        raise ValueError(f"invalid sign {sign!r}")
    return _direction_holds(table, parent, sign)


def sign_agreement(to_a: frozenset[Sign], to_b: frozenset[Sign]) -> tuple[bool, bool]:
    """Whether one source's path signs into two nodes agree, and whether they oppose.

    Agree: each set is the same single sign. Oppose: each is a single sign
    and the two differ. An undefined sign, or more than one sign on a
    side, allows neither.
    """
    if Sign.UNDEFINED in to_a | to_b or len(to_a) != 1 or len(to_b) != 1:
        return (False, False)
    (a,), (b,) = to_a, to_b
    return (a is b, a * b is Sign.NEGATIVE)


def monotonically_associated(g: Dag, x: str, y: str) -> Sign:
    """Monotone association of two nodes on a signed graph.

    POSITIVE: every directed path between them is positive and, for every
    common cause, its paths to ``x`` (avoiding ``y``) all carry the same
    sign as its paths to ``y`` (avoiding ``x``). NEGATIVE: the directed
    paths are all negative and each common cause's two path groups carry
    opposite signs. ZERO: no directed paths and no common causes at all, so
    the exact covariance is zero. UNDEFINED otherwise.
    """
    g.require(x, y)
    if x == y:
        raise GraphError("association of a node with itself is not defined")

    into_x = path_signs(g, x, avoid=y)
    into_y = path_signs(g, y, avoid=x)
    between = into_y.get(x, frozenset()) | into_x.get(y, frozenset())
    causes = [c for c in into_x if c in into_y]
    if not between and not causes:
        return Sign.ZERO

    positive_ok = between <= {Sign.POSITIVE}
    negative_ok = between <= {Sign.NEGATIVE}
    for c in causes:
        same, opposite = sign_agreement(into_x[c], into_y[c])
        positive_ok = positive_ok and same
        negative_ok = negative_ok and opposite
    if positive_ok:
        return Sign.POSITIVE
    if negative_ok:
        return Sign.NEGATIVE
    return Sign.UNDEFINED
