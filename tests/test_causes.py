"""Sufficient-cause algebra: checks, reductions, canonical construction, events."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffcause import (
    CoCause,
    CoCauseKind,
    Conjunction,
    EventSpace,
    Literal,
    ResponseTable,
    canonical_representation,
    conj,
    is_determinative,
    is_minimal_sufficient,
    is_nonredundant,
    is_sufficient,
    reduce_to_minimal,
    reduce_to_nonredundant,
)

from support import (
    random_conjunction,
    ref_canonical_terms,
    ref_determinative,
    ref_minimal_sufficient,
    ref_nonredundant,
    ref_reduce_to_minimal,
    ref_reduce_to_nonredundant,
    ref_sufficient,
    seeded_tables,
)

half = Fraction(1, 2)


def det(parents, fn, node="D"):
    return ResponseTable.deterministic(node, parents, fn)


OR2 = det(("E1", "E2"), lambda a, b: a | b)
AND2 = det(("E1", "E2"), lambda a, b: a & b)
XOR2 = det(("E1", "E2"), lambda a, b: a ^ b)
# all four single-parent mechanisms, equally likely
FULL1 = ResponseTable("D", ("E",), (0, 1, 2, 3), (Fraction(1, 4),) * 4)


class TestDomainTypes:
    def test_cocause_normalization(self):
        assert CoCause.of_states((0, 1), n_states=2).kind is CoCauseKind.ONE
        assert CoCause.of_states((), n_states=2).kind is CoCauseKind.ZERO
        assert CoCause.of_states((1, 0, 1)).states == (0, 1)
        with pytest.raises(ValueError):
            CoCause(CoCauseKind.STATES, ())
        with pytest.raises(ValueError):
            CoCause.of_states((2,), n_states=2)

    def test_conjunction_rejects_duplicate_parent(self):
        with pytest.raises(ValueError, match="repeats"):
            Conjunction((Literal("E"), Literal("E", True)))

    def test_literal_parse_render(self):
        assert Literal.parse("~X") == Literal("X", True)
        assert Literal.parse("X").render() == "X"
        assert Literal("X", True).render() == "~X"

    @given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_conjunction_literal_order_is_canonical(self, names):
        a = Conjunction(tuple(Literal(n) for n in names))
        b = Conjunction(tuple(Literal(n) for n in reversed(names)))
        assert a == b


class TestSufficiency:
    def test_disjunct_is_sufficient_for_disjunction(self):
        assert is_sufficient(OR2, conj("E1"))

    def test_single_literal_not_sufficient_for_conjunction(self):
        assert not is_sufficient(AND2, conj("E1"))

    def test_state_bound_conjunction(self):
        # the identity mechanism state (row 2) completes E into a sufficient cause
        assert is_sufficient(FULL1, conj("E", states=(2,)))
        assert not is_sufficient(FULL1, conj("E", states=(1,)))
        assert not is_sufficient(FULL1, conj("E"))

    def test_foreign_literal(self):
        with pytest.raises(ValueError, match="not a parent"):
            is_sufficient(OR2, conj("Z"))
        with pytest.raises(ValueError, match="out of range"):
            is_sufficient(OR2, conj("E1", states=(5,)))


class TestMinimality:
    def test_pair_not_minimal_for_disjunction(self):
        assert not is_minimal_sufficient(OR2, conj("E1", "E2"))

    def test_pair_minimal_for_conjunction(self):
        assert is_minimal_sufficient(AND2, conj("E1", "E2"))

    def test_mechanism_terms_not_minimal_for_disjunction(self):
        # the three distinct mechanisms behind E1 v E2 are sufficient but none minimal
        for c in (conj("E1", "~E2"), conj("~E1", "E2"), conj("E1", "E2")):
            assert is_sufficient(OR2, c)
            assert not is_minimal_sufficient(OR2, c)

    def test_dropping_the_cocause_counts(self):
        t = det(("E",), lambda e: e)
        assert not is_minimal_sufficient(t, conj("E", states=(0,)))


class TestDeterminative:
    def test_by_definition(self):
        t = det(("B", "C", "E"), lambda b, c, e: b | (c & e), node="A")
        assert is_determinative(t, [conj("B"), conj("C", "E")])
        assert not is_determinative(t, [conj("B")])

    def test_nonredundant_requires_determinative(self):
        with pytest.raises(ValueError, match="not determinative"):
            is_nonredundant(OR2, [conj("E1")])

    def test_nonredundant(self):
        t = det(("B", "C", "E"), lambda b, c, e: b | (c & e), node="A")
        assert is_nonredundant(t, [conj("B"), conj("C", "E")])


class TestReduceToMinimal:
    def test_keeps_earliest_literal(self):
        assert reduce_to_minimal(OR2, conj("E1", "E2")) == conj("E1")

    def test_already_minimal_unchanged(self):
        assert reduce_to_minimal(AND2, conj("E1", "E2")) == conj("E1", "E2")

    def test_drops_superfluous_complement(self):
        t = det(("E1", "E2"), lambda a, b: a)
        assert reduce_to_minimal(t, conj("E1", "~E2")) == conj("E1")

    def test_requires_sufficiency(self):
        with pytest.raises(ValueError, match="not sufficient"):
            reduce_to_minimal(AND2, conj("E1"))

    def test_drops_cocause_when_possible(self):
        t = det(("E",), lambda e: e)
        two = ResponseTable("D", ("E",), (2, 3), (half, half))
        assert reduce_to_minimal(t, conj("E", states=(0,))) == conj("E")
        # here dropping the state restriction would not stay sufficient
        assert reduce_to_minimal(two, conj(states=(1,))) == conj(states=(1,))

    def test_result_is_always_minimal(self):
        rng = random.Random(9)
        for _ in range(200):
            rows = tuple(rng.sample(range(256), rng.randint(1, 4)))
            t = ResponseTable("D", ("A", "B", "C"), rows, (Fraction(1, len(rows)),) * len(rows))
            lits = [Literal(n, rng.random() < 0.5) for n in ("A", "B", "C") if rng.random() < 0.8]
            try:
                c = Conjunction(tuple(lits))
            except ValueError:
                continue
            if not is_sufficient(t, c):
                continue
            out = reduce_to_minimal(t, c)
            assert is_minimal_sufficient(t, out)
            assert set(out.literals) <= set(c.literals)


class TestReduceToNonredundant:
    def test_keeps_original_mechanisms(self):
        t = det(("B", "C", "E"), lambda b, c, e: b | (c & e), node="A")
        # CE implied by B v CE; CD-style middle term dropped by the scan
        terms = [conj("B"), conj("C", "E")]
        assert reduce_to_nonredundant(t, terms) == terms

    def test_requires_determinative(self):
        with pytest.raises(ValueError, match="not determinative"):
            reduce_to_nonredundant(OR2, [conj("E1")])

    def test_a_repeated_term_is_dropped_once(self):
        # the same object twice is two terms: one copy is redundant
        e1, e2 = conj("E1"), conj("E2")
        assert reduce_to_nonredundant(OR2, [e1, e2, e1]) == [e2, e1]
        assert not is_nonredundant(OR2, [e1, e2, e1])

    def test_result_is_nonredundant(self):
        rng = random.Random(10)
        checked = 0
        while checked < 100:
            rows = tuple(rng.sample(range(16), rng.randint(1, 3)))
            t = ResponseTable("D", ("E1", "E2"), rows, (Fraction(1, len(rows)),) * len(rows))
            rep = canonical_representation(t)
            if not rep.terms:
                continue
            out = reduce_to_nonredundant(t, list(rep.terms))
            assert is_determinative(t, out)
            assert is_nonredundant(t, out)
            checked += 1


class TestCanonicalRepresentation:
    def test_single_parent_full_family(self):
        rep = canonical_representation(FULL1)
        # D = A0 v A1*E v A2*~E with A0 the always-on state, A1 the identity
        # state, A2 the inverter state
        assert [t.render() for t in rep.terms] == ["{3}", "{2}*E", "{1}*~E"]

    def test_constant_zero_has_no_terms(self):
        rep = canonical_representation(det((), lambda: 0))
        assert rep.terms == ()
        assert is_determinative(det((), lambda: 0), rep.terms)

    def test_identity_mechanism(self):
        rep = canonical_representation(det(("E",), lambda e: e))
        assert [t.render() for t in rep.terms] == ["E"]

    def test_requires_deduped_states(self):
        t = ResponseTable("D", (), (1, 1), (half, half))
        with pytest.raises(ValueError, match="dedupe"):
            canonical_representation(t)

    def test_two_parent_or(self):
        rep = canonical_representation(OR2)
        assert [t.render() for t in rep.terms] == ["E1", "E2"]

    def test_redundant_canonical_witness(self):
        # Three parents: D = E1*E2 v A*~E2 has the consensus conjunction A*E1
        # as a third minimal sufficient cause, so the canonical representation
        # is determinative but redundant, and the reduction removes exactly
        # the consensus term.
        t = det(("E1", "E2", "A"), lambda e1, e2, a: (e1 & e2) | (a & (1 - e2)))
        rep = canonical_representation(t)
        assert [c.render() for c in rep.terms] == ["E1*E2", "A*E1", "A*~E2"]
        assert is_determinative(t, rep.terms)
        assert not is_nonredundant(t, rep.terms)
        reduced = reduce_to_nonredundant(t, list(rep.terms))
        assert [c.render() for c in reduced] == ["E1*E2", "A*~E2"]
        assert is_nonredundant(t, reduced)

    def test_monotone_table_canonical_avoids_complements(self):
        rng = random.Random(4)
        from support import MONOTONE_PAIR_ROWS
        for _ in range(60):
            rows = tuple(rng.sample(MONOTONE_PAIR_ROWS, rng.randint(1, 4)))
            t = ResponseTable("D", ("E1", "E2"), rows, (Fraction(1, len(rows)),) * len(rows))
            rep = canonical_representation(t)
            assert all(not l.complemented for c in rep.terms for l in c.literals)

    def _random_tables(self, rng, m, n_rows, count):
        space = 1 << (1 << m)
        parents = tuple(f"E{i}" for i in range(1, m + 1))
        for _ in range(count):
            k = rng.randint(1, n_rows)
            rows = tuple(rng.sample(range(space), k))
            yield ResponseTable("D", parents, rows, (Fraction(1, k),) * k)

    def test_soundness_small_tables(self):
        rng = random.Random(123)
        tables = list(self._random_tables(rng, 2, 5, 120))
        tables += list(self._random_tables(rng, 3, 5, 60))
        for t in tables:
            rep = canonical_representation(t)
            assert is_determinative(t, rep.terms)
            for term in rep.terms:
                assert is_minimal_sufficient(t, term)

    def test_plain_term_preference(self):
        # no unrestricted term subsumes another unrestricted term
        rng = random.Random(321)
        for t in self._random_tables(rng, 2, 4, 150):
            rep = canonical_representation(t)
            plain = [frozenset(c.literals) for c in rep.terms
                     if c.cocause.kind is CoCauseKind.ONE]
            for a, b in combinations(plain, 2):
                assert not (a < b or b < a)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return "error", str(e)


class TestMatchesAtomReference:
    """Every table-surface predicate, reduction and canonical form agrees with
    the literal definitions read atom by atom (tests/support.py)."""

    def _compare(self, table, conjunctions, term_lists):
        for c in conjunctions:
            assert outcome(is_sufficient, table, c) == outcome(ref_sufficient, table, c)
            assert outcome(is_minimal_sufficient, table, c) == outcome(ref_minimal_sufficient, table, c)
            assert outcome(reduce_to_minimal, table, c) == outcome(ref_reduce_to_minimal, table, c)
        for terms in term_lists:
            assert outcome(is_determinative, table, terms) == outcome(ref_determinative, table, terms)
            assert outcome(is_nonredundant, table, terms) == outcome(ref_nonredundant, table, terms)
            assert outcome(reduce_to_nonredundant, table, terms) == outcome(
                ref_reduce_to_nonredundant, table, terms
            )
        assert list(canonical_representation(table).terms) == ref_canonical_terms(table)

    def _term_lists(self, rng, table, pool):
        canonical = list(canonical_representation(table).terms)
        lists = [canonical, canonical + canonical[:1], canonical + [rng.choice(pool)]]
        lists += [rng.sample(pool, rng.randint(0, min(4, len(pool)))) for _ in range(4)]
        return lists

    def test_every_single_parent_table(self):
        rng = random.Random(41)
        literal_sets = [(), ("E",), ("~E",), ("Z",), ("~E", "Z")]
        for k in range(1, 5):
            for rows in permutations(range(4), k):
                table = ResponseTable("D", ("E",), rows, (Fraction(1, k),) * k)
                cocauses = [CoCause.one(), CoCause.zero(), CoCause(CoCauseKind.STATES, (k,))]
                cocauses += [
                    CoCause(CoCauseKind.STATES, states)
                    for size in range(1, k + 1) for states in combinations(range(k), size)
                ]
                conjunctions = [
                    Conjunction(tuple(Literal.parse(l) for l in lits), cocause)
                    for lits in literal_sets for cocause in cocauses
                ]
                pool = [c for c in conjunctions if "Z" not in c.bases() and c.cocause.states != (k,)]
                self._compare(table, conjunctions, self._term_lists(rng, table, pool) + [conjunctions[:3]])

    def test_seeded_tables_with_two_to_five_parents(self):
        rng = random.Random(42)
        for table in seeded_tables(43, 24, min_parents=2, max_parents=5):
            conjunctions = [random_conjunction(rng, table) for _ in range(30)]
            pool = [random_conjunction(rng, table, foreign=0) for _ in range(12)]
            self._compare(table, conjunctions, self._term_lists(rng, table, pool))

    def test_canonical_renders_match_recorded_digest(self):
        # digest of 1,000 canonical renders recorded before the masks were
        # built once per call; 0-5 parents, 1-6 states
        renders = "\n".join(canonical_representation(t).render() for t in seeded_tables(20261018, 1000))
        assert hashlib.sha256(renders.encode()).hexdigest()[:16] == "c60ed6b2d45eaaf9"


class TestEventAlgebra:
    def setup_method(self):
        self.space = EventSpace("B", "C", "E", "F")
        B, C, E, F = self.space.vars()
        self.A = B | (C & E)
        self.events = {"B": B, "C": C, "D": E & F, "E": E}

    def test_minimal_sufficient_conjunctions_without_e(self):
        events = {k: self.events[k] for k in ("B", "C", "D")}
        got = self.space.minimal_sufficient_conjunctions(self.A, events)
        assert got == [("B",), ("C", "D")]

    def test_minimal_sufficient_conjunctions_with_e(self):
        got = self.space.minimal_sufficient_conjunctions(self.A, self.events)
        assert got == [("B",), ("C", "D"), ("C", "E")]

    def test_b_or_cd_is_not_determinative(self):
        ev = self.events
        assert not self.space.determinative(self.A, [[ev["B"]], [ev["C"], ev["D"]]])

    def test_b_cd_ce_is_determinative_but_redundant(self):
        ev = self.events
        terms = [[ev["B"]], [ev["C"], ev["D"]], [ev["C"], ev["E"]]]
        assert self.space.determinative(self.A, terms)
        assert not self.space.nonredundant(self.A, terms)

    def test_b_ce_nonredundant(self):
        ev = self.events
        terms = [[ev["B"]], [ev["C"], ev["E"]]]
        assert self.space.determinative(self.A, terms)
        assert self.space.nonredundant(self.A, terms)

    def test_constant_zero_target(self):
        assert self.space.minimal_sufficient_conjunctions(0, self.events) == []

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="no candidate"):
            self.space.minimal_sufficient_conjunctions(self.A, {})

    def test_derived_event_redundancy(self):
        # target D = AB v EF with the derived event Q = BE: the conjunction AQ
        # is minimal sufficient, and {AB, AQ, EF} is determinative but redundant
        sp = EventSpace("A", "B", "E", "F")
        A, B, E, F = sp.vars()
        D = (A & B) | (E & F)
        Q = B & E
        assert sp.minimal_sufficient(D, [A, Q])
        terms = [[A, B], [A, Q], [E, F]]
        assert sp.determinative(D, terms)
        assert not sp.nonredundant(D, terms)
        assert sp.nonredundant(D, [[A, B], [E, F]])

    def test_event_sufficiency_basics(self):
        ev = self.events
        assert self.space.sufficient(self.A, [ev["B"]])
        assert not self.space.sufficient(self.A, [ev["C"]])

    def test_event_reduction_drops_the_middle_conjunction(self):
        ev = self.events
        terms = [[ev["B"]], [ev["C"], ev["D"]], [ev["C"], ev["E"]]]
        reduced = self.space.reduce_nonredundant(self.A, terms)
        assert reduced == [[ev["B"]], [ev["C"], ev["E"]]]
        assert self.space.nonredundant(self.A, reduced)
        with pytest.raises(ValueError, match="not determinative"):
            self.space.reduce_nonredundant(self.A, [[ev["B"]]])

    def test_empty_conjunction_is_the_sure_event(self):
        # the meet of no events is the whole space, so only a sure target is
        # forced by it, and then it is the one minimal sufficient conjunction
        sp = self.space
        B, C, E, F = sp.vars()
        assert sp.sufficient(sp.all, [])
        assert not sp.sufficient(self.A, [])
        assert sp.minimal_sufficient(sp.all, [])
        assert sp.minimal_sufficient_conjunctions(sp.all, {"B": B, "C": C}) == [()]
        assert not sp.minimal_sufficient(sp.all, [B])
        assert sp.determinative(sp.all, [[]])
        assert sp.nonredundant(sp.all, [[]])
        assert sp.reduce_nonredundant(sp.all, [[B], [], [sp.invert(B)]]) == [[]]
