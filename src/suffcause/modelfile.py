"""Line-oriented model files: parsing, validation and canonical serialization.

The grammar is deliberately plain so fixtures diff well:

    node NAME
    edge FROM TO [+|-]
    equation NODE states N
    state INDEX prob NUM/DEN bits BITSTRING
    represent NODE term (one | states I,J,...) [LITERAL ...]
    assert KIND ARGS...

Blank lines and ``#`` comments are ignored. A state's bit string is indexed
by parent configuration: character ``c`` is the output when the packed
parent values equal ``c`` (parents ordered by node declaration). Supported
assertion kinds: ``no-synergism D E1 E2``, ``rep-flag D E1 E2 aK (zero|one)``,
``independent X Y``, ``cocause-independent D E1 E2 aI aJ`` and
``cov-sign X Y (<=0|>=0|=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .causes import CoCause, CoCauseKind, Conjunction, Literal, Representation, validate_representation
from .graph import Dag, GraphError
from .scm import ResponseTable, Scm
from .signs import Relation, directional_effect_holds


class ModelError(ValueError):
    """Parse or validation failure with line-numbered diagnostics."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = list(problems)
        super().__init__("\n".join(f"line {n}: {msg}" for n, msg in self.problems))


@dataclass(frozen=True)
class Assertion:
    kind: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"assert {self.kind} {' '.join(self.args)}".rstrip()


_ASSERT_ARITY = {
    "no-synergism": 3,
    "rep-flag": 5,
    "independent": 2,
    "cocause-independent": 5,
    "cov-sign": 3,
}
_COV_RELATIONS = tuple(r.value for r in (Relation.LE0, Relation.GE0, Relation.EQ0))
_FLAG_SLOTS = ("a0", "a1", "a2", "a3")


@dataclass(frozen=True)
class Model:
    """A parsed model: graph, optional equations, representations, assertions."""

    dag: Dag
    tables: Mapping[str, ResponseTable] = field(default_factory=dict)
    representations: Mapping[str, Representation] = field(default_factory=dict)
    assertions: tuple[Assertion, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tables", dict(self.tables))
        object.__setattr__(self, "representations", dict(self.representations))

    @property
    def fully_specified(self) -> bool:
        return all(n in self.tables for n in self.dag.nodes)

    def to_scm(self) -> Scm:
        if not self.fully_specified:
            missing = [n for n in self.dag.nodes if n not in self.tables]
            raise ModelError([(0, f"model lacks equations for {missing}")])
        return Scm(self.dag, self.tables)


def _tokens(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def _parse_prob(tok: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def parse_model(text: str) -> Model:
    """Parse and validate a model file; raises ModelError listing every problem."""
    problems: list[tuple[int, str]] = []
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    signs: dict[tuple[str, str], str] = {}
    equations: list[tuple[int, str, int, list[tuple[int, int, Fraction, str]]]] = []
    rep_terms: dict[str, list[tuple[int, Conjunction]]] = {}
    rep_order: list[str] = []
    assertions: list[Assertion] = []

    current_eq: tuple[int, str, int, list] | None = None
    for lineno, toks in _tokens(text):
        head, rest = toks[0], toks[1:]
        if head == "node":
            if len(rest) != 1:
                problems.append((lineno, "expected: node NAME"))
                continue
            if rest[0] in nodes:
                problems.append((lineno, f"duplicate node {rest[0]!r}"))
                continue
            nodes.append(rest[0])
        elif head == "edge":
            if len(rest) not in (2, 3):
                problems.append((lineno, "expected: edge FROM TO [+|-]"))
                continue
            a, b = rest[0], rest[1]
            edges.append((a, b))
            if len(rest) == 3:
                if rest[2] not in ("+", "-"):
                    problems.append((lineno, f"invalid edge sign {rest[2]!r}"))
                else:
                    signs[(a, b)] = rest[2]
        elif head == "equation":
            if len(rest) != 3 or rest[1] != "states":
                problems.append((lineno, "expected: equation NODE states N"))
                current_eq = None
                continue
            try:
                n = int(rest[2])
            except ValueError:
                problems.append((lineno, f"bad state count {rest[2]!r}"))
                current_eq = None
                continue
            current_eq = (lineno, rest[0], n, [])
            equations.append(current_eq)
        elif head == "state":
            if current_eq is None:
                problems.append((lineno, "state line outside an equation block"))
                continue
            if len(rest) != 5 or rest[1] != "prob" or rest[3] != "bits":
                problems.append((lineno, "expected: state INDEX prob NUM/DEN bits BITSTRING"))
                continue
            try:
                idx = int(rest[0])
                prob = _parse_prob(rest[2])
            except (ValueError, ZeroDivisionError):
                problems.append((lineno, f"bad state index or probability: {' '.join(rest)}"))
                continue
            if set(rest[4]) - {"0", "1"}:
                problems.append((lineno, f"bit string {rest[4]!r} must be 0/1"))
                continue
            current_eq[3].append((lineno, idx, prob, rest[4]))
        elif head == "represent":
            if len(rest) < 2 or rest[1] != "term":
                problems.append((lineno, "expected: represent NODE term (one|states I,J,...) [LITERAL ...]"))
                continue
            target, spec = rest[0], rest[2:]
            if not spec:
                problems.append((lineno, "representation term missing its co-cause"))
                continue
            if spec[0] == "one":
                cocause = CoCause.one()
                lits = spec[1:]
            elif spec[0] == "states":
                if len(spec) < 2:
                    problems.append((lineno, "expected state indices after 'states'"))
                    continue
                try:
                    states = tuple(int(s) for s in spec[1].split(","))
                except ValueError:
                    problems.append((lineno, f"bad state list {spec[1]!r}"))
                    continue
                cocause = CoCause(CoCauseKind.STATES, states)
                lits = spec[2:]
            else:
                problems.append((lineno, f"unknown co-cause {spec[0]!r} (use 'one' or 'states I,J,...')"))
                continue
            try:
                term = Conjunction(tuple(Literal.parse(l) for l in lits), cocause)
            except ValueError as e:
                problems.append((lineno, str(e)))
                continue
            if target not in rep_terms:
                rep_terms[target] = []
                rep_order.append(target)
            rep_terms[target].append((lineno, term))
        elif head == "assert":
            if not rest or rest[0] not in _ASSERT_ARITY:
                problems.append((lineno, f"unknown assertion {' '.join(rest) or '(empty)'!r}"))
                continue
            kind, args = rest[0], tuple(rest[1:])
            if len(args) != _ASSERT_ARITY[kind]:
                problems.append((lineno, f"assert {kind} expects {_ASSERT_ARITY[kind]} arguments"))
                continue
            assertions.append(Assertion(kind, args))
        else:
            problems.append((lineno, f"unknown directive {head!r}"))

    try:
        dag = Dag(nodes, edges, signs)
    except GraphError as e:
        problems.append((0, str(e)))
        raise ModelError(problems)

    tables: dict[str, ResponseTable] = {}
    for lineno, node, n, state_lines in equations:
        if node not in dag:
            problems.append((lineno, f"equation for unknown node {node!r}"))
            continue
        if node in tables:
            problems.append((lineno, f"duplicate equation for {node!r}"))
            continue
        parents = dag.parents(node)
        width = 1 << len(parents)
        rows: list[int] = []
        probs: list[Fraction] = []
        ok = True
        if len(state_lines) != n:
            problems.append((lineno, f"{node}: declared {n} states but listed {len(state_lines)}"))
            ok = False
        for sline, idx, prob, bits in state_lines:
            if idx != len(rows):
                problems.append((sline, f"{node}: state index {idx} out of order (expected {len(rows)})"))
                ok = False
            if len(bits) != width:
                problems.append((sline, f"{node}: bit string needs {width} bits for {len(parents)} parents"))
                ok = False
                continue
            rows.append(sum((1 << c) for c, ch in enumerate(bits) if ch == "1"))
            probs.append(prob)
        if not ok:
            continue
        try:
            tables[node] = ResponseTable(node, parents, tuple(rows), tuple(probs))
        except ValueError as e:
            problems.append((lineno, str(e)))

    for (a, b), s in signs.items():
        if b in tables and not directional_effect_holds(tables[b], a, s):
            problems.append((0, f"declared sign {s!r} on edge {a}->{b} contradicts the equation of {b}"))

    representations: dict[str, Representation] = {}
    for target in rep_order:
        lines = rep_terms[target]
        if target not in dag:
            problems.append((lines[0][0], f"representation for unknown node {target!r}"))
            continue
        parents = set(dag.parents(target))
        rep = Representation(target, tuple(t for _, t in lines))
        bad = False
        for lineno, term in lines:
            for lit in term.literals:
                if lit.base not in parents:
                    problems.append((lineno, f"{target}: literal {lit.render()} is not a parent"))
                    bad = True
        if bad:
            continue
        if target in tables:
            try:
                validate_representation(tables[target], rep)
            except ValueError as e:
                problems.append((lines[0][0], str(e)))
                continue
        representations[target] = rep

    for a in assertions:
        names = {
            "no-synergism": a.args[:3],
            "rep-flag": a.args[:3],
            "independent": a.args[:2],
            "cocause-independent": a.args[:3],
            "cov-sign": a.args[:2],
        }[a.kind]
        for n in names:
            if n not in dag:
                problems.append((0, f"assert {a.kind}: unknown node {n!r}"))
        if a.kind == "rep-flag" and (a.args[3] not in _FLAG_SLOTS or a.args[4] not in ("zero", "one")):
            problems.append((0, f"assert rep-flag: bad slot/value {a.args[3]!r} {a.args[4]!r}"))
        if a.kind == "cocause-independent" and (a.args[3] not in _FLAG_SLOTS or a.args[4] not in _FLAG_SLOTS):
            problems.append((0, f"assert cocause-independent: bad slots {a.args[3:]!r}"))
        if a.kind == "cov-sign" and a.args[2] not in _COV_RELATIONS:
            problems.append((0, f"assert cov-sign: bad relation {a.args[2]!r}"))

    if problems:
        raise ModelError(problems)
    return Model(dag, tables, representations, tuple(assertions))


def serialize_model(model: Model) -> str:
    """Canonical text form; parse(serialize(m)) == m."""
    lines: list[str] = []
    for n in model.dag.nodes:
        lines.append(f"node {n}")
    for a, b in model.dag.edges:
        s = model.dag.signs.get((a, b))
        lines.append(f"edge {a} {b}" + (f" {s}" if s else ""))
    for n in model.dag.nodes:
        t = model.tables.get(n)
        if t is None:
            continue
        lines.append(f"equation {n} states {t.n_states}")
        for j, (row, p) in enumerate(zip(t.rows, t.probs)):
            bits = "".join(str((row >> c) & 1) for c in range(t.n_configs))
            lines.append(f"state {j} prob {p.numerator}/{p.denominator} bits {bits}")
    for n in model.dag.nodes:
        rep = model.representations.get(n)
        if rep is None:
            continue
        for term in rep.terms:
            if term.cocause.kind is CoCauseKind.ONE:
                head = "one"
            else:
                head = "states " + ",".join(str(s) for s in term.cocause.states)
            lits = " ".join(l.render() for l in term.literals)
            lines.append(f"represent {n} term {head}" + (f" {lits}" if lits else ""))
    for a in model.assertions:
        lines.append(a.render())
    return "\n".join(lines) + "\n"


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
