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


_FLAG_SLOTS = ("a0", "a1", "a2", "a3")
# kind -> (count of leading node arguments, label of a bad later argument,
#          allowed values of each later argument); the arity is their sum
_ASSERTS: dict[str, tuple[int, str, tuple[tuple[str, ...], ...]]] = {
    "no-synergism": (3, "", ()),
    "rep-flag": (3, "bad slot/value", (_FLAG_SLOTS, ("zero", "one"))),
    "independent": (2, "", ()),
    "cocause-independent": (3, "bad slots", (_FLAG_SLOTS, _FLAG_SLOTS)),
    "cov-sign": (2, "bad relation", (tuple(r.value for r in (Relation.LE0, Relation.GE0, Relation.EQ0)),)),
}


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


def _parse_term(spec: list[str]) -> Conjunction:
    """A ``represent`` line's co-cause and literals, everything after ``term``."""
    if not spec:
        raise ValueError("representation term missing its co-cause")
    if spec[0] == "one":
        return Conjunction(tuple(Literal.parse(l) for l in spec[1:]), CoCause.one())
    if spec[0] != "states":
        raise ValueError(f"unknown co-cause {spec[0]!r} (use 'one' or 'states I,J,...')")
    if len(spec) < 2:
        raise ValueError("expected state indices after 'states'")
    try:
        states = tuple(int(s) for s in spec[1].split(","))
    except ValueError:
        raise ValueError(f"bad state list {spec[1]!r}") from None
    return Conjunction(tuple(Literal.parse(l) for l in spec[2:]), CoCause(CoCauseKind.STATES, states))


def _parse_assertion(rest: list[str]) -> Assertion:
    """An ``assert`` line's kind and arguments, with its arity and later values checked."""
    if not rest or rest[0] not in _ASSERTS:
        raise ValueError(f"unknown assertion {' '.join(rest) or '(empty)'!r}")
    kind, args = rest[0], tuple(rest[1:])
    n_nodes, label, allowed = _ASSERTS[kind]
    if len(args) != n_nodes + len(allowed):
        raise ValueError(f"assert {kind} expects {n_nodes + len(allowed)} arguments")
    if any(v not in ok for v, ok in zip(args[n_nodes:], allowed)):
        raise ValueError(f"assert {kind}: {label} {' '.join(repr(v) for v in args[n_nodes:])}")
    return Assertion(kind, args)


def parse_model(text: str) -> Model:
    """Parse and validate a model file; raises ModelError listing every problem.

    Each problem names the line of its directive, except the graph-wide ones
    ``Dag`` raises (a cycle, an edge to an unknown node, a self-loop, a
    duplicate edge), which are reported as line 0 and end parsing.
    """
    problems: list[tuple[int, str]] = []
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    signs: dict[tuple[str, str], tuple[str, int]] = {}
    equations: list[tuple[int, str, int, list[tuple[int, int, Fraction, str]]]] = []
    rep_terms: dict[str, list[tuple[int, Conjunction]]] = {}
    assertions: list[tuple[int, Assertion]] = []

    current_eq: tuple[int, str, int, list] | None = None
    for lineno, toks in _tokens(text):
        head, rest = toks[0], toks[1:]
        try:
            if head == "node":
                if len(rest) != 1:
                    raise ValueError("expected: node NAME")
                if rest[0] in nodes:
                    raise ValueError(f"duplicate node {rest[0]!r}")
                nodes.append(rest[0])
            elif head == "edge":
                if len(rest) not in (2, 3):
                    raise ValueError("expected: edge FROM TO [+|-]")
                edges.append((rest[0], rest[1]))
                if len(rest) == 3:
                    if rest[2] not in ("+", "-"):
                        raise ValueError(f"invalid edge sign {rest[2]!r}")
                    signs[(rest[0], rest[1])] = (rest[2], lineno)
            elif head == "equation":
                current_eq = None
                if len(rest) != 3 or rest[1] != "states":
                    raise ValueError("expected: equation NODE states N")
                try:
                    current_eq = (lineno, rest[0], int(rest[2]), [])
                except ValueError:
                    raise ValueError(f"bad state count {rest[2]!r}") from None
                equations.append(current_eq)
            elif head == "state":
                if current_eq is None:
                    raise ValueError("state line outside an equation block")
                if len(rest) != 5 or rest[1] != "prob" or rest[3] != "bits":
                    raise ValueError("expected: state INDEX prob NUM/DEN bits BITSTRING")
                try:
                    idx, prob = int(rest[0]), _parse_prob(rest[2])
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"bad state index or probability: {' '.join(rest)}") from None
                if set(rest[4]) - {"0", "1"}:
                    raise ValueError(f"bit string {rest[4]!r} must be 0/1")
                current_eq[3].append((lineno, idx, prob, rest[4]))
            elif head == "represent":
                if len(rest) < 2 or rest[1] != "term":
                    raise ValueError("expected: represent NODE term (one|states I,J,...) [LITERAL ...]")
                term = _parse_term(rest[2:])  # before registering: no target without terms
                rep_terms.setdefault(rest[0], []).append((lineno, term))
            elif head == "assert":
                assertions.append((lineno, _parse_assertion(rest)))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ValueError as e:
            problems.append((lineno, str(e)))

    try:
        dag = Dag(nodes, edges, {edge: s for edge, (s, _) in signs.items()})
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
            rows.append(int(bits[::-1], 2))  # bit c of the row is character c
            probs.append(prob)
        if not ok:
            continue
        try:
            tables[node] = ResponseTable(node, parents, tuple(rows), tuple(probs))
        except ValueError as e:
            problems.append((lineno, str(e)))

    for (a, b), (s, lineno) in signs.items():
        if b in tables and not directional_effect_holds(tables[b], a, s):
            problems.append((lineno, f"declared sign {s!r} on edge {a}->{b} contradicts the equation of {b}"))

    representations: dict[str, Representation] = {}
    for target, lines in rep_terms.items():
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

    for lineno, a in assertions:
        for n in a.args[:_ASSERTS[a.kind][0]]:
            if n not in dag:
                problems.append((lineno, f"assert {a.kind}: unknown node {n!r}"))

    if problems:
        raise ModelError(problems)
    return Model(dag, tables, representations, tuple(a for _, a in assertions))


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
            bits = format(row, f"0{t.n_configs}b")[::-1]
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
