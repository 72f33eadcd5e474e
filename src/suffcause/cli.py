"""Command-line interface: subcommand dispatch and report emission.

Reports are deterministic for a fixed (model, flags, seed): every list is
either declaration-ordered or explicitly sorted, and exact rationals are
rendered as "num/den" strings. Exit status is 0 when the answer is
established or verified, and 1 when a requested check fails or a premise
is violated; "not separated" and "not implied independent" verdicts count
as failed checks for scripting purposes. A usage, model or budget error
exits 2 with one "error:" line on stderr. Any other exception is a bug: it
exits 3 with one "internal error:" line, so a crash never reads as a
verdict.
The analysis itself lives in the library (``covsign.covsign_analysis``
and ``covsign.oracle_check``); this module parses and renders. Each
subcommand handler takes the loaded model and the parsed arguments and
returns (body, lines, ok): the JSON report's fields after "command" and
"model", the text lines, and the verdict. ``main`` loads the model, renders
one of the two forms and maps the verdict to the exit status.

``main`` builds only the parser of the subcommand named by its first
argument, from one table of subcommands (``_COMMANDS``); help, a missing
or an unknown subcommand build the full parser. The usage and error text
are the same either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import covsign as cs
from .causes import CoCauseKind, canonical_representation
from .expansion import expand_model, stratum_conditioning_set, stratum_witness
from .graph import find_unblocked_path
from .modelfile import Model, load_model
from .scm import DEFAULT_WORLD_BUDGET, dedupe_states
from .signs import Relation, detect_monotonic_effect, is_constant_in, monotonically_associated


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _term_dict(term) -> dict:
    return {
        "cocause": "one" if term.cocause.kind is CoCauseKind.ONE else list(term.cocause.states),
        "literals": [l.render() for l in term.literals],
        "rendered": term.render(),
    }


def _conclusion_dict(c: cs.SignConclusion) -> dict:
    out = {
        "quantity": c.quantity.render(),
        "relation": c.relation.value,
        "rule": c.rule,
        "premises": list(c.premises),
    }
    if c.other is not None:
        out["reference"] = c.other.render()
    return out


def _facts_dict(facts: cs.RepFacts) -> dict:
    out = {}
    for f in cs.FACT_FIELDS:
        v = getattr(facts, f)
        if isinstance(v, (cs.Flag, Relation)):
            v = v.value
        out[f] = {"value": v, "source": facts.sources.get(f, "none")}
    return out


def _premise_dict(rep: cs.TransferPremises) -> dict:
    return {
        "rule": rep.rule,
        "pairing": {"f": rep.f, "e1": rep.e1, "g": rep.g, "e2": rep.e2},
        "q": list(rep.q),
        "checks": [
            {"name": c.name, "holds": c.holds, "source": c.source, "detail": c.detail}
            for c in rep.checks
        ],
        "q_same_sign": rep.q_same_sign,
        "q_opposite_sign": rep.q_opposite_sign,
        "satisfied": rep.satisfied,
    }


def _analysis_dict(a: cs.CovsignAnalysis) -> dict:
    report: dict = {
        "target": a.facts.target,
        "parents": {
            "e1": a.facts.e1,
            "e2": a.facts.e2,
            "polarity": ["-" if n else "+" for n in a.facts.negative],
        },
        "facts": _facts_dict(a.facts),
        "parent_conclusions": [_conclusion_dict(c) for c in a.inner],
    }
    if a.premises is not None:
        direct, shared = a.premises
        report["transfer_premises"] = {"direct": _premise_dict(direct), "shared": _premise_dict(shared)}
        report["transferred_conclusions"] = [_conclusion_dict(c) for c in a.transferred]
        report["not_applicable"] = list(a.not_applicable)
    return report


# -- subcommands --------------------------------------------------------------

def _cmd_canonical(model: Model, args) -> tuple[dict, list[str], bool]:
    nodes = args.node or [n for n in model.dag.nodes if n in model.tables]
    entries = []
    lines = []
    for n in nodes:
        if n not in model.tables:
            raise ValueError(f"no equation for {n!r}")
        table = dedupe_states(model.tables[n])
        rep = canonical_representation(table)
        states = [
            {"index": j, "prob": _frac(p), "bits": format(r, f"0{table.n_configs}b")[::-1]}
            for j, (r, p) in enumerate(zip(table.rows, table.probs))
        ]
        entries.append({
            "node": n,
            "parents": list(table.parents),
            "states": states,
            "terms": [_term_dict(t) for t in rep.terms],
            "rendered": rep.render(),
        })
        lines.append(f"{n} = {rep.render()}")
        lines += [f"  state {s['index']} prob {s['prob']} bits {s['bits']}" for s in states]
    return {"representations": entries}, lines, True


def _cmd_expand(model: Model, args) -> tuple[dict, list[str], bool]:
    exp, source = expand_model(model, args.node)
    nodes = [{"name": n, "kind": exp.kind_of(n)} for n in exp.dag.nodes]
    edges = [
        {"from": a, "to": b, "sign": exp.dag.signs.get((a, b))}
        for a, b in exp.dag.edges
    ]
    lines = [f"node {n['name']}  # {n['kind']}" for n in nodes]
    for e in edges:
        suffix = f" {e['sign']}" if e["sign"] else ""
        lines.append(f"edge {e['from']} {e['to']}{suffix}")
    body = {
        "target": args.node,
        "representation": {"source": source, "terms": [_term_dict(t) for t in exp.terms]},
        "nodes": nodes,
        "edges": edges,
    }
    return body, lines, True


def _cmd_dsep(model: Model, args) -> tuple[dict, list[str], bool]:
    witness = find_unblocked_path(model.dag, args.x, args.y, args.z)
    separated = witness is None
    body = {
        "x": args.x, "y": args.y, "z": args.z,
        "separated": separated,
        "witness": None if witness is None else str(witness),
    }
    lines = [
        ("separated" if separated else "not separated")
        + (f"; witness: {witness}" if witness else "")
    ]
    return body, lines, separated


def _cmd_stratum_ci(model: Model, args) -> tuple[dict, list[str], bool]:
    exp, source = expand_model(model, args.node)
    witness = stratum_witness(exp, args.x, args.y, args.z, args.stratum)
    verdict = witness is None
    wording = "independent within stratum" if verdict else "not implied independent"
    body = {
        "target": args.node,
        "stratum": args.stratum,
        "x": args.x, "y": args.y, "z": args.z,
        "representation_source": source,
        "conditioning_set": sorted(stratum_conditioning_set(exp, args.stratum, args.z), key=exp.dag.index),
        "verdict": wording,
        "witness": None if witness is None else str(witness),
    }
    lines = [wording + (f"; witness: {witness}" if witness else "")]
    return body, lines, verdict


def _cmd_signs(model: Model, args) -> tuple[dict, list[str], bool]:
    edges = []
    lines = []
    for a, b in model.dag.edges:
        declared = model.dag.signs.get((a, b))
        computed = None
        degenerate = None
        if b in model.tables:
            table = model.tables[b]
            computed = detect_monotonic_effect(table, a).value
            degenerate = is_constant_in(table, a)
        edges.append({
            "from": a, "to": b,
            "declared": declared, "computed": computed, "degenerate": degenerate,
        })
        lines.append(
            f"edge {a} -> {b}: declared={declared or '?'} computed={computed or 'n/a'}"
            + (" (degenerate)" if degenerate else "")
        )
    assoc = []
    nodes = model.dag.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            s = monotonically_associated(model.dag, nodes[i], nodes[j])
            claim = Relation.of_association(s)
            claim = None if claim is Relation.UNKNOWN else claim.value
            assoc.append({
                "x": nodes[i], "y": nodes[j],
                "association": s.value,
                "cov_claim": claim,
            })
            lines.append(f"assoc {nodes[i]} ~ {nodes[j]}: {s.value} cov {claim or 'no claim'}")
    return {"edges": edges, "associations": assoc}, lines, True


def _cmd_covsign(model: Model, args) -> tuple[dict, list[str], bool]:
    analysis = cs.covsign_analysis(model, args.d, args.f, args.g, args.q, args.budget)
    lines = []
    for c in analysis.conclusions:
        lines.append(f"{c.quantity.render()} {c.relation.value}  [{c.rule}]")
    for na in analysis.not_applicable:
        lines.append(f"not applicable: {json.dumps(na)}")
    if not lines:
        lines.append("no conclusions established")
    return _analysis_dict(analysis), lines, analysis.ok


def _cmd_oracle_check(model: Model, args) -> tuple[dict, list[str], bool]:
    check = cs.oracle_check(
        model, args.d, args.f, args.g, args.q, args.budget,
        instances=args.instances, max_weight=args.max_weight, seed=args.seed,
    )
    body = {
        "seed": args.seed,
        "instances_accepted": check.accepted,
        "instances_drawn": check.drawn,
        **_analysis_dict(check.analysis),
        "verification": [{"conclusion": k, **v} for k, v in check.tallies.items()],
        "failures": list(check.failures),
    }
    lines = [f"instances: {check.accepted} accepted of {check.drawn} drawn"]
    for k, v in check.tallies.items():
        lines.append(f"{k}: {v['checked']} checked, {v['violations']} violations")
    return body, lines, check.ok


class _AppendOnce(argparse.Action):
    """A repeatable name flag that lists each name once, in first-given order."""

    def __call__(self, parser, namespace, values, option_string=None):
        names = getattr(namespace, self.dest) or []
        setattr(namespace, self.dest, names if values in names else [*names, values])


def _model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="path to a model file")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _pair_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=DEFAULT_WORLD_BUDGET,
                   help="largest number of rows an exact joint may reach while it is built")
    p.add_argument("--d", required=True, help="conditioning node")
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--q", action=_AppendOnce, default=[])


def _canonical_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node", action=_AppendOnce, default=None)


def _expand_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node", required=True)


def _dsep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", action=_AppendOnce, required=True)
    p.add_argument("--y", action=_AppendOnce, required=True)
    p.add_argument("--z", action=_AppendOnce, default=[])


def _stratum_ci_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", action=_AppendOnce, default=[])
    p.add_argument("--stratum", type=int, choices=(0, 1), default=0)


def _oracle_check_args(p: argparse.ArgumentParser) -> None:
    _pair_query_args(p)
    p.add_argument("--seed", type=int, default=0, help="generator seed of the first drawn instance")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--max-weight", type=int, default=8)


# name -> (help, adder of the arguments after the model and --format, handler)
_COMMANDS = {
    "canonical": ("canonical co-cause representation per node", _canonical_args, _cmd_canonical),
    "expand": ("graph expanded with sufficient-cause nodes", _expand_args, _cmd_expand),
    "dsep": ("d-separation query with witness path", _dsep_args, _cmd_dsep),
    "stratum-ci": ("conditional independence inside one stratum", _stratum_ci_args, _cmd_stratum_ci),
    "signs": ("monotonicity and association tables", lambda p: None, _cmd_signs),
    "covsign": ("conditional covariance sign conclusions", _pair_query_args, _cmd_covsign),
    "oracle-check": ("verify conclusions against the exact oracle", _oracle_check_args, _cmd_oracle_check),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The suffcause parser with every subcommand, or with ``command``'s alone.

    A one-command parser names all subcommands in its usage line, so its
    usage and error text match the full parser's. Help, no command and an
    unknown command need the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="suffcause",
        description="Sufficient-cause analysis of binary causal DAGs with an exact oracle.",
    )
    # an explicit metavar would also rename the action in the full parser's
    # "required" and "invalid choice" errors, so only the one-command parser gets it
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_args, fn = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _model_args(p)
        add_args(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        body, lines, ok = args.fn(load_model(args.model), args)
        if args.format == "json":
            print(json.dumps({"command": args.command, "model": args.model, **body}, indent=2))
        else:
            for line in lines:
                print(line)
        return 0 if ok else 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
