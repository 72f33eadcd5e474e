"""The package's layering: its runtime imports form no cycle, and oracle-check
crosses into the oracle once per draw and once per claim verdict.

Every import statement in ``src/suffcause/*.py`` counts, including those
inside functions; imports under ``if TYPE_CHECKING:`` do not run and are
left out.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "suffcause"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _imported(node: ast.AST) -> set[str]:
    """Package modules a node's runtime imports load; ``__init__`` stands for the package."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
        return set().union(*map(_imported, node.orelse))
    out: set[str] = set()
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 or node.module == "suffcause" or (node.module or "").startswith("suffcause."):
            base = (node.module or "").removeprefix("suffcause").lstrip(".")
            if base:
                out.add(base.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    elif isinstance(node, ast.Import):
        for a in node.names:
            if a.name == "suffcause" or a.name.startswith("suffcause."):
                out.add(a.name.removeprefix("suffcause").lstrip(".").split(".")[0] or "__init__")
    for child in ast.iter_child_nodes(node):
        out |= _imported(child)
    return out


def import_graph() -> dict[str, set[str]]:
    return {m: _imported(ast.parse((PACKAGE / f"{m}.py").read_text())) - {m} for m in MODULES}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a module list that returns to its start, or None."""
    state: dict[str, int] = {}  # 1: on the current path, 2: done
    path: list[str] = []

    def visit(m: str) -> list[str] | None:
        state[m] = 1
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if n not in state:
                found = visit(n)
                if found:
                    return found
        path.pop()
        state[m] = 2
        return None

    for m in sorted(graph):
        if m not in state:
            found = visit(m)
            if found:
                return found
    return None


def test_reader_sees_function_level_imports_and_skips_type_checking():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from . import oracle\n"
        "from .graph import Dag\n"
        "if TYPE_CHECKING:\n    from .covsign import CovQuantity\n"
        "def f():\n    from .scm import Scm\n    import suffcause.causes\n"
    )
    assert _imported(tree) == {"oracle", "graph", "scm", "causes"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_runtime_imports_are_acyclic():
    graph = import_graph()
    assert graph["covsign"] >= {"oracle", "signs"}
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_covsign_reads_the_pair_slots_without_the_canonical_algebra():
    assert "causes" not in import_graph()["covsign"]


def test_every_draw_and_claim_verdict_crosses_into_the_oracle(monkeypatch):
    # the traced benchmark counts draws at oracle.random_instance and reads
    # each draw's outcome off the oracle.verify_claim calls that follow it,
    # so a draw or a verdict that bypasses them would read as no work at all
    from suffcause import covsign, load_model, oracle
    from suffcause.covsign import Outcome

    verdicts_per_draw: list[int] = []
    draw, verify = oracle.random_instance, oracle.verify_claim

    def drawing(*args, **kwargs):
        verdicts_per_draw.append(0)
        return draw(*args, **kwargs)

    def verifying(*args, **kwargs):
        verdicts_per_draw[-1] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(oracle, "random_instance", drawing)
    monkeypatch.setattr(oracle, "verify_claim", verifying)
    model = load_model(str(PACKAGE.parent.parent / "fixtures" / "coaggregation_null.model"))
    check = covsign.oracle_check(model, "P1", "B1", "P2", instances=100, seed=7)
    claims = len({c.key() for c in check.analysis.conclusions})
    assert check.accepted == 100 and len(verdicts_per_draw) == check.drawn > check.accepted
    for record, verdicts in zip(check.draws, verdicts_per_draw):
        # a draw whose conditioning event has probability 0 stops at the claim that finds it
        assert verdicts == claims if record.outcome is Outcome.ACCEPTED else verdicts < claims
