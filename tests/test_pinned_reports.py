"""Every subcommand's report on every fixture, pinned by one digest.

``cli.main`` runs in-process over a fixed argv set, from the repository
root with repository-relative model paths, so the reports (which echo the
model path) do not depend on where the checkout lives. The digest covers
each argv with its exit code, stdout and stderr. A change that is meant to
alter some output updates ``PINNED`` and says so in CHANGES.md.
"""

import hashlib
from itertools import combinations

from suffcause import load_model
from suffcause.cli import main

from support import FIXTURES

REPO = FIXTURES.parent

PINNED = "c2b26f458c5d7f9676dc89d5ded130385c0145319def516f330c43574a857757"


def _argvs() -> list[list[str]]:
    """Each fixture: canonical and signs; expand, covsign and oracle-check on
    each node; dsep and stratum-ci (both strata) on each node pair; covsign and
    oracle-check with proxies F, G on each pair around each two-parent node.
    Every argv in text and in JSON."""
    out = []
    for path in sorted(FIXTURES.glob("*.model")):
        rel = str(path.relative_to(REPO))
        model = load_model(path)
        nodes = model.dag.nodes
        target = next(iter(model.representations), nodes[-1])
        argvs = [["canonical", rel], ["signs", rel]]
        for n in nodes:
            argvs += [
                ["expand", rel, "--node", n],
                ["covsign", rel, "--d", n],
                ["oracle-check", rel, "--d", n, "--instances", "2"],
            ]
        for x, y in combinations(nodes, 2):
            argvs.append(["dsep", rel, "--x", x, "--y", y])
            for stratum in ("0", "1"):
                argvs.append(["stratum-ci", rel, "--node", target, "--x", x, "--y", y, "--stratum", stratum])
        for d in nodes:
            if len(model.dag.parents(d)) != 2:
                continue
            for f, g in combinations([n for n in nodes if n != d], 2):
                argvs += [
                    ["covsign", rel, "--d", d, "--f", f, "--g", g],
                    ["oracle-check", rel, "--d", d, "--f", f, "--g", g, "--instances", "2"],
                ]
        out += argvs + [argv + ["--format", "json"] for argv in argvs]
    return out


def test_fixture_reports_match_the_pinned_digest(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    digest = hashlib.sha256()
    argvs = _argvs()
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr()
        digest.update(repr((argv, code, out.out, out.err)).encode())
    assert len(argvs) == 2174
    assert digest.hexdigest() == PINNED
