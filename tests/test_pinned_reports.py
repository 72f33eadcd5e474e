"""Every subcommand's report on every fixture, pinned by one digest.

``cli.main`` runs in-process over a fixed argv set, from the repository
root with repository-relative model paths, so the reports (which echo the
model path) do not depend on where the checkout lives. The digest covers
each argv with its exit code, stdout and stderr. A change that is meant to
alter some output updates ``PINNED`` and says so in CHANGES.md.

``pinned_reports.txt`` holds a short digest of each argv's report, so a
failure names the argv whose report moved, and it must agree with
``PINNED``. After an intended output change, re-record it with
``PYTHONPATH=src python tests/test_pinned_reports.py`` and review its diff.
"""

import hashlib
import json
import os
import shlex
from itertools import combinations

from suffcause import load_model
from suffcause.cli import main

from support import FIXTURES

REPO = FIXTURES.parent
MANIFEST = REPO / "tests" / "pinned_reports.txt"

PINNED = "8bcbaa374bb339b00cb4784d28b3d24f2d5a57061071357c555b7f18badc2337"


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


def _reports(run) -> list[tuple[list[str], bytes]]:
    """Each argv with its (argv, exit code, stdout, stderr) record, via ``run``."""
    return [(argv, repr((argv, *run(argv))).encode()) for argv in _argvs()]


def _short(record: bytes) -> str:
    return hashlib.sha256(record).hexdigest()[:12]


def _recorded() -> dict[str, str]:
    lines = MANIFEST.read_text().splitlines() if MANIFEST.exists() else []
    return {key: short for short, _, key in (line.partition(" ") for line in lines)}


def test_fixture_reports_match_the_pinned_digest(capsys, monkeypatch):
    monkeypatch.chdir(REPO)

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    digest = hashlib.sha256()
    argvs = []
    moved = []
    recorded = _recorded()
    for argv, record in _reports(run):
        argvs.append(argv)
        digest.update(record)
        if recorded.get(shlex.join(argv)) != _short(record):
            moved.append(shlex.join(argv))
    assert len(argvs) == 2174
    assert digest.hexdigest() == PINNED, f"{len(moved)} reports moved:\n" + "\n".join(moved)
    assert not moved, f"{MANIFEST.name} is stale for {len(moved)} argvs:\n" + "\n".join(moved)


def test_every_claim_is_checked_once_per_accepted_instance(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    answered = 0
    for argv in _argvs():
        if argv[0] != "oracle-check" or "json" not in argv:
            continue
        code = main(argv)
        out = capsys.readouterr().out
        if code == 2:
            continue
        report = json.loads(out)
        answered += 1
        for entry in report["verification"]:
            assert entry["checked"] == report["instances_accepted"], (shlex.join(argv), entry)
    assert answered == 29


if __name__ == "__main__":
    import contextlib
    import io

    def run_quietly(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    os.chdir(REPO)
    MANIFEST.write_text("".join(f"{_short(record)} {shlex.join(argv)}\n" for argv, record in _reports(run_quietly)))
