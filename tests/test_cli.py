"""CLI subcommands: reports, verdicts, exit codes."""

import argparse
import functools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from suffcause import (
    Dag,
    ModelError,
    Representation,
    ResponseTable,
    canonical_representation,
    cli,
    expand_model,
    expansion,
    find_unblocked_path,
    load_model,
    parse_model,
    reduce_to_nonredundant,
    scm,
    serialize_model,
    stratum_conditioning_set,
    stratum_witness,
)
from suffcause.cli import main
from suffcause.covsign import FACT_FIELDS
from suffcause.modelfile import Model

from support import FIXTURES, fixture, path_blocked, seeded_tables

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReadme:
    def test_the_command_line_examples_run_as_documented(self, capsys, monkeypatch):
        # each `suffcause ...` line of the README's "Command line" block, from the repo root
        section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        commands = [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("suffcause ")]
        assert [argv[0] for argv in commands] == [
            "canonical", "expand", "dsep", "stratum-ci", "signs", "covsign", "oracle-check"
        ]
        monkeypatch.chdir(README.parent)
        outs = {}
        for argv in commands:
            code, outs[argv[0]], err = run(capsys, *argv)
            assert code in (0, 1) and err == "", (argv, code, err)
        # the flagship: derived on the null model, then checked with no violation
        assert re.search(r"^Cov\(B1,P2 \| P1=1\) <=0 ", outs["covsign"], re.M), outs["covsign"]
        assert re.search(r"^Cov\(B1,P2 \| P1=1\) <=0 \[.*\]: 100 checked, 0 violations$",
                         outs["oracle-check"], re.M), outs["oracle-check"]
        # with the familial factor restored the path opens and the rule set does not apply
        assert "P2 <- F -> B1" in outs["dsep"]
        code, _, err = run(capsys, "covsign", "fixtures/coaggregation_full.model",
                           "--d", "P1", "--f", "B1", "--g", "P2")
        assert code == 2 and "P1 has parents ['GP', 'E1', 'F']" in err, (code, err)


class TestDsep:
    def test_witness_path_and_exit_code(self, capsys):
        code, out, _ = run(capsys, "dsep", fixture("coaggregation_full"),
                           "--x", "P2", "--y", "B1", "--z", "P1")
        assert code == 1
        assert "not separated" in out
        assert "P2 <- F -> B1" in out

    def test_separated_exit_zero(self, capsys):
        code, out, _ = run(capsys, "dsep", fixture("pairs_disjoint"),
                           "--x", "E1", "--y", "E3")
        assert code == 0
        assert out.startswith("separated")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "dsep", fixture("coaggregation_full"),
                           "--x", "P2", "--y", "B1", "--z", "P1", "--format", "json")
        doc = json.loads(out)
        assert doc["separated"] is False
        assert doc["witness"] == "P2 <- F -> B1"

    def test_a_repeated_name_is_echoed_once(self, capsys):
        once = run(capsys, "dsep", fixture("coaggregation_full"),
                   "--x", "GB", "--y", "P2", "--z", "F", "--format", "json")
        twice = run(capsys, "dsep", fixture("coaggregation_full"), "--x", "GB", "--x", "GB",
                    "--y", "P2", "--y", "P2", "--z", "F", "--z", "F", "--format", "json")
        assert twice == once
        doc = json.loads(once[1])
        assert (doc["x"], doc["y"], doc["z"]) == (["GB"], ["P2"], ["F"])

    def test_one_search_per_query(self, capsys, monkeypatch):
        # the verdict and the witness come from a single d-connection search,
        # which stratum-ci leaves to the library
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_unblocked_path(*args, **kwargs)

        monkeypatch.setattr(cli, "find_unblocked_path", counted)
        monkeypatch.setattr(expansion, "find_unblocked_path", counted)
        queries = [
            (0, "dsep", fixture("pairs_disjoint"), "--x", "E1", "--y", "E3"),
            (1, "dsep", fixture("coaggregation_full"), "--x", "P2", "--y", "B1", "--z", "P1"),
            (0, "stratum-ci", fixture("pairs_disjoint"), "--node", "D", "--x", "E1", "--y", "E3"),
            (1, "stratum-ci", fixture("pairs_overlap"), "--node", "D", "--x", "E1", "--y", "A"),
        ]
        for expected, *argv in queries:
            calls.clear()
            code, _, _ = run(capsys, *argv)
            assert (code, len(calls)) == (expected, 1), argv

    def test_set_valued_x_witness_ignores_hash_seed(self):
        # start states follow declaration order, not set iteration order
        argv = [sys.executable, "-m", "suffcause", "dsep", fixture("coaggregation_full"),
                "--x", "E1", "--x", "GB", "--x", "F", "--y", "B1"]
        outs = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            outs.add((proc.returncode, proc.stdout, proc.stderr))
        assert outs == {(1, "not separated; witness: GB -> B1\n", "")}

    def test_unknown_node_is_error(self, capsys):
        code, _, err = run(capsys, "dsep", fixture("pairs_disjoint"), "--x", "NOPE", "--y", "D")
        assert code == 2
        assert "unknown node" in err

    def test_seed_is_not_a_dsep_flag(self, capsys):
        # --seed and --budget are declared only where they are read
        with pytest.raises(SystemExit) as exc:
            main(["dsep", fixture("pairs_disjoint"), "--x", "E1", "--y", "E3", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestCanonical:
    def test_pairs_overlap_target(self, capsys):
        code, out, _ = run(capsys, "canonical", fixture("pairs_overlap"), "--node", "D")
        assert code == 0
        assert "D = E1*E2 v A*E1 v A*~E2" in out

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "canonical", fixture("pairs_overlap"),
                           "--node", "D", "--format", "json")
        doc = json.loads(out)
        (entry,) = doc["representations"]
        assert [t["rendered"] for t in entry["terms"]] == ["E1*E2", "A*E1", "A*~E2"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_repeated_node_is_listed_once(self, capsys, fmt):
        once = run(capsys, "canonical", fixture("pairs_overlap"), "--node", "D", "--format", fmt)
        twice = run(capsys, "canonical", fixture("pairs_overlap"), "--node", "D", "--node", "D", "--format", fmt)
        assert twice == once


class TestExpand:
    def test_annotated_nodes(self, capsys):
        code, out, _ = run(capsys, "expand", fixture("pairs_disjoint"),
                           "--node", "D", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        kinds = {n["name"]: n["kind"] for n in doc["nodes"]}
        assert kinds["D"] == "or"
        assert kinds["E1E2"] == "and"
        assert kinds["E1"] == "base"
        assert doc["representation"]["source"] == "declared"

    def test_text_graph_format(self, capsys):
        _, out, _ = run(capsys, "expand", fixture("pairs_disjoint"), "--node", "D")
        assert "node E1E2  # and" in out
        assert "edge E1E2 D" in out


REP_ONLY = (
    "node E1\nnode E2\nnode A\nnode D\nedge E1 D\nedge E2 D\nedge A D\n"
    "represent D term one E1 E2\nrepresent D term one A ~E2\n"
)


class TestRepresentationOnly:
    # pairs_overlap's graph and declared representation without its equations

    def test_expand_needs_no_equations(self, capsys, tmp_path):
        path = tmp_path / "rep.model"
        path.write_text(REP_ONLY)
        code, out, _ = run(capsys, "expand", str(path), "--node", "D", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["representation"]["source"] == "declared"
        assert {n["name"]: n["kind"] for n in doc["nodes"]}["E1E2"] == "and"
        _, with_equations, _ = run(capsys, "expand", fixture("pairs_overlap"), "--node", "D", "--format", "json")
        assert doc["nodes"] == json.loads(with_equations)["nodes"]

    def test_stratum_ci_gives_the_graphical_verdict(self, capsys, tmp_path):
        path = tmp_path / "rep.model"
        path.write_text(REP_ONLY)
        code, out, _ = run(capsys, "stratum-ci", str(path), "--node", "D", "--x", "E1", "--y", "A")
        assert code == 1
        assert "not implied independent" in out
        assert "E1 -> E1E2 <- E2 -> A~E2 <- A" in out


class TestNamingFallback:
    # the AND node of the term E1 would be "E1" or "M0", and both are taken
    MODEL = "node M0\nnode E1\nnode D\nedge E1 D +\nequation D states 1\nstate 0 prob 1 bits 01\n"

    def test_expand_and_stratum_ci_name_the_node_past_its_fallback(self, capsys, tmp_path):
        path = tmp_path / "m0.model"
        path.write_text(self.MODEL)
        code, out, _ = run(capsys, "expand", str(path), "--node", "D")
        assert code == 0
        assert "node M0_1  # and" in out
        code, out, _ = run(capsys, "stratum-ci", str(path), "--node", "D", "--x", "E1", "--y", "M0", "--stratum", "0")
        assert code == 0


class TestStratumCi:
    def test_json_matches_the_library_on_seeded_expansions(self, capsys, tmp_path):
        # the report carries the library's verdict, witness and conditioning
        # set, for canonical and declared representations alike
        rng = random.Random(2412)
        path = tmp_path / "seeded.model"
        found = {True: 0, False: 0}
        for table in seeded_tables(2412, 12, min_parents=1, max_parents=3, max_states=4):
            dag = Dag([*table.parents, "D"], [(p, "D") for p in table.parents])
            canonical = canonical_representation(table)
            if not canonical.terms:
                continue
            reps = {"D": Representation("D", tuple(reduce_to_nonredundant(table, canonical.terms)))}
            roots = {p: ResponseTable.bernoulli(p, Fraction(1, 2)) for p in table.parents}
            for model in (Model(dag, {**roots, "D": table}), Model(dag, {**roots, "D": table}, reps)):
                path.write_text(serialize_model(model))
                exp, source = expand_model(load_model(str(path)), "D")
                nodes = exp.dag.nodes
                for _ in range(12):
                    x, y = rng.sample(nodes, 2)
                    z = rng.sample([n for n in nodes if n not in (x, y)], rng.randint(0, 1))
                    stratum = rng.randint(0, 1)
                    cond = stratum_conditioning_set(exp, stratum, z)
                    if x in cond or y in cond:
                        continue
                    argv = ["stratum-ci", str(path), "--node", "D", "--x", x, "--y", y,
                            "--stratum", str(stratum), "--format", "json"]
                    for n in z:
                        argv += ["--z", n]
                    code, out, _ = run(capsys, *argv)
                    doc = json.loads(out)
                    w = stratum_witness(exp, x, y, z, stratum)
                    assert (code, doc["witness"]) == (int(w is not None), None if w is None else str(w)), argv
                    assert doc["verdict"] == ("independent within stratum" if w is None else "not implied independent")
                    assert doc["representation_source"] == source
                    assert doc["conditioning_set"] == sorted(cond, key=exp.dag.index)
                    assert w is None or not path_blocked(exp.dag, w, cond)
                    found[w is None] += 1
        assert found[True] >= 5 and found[False] >= 50, found

    def test_a_repeated_z_is_echoed_once(self, capsys):
        argv = ("stratum-ci", fixture("pairs_overlap"), "--node", "D", "--x", "E1", "--y", "A", "--format", "json")
        once = run(capsys, *argv, "--z", "E2")
        twice = run(capsys, *argv, "--z", "E2", "--z", "E2")
        assert twice == once
        assert json.loads(once[1])["z"] == ["E2"]

    def test_independent_within_stratum(self, capsys):
        code, out, _ = run(capsys, "stratum-ci", fixture("pairs_disjoint"),
                           "--node", "D", "--x", "E1", "--y", "E3", "--stratum", "0")
        assert code == 0
        assert "independent within stratum" in out

    def test_not_implied_wording_and_witness(self, capsys):
        code, out, _ = run(capsys, "stratum-ci", fixture("pairs_overlap"),
                           "--node", "D", "--x", "E1", "--y", "A", "--stratum", "0")
        assert code == 1
        assert "not implied independent" in out
        assert "E1 -> E1E2 <- E2 -> A~E2 <- A" in out

    def test_redundant_fixture_difference(self, capsys):
        code, _, _ = run(capsys, "stratum-ci", fixture("redundancy_base"),
                         "--node", "D", "--x", "A", "--y", "E", "--stratum", "0")
        assert code == 0
        code, _, _ = run(capsys, "stratum-ci", fixture("redundancy_extra"),
                         "--node", "D", "--x", "A", "--y", "E", "--stratum", "0")
        assert code == 1


class TestSigns:
    def test_edge_and_association_table(self, capsys):
        code, out, _ = run(capsys, "signs", fixture("coaggregation_null"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        by_edge = {(e["from"], e["to"]): e for e in doc["edges"]}
        assert by_edge[("E1", "P1")]["declared"] == "+"
        assoc = {(a["x"], a["y"]): a for a in doc["associations"]}
        assert assoc[("E1", "B1")]["association"] == "+"
        assert assoc[("E1", "B1")]["cov_claim"] == ">=0"
        assert assoc[("GP", "E1")]["cov_claim"] == "=0"

    def test_computed_signs_with_equations(self, capsys):
        _, out, _ = run(capsys, "signs", fixture("pairs_overlap"), "--format", "json")
        doc = json.loads(out)
        by_edge = {(e["from"], e["to"]): e for e in doc["edges"]}
        assert by_edge[("E1", "D")]["computed"] == "+"
        assert by_edge[("E2", "D")]["computed"] == "?"


class TestCovsign:
    def test_null_coaggregation_conclusion(self, capsys):
        code, out, _ = run(capsys, "covsign", fixture("coaggregation_null"),
                           "--d", "P1", "--f", "B1", "--g", "P2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        transferred = {c["quantity"]: c["relation"] for c in doc["transferred_conclusions"]}
        assert transferred["Cov(B1,P2 | P1=1)"] == "<=0"
        assert doc["facts"]["a3"] == {"value": "zero", "source": "assertion"}
        assert doc["facts"]["e_cov"] == {"value": "=0", "source": "structural"}
        assert doc["transfer_premises"]["shared"]["satisfied"] is True
        assert doc["transfer_premises"]["direct"]["satisfied"] is False

    def test_symmetric_query(self, capsys):
        code, out, _ = run(capsys, "covsign", fixture("coaggregation_null"),
                           "--d", "P2", "--f", "B2", "--g", "P1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        transferred = {c["quantity"]: c["relation"] for c in doc["transferred_conclusions"]}
        assert transferred["Cov(B2,P1 | P2=1)"] == "<=0"

    def test_premise_failure_is_structured_not_silent(self, capsys):
        # without the no-synergism assertion nothing licenses an inner conclusion
        import tempfile, os
        text = open(fixture("coaggregation_null")).read()
        stripped = "\n".join(l for l in text.splitlines() if not l.startswith("assert"))
        with tempfile.NamedTemporaryFile("w", suffix=".model", delete=False) as fh:
            fh.write(stripped)
            path = fh.name
        try:
            code, out, _ = run(capsys, "covsign", path,
                               "--d", "P1", "--f", "B1", "--g", "P2", "--format", "json")
            doc = json.loads(out)
            assert code == 1
            assert doc["parent_conclusions"] == []
            assert doc["transferred_conclusions"] == []
        finally:
            os.unlink(path)

    def test_too_many_parents_is_an_error(self, capsys):
        code, _, err = run(capsys, "covsign", fixture("coaggregation_full"),
                           "--d", "P1", "--f", "B1", "--g", "P2")
        assert code == 2
        assert "exactly two" in err

    def test_budget_error_exits_2_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "pair.model"
        path.write_text(PAIR_FULL)
        code, out, err = run(capsys, "covsign", str(path), "--d", "D", "--budget", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: 4 joint rows at node E2 exceed the budget of 2")
        assert len(err.splitlines()) == 1

    def test_fully_specified_model_uses_oracle_facts(self, capsys):
        code, out, _ = run(capsys, "covsign", fixture("pairs_overlap"),
                           "--d", "D", "--format", "json")
        # E2 is non-monotone on D, so the rule set must refuse
        assert code == 2

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    @pytest.mark.parametrize("source, extra, given", [
        ("coaggregation_null", ("--d", "P1", "--g", "P2"), "g=P2"),
        ("coaggregation_null", ("--d", "P1", "--f", "B1"), "f=B1"),
        ("transfer_shared_a", ("--d", "D", "--q", "Q"), "q=Q"),
        ("transfer_shared_a", ("--d", "D", "--f", "F", "--q", "Q"), "f=F, q=Q"),
    ])
    def test_a_transfer_needs_both_proxies(self, capsys, command, source, extra, given):
        code, out, err = run(capsys, command, fixture(source), *extra)
        assert (code, out) == (2, "")
        assert err == f"error: a transfer to proxies needs both f and g; got {given}\n"

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    def test_q_needs_proxies_other_than_the_parent_pair(self, capsys, command):
        # the parent pair as proxies is no transfer, so q would be dropped
        argv = ("--d", "D", "--f", "E1", "--g", "E2", "--q", "Q")
        code, out, err = run(capsys, command, fixture("transfer_shared_a"), *argv)
        assert (code, out) == (2, "")
        assert err == "error: q needs proxies other than D's parents; got f=E1, g=E2, q=Q\n"

    # Q shares its ancestor R with itself, which must not count as two
    # dependent shared causes
    REPEATED_Q = (
        "node R\nnode Q\nnode E1\nnode E2\nnode D\nnode F\nnode G\n"
        "edge R Q +\nedge Q F +\nedge Q G -\nedge E1 D +\nedge E1 F +\nedge E2 D +\nedge E2 G +\n"
        "assert no-synergism D E1 E2\n"
    )

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    def test_a_repeated_q_is_one_cause(self, capsys, tmp_path, command):
        path = tmp_path / "shared.model"
        path.write_text(self.REPEATED_Q)
        argv = (command, str(path), "--d", "D", "--f", "F", "--g", "G", "--format", "json")
        once = run(capsys, *argv, "--q", "Q")
        assert once[0] == 0
        assert "proxy-shared+no_synergy_d1" in once[1]
        assert run(capsys, *argv, "--q", "Q", "--q", "Q") == once

    # F shares the cause H with E1 on unsigned edges, so only an assertion
    # gives Cov(F, E1) >= 0
    SHARED_WITH_E1 = (
        "node H\nnode E1\nnode E2\nnode D\nnode F\nnode G\n"
        "edge E1 D +\nedge E2 D +\nedge E1 F\nedge E2 G +\nedge H F\nedge H E1\n"
        "assert no-synergism D E1 E2\n"
    )

    def test_an_asserted_proxy_covariance_opens_the_direct_transfer(self, capsys, tmp_path):
        path = tmp_path / "proxy.model"
        argv = ("covsign", str(path), "--d", "D", "--f", "F", "--g", "G", "--format", "json")
        path.write_text(self.SHARED_WITH_E1 + "assert cov-sign F E1 >=0\n")
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        direct = doc["transfer_premises"]["direct"]
        check = next(c for c in direct["checks"] if c["name"] == "cov_f_e1_nonneg")
        assert code == 0 and direct["satisfied"]
        assert (check["holds"], check["source"], check["detail"]) == (True, "assertion", "asserted >=0")
        assert [c["rule"] for c in doc["transferred_conclusions"]] == ["proxy-direct", "proxy-direct+no_synergy_d1"]
        path.write_text(self.SHARED_WITH_E1)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert {"rule": "proxy-direct", "failed_premises": ["cov_f_e1_nonneg"]} in json.loads(out)["not_applicable"]

    def test_an_inner_conclusion_with_no_direction_is_not_applicable(self, capsys, tmp_path):
        # Q reaches F and G on unsigned edges, so neither direction is licensed
        path = tmp_path / "unsigned_q.model"
        path.write_text(
            "node E1\nnode E2\nnode Q\nnode D\nnode F\nnode G\n"
            "edge E1 D +\nedge E2 D +\nedge E1 F +\nedge E2 G +\nedge Q F\nedge Q G\n"
            "assert no-synergism D E1 E2\n"
        )
        code, out, _ = run(capsys, "covsign", str(path), "--d", "D", "--f", "F", "--g", "G", "--q", "Q",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 1
        assert doc["transferred_conclusions"] == []
        assert doc["not_applicable"] == [{
            "rule": "proxy-shared", "inner": "no_synergy_d1",
            "reason": "no transferable direction: inner <=0 with q_same_sign=False, q_opposite_sign=False",
        }]

    def test_a_parent_without_a_monotonic_effect_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "xor.model"
        path.write_text(
            "node E1\nnode E2\nnode D\nedge E1 D\nedge E2 D\n"
            "equation D states 1\nstate 0 prob 1/1 bits 0110\n"
        )
        code, out, err = run(capsys, "covsign", str(path), "--d", "D")
        assert (code, out, err) == (2, "", "error: E1 has no monotonic effect on D; the rule set does not apply\n")


PAIR_FULL = (
    "node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D +\n"
    "equation E1 states 2\nstate 0 prob 1/2 bits 1\nstate 1 prob 1/2 bits 0\n"
    "equation E2 states 2\nstate 0 prob 1/2 bits 1\nstate 1 prob 1/2 bits 0\n"
    "equation D states 1\nstate 0 prob 1 bits 0111\n"
)


class TestOracleCheck:
    def test_random_sweep_on_null_fixture(self, capsys):
        code, out, _ = run(capsys, "oracle-check", fixture("coaggregation_null"),
                           "--d", "P1", "--f", "B1", "--g", "P2",
                           "--instances", "15", "--seed", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["instances_accepted"] == 15
        assert all(v["violations"] == 0 for v in doc["verification"])

    def test_fully_specified_model_verifies_exactly(self, capsys, tmp_path):
        path = tmp_path / "pair.model"
        path.write_text(PAIR_FULL)
        code, out, _ = run(capsys, "oracle-check", str(path), "--d", "D", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["instances_accepted"] == 1
        assert all(v["violations"] == 0 for v in doc["verification"])
        quantities = {v["conclusion"] for v in doc["verification"]}
        assert any(q.startswith("Cov(E1,E2 | D=1) <=0") for q in quantities)

    def test_assertion_driven_sweep_without_equations(self, capsys, tmp_path):
        # a purely structural model: the generator honors the signed edges and
        # the asserted co-cause flag, and every instance passes exactly
        text = (
            "node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D +\n"
            "assert rep-flag D E1 E2 a0 zero\n"
        )
        path = tmp_path / "bg.model"
        path.write_text(text)
        code, out, _ = run(capsys, "oracle-check", str(path), "--d", "D",
                           "--instances", "25", "--seed", "11", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["instances_accepted"] == 25
        keys = {v["conclusion"] for v in doc["verification"]}
        assert any(k.startswith("Cov(E1,E2 | D=1) <=0 [no_background_d1]") for k in keys)
        assert all(v["violations"] == 0 for v in doc["verification"])

    def test_four_parent_target_is_an_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", fixture("pairs_disjoint"),
                           "--d", "D", "--f", "E1", "--g", "E3", "--format", "json")
        assert code == 2
        assert "exactly two" in err

    def test_fully_specified_model_builds_one_joint(self, capsys, tmp_path, monkeypatch):
        real = scm.joint_distribution
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # every module that imported the function by name gets the counter
        for name, module in list(sys.modules.items()):
            if name.startswith("suffcause") and getattr(module, "joint_distribution", None) is real:
                monkeypatch.setattr(module, "joint_distribution", counting)
        path = tmp_path / "pair.model"
        path.write_text(PAIR_FULL)
        code, _, _ = run(capsys, "oracle-check", str(path), "--d", "D")
        assert code == 0
        assert len(calls) == 1

    def test_budget_error_exits_2_without_traceback(self, capsys):
        code, out, err = run(capsys, "oracle-check", fixture("coaggregation_null"),
                             "--d", "P1", "--f", "B1", "--g", "P2", "--budget", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "exceed the budget of 10" in err
        assert len(err.splitlines()) == 1


class TestPremisesMatchFacts:
    """A premise naming a fact repeats the value and source of the report's ``facts`` block."""

    PREMISE = re.compile(r"(\w+)=(\S+) \((\w+)\)")

    def reports(self, capsys):
        for path in sorted(FIXTURES.glob("*.model")):
            nodes = load_model(path).dag.nodes
            for d in nodes:
                others = [n for n in nodes if n != d]
                queries = [("covsign",), ("oracle-check", "--instances", "2")]
                queries += [("covsign", "--f", f, "--g", g) for f, g in combinations(others, 2)]
                for command, *extra in queries:
                    code, out, _ = run(capsys, command, str(path), "--d", d, *extra, "--format", "json")
                    if code != 2:
                        yield json.loads(out)

    def test_every_fact_premise_agrees_with_the_facts(self, capsys):
        checked = 0
        for report in self.reports(capsys):
            for c in report["parent_conclusions"] + report.get("transferred_conclusions", []):
                for premise in c["premises"]:
                    m = self.PREMISE.fullmatch(premise)
                    if m is None or m[1] not in FACT_FIELDS:
                        continue
                    fact = report["facts"][m[1]]
                    value = str(fact["value"]).lower() if isinstance(fact["value"], bool) else fact["value"]
                    assert (m[2], m[3]) == (value, fact["source"]), (report["target"], c["rule"], premise)
                    checked += 1
        assert checked >= 100


CONTRADICTIONS = (
    ("assert rep-flag D E1 E2 a1 zero\nassert rep-flag D E2 E1 a2 one\n", "slot a1", "zero and one"),
    ("assert no-synergism D E1 E2\nassert rep-flag D E1 E2 a3 one\n", "slot a3", "zero and one"),
)


class TestContradictoryFlags:
    PAIR = "node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D +\n"

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    @pytest.mark.parametrize("assertions,slot,values", CONTRADICTIONS, ids=["swapped-pair", "no-synergism"])
    def test_two_flags_on_one_slot_exit_2(self, capsys, tmp_path, command, assertions, slot, values):
        path = tmp_path / "pair.model"
        path.write_text(self.PAIR + assertions)
        code, out, err = run(capsys, command, str(path), "--d", "D")
        assert code == 2
        assert out == ""
        assert err.startswith("error: contradictory assertions on D: ")
        assert slot in err and values in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    def test_repeated_identical_flag_is_accepted(self, capsys, tmp_path, command):
        path = tmp_path / "pair.model"
        path.write_text(self.PAIR + "assert rep-flag D E1 E2 a1 zero\nassert rep-flag D E2 E1 a2 zero\n")
        code, _, _ = run(capsys, command, str(path), "--d", "D", "--format", "json")
        assert code == 0


class TestCountValidation:
    ARGS = ("--d", "P1", "--f", "B1", "--g", "P2")

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-weight", "0", "error: max_weight must be at least 1, got 0\n"),
        ("--instances", "-3", "error: instances must be at least 1, got -3\n"),
        ("--instances", "0", "error: instances must be at least 1, got 0\n"),
    ])
    def test_bad_count_exits_2_naming_the_parameter(self, capsys, flag, value, message):
        code, out, err = run(capsys, "oracle-check", fixture("coaggregation_null"), *self.ARGS, flag, value)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("command", ["covsign", "oracle-check"])
    @pytest.mark.parametrize("source,args", [
        ("coaggregation_null", ARGS),  # premise-only
        ("redundancy_extra", ("--d", "Q", "--f", "A", "--g", "F")),  # fully specified
    ])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_budget_below_1_exits_2_before_any_work(self, capsys, command, source, args, value):
        code, out, err = run(capsys, command, fixture(source), *args, "--budget", value)
        assert (code, out, err) == (2, "", f"error: budget must be at least 1, got {value}\n")

    def test_generator_constraints_reject_bad_ranges(self):
        from suffcause import Dag, draw_plan
        g = Dag(["E", "D"], [("E", "D")])
        with pytest.raises(ValueError, match="max_weight"):
            draw_plan(g, max_weight=0)
        for states in ((0, 3), (3, 2)):
            with pytest.raises(ValueError, match="states range"):
                draw_plan(g, states=states)


class TestInternalError:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "find_unblocked_path", broken)
        code, out, err = run(capsys, "dsep", fixture("pairs_disjoint"), "--x", "E1", "--y", "E3")
        assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


class TestRendering:
    """``main`` prints a handler's report, and a failed write is an error, not a crash."""

    class _BrokenPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_broken_stdout_exits_2_with_one_error_line(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(sys, "stdout", self._BrokenPipe())
        code = main(["signs", fixture("coaggregation_full"), "--format", fmt])
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")

    def test_empty_text_report_prints_nothing(self, capsys):
        # coaggregation_null has no equations, so canonical has no lines to print
        assert run(capsys, "canonical", fixture("coaggregation_null")) == (0, "", "")
        code, out, _ = run(capsys, "canonical", fixture("coaggregation_null"), "--format", "json")
        assert code == 0 and json.loads(out)["representations"] == []


COMMANDS = ("canonical", "expand", "dsep", "stratum-ci", "signs", "covsign", "oracle-check")


def _exit(capsys, parse) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    """``main`` builds only the requested subcommand's parser; no text may change."""

    @pytest.mark.parametrize("argv", [
        ["dsep", fixture("coaggregation_full"), "--x", "P2", "--y", "B1", "extra"],
        ["canonical", fixture("coaggregation_full"), "--bogus"],
    ])
    def test_unrecognized_arguments_usage_lists_every_subcommand(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _exit(capsys, lambda: main(argv)) == (2, "", (
            "usage: suffcause [-h]\n"
            "                 {canonical,expand,dsep,stratum-ci,signs,covsign,oracle-check}\n"
            "                 ...\n"
            f"suffcause: error: unrecognized arguments: {argv[-1]}\n"
        ))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parser_text_matches_full_parser(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser(command).format_usage() == cli.build_parser().format_usage()
        for argv in ([command, "-h"], [command], [command, fixture("pairs_overlap"), "--bogus"]):
            full = _exit(capsys, lambda: cli.build_parser().parse_args(argv))
            assert _exit(capsys, lambda: main(argv)) == full, argv

    @staticmethod
    def _parsers_built(capsys, monkeypatch, argv) -> tuple[int, int]:
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        capsys.readouterr()
        return code, len(built)

    @pytest.mark.parametrize("argv", [
        ["canonical", fixture("pairs_overlap")],
        ["expand", fixture("pairs_overlap"), "--node", "D"],
        ["dsep", fixture("pairs_overlap"), "--x", "E1", "--y", "E2"],
        ["stratum-ci", fixture("pairs_overlap"), "--node", "D", "--x", "E1", "--y", "E2"],
        ["signs", fixture("transfer_shared_b")],
        ["covsign", fixture("transfer_shared_b"), "--d", "D"],
        ["oracle-check", fixture("coaggregation_null"), "--d", "P1", "--f", "B1", "--g", "P2", "--instances", "1"],
    ])
    def test_valid_call_builds_two_parsers(self, capsys, monkeypatch, argv):
        # the top-level parser and the requested subcommand's
        code, built = self._parsers_built(capsys, monkeypatch, argv)
        assert code in (0, 1) and built == 2, (code, built)

    @pytest.mark.parametrize("argv, code", [(["-h"], 0), ([], 2), (["bogus"], 2)])
    def test_help_and_unknown_commands_build_every_parser(self, capsys, monkeypatch, argv, code):
        assert self._parsers_built(capsys, monkeypatch, argv) == (code, 1 + len(COMMANDS))


FIXTURE_NAMES = (
    "coaggregation_full", "coaggregation_null", "pairs_disjoint", "pairs_overlap", "redundancy_base",
    "redundancy_extra", "transfer_chain_a", "transfer_chain_b", "transfer_descendants",
    "transfer_shared_a", "transfer_shared_b",
)
FUZZ_WORDS = (
    "node", "edge", "equation", "states", "state", "prob", "bits", "represent", "term", "one",
    "assert", "no-synergism", "rep-flag", "independent", "cocause-independent", "cov-sign",
    "a0", "a1", "a2", "a3", "zero", "+", "-", "<=0", ">=0", "=0", "#",
    "D", "E1", "E2", "A", "B", "P1", "~E1", "~A", "Z",
    "0", "1", "2", "3", "-1", "99999999999", "1/2", "1/1", "0/1", "1/0", "-1/2", "3/2", "x/y",
    "0,1", "1,0,5", ",", "01", "0111", "0001", "00011101", "2", "1" * 16, "",
)
FUZZ_NODES = ("D", "E1", "E2", "A", "B", "P1", "P2", "Z", "")


FUZZ_LINES = (
    "assert no-synergism {n} {n} {n}", "assert rep-flag {n} {n} {n} {slot} {value}",
    "assert independent {n} {n}", "assert cocause-independent {n} {n} {n} {slot} {slot}",
    "assert cov-sign {n} {n} {relation}", "represent {n} term one {lit}",
    "represent {n} term states {states} {lit} {lit}", "edge {n} {n} {sign}", "edge {n} {n}", "node {n}",
    "equation {n} states 1\nstate 0 prob 1 bits {bits}",
)


def _fuzz_node(rng, names):
    """Mostly a node of the model, sometimes any name."""
    return rng.choice(names) if names and rng.random() < 0.9 else rng.choice(FUZZ_NODES)


def _fuzz_line(rng, names):
    def pick(field):
        if field == "n":
            return _fuzz_node(rng, names)
        if field == "lit":
            return rng.choice(("", "~")) + pick("n")
        return rng.choice({
            "slot": ("a0", "a1", "a2", "a3", "a4"), "value": ("zero", "one", "half"),
            "relation": ("<=0", ">=0", "=0", "<0"), "states": ("0", "1", "0,1", "2,0", "-1", "x"),
            "sign": ("+", "-", "*"), "bits": ("0", "1", "01", "0111", "0001", "00011101"),
        }[field])

    return re.sub(r"\{(\w+)\}", lambda m: pick(m.group(1)), rng.choice(FUZZ_LINES))


def _fuzz_model(rng):
    """A fixture or a small model, then a few grammar-shaped lines and random token edits."""
    pick = rng.random()
    if pick < 0.5:
        text = Path(fixture(rng.choice(FIXTURE_NAMES))).read_text()
    else:
        text = REP_ONLY if pick < 0.75 else PAIR_FULL
    lines = [l.split() for l in text.splitlines()]
    names = [l[1] for l in lines if len(l) == 2 and l[0] == "node"]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        op = rng.random()
        i = rng.randrange(len(lines) + 1)
        if op < 0.4 or i == len(lines):
            lines[i:i] = [l.split() for l in _fuzz_line(rng, names).splitlines()]
        elif op < 0.5:
            lines.insert(i, [rng.choice(FUZZ_WORDS) for _ in range(rng.randint(1, 7))])
        elif op < 0.6:
            del lines[i]
        elif op < 0.7:
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = rng.randrange(len(lines[i]))
            if op < 0.9:
                lines[i][j] = rng.choice(FUZZ_WORDS + tuple(names))
            else:
                del lines[i][j]
    return "\n".join(" ".join(l) for l in lines) + "\n"


DAG_PROBLEM = re.compile(
    r"graph contains a directed cycle|edge \(.*\) references an unknown node|self-loop on .*|duplicate edge \(.*\)"
)


def _fuzz_argv(rng, path, text):
    lines = [l.split() for l in text.splitlines()]
    names = [l[1] for l in lines if len(l) == 2 and l[0] == "node"]
    targets = [l[2] for l in lines if len(l) >= 3 and l[0] == "edge"]
    node = functools.partial(_fuzz_node, rng, names)
    command = rng.choice(("canonical", "expand", "dsep", "stratum-ci", "signs", "covsign", "oracle-check"))
    argv = [command, path]
    if command in ("canonical", "expand", "stratum-ci") and (command != "canonical" or rng.random() < 0.5):
        argv += ["--node", node()]
    if command in ("dsep", "stratum-ci"):
        argv += ["--x", node(), "--y", node()]
        argv += ["--z", node()] * rng.randint(0, 1)
    if command == "stratum-ci":
        argv += ["--stratum", rng.choice(("0", "1") * 5 + ("2",))]
    if command in ("covsign", "oracle-check"):
        argv += ["--d", rng.choice(targets) if targets and rng.random() < 0.8 else node()]
        for flag in ("--f", "--g", "--q"):
            if rng.random() < 0.3:
                argv += [flag, node()]
        if rng.random() < 0.2:
            argv += ["--budget", rng.choice(("0", "-1", "4", "64"))]
    if command == "oracle-check":
        argv += ["--instances", rng.choice(("1", "2") * 4 + ("0", "-1"))]
        argv += ["--max-weight", rng.choice(("1", "3") * 4 + ("0",))]
        argv += ["--seed", rng.choice(("0", "7", "-5"))]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(FUZZ_WORDS))
    return argv


def _flag_lines(rng):
    """One to four flag assertions on D, in either pair order, often contradictory or unsatisfiable."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        pair = rng.choice(("E1 E2", "E2 E1"))
        if rng.random() < 0.25:
            lines.append(f"assert no-synergism D {pair}")
        else:
            slot, value = rng.choice(("a0", "a1", "a2", "a3")), rng.choice(("zero", "one"))
            lines.append(f"assert rep-flag D {pair} {slot} {value}")
    return lines


def _flag_model(rng):
    """A premise-only pair, or the pair with proxies F and G; random edge signs into D."""
    s1, s2 = rng.choice("+-"), rng.choice("+-")
    if rng.random() < 0.5:
        return f"node E1\nnode E2\nnode D\nedge E1 D {s1}\nedge E2 D {s2}\n", []
    text = (
        "node A\nnode E1\nnode E2\nnode D\nnode F\nnode G\n"
        f"edge A E1 +\nedge E1 D {s1}\nedge E2 D {s2}\nedge E1 F +\nedge E2 G +\n"
    )
    return text, ["--f", "F", "--g", "G"]


class TestFuzzNeverTraceback:
    def test_random_token_models_on_every_subcommand(self, capsys, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "fuzz.model"
        codes, answered = {}, set()
        for _ in range(2000):
            text = _fuzz_model(rng)
            path.write_text(text)
            argv = _fuzz_argv(rng, str(path), text)
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, text, err)
            assert "Traceback" not in err and "internal error" not in err, (argv, text, err)
            codes[code] = codes.get(code, 0) + 1
            if code != 2:
                answered.add(argv[0])
            try:
                parse_model(text)
            except ModelError as e:
                # only the graph-wide problems Dag raises lack a directive's line
                assert all(n > 0 or DAG_PROBLEM.fullmatch(m) for n, m in e.problems), (text, e.problems)
        # enough cases stay valid that every subcommand answers and every code shows up
        assert answered == {"canonical", "expand", "dsep", "stratum-ci", "signs", "covsign", "oracle-check"}
        assert min(codes.get(c, 0) for c in (0, 1, 2)) >= 30, codes

    def test_random_flag_sets_never_traceback(self, capsys, tmp_path):
        rng = random.Random(61018)
        path = tmp_path / "flags.model"
        codes, unsatisfiable = {}, 0
        t0 = time.monotonic()
        for _ in range(150):
            text, proxies = _flag_model(rng)
            path.write_text(text + "\n".join(_flag_lines(rng)) + "\n")
            argv = ["oracle-check", str(path), "--d", "D", *proxies,
                    "--instances", rng.choice(("1", "2", "3")), "--seed", str(rng.randrange(50))]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, path.read_text(), err)
            assert "Traceback" not in err and "internal error" not in err, (argv, path.read_text(), err)
            codes[code] = codes.get(code, 0) + 1
            unsatisfiable += "carries the asserted flags" in err
        assert time.monotonic() - t0 < 3.0
        # contradictory and unsatisfiable sets exit 2; satisfiable ones are checked
        assert codes.get(0, 0) >= 20 and codes.get(2, 0) >= 20 and unsatisfiable >= 10, (codes, unsatisfiable)

    def test_unsatisfiable_flags_exit_2_fast(self, capsys, tmp_path):
        path = tmp_path / "flags.model"
        path.write_text(
            "node E1\nnode E2\nnode D\nedge E1 D +\nedge E2 D +\n"
            "assert rep-flag D E1 E2 a0 one\nassert rep-flag D E1 E2 a1 one\n"
        )
        t0 = time.monotonic()
        code, out, err = run(capsys, "oracle-check", str(path), "--d", "D", "--instances", "100")
        assert time.monotonic() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: no table the generator can draw for D carries the asserted flags "
            "a0=one, a1=one on (E1, E2)\n"
        )
