"""CLI subcommands: reports, verdicts, exit codes."""

import json
import sys

import pytest

from suffcause import cli, scm
from suffcause.cli import main

from support import fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDsep:
    def test_witness_path_and_exit_code(self, capsys):
        code, out, _ = run(capsys, "dsep", fixture("coaggregation_full"),
                           "--x", "P2", "--y", "B1", "--z", "P1")
        assert code == 1
        assert "not separated" in out
        assert "P2 <- GP -> P1 <- E1 -> B1" in out

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
        assert doc["witness"] == "P2 <- GP -> P1 <- E1 -> B1"

    def test_separated_verdict_needs_no_witness_search(self, capsys, monkeypatch):
        # the exhaustive witness search runs only for a pair that is not separated
        def refuse(*args, **kwargs):
            raise AssertionError("witness search on a separated pair")

        monkeypatch.setattr(cli, "find_unblocked_path", refuse)
        code, out, _ = run(capsys, "dsep", fixture("pairs_disjoint"), "--x", "E1", "--y", "E3")
        assert code == 0
        assert out == "separated\n"

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


class TestStratumCi:
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
        assert err.startswith("error: 4 worlds exceed the budget of 2")
        assert len(err.splitlines()) == 1

    def test_fully_specified_model_uses_oracle_facts(self, capsys):
        code, out, _ = run(capsys, "covsign", fixture("pairs_overlap"),
                           "--d", "D", "--format", "json")
        # E2 is non-monotone on D, so the rule set must refuse
        assert code == 2


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
