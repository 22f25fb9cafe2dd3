import json

import pytest

from scfkit.cli import main
from scfkit.core import parse_profile
from scfkit.rules import RULES, TabledFunction


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def profile_file(tmp_path):
    def write(text, name="profile.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestEval:
    @pytest.mark.parametrize(
        "rule,text,expected",
        [
            ("maj", "3 3\n1 1 2\n", "1"),
            ("uc", "3 3\n1 1 2\n", "0"),
            ("lex", "2 2\n2 1\n", "1"),
        ],
    )
    def test_documented_examples(self, capsys, profile_file, rule, text, expected):
        assert run(["eval", "--rule", rule, "--profile", profile_file(text)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected

    def test_outcome_comes_with_a_label(self, capsys, profile_file):
        run(["eval", "--rule", "maj", "--profile", profile_file("2 2\n1 1\n")])
        out = capsys.readouterr().out.splitlines()
        assert out == ["1", "candidate 1 wins"]
        run(["eval", "--rule", "maj", "--profile", profile_file("2 2\n1 2\n")])
        assert capsys.readouterr().out.splitlines() == ["0", "tie/abstention"]

    def test_unknown_rule_is_usage_error(self, capsys, profile_file):
        assert run(["eval", "--rule", "borda", "--profile", profile_file("2 1\n1\n")]) == 2

    def test_parse_error_reports_line_and_exits_2(self, capsys, profile_file):
        path = profile_file("2 3\n1 2\n")
        assert run(["eval", "--rule", "maj", "--profile", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run(["eval", "--rule", "maj", "--profile", "/nonexistent/p.txt"]) == 2


class TestCheck:
    def test_majority_passes_everything(self, capsys):
        code = run(["check", "--rule", "maj", "--m", "3", "--n-max", "4",
                    "--axioms", "A,N,DP,PO,RS"])
        assert code == 0
        assert "result: pass" in capsys.readouterr().out

    def test_uc_reduction_failure(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = run(["check", "--rule", "uc", "--m", "2", "--n-max", "3",
                    "--axioms", "RS", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        (result,) = doc["results"]
        assert result["witness"]["profile"] == "2 3\n1 1 2\n"

    def test_zero_pareto_failure(self, capsys):
        assert run(["check", "--rule", "zero", "--m", "2", "--n-max", "1",
                    "--axioms", "PO"]) == 1

    def test_unknown_axiom_is_usage_error(self):
        assert run(["check", "--rule", "maj", "--axioms", "A,XX"]) == 2

    def test_pr_tie_clause_switch(self, capsys):
        strict = run(["check", "--rule", "zero", "--m", "2", "--n-max", "2", "--axioms", "PR"])
        lenient = run(["check", "--rule", "zero", "--m", "2", "--n-max", "2",
                       "--axioms", "PR", "--no-pr-strict"])
        assert (strict, lenient) == (1, 0)

    def test_report_is_byte_stable_across_worker_counts(self, tmp_path):
        reports = []
        for workers, name in [("1", "a.json"), ("8", "b.json")]:
            out = tmp_path / name
            code = run(["check", "--rule", "uc", "--m", "2", "--n-max", "3",
                        "--axioms", "A,N,DP,PO,RS,PR", "--workers", workers,
                        "--out", str(out)])
            assert code == 1
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestSearch:
    def test_theorem_search_writes_majority_table(self, capsys, tmp_path):
        out = tmp_path / "run"
        code = run(["search", "--m", "2", "--n-max", "3",
                    "--axioms", "N,DP,PO,RS", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exhausted"] is True
        assert summary["solution_count"] == 1
        table_text = (out / "solution_000.table").read_text()
        parsed = TabledFunction.from_text(table_text)
        assert parsed == TabledFunction.from_rule(RULES["maj"], 2, 3)
        assert parsed.to_text() == table_text  # emitted files re-parse byte-exactly

    def test_dropping_rs_admits_more_solutions(self, capsys, tmp_path):
        out = tmp_path / "run"
        code = run(["search", "--m", "2", "--n-max", "3",
                    "--axioms", "N,DP,PO", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solution_count"] > 1
        tables = [
            TabledFunction.from_text((out / name).read_text())
            for name in summary["solutions"]
        ]
        assert TabledFunction.from_rule(RULES["uc"], 2, 3) in tables

    def test_single_voter_search(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "1", "--axioms", "N,PO"]) == 0
        out = capsys.readouterr().out
        assert "solutions: 1" in out

    def test_node_limit_exits_3(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "2", "--axioms", "N,PO",
                    "--max-nodes", "3"]) == 3

    def test_infeasible_scope_exits_2(self, capsys):
        assert run(["search", "--m", "8", "--n-max", "8", "--axioms", "N"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_anonymity_cannot_be_requested(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "2", "--axioms", "A,N"]) == 2

    def test_two_runs_are_byte_identical(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / name
            run(["search", "--m", "2", "--n-max", "2", "--axioms", "N,PO",
                 "--out", str(out)])
            blobs.append(
                [(out / "summary.json").read_bytes(),
                 (out / "solution_000.table").read_bytes()]
            )
        assert blobs[0] == blobs[1]


class TestVerify:
    def test_theorem_pass(self, capsys, tmp_path):
        out = tmp_path / "thm.json"
        code = run(["verify-theorem", "--m", "2", "--n-max", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True and doc["maj_match"] is True

    def test_theorem_without_duel_property_at_m4(self):
        assert run(["verify-theorem", "--m", "4", "--n-max", "2", "--no-dp"]) == 0

    def test_theorem_failure_exits_1(self):
        assert run(["verify-theorem", "--m", "3", "--n-max", "2", "--no-dp"]) == 1

    def test_theorem_truncation_exits_3(self):
        assert run(["verify-theorem", "--m", "2", "--n-max", "3", "--max-nodes", "4"]) == 3

    def test_independence_pass(self, capsys, tmp_path):
        out = tmp_path / "ind.json"
        code = run(["verify-independence", "--m", "2", "--n-max", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == {"lex": ["N"], "uc": ["RS"], "zero": ["PO"]}

    def test_independence_workers_do_not_change_reports(self, tmp_path):
        blobs = []
        for workers, name in [("1", "a.json"), ("8", "b.json")]:
            out = tmp_path / name
            run(["verify-independence", "--m", "2", "--n-max", "3",
                 "--workers", workers, "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestUsage:
    def test_no_subcommand_exits_2(self):
        assert run([]) == 2

    def test_bad_workers_exits_2(self):
        assert run(["check", "--rule", "maj", "--workers", "0"]) == 2

    def test_bad_m_exits_2(self):
        assert run(["check", "--rule", "maj", "--m", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--max-nodes", "0"],
            ["search", "--max-solutions", "0"],
            ["verify-theorem", "--max-nodes", "-1"],
            ["verify-independence", "--n-max", "2"],
        ],
    )
    def test_out_of_range_limits_exit_2(self, capsys, argv):
        assert run(argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("scfkit: error:") and argv[1] in last

    def test_infeasible_check_scope_exits_2_with_estimate(self, capsys):
        # estimated only: neutrality at m = 10 would walk 10! relabelings per class
        assert run(["check", "--rule", "maj", "--m", "10", "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infeasible" in captured.err and "evaluations" in captured.err

    def test_emitted_profiles_reparse(self, tmp_path):
        # the witness profile embedded in a report is valid core text format
        out = tmp_path / "report.json"
        run(["check", "--rule", "uc", "--m", "2", "--n-max", "3",
             "--axioms", "RS", "--out", str(out)])
        doc = json.loads(out.read_text())
        witness = doc["results"][0]["witness"]
        assert parse_profile(witness["profile"]).ballots == (1, 1, 2)
        assert parse_profile(witness["related_profile"]).ballots == (0, 0, 1)
