import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import scfkit
from scfkit import axioms, core, rules, search
from scfkit.cli import _to_json, main
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


class TestPackage:
    def test_public_names_are_the_module_lists(self):
        names = scfkit.__all__
        assert len(names) == len(set(names))
        assert sorted(names) == [
            "AXIOM_IDS",
            "AxiomReport",
            "CHECKERS",
            "CHECK_MAX_COST",
            "CheckInfeasibleError",
            "IncompleteTableError",
            "IndependenceVerdict",
            "Outcome",
            "PR_TIE_MODES",
            "Profile",
            "ProfileParseError",
            "RULES",
            "Rule",
            "SEARCH_AXIOMS",
            "SearchInfeasibleError",
            "SearchResult",
            "SearchSpec",
            "TableParseError",
            "TabledFunction",
            "Tally",
            "TheoremVerdict",
            "Witness",
            "__version__",
            "apply_candidate_permutation",
            "ballot_counts",
            "check_anonymity",
            "check_axioms",
            "check_cost",
            "check_duel_property",
            "check_neutrality",
            "check_no_tied_winner",
            "check_pareto",
            "check_positive_responsiveness",
            "check_rs",
            "classify_profile",
            "constant_zero",
            "enumerate_functions",
            "enumerate_neutral_functions",
            "enumerate_profiles",
            "format_profile",
            "is_all_abstention",
            "is_dominating_tie",
            "is_leader_profile",
            "lexicographic_first",
            "majority_rule",
            "parse_profile",
            "profile_count",
            "reduce_profile",
            "remove_voter",
            "replay_witness",
            "tally",
            "unanimity_consent",
            "verify_independence",
            "verify_theorem",
        ]
        modules = (core, rules, axioms, search)
        assert set(names) == {"__version__"}.union(*(module.__all__ for module in modules))
        for module in modules:
            for name in module.__all__:
                assert getattr(scfkit, name) is getattr(module, name), name


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

    def test_an_undecodable_file_exits_2(self, capsys, tmp_path):
        # a UnicodeDecodeError traceback exited 1, the code of a failed axiom
        path = tmp_path / "p.txt"
        path.write_bytes(b"\xff\xfe 2\n")
        assert run(["eval", "--rule", "maj", "--profile", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    def test_undecodable_stdin_exits_2(self):
        # read as UTF-8 whatever the locale, not as a parse error where
        # stdin decodes with surrogateescape
        env = {**os.environ, "PYTHONPATH": str(Path(scfkit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "scfkit", "eval", "--rule", "maj", "--profile", "-"],
            input=b"\xff\xfe 2\n",
            capture_output=True,
            env=env,
            timeout=30,
        )
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read -: 'utf-8' codec can't decode byte 0xff")


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

    @pytest.mark.parametrize("raw", ["", ",", " , "])
    def test_an_axiom_list_naming_no_axiom_is_usage_error(self, capsys, raw):
        # it used to check nothing and print "result: pass"
        assert run(["check", "--rule", "maj", "--axioms", raw]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--axioms names no axiom" in captured.err

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

    def test_six_axiom_check_scans_each_ordered_level_once(self, capsys, monkeypatch):
        levels = []
        original = axioms._profiles

        def counting(m, n_min, n_max, by_class):
            if not by_class:
                levels.extend(range(n_min, n_max + 1))
            return original(m, n_min, n_max, by_class)

        monkeypatch.setattr(axioms, "_profiles", counting)
        assert run(["check", "--rule", "maj", "--m", "3", "--n-max", "3",
                    "--axioms", "A,N,DP,PO,RS,PR"]) == 0
        assert levels == [1, 2, 3]


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

    def test_stats_sidecar_leaves_the_reports_alone(self, capsys, tmp_path):
        # stdout and every --out file are the same with and without --stats
        scope = ["search", "--m", "3", "--n-max", "4", "--axioms", "N,PO,RS"]
        assert run([*scope, "--out", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out
        stats = tmp_path / "stats.json"
        assert run([*scope, "--out", str(tmp_path / "timed"), "--stats", str(stats)]) == 0
        assert capsys.readouterr().out == plain
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert len(names) == 9 and sorted(p.name for p in (tmp_path / "timed").iterdir()) == names
        for name in names:
            assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
        doc = json.loads(stats.read_text())
        assert sorted(doc) == ["build_s", "search_s"]
        assert all(isinstance(t, float) and t >= 0 for t in doc.values())

    def test_single_voter_search(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "1", "--axioms", "N,PO"]) == 0
        out = capsys.readouterr().out
        assert "solutions: 1" in out

    def test_node_limit_exits_3(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "2", "--axioms", "N,PO",
                    "--max-nodes", "3"]) == 3

    def test_node_limit_reports_the_nodes_tried(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "2", "--axioms", "N,PO",
                    "--max-nodes", "3"]) == 3
        assert "nodes_explored: 3" in capsys.readouterr().out.splitlines()

    def test_infeasible_scope_exits_2(self, capsys):
        assert run(["search", "--m", "8", "--n-max", "8", "--axioms", "N"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_anonymity_cannot_be_requested(self, capsys):
        assert run(["search", "--m", "2", "--n-max", "2", "--axioms", "A,N"]) == 2

    def test_an_empty_axiom_list_lists_every_anonymous_table(self, capsys):
        # unlike check's, it asks for something: all 3^3 tables of one voter
        assert run(["search", "--m", "2", "--n-max", "1", "--axioms", ""]) == 0
        assert "solutions: 27" in capsys.readouterr().out.splitlines()

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

    def test_stats_sidecar_leaves_the_reports_alone(self, capsys, tmp_path):
        # stdout and the --out bytes are the same with and without --stats
        scope = ["verify-theorem", "--m", "3", "--n-max", "4"]
        assert run([*scope, "--out", str(tmp_path / "plain.json")]) == 0
        plain = capsys.readouterr().out
        stats = tmp_path / "stats.json"
        assert run([*scope, "--out", str(tmp_path / "timed.json"), "--stats", str(stats)]) == 0
        assert capsys.readouterr().out == plain
        assert (tmp_path / "timed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        doc = json.loads(stats.read_text())
        assert sorted(doc) == ["build_s", "majority_table_s", "partition_s", "replay_s", "search_s"]
        assert all(isinstance(t, float) and t >= 0 for t in doc.values())

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

    def test_an_unexpected_failure_set_is_a_mismatch(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(search._EXPECTED_FAILURES, "lex", ("PO",))
        out = tmp_path / "ind.json"
        assert run(["verify-independence", "--m", "2", "--n-max", "3", "--out", str(out)]) == 1
        note = "lex: expected failures ('PO',), got ('N',)"
        lines = capsys.readouterr().out.splitlines()
        assert f"mismatch: {note}" in lines and lines[-1] == "result: FAIL"
        doc = json.loads(out.read_text())
        assert doc["pass"] is False and doc["mismatches"] == [note]

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

    def test_bad_n_max_exits_2(self, capsys):
        assert run(["check", "--rule", "maj", "--n-max", "0"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "scfkit check: error: --n-max must be >= 1"

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
        assert last.startswith(f"scfkit {argv[0]}: error:") and argv[1] in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--rule", "maj", "--n-max", "1"],
            ["check", "--rule", "maj", "--axioms", "RS", "--n-max", "1"],
            ["verify-theorem", "--n-max", "1"],
        ],
    )
    def test_voter_bound_one_is_refused_before_any_work(self, capsys, argv):
        # the reduction axiom compares n voters with n - 1 of them
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"scfkit {argv[0]}: error:") and "--n-max" in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--rule", "maj", "--axioms", ","],
            ["check", "--rule", "maj", "--axioms", "A,XX"],
            ["check", "--rule", "maj", "--axioms", "RS", "--n-max", "1"],
            ["check", "--rule", "maj", "--m", "1"],
            ["verify-theorem", "--n-max", "1"],
            ["verify-theorem", "--max-nodes", "0"],
            ["check", "--rule", "maj", "--m", "x"],  # argparse's own error
        ],
    )
    def test_usage_errors_print_the_subcommand_usage(self, capsys, argv):
        # the top-level usage lists every subcommand, not the one at fault
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: scfkit {argv[0]} ")
        assert err[-1].startswith(f"scfkit {argv[0]}: error:")

    def test_infeasible_check_scope_exits_2_with_estimate(self, capsys):
        # estimated only: the anonymity scan would walk 4^11 profiles at n = 11
        assert run(["check", "--rule", "maj", "--m", "3", "--n-max", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infeasible" in captured.err and "evaluations" in captured.err

    @pytest.mark.parametrize(
        "command",
        [
            "search --m 2 --n-max 800",
            "verify-theorem --m 2 --n-max 800",
            "check --rule maj --m 2 --n-max 100000",
            "check --rule maj --m 2 --n-max 20000",
            "verify-independence --m 2 --n-max 10000",
            "check --rule maj --m 2000 --n-max 2000",
        ],
    )
    def test_huge_scopes_are_refused_at_once(self, command):
        # estimating these must not take longer than refusing them, nor
        # print an estimate too long for str()
        env = {**os.environ, "PYTHONPATH": str(Path(scfkit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "scfkit", *command.split()], capture_output=True, text=True, env=env, timeout=30
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: scope infeasible: ") and "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "command", ["search --m 10000 --n-max 10000", "verify-theorem --m 1000000 --n-max 1000000"]
    )
    def test_huge_binomials_are_refused_without_computing_them(self, command):
        # the exact cell counts have thousands of digits
        env = {**os.environ, "PYTHONPATH": str(Path(scfkit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "scfkit", *command.split()], capture_output=True, text=True, env=env, timeout=10
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: scope infeasible: table would need over 1000000000 cells (> 20000)")
        assert "Traceback" not in done.stderr

    def test_a_closed_stdout_exits_2_without_a_traceback(self):
        # the reader is gone before the child writes, so its report cannot
        # be written; that printed a BrokenPipeError traceback and exited 1,
        # the code of a failed verification
        env = {**os.environ, "PYTHONPATH": str(Path(scfkit.__file__).parents[1])}
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "scfkit", *"search --m 3 --n-max 4 --axioms N,PO,RS".split()],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=30,
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    def test_many_candidates_are_checked_on_generators(self, capsys):
        # neutrality costs two relabelings per class, not 10!
        assert run(["check", "--rule", "maj", "--m", "10", "--n-max", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: pass"

    def test_emitted_profiles_reparse(self, tmp_path):
        # the witness profile embedded in a report is valid core text format
        out = tmp_path / "report.json"
        run(["check", "--rule", "uc", "--m", "2", "--n-max", "3",
             "--axioms", "RS", "--out", str(out)])
        doc = json.loads(out.read_text())
        witness = doc["results"][0]["witness"]
        assert parse_profile(witness["profile"]).ballots == (1, 1, 2)
        assert parse_profile(witness["related_profile"]).ballots == (0, 0, 1)


class TestUnwritablePaths:
    """A path under a regular file cannot be written: the command exits 2
    and names the path and the reason on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--rule", "maj", "--m", "2", "--n-max", "3", "--out"],
            ["search", "--m", "2", "--n-max", "3", "--out"],
            ["verify-theorem", "--m", "2", "--n-max", "3", "--out"],
            ["verify-theorem", "--m", "2", "--n-max", "3", "--stats"],
            ["search", "--m", "2", "--n-max", "3", "--stats"],
            ["verify-independence", "--m", "2", "--n-max", "3", "--out"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_exits_2_naming_the_path(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "x.json"
        assert run([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_search_stops_at_the_first_unwritable_solution(self, capsys, tmp_path):
        # the directory exists, but one solution's name is taken by a directory
        (tmp_path / "out" / "solution_000.table").mkdir(parents=True)
        assert run(["search", "--m", "2", "--n-max", "2", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'out'}: ")
        assert not (tmp_path / "out" / "summary.json").exists()


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestReportWriter:
    @given(json_documents)
    def test_writes_the_bytes_of_the_indenting_encoder(self, doc):
        assert _to_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_writing_a_report_leaves_no_cyclic_garbage(self, tmp_path):
        argv = ["verify-independence", "--m", "3", "--n-max", "3", "--out", str(tmp_path / "report.json")]
        run(argv)  # warm-up: first-call caches are built once per process
        gc.collect()
        gc.disable()
        try:
            run(argv)
            assert gc.collect() == 0
        finally:
            gc.enable()


# Exit code, sha256 of stdout and sha256 of the --out report of each command,
# computed before every checker became a call of check_axioms; any change to
# a report or to what the CLI prints shows up here.
GOLDEN = [
    ("check --rule maj --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "274eb47459cfec739a2ef605590305df13a0b9f34314548acd1512f72c0f5f26"),
    ("check --rule maj --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "9c681c51f76b45b7b5812fc3711b996bb7761ec0e674383a39ffc9d5fcca2b1d"),
    ("check --rule maj --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "0de329c2f6979b2b503d88aa0ab06e6d66d9fb6eaf96d3b8298af36307f44ac4"),
    ("check --rule maj --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "45d24eb0a1dfb382ad60ff024e24cb74486a4e932f5c471898183d4bc78b5760"),
    ("check --rule maj --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "bffb491a1614e6d6457c9f06a8921c037d758fc44e321aeaa90c52615b9359d1"),
    ("check --rule maj --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "88ee7ceeb7e0ad30621478505374a3c62d82610f999d590e92d09e05639ad61e"),
    ("check --rule uc --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "e60bfd74d10f73451378000723ac1683897841969b9fc3e748d1dd341dd739e4", "801a598cd83686acca55b013952b77520c4e511d0ad1a99da7502364b5520b38"),
    ("check --rule uc --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "dd4211efe3b01cdae16636f64e8dfde6a56681a51cc116949e525cca88c68a22", "751967c46d230af2b8ec55c9c21b9639820298a829bd53c309c598c4d29551f1"),
    ("check --rule uc --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "e60bfd74d10f73451378000723ac1683897841969b9fc3e748d1dd341dd739e4", "4fa2a603fdeafe8a1f10d7cf0dd3b24fb070a264df9715f8c9ce4d9895389fc5"),
    ("check --rule uc --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "dd4211efe3b01cdae16636f64e8dfde6a56681a51cc116949e525cca88c68a22", "b74d977e3fd904306142c3765d4e230f56b98d93b3976f2f77ded4d09602914b"),
    ("check --rule uc --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "effbf107ab3573141337c8ee6a3b6ce01dafc279c5d696600a8a9f83715f08de"),
    ("check --rule uc --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 0, "8cb1ea8f35321a5ae2364b501e94794daad4761f27da8b4484a6e58e96eb9ee7", "5af007c177024231493ba0e9b819bfb05ffc0a2b52f83bd938da0c8ad8bfd19a"),
    ("check --rule lex --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "6a73f1359d2d263a5bd6109da5f596cd11468a57a43ff944c2365bee98464024"),
    ("check --rule lex --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "2e4ca949197748637b8cdaf06558ea8a26a3b4b54df25d250053fff4f89e4dc2"),
    ("check --rule lex --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "22f6f6f59d1c883b33c5e5526f21b2740d7f5f2a10fd2251bb202e4d8c3cf1c4"),
    ("check --rule lex --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "0409169b919ffa9ba7de651fa4f7dc241f99b2663203b870ee9632b6e0f4c22d"),
    ("check --rule lex --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "75ec0c10dbe1d19997ea6857634b8faf9c2991da9d5c608780a767394ac7672e"),
    ("check --rule lex --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4197cd1bced5d34f2b3aa516887fb85fd876684fc365dcf17d56d368215eb474", "c6681ec1ecf518c78e9bbb3de7c55ad76d827a2e6e99f0868353b91fef3ee05b"),
    ("check --rule zero --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "463ddb91a655244f072061a0b594ab566b98b5f726913aa9c91189d6fcc4f3df", "8938abb9044dcd1429ff0e6258e363070dbbe84a7e5ee7d029144a3e3573ceac"),
    ("check --rule zero --m 2 --n-max 4 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4980f93192458f74e089aa1fa2923920995a3a2b21c5578a872dd0fc377728f0", "41f7698b3a81bf3817e99e5ab783f4b29d740e33ece20efb11e8865bc34f76f6"),
    ("check --rule zero --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "463ddb91a655244f072061a0b594ab566b98b5f726913aa9c91189d6fcc4f3df", "dc73e5f3ed896ed2b56469e878e653e3a790d79ba4486d700ecb57b1b9ec8a05"),
    ("check --rule zero --m 3 --n-max 3 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4980f93192458f74e089aa1fa2923920995a3a2b21c5578a872dd0fc377728f0", "71ed56d41630125fddc11a61eb4b47e834aa14ab7f4373dc80667e385b5236bf"),
    ("check --rule zero --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --pr-strict", 1, "463ddb91a655244f072061a0b594ab566b98b5f726913aa9c91189d6fcc4f3df", "61e5c6bd38ebfaefae4a5d92fba9c0794b1f363f4aad3a5889ed206b42636b61"),
    ("check --rule zero --m 4 --n-max 2 --axioms A,N,DP,PO,RS,PR --no-pr-strict", 1, "4980f93192458f74e089aa1fa2923920995a3a2b21c5578a872dd0fc377728f0", "5c83a02e362a013a0043aa8bcb11664ecb70d8ce7cdbd8b15c398edf179a3bb3"),
    ("verify-theorem --m 2 --n-max 4", 0, "1300463b75b0fa5a3ce409559faaea5f78a41e8925ba5ddbc921023906936213", "a90208ea33682322d8a2a32512fbf20c82f9250c83069a4c10faede7d47b3471"),
    ("verify-theorem --m 3 --n-max 3", 0, "bc4c90e66f978c3b0031cb089a015b227581ff5b62471ff31a65355e26528fda", "3379ae55c8a149ebae6a14164ee2330d7c7e11a265f5374039fc2568520b1454"),
    ("verify-theorem --m 4 --n-max 2 --no-dp", 0, "d3477320265d7b1227bf1fa68abea9aa5d52df892faab888be0708e5410cc5ff", "700a40d8ce68ee69e398d5e16ca95a9046f75129a3f3216612d42f4d5c088d71"),
    ("verify-independence --m 3 --n-max 3", 0, "09350925a94ff597fff5ade667fe44f6b60aa4dfde4bf5aa2e9a963659527144", "ee551d88943b2703f4f8d779c7ae10d0658d266812c3c8901ce852135ad7127c"),
]


@pytest.mark.parametrize("command,code,stdout_sha,report_sha", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_reports_and_stdout_are_byte_stable(capsys, tmp_path, command, code, stdout_sha, report_sha):
    out = tmp_path / "report.json"
    assert run(command.split() + ["--out", str(out)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == report_sha
