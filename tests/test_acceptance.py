"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from itertools import product

from scfkit.axioms import (
    CHECKERS,
    check_duel_property,
    check_no_tied_winner,
    check_neutrality,
    check_pareto,
    check_rs,
)
from scfkit.cli import main as cli_main
from scfkit.core import Profile, enumerate_profiles, format_profile, parse_profile
from scfkit.rules import RULES, TabledFunction
from scfkit.search import (
    SearchSpec,
    enumerate_functions,
    enumerate_neutral_functions,
    verify_independence,
)

MAJ = RULES["maj"]


def _finish(num, name, problems):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if not problems else 'FAIL'}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def _maj_table(m, n_max):
    return TabledFunction.from_rule(MAJ, m, n_max)


def test_criterion_1_majority_axiom_conformance():
    problems = []
    started = time.monotonic()
    for m, n_max in [(2, 5), (3, 4), (4, 3)]:
        for axiom, checker in CHECKERS.items():
            report = checker(MAJ, m, n_max)
            if not report.passed:
                problems.append(f"maj fails {axiom} at ({m}, {n_max}): {report.witness}")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        problems.append(f"conformance checks took {elapsed:.1f}s (budget 10s)")
    _finish(1, "majority rule passes A,N,DP,PO,RS,PR", problems)


def test_criterion_2_independence_replay_with_exact_witnesses():
    problems = []
    verdict = verify_independence(2, 3)
    if verdict.failures != {"lex": ("N",), "zero": ("PO",), "uc": ("RS",)}:
        problems.append(f"failure pattern {verdict.failures}")
    problems.extend(verdict.mismatches)

    lex_n = verdict.reports["lex"]["N"].witness
    if lex_n is None or lex_n.profile.ballots != (1, 2) or lex_n.permutation != (2, 1):
        problems.append(f"lex neutrality witness {lex_n}")
    elif (lex_n.actual, lex_n.expected) != (1, 2):
        problems.append(f"lex witness outcomes {(lex_n.actual, lex_n.expected)}")

    uc_rs = verdict.reports["uc"]["RS"].witness
    if uc_rs is None or uc_rs.profile.ballots != (1, 1, 2):
        problems.append(f"uc reduction witness {uc_rs}")
    else:
        if uc_rs.actual != 0:
            problems.append(f"uc witness lhs {uc_rs.actual} != 0")
        if uc_rs.related_profile.ballots != (0, 0, 1) or uc_rs.expected != 1:
            problems.append("uc reduced profile should be (0, 0, 1) yielding 1")

    zero_po = verdict.reports["zero"]["PO"].witness
    if zero_po is None or zero_po.profile.ballots != (1,) or zero_po.actual != 0:
        problems.append(f"zero consensus witness {zero_po}")
    _finish(2, "independence witnesses match", problems)


def test_criterion_3_uniqueness_of_majority():
    problems = []
    for m, n_max in [(2, 4), (3, 3)]:
        started = time.monotonic()
        result = enumerate_functions(
            SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        elapsed = time.monotonic() - started
        if not result.exhausted:
            problems.append(f"({m}, {n_max}) not exhausted")
        if len(result.solutions) != 1:
            problems.append(f"({m}, {n_max}) found {len(result.solutions)} solutions")
        elif result.solutions[0].table != _maj_table(m, n_max).table:
            problems.append(f"({m}, {n_max}) solution differs from majority table")
        if elapsed >= 300.0:
            problems.append(f"({m}, {n_max}) took {elapsed:.1f}s (budget 300s)")
    _finish(3, "N,DP,PO,RS admit exactly the majority table", problems)


def test_criterion_4_neutrality_implies_duels_from_four_candidates():
    problems = []
    for f in enumerate_neutral_functions(4, 2):
        report = check_duel_property(f, 4, 2)
        if not report.passed:
            problems.append(f"neutral function violates duels at m=4: {report.witness}")
            break
    three_candidate_failures = sum(
        1 for f in enumerate_neutral_functions(3, 2) if not check_duel_property(f, 3, 2).passed
    )
    if three_candidate_failures == 0:
        problems.append("no neutral duel violation found at m=3 (exception expected)")
    _finish(4, "duel property follows from neutrality iff m >= 4", problems)


def test_criterion_5_tied_candidates_never_win():
    problems = []
    for m, n_max in [(2, 4), (3, 3)]:
        result = enumerate_functions(
            SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        for f in [*result.solutions, MAJ]:
            report = check_no_tied_winner(f, m, n_max)
            if not report.passed:
                problems.append(f"tied pair won at ({m}, {n_max}): {report.witness}")
    _finish(5, "equal-count candidates are never the outcome", problems)


def test_criterion_6_pruning_soundness_against_brute_force():
    problems = []
    m, n_max = 2, 2
    cells = []
    for n in range(1, n_max + 1):
        cells.extend(p.ballots for p in enumerate_profiles(m, n, canonical_only=True))

    # the independent side: every complete table, filtered by the checkers
    passing = {"N": set(), "DP": set(), "PO": set(), "RS": set()}
    checker_of = {
        "N": check_neutrality,
        "DP": check_duel_property,
        "PO": check_pareto,
        "RS": check_rs,
    }
    all_tables = []
    for values in product(range(m + 1), repeat=len(cells)):
        t = TabledFunction(m, n_max, dict(zip(cells, values)))
        all_tables.append(t)
        for axiom, checker in checker_of.items():
            if checker(t, m, n_max).passed:
                passing[axiom].add(id(t))

    for axioms in [{"N", "PO"}, {"N", "DP", "PO"}, {"N", "DP", "PO", "RS"}]:
        survivors = [
            t.table
            for t in all_tables
            if all(id(t) in passing[ax] for ax in axioms)
        ]
        result = enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms)))
        if not result.exhausted:
            problems.append(f"{sorted(axioms)}: search truncated")
        if [s.table for s in result.solutions] != survivors:
            problems.append(
                f"{sorted(axioms)}: search found {len(result.solutions)}, "
                f"brute force found {len(survivors)}"
            )
    _finish(6, "pruned search equals brute-force filtering", problems)


def test_criterion_7_may_characterization_at_two_candidates():
    problems = []
    result = enumerate_functions(SearchSpec(m=2, n_max=4, axioms=frozenset({"N", "PR"})))
    if not result.exhausted:
        problems.append("search truncated")
    if len(result.solutions) != 1:
        problems.append(f"found {len(result.solutions)} solutions")
    elif result.solutions[0].table != _maj_table(2, 4).table:
        problems.append("solution differs from majority table")
    _finish(7, "N + PR pin majority rule at m=2", problems)


def test_criterion_8_round_trips_and_determinism(tmp_path):
    problems = []

    # byte-exact value round-trips
    for ballots in [(1, 1, 2), (0, 3, 0, 2)]:
        p = Profile(3, ballots)
        text = format_profile(p)
        if parse_profile(text) != p or format_profile(parse_profile(text)) != text:
            problems.append(f"profile round-trip broke for {ballots}")
    for name in sorted(RULES):
        t = TabledFunction.from_rule(RULES[name], 3, 3)
        text = t.to_text()
        if TabledFunction.from_text(text) != t or TabledFunction.from_text(text).to_text() != text:
            problems.append(f"table round-trip broke for {name}")

    def run(argv):
        try:
            return cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    # identical reports for any worker count
    for args, expect in [
        (["check", "--rule", "maj", "--m", "2", "--n-max", "4",
          "--axioms", "A,N,DP,PO,RS,PR"], 0),
        (["check", "--rule", "uc", "--m", "2", "--n-max", "3",
          "--axioms", "A,N,DP,PO,RS"], 1),
        (["verify-independence", "--m", "2", "--n-max", "3"], 0),
    ]:
        blobs = []
        for workers, tag in [("1", "w1"), ("8", "w8")]:
            out = tmp_path / f"{'_'.join(args[:2]).replace('-', '_')}_{tag}.json"
            code = run([*args, "--workers", workers, "--out", str(out)])
            if code != expect:
                problems.append(f"{args} with {workers} workers exited {code}")
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            problems.append(f"{args}: workers changed the report")

    # repeated searches emit identical artifacts, and they re-parse
    digests = []
    for tag in ("r1", "r2"):
        out_dir = tmp_path / f"search_{tag}"
        code = run(["search", "--m", "2", "--n-max", "3", "--axioms", "N,DP,PO,RS",
                    "--workers", "8" if tag == "r2" else "1", "--out", str(out_dir)])
        if code != 0:
            problems.append(f"search run {tag} exited {code}")
        summary = (out_dir / "summary.json").read_bytes()
        tables = [
            (out_dir / name).read_bytes()
            for name in json.loads(summary)["solutions"]
        ]
        digests.append((summary, tables))
        for blob in tables:
            parsed = TabledFunction.from_text(blob.decode())
            if parsed.to_text().encode() != blob:
                problems.append("emitted table does not re-parse byte-exactly")
    if digests[0] != digests[1]:
        problems.append("search artifacts differ between runs")
    _finish(8, "round-trips and worker-count determinism", problems)
