"""Reference answers for the benchmark's workloads, computed without scfkit.

Nothing here imports the package under test: the majority table and the
proof-case counts come from this file's own vote counting, so a verdict is
never judged by the code that produced it.  Each ``judge_*`` function returns
a list of problems; an empty list means the verdict is correct.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement, product
from pathlib import Path

ALL_AXIOMS = ("A", "N", "DP", "PO", "RS", "PR")


def majority(ballots: tuple[int, ...], m: int) -> int:
    """The candidate with strictly more votes than every other, else 0."""
    votes = [ballots.count(k) for k in range(1, m + 1)]
    top = max(votes)
    if top > 0 and votes.count(top) == 1:
        return votes.index(top) + 1
    return 0


def majority_table_text(m: int, n_max: int) -> str:
    """Majority rule in the ``.table`` text format: header ``"m n_max"``, then
    one ``"b1 .. bn -> o"`` line per sorted ballot tuple, by (n, ballots)."""
    lines = [f"{m} {n_max}"]
    for n in range(1, n_max + 1):
        for key in combinations_with_replacement(range(m + 1), n):
            lines.append(f"{' '.join(map(str, key))} -> {majority(key, m)}")
    return "\n".join(lines) + "\n"


def case_counts(m: int, n_max: int) -> dict[str, int]:
    """Ordered profiles with 1..n_max voters, split by brute force into the
    proof's three cases."""
    counts = {"all_abstention": 0, "dominating_tie": 0, "leader": 0}
    for n in range(1, n_max + 1):
        for ballots in product(range(m + 1), repeat=n):
            votes = [ballots.count(k) for k in range(1, m + 1)]
            top = max(votes)
            if top == 0:
                counts["all_abstention"] += 1
            elif votes.count(top) > 1:
                counts["dominating_tie"] += 1
            else:
                counts["leader"] += 1
    return counts


def _load_json(path: Path, problems: list[str]) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read report {path.name}: {exc}")
        return {}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def judge_check(m: int, n_max: int, code: int, stdout: str, out: Path) -> list[str]:
    """Majority rule passes every axiom, so every checker must pass."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    lines = stdout.splitlines()
    _expect(problems, "stdout", lines, [f"{ax}: pass" for ax in ALL_AXIOMS] + ["result: pass"])
    doc = _load_json(out, problems)
    if doc:
        _expect(problems, "command", doc.get("command"), "check")
        _expect(problems, "scope", (doc.get("rule"), doc.get("m"), doc.get("n_max")), ("maj", m, n_max))
        _expect(problems, "axioms", doc.get("axioms"), list(ALL_AXIOMS))
        _expect(problems, "pr_tie_upgrade", doc.get("pr_tie_upgrade"), "leaders")
        _expect(problems, "pass", doc.get("pass"), True)
        want = [{"axiom": ax, "m": m, "n_max": n_max, "pass": True} for ax in ALL_AXIOMS]
        _expect(problems, "results", doc.get("results"), want)
    return problems


def judge_search(m: int, n_max: int, code: int, stdout: str, out: Path) -> list[str]:
    """{N, DP, PO, RS} leaves exactly one function: majority rule's table."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    lines = stdout.splitlines()
    _expect(problems, "stdout head", lines[:2], ["solutions: 1", "exhausted: True"])
    try:
        files = sorted(p.name for p in out.iterdir())
    except OSError as exc:
        return problems + [f"cannot list {out.name}: {exc}"]
    _expect(problems, "files", files, ["solution_000.table", "summary.json"])
    doc = _load_json(out / "summary.json", problems)
    if doc:
        _expect(problems, "scope", (doc.get("m"), doc.get("n_max")), (m, n_max))
        _expect(problems, "axioms", doc.get("axioms"), ["N", "DP", "PO", "RS"])
        _expect(problems, "exhausted", doc.get("exhausted"), True)
        _expect(problems, "solution_count", doc.get("solution_count"), 1)
        _expect(problems, "solutions", doc.get("solutions"), ["solution_000.table"])
        _expect(problems, "stdout nodes_explored", f"nodes_explored: {doc.get('nodes_explored')}" in lines, True)
    try:
        got = (out / "solution_000.table").read_text().splitlines()
    except OSError as exc:
        return problems + [f"cannot read table: {exc}"]
    want = majority_table_text(m, n_max).splitlines()
    if len(got) != len(want):
        problems.append(f"table has {len(got)} lines, majority has {len(want)}")
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            problems.append(f"table line {lineno}: got {g!r}, want {w!r}")
            break
    return problems


def judge_theorem(
    m: int, n_max: int, code: int, stdout: str, out: Path, cases: dict[str, int]
) -> list[str]:
    """Majority is the unique solution, its replay passes, and the proof cases
    match ``cases`` (from :func:`case_counts`)."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    _expect(problems, "stdout pass", "pass: True" in stdout.splitlines(), True)
    doc = _load_json(out, problems)
    if doc:
        _expect(problems, "command", doc.get("command"), "verify-theorem")
        _expect(problems, "scope", (doc.get("m"), doc.get("n_max"), doc.get("include_dp")), (m, n_max, True))
        for key in ("pass", "exhausted", "maj_match", "replay_ok", "partition_ok"):
            _expect(problems, key, doc.get(key), True)
        _expect(problems, "solution_count", doc.get("solution_count"), 1)
        _expect(problems, "case_counts", doc.get("case_counts"), cases)
    return problems
