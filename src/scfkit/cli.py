"""Command-line front end: evaluate rules, run axiom checks, search function
space, and verify the characterization and independence results.

Exit codes are a contract: 0 pass/complete, 1 axiom failure, 2 usage or parse
error or an output that cannot be written (a path, or a closed stdout), 3
resource truncation.
Reports are JSON with sorted keys, so byte stability follows from
deterministic witness selection.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from . import __version__
from .core import ProfileParseError, parse_profile
from .rules import RULES
from .axioms import AXIOM_IDS, CHECKERS, CheckInfeasibleError, check_axioms
from .search import (
    SEARCH_AXIOMS,
    SearchInfeasibleError,
    SearchSpec,
    enumerate_functions,
    verify_independence,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3

_CHECKABLE = tuple(ax for ax in AXIOM_IDS if ax in CHECKERS)


def _to_json(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` for a
    document of string-keyed dicts, lists and scalars.  That call uses the
    pure-Python encoder, whose closures leave reference cycles behind on
    every report; this writer leaves none."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(key)}: {_to_json(value[key], inner)}" for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [inner + _to_json(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


class _WriteError(Exception):
    """A report, stats or solution path that cannot be written; main turns
    it into exit 2."""


@contextlib.contextmanager
def _writing(path: str | Path):
    """Every file the commands write goes through here: an ``OSError``
    becomes a :class:`_WriteError` naming ``path``."""
    try:
        yield Path(path)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from None


def _write_json(path: str | Path, doc: dict) -> None:
    with _writing(path) as target:
        target.write_text(_to_json(doc) + "\n")


def _parse_axioms(raw: str, allowed: tuple[str, ...], parser: argparse.ArgumentParser) -> list[str]:
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    for name in names:
        if name not in allowed:
            parser.error(f"unknown axiom {name!r}; choose from {','.join(allowed)}")
    # canonical order, duplicates dropped: reports keep a stable field order
    return [ax for ax in allowed if ax in names]


def _tie_mode(args: argparse.Namespace) -> str:
    return "leaders" if args.pr_strict else "wins"


def _read_profile(path: str):
    """The profile at ``path``, or on stdin for ``-``, read as UTF-8 in any locale."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return parse_profile(data.decode("utf-8"))


def cmd_eval(args, parser) -> int:
    rule = RULES[args.rule]
    try:
        profile = _read_profile(args.profile)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.profile}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProfileParseError as exc:
        print(f"error: {args.profile}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = rule.evaluate(profile)
    print(outcome)
    print("tie/abstention" if outcome == 0 else f"candidate {outcome} wins")
    return EXIT_OK


def cmd_check(args, parser) -> int:
    axioms = _parse_axioms(args.axioms, _CHECKABLE, parser)
    if not axioms:
        # a check of nothing would print "result: pass"; search lists every
        # anonymous table under an empty list, which means something
        parser.error("--axioms names no axiom")
    if "RS" in axioms and args.n_max < 2:
        parser.error("--n-max must be >= 2 to check RS")
    tie = _tie_mode(args)
    results = check_axioms(RULES[args.rule], args.m, args.n_max, axioms, tie)
    for report in results:
        if report.passed:
            print(f"{report.axiom}: pass")
        else:
            w = report.witness
            print(f"{report.axiom}: FAIL  profile [{' '.join(map(str, w.profile.ballots))}]"
                  f" actual={w.actual}" + (f" expected={w.expected}" if w.expected is not None else ""))
    all_pass = all(r.passed for r in results)
    doc = {
        "command": "check",
        "version": __version__,
        "rule": args.rule,
        "m": args.m,
        "n_max": args.n_max,
        "axioms": axioms,
        "pr_tie_upgrade": tie,
        "pass": all_pass,
        "results": [r.to_dict() for r in results],
    }
    if args.out:
        _write_json(args.out, doc)
    print(f"result: {'pass' if all_pass else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_FAILURE


def cmd_search(args, parser) -> int:
    axioms = _parse_axioms(args.axioms, SEARCH_AXIOMS, parser)
    spec = SearchSpec(
        m=args.m,
        n_max=args.n_max,
        axioms=frozenset(axioms),
        limit=args.max_solutions,
        max_nodes=args.max_nodes,
        pr_tie_upgrade=_tie_mode(args),
    )
    start = perf_counter()
    result = enumerate_functions(spec)
    elapsed = perf_counter() - start
    print(f"solutions: {len(result.solutions)}")
    print(f"exhausted: {result.exhausted}")
    print(f"nodes_explored: {result.nodes_explored}")
    for ax in sorted(result.prune_counts):
        print(f"pruned[{ax}]: {result.prune_counts[ax]}")
    if args.out:
        with _writing(args.out) as out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            names = []
            for idx, solution in enumerate(result.solutions):
                name = f"solution_{idx:03d}.table"
                (out_dir / name).write_text(solution.to_text())
                names.append(name)
        _write_json(
            out_dir / "summary.json",
            {
                "command": "search",
                "version": __version__,
                "m": args.m,
                "n_max": args.n_max,
                "axioms": axioms,
                "pr_tie_upgrade": spec.pr_tie_upgrade,
                "max_nodes": args.max_nodes,
                "max_solutions": args.max_solutions,
                "exhausted": result.exhausted,
                "nodes_explored": result.nodes_explored,
                "prune_counts": dict(sorted(result.prune_counts.items())),
                "solution_count": len(result.solutions),
                "solutions": names,
            },
        )
    if args.stats:
        _write_json(args.stats, {"build_s": result.build_s, "search_s": elapsed - result.build_s})
    return EXIT_OK if result.exhausted else EXIT_TRUNCATED


def cmd_verify_theorem(args, parser) -> int:
    verdict = verify_theorem(args.m, args.n_max, include_dp=args.dp, max_nodes=args.max_nodes)
    doc = verdict.to_dict()
    for key, value in doc.items():
        print(f"{key}: {value}")
    if args.out:
        _write_json(args.out, {"command": "verify-theorem", "version": __version__, **doc})
    if args.stats:
        _write_json(args.stats, verdict.stats)
    if not verdict.exhausted:
        return EXIT_TRUNCATED
    return EXIT_OK if verdict.passed else EXIT_FAILURE


def cmd_verify_independence(args, parser) -> int:
    verdict = verify_independence(args.m, args.n_max)
    for rule, fails in sorted(verdict.failures.items()):
        print(f"{rule}: fails {','.join(fails) if fails else '(none)'}")
    for note in verdict.mismatches:
        print(f"mismatch: {note}")
    print(f"result: {'pass' if verdict.passed else 'FAIL'}")
    if args.out:
        _write_json(args.out, {"command": "verify-independence", "version": __version__, **verdict.to_dict()})
    return EXIT_OK if verdict.passed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfkit",
        description="Axiom checking and exhaustive function-space search for "
        "choose-one voting with abstentions.",
    )
    parser.add_argument("--version", action="version", version=f"scfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_max_default):
        p.add_argument("--m", type=int, default=2, help="candidate count (default 2)")
        p.add_argument("--n-max", type=int, default=n_max_default,
                       help=f"voter bound (default {n_max_default})")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and ignored: checkers "
                            "run in one thread (must be >= 1; default 1)")
        p.add_argument("--out", help="write the machine-readable report here")

    p_eval = sub.add_parser("eval", help="evaluate a rule on one profile")
    p_eval.add_argument("--rule", required=True, choices=sorted(RULES))
    p_eval.add_argument("--profile", required=True, help="profile file, or - for stdin")
    p_eval.set_defaults(func=cmd_eval, parser=p_eval)

    p_check = sub.add_parser("check", help="run axiom checkers against a rule")
    p_check.add_argument("--rule", required=True, choices=sorted(RULES))
    add_common(p_check, n_max_default=4)
    p_check.add_argument("--axioms", default="A,N,DP,PO,RS",
                         help="comma list from A,N,DP,PO,RS,PR (default A,N,DP,PO,RS)")
    p_check.add_argument("--pr-strict", action=argparse.BooleanOptionalAction, default=True,
                         help="ties must upgrade to a win for a co-leading candidate "
                              "(--no-pr-strict only preserves existing wins)")
    p_check.set_defaults(func=cmd_check, parser=p_check)

    p_search = sub.add_parser("search", help="enumerate anonymous functions satisfying axioms")
    add_common(p_search, n_max_default=3)
    p_search.add_argument("--axioms", default="N,DP,PO,RS",
                          help="comma list from N,DP,PO,RS,PR (default N,DP,PO,RS)")
    p_search.add_argument("--max-nodes", type=int, default=None)
    p_search.add_argument("--max-solutions", type=int, default=None)
    p_search.add_argument("--pr-strict", action=argparse.BooleanOptionalAction, default=True)
    p_search.add_argument("--stats", help="write the engine build and search times in seconds here, as JSON")
    p_search.set_defaults(func=cmd_search, parser=p_search)

    p_thm = sub.add_parser("verify-theorem",
                           help="verify majority rule is the unique solution of the axiom set")
    add_common(p_thm, n_max_default=3)
    p_thm.add_argument("--dp", action=argparse.BooleanOptionalAction, default=True,
                       help="include the duel property (drop with --no-dp for m >= 4)")
    p_thm.add_argument("--max-nodes", type=int, default=None)
    p_thm.add_argument("--stats", help="write each phase's time in seconds here, as JSON")
    p_thm.set_defaults(func=cmd_verify_theorem, parser=p_thm)

    p_ind = sub.add_parser("verify-independence",
                           help="verify each axiom drop admits its documented counterexample")
    add_common(p_ind, n_max_default=3)
    p_ind.set_defaults(func=cmd_verify_independence, parser=p_ind)

    return parser


# One parser per process: an ArgumentParser is a web of reference cycles, so
# building one per call leaves garbage that only the cyclic collector frees.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # usage errors print the subcommand's usage, as argparse's own do
    parser = args.parser
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    if getattr(args, "m", 2) < 2:
        parser.error("--m must be >= 2")
    if getattr(args, "n_max", 1) < 1:
        parser.error("--n-max must be >= 1")
    if getattr(args, "max_nodes", None) is not None and args.max_nodes < 1:
        parser.error("--max-nodes must be >= 1")
    if getattr(args, "max_solutions", None) is not None and args.max_solutions < 1:
        parser.error("--max-solutions must be >= 1")
    if args.command == "verify-theorem" and args.n_max < 2:
        parser.error("verify-theorem needs --n-max >= 2")
    if args.command == "verify-independence" and args.n_max < 3:
        parser.error("verify-independence needs --n-max >= 3")
    try:
        return args.func(args, parser)
    except (CheckInfeasibleError, SearchInfeasibleError) as exc:
        # a scope refused before any work started, with its estimate
        print(f"error: scope infeasible: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader went away: send what is left to devnull, so the
        # flush at exit does not fail again, and exit as for any output
        # that cannot be written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_USAGE
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
