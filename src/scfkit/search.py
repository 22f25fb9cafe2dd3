"""Runs of the search engine (:mod:`scfkit.engine`), and the verdicts.

:func:`verify_theorem` replays the solutions through the checkers of
:mod:`scfkit.axioms`, the independent oracle, and partitions the profile
space into the cases of :func:`scfkit.core.classify_profile` one count
shape at a time (:func:`scfkit.core._shape_votes`, the shapes paired with
their votes, which the checkers' orbit stream also reads): each shape is
classified once, and it counts for every ordered profile of every class
with those candidate counts, whatever its number of abstentions.  The
engine's public names are re-exported here.

The partition rests on this lemma: each of the case predicates
:func:`~scfkit.core.is_all_abstention`, :func:`~scfkit.core.is_dominating_tie`
and :func:`~scfkit.core.is_leader_profile` reads only the multiset of
candidate counts, not the abstention count c0.  All-abstention holds iff no
candidate gets a vote, and the other two read ``ballot_counts(p)[1:]``: the
top count and how many candidates hold it.  So the case, or the error of a
profile in no case or in several, depends on the count shape c_1 >= ... >=
c_k > 0 alone, and is read off the profile of its s = sum c_k votes (off
(0,) for the shape of no votes).  The classes with that shape and c0
abstentions, n = s + c0 voters, form one neutrality orbit of m! / prod_v
mu_v! classes, mu_v the number of candidates with count v (zero included),
each with n! / (c0! prod c_k!) orderings.  So they hold C(n, s) times the
shape's weight s! / prod c_k! * m! / prod_v mu_v! ordered profiles
(:func:`_shape_weight`), and summed over n = s..n_max they hold
C(n_max + 1, s + 1) times it, by the hockey-stick identity
sum_{n=s}^{N} C(n, s) = C(N + 1, s + 1).  For s = 0 the sum starts at
n = 1, as there is no profile of 0 voters: one less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, islice
from time import perf_counter
from typing import Iterator

from .core import _CASES, Profile, _check_scope, _shape_votes, classify_profile
from .rules import RULES, TabledFunction
from .axioms import AxiomReport, _document, check_axioms
from .engine import SEARCH_AXIOMS, SearchInfeasibleError, SearchSpec, _Engine

__all__ = [
    "SEARCH_AXIOMS",
    "SearchSpec",
    "SearchResult",
    "SearchInfeasibleError",
    "enumerate_functions",
    "enumerate_neutral_functions",
    "TheoremVerdict",
    "verify_theorem",
    "IndependenceVerdict",
    "verify_independence",
]


@dataclass
class SearchResult:
    spec: SearchSpec
    solutions: list[TabledFunction]
    exhausted: bool
    nodes_explored: int
    prune_counts: dict[str, int]
    # seconds spent building the engine, before the search; no part of the result
    build_s: float = field(default=0.0, compare=False, repr=False)


def enumerate_functions(spec: SearchSpec) -> SearchResult:
    """All anonymous functions on the bounded profile space satisfying the
    requested axioms, in lexicographic order of their cell values, by the
    level-wise search; ``exhausted`` is False iff a node or solution limit cut
    the search short."""
    start = perf_counter()
    engine = _Engine(spec)
    build_s = perf_counter() - start
    solutions = list(islice(engine._search(), spec.limit))
    return SearchResult(
        spec=spec,
        solutions=solutions,
        exhausted=engine.exhausted and len(solutions) != spec.limit,
        nodes_explored=engine.nodes,
        prune_counts=engine.prunes,
        build_s=build_s,
    )


def enumerate_neutral_functions(m: int, n_max: int) -> Iterator[TabledFunction]:
    """Every anonymous + neutral function on the bounded space, exactly once.

    This is the search with N alone, streamed in its lexicographic order: one
    outcome is chosen per orbit from its stabilizer-consistent set and
    propagated to the whole orbit, so no two yielded tables are equal.
    """
    yield from _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))._search()


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremVerdict:
    """Did the axiom set pin down majority rule, and do the proof cases
    partition the profile space?  Its ``to_dict()`` is
    :func:`~scfkit.axioms._document`'s.

    ``stats`` holds the seconds each phase took, by ``perf_counter``:
    ``build_s`` (building the search engine), ``search_s`` (the search
    alone), ``majority_table_s``, ``replay_s`` and ``partition_s``.  It is
    no part of the verdict: a ``compare=False`` field, it is left out of
    ``to_dict()``, the repr and equality."""

    m: int
    n_max: int
    include_dp: bool
    passed: bool
    exhausted: bool
    solution_count: int
    maj_match: bool
    replay_ok: bool
    partition_ok: bool
    case_counts: dict[str, int]
    nodes_explored: int
    prune_counts: dict[str, int]
    stats: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        return _document(self)


def _shape_weight(m: int, shape: tuple[int, ...]) -> int:
    """The ordered profiles of the voters in an orbit with candidate counts
    ``shape``, its abstainers left out: s! / prod c_k! orderings of the s
    votes in each of its m! / prod_v mu_v! classes.  Every division is
    exact."""
    weight = math.factorial(sum(shape))
    for c in shape:
        weight //= math.factorial(c)
    weight *= math.perm(m, len(shape))  # m! / mu_0!, mu_0 the unvoted candidates
    for _, run in groupby(shape):
        weight //= math.factorial(len(list(run)))
    return weight


def _case_partition(m: int, n_max: int) -> tuple[dict[str, int], bool]:
    """How many ordered profiles of 1..n_max voters fall into each case of
    :func:`~scfkit.core.classify_profile`, and whether every profile falls
    into exactly one.  Each count shape is classified once, on the profile
    of its votes alone, or on (0,) for the shape of no votes (see the module
    docstring).  A shape of s votes weighs its shape weight times
    C(n_max + 1, s + 1), less one for s = 0; a shape that falls into no case
    or into several is counted nowhere."""
    case_counts = dict.fromkeys(_CASES, 0)
    partition_ok = True
    for s, shapes in enumerate(_shape_votes(m, n_max)):
        # sum of C(n, s) over n = s..n_max, less the profile of 0 voters
        placements = math.comb(n_max + 1, s + 1) - (s == 0)
        for shape, votes in shapes:
            try:
                case = classify_profile(Profile._trusted(m, votes or (0,)))
            except RuntimeError:  # every profile of this shape falls into no case or into several
                partition_ok = False
                continue
            case_counts[case] += placements * _shape_weight(m, shape)
    return case_counts, partition_ok


def verify_theorem(
    m: int, n_max: int, include_dp: bool = True, max_nodes: int | None = None
) -> TheoremVerdict:
    """Search the axiom set {N, DP?, PO, RS} and verify the solution set is
    exactly majority rule's table; solutions are replayed through the
    independent checkers, and every profile is classified into exactly one of
    the leader / dominating-tie / all-abstention cases (one count shape at
    a time, counted with its number of ordered profiles).  Each phase's
    time goes to the verdict's ``stats``."""
    if type(include_dp) is not bool:
        raise ValueError(f"include_dp {include_dp!r} is not a bool")
    axioms = frozenset({"N", "PO", "RS"} | ({"DP"} if include_dp else set()))
    spec = SearchSpec(m=m, n_max=n_max, axioms=axioms, max_nodes=max_nodes)
    if n_max < 2:
        raise ValueError("the theorem needs a voter bound of at least 2")
    start = perf_counter()
    result = enumerate_functions(spec)
    searched = perf_counter()

    maj_table = TabledFunction.from_rule(RULES["maj"], m, n_max)
    maj_match = len(result.solutions) == 1 and result.solutions[0] == maj_table
    tabulated = perf_counter()

    # N first, so the other checks read one class per neutrality orbit
    replay = [ax for ax in ("N", "DP", "PO", "RS") if ax in axioms]
    replay_ok = all(report.passed for sol in result.solutions for report in check_axioms(sol, m, n_max, replay))
    replayed = perf_counter()

    case_counts, partition_ok = _case_partition(m, n_max)
    partitioned = perf_counter()

    return TheoremVerdict(
        m=m,
        n_max=n_max,
        include_dp=include_dp,
        passed=result.exhausted and maj_match and replay_ok and partition_ok,
        exhausted=result.exhausted,
        solution_count=len(result.solutions),
        maj_match=maj_match,
        replay_ok=replay_ok,
        partition_ok=partition_ok,
        case_counts=case_counts,
        nodes_explored=result.nodes_explored,
        prune_counts=result.prune_counts,
        stats={
            "build_s": result.build_s,
            "search_s": searched - start - result.build_s,
            "majority_table_s": tabulated - searched,
            "replay_s": replayed - tabulated,
            "partition_s": partitioned - replayed,
        },
    )


_INDEPENDENCE_AXIOMS = ("A", "N", "DP", "PO", "RS")
_EXPECTED_FAILURES = {"lex": ("N",), "zero": ("PO",), "uc": ("RS",)}


@dataclass(frozen=True)
class IndependenceVerdict:
    """Each of three rules drops exactly one axiom, with the documented
    minimal witnesses; its ``to_dict()`` is
    :func:`~scfkit.axioms._document`'s."""

    m: int
    n_max: int
    passed: bool
    reports: dict[str, dict[str, AxiomReport]]
    failures: dict[str, tuple[str, ...]]
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return _document(self)


def verify_independence(m: int, n_max: int) -> IndependenceVerdict:
    """Check that lex fails exactly N, zero exactly PO and uc exactly RS over
    {A, N, DP, PO, RS}, with the expected minimal witnesses:
    lex: profile (1, 2) under the 1<->2 swap; zero: the single-vote profile
    (1); uc: profile (1, 1, 2) whose subsociety reduction (0, 0, 1) wins."""
    _check_scope(m, 3)  # the voter bound is held to 3 just below
    if n_max < 3:
        raise ValueError("independence needs a voter bound of at least 3")

    reports: dict[str, dict[str, AxiomReport]] = {}
    failures: dict[str, tuple[str, ...]] = {}
    mismatches: list[str] = []
    for name, expected in _EXPECTED_FAILURES.items():
        rule = RULES[name]
        by_axiom = dict(zip(_INDEPENDENCE_AXIOMS, check_axioms(rule, m, n_max, _INDEPENDENCE_AXIOMS)))
        reports[name] = by_axiom
        fails = tuple(ax for ax in _INDEPENDENCE_AXIOMS if not by_axiom[ax].passed)
        failures[name] = fails
        if fails != expected:
            mismatches.append(f"{name}: expected failures {expected}, got {fails}")

    swap = tuple([2, 1] + list(range(3, m + 1)))
    lex_w = reports["lex"]["N"].witness
    if lex_w is None or lex_w.profile.ballots != (1, 2) or lex_w.permutation != swap:
        mismatches.append("lex: neutrality witness is not profile (1, 2) under the 1<->2 swap")
    zero_w = reports["zero"]["PO"].witness
    if zero_w is None or zero_w.profile.ballots != (1,) or zero_w.actual != 0:
        mismatches.append("zero: consensus witness is not the single-vote profile (1)")
    uc_w = reports["uc"]["RS"].witness
    if (
        uc_w is None
        or uc_w.profile.ballots != (1, 1, 2)
        or uc_w.actual != 0
        or uc_w.expected != 1
        or uc_w.related_profile is None
        or uc_w.related_profile.ballots != (0, 0, 1)
    ):
        mismatches.append("uc: reduction witness is not (1, 1, 2) -> reduced (0, 0, 1) -> 1")

    return IndependenceVerdict(
        m=m,
        n_max=n_max,
        passed=not mismatches,
        reports=reports,
        failures=failures,
        mismatches=tuple(mismatches),
    )
