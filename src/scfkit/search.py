"""Exhaustive, orbit-aware search over anonymous social choice functions.

Functions are represented as outcome tables over canonical (sorted) profiles
up to a voter bound, so anonymity is structural rather than searched over.
The backtracking engine assigns outcomes level by level (n = 1 upward,
profiles lexicographic within a level, outcomes tried 0..m) and rejects a
partial table as soon as a requested axiom is violated on fully-determined
instances.  Reduction equations relate a level-n entry to another level-n
entry through the (already fixed) level n-1 values; an equation whose other
endpoint is still unassigned is deferred, never assumed.

The checkers in :mod:`scfkit.axioms` stay the oracle: the engine's pruning
logic is written independently, and verdict records replay every solution
through the checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .core import Profile, enumerate_profiles, profile_count, tally
from .rules import RULES, TabledFunction
from .axioms import AxiomReport, CHECKERS, PR_TIE_MODES

__all__ = [
    "SEARCH_AXIOMS",
    "SearchSpec",
    "SearchResult",
    "SearchInfeasibleError",
    "NeutralOrbit",
    "enumerate_functions",
    "neutral_orbits",
    "enumerate_neutral_functions",
    "is_all_abstention",
    "is_leader_profile",
    "is_dominating_tie",
    "classify_profile",
    "TheoremVerdict",
    "verify_theorem",
    "IndependenceVerdict",
    "verify_independence",
]

# Anonymity is built into the table representation and cannot be requested.
SEARCH_AXIOMS = ("N", "DP", "PO", "RS", "PR")


class SearchInfeasibleError(RuntimeError):
    """The requested scope exceeds configured resource limits; carries an
    estimate so callers can report it."""

    def __init__(self, message: str, cells: int, tables: int):
        self.cells = cells
        self.tables = tables
        super().__init__(message)


@dataclass(frozen=True)
class SearchSpec:
    """What to search: scope, axiom subset and resource limits."""

    m: int
    n_max: int
    axioms: frozenset[str]
    limit: int | None = None
    max_nodes: int | None = None
    max_cells: int = 20_000
    pr_tie_upgrade: str = "leaders"

    def __post_init__(self):
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        if self.m < 2:
            raise ValueError(f"candidate count must be >= 2, got {self.m}")
        if self.n_max < 1:
            raise ValueError(f"voter bound must be >= 1, got {self.n_max}")
        unknown = self.axioms - set(SEARCH_AXIOMS)
        if "A" in unknown:
            raise ValueError("anonymity is structural in table search; do not request it")
        if unknown:
            raise ValueError(f"unknown search axioms: {sorted(unknown)}")
        if self.limit is not None and self.limit < 1:
            raise ValueError("solution limit must be positive")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("node limit must be positive")
        if self.pr_tie_upgrade not in PR_TIE_MODES:
            raise ValueError(
                f"pr_tie_upgrade must be one of {PR_TIE_MODES}, got {self.pr_tie_upgrade!r}"
            )


@dataclass
class SearchResult:
    spec: SearchSpec
    solutions: list[TabledFunction]
    exhausted: bool
    nodes_explored: int
    prune_counts: dict[str, int]


def _cells(m: int, n_max: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for n in range(1, n_max + 1):
        out.extend(p.ballots for p in enumerate_profiles(m, n, canonical_only=True))
    return out


def _tau_value(image: tuple[int, ...], v: int) -> int:
    return 0 if v == 0 else image[v - 1]


def _tau_class(image: tuple[int, ...], ballots: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(_tau_value(image, b) for b in ballots))


def _support(ballots: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(b for b in ballots if b > 0)))


def _dp_allowed(ballots: tuple[int, ...], m: int) -> frozenset[int] | None:
    """Outcomes the duel property permits on this class, or None when it does
    not constrain (support of three or more candidates)."""
    support = _support(ballots)
    if len(support) > 2:
        return None
    allowed = set(range(m + 1))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if all(k in (i, j) for k in support):
                allowed &= {0, i, j}
    return frozenset(allowed)


def _pareto_forced(ballots: tuple[int, ...]) -> int | None:
    support = _support(ballots)
    return support[0] if len(support) == 1 else None


def _leaders(ballots: tuple[int, ...], m: int) -> frozenset[int]:
    counts = [0] * m
    for b in ballots:
        if b > 0:
            counts[b - 1] += 1
    top = max(counts)
    return frozenset(k for k in range(1, m + 1) if counts[k - 1] == top)


class _Truncated(Exception):
    pass


class _Engine:
    """Chronological backtracking over the table cells with per-assignment
    consistency checks for the requested axioms."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        m, n_max = spec.m, spec.n_max
        self.m = m
        self.cells = _cells(m, n_max)
        self.index = {c: i for i, c in enumerate(self.cells)}
        self.level = [len(c) for c in self.cells]
        self.out: list[int | None] = [None] * len(self.cells)

        self.po_forced = [_pareto_forced(c) for c in self.cells] if "PO" in spec.axioms else None
        self.dp_allowed = [_dp_allowed(c, m) for c in self.cells] if "DP" in spec.axioms else None

        self.n_edges: list[list[tuple[int, tuple[int, ...]]]] | None = None
        if "N" in spec.axioms:
            taus = list(permutations(range(1, m + 1)))
            self.n_edges = [
                [(self.index[_tau_class(tau, c)], tau) for tau in taus] for c in self.cells
            ]

        self.pr_from: list[list[tuple[int, int]]] | None = None
        self.pr_to: list[list[tuple[int, int]]] | None = None
        self.cell_leaders: list[frozenset[int]] | None = None
        if "PR" in spec.axioms:
            self.pr_from = [[] for _ in self.cells]
            self.pr_to = [[] for _ in self.cells]
            self.cell_leaders = [_leaders(c, m) for c in self.cells]
            for i, c in enumerate(self.cells):
                for v in sorted(set(c)):
                    pos = c.index(v)
                    for k in range(1, m + 1):
                        if k == v:
                            continue
                        dst = tuple(sorted(c[:pos] + (k,) + c[pos + 1 :]))
                        j = self.index[dst]
                        self.pr_from[i].append((j, k))
                        self.pr_to[j].append((i, k))

        # reduce maps per level, built lazily once the level below is fixed
        self._rs_maps: dict[int, tuple[dict[int, int], dict[int, list[int]]]] = {}

        self.nodes = 0
        self.prunes: dict[str, int] = {ax: 0 for ax in sorted(spec.axioms)}
        self.solutions: list[TabledFunction] = []
        self.exhausted = True

    # -- constraint machinery ------------------------------------------------

    def _rs_level_maps(self, n: int) -> tuple[dict[int, int], dict[int, list[int]]]:
        """src -> reduced-class target (and its inverse) for level n, computed
        from the level n-1 outcomes currently on the table."""
        cached = self._rs_maps.get(n)
        if cached is not None:
            return cached
        targets: dict[int, int] = {}
        sources: dict[int, list[int]] = {}
        for i, c in enumerate(self.cells):
            if len(c) != n:
                continue
            # c is sorted, so dropping one position keeps the key canonical
            reduced = tuple(sorted(self.out[self.index[c[:l] + c[l + 1 :]]] for l in range(n)))
            j = self.index[reduced]
            targets[i] = j
            sources.setdefault(j, []).append(i)
        self._rs_maps[n] = (targets, sources)
        return targets, sources

    def _violated(self, i: int, v: int) -> str | None:
        """First requested axiom violated by out[i] = v, given the current
        partial table (out[i] already holds v)."""
        if self.po_forced is not None:
            forced = self.po_forced[i]
            if forced is not None and v != forced:
                return "PO"
        if self.dp_allowed is not None:
            allowed = self.dp_allowed[i]
            if allowed is not None and v not in allowed:
                return "DP"
        if self.n_edges is not None:
            for j, tau in self.n_edges[i]:
                w = self.out[j]
                if w is not None and w != _tau_value(tau, v):
                    return "N"
        if "RS" in self.spec.axioms and self.level[i] >= 2:
            targets, sources = self._rs_level_maps(self.level[i])
            t = self.out[targets[i]]
            if t is not None and t != v:
                return "RS"
            for src in sources.get(i, ()):
                s = self.out[src]
                if s is not None and s != v:
                    return "RS"
        if self.pr_from is not None:
            tie = self.spec.pr_tie_upgrade
            for j, k in self.pr_from[i]:
                w = self.out[j]
                if w is None or w == k:
                    continue
                if v == k:
                    return "PR"
                if v == 0 and (tie == "always" or (tie == "leaders" and k in self.cell_leaders[i])):
                    return "PR"
            for j, k in self.pr_to[i]:
                s = self.out[j]
                if s is None or v == k:
                    continue
                if s == k:
                    return "PR"
                if s == 0 and (tie == "always" or (tie == "leaders" and k in self.cell_leaders[j])):
                    return "PR"
        return None

    # -- search --------------------------------------------------------------

    def run(self) -> None:
        try:
            self._backtrack(0)
        except _Truncated:
            self.exhausted = False

    def _backtrack(self, i: int) -> None:
        if i == len(self.cells):
            table = {c: self.out[j] for j, c in enumerate(self.cells)}
            self.solutions.append(TabledFunction(self.m, self.spec.n_max, table))
            if self.spec.limit is not None and len(self.solutions) >= self.spec.limit:
                raise _Truncated
            return
        for v in range(self.m + 1):
            self.nodes += 1
            if self.spec.max_nodes is not None and self.nodes > self.spec.max_nodes:
                raise _Truncated
            self.out[i] = v
            # a fresh value below level L invalidates reduce maps above it
            for n in list(self._rs_maps):
                if n > self.level[i]:
                    del self._rs_maps[n]
            axiom = self._violated(i, v)
            if axiom is None:
                self._backtrack(i + 1)
            else:
                self.prunes[axiom] += 1
            self.out[i] = None


def enumerate_functions(spec: SearchSpec) -> SearchResult:
    """All anonymous functions on the bounded profile space satisfying the
    requested axioms, by exhaustive backtracking; ``exhausted`` is False iff
    a node or solution limit cut the search short."""
    cells = sum(profile_count(spec.m, n, canonical_only=True) for n in range(1, spec.n_max + 1))
    if cells > spec.max_cells:
        raise SearchInfeasibleError(
            f"table would need {cells} cells (> {spec.max_cells}); "
            f"raw space {spec.m + 1}^{cells} tables",
            cells=cells,
            tables=(spec.m + 1) ** cells,
        )
    engine = _Engine(spec)
    engine.run()
    return SearchResult(
        spec=spec,
        solutions=engine.solutions,
        exhausted=engine.exhausted,
        nodes_explored=engine.nodes,
        prune_counts=engine.prunes,
    )


# -- neutral function enumeration by orbits -----------------------------------


@dataclass(frozen=True)
class NeutralOrbit:
    """A candidate-relabeling orbit of anonymity classes.

    Any outcome assigned to the representative propagates over the whole
    orbit; consistency limits the choice to outcomes fixed by every
    relabeling that maps the representative's class to itself.
    """

    representative: Profile
    members: tuple[tuple[int, ...], ...]
    stabilizer: tuple[tuple[int, ...], ...]
    allowed_outcomes: tuple[int, ...]


def neutral_orbits(m: int, n_max: int) -> list[NeutralOrbit]:
    """Orbits of canonical profiles under candidate relabelings, in
    (n, representative) order."""
    cells = _cells(m, n_max)
    index = {c: i for i, c in enumerate(cells)}
    taus = list(permutations(range(1, m + 1)))
    claimed: set[int] = set()
    orbits: list[NeutralOrbit] = []
    for i, c in enumerate(cells):
        if i in claimed:
            continue
        members: set[int] = set()
        stabilizer: list[tuple[int, ...]] = []
        for tau in taus:
            j = index[_tau_class(tau, c)]
            members.add(j)
            if j == i:
                stabilizer.append(tau)
        allowed = tuple(
            o for o in range(m + 1) if all(_tau_value(tau, o) == o for tau in stabilizer)
        )
        orbits.append(
            NeutralOrbit(
                representative=Profile(m, c),
                members=tuple(cells[j] for j in sorted(members)),
                stabilizer=tuple(stabilizer),
                allowed_outcomes=allowed,
            )
        )
        claimed |= members
    return orbits


def enumerate_neutral_functions(
    m: int, n_max: int, max_functions: int | None = None
) -> Iterator[TabledFunction]:
    """Every anonymous + neutral function on the bounded space, exactly once.

    One outcome is chosen per orbit from its stabilizer-consistent set and
    propagated to the whole orbit, so neutrality holds by construction and no
    two yielded tables are equal.
    """
    orbits = neutral_orbits(m, n_max)
    taus = list(permutations(range(1, m + 1)))
    total = math.prod(len(o.allowed_outcomes) for o in orbits)
    if max_functions is not None and total > max_functions:
        raise SearchInfeasibleError(
            f"{total} neutral functions exceed the cap of {max_functions}",
            cells=len(_cells(m, n_max)),
            tables=total,
        )
    for choice in product(*(o.allowed_outcomes for o in orbits)):
        table: dict[tuple[int, ...], int] = {}
        for orbit, o in zip(orbits, choice):
            rep = orbit.representative.ballots
            for tau in taus:
                key = _tau_class(tau, rep)
                value = _tau_value(tau, o)
                assert table.setdefault(key, value) == value, "orbit propagation clash"
        yield TabledFunction(m, n_max, table)


# -- profile classification (the two proof cases plus the empty profile) ------


def is_all_abstention(p: Profile) -> bool:
    return all(b == 0 for b in p.ballots)


def is_leader_profile(p: Profile) -> bool:
    """Some candidate has strictly more votes than every other candidate."""
    counts = tally(p).counts
    for k in range(1, p.m + 1):
        if all(counts[k - 1] > counts[j - 1] for j in range(1, p.m + 1) if j != k):
            return True
    return False


def is_dominating_tie(p: Profile) -> bool:
    """Two or more candidates share the strictly highest, positive vote count."""
    counts = tally(p).counts
    top = max(counts)
    return top > 0 and counts.count(top) >= 2


def classify_profile(p: Profile) -> str:
    flags = {
        "all_abstention": is_all_abstention(p),
        "dominating_tie": is_dominating_tie(p),
        "leader": is_leader_profile(p),
    }
    hits = [name for name, hit in flags.items() if hit]
    if len(hits) != 1:
        raise RuntimeError(f"profile {p.ballots} classified as {hits}; not a partition")
    return hits[0]


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremVerdict:
    """Did the axiom set pin down majority rule, and do the proof cases
    partition the profile space?"""

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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n_max": self.n_max,
            "include_dp": self.include_dp,
            "pass": self.passed,
            "exhausted": self.exhausted,
            "solution_count": self.solution_count,
            "maj_match": self.maj_match,
            "replay_ok": self.replay_ok,
            "partition_ok": self.partition_ok,
            "case_counts": dict(sorted(self.case_counts.items())),
            "nodes_explored": self.nodes_explored,
            "prune_counts": dict(sorted(self.prune_counts.items())),
        }


def verify_theorem(
    m: int, n_max: int, include_dp: bool = True, max_nodes: int | None = None
) -> TheoremVerdict:
    """Search the axiom set {N, DP?, PO, RS} and verify the solution set is
    exactly majority rule's table; solutions are replayed through the
    independent checkers, and every profile is classified into exactly one of
    the leader / dominating-tie / all-abstention cases."""
    axioms = frozenset({"N", "PO", "RS"} | ({"DP"} if include_dp else set()))
    spec = SearchSpec(m=m, n_max=n_max, axioms=axioms, max_nodes=max_nodes)
    result = enumerate_functions(spec)

    maj_table = TabledFunction.from_rule(RULES["maj"], m, n_max)
    maj_match = len(result.solutions) == 1 and result.solutions[0] == maj_table

    replay_ok = all(
        CHECKERS[ax](sol, m, n_max).passed
        for sol in result.solutions
        for ax in sorted(axioms)
    )

    case_counts = {"all_abstention": 0, "dominating_tie": 0, "leader": 0}
    partition_ok = True
    for n in range(1, n_max + 1):
        for p in enumerate_profiles(m, n):
            hits = [
                name
                for name, hit in (
                    ("all_abstention", is_all_abstention(p)),
                    ("dominating_tie", is_dominating_tie(p)),
                    ("leader", is_leader_profile(p)),
                )
                if hit
            ]
            if len(hits) != 1:
                partition_ok = False
                continue
            case_counts[hits[0]] += 1

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
    )


_INDEPENDENCE_AXIOMS = ("A", "N", "DP", "PO", "RS")
_EXPECTED_FAILURES = {"lex": ("N",), "zero": ("PO",), "uc": ("RS",)}


@dataclass(frozen=True)
class IndependenceVerdict:
    """Each of three rules drops exactly one axiom, with the documented
    minimal witnesses."""

    m: int
    n_max: int
    passed: bool
    reports: dict[str, dict[str, AxiomReport]]
    failures: dict[str, tuple[str, ...]]
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n_max": self.n_max,
            "pass": self.passed,
            "failures": {rule: list(axs) for rule, axs in sorted(self.failures.items())},
            "mismatches": list(self.mismatches),
            "reports": {
                rule: {ax: rep.to_dict() for ax, rep in sorted(by_axiom.items())}
                for rule, by_axiom in sorted(self.reports.items())
            },
        }


def verify_independence(m: int, n_max: int, workers: int = 1) -> IndependenceVerdict:
    """Check that lex fails exactly N, zero exactly PO and uc exactly RS over
    {A, N, DP, PO, RS}, with the expected minimal witnesses:
    lex: profile (1, 2) under the 1<->2 swap; zero: the single-vote profile
    (1); uc: profile (1, 1, 2) whose subsociety reduction (0, 0, 1) wins.
    ``workers`` is accepted for compatibility and ignored."""
    if m < 2:
        raise ValueError(f"candidate count must be >= 2, got {m}")
    if n_max < 3:
        raise ValueError("independence needs a voter bound of at least 3")

    reports: dict[str, dict[str, AxiomReport]] = {}
    failures: dict[str, tuple[str, ...]] = {}
    mismatches: list[str] = []
    for name, expected in _EXPECTED_FAILURES.items():
        rule = RULES[name]
        by_axiom = {ax: CHECKERS[ax](rule, m, n_max) for ax in _INDEPENDENCE_AXIOMS}
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
