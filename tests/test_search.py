import dataclasses
import gc
import hashlib
import math
import time
from functools import cache
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from scfkit import core, search
from scfkit.axioms import (
    PR_TIE_MODES,
    check_duel_property,
    check_neutrality,
    check_pareto,
    check_positive_responsiveness,
    check_rs,
)
from scfkit.core import (
    Profile,
    classify_profile,
    enumerate_profiles,
    is_all_abstention,
    is_dominating_tie,
    is_leader_profile,
    profile_count,
)
from scfkit.engine import _COST_CAP, _Engine, _cell_count, _compose, _inverse, _merge
from scfkit.rules import RULES, TabledFunction
from scfkit.search import (
    SEARCH_AXIOMS,
    SearchInfeasibleError,
    SearchSpec,
    enumerate_functions,
    enumerate_neutral_functions,
    verify_independence,
    verify_theorem,
)

MAJ = RULES["maj"]


def _maj_table(m, n_max):
    return TabledFunction(m, n_max, TabledFunction.from_rule(MAJ, m, n_max).table)


def _table_cells(m, n_max):
    """The sorted ballots of every class of 1..n_max voters, in table order."""
    return [p.ballots for n in range(1, n_max + 1) for p in enumerate_profiles(m, n, canonical_only=True)]


def _count_vector(c, m):
    """How many of the ballots c take each value 0..m, counted per value."""
    return tuple(c.count(b) for b in range(m + 1))


def _all_complete_tables(m, n_max):
    """Raw enumeration of every complete outcome table, the brute-force side
    of the pruning-soundness comparison."""
    cells = _table_cells(m, n_max)
    for values in product(range(m + 1), repeat=len(cells)):
        yield TabledFunction(m, n_max, dict(zip(cells, values)))


_CHECKER_BY_AXIOM = {
    "N": check_neutrality,
    "DP": check_duel_property,
    "PO": check_pareto,
    "RS": check_rs,
    "PR": check_positive_responsiveness,
}


def _passes_all(f, m, n_max, axioms):
    return all(_CHECKER_BY_AXIOM[ax](f, m, n_max).passed for ax in sorted(axioms))


@cache
def _brute_force_passes(m, n_max):
    """Every complete table at the scope, and for each axiom the positions of
    the tables its checker passes (RS is vacuous below two voters)."""
    tables = list(_all_complete_tables(m, n_max))
    passes = {
        ax: {
            i
            for i, t in enumerate(tables)
            if (ax == "RS" and n_max < 2) or checker(t, m, n_max).passed
        }
        for ax, checker in _CHECKER_BY_AXIOM.items()
    }
    return tables, passes


def _orbits_by_permutations(cells, m):
    """Orbits found by applying all m! relabelings to each representative,
    the walk the count-signature orbits replaced: per orbit, the first
    relabeling in lexicographic order that reaches each member, and the
    outcomes every relabeling fixing the representative fixes."""
    index = {c: i for i, c in enumerate(cells)}
    taus = list(permutations(range(1, m + 1)))
    claimed = set()
    orbits = []
    for i, c in enumerate(cells):
        if i in claimed:
            continue
        labels = {}
        stabilizer = []
        for tau in taus:
            j = index[tuple(sorted(0 if b == 0 else tau[b - 1] for b in c))]
            labels.setdefault(j, tau)
            if j == i:
                stabilizer.append(tau)
        allowed = tuple(o for o in range(m + 1) if all(o == 0 or tau[o - 1] == o for tau in stabilizer))
        orbits.append((i, labels, allowed))
        claimed.update(labels)
    return orbits


def _orbits_by_transpositions(cells, m):
    """Each cell's orbit representative, the first cell its orbit holds,
    found by closing each cell under the swaps of candidates k and k + 1,
    which generate every relabeling: no m! walk, so it reaches large m."""
    index = {c: i for i, c in enumerate(cells)}
    orbit = [None] * len(cells)
    for i, c in enumerate(cells):
        if orbit[i] is not None:
            continue
        orbit[i], todo = i, [c]
        while todo:
            c = todo.pop()
            for k in range(1, m):
                swap = {k: k + 1, k + 1: k}
                j = index[tuple(sorted(swap.get(b, b) for b in c))]
                if orbit[j] is None:
                    orbit[j] = i
                    todo.append(cells[j])
    return orbit


def _as_cell_orbits(orbits, size):
    """Per-orbit ``(rep, labels, allowed)`` triples per cell: each cell's
    representative and label (an outcome map), and each representative's
    fixed outcomes.  The engine's ``orbit`` holds the first, and its
    ``allowed["N"]`` holds the last; the labels are the reference for its
    count read (``_labels``)."""
    orbit, label, fixed = [None] * size, [None] * size, {}
    for rep, labels, allowed in orbits:
        fixed[rep] = allowed
        for j, tau in labels.items():
            orbit[j] = rep
            label[j] = (0, *tau)
    return orbit, label, fixed


def _stable_label(c, m):
    """The lexicographically first relabeling sending the representative of
    the cell with count vector c onto it, as an outcome map: 0, then c's
    candidates by count, largest first, ties ascending."""
    return (0, *sorted(range(1, m + 1), key=lambda k: (-c[k], k)))


def _labels(engine):
    """Each cell's label as the engine kept one per cell before it read
    members through their counts: the stable-sort label under N, the
    identity without, where every cell is its own representative."""
    if "N" not in engine.allowed:
        return [tuple(range(engine.m + 1))] * len(engine.cells)
    return [_stable_label(c, engine.m) for c in engine.counts]


def _reps(engine):
    return [j for j, r in enumerate(engine.orbit) if r == j]


def _neutral_tables_by_product(m, n_max):
    """Neutral tables as the per-orbit product enumeration produced them
    before the N-only search replaced it, in that order."""
    cells = _table_cells(m, n_max)
    orbits = _orbits_by_permutations(cells, m)
    for choice in product(*(allowed for *_, allowed in orbits)):
        yield {
            cells[j]: 0 if o == 0 else tau[o - 1]
            for (_, labels, _), o in zip(orbits, choice)
            for j, tau in labels.items()
        }


# The union-find that merged each level's equations before the successor
# walk replaced it, kept as the walk's reference.


def _uf_find(parent, link, a):
    """The root of a's component and the map L with x_a = L[x_root]."""
    path = []
    while parent[a] != a:
        path.append(a)
        a = parent[a]
    label = link[a]
    for node in reversed(path):
        label = _compose(link[node], label)
        parent[node] = a
        link[node] = label
    return a, label


def _uf_union(parent, link, a, b, rho, cycles):
    """Merge x_a = rho[x_b]; a closed cycle records (root, p), x_root = p[x_root]."""
    ra, la = _uf_find(parent, link, a)
    rb, lb = _uf_find(parent, link, b)
    p = _compose(_inverse(la), _compose(rho, lb))
    if ra != rb:
        parent[ra] = rb
        link[ra] = p
    else:
        cycles.append((ra, p))


def _uf_merge(nodes, equations, m):
    """Components of the equations (a, b, rho), x_a = rho[x_b], in order of
    their smallest node: (node, L) pairs and the allowed root values."""
    identity = tuple(range(m + 1))
    parent = {a: a for a in nodes}
    link = {a: identity for a in nodes}
    cycles = []
    for a, b, rho in equations:
        _uf_union(parent, link, a, b, rho, cycles)
    groups = {}
    for a in nodes:
        root, label = _uf_find(parent, link, a)
        groups.setdefault(root, []).append((a, label))
    allowed = {root: set(identity) for root in groups}
    for node, p in cycles:
        root, label = _uf_find(parent, link, node)
        allowed[root] &= {x for x in identity if p[label[x]] == label[x]}
    return [(group, frozenset(allowed[root])) for root, group in groups.items()]


def _fixed_points(p):
    """The values a relabeling p maps to themselves, ascending."""
    return [x for x, y in enumerate(p) if x == y]


def _uf_components(engine, n):
    """``engine._components(n)`` with the level's equations merged by the
    union-find."""
    reps = engine.reps[n]
    equations = []
    if engine.subcells is not None and n >= 2:
        label = _labels(engine)
        for r in reps:
            d = engine._reduced(r)
            equations.append((r, engine.orbit[d], label[d]))
    merged = _uf_merge(reps, equations, engine.m)
    return [(group, allowed, _inverse(group[0][1])) for group, allowed in merged]


class _MemberCellEngine(_Engine):
    """The engine deciding each value as it did before the decision moved to
    the representatives, kept as that decision's reference: PO and DP at
    every member cell, N and RS at the representatives, then PR on every
    member cell's upgrade edges.  The engine builds its facts for
    representatives only, so the reference builds them for every cell, as
    the engine did before.  The engine stores outcomes at representatives
    only and reads members through their counts; the reference writes every
    member cell through maps built from ``orbit`` and the stable-sort labels
    (``_labels``) and reads each cell as stored.  The search resets a
    component's representatives only, so a cell whose representative is
    unassigned reads as unassigned."""

    def __init__(self, spec):
        super().__init__(spec)
        self.label = _labels(self)
        self.members = {}
        for j, r in enumerate(self.orbit):
            self.members.setdefault(r, []).append(j)
        m, counts = self.m, self.counts
        index = {c: i for i, c in enumerate(counts)}
        candidates = range(1, m + 1)
        supports = [[k for k in candidates if c[k]] for c in counts]
        po, dp = "PO" in self.allowed, "DP" in self.allowed
        self.po_forced = [s[0] if len(s) == 1 else None for s in supports] if po else None
        self.dp_allowed = [frozenset((0, *s)) if len(s) <= 2 else None for s in supports] if dp else None
        rs, pr = self.subcells is not None, self.pr_edges is not None
        self.subcells = [[] for _ in counts] if rs else None
        self.pr_edges = [[] for _ in counts] if pr else None
        tie = spec.pr_tie_upgrade
        for i, c in enumerate(counts):
            top = max(c[1:])
            for v in range(m + 1):
                if not c[v]:
                    continue
                moved = list(c)
                moved[v] -= 1
                if rs and sum(c) > 1:
                    self.subcells[i].append((index[tuple(moved)], c[v]))
                if pr:
                    for k in candidates:
                        if k == v:
                            continue
                        moved[k] += 1
                        j = index[tuple(moved)]
                        moved[k] -= 1
                        edge = (i, j, k, tie == "always" or (tie == "leaders" and c[k] == top))
                        self.pr_edges[i].append(edge)
                        self.pr_edges[j].append(edge)

    def _value(self, j):
        return None if self.out[self.orbit[j]] is None else self.out[j]

    def _try(self, comp, v):
        group, around, to_root = comp
        maps = [(c, _compose(self.label[c], label)) for r, label in group for c in self.members[r]]
        # the value at the smallest member cell, the first, maps back to the root
        assert maps[0][0] == min(c for c, _ in maps)
        assert to_root == _inverse(maps[0][1])
        x = to_root[v]
        values = [(c, f[x]) for c, f in maps]
        po, dp = self.po_forced, self.dp_allowed
        if po is not None and any(po[c] is not None and po[c] != w for c, w in values):
            return "PO"
        if dp is not None and any(dp[c] is not None and w not in dp[c] for c, w in values):
            return "DP"
        fixed = self.allowed.get("N")
        if fixed is not None and any(label[x] not in fixed[r] for r, label in group):
            return "N"
        if x not in _fixed_points(around):
            return "RS"
        for c, w in values:
            self.out[c] = w
        if self.pr_edges is not None and any(self._pr_clash(c) for c, _ in values):
            for c, _ in values:
                self.out[c] = None
            return "PR"
        return None


@cache
def _rs_engine(m, n_max, axioms, tie):
    return _Engine(SearchSpec(m=m, n_max=n_max, axioms=axioms, pr_tie_upgrade=tie))


# Tuple-built references for the count-vector engine, written as the engine
# built each fact from sorted ballot tuples before it worked on count vectors.


def _support(c):
    return tuple(sorted(set(b for b in c if b > 0)))


def _po_forced_by_support(c):
    support = _support(c)
    return support[0] if len(support) == 1 else None


def _dp_allowed_by_pairs(c, m):
    """Every outcome allowed by each pair the class is a duel of (all of them
    when its support has three or more candidates)."""
    support = _support(c)
    allowed = set(range(m + 1))
    if len(support) <= 2:
        for i, j in combinations(range(1, m + 1), 2):
            if all(k in (i, j) for k in support):
                allowed &= {0, i, j}
    return allowed


def _reduced_by_deletion(c, outcome):
    return tuple(sorted(outcome[c[:l] + c[l + 1 :]] for l in range(len(c))))


def _pr_targets_by_replacement(c, m, tie):
    """(target, k, binds) for each upgrade of one ballot v of c to k != v."""
    counts = [c.count(k) for k in range(1, m + 1)]
    leaders = {k for k in range(1, m + 1) if counts[k - 1] == max(counts)}
    targets = []
    for v in sorted(set(c)):
        pos = c.index(v)
        for k in range(1, m + 1):
            if k != v:
                binds = tie == "always" or (tie == "leaders" and k in leaders)
                targets.append((tuple(sorted(c[:pos] + (k,) + c[pos + 1 :])), k, binds))
    return targets


def _engine(m, n_max, tie="leaders", axioms=SEARCH_AXIOMS):
    spec = SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms), pr_tie_upgrade=tie)
    return _Engine(spec)


def _fact_engines(m, n_max, tie="leaders"):
    """Engines under every search axiom, and with N dropped, where every cell
    is its own representative."""
    without_n = _engine(m, n_max, tie, set(SEARCH_AXIOMS) - {"N"})
    assert without_n.orbit == list(range(len(without_n.cells)))
    return _engine(m, n_max, tie), without_n


def _grouped_orbits(counts, m):
    """The orbits as grouped by count signature before each cell's orbit was
    read off its sorted count vector, kept as that construction's reference:
    cells grouped by (abstentions, sorted candidate counts), and each
    member's label built by handing each of the representative's candidates
    the smallest unused candidate with its count in the member."""
    groups = {}
    for i, c in enumerate(counts):
        groups.setdefault((c[0], tuple(sorted(c[1:]))), []).append(i)
    orbits = []
    for members in groups.values():
        rep = members[0]
        votes = counts[rep][1:]
        labels = {}
        for j in members:
            by_count = {}  # each count's candidates, largest first
            for k in range(m, 0, -1):
                by_count.setdefault(counts[j][k], []).append(k)
            labels[j] = tuple(by_count[x].pop() for x in votes)
        allowed = (0, *(k for k in range(1, m + 1) if votes.count(votes[k - 1]) == 1))
        orbits.append((rep, labels, allowed))
    return orbits


_ENGINE_SCOPES = [(m, n_max) for m in range(2, 6) for n_max in range(2, 5)]


# The five original subsets first, so their test ids stay put; then every
# other subset of the search axioms at (2, 2), and all of them at (3, 1).
_ORIGINAL_SUBSETS = [
    {"N", "PO"}, {"N", "DP", "PO"}, {"N", "DP", "PO", "RS"}, {"PR"}, {"N", "PR"},
]
_ALL_SUBSETS = [set(c) for r in range(len(SEARCH_AXIOMS) + 1) for c in combinations(SEARCH_AXIOMS, r)]
_SOUNDNESS_CASES = (
    [(2, 2, axioms) for axioms in _ORIGINAL_SUBSETS]
    + [(2, 2, axioms) for axioms in _ALL_SUBSETS if axioms not in _ORIGINAL_SUBSETS]
    + [(3, 1, axioms) for axioms in _ALL_SUBSETS]
)

# sha256 of the concatenated to_text() of the ordered solution list, and its
# length, as the chronological cell-by-cell backtracking engine emitted them
# before the level-wise search replaced it.
_GOLDEN = [
    (2, 3, {"RS"}, "leaders", 22977,
     "3465dc2dd8f64ad108be77eb963742820f2b5283d25e43426965752952f68371"),
    (3, 2, {"PR", "RS"}, "leaders", 1224,
     "fddf88137e00999283fd39eb81f07d62f00ec10d0d564b7f0ad14df7d7b59d65"),
    (3, 2, {"PR", "RS"}, "always", 509,
     "eb3d07170218fab61efa385cd21ed86ee047cfff3c2a5344c094a5c12fc9a41f"),
    (3, 2, {"PR", "RS"}, "wins", 4610,
     "9eaeceb01470ebb32cd440ea0c8288d5262ac774356eeca17c72521dc06aea4a"),
    (3, 3, {"N", "PO", "RS"}, "leaders", 3,
     "e68954fb2f8b63727183323a944a971da9195bca3025cf42d70e691c4648369f"),
    (3, 5, {"N", "PO", "RS"}, "leaders", 21,
     "b2f33b882b59bd05d55949a5cf970413016c9bcbce6b126c716a63b3ccf8408d"),
    (4, 3, {"N", "PO", "RS"}, "leaders", 1,
     "d4477016835a57cc347eee52222f34a79ece3262bfc66d0ba53849ea2db39e96"),
    (2, 4, {"N", "PR"}, "leaders", 1,
     "5680c1bcf98d0347e31c9bece9fb7f9eb288db4be581da682f97e4ace52c79aa"),
]

# The benchmark's search scopes under {N, DP, PO, RS}: the engine's nodes,
# its prunes by axiom, and the sha256 of the one solution's to_text(), the
# file `search --out` writes as solution_000.table.
_BENCH_SEARCHES = [
    (2, 9, 117, {"DP": 0, "N": 58, "PO": 20, "RS": 0},
     "5837f93e40b5fb9cdf4e1e17db5f14a5ad424e783a85d8accad77c4fb456637c"),
    (3, 7, 108, {"DP": 33, "N": 24, "PO": 24, "RS": 0},
     "33930fbe6b27891f5d11cec5a25d8490fabf5a321cdc4c81fa0972efdcf1613e"),
]


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(m=1, n_max=2, axioms=frozenset())
        with pytest.raises(ValueError):
            SearchSpec(m=2, n_max=0, axioms=frozenset())
        with pytest.raises(ValueError):
            SearchSpec(m=2, n_max=2, axioms=frozenset({"A"}))
        with pytest.raises(ValueError):
            SearchSpec(m=2, n_max=2, axioms=frozenset({"XX"}))
        with pytest.raises(ValueError):
            SearchSpec(m=2, n_max=2, axioms=frozenset(), limit=0)
        with pytest.raises(ValueError):
            SearchSpec(m=2, n_max=2, axioms=frozenset({"PR"}), pr_tie_upgrade="maybe")

    @pytest.mark.parametrize(
        "limits,message",
        [
            ({"max_nodes": 2.5}, "node limit 2.5 is not an int"),
            ({"limit": 1.5}, "solution limit 1.5 is not an int"),
            ({"limit": True}, "solution limit True is not an int"),
            ({"max_nodes": 0}, "node limit must be positive"),
            ({"m": 2.0}, "candidate count 2.0 is not an int"),
        ],
        ids=["max_nodes-float", "limit-float", "limit-bool", "max_nodes-zero", "m-float"],
    )
    def test_limits_and_scope_must_be_ints(self, limits, message):
        # max_nodes=2.5 explored and reported 3 nodes; limit=1.5 raised
        # islice's error
        spec = {"m": 2, "n_max": 2, "axioms": frozenset({"N"})} | limits
        with pytest.raises(ValueError) as err:
            SearchSpec(**spec)
        assert str(err.value) == message

    def test_a_str_is_one_axiom_id(self):
        # "PO" was read as the ids P and O, and refused
        assert SearchSpec(m=2, n_max=3, axioms="PO").axioms == frozenset({"PO"})
        assert SearchSpec(m=2, n_max=3, axioms="N").axioms == frozenset({"N"})

    def test_infeasible_scope_is_refused_with_estimate(self):
        with pytest.raises(SearchInfeasibleError) as err:
            enumerate_functions(SearchSpec(m=8, n_max=8, axioms=frozenset({"N"})))
        assert err.value.cells == 24309 and err.value.tables == 9 ** 24309
        assert str(err.value) == "table would need 24309 cells (> 20000); raw space 9^24309 tables"

    @pytest.mark.parametrize(
        "m,n_max", [(2, 1), (2, 40), (3, 26), (8, 5), (40, 3), (1_000_000, 1), (12, 12), (2, 1800)]
    )
    def test_cell_count_is_the_binomial_below_the_cap(self, m, n_max):
        assert _cell_count(m, n_max) == math.comb(n_max + m + 1, m + 1) - 1

    @pytest.mark.parametrize("m,n_max", [(10_000, 10_000), (1_000_000, 1_000_000), (2, 10**9), (12, 30), (30, 30)])
    def test_cell_count_stops_past_the_cap(self, m, n_max):
        cells = _cell_count(m, n_max)
        assert _COST_CAP < cells
        if max(m, n_max) < 1000:
            assert cells <= math.comb(n_max + m + 1, m + 1) - 1
        with pytest.raises(SearchInfeasibleError) as err:
            enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))
        assert err.value.cells == cells
        assert str(err.value) == (
            f"table would need over 1000000000 cells (> 20000); raw space over {m + 1}^1000000000 tables"
        )


class TestEnumerateFunctions:
    def test_theorem_axioms_pin_majority_at_m2(self):
        result = enumerate_functions(
            SearchSpec(m=2, n_max=3, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        assert result.exhausted
        assert result.solutions == [_maj_table(2, 3)]

    def test_theorem_axioms_pin_majority_at_m3(self):
        result = enumerate_functions(
            SearchSpec(m=3, n_max=3, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        assert result.exhausted
        assert result.solutions == [_maj_table(3, 3)]

    def test_theorem_axioms_pin_majority_at_eight_candidates(self):
        result = enumerate_functions(
            SearchSpec(m=8, n_max=4, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        assert result.exhausted
        assert result.solutions == [_maj_table(8, 4)]

    def test_single_voter_level_is_forced(self):
        result = enumerate_functions(SearchSpec(m=2, n_max=1, axioms=frozenset({"N", "PO"})))
        assert result.exhausted
        assert result.solutions == [TabledFunction(2, 1, {(0,): 0, (1,): 1, (2,): 2})]

    def test_dropping_reducibility_admits_unanimity_variant(self):
        # at three voters the axiom subsets split: uc appears once RS is gone
        result = enumerate_functions(SearchSpec(m=2, n_max=3, axioms=frozenset({"N", "DP", "PO"})))
        assert result.exhausted
        assert len(result.solutions) > 1
        assert TabledFunction.from_rule(RULES["uc"], 2, 3) in result.solutions
        assert _maj_table(2, 3) in result.solutions

    def test_uc_and_majority_coincide_up_to_two_voters(self):
        # ... which is why the same subset pins a single table at n_max = 2
        result = enumerate_functions(SearchSpec(m=2, n_max=2, axioms=frozenset({"N", "DP", "PO"})))
        assert result.exhausted
        assert result.solutions == [_maj_table(2, 2)]
        assert TabledFunction.from_rule(RULES["uc"], 2, 2) == _maj_table(2, 2)

    def test_solutions_replay_through_the_independent_checkers(self):
        axioms = frozenset({"N", "DP", "PO"})
        result = enumerate_functions(SearchSpec(m=2, n_max=3, axioms=axioms))
        for solution in result.solutions:
            assert _passes_all(solution, 2, 3, axioms)

    def test_majority_table_is_always_among_solutions(self):
        for m, n_max in [(2, 2), (2, 3), (3, 2)]:
            result = enumerate_functions(
                SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO", "RS"}))
            )
            assert result.exhausted
            assert _maj_table(m, n_max) in result.solutions

    def test_node_limit_returns_partial_result(self):
        result = enumerate_functions(
            SearchSpec(m=2, n_max=2, axioms=frozenset(), max_nodes=10)
        )
        assert not result.exhausted

    @pytest.mark.parametrize("max_nodes", [1, 3, 10])
    def test_node_limit_reports_the_nodes_tried(self, max_nodes):
        # the run stops before its (max_nodes + 1)-th node and counts only
        # the nodes it tried
        spec = SearchSpec(m=2, n_max=2, axioms=frozenset({"N", "PO"}), max_nodes=max_nodes)
        result = enumerate_functions(spec)
        assert not result.exhausted
        assert result.nodes_explored == max_nodes
        full = enumerate_functions(dataclasses.replace(spec, max_nodes=None))
        assert full.exhausted and full.nodes_explored > max_nodes

    def test_solution_limit_truncates(self):
        result = enumerate_functions(SearchSpec(m=2, n_max=1, axioms=frozenset(), limit=5))
        assert not result.exhausted
        assert len(result.solutions) == 5

    def test_raw_enumeration_covers_the_whole_space(self):
        result = enumerate_functions(SearchSpec(m=2, n_max=1, axioms=frozenset()))
        assert result.exhausted
        assert len(result.solutions) == 3 ** 3

    @pytest.mark.parametrize(
        "m,n_max,axioms",
        _SOUNDNESS_CASES,
        ids=[f"axioms{i}" for i in range(len(_SOUNDNESS_CASES))],
    )
    def test_pruned_search_equals_brute_force_filter(self, m, n_max, axioms):
        tables, passes = _brute_force_passes(m, n_max)
        brute = [
            t.table for i, t in enumerate(tables) if all(i in passes[ax] for ax in axioms)
        ]
        result = enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms)))
        assert result.exhausted
        assert [s.table for s in result.solutions] == brute

    @pytest.mark.parametrize("m,n_max,axioms,tie,count,digest", _GOLDEN)
    def test_solution_lists_match_golden_digests(self, m, n_max, axioms, tie, count, digest):
        result = enumerate_functions(
            SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms), pr_tie_upgrade=tie)
        )
        assert result.exhausted
        assert len(result.solutions) == count
        text = "".join(s.to_text() for s in result.solutions)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m,n_max,nodes,prunes,digest", _BENCH_SEARCHES)
    def test_bench_scopes_are_pinned(self, m, n_max, nodes, prunes, digest):
        result = enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO", "RS"})))
        assert result.exhausted and len(result.solutions) == 1
        assert (result.nodes_explored, result.prune_counts) == (nodes, prunes)
        assert hashlib.sha256(result.solutions[0].to_text().encode()).hexdigest() == digest
        assert result.solutions[0] == _maj_table(m, n_max)

    @pytest.mark.parametrize("m,n_max,axioms,tie", [case[:4] for case in _GOLDEN])
    def test_solutions_equal_their_validated_tables(self, m, n_max, axioms, tie):
        # the engine's tables skip validation; the constructor accepts each
        # one as it is
        spec = SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms), pr_tie_upgrade=tie)
        for sol in enumerate_functions(spec).solutions:
            validated = TabledFunction(m, n_max, dict(sol.table))
            assert sol == validated and sol.to_text() == validated.to_text()

    def test_reducibility_is_propagated_not_searched(self):
        # chronological backtracking needed 12.8M nodes here
        result = enumerate_functions(
            SearchSpec(m=2, n_max=10, axioms=frozenset({"N", "DP", "PO", "RS"}), max_nodes=10_000)
        )
        assert result.exhausted
        assert result.solutions == [_maj_table(2, 10)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_merged_equations_have_the_brute_force_solutions(self, data):
        # x_a = rho[x_b], one successor b per node a with a candidate
        # relabeling rho, as each level's reductions give them; cycles
        # through relabeled roots are where a dropped label would show
        m = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(1, 5))
        relabelings = [(0, *tau) for tau in permutations(range(1, m + 1))]
        successors = data.draw(
            st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from(relabelings)), min_size=k, max_size=k)
        )
        brute = {
            xs
            for xs in product(range(m + 1), repeat=k)
            if all(xs[a] == rho[xs[b]] for a, (b, rho) in enumerate(successors))
        }
        components = _merge(list(range(k)), dict(enumerate(successors)), tuple(range(m + 1)))
        assert sorted(a for group, _ in components for a, _ in group) == list(range(k))
        firsts = [group[0][0] for group, _ in components]
        assert firsts == sorted(firsts)
        assert all(group[0][0] == min(a for a, _ in group) for group, _ in components)
        # each root takes the fixed points of its cycle's relabeling
        merged = set()
        for roots in product(*(_fixed_points(around) for _, around in components)):
            xs = [0] * k
            for (group, _), x in zip(components, roots):
                for a, label in group:
                    xs[a] = label[x]
            merged.add(tuple(xs))
        assert merged == brute

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(2, 4),
        st.sets(st.sampled_from(["N", "DP", "PO", "PR"])),
        st.sampled_from(PR_TIE_MODES),
        st.randoms(use_true_random=False),
    )
    def test_components_equal_the_union_find_merge(self, m, n_max, others, tie, rnd):
        # any outcomes below each level: the reductions, and so the
        # successors, are whatever those outcomes make them; drawn
        # uniformly, so that chains of distinct relabelings are common
        engine = _rs_engine(m, n_max, frozenset(others | {"RS"}), tie)
        # outcomes are stored at representatives only; without N every cell
        # is one
        engine.out = [rnd.randint(0, m) if r == j else None for j, r in enumerate(engine.orbit)]
        for n in range(1, n_max + 1):
            # each component's cells, the root values its cycle's relabeling
            # fixes, and the map from its smallest cell to its root
            components = [(g, frozenset(_fixed_points(around)), to_root) for g, around, to_root in engine._components(n)]
            assert components == _uf_components(engine, n)

    def test_search_leaves_no_cyclic_garbage(self):
        spec = SearchSpec(m=2, n_max=9, axioms=frozenset({"N", "DP", "PO", "RS"}))
        gc.collect()
        gc.disable()
        try:
            enumerate_functions(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("tie", ["leaders", "always", "wins"])
    def test_responsiveness_modes_agree_with_checker(self, tie):
        brute = [
            t.table
            for t in _all_complete_tables(2, 2)
            if check_positive_responsiveness(t, 2, 2, tie_upgrade=tie).passed
        ]
        result = enumerate_functions(
            SearchSpec(m=2, n_max=2, axioms=frozenset({"PR"}), pr_tie_upgrade=tie)
        )
        assert result.exhausted
        assert [s.table for s in result.solutions] == brute

    def test_may_characterization_with_positive_responsiveness(self):
        result = enumerate_functions(SearchSpec(m=2, n_max=3, axioms=frozenset({"N", "PR"})))
        assert result.exhausted
        assert result.solutions == [_maj_table(2, 3)]

    @pytest.mark.parametrize("m,n_max", [(2, 3), (2, 4)])
    def test_reduction_pruning_agrees_with_checker_across_levels(self, m, n_max):
        # adding RS to the search must drop exactly the {N,DP,PO} solutions
        # the independent checker rejects, including multi-level reductions
        base = enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO"})))
        assert base.exhausted
        filtered = [s.table for s in base.solutions if check_rs(s, m, n_max).passed]
        with_rs = enumerate_functions(
            SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N", "DP", "PO", "RS"}))
        )
        assert with_rs.exhausted
        assert [s.table for s in with_rs.solutions] == filtered


class TestRepresentativeDecision:
    @pytest.mark.parametrize(
        "m,n_max", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]
    )
    def test_equals_the_member_cell_decision(self, m, n_max):
        # every axiom subset and tie mode; with N, PO, DP and PR meet orbits
        # of several members, whose own checks the reference still makes
        for axioms in _ALL_SUBSETS:
            for tie in PR_TIE_MODES if "PR" in axioms else ("leaders",):
                spec = SearchSpec(
                    m=m,
                    n_max=n_max,
                    axioms=frozenset(axioms),
                    limit=50,
                    max_nodes=20_000,
                    pr_tie_upgrade=tie,
                )
                result = enumerate_functions(spec)
                reference = _MemberCellEngine(spec)
                solutions = list(islice(reference._search(), spec.limit))
                assert [s.table for s in result.solutions] == [s.table for s in solutions], (axioms, tie)
                assert result.nodes_explored == reference.nodes, (axioms, tie)
                assert result.prune_counts == reference.prunes, (axioms, tie)
                assert result.exhausted == (reference.exhausted and len(solutions) != spec.limit), (axioms, tie)


class TestCountVectorEngine:
    """Every fact the engine reads off count vectors, which it builds for
    orbit representatives only, equals its construction from sorted ballot
    tuples at every representative.  With N dropped every cell is its own
    representative, so every cell is checked."""

    @pytest.mark.parametrize("m,n_max", _ENGINE_SCOPES)
    def test_pareto_and_duel_sets_equal_the_support_builds(self, m, n_max):
        # each axiom's entries, in the order PO, DP, N, hold only the
        # representatives it constrains: PO's one voted candidate, DP's
        # support and 0 where it has at most two candidates
        for engine in _fact_engines(m, n_max):
            reps = _reps(engine)
            n = ["N"] if "N" in engine.spec.axioms else []
            assert list(engine.allowed) == (["PO", "DP"] if m > 2 else ["PO"]) + n
            po, dp = engine.allowed["PO"], engine.allowed.get("DP")
            assert list(po) == [r for r in reps if len(_support(engine.cells[r])) == 1]
            if dp is not None:
                assert list(dp) == [r for r in reps if len(_support(engine.cells[r])) <= 2]
            for r in reps:
                c = engine.cells[r]
                assert po.get(r, (None,)) == (_po_forced_by_support(c),), c
                allowed = dp[r] if dp is not None and r in dp else range(m + 1)
                assert set(allowed) == _dp_allowed_by_pairs(c, m), c

    def test_duel_property_never_constrains_two_candidates(self):
        # every outcome lies in {0, 1, 2}, the only duel pair's allowed set
        tables, passes = _brute_force_passes(2, 2)
        assert passes["DP"] == set(range(len(tables)))
        assert "DP" not in _engine(2, 4).allowed

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("m,n_max", _ENGINE_SCOPES)
    def test_reduced_cell_equals_the_deletion_build(self, m, n_max, data):
        cells = _table_cells(m, n_max)
        for engine in _fact_engines(m, n_max):
            # stored at the representatives, each member its relabeling;
            # without N every cell keeps its drawn outcome.  Each value is
            # drawn from those its representative's stabilizer fixes, the
            # only values the search stores there (every value without N)
            allowed = engine.allowed.get("N") or dict.fromkeys(range(len(cells)), range(m + 1))
            engine.out = [
                data.draw(st.sampled_from(allowed[r])) if r == j else None for j, r in enumerate(engine.orbit)
            ]
            label = _labels(engine)
            outcome = {c: label[j][engine.out[engine.orbit[j]]] for j, c in enumerate(cells)}
            assert list(engine.subcells) == [r for r in _reps(engine) if len(cells[r]) > 1]
            for r in engine.subcells:
                c = cells[r]
                assert cells[engine._reduced(r)] == _reduced_by_deletion(c, outcome), c
                assert len(engine.subcells[r]) <= m + 1

    @pytest.mark.parametrize("tie", PR_TIE_MODES)
    @pytest.mark.parametrize("m,n_max", _ENGINE_SCOPES)
    def test_upgrade_edges_equal_the_replacement_build(self, m, n_max, tie):
        cells = _table_cells(m, n_max)
        index = {c: i for i, c in enumerate(cells)}
        expected = [[] for _ in cells]
        for i, c in enumerate(cells):
            for target, k, binds in _pr_targets_by_replacement(c, m, tie):
                edge = (i, index[target], k, binds)
                expected[i].append(edge)
                expected[index[target]].append(edge)
        for engine in _fact_engines(m, n_max, tie):
            reps = _reps(engine)
            assert list(engine.pr_edges) == reps
            for r in reps:
                assert sorted(engine.pr_edges[r]) == sorted(expected[r]), cells[r]
                assert sum(s == r for s, *_ in engine.pr_edges[r]) <= (m + 1) * m


class TestOutcomeMaps:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_compose_and_inverse_equal_their_definitions(self, m):
        # the reference merges in these tests build on _compose, so it is
        # checked here against p[q[v]] itself, on every pair of maps
        identity = tuple(range(m + 1))
        maps = list(permutations(identity))
        for p in maps:
            inv = _inverse(p)
            assert _compose(p, inv) == identity and _compose(inv, p) == identity, p
            for q in maps:
                pq = _compose(p, q)
                assert type(pq) is tuple and pq == tuple(p[q[v]] for v in identity), (p, q)


class TestOrbitConstruction:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_sorted_count_orbits_equal_the_grouped_orbits(self, m):
        # every scope of up to 3,000 cells: each cell's representative and
        # label, and each representative's fixed outcomes, as the engine
        # built them from the grouped orbits
        n_max = 1
        while _cell_count(m, n_max) <= 3000:
            engine = _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))
            counts = [_count_vector(c, m) for c in engine.cells]
            orbit, label, fixed = _as_cell_orbits(_grouped_orbits(counts, m), len(counts))
            assert engine.orbit == orbit, n_max
            assert _labels(engine) == label, n_max
            assert list(engine.allowed["N"].items()) == list(fixed.items()), n_max
            for r in _reps(engine):
                votes = counts[r][1:]
                assert list(votes) == sorted(votes, reverse=True), engine.cells[r]
            n_max += 1


_CODE_SCOPES = _ENGINE_SCOPES + [(12, 3), (2, 30)]


class TestCellCodes:
    """The engine builds each level's cells from the level below, each with
    an integer code and an orbit key, instead of counting each class's
    ballots and sorting its counts."""

    @pytest.mark.parametrize("m,n_max", _CODE_SCOPES)
    def test_orbits_equal_the_relabeling_closure(self, m, n_max):
        engine = _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))
        assert engine.orbit == _orbits_by_transpositions(engine.cells, m)

    @pytest.mark.parametrize("m,n_max", _CODE_SCOPES)
    def test_codes_decode_to_the_counts(self, m, n_max):
        # each code's digits in base n_max + 1 are its cell's counts, and
        # every cell has one code
        engine = _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset()))
        assert engine.counts == [_count_vector(c, m) for c in engine.cells]
        assert sorted(engine.index.values()) == list(range(len(engine.cells)))
        for code, i in engine.index.items():
            digits = []
            for _ in range(m + 1):
                code, digit = divmod(code, n_max + 1)
                digits.append(digit)
            assert code == 0 and tuple(digits) == engine.counts[i], engine.cells[i]


class _FixedStoreEngine(_Engine):
    """The engine, recording every value its ``_try`` stores at a
    representative, with the representative."""

    def __init__(self, spec):
        super().__init__(spec)
        self.stored = []

    def _try(self, comp, v):
        axiom = super()._try(comp, v)
        if axiom is None:
            self.stored += [(r, self.out[r]) for r, _ in comp[0]]
        return axiom


class TestCountRead:
    @pytest.mark.parametrize("m,n_max", [(2, 9), (3, 7), (4, 5), (5, 4), (12, 3), (40, 3)])
    def test_count_read_equals_the_stable_sort_label(self, m, n_max):
        # every cell, and every value its representative's stabilizer fixes:
        # a member reads its representative's value through the two count
        # vectors exactly as the stable-sort label maps it, and that label is
        # the first relabeling reaching the member where m! allows the walk
        engine = _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))
        label = _labels(engine)
        if m <= 5:
            expected = _as_cell_orbits(_orbits_by_permutations(engine.cells, m), len(engine.cells))
            assert (engine.orbit, label) == expected[:2]
        for j, r in enumerate(engine.orbit):
            for x in engine.allowed["N"][r]:
                engine.out[r] = x
                assert engine._value(j) == label[j][x], (engine.cells[j], x)
            engine.out[r] = None
            assert engine._value(j) is None

    @pytest.mark.parametrize("m,n_max", [(3, 4), (4, 3)])
    def test_the_search_stores_only_fixed_values(self, m, n_max):
        # the lemma the count read rests on: under N every value stored at a
        # representative is one its stabilizer fixes, for every axiom subset
        # with N and PR in each tie mode
        for axioms in _ALL_SUBSETS:
            if "N" not in axioms:
                continue
            for tie in PR_TIE_MODES if "PR" in axioms else ("leaders",):
                spec = SearchSpec(
                    m=m, n_max=n_max, axioms=frozenset(axioms), limit=50, max_nodes=20_000, pr_tie_upgrade=tie
                )
                engine = _FixedStoreEngine(spec)
                list(islice(engine._search(), spec.limit))
                assert engine.stored, (axioms, tie)
                for r, x in engine.stored:
                    assert x in engine.allowed["N"][r], (axioms, tie, engine.cells[r], x)


class TestNeutralOrbits:
    @pytest.mark.parametrize("m,n_max", [(2, 1), (2, 2), (3, 1)])
    def test_matches_brute_force_neutral_filter(self, m, n_max):
        yielded = [f.table for f in enumerate_neutral_functions(m, n_max)]
        brute = [
            t.table
            for t in _all_complete_tables(m, n_max)
            if check_neutrality(t, m, n_max).passed
        ]
        assert sorted(yielded, key=sorted) == sorted(brute, key=sorted)

    def test_no_duplicates_and_closed_under_relabeling(self):
        # the neutral tables, and the neutral searches' solutions, whose
        # member cells are written only when a solution is emitted
        streams = [(3, 2, [f.table for f in enumerate_neutral_functions(3, 2)])]
        for m, n_max in [(3, 3), (4, 2)]:
            for axioms in [{"N", "PR"}, {"N", "PO", "RS"}, {"N", "DP", "PO", "RS", "PR"}]:
                result = enumerate_functions(SearchSpec(m=m, n_max=n_max, axioms=frozenset(axioms)))
                assert result.exhausted and result.solutions, (m, n_max, axioms)
                streams.append((m, n_max, [s.table for s in result.solutions]))
        for m, n_max, tables in streams:
            seen = {tuple(sorted(t.items())) for t in tables}
            assert len(seen) == len(tables)
            for table in tables:
                for tau in permutations(range(1, m + 1)):
                    conjugated = {}
                    for key, out in table.items():
                        new_key = tuple(sorted(0 if b == 0 else tau[b - 1] for b in key))
                        conjugated[new_key] = 0 if out == 0 else tau[out - 1]
                    assert tuple(sorted(conjugated.items())) in seen

    def test_cell_limit_is_enforced(self):
        # the same refusal as the search's, before any cell is built
        with pytest.raises(SearchInfeasibleError) as err:
            next(enumerate_neutral_functions(8, 8))
        assert err.value.cells == 24309
        assert str(err.value) == "table would need 24309 cells (> 20000); raw space 9^24309 tables"

    @pytest.mark.parametrize("n_max", [2, 4])
    @pytest.mark.parametrize("m", range(2, 7))
    def test_count_signature_orbits_equal_permutation_orbits(self, m, n_max):
        cells = _table_cells(m, n_max)
        counts = [_count_vector(c, m) for c in cells]
        engine = _Engine(SearchSpec(m=m, n_max=n_max, axioms=frozenset({"N"})))
        expected = _as_cell_orbits(_orbits_by_permutations(cells, m), len(cells))
        assert engine.orbit == expected[0]
        assert [_stable_label(c, m) for c in counts] == expected[1]
        assert list(engine.allowed["N"].items()) == list(expected[2].items())

    @pytest.mark.parametrize(
        "m,n_max,message",
        [(3, 0, "voter bound must be >= 1, got 0"), (1, 2, "candidate count must be >= 2, got 1")],
    )
    def test_scope_is_validated(self, m, n_max, message):
        with pytest.raises(ValueError, match=message):
            next(enumerate_neutral_functions(m, n_max))

    def test_cell_limit_is_enforced_before_any_cell_is_built(self):
        # (9, 9) has 92,377 cells: refused with the search's refusal, not
        # after building them and their orbits
        start = time.perf_counter()
        with pytest.raises(SearchInfeasibleError) as err:
            next(enumerate_neutral_functions(9, 9))
        assert time.perf_counter() - start < 1
        assert str(err.value) == "table would need 92377 cells (> 20000); raw space 10^92377 tables"
        assert err.value.cells == 92_377

    @pytest.mark.parametrize("m,n_max", [(2, 3), (3, 2), (3, 3), (4, 2)])
    def test_neutral_tables_come_in_product_order(self, m, n_max):
        yielded = [f.table for f in enumerate_neutral_functions(m, n_max)]
        assert yielded == list(_neutral_tables_by_product(m, n_max))

    def test_neutral_tables_stream(self):
        # (2, 8) has about 2.5e33 neutral tables, so only a stream can return
        first = list(islice(enumerate_neutral_functions(2, 8), 3))
        assert len(first) == 3
        assert set(first[0].table.values()) == {0}


def _class_partition(m, n_max):
    """The case partition as it was computed before it walked orbits: every
    class classified, weighted by its n! / prod c_b! orderings."""
    factorial = [1]
    for k in range(1, n_max + 1):
        factorial.append(factorial[-1] * k)
    case_counts = dict.fromkeys(core._CASES, 0)
    partition_ok = True
    for ballots in core._profiles(m, 1, n_max, True):
        try:
            case = classify_profile(Profile._trusted(m, ballots))
        except RuntimeError:
            partition_ok = False
            continue
        case_counts[case] += factorial[len(ballots)] // math.prod(map(factorial.__getitem__, core._counts(m, ballots)))
    return case_counts, partition_ok


class TestClassification:
    def test_documented_cases(self):
        assert classify_profile(Profile(3, (1, 2, 3))) == "dominating_tie"
        assert classify_profile(Profile(3, (1, 1, 2))) == "leader"
        assert classify_profile(Profile(3, (0, 0, 0))) == "all_abstention"

    @pytest.mark.parametrize("m,n_max", [(2, 4), (3, 3), (4, 2)])
    def test_cases_partition_every_profile(self, m, n_max):
        for n in range(1, n_max + 1):
            for p in enumerate_profiles(m, n):
                flags = [is_all_abstention(p), is_dominating_tie(p), is_leader_profile(p)]
                assert sum(flags) == 1, p.ballots

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_leader_test_equals_the_pairwise_definition(self, m):
        # some candidate beats every other, on every class up to five voters
        for n in range(1, 6):
            for p in enumerate_profiles(m, n, canonical_only=True):
                c = [p.ballots.count(k) for k in range(1, m + 1)]
                beats_all = any(all(c[k] > c[j] for j in range(m) if j != k) for k in range(m))
                assert is_leader_profile(p) == beats_all, p.ballots

    @pytest.mark.parametrize("m,n_max", [(2, 6), (3, 4), (4, 3), (5, 3)])
    def test_each_case_is_constant_on_a_neutrality_orbit(self, m, n_max):
        # the lemma the partition rests on: each predicate takes the same
        # value on a class and on every relabeling of it, so classifying
        # one class per orbit classifies the orbit
        relabelings = [(0, *image) for image in permutations(range(1, m + 1))]
        for ballots in core._profiles(m, 1, n_max, True):
            for predicate in (is_all_abstention, is_dominating_tie, is_leader_profile):
                value = predicate(Profile(m, ballots))
                for lookup in relabelings:
                    image = Profile(m, tuple(map(lookup.__getitem__, ballots)))
                    assert predicate(image) == value, (predicate.__name__, ballots, lookup)

    @pytest.mark.parametrize("m,n_max", [(2, 6), (3, 4), (4, 3), (5, 3)])
    def test_each_case_reads_only_the_candidate_counts(self, m, n_max):
        # the shape lemma: each predicate takes the same value on every
        # class with the same candidate counts, whatever its abstentions, so
        # with the orbit lemma above, classifying one profile per count
        # shape classifies every profile with that shape
        predicates = (is_all_abstention, is_dominating_tie, is_leader_profile)
        seen = {}
        for ballots in core._profiles(m, 1, n_max, True):
            p = Profile(m, ballots)
            values = tuple(predicate(p) for predicate in predicates)
            votes = tuple(core._counts(m, ballots)[1:])
            assert seen.setdefault(votes, values) == values, ballots
        # every vector of candidate counts with at most n_max votes is met
        assert len(seen) == math.comb(n_max + m, m)

    @pytest.mark.parametrize("leader", [None, True, False])
    @pytest.mark.parametrize("m,n_max", [(2, 9), (3, 7), (4, 5), (5, 5), (12, 3), (40, 3)])
    def test_orbit_partition_equals_the_class_partition(self, monkeypatch, m, n_max, leader):
        # the orbit partition against the one it replaced, which classified
        # every class; also with the leader test patched to a constant,
        # which breaks the partition
        if leader is not None:
            monkeypatch.setattr(core, "is_leader_profile", lambda p: leader)
        verdict = verify_theorem(m, n_max)
        assert (verdict.case_counts, verdict.partition_ok) == _class_partition(m, n_max)

    # exact counts, as the partition gave them with a math.factorial call per
    # count and class, before it read the weights off one factorial table
    PINNED_CASE_COUNTS = {
        (40, 3): (3, 65520, 5120),
        (3, 20): (20, 251051317854, 1214964185826),
        (2, 40): (40, 1411279806625761752, 16825218381959631408),
    }

    # the engine's nodes and its prunes by axiom at the same verdicts: a
    # search that keeps its node count but blames another axiom for a prune
    # changes the split
    PINNED_PRUNES = {
        (40, 3): (369, {"DP": 196, "N": 4, "PO": 160, "RS": 0}),
        (3, 20): (564, {"DP": 160, "N": 200, "PO": 63, "RS": 0}),
        (2, 40): (1443, {"DP": 0, "N": 880, "PO": 82, "RS": 0}),
    }

    @pytest.mark.parametrize("m,n_max", [(2, 3), (40, 3), (3, 20), (2, 40)])
    def test_case_counts_cover_the_space(self, m, n_max):
        # each class weighs n! / prod c_b!, read off its counts: the weights
        # sum to the (m + 1)^n ordered profiles of each level, and a slip
        # that moves profiles between cases changes the pinned counts
        verdict = verify_theorem(m, n_max)
        assert sum(verdict.case_counts.values()) == sum(
            profile_count(m, n) for n in range(1, n_max + 1)
        )
        if (m, n_max) in self.PINNED_CASE_COUNTS:
            all_abstention, dominating_tie, leader = self.PINNED_CASE_COUNTS[m, n_max]
            assert verdict.case_counts == {
                "all_abstention": all_abstention, "dominating_tie": dominating_tie, "leader": leader,
            }
            assert (verdict.nodes_explored, verdict.prune_counts) == self.PINNED_PRUNES[m, n_max]

    @pytest.mark.parametrize("m,n_max", [(2, 4), (3, 3), (4, 2)])
    def test_class_weighted_counts_equal_ordered_enumeration(self, m, n_max):
        ordered = {"all_abstention": 0, "dominating_tie": 0, "leader": 0}
        for n in range(1, n_max + 1):
            for p in enumerate_profiles(m, n):
                ordered[classify_profile(p)] += 1
        assert verify_theorem(m, n_max).case_counts == ordered

    def test_case_counts_at_three_candidates_seven_voters(self):
        verdict = verify_theorem(3, 7)
        assert verdict.case_counts == {
            "all_abstention": 7, "dominating_tie": 5904, "leader": 15933,
        }

    @pytest.mark.parametrize("leader", [True, False])
    def test_a_broken_partition_is_reported_not_raised(self, monkeypatch, leader):
        # every profile a leader: the other cases overlap it; none a leader:
        # the leader profiles fall into no case.  Either way they go uncounted.
        correct = verify_theorem(2, 3).case_counts
        monkeypatch.setattr(core, "is_leader_profile", lambda p: leader)
        verdict = verify_theorem(2, 3)
        assert not verdict.partition_ok and not verdict.passed
        assert verdict.maj_match and verdict.replay_ok
        if leader:
            assert verdict.case_counts == {"all_abstention": 0, "dominating_tie": 0, "leader": correct["leader"]}
        else:
            assert verdict.case_counts == {**correct, "leader": 0}


class TestVerdicts:
    def test_theorem_holds_with_duel_property(self):
        verdict = verify_theorem(2, 3)
        assert verdict.passed and verdict.maj_match and verdict.partition_ok
        assert verdict.solution_count == 1

    def test_theorem_holds_at_four_voters(self):
        verdict = verify_theorem(2, 4)
        assert verdict.passed
        assert verdict.replay_ok and verdict.exhausted

    def test_theorem_holds_at_three_candidates(self):
        assert verify_theorem(3, 3).passed

    def test_theorem_holds_at_ten_voters(self):
        verdict = verify_theorem(2, 10)
        assert verdict.passed and verdict.exhausted

    @pytest.mark.parametrize("m,n_max", [(2, 20), (3, 12), (5, 5)])
    def test_theorem_holds_at_north_star_scopes(self, m, n_max):
        verdict = verify_theorem(m, n_max)
        assert verdict.passed and verdict.exhausted
        assert verdict.solution_count == 1

    @pytest.mark.parametrize("m,n_max", [(7, 5), (8, 4), (8, 5), (10, 4)])
    def test_theorem_holds_at_many_candidates(self, m, n_max):
        # the neutrality replay costs two relabelings per class, not m!
        verdict = verify_theorem(m, n_max)
        assert verdict.passed and verdict.exhausted
        assert verdict.solution_count == 1

    def test_duel_property_redundant_from_four_candidates(self):
        verdict = verify_theorem(4, 2, include_dp=False)
        assert verdict.passed
        assert verdict.solution_count == 1

    def test_duel_property_essential_at_three_candidates(self):
        verdict = verify_theorem(3, 2, include_dp=False)
        assert not verdict.passed
        assert verdict.solution_count > 1

    @pytest.mark.parametrize("include_dp", ["no", 0, 1, None])
    def test_include_dp_must_be_a_bool(self, include_dp):
        # "no" searched with DP and 0 without it, and the verdict reported
        # either value as it was given
        with pytest.raises(ValueError) as err:
            verify_theorem(3, 3, include_dp=include_dp)
        assert str(err.value) == f"include_dp {include_dp!r} is not a bool"

    def test_truncated_search_cannot_pass(self):
        verdict = verify_theorem(2, 3, max_nodes=5)
        assert not verdict.exhausted
        assert not verdict.passed

    def test_truncated_verdict_reports_the_nodes_tried(self):
        verdict = verify_theorem(3, 4, max_nodes=10)
        assert not verdict.exhausted
        assert verdict.nodes_explored == 10

    def test_phase_times_stay_out_of_the_report(self):
        verdict = verify_theorem(3, 3)
        assert sorted(verdict.stats) == ["build_s", "majority_table_s", "partition_s", "replay_s", "search_s"]
        assert all(type(t) is float and t >= 0 for t in verdict.stats.values())
        assert "stats" not in verdict.to_dict() and "stats" not in repr(verdict)
        # the times never make two verdicts differ
        assert verdict == dataclasses.replace(verdict, stats={})

    def test_engine_build_is_timed_apart_from_the_search(self, monkeypatch):
        build = search._Engine

        def slow_build(spec):
            time.sleep(0.1)
            return build(spec)

        monkeypatch.setattr(search, "_Engine", slow_build)
        stats = verify_theorem(2, 2).stats
        assert stats["build_s"] >= 0.1 > stats["search_s"]

    @pytest.mark.parametrize("m", [2, 3])
    def test_independence_patterns_and_witnesses(self, m):
        verdict = verify_independence(m, 3)
        assert verdict.passed, verdict.mismatches
        assert verdict.failures == {"lex": ("N",), "zero": ("PO",), "uc": ("RS",)}
        lex_n = verdict.reports["lex"]["N"].witness
        assert lex_n.profile.ballots == (1, 2)
        assert lex_n.permutation == tuple([2, 1] + list(range(3, m + 1)))
        uc_rs = verdict.reports["uc"]["RS"].witness
        assert uc_rs.profile.ballots == (1, 1, 2)
        assert uc_rs.related_profile.ballots == (0, 0, 1)

    def test_independence_scope_validation(self):
        with pytest.raises(ValueError):
            verify_independence(2, 2)

    @pytest.mark.parametrize(
        "verify,message",
        [
            (lambda: verify_theorem(2, 3.0), "voter bound 3.0 is not an int"),
            (lambda: verify_independence(3.0, 3), "candidate count 3.0 is not an int"),
        ],
        ids=["theorem", "independence"],
    )
    def test_scope_must_be_ints(self, verify, message):
        # each raised a bare TypeError from range()
        with pytest.raises(ValueError) as err:
            verify()
        assert str(err.value) == message

    def test_independence_reports_each_mismatch(self, monkeypatch):
        # each rule fails the next one's axiom: the failure patterns and
        # all three witnesses are wrong
        rules = {"lex": RULES["zero"], "zero": RULES["uc"], "uc": RULES["lex"]}
        monkeypatch.setattr(search, "RULES", rules)
        verdict = verify_independence(3, 3)
        assert not verdict.passed
        assert verdict.failures == {"lex": ("PO",), "zero": ("RS",), "uc": ("N",)}
        assert verdict.mismatches == (
            "lex: expected failures ('N',), got ('PO',)",
            "zero: expected failures ('PO',), got ('RS',)",
            "uc: expected failures ('RS',), got ('N',)",
            "lex: neutrality witness is not profile (1, 2) under the 1<->2 swap",
            "zero: consensus witness is not the single-vote profile (1)",
            "uc: reduction witness is not (1, 1, 2) -> reduced (0, 0, 1) -> 1",
        )

    def test_theorem_needs_two_voters_before_searching(self, monkeypatch):
        # the replay checks RS, which compares n voters with n - 1 of them
        monkeypatch.setattr(search, "enumerate_functions", lambda spec: pytest.fail("searched"))
        with pytest.raises(ValueError, match="at least 2"):
            verify_theorem(2, 1)

    def test_verdicts_serialize(self):
        doc = verify_theorem(2, 2).to_dict()
        assert doc["pass"] is True and doc["case_counts"]
        doc = verify_independence(2, 3).to_dict()
        assert doc["pass"] is True
        assert doc["reports"]["uc"]["RS"]["witness"]["profile"] == "2 3\n1 1 2\n"
