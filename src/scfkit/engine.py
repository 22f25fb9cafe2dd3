"""Exhaustive, orbit-aware search over anonymous social choice functions.

Functions are represented as outcome tables over canonical (sorted) profiles
up to a voter bound, so anonymity is structural rather than searched over.
Inside the engine a cell is its count vector c (abstentions, then each
candidate's votes), which determines the class and its level sum_b c_b,
and is found by its code sum_b c_b (n_max + 1)^b.  Each class is built from
the class one voter smaller, in the class order of :mod:`scfkit.core`, so
no class is counted or sorted.  The build and the search read no ballot
tuple: a cell's sorted ballots only key the tables the search yields.
Outcomes and the PO, DP, N, RS and PR facts are kept at orbit
representatives only, and no cell keeps a relabeling.  A member j of
representative r reads r's value x through the two count vectors: 0
stays 0, and a candidate x becomes j's one candidate with r's count of x,
``counts[j].index(counts[r][x], 1)``.  That read is exact because the
search stores at r only values r's stabilizer fixes: 0, or a candidate
whose count no other candidate of r shares.  Every relabeling sending r
onto j, the first one included, carries x to a candidate with that count
in j, and j has only one.

The engine fixes the table level by level (n = 1 upward).  Once the levels
below n are fixed, every level-n constraint except PR is an equation between
level-n cells:

- N: with neutrality, each cell is a relabeling of its orbit's
  representative, f(tau c) = tau f(c), and the representative may only take
  outcomes its stabilizer fixes.  Two classes share an orbit iff they share
  c_0 and the multiset of candidate counts, which the int key c_0 + (n_max
  + 1) sum_k (m + 1)^(c_k) encodes (its digit v counts the candidates with
  v votes).  An orbit's representative is its first cell, which puts as
  many voters as it can on candidate 1, then on 2, and so on: its candidate
  counts do not increase.  Without N every cell is its own orbit.
- RS: f(c) = f(reduce(c)), where reduce(c) collects the (fixed) outcomes
  of c's voter-deleted subprofiles, is a plain equality between two level-n
  cells.  Deleting any of the c_b voters with ballot b leaves one subcell,
  so reduce(c) is a count sum: c_b copies of that subcell's outcome per
  ballot value b present, at most m + 1 lookups per cell, summed as a code.

So each orbit representative r has one equation, x_r = rho[x_s] with s
the representative of reduce(r)'s orbit and rho the relabeling of s onto
reduce(r)'s cell d: a successor map.  rho is the identity when d is a
representative, as every d is under {N, DP, PO, RS} at (2, 9), (3, 7),
(3, 20) and (40, 3), and otherwise one stable sort of d's candidates
(``_label``).  A walk along successors joins the first resolved
representative's component or closes a cycle.  The new component keeps the
relabeling composed around that cycle, and RS allows its root only the
outcomes that relabeling fixes.  Components are assigned in order of their
smallest cell index, trying the values 0..m there, so solutions come out in
lexicographic order over the cell values.

A value is decided at the component's representatives alone.  PO, DP and
N each narrow the outcomes allowed at a representative, so one table,
``allowed[axiom][r]``, holds them for the representatives each constrains:
PO's one voted candidate, DP's support with 0, and the values N's
stabilizer fixes.  ``_try`` asks them in that order, then RS through the
cycle, then PR.  A member c = tau r needs no check of its own, as tau
carries r's PO-forced candidate to c's, r's DP set to c's and r's value to
c's; so c breaks PO or DP iff r does (DP never constrains at m = 2, where
every outcome lies in the one duel pair).  PR is checked on within-level
upgrade edges, one ballot moved between two counts, at the
representatives, with each end's outcome read through its representative.
A relabeling carries an edge touching a member onto an edge at its
representative, with the same clash status: N has fixed each assigned
representative's value under its stabilizer, so every relabeling of an
assigned cell carries its value along.  Without N every cell is its own
representative.

A *node* is one value tried at one component's smallest cell.  A rejected
node is a *prune*, counted once against the first axiom in the order PO,
DP, N, RS, PR that excludes it.

With N alone the engine streams every neutral table
(:func:`scfkit.search.enumerate_neutral_functions`).  Every engine refuses
a table of more than 20,000 cells before building any of them; the cell
count stops at a lower bound once it passes 10^9.

The checkers in :mod:`scfkit.axioms` stay the oracle: the engine's pruning
logic is written independently, and verdict records replay every solution
through the checkers.  So this module imports only :mod:`scfkit.core` and
:mod:`scfkit.rules`, and the checkers do not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import _COST_CAP, PR_TIE_MODES, _axiom_list, _check_scope, _profiles
from .rules import TabledFunction

__all__ = ["SEARCH_AXIOMS", "SearchSpec", "SearchInfeasibleError"]

# Anonymity is built into the table representation and cannot be requested.
SEARCH_AXIOMS = ("N", "DP", "PO", "RS", "PR")

# Tables with more cells than this are refused before any search.
_MAX_CELLS = 20_000


class SearchInfeasibleError(RuntimeError):
    """The requested scope exceeds configured resource limits; carries an
    estimate so callers can report it.  ``tables`` may be passed as a
    function, called when the attribute is first read: a raw space of
    (m + 1)^cells tables can have millions of digits."""

    def __init__(self, message: str, cells: int, tables: int | Callable[[], int]):
        self.cells = cells
        self._tables = tables
        super().__init__(message)

    @property
    def tables(self) -> int:
        if callable(self._tables):
            self._tables = self._tables()
        return self._tables


@dataclass(frozen=True)
class SearchSpec:
    """What to search: scope, axiom subset (one id or a list of them) and
    resource limits."""

    m: int
    n_max: int
    axioms: frozenset[str]
    limit: int | None = None
    max_nodes: int | None = None
    pr_tie_upgrade: str = "leaders"

    def __post_init__(self):
        object.__setattr__(self, "axioms", frozenset(_axiom_list(self.axioms)))
        _check_scope(self.m, self.n_max)
        unknown = self.axioms - set(SEARCH_AXIOMS)
        if "A" in unknown:
            raise ValueError("anonymity is structural in table search; do not request it")
        if unknown:
            raise ValueError(f"unknown search axioms: {sorted(unknown)}")
        for name, limit in (("solution", self.limit), ("node", self.max_nodes)):
            if limit is not None and type(limit) is not int:
                raise ValueError(f"{name} limit {limit!r} is not an int")
            if limit is not None and limit < 1:
                raise ValueError(f"{name} limit must be positive")
        if self.pr_tie_upgrade not in PR_TIE_MODES:
            raise ValueError(
                f"pr_tie_upgrade must be one of {PR_TIE_MODES}, got {self.pr_tie_upgrade!r}"
            )


def _label(c: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The outcome map of the lexicographically first relabeling sending the
    representative of the cell with count vector c onto it: 0, then c's
    candidates by count, largest first and ties ascending (the sort is
    stable).  It agrees with the count read on every value the
    representative's stabilizer fixes, and is the identity at a
    representative, whose candidate counts do not increase."""
    return (0, *sorted(range(1, m + 1), key=c.__getitem__, reverse=True))


# Outcome maps are tuples p over 0..m, p[v] the image of v; a candidate
# relabeling with image tau is (0, *tau).


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply q, then p."""
    return tuple(map(p.__getitem__, q))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for v, w in enumerate(p):
        inv[w] = v
    return tuple(inv)


def _merge(
    nodes: list[int], successor: dict[int, tuple[int, tuple[int, ...]]] | None, identity: tuple[int, ...]
) -> list[tuple[list[tuple[int, tuple[int, ...]]], tuple[int, ...]]]:
    """Components of the equations x_a = rho[x_b], ``successor[a] = (b,
    rho)`` for each of ``nodes`` (ascending), in order of their smallest
    node; without ``successor`` every node is its own component.  Every
    root takes ``identity``, and a relabeling that is that tuple is not
    composed.

    Each component is its (node, L) pairs, ascending, x_node = L[x_root],
    and its one cycle's relabeling: the relabelings composed around the
    cycle, from the root back to it, so x_root = around[x_root], and the
    root values in 0..m the cycle allows are its fixed points.  Without
    ``successor`` the relabeling is ``identity``.  A walk from each
    unresolved node, the smallest left, follows successors to a resolved
    node, whose component it joins, or around a cycle, rooted at its
    largest node.
    """
    if successor is None:
        return [([(a, identity)], identity) for a in nodes]
    component: dict[int, int | None] = {}  # None while on the current walk
    label: dict[int, tuple[int, ...]] = {}
    roots: list[int] = []
    for a in nodes:
        walk = []
        while a not in component:
            component[a] = None
            walk.append(a)
            a = successor[a][0]
        if component[a] is None:
            # Rooted at its largest node, the cycle leaves out the equation
            # a merge in ascending order closes it with, so a value the
            # cycle excludes implies the values, and the prune, it did there.
            cycle = walk[walk.index(a) :]
            k = cycle.index(max(cycle))
            a = cycle[k]
            walk[-len(cycle) :] = cycle[k + 1 :] + cycle[:k]  # the root's successor on to it
            component[a], label[a] = len(roots), identity
            roots.append(a)
        for b in reversed(walk):
            succ, rho = successor[b]
            component[b], label[b] = component[a], label[succ] if rho is identity else _compose(rho, label[succ])
    groups: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in roots]
    for a in nodes:
        groups[component[a]].append((a, label[a]))
    # around each cycle: its root's own equation, composed as a label is, so
    # x_root = around[x_root]
    cycles = map(successor.__getitem__, roots)
    return [(g, label[s] if rho is identity else _compose(rho, label[s])) for g, (s, rho) in zip(groups, cycles)]


def _cell_count(m: int, n_max: int) -> int:
    """The classes of 1..n_max voters, C(n_max + m + 1, m + 1) - 1, or a
    lower bound past ``_COST_CAP``.

    The binomial is a running product of C(n_max + m + 1 - j + i, i) for
    i = 1..j, j = min(m + 1, n_max), which never decreases; it stops once it
    passes the cap, as the exact count of a huge scope has thousands of
    digits and takes longer to compute than to refuse.
    """
    top, j = n_max + m + 1, min(m + 1, n_max)
    count = 1
    for i in range(1, j + 1):
        count = count * (top - j + i) // i
        if count - 1 > _COST_CAP:
            break
    return count - 1


def _refuse_cells(m: int, n_max: int) -> None:
    """Raise :class:`SearchInfeasibleError` when a table at the scope would
    need more than ``_MAX_CELLS`` cells, before any cell is built."""
    cells = _cell_count(m, n_max)
    if cells > _MAX_CELLS:
        over, shown = ("", cells) if cells <= _COST_CAP else ("over ", _COST_CAP)
        raise SearchInfeasibleError(
            f"table would need {over}{shown} cells (> {_MAX_CELLS}); raw space {over}{m + 1}^{shown} tables",
            cells=cells,
            tables=lambda: (m + 1) ** cells,
        )


# A component: its representatives r, ascending, each with L, x_r =
# L[x_root]; the relabeling composed around its reduction cycle, which must
# fix x_root; and the map from the value at its smallest cell, the first
# representative, to x_root.
_Component = tuple[list[tuple[int, tuple[int, ...]]], tuple[int, ...], tuple[int, ...]]


class _Engine:
    """Level-wise search: each level's equations are merged into
    components, which then take one value each (see the module docstring)."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        m, n_max = spec.m, spec.n_max
        _refuse_cells(m, n_max)
        self.m = m
        self.identity = tuple(range(m + 1))  # shared, so the merge can skip composing it
        # The classes in class order, each a class one voter smaller plus a
        # ballot b at least its largest: its counts one higher at b, its code
        # plus w[b], its orbit key plus 1 for an abstention or lift[v] for a
        # vote to a candidate with v votes.  Position 0 is the empty class.
        # Their ballot tuples, ``cells``, key the tables the read-out in
        # ``_search`` yields; nothing else reads them.
        self.cells = cells = list(_profiles(m, 1, n_max, True))
        self.w = w = [(n_max + 1) ** b for b in range(m + 1)]
        lift = [(n_max + 1) * m * (m + 1) ** v for v in range(n_max)]
        counts, codes, keys, lasts = [(0,) * (m + 1)], [0], [(n_max + 1) * m], [0]
        end = 0
        for _ in range(n_max):
            start, end = end, len(counts)
            for p in range(start, end):
                c, code, key = counts[p], codes[p], keys[p]
                for b in range(lasts[p], m + 1):
                    moved = list(c)
                    moved[b] += 1
                    counts.append(tuple(moved))
                    codes.append(code + w[b])
                    keys.append(key + (lift[c[b]] if b else 1))
                    lasts.append(b)
        del counts[0], codes[0], keys[0]
        self.counts = counts
        self.index = index = dict(zip(codes, range(len(cells))))
        self.out: list[int | None] = [None] * len(cells)  # set at representatives only

        # Each cell's orbit representative, the first cell with its orbit key,
        # read through the two cells' counts; without N every cell is its own.
        first = {}.setdefault
        self.orbit = [first(key, i) for i, key in enumerate(keys)] if "N" in spec.axioms else list(range(len(cells)))
        reps = [j for j, r in enumerate(self.orbit) if r == j]
        self.reps: dict[int, list[int]] = {n: [] for n in range(1, n_max + 1)}  # by level

        # allowed[axiom][r]: the outcomes the axiom allows at representative
        # r, for the representatives it constrains, in the order PO, DP, N
        # that ``_try`` asks them in (see the module docstring).  PO forces
        # the one voted candidate.  DP: votes on at most two candidates make a
        # duel of every pair holding them, so the outcome is 0 or in the
        # support; at m = 2 DP never constrains.  N: the stabilizer fixes 0
        # and each candidate whose count is unique, and a member reads such a
        # value x of r as its one candidate with r's count of x.
        asked = [ax for ax in ("PO", "DP", "N") if ax in spec.axioms and (ax != "DP" or m > 2)]
        self.allowed: dict[str, dict[int, tuple[int, ...]]] = {ax: {} for ax in asked}
        po, dp, fixed = map(self.allowed.get, ("PO", "DP", "N"))
        candidates = range(1, m + 1)

        # RS: deleting one of c[b] voters with ballot b leaves the cell of code
        # - w[b], so each representative of two or more voters keeps (subcell,
        # multiplicity) per ballot value present.  PR: an upgrade moves one
        # ballot to a candidate; each representative r keeps every edge
        # (source, target, k, whether a tie at source must become k) it is an
        # end of.  Moving one of r's ballots x to y != x reaches the cell of
        # code - w[x] + w[y]: the target of r's upgrade to y, and the source,
        # not always a representative, of an upgrade of y to x onto r.
        rs, pr = "RS" in spec.axioms, "PR" in spec.axioms
        self.subcells: dict[int, list[tuple[int, int]]] | None = {} if rs else None
        self.pr_edges: dict[int, list[tuple[int, int, int, bool]]] | None = {} if pr else None
        tie = spec.pr_tie_upgrade

        def binds(c: tuple[int, ...], k: int) -> bool:
            return tie == "always" or (tie == "leaders" and c[k] == max(c[1:]))

        # PO's, DP's and N's entries depend on the candidate counts c[1:]
        # alone, so each count shape's are built once, at its first
        # representative
        shapes: dict[tuple[int, ...], tuple[tuple[int, ...] | None, ...]] = {}
        for r in reps:
            c = counts[r]
            n = sum(c)
            self.reps[n].append(r)
            votes = c[1:]
            entries = shapes.get(votes)
            if entries is None:
                support = [k for k in candidates if c[k]]
                entries = shapes[votes] = (
                    (support[0],) if len(support) == 1 else None,
                    (0, *support) if len(support) <= 2 else None,
                    None if fixed is None else (0, *(k for k in candidates if votes.count(c[k]) == 1)),
                )
            forced, duel, stable = entries
            if po is not None and forced is not None:
                po[r] = forced
            if dp is not None and duel is not None:
                dp[r] = duel
            if fixed is not None:
                fixed[r] = stable
            if rs and n > 1:
                self.subcells[r] = [(index[codes[r] - w[x]], c[x]) for x in range(m + 1) if c[x]]
            if not pr:
                continue
            edges = self.pr_edges[r] = []
            for x in range(m + 1):
                if not c[x]:
                    continue
                code = codes[r] - w[x]
                for y in range(m + 1):
                    if y == x:
                        continue
                    j = index[code + w[y]]
                    if y:
                        edges.append((r, j, y, binds(c, y)))
                    if x:
                        edges.append((j, r, x, binds(counts[j], x)))

        self.nodes = 0
        self.prunes: dict[str, int] = {ax: 0 for ax in sorted(spec.axioms)}
        self.exhausted = True

    # -- one level's components ------------------------------------------------

    def _components(self, n: int) -> list[_Component]:
        """Level n's components, given the fixed levels below, in order of
        their smallest cell."""
        reps, m, identity = self.reps[n], self.m, self.identity
        successor = None
        if self.subcells is not None and n >= 2:
            successor = {}
            orbit, counts = self.orbit, self.counts
            for r in reps:
                d = self._reduced(r)
                # f(r) = x_r and f(d) = L[x_orbit(d)], L the relabeling of
                # orbit(d) onto d: the identity when d is a representative, as
                # every d is under {N, DP, PO, RS}.  With N the equations at
                # r's other members are relabelings of this one.
                s = orbit[d]
                successor[r] = (s, identity if s == d else _label(counts[d], m))
        merged = _merge(reps, successor, identity)
        return [(g, around, g[0][1] if g[0][1] is identity else _inverse(g[0][1])) for g, around in merged]

    def _value(self, j: int) -> int | None:
        """Cell j's outcome, or None while its representative r is
        unassigned: only representatives are stored.  A member reads r's
        value x as its one candidate with r's count of x (see the module
        docstring); 0, and a representative's own value, read as they are."""
        r = self.orbit[j]
        x = self.out[r]
        if not x or r == j:
            return x
        return self.counts[j].index(self.counts[r][x], 1)

    def _reduced(self, i: int) -> int:
        """The cell of reduce(i), once the level below is fixed: a count sum,
        each subcell's outcome, read as in ``_value``, as often as a deletion
        gives it, summed as a code."""
        out, orbit, counts, w = self.out, self.orbit, self.counts, self.w
        code = 0
        for j, times in self.subcells[i]:
            r = orbit[j]
            x = out[r]
            code += times * w[x if not x or r == j else counts[j].index(counts[r][x], 1)]
        return self.index[code]

    def _pr_clash(self, i: int) -> bool:
        """An upgrade edge at cell i with both ends assigned breaks PR."""
        value = self._value
        for s, t, k, binds in self.pr_edges[i]:
            w = value(t)
            if w is not None and w != k and (value(s) == k or (value(s) == 0 and binds)):
                return True
        return False

    # -- search --------------------------------------------------------------

    def _try(self, comp: _Component, v: int) -> str | None:
        """Assign value v at the component's smallest cell, or return the
        first axiom, in the order PO, DP, N, RS, PR, that excludes it
        (leaving the component unassigned).  Every axiom is decided at the
        representatives (see the module docstring)."""
        group, around, to_root = comp
        x = to_root[v]
        values = [(r, label[x]) for r, label in group]
        for axiom, allowed in self.allowed.items():
            for r, w in values:
                if r in allowed and w not in allowed[r]:
                    return axiom
        if around[x] != x:
            return "RS"
        out = self.out
        for r, w in values:
            out[r] = w
        if self.pr_edges is not None and any(self._pr_clash(r) for r, _ in group):
            for r, _ in group:
                out[r] = None
            return "PR"
        return None

    def _search(self) -> Iterator[TabledFunction]:
        """The solutions in order, until the node limit clears ``exhausted``."""
        m, n_max, max_nodes = self.m, self.spec.n_max, self.spec.max_nodes
        # one frame per component on the current branch: its level, that
        # level's components, its position among them, the next value to try
        stack = [[1, self._components(1), 0, 0]]
        while stack:
            frame = stack[-1]
            n, comps, k, start = frame
            comp = comps[k]
            for r, _ in comp[0]:
                self.out[r] = None
            for v in range(start, m + 1):
                # the limit is tested first, so a truncated run counts the
                # nodes it tried: exactly max_nodes
                if max_nodes is not None and self.nodes >= max_nodes:
                    self.exhausted = False
                    return
                self.nodes += 1
                axiom = self._try(comp, v)
                if axiom is None:
                    break
                self.prunes[axiom] += 1
            else:
                stack.pop()
                continue
            frame[3] = v + 1
            if k + 1 < len(comps):
                stack.append([n, comps, k + 1, 0])
            elif n < n_max:
                stack.append([n + 1, self._components(n + 1), 0, 0])
            else:
                # canonical keys, values in 0..m: nothing to validate; every
                # representative is assigned, so each cell reads as in _value
                out, counts = self.out, self.counts
                reads = zip(range(len(out)), self.orbit, map(out.__getitem__, self.orbit))
                values = [x if not x or r == j else counts[j].index(counts[r][x], 1) for j, r, x in reads]
                yield TabledFunction._trusted(m, n_max, dict(zip(self.cells, values)))
