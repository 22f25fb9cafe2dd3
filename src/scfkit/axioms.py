"""Bounded-exhaustive axiom checkers over the profile space (n <= n_max).

Each checker scans every profile up to the voter bound and returns an
:class:`AxiomReport`: a pass, or the minimal witness of a violation in
lexicographic (n, profile, permutation-or-pair-or-(candidate, voter)) order.
Witnesses are replayable: :func:`replay_witness` reruns the scan's own
per-profile code at the witness profile and is True only if that rebuilds
the witness, field by field.  A ``ValueError`` or ``LookupError`` while
rebuilding, such as an outcome that is no ballot or an unassigned table
entry, gives False.  So does a genuine violation recorded with another
pair, upgrade or voter permutation than the one the scan records.

Every checker is a call of :func:`check_axioms`, which checks any list of
axioms and establishes anonymity once per call.  A call estimated above
:data:`CHECK_MAX_COST` (:func:`check_cost`) is refused with a
:class:`CheckInfeasibleError` before f is evaluated, rather than running for
hours.  An anonymous f is scanned one sorted profile per anonymity class,
anything else over every ordered profile.  The A scan reads f exactly once
at every ordered profile, in stream order, and finds each profile's class
without sorting its ballots: a per-level successor table maps a class of
n - 1 voters and one more ballot to a class of n (:func:`_class_ids`).  A
class's first profile in that order is its sorted one, whose outcome
becomes the class's; every later member is compared with it.  So a scan
that passes leaves f's complete class table, and every later scan of the
call reads f from it: f is evaluated exactly once per ordered profile per
call, all within A.

Every scan walks ballot tuples from the profile stream of
:mod:`scfkit.core`, not :class:`~scfkit.core.Profile` objects: the scanned
profiles, their relabelings, subprofiles, reductions and upgrades are
tuples, and their supports, leaders and counts are read off the tuple.  f
is read through :func:`_reader`, and every lookup by class goes through one
sorted-key reader over one outcome dict (:func:`_sorted_reader`): a
table's, whose misses evaluate the table, or the class table of an f that
passed A, which no scan misses.  A Profile is built only where f.evaluate
needs one, or for a witness.  A Rule of exactly that type is called
through its ``fn`` (:func:`_evaluator`), so a class-level patch of
Rule.evaluate misses the scans' reads; a subclass's override sees them.

Neutrality is checked on two generators of the relabelings, the
transposition (1 2) and the m-cycle; only a failure rescans with all m!
relabelings, to report the same minimal witness.  A scan applies each
relabeling through one lookup tuple (0, *image), built once per scan, to
ballots and to f's outcome alike.  Every scan but A's reads f's outcome at
the profile it checks through :func:`_outcome`, which refuses one that is
no ballot (:func:`~scfkit.core._ballot_error`).  Reducibility evaluates f
once per distinct voter-deleted subprofile; the reduced profile's outcomes
are tested as they come, which never raises, and only a profile with
another outcome goes through the validating constructor.

Once N passes on a class scan, every DP, PO, RS, PR or NTW scan listed
after N in the same call checks only the first class of each neutrality
orbit: 94 of the 329 classes at (3, 7).  They are listed once per call
from the orbit stream of :mod:`scfkit.core`
(:func:`~scfkit.core._orbit_firsts`), which builds each orbit's first
class from its abstentions and candidate counts instead of filtering the
classes.  The reports stay those of the full class scan, by this lemma.
Let f be anonymous and neutral on the scope, P a class and tau a
relabeling.  Then each of these axioms fails at P exactly when it fails at
tau P.  tau carries P's support, duel pairs, tied pairs and plurality
leaders to those of tau P, each one-ballot upgrade of P to one of tau P,
and each voter-deleted subprofile of P to one of tau P; f(tau Q) =
tau f(Q) at every class Q, and tau is one-to-one on [0, m].  So PR fails
at P in any tie mode exactly when it fails at tau P, and RS exactly when
it does, since reduce(tau P) is a reordering of tau reduce(P).  An orbit's
classes share a voter count, and its first class comes before every other
member in the class stream.  So the first failing class in the stream is
an orbit's first class, with the same witness.  Nor can the full scan
raise at a class the orbit scan skips: N has read every class, so every
table entry exists and every outcome is an int in [0, m], and RS and PR
read f only at classes of the scope.

An anonymous f's N, DP, PO and RS are first checked in one pass each,
with no Python frame per class (:func:`_table_passes`), on the class index
(:func:`_class_index`) of the outcome dict its scans read
(:func:`_outcome_table`): a table's over the checked m, or the class
table a passing A scan leaves for any other f.  The index is built once
per call that checks N: the dict's entries in class order, and a dict
from each class's code to its entry.  A class's code has its counts
c_0..c_m as base-(n_max + 1) digits, the sum of w(b) = (n_max + 1) ** b
over its ballots b (:func:`_class_codes`), so distinct classes get
distinct codes.  A pass may decide only when the index is valid: every
class of 1..n_max voters has an int entry in [0, m], and the dict holds no
other key.  DP, PO and RS passes need N to have passed earlier in the same
call, and read only the orbit first classes.  A pass then passes exactly
when the scan would pass without raising; any other result runs the scan
from its first class, so witnesses, the rescan and every error are the
scan's.  The passes rest on this lemma.

- With a valid index no scan raises: every entry it reads, at a class of
  the scope, is a ballot, and with no other key a read of ballots out of
  order misses and reads its class's entry, the one a pass reads.  A
  scan reads f only from that dict, so it sees nothing a pass does not.
- N: under each generator tau, the entry at the code of tau K equals
  tau applied to the entry at K, for every class K.  That is the scan's
  own test.
- Let K be an orbit's first class: c_0 abstentions and votes for
  candidates 1..k, where k = K[-1] (0 when nobody votes).
- PO: every K with k = 1 has outcome 1, as K's support is {1..k}.
- DP: at m = 2 it always passes, as every outcome lies in {0, 1, 2},
  which holds the one duel pair.  At m >= 3, every K with k <= 2 has
  outcome <= k: an outcome in {0..k} is 0 or in the support, and any
  other lies outside some duel pair {i, j} that holds the support.
- RS: for every K with at least 2 voters, the entry at code(K) equals the
  entry at the sum over b of c_b * w(out_b), where out_b is the entry at
  code(K) - w(b), the class of K less one ballot b.  That sum is the code
  of K's reduced profile, whose ballots are each voter's subprofile
  outcome.  A ballot absent from K contributes 0, because c_b = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import compress, groupby, islice, permutations, repeat
from operator import add, eq, ge, itemgetter, le, mul, sub
from typing import Callable, Iterable, Iterator

from .core import (
    _COST_CAP,
    PR_TIE_MODES,
    Profile,
    _axiom_list,
    _ballot_error,
    _check_image,
    _check_scope,
    _counts,
    _orbit_firsts,
    _profiles,
    _set_ballots,
    _set_m,
    format_profile,
    profile_count,
)
from .rules import IncompleteTableError, TabledFunction, _evaluator

__all__ = [
    "AXIOM_IDS",
    "PR_TIE_MODES",
    "CHECK_MAX_COST",
    "CheckInfeasibleError",
    "check_cost",
    "Witness",
    "AxiomReport",
    "reduce_profile",
    "check_axioms",
    "check_anonymity",
    "check_neutrality",
    "check_duel_property",
    "check_pareto",
    "check_rs",
    "check_positive_responsiveness",
    "check_no_tied_winner",
    "replay_witness",
    "CHECKERS",
]

AXIOM_IDS = ("A", "N", "DP", "PO", "RS", "PR", "NTW")

# The largest checker run accepted, in estimated evaluations of f (see
# check_cost).  At roughly 5-15 us per evaluation, about half a minute.
CHECK_MAX_COST = 2_000_000


class CheckInfeasibleError(RuntimeError):
    """A checker's estimated cost exceeds CHECK_MAX_COST; carries the
    estimate so callers can report it."""

    def __init__(self, message: str, cost: int):
        self.cost = cost
        super().__init__(message)


def _document(value):
    """The document of a report value, by the one rule every report's
    ``to_dict()`` follows: a dataclass is its ``compare=True`` fields in
    declared order, less each field with a default while it is None or that
    default, and ``passed`` is written ``pass``; a Profile is its
    :func:`~scfkit.core.format_profile` text, a dict has its keys sorted, a
    tuple or list becomes a list, and anything else is written as it is."""
    if value is None or type(value) in (int, bool, str):  # most values, so tested first
        return value
    if isinstance(value, Profile):
        return format_profile(value)
    if isinstance(value, dict):
        return {key: _document(value[key]) for key in sorted(value)}
    if isinstance(value, (tuple, list)):
        return list(map(_document, value))
    if not is_dataclass(type(value)):
        return value
    doc = {}
    for f in fields(value):
        v = getattr(value, f.name)
        if f.compare and (f.default is MISSING or not (v is None or v == f.default)):
            doc["pass" if f.name == "passed" else f.name] = _document(v)
    return doc


@dataclass(frozen=True)
class Witness:
    """A violating configuration, with enough context to replay it; its
    ``to_dict()`` is :func:`_document`'s.

    Field use varies by axiom: ``related_profile`` is the permuted, reduced
    or upgraded profile; ``actual``/``expected`` are the clashing outcomes
    (for the reduction axiom: left side vs. right side); ``pair`` is the
    duel or tied pair; ``candidate``/``voter`` locate a one-ballot upgrade.
    ``permutation`` is an image tuple: for A, the position each voter moves
    to in the sorted profile; for N, the relabeling (tau(1), ..., tau(m)).
    """

    profile: Profile
    actual: int
    expected: int | None = None
    related_profile: Profile | None = None
    permutation: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    candidate: int | None = None
    voter: int | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return _document(self)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one bounded-exhaustive check at scope (m, n_max); its
    ``to_dict()`` is :func:`_document`'s."""

    axiom: str
    m: int
    n_max: int
    passed: bool
    witness: Witness | None = None

    def __post_init__(self):
        _check_ids((self.axiom,))
        if self.passed == (self.witness is not None):
            raise ValueError("a report fails exactly when it carries a witness")

    def to_dict(self) -> dict:
        return _document(self)


def _check_ids(axioms: Iterable[str]) -> None:
    """Refuse an axiom id that is not one of :data:`AXIOM_IDS`."""
    for ax in axioms:
        if ax not in AXIOM_IDS:
            raise ValueError(f"unknown axiom id {ax!r}")


def _evaluations_per_class(axiom: str, m: int, n: int, ordered: bool = False) -> int:
    """Evaluations of f one scanned profile of n voters costs a checker other
    than A: the profile itself plus each related profile.  A class scan
    scans sorted profiles, the ordered fallback every ordered profile."""
    if axiom == "N":
        return 2 if m == 2 else 3  # 1 + len(_generators(m)), without building an m-cycle
    if axiom == "RS":
        # one subprofile per run of equal adjacent ballots
        return 2 + (n if ordered else min(n, m + 1))
    if axiom == "PR":
        return 1 + m * n
    return 1


def check_cost(
    axioms: str | Iterable[str], m: int, n_max: int, tabled: bool = False, ordered: bool = False
) -> int:
    """Estimated evaluations of f by one :func:`check_axioms` call at scope
    (m, n_max); ``axioms`` is one axiom id or a list of them.

    The A scan is counted once, at one evaluation per ordered profile: when
    A is requested, or when another axiom is and f is not a
    :class:`TabledFunction` (``tabled``), whose anonymity is built in.  Each
    other axiom adds its class scan, anonymity classes times evaluations per
    class.  With ``ordered``, the estimate is instead that of the fallback
    scans of a function that failed the A scan: every ordered profile times
    the evaluations per profile, summed over the axioms other than A.  A
    failing N scan's rescan for its minimal witness is estimated when it
    starts, not here.  Once N passes, the scans after it check one class
    per neutrality orbit, so the estimate is an upper bound.

    Levels are summed from n = 1 up, and the sum stops at the first level
    where it passes ``_COST_CAP``; past that, the estimate is a lower bound.
    """
    _check_scope(m, n_max)
    axioms = _axiom_list(axioms)
    _check_ids(axioms)
    others = [ax for ax in axioms if ax != "A"]
    anonymity = not ordered and _scans_anonymity(axioms, tabled)
    cost = 0
    for n in range(1, n_max + 1):
        classes = profile_count(m, n, canonical_only=not ordered)
        cost += sum(classes * _evaluations_per_class(ax, m, n, ordered) for ax in others)
        if anonymity:
            cost += profile_count(m, n)
        if cost > _COST_CAP:
            break
    return cost


def _scans_anonymity(axioms: list[str], tabled: bool) -> bool:
    """Whether a call runs the A scan: for the A report, or to establish
    anonymity for another axiom when f is not a table."""
    return "A" in axioms or (any(ax != "A" for ax in axioms) and not tabled)


def _refuse_above(cost: int, task: str) -> None:
    """Raise :class:`CheckInfeasibleError` when ``task`` is estimated at more
    than :data:`CHECK_MAX_COST` evaluations."""
    if cost > CHECK_MAX_COST:
        about = f"about {cost}" if cost <= _COST_CAP else f"over {_COST_CAP}"
        raise CheckInfeasibleError(f"{task} needs {about} evaluations (> {CHECK_MAX_COST})", cost=cost)


def require_feasible(axioms: str | Iterable[str], f, m: int, n_max: int, ordered: bool = False) -> None:
    """Raise :class:`CheckInfeasibleError` when checking ``axioms`` (one id
    or a list) for f at the scope, or with ``ordered`` their ordered fallback
    scans, is estimated to exceed :data:`CHECK_MAX_COST`."""
    axioms = _axiom_list(axioms)
    cost = check_cost(axioms, m, n_max, tabled=isinstance(f, TabledFunction), ordered=ordered)
    _refuse_above(cost, f"checking {','.join(axioms)} at m={m}, n_max={n_max}")


def _scans_classes(f, anonymity: Witness | None) -> bool:
    """Whether f is anonymous on the scope, given the A scan's witness: then
    every member of a failing class fails the same way, and the sorted
    member, the lexicographic minimum of its class, is the first failing
    profile in stream order, so one sorted profile per class is scanned."""
    return isinstance(f, TabledFunction) or anonymity is None


def _first_witness(
    witness_of: Callable, value: Callable, m: int, stream: Iterable[tuple[int, ...]], tie_upgrade: str
) -> Witness | None:
    """The first profile's witness, in stream order."""
    for ballots in stream:
        w = witness_of(value, m, ballots, tie_upgrade)
        if w is not None:
            return w
    return None


def _sorting_permutation(p: Profile) -> tuple[int, ...]:
    """The image of a voter permutation sending p to its canonical form
    (stable sort): voter l moves to position ``image[l-1]``."""
    order = sorted(range(p.n), key=lambda l: (p.ballots[l], l))
    image = [0] * p.n
    for new_pos, old_pos in enumerate(order, start=1):
        image[old_pos] = new_pos
    return tuple(image)


# a key an outcome dict lacks (f may return anything, None included)
_UNEVALUATED = object()


def _class_ids(m: int, n_max: int) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
    """Per level n = 1..n_max, ``(keys, ids)``: ``keys`` lists the classes'
    sorted ballots in the order of ``_profiles(m, n, n, True)``, and
    ``ids[t]`` is the index in ``keys`` of the class of the t-th ordered
    profile of ``_profiles(m, n, n, False)``.

    Nothing is sorted.  The ordered stream is prefix-major: each profile of
    n - 1 voters, in order, followed by each ballot.  So a level's ids are
    its predecessor's, each expanded through the successor table
    ``child[i][b]``, the class of ``keys_{n-1}[i] + (b,)``: the level-n
    class whose code (:func:`_class_code_levels`) is that class's code plus
    (n_max + 1) ** b.
    """
    steps = [(n_max + 1) ** b for b in range(m + 1)]
    ids = [0]
    codes = [0]  # the empty class's
    for n, level in enumerate(_class_code_levels(m, n_max, range(m + 1)), start=1):
        index = {code: i for i, (code, _) in enumerate(level)}
        child = [[index[code + step] for step in steps] for code in codes]
        ids = [c for i in ids for c in child[i]]
        codes = [code for code, _ in level]
        yield list(_profiles(m, n, n, True)), ids


def _anonymity_witness(f, m: int, n_max: int, values: dict[tuple[int, ...], int]) -> Witness | None:
    """The A scan: f must be constant on each anonymity class.

    f is read exactly once at every ordered profile of 1..n_max voters, in
    stream order, and each profile's class is read off :func:`_class_ids`,
    not found by sorting.  A class's first profile in that order is its
    sorted one, the lexicographic minimum of its orderings: its outcome
    becomes the class's, kept in ``values`` under the sorted ballots, and
    every later member of the class is compared with it.  So a scan that
    passes leaves the complete class table in ``values``.  f is read as it
    is: a table through ``_reader``, any other f through :func:`_evaluator`
    here, on a Profile built inline.
    """
    read = _reader(f, m, False, values) if isinstance(f, TabledFunction) else None
    new, set_m, set_ballots, evaluate = object.__new__, _set_m, _set_ballots, _evaluator(f)
    for n, (keys, ids) in enumerate(_class_ids(m, n_max), start=1):
        outcomes = [_UNEVALUATED] * len(keys)
        for ballots, i in zip(_profiles(m, n, n, False), ids):
            if read is None:
                p = new(Profile)
                set_m(p, m)
                set_ballots(p, ballots)
                actual = evaluate(p)
            else:
                actual = read(ballots)
            expected = outcomes[i]
            if expected is _UNEVALUATED:
                outcomes[i] = values[keys[i]] = actual
            elif actual != expected:
                return _unsorted_witness(m, ballots, actual, expected)
    return None


def _unsorted_witness(m: int, ballots: tuple[int, ...], actual, expected) -> Witness:
    """A's witness at an ordered profile whose outcome ``actual`` differs
    from ``expected``, its sorted member's; the scan and the replay build it
    here."""
    p = Profile._trusted(m, ballots)
    return Witness(
        profile=p,
        related_profile=Profile._trusted(m, tuple(sorted(ballots))),
        permutation=_sorting_permutation(p),
        actual=actual,
        expected=expected,
    )


def _sorted_reader(
    outcomes: dict[tuple[int, ...], int], miss: Callable[[tuple[int, ...]], int]
) -> Callable[[tuple[int, ...]], int]:
    """``value(ballots)``: the outcome ``outcomes`` holds for the ballots'
    class, or ``miss(key)`` at the class's sorted ballots when it holds
    none.  The keys are sorted, so a hit on the ballots as given is their
    class: only unsorted ballots, or a miss, are sorted."""
    get, missing = outcomes.get, _UNEVALUATED

    def evaluate(ballots: tuple[int, ...]) -> int:
        out = get(ballots, missing)
        if out is missing:
            key = tuple(sorted(ballots))
            out = get(key, missing)
            if out is missing:
                out = miss(key)
        return out

    return evaluate


def _outcome_table(f, m: int, by_class: bool, values: dict[tuple[int, ...], int]) -> dict | None:
    """The one outcome dict, keyed by sorted ballots, that every scan of a
    call reads f from: a table's own over the scope's m, or, with
    ``by_class``, the class table ``values`` of any other f that passed the
    A scan.  None when f is read by evaluation alone."""
    if isinstance(f, TabledFunction):
        return f._table if f.m == m else None
    return values if by_class else None


def _reader(f, m: int, by_class: bool, values: dict[tuple[int, ...], int]) -> Callable[[tuple[int, ...]], int]:
    """How every scan reads f in one call: ``value(ballots)``, f's outcome at
    the profile with those ballots.

    f is read from its one outcome dict (:func:`_outcome_table`) through
    :func:`_sorted_reader`: a table's, whose misses, a class with no entry or
    ballots past the table's voter bound, evaluate the table, which raises
    as it always does; or the class table of a passing A scan, which no scan
    misses, as every class of the scope is in it.  A table over another m,
    and without ``by_class`` any other f, is evaluated at every profile; a
    table over another m raises at once.  A
    :class:`~scfkit.core.Profile` is built only for f.evaluate, inline
    through the slot setters :meth:`~scfkit.core.Profile._trusted` uses.  f
    is called through :func:`_evaluator`, so a class-level patch of
    Rule.evaluate does not see a Rule's reads; a subclass's override does.
    """
    new, set_m, set_ballots, evaluate = object.__new__, _set_m, _set_ballots, _evaluator(f)

    def read(ballots: tuple[int, ...]) -> int:
        p = new(Profile)
        set_m(p, m)
        set_ballots(p, ballots)
        return evaluate(p)

    table = _outcome_table(f, m, by_class, values)
    return read if table is None else _sorted_reader(table, read)


def _relabeling_lookups(m: int) -> list[tuple[int, ...]]:
    """The m! relabelings' lookups (see :func:`_generators`), straight from their images."""
    return [(0, *image) for image in permutations(range(1, m + 1))]


def _generators(m: int) -> tuple[tuple[int, ...], ...]:
    """The lookups of the transposition (1 2) and the m-cycle k -> k + 1
    (m -> 1), which generate every relabeling; at m = 2 they are the same
    swap.  A relabeling tau's lookup is the tuple (0, *tau.image), which
    maps a ballot or an outcome in [0, m] to its image; built once per scan."""
    swap = (0, 2, 1, *range(3, m + 1))
    return (swap,) if m == 2 else (swap, (0, *range(2, m + 1), 1))


def _outcome(value: Callable, m: int, ballots: tuple[int, ...]) -> int:
    """f's outcome at the profile a scan checks; one that is no ballot raises."""
    out = value(ballots)
    error = _ballot_error(m, out)
    if error:
        raise ValueError(f"outcome {out!r} {error}")
    return out


def _relabeling_witness(
    value: Callable, m: int, ballots: tuple[int, ...], lookups: list[tuple[int, ...]]
) -> Witness | None:
    """The first relabeling tau in ``lookups`` (see :func:`_generators`) with
    f(tau P) != tau f(P).  f(P) indexes the lookups, so it is read through
    :func:`_outcome`: -1 would wrap round, and True stand for candidate 1."""
    out = _outcome(value, m, ballots)
    for lookup in lookups:
        permuted = tuple(map(lookup.__getitem__, ballots))
        actual = value(permuted)
        expected = lookup[out]
        if actual != expected:
            return Witness(
                profile=Profile._trusted(m, ballots),
                related_profile=Profile._trusted(m, permuted),
                permutation=lookup[1:],
                actual=actual,
                expected=expected,
            )
    return None


def _neutrality_witness(value: Callable, m: int, n_max: int, by_class: bool) -> Witness | None:
    """N's scan: f(tau P) = tau f(P) for the two generators on every scanned
    profile.

    That suffices for every relabeling: the scope is closed under
    relabeling, so equivariance under g and h gives it under gh.  (On a
    class scan f is anonymous, so it also holds for every ordering of P.)
    A failure, or an unassigned table entry, at profile Q starts the rescan
    for the minimal witness.  At m = 2 the swap is the only relabeling
    besides the identity, so the first failure is that witness and an
    unassigned entry raises as the full scan would.
    """
    generators = _generators(m)
    for scanned, ballots in enumerate(_profiles(m, 1, n_max, by_class), start=1):
        if m == 2:
            w = _relabeling_witness(value, m, ballots, generators)
            if w is not None:
                return w
            continue
        try:
            if _relabeling_witness(value, m, ballots, generators) is None:
                continue
        except IncompleteTableError:
            pass  # the rescan meets the same entry, or an earlier witness
        return _minimal_relabeling_witness(value, m, n_max, by_class, scanned)
    return None


def _class_code_levels(m: int, n_max: int, lookup: Iterable[int]) -> Iterator[list[tuple[int, int]]]:
    """Per level n = 1..n_max, one (code, last) pair per class of n voters,
    in the class stream's order: the code is the sum of ``(n_max + 1) **
    lookup[b]`` over the class's ballots b, and ``last`` its largest ballot.
    With ``lookup`` the identity, range(m + 1), a class's code has its counts
    c_0..c_m as base-(n_max + 1) digits; each c_b <= n_max, so distinct
    classes get distinct codes.  With a relabeling's lookup tuple
    (:func:`_generators`), each class K gets the plain code of the class of
    tau K, its relabeled ballots in any order.

    Built level by level, with no sort: a class of n voters is a class of
    n - 1 voters plus a largest ballot no smaller than that class's largest
    (0 for the empty class), and in that order the classes of n voters come
    in the stream's lexicographic order."""
    pairs = [((n_max + 1) ** k, b) for b, k in enumerate(lookup)]
    # the lows that levels 0..n_max - 1 hold: 0 alone at level 0, all from level 1 on
    tails = [pairs[low:] for low in range(m + 1 if n_max > 1 else 1)]
    level = [(0, 0)]
    for _ in range(n_max):
        level = [(c + w, b) for c, low in level for w, b in tails[low]]
        yield level


def _class_codes(m: int, n_max: int, lookup: Iterable[int]) -> list[int]:
    """One code per class of 1..n_max voters, in the class stream's order
    (:func:`_class_code_levels`)."""
    first = itemgetter(0)
    codes: list[int] = []
    for level in _class_code_levels(m, n_max, lookup):
        codes += map(first, level)
    return codes


def _class_index(table: dict, m: int, n_max: int) -> tuple[dict, list[int], dict[int, int]] | None:
    """The class index at the scope of an outcome dict keyed by sorted
    ballots, a table's or a class table (:func:`_outcome_table`):
    ``(table, outs, by_code)``, with ``outs`` its entries at the classes of
    1..n_max voters in the class stream's order and ``by_code`` a dict from
    each class's code (:func:`_class_codes`) to its entry.  None unless the
    index is valid: every class has an int entry in [0, m] (as
    :func:`~scfkit.core._ballot_error` requires) and the dict holds no
    other key.  Reading the entries has no side effects."""
    keys = list(_profiles(m, 1, n_max, True))
    outs = list(map(table.get, keys))
    if len(table) != len(keys) or set(map(type, outs)) != {int} or min(outs) < 0 or max(outs) > m:
        return None
    return table, outs, dict(zip(_class_codes(m, n_max, range(m + 1)), outs))


def _neutrality_pass(index: tuple, firsts: list | None, m: int, n_max: int) -> bool:
    """N's pass: under each generator tau, the entry at the code of tau K,
    built for every class K at once (:func:`_class_codes`), is tau applied
    to K's entry.  One pass of ``map`` and ``operator.eq`` per generator."""
    _, outs, by_code = index
    read = by_code.__getitem__
    for lookup in _generators(m):
        if not all(map(eq, map(read, _class_codes(m, n_max, lookup)), map(lookup.__getitem__, outs))):
            return False
    return True


def _duel_pass(index: tuple, firsts: list, m: int, n_max: int) -> bool:
    """DP's pass: from m = 3 on, every orbit's first class with k <= 2
    voted candidates, 1..k, has an outcome of at most k."""
    if m == 2:
        return True
    lasts = list(map(itemgetter(-1), firsts))
    duels = list(map(ge, repeat(2), lasts))
    return all(map(le, map(index[0].__getitem__, compress(firsts, duels)), compress(lasts, duels)))


def _pareto_pass(index: tuple, firsts: list, m: int, n_max: int) -> bool:
    """PO's pass: every orbit's first class voting for candidate 1 alone
    has outcome 1."""
    alone = compress(firsts, map(eq, map(itemgetter(-1), firsts), repeat(1)))
    return all(map(eq, map(index[0].__getitem__, alone), repeat(1)))


def _reducibility_pass(index: tuple, firsts: list, m: int, n_max: int) -> bool:
    """RS's pass: every orbit's first class K of two or more voters has the
    entry at the code of its reduced profile, the sum over b of
    c_b * w(out_b), out_b the entry at code(K) - w(b).  K votes only for
    1..min(m, n_max), so those ballots and 0 are the only digits summed; a
    ballot K lacks adds 0, whatever its lookup reads.  K is sorted, so c_b
    is its ballots up to b less those up to b - 1, each found by bisection."""
    by_code = index[2]
    many = [K for K in firsts if len(K) > 1]
    weights = [(n_max + 1) ** b for b in range(m + 1)]
    counts, below = [], [0] * len(many)
    for b in range(min(m, n_max) + 1):
        upto = list(map(bisect_right, many, repeat(b)))
        counts.append((weights[b], list(map(sub, upto, below))))
        below = upto
    codes = [0] * len(many)
    for w, c in counts:
        codes = list(map(add, codes, map(mul, c, repeat(w))))
    reduced = [0] * len(many)
    for w, c in counts:
        outs = map(by_code.get, map(sub, codes, repeat(w)), repeat(0))
        reduced = list(map(add, reduced, map(mul, c, map(weights.__getitem__, outs))))
    read = by_code.__getitem__
    return all(map(eq, map(read, codes), map(read, reduced)))


# axiom -> its one-pass check of an outcome dict, a function of the dict's
# class index, the orbit first classes (None for N), m and n_max
_PASSES = {"N": _neutrality_pass, "DP": _duel_pass, "PO": _pareto_pass, "RS": _reducibility_pass}


def _table_passes(axiom: str, index: tuple, firsts: list | None, m: int, n_max: int) -> bool:
    """Whether ``axiom``'s pass decides that its scan passes, given the
    valid class index of the outcome dict the scans read and, past N, the
    orbit first classes of a call where N has passed (see the module
    docstring).  Every pass goes through here."""
    return _PASSES[axiom](index, firsts, m, n_max)


def _minimal_relabeling_witness(value: Callable, m: int, n_max: int, by_class: bool, stop: int) -> Witness:
    """Rescan the first ``stop`` profiles with all m! relabelings in order,
    as one scan over the full group meets them.  Profile ``stop`` fails
    under that group (or needs the unassigned entry), so the full scan's
    witness, or its error, comes at it at the latest.  Estimated first, and
    refused like any scan."""
    _refuse_above(stop * (1 + math.factorial(m)), f"rescanning N for its witness at m={m}, n_max={n_max}")
    relabelings = _relabeling_lookups(m)
    for ballots in islice(_profiles(m, 1, n_max, by_class), stop):
        w = _relabeling_witness(value, m, ballots, relabelings)
        if w is not None:
            return w
    raise RuntimeError("f fails N under a generator but under no relabeling: it is not deterministic")


def _duel_pairs(support: tuple[int, ...], m: int) -> Iterable[tuple[int, int]]:
    """Pairs (i, j), i < j, for which a profile with this support of at
    most two candidates is a duel."""
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if all(k in (i, j) for k in support):
                yield (i, j)


def _support(ballots: tuple[int, ...]) -> tuple[int, ...]:
    """Candidates with at least one vote, ascending."""
    support = set(ballots)
    support.discard(0)
    return tuple(sorted(support))


def _leaders(m: int, ballots: tuple[int, ...]) -> tuple[int, ...]:
    """Candidates sharing the top vote count: every candidate when nobody
    votes."""
    counts = _counts(m, ballots)
    top = max(counts[1:])
    return tuple(k for k in range(1, m + 1) if counts[k] == top)


def _duel_property(value: Callable, m: int, ballots: tuple[int, ...], tie_upgrade: str) -> Witness | None:
    support = _support(ballots)
    if len(support) > 2:
        return None
    out = _outcome(value, m, ballots)
    if out == 0 or out in support:
        return None  # every duel pair holds the support
    for i, j in _duel_pairs(support, m):
        if out not in (0, i, j):
            p = Profile._trusted(m, ballots)
            return Witness(profile=p, pair=(i, j), actual=out, note="outcome outside {0, i, j}")
    return None


def _pareto(value: Callable, m: int, ballots: tuple[int, ...], tie_upgrade: str) -> Witness | None:
    support = _support(ballots)
    if len(support) != 1:
        return None
    k = support[0]
    out = _outcome(value, m, ballots)
    if out != k:
        return Witness(profile=Profile._trusted(m, ballots), candidate=k, expected=k, actual=out)
    return None


def _reduced(value: Callable, m: int, ballots: tuple[int, ...]) -> tuple[int, ...]:
    """The ballots of the reduced profile: ballot l is f with voter l
    removed, evaluated once per run of equal adjacent ballots.  Each outcome
    is tested as it comes, which never raises; if one is no ballot, not an
    int in [0, m], the validating constructor raises for the first such."""
    reduced = []
    fits = True  # every outcome so far a ballot
    l = 0  # the run's first voter
    for _, run in groupby(ballots):
        out = value(ballots[:l] + ballots[l + 1 :])
        fits = fits and not _ballot_error(m, out)
        length = len(list(run))
        reduced += [out] * length
        l += length
    return tuple(reduced) if fits else Profile(m, reduced).ballots


def reduce_profile(f, p: Profile) -> Profile:
    """The profile of subsociety outcomes: ballot l is f with voter l removed.

    Removing either of two adjacent voters with equal ballots leaves the same
    subprofile, so f is evaluated once per run of equal adjacent ballots: at
    most min(n, m + 1) times on a sorted profile.  That holds within p, for
    any f, anonymous or not.

    Its ballots are outcomes of f, not ballots of p, so each run's outcome is
    checked once all are known; an outcome that is not an int in [0, m]
    raises as the validating constructor does, for the first such ballot.
    """
    m = p.m
    if len(p.ballots) < 2:
        raise ValueError("subsociety reduction needs at least 2 voters")
    return Profile._trusted(m, _reduced(_reader(f, m, False, {}), m, p.ballots))


def _reducibility(value: Callable, m: int, ballots: tuple[int, ...], tie_upgrade: str) -> Witness | None:
    lhs = _outcome(value, m, ballots)
    reduced = _reduced(value, m, ballots)
    rhs = value(reduced)
    if lhs != rhs:
        return Witness(
            profile=Profile._trusted(m, ballots),
            related_profile=Profile._trusted(m, reduced),
            actual=lhs,
            expected=rhs,
        )
    return None


def _tie_candidates(m: int, ballots: tuple[int, ...], mode: str) -> tuple[int, ...]:
    if mode == "always":
        return tuple(range(1, m + 1))
    if mode == "leaders":
        return _leaders(m, ballots)
    return ()


def _responsiveness(value: Callable, m: int, ballots: tuple[int, ...], tie_upgrade: str) -> Witness | None:
    out = _outcome(value, m, ballots)  # a win becomes an upgrade's ballot
    if out == 0:
        targets = _tie_candidates(m, ballots, tie_upgrade)
        note = f"pr:tie:{tie_upgrade}"
    else:
        targets = (out,)
        note = "pr:win"
    for k in targets:
        for l, b in enumerate(ballots):
            if b == k:
                continue
            upgraded = ballots[:l] + (k,) + ballots[l + 1 :]
            actual = value(upgraded)
            if actual != k:
                return Witness(
                    profile=Profile._trusted(m, ballots),
                    related_profile=Profile._trusted(m, upgraded),
                    candidate=k,
                    voter=l + 1,
                    expected=k,
                    actual=actual,
                    note=note,
                )
    return None


def _no_tied_winner(value: Callable, m: int, ballots: tuple[int, ...], tie_upgrade: str) -> Witness | None:
    counts = _counts(m, ballots)
    out = _outcome(value, m, ballots)
    if out == 0:
        return None
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if counts[i] == counts[j] and out in (i, j):
                return Witness(profile=Profile._trusted(m, ballots), pair=(i, j), actual=out, note="tied pair won")
    return None


# axiom -> (a function of f's reader, m, a profile's ballots and PR's tie
# mode returning the profile's witness or None, the smallest voter count
# scanned); N has its own scan, _neutrality_witness
_SCANS = {
    "DP": (_duel_property, 1),
    "PO": (_pareto, 1),
    "RS": (_reducibility, 2),
    "PR": (_responsiveness, 1),
    "NTW": (_no_tied_winner, 1),
}


def check_axioms(
    f, m: int, n_max: int, axioms: str | Iterable[str], tie_upgrade: str = "leaders"
) -> list[AxiomReport]:
    """One report per axiom in ``axioms``, one id or a list of them, in that
    order; ``tie_upgrade`` is PR's tie mode.

    The scope is validated and the whole call estimated before f is
    evaluated.  Anonymity is established once: by the A scan, which is also
    the A report, or by construction for a :class:`TabledFunction`.  Every
    scan walks ballot tuples and reads f through :func:`_reader`: a table's
    entries directly, the complete class table the A scan leaves when it
    passes, or f itself when f is not anonymous.  In that last case the
    ordered fallbacks of the other axioms are estimated together before any
    of them is scanned.  A :class:`Profile` is built only for f.evaluate or
    a witness.  When the dict the scans read, a table's over m or the class
    table, has a valid class index, N, and once N has passed DP, PO and RS,
    are each decided by their one-pass check when it passes, and by the
    scan otherwise (see the module docstring).

    Once N passes on a class scan, the DP, PO, RS, PR and NTW scans listed
    after it check only each neutrality orbit's first class: under an
    anonymous, neutral f each of them fails at a class exactly when it
    fails at every relabeling of it, and the first failing class is an
    orbit's first, so the reports are those of the full class scan (see the
    module docstring).  Scans listed before N, and the ordered fallbacks,
    check every class or profile.
    """
    axioms = _axiom_list(axioms)
    _check_scope(m, n_max)
    _check_ids(axioms)
    if "RS" in axioms and n_max < 2:
        raise ValueError("the reduction axiom needs a voter bound of at least 2")
    if "PR" in axioms and tie_upgrade not in PR_TIE_MODES:
        raise ValueError(f"tie_upgrade must be one of {PR_TIE_MODES}, got {tie_upgrade!r}")
    require_feasible(axioms, f, m, n_max)
    others = [ax for ax in axioms if ax != "A"]
    values: dict[tuple[int, ...], int] = {}
    tabled = isinstance(f, TabledFunction)
    anonymity = _anonymity_witness(f, m, n_max, values) if _scans_anonymity(axioms, tabled) else None
    by_class = _scans_classes(f, anonymity)
    if not by_class:
        require_feasible(others, f, m, n_max, ordered=True)
    table = _outcome_table(f, m, by_class, values)
    value = _reader(f, m, by_class, values)
    witnesses = {"A": anonymity}
    index, neutral, firsts = None, False, None
    for ax in others:
        if ax == "N":
            if index is None and table is not None:
                index = _class_index(table, m, n_max)
            if index is not None and _table_passes(ax, index, None, m, n_max):
                witnesses[ax] = None
            else:
                witnesses[ax] = _neutrality_witness(value, m, n_max, by_class)
            neutral = by_class and witnesses[ax] is None
            continue
        witness_of, n_min = _SCANS[ax]
        if not neutral:
            stream = _profiles(m, n_min, n_max, by_class)
        else:
            if firsts is None:
                firsts = list(_orbit_firsts(m, 1, n_max))
            if index is not None and ax in _PASSES and _table_passes(ax, index, firsts, m, n_max):
                witnesses[ax] = None
                continue
            stream = (ballots for ballots in firsts if len(ballots) >= n_min)
        witnesses[ax] = _first_witness(witness_of, value, m, stream, tie_upgrade)
    return [AxiomReport(ax, m, n_max, witnesses[ax] is None, witnesses[ax]) for ax in axioms]


def check_anonymity(f, m: int, n_max: int) -> AxiomReport:
    """f(P sigma) = f(P) for every voter permutation sigma."""
    return check_axioms(f, m, n_max, ["A"])[0]


def check_neutrality(f, m: int, n_max: int) -> AxiomReport:
    """f(tau P) = tau f(P) for all m! candidate permutations tau, checked on
    the transposition (1 2) and the m-cycle, which generate them; a failure
    is rescanned with all m! to report the minimal witness."""
    return check_axioms(f, m, n_max, ["N"])[0]


def check_duel_property(f, m: int, n_max: int) -> AxiomReport:
    """On any profile supported by at most two candidates i, j the outcome is
    i, j or a tie; no third party wins a duel they did not take part in."""
    return check_axioms(f, m, n_max, ["DP"])[0]


def check_pareto(f, m: int, n_max: int) -> AxiomReport:
    """Whenever exactly one candidate receives votes (everyone else abstains),
    that candidate must win."""
    return check_axioms(f, m, n_max, ["PO"])[0]


def check_rs(f, m: int, n_max: int) -> AxiomReport:
    """Reducibility to subsocieties: the outcome on P equals the outcome on
    the profile collecting f over all voter-deleted subprofiles."""
    return check_axioms(f, m, n_max, ["RS"])[0]


def check_positive_responsiveness(f, m: int, n_max: int, tie_upgrade: str = "leaders") -> AxiomReport:
    """One ballot moves to candidate k, all others fixed: a win for k must be
    preserved, and (per ``tie_upgrade``) a tie must become a win for k."""
    return check_axioms(f, m, n_max, ["PR"], tie_upgrade)[0]


def check_no_tied_winner(f, m: int, n_max: int) -> AxiomReport:
    """Tied candidates cannot win: whenever two candidates have equal counts,
    neither is the outcome.  Meaningful for functions already known anonymous
    and neutral (the caller enforces that precondition)."""
    return check_axioms(f, m, n_max, ["NTW"])[0]


def _same(a, b) -> bool:
    """Whether two witness fields are equal in type as well as value, tuples
    and profiles item by item, so True or 1.0 never stands for 1."""
    if type(a) is not type(b):
        return False
    if type(a) is Profile:
        a, b = (a.m, a.ballots), (b.m, b.ballots)
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def replay_witness(f, report: AxiomReport) -> bool:
    """Whether a failing report's witness is the one its axiom's scan builds
    for f at the witness profile.

    The witness is untrusted input: a :class:`Witness`, exact type, whose
    profile is a :class:`~scfkit.core.Profile`, exact type, in the report's
    scope: over the report's m, with 1 to n_max voters (at least 2 for RS).
    The scan's own per-profile code then reruns at that profile, and the
    replay is True iff it rebuilds the recorded witness field by field, each
    field equal in type as well as value (tuples and profiles item by item).
    A is rebuilt from f's outcomes at the profile and at its sorted member;
    N under the recorded relabeling alone, which must list 1..m once each,
    as ints; PR in the tie mode its note names, ``pr:win`` in any.  A
    ``ValueError`` or ``LookupError`` while rebuilding gives False: a
    profile or outcome that is no ballot where the scan refuses one, an
    unassigned table entry, a profile past a table's voter bound.  Any other
    exception from f propagates.

    So a witness replays only as the scan records it at its profile: a
    genuine violation recorded with another duel or tied pair, another
    upgrade or another voter permutation than the scan's is False.
    """
    w, axiom = report.witness, report.axiom
    if report.passed or type(w) is not Witness or type(w.profile) is not Profile:
        return False
    m, n_min = w.profile.m, _SCANS[axiom][1] if axiom in _SCANS else 1
    if m != report.m or not n_min <= w.profile.n <= report.n_max:
        return False
    value = _reader(f, m, False, {})
    try:
        ballots = Profile(m, w.profile.ballots).ballots
        if axiom == "A":
            actual, expected = value(ballots), value(tuple(sorted(ballots)))
            rebuilt = _unsorted_witness(m, ballots, actual, expected) if actual != expected else None
        elif axiom == "N":
            if type(w.permutation) is not tuple:
                return False
            _check_image(m, w.permutation)
            rebuilt = _relabeling_witness(value, m, ballots, [(0, *w.permutation)])
        elif axiom == "PR":
            modes = {"pr:win": "leaders", **{f"pr:tie:{mode}": mode for mode in PR_TIE_MODES}}
            if w.note not in modes:
                return False
            rebuilt = _responsiveness(value, m, ballots, modes[w.note])
        else:
            rebuilt = _SCANS[axiom][0](value, m, ballots, "leaders")
    except (ValueError, LookupError):
        return False
    return rebuilt is not None and all(_same(getattr(rebuilt, k.name), getattr(w, k.name)) for k in fields(Witness))


CHECKERS: dict[str, Callable] = {
    "A": check_anonymity,
    "N": check_neutrality,
    "DP": check_duel_property,
    "PO": check_pareto,
    "RS": check_rs,
    "PR": check_positive_responsiveness,
}
