import ast
import dataclasses
import functools
import importlib
import inspect
import math
import random
from itertools import combinations_with_replacement, groupby, islice, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import scfkit
from scfkit import axioms, cli, core, rules, search
from scfkit.axioms import (
    AXIOM_IDS,
    CHECK_MAX_COST,
    CHECKERS,
    PR_TIE_MODES,
    AxiomReport,
    CheckInfeasibleError,
    Witness,
    check_anonymity,
    check_axioms,
    check_cost,
    check_duel_property,
    check_no_tied_winner,
    check_neutrality,
    check_pareto,
    check_positive_responsiveness,
    check_rs,
    reduce_profile,
    replay_witness,
    require_feasible,
)
from scfkit.core import (
    Profile,
    apply_candidate_permutation,
    ballot_counts,
    enumerate_profiles,
    format_profile,
    remove_voter,
    tally,
)
from scfkit.rules import RULES, IncompleteTableError, Rule, TabledFunction
from scfkit.search import IndependenceVerdict, TheoremVerdict, verify_independence, verify_theorem

MAJ = RULES["maj"]
UC = RULES["uc"]
LEX = RULES["lex"]
ZERO = RULES["zero"]

# a rule that copies voter 1's ballot: clearly not anonymous
DICTATOR = Rule("dict1", lambda p: p.ballots[0])


def _third_party(p: Profile) -> int:
    # on two-candidate duels at m=3 the absent candidate wins; ties otherwise
    support = tally(p).support()
    if p.m == 3 and len(support) == 2:
        return ({1, 2, 3} - set(support)).pop()
    return 0


THIRD_PARTY = Rule("third", _third_party)

# the last voter's ballot: not anonymous, yet agrees with its class's sorted
# member on every profile whose last ballot is the largest
LAST = Rule("last", lambda p: p.ballots[-1])


def _per_voter_reduction(f, p: Profile) -> Profile:
    """reduce_profile as written before run sharing: f on every voter-deleted
    subprofile, collected by the validating constructor."""
    return Profile(p.m, tuple(f.evaluate(remove_voter(p, l)) for l in range(1, p.n + 1)))


def _reduction_outcome(reduce, outcomes: dict[tuple[int, ...], int], p: Profile):
    """``reduce`` applied to the function given by ``outcomes`` on p: the
    reduced profile or the error's type and text, and the profiles f was
    evaluated on."""
    calls = []
    f = Rule("drawn", lambda q: calls.append(q.ballots) or outcomes[q.ballots])
    try:
        result = reduce(f, p)
    except ValueError as exc:
        result = (type(exc).__name__, str(exc))
    return result, calls


class TestReduceProfile:
    def test_uc_reduction_collects_subsociety_outcomes(self):
        assert reduce_profile(UC, Profile(2, (1, 1, 2))).ballots == (0, 0, 1)

    def test_maj_reductions(self):
        assert reduce_profile(MAJ, Profile(2, (1, 1))).ballots == (1, 1)
        assert reduce_profile(MAJ, Profile(2, (1, 2))).ballots == (2, 1)

    def test_needs_two_voters(self):
        with pytest.raises(ValueError):
            reduce_profile(MAJ, Profile(2, (1,)))

    def test_a_table_is_read_from_its_dict(self, monkeypatch):
        # as the checkers read it; a subprofile past its voter bound is
        # evaluated, and raises as TabledFunction.evaluate does
        evaluated = []
        original = TabledFunction.evaluate
        monkeypatch.setattr(TabledFunction, "evaluate", lambda self, p: evaluated.append(p) or original(self, p))
        table = TabledFunction.from_rule(MAJ, 2, 3)
        assert reduce_profile(table, Profile(2, (2, 1, 1))).ballots == (1, 0, 0)
        assert evaluated == []
        with pytest.raises(ValueError) as err:
            reduce_profile(table, Profile(2, (1,) * 5))
        assert str(err.value) == "profile has 4 voters, table bound is 3"

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_the_per_voter_reduction(self, data):
        # sorted and ordered profiles, outcomes in and out of [0, m]: the same
        # profile or error text, and f on each subprofile once per run of
        # equal adjacent ones, in voter order
        m = data.draw(st.integers(2, 4))
        ballots = data.draw(st.lists(st.integers(0, m), min_size=2, max_size=7))
        if data.draw(st.booleans()):
            ballots.sort()
        p = Profile(m, tuple(ballots))
        outcomes = {}
        for l in range(p.n):
            sub = p.ballots[:l] + p.ballots[l + 1 :]
            if sub not in outcomes:
                outcomes[sub] = data.draw(st.integers(0, m) | st.sampled_from([-1, m + 1]))
        got, got_calls = _reduction_outcome(reduce_profile, outcomes, p)
        want, want_calls = _reduction_outcome(_per_voter_reduction, outcomes, p)
        assert got == want
        assert got_calls == [q for i, q in enumerate(want_calls) if i == 0 or q != want_calls[i - 1]]

    def test_an_out_of_range_outcome_raises_after_every_evaluation(self):
        # (1, 1, 2, 3) has the runs 1 1 | 2 | 3; the second and third outcomes
        # are out of range, and the first of them is named
        outcomes = {(1, 2, 3): 1, (1, 1, 3): 4, (1, 1, 2): -1}
        got, calls = _reduction_outcome(reduce_profile, outcomes, Profile(3, (1, 1, 2, 3)))
        assert got == ("ValueError", "ballot 4 outside [0, 3]")
        assert calls == [(1, 2, 3), (1, 1, 3), (1, 1, 2)]


# axioms._reduced and axioms._support as written before their range check
# and their abstention drop were rewritten, kept as their references.


def _reference_reduced(value, m, ballots):
    reduced = []
    outcomes = []
    l = 0
    for _, run in groupby(ballots):
        out = value(ballots[:l] + ballots[l + 1 :])
        outcomes.append(out)
        length = len(list(run))
        reduced += [out] * length
        l += length
    # outcomes are ballots only as ints: 1.5 lies in [0, m] but is no ballot
    if all(type(out) is int and 0 <= out <= m for out in outcomes):
        return tuple(reduced)
    return Profile(m, tuple(reduced)).ballots


def _reference_support(ballots):
    return tuple(sorted(set(ballots).difference((0,))))


def _helper_outcome(helper, *args):
    """A helper's result, or its error's type and text."""
    try:
        return helper(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def _drawn_ballots(data, m, min_size):
    ballots = data.draw(st.lists(st.integers(0, m), min_size=min_size, max_size=7))
    if data.draw(st.booleans()):
        ballots.sort()
    return tuple(ballots)


class TestRewrittenHelpers:
    @settings(max_examples=300)
    @given(st.data())
    def test_reduced_equals_its_reference(self, data):
        # sorted and unsorted ballots; a reader whose outcomes may lie
        # outside [0, m], or not be integers at all: the same ballots or
        # error, after the same reads
        m = data.draw(st.integers(2, 4))
        ballots = _drawn_ballots(data, m, 2)
        outcomes = {}
        for l in range(len(ballots)):
            sub = ballots[:l] + ballots[l + 1 :]
            if sub not in outcomes:
                outcomes[sub] = data.draw(st.integers(0, m) | st.sampled_from([-1, m + 1, None, 1.5]))
        results = []
        for reduced in (axioms._reduced, _reference_reduced):
            calls = []
            value = lambda b: calls.append(b) or outcomes[b]  # noqa: E731
            results.append((_helper_outcome(reduced, value, m, ballots), calls))
        assert results[0] == results[1]

    @settings(max_examples=300)
    @given(st.data())
    def test_support_equals_its_reference(self, data):
        m = data.draw(st.integers(2, 4))
        ballots = _drawn_ballots(data, m, 1)
        assert axioms._support(ballots) == _reference_support(ballots)


class TestAnonymity:
    def test_majority_passes(self):
        assert check_anonymity(MAJ, 3, 4).passed

    def test_unanimity_passes(self):
        assert check_anonymity(UC, 2, 3).passed

    def test_dictator_fails_with_replayable_witness(self):
        report = check_anonymity(DICTATOR, 2, 2)
        assert not report.passed
        assert replay_witness(DICTATOR, report)
        # the documented violating pair, confirmed by direct evaluation
        assert DICTATOR.evaluate(Profile(2, (1, 2))) == 1
        assert DICTATOR.evaluate(Profile(2, (2, 1))) == 2

    def test_witness_is_lexicographically_minimal(self):
        report = check_anonymity(DICTATOR, 2, 2)
        w = report.witness
        # first non-canonical profile where the dictator diverges from its class
        assert w.profile.ballots == (1, 0)
        assert w.related_profile.ballots == (0, 1)
        assert (w.actual, w.expected) == (1, 0)


class OrderedFunction:
    """A function given by an explicit outcome per *ordered* profile, so
    unlike a TabledFunction it may be anything but anonymous."""

    def __init__(self, table: dict[tuple[int, ...], int]):
        self.table = table

    def evaluate(self, p: Profile) -> int:
        return self.table[p.ballots]


def _two_evaluation_anonymity(f, m, n_max) -> AxiomReport:
    """Reference anonymity scan: every ordered profile that is not sorted is
    compared with its sorted member, evaluating f on both each time."""
    for n in range(1, n_max + 1):
        for ballots in product(range(m + 1), repeat=n):
            key = tuple(sorted(ballots))
            if key == ballots:
                continue
            p, c = Profile(m, ballots), Profile(m, key)
            actual = f.evaluate(p)
            expected = f.evaluate(c)
            if actual != expected:
                # stable sort: voter l moves to the rank of (ballot, l)
                order = sorted(range(n), key=lambda l: (ballots[l], l))
                image = [0] * n
                for rank, l in enumerate(order, start=1):
                    image[l] = rank
                w = Witness(
                    profile=p,
                    related_profile=c,
                    permutation=tuple(image),
                    actual=actual,
                    expected=expected,
                )
                return AxiomReport("A", m, n_max, False, w)
    return AxiomReport("A", m, n_max, True)


@st.composite
def ordered_functions(draw):
    """Random functions over ordered profiles, and anonymous ones with one
    ordered entry flipped."""
    m, n_max = draw(st.sampled_from([(2, 3), (3, 2), (3, 3)]))
    profiles = [b for n in range(1, n_max + 1) for b in product(range(m + 1), repeat=n)]
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, m), min_size=len(profiles), max_size=len(profiles)))
        return m, n_max, OrderedFunction(dict(zip(profiles, values)))
    classes = sorted({tuple(sorted(b)) for b in profiles})
    values = draw(st.lists(st.integers(0, m), min_size=len(classes), max_size=len(classes)))
    by_class = dict(zip(classes, values))
    table = {b: by_class[tuple(sorted(b))] for b in profiles}
    flipped = draw(st.sampled_from(profiles))
    table[flipped] = (table[flipped] + draw(st.integers(1, m))) % (m + 1)
    return m, n_max, OrderedFunction(table)


class TestAnonymityScan:
    @given(ordered_functions())
    def test_single_evaluation_scan_equals_two_evaluation_scan(self, case):
        m, n_max, f = case
        report = check_anonymity(f, m, n_max)
        assert report.to_dict() == _two_evaluation_anonymity(f, m, n_max).to_dict()
        if not report.passed:
            assert replay_witness(f, report)

    def test_evaluates_once_per_non_canonical_profile(self):
        calls = []
        counted = Rule("maj", lambda p: calls.append(p.ballots) or MAJ.evaluate(p))
        m, n_max = 3, 4
        check_anonymity(counted, m, n_max)
        # every ordered profile once, in stream order: each sorted member at
        # its own position, the classes with one ordering included
        ordered = [b for n in range(1, n_max + 1) for b in product(range(m + 1), repeat=n)]
        assert len(ordered) == 340
        assert calls == ordered
        # nothing is carried over to the next call
        check_anonymity(counted, m, n_max)
        assert calls == ordered * 2

    def test_incomplete_table_raises_for_the_same_entry(self):
        maj = TabledFunction.from_rule(MAJ, 2, 3)
        # the scan reads every ordered profile in stream order, so (1, 1),
        # the first missing class, is named at its only member; the
        # two-evaluation scan skips sorted profiles and first needs (1, 2)
        # at the profile (2, 1)
        table = {k: v for k, v in maj.table.items() if k not in ((1, 1), (1, 2))}
        t = TabledFunction(2, 3, table)
        with pytest.raises(IncompleteTableError) as reference:
            _two_evaluation_anonymity(t, 2, 3)
        with pytest.raises(IncompleteTableError) as err:
            check_anonymity(t, 2, 3)
        assert err.value.ballots == (1, 1)
        assert reference.value.ballots == (1, 2)
        # a sorted profile is read at its own position, before any other
        # member of its class: with (0, 1) and (1, 0) missing, (0, 1) is
        # named; the two-evaluation scan reads f(p) before f(sorted p)
        given = [b for n in (1, 2) for b in product(range(3), repeat=n)]
        partial = OrderedFunction({b: 0 for b in given if b not in ((0, 1), (1, 0))})
        for scan, named in ((_two_evaluation_anonymity, (1, 0)), (check_anonymity, (0, 1))):
            with pytest.raises(KeyError) as err:
                scan(partial, 2, 2)
            assert err.value.args == (named,)

    def test_a_table_is_read_from_its_dict(self, monkeypatch):
        # as in every other scan, a complete table is read, never evaluated;
        # one of fewer voters, or over another m, is evaluated and raises as
        # TabledFunction.evaluate does
        evaluated = []
        original = TabledFunction.evaluate
        monkeypatch.setattr(TabledFunction, "evaluate", lambda self, p: evaluated.append(p) or original(self, p))
        table = TabledFunction.from_rule(MAJ, 3, 4)
        assert all(r.passed for r in check_axioms(table, 3, 4, ["A", "N", "RS"]))
        assert evaluated == []
        with pytest.raises(ValueError) as err:
            check_anonymity(table, 3, 5)
        assert str(err.value) == "profile has 5 voters, table bound is 4"
        with pytest.raises(ValueError) as err:
            check_anonymity(TabledFunction.from_rule(MAJ, 2, 3), 3, 3)
        assert str(err.value) == "profile has m=3, table has m=2"

    def test_table_missing_only_single_member_classes_raises(self):
        # a class with one ordering is read too, at its only member
        maj = TabledFunction.from_rule(MAJ, 2, 2)
        t = TabledFunction(2, 2, {k: v for k, v in maj.table.items() if k != (1, 1)})
        with pytest.raises(IncompleteTableError) as err:
            check_anonymity(t, 2, 2)
        assert err.value.ballots == (1, 1)


# The A scan that found each profile's class by sorting its ballots, before
# the successor table replaced the sort, kept as the table's reference: f is
# read once at every ordered profile in stream order, a sorted profile's
# outcome is its class's, and every other profile is compared with it.


def _sorting_anonymity_witness(f, m, n_max, values):
    evaluate = f.evaluate
    for n in range(1, n_max + 1):
        for p in enumerate_profiles(m, n):
            key = tuple(sorted(p.ballots))
            actual = evaluate(p)
            if key == p.ballots:
                values[key] = actual
                continue
            expected = values[key]
            if actual != expected:
                return Witness(
                    profile=p,
                    related_profile=Profile(m, key),
                    permutation=axioms._sorting_permutation(p),
                    actual=actual,
                    expected=expected,
                )
    return None


class Raising:
    """``f`` that raises on one profile, the ``drawn`` ballots."""

    def __init__(self, f, drawn: tuple[int, ...]):
        self.f, self.drawn = f, drawn

    def evaluate(self, p: Profile) -> int:
        if p.ballots == self.drawn:
            raise RuntimeError(f"drawn profile {p.ballots}")
        return self.f.evaluate(p)


@st.composite
def scan_cases(draw):
    """A scope with m = 2..4, n_max = 1..4, and a function on it: a random
    complete table behind a Rule, a random ordered table (anonymous but for
    a few flipped entries, or random throughout), "last", or one of these
    that raises on a drawn profile."""
    m, n_max = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["table", "ordered", "flipped", "last"]))
    if kind == "last":
        f = LAST
    else:
        classes = [c for n in range(1, n_max + 1) for c in combinations_with_replacement(range(m + 1), n)]
        by_class = {c: rnd.randint(0, m) for c in classes}
        if kind == "table":
            f = Rule("drawn", TabledFunction(m, n_max, by_class).evaluate)
        else:
            profiles = [b for n in range(1, n_max + 1) for b in product(range(m + 1), repeat=n)]
            if kind == "ordered":
                f = OrderedFunction({b: rnd.randint(0, m) for b in profiles})
            else:
                table = {b: by_class[tuple(sorted(b))] for b in profiles}
                for b in rnd.sample(profiles, min(len(profiles), draw(st.integers(1, 3)))):
                    table[b] = (table[b] + rnd.randint(1, m)) % (m + 1)
                f = OrderedFunction(table)
    if draw(st.booleans()):
        n = draw(st.integers(1, n_max))
        f = Raising(f, tuple(rnd.randint(0, m) for _ in range(n)))
    return m, n_max, f


def _scan_outcome(scan, f, m, n_max):
    """What ``scan`` observably does with f: its witness or raised error,
    the class values it leaves, and the profiles f is evaluated on."""
    calls = []
    recorded = Rule("recorded", lambda p: calls.append(p.ballots) or f.evaluate(p))
    values = {}
    try:
        result = scan(recorded, m, n_max, values)
    except RuntimeError as exc:
        result = (type(exc).__name__, str(exc))
    return result, values, calls


class TestClassIdScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_equals_the_sorting_scan(self, case):
        m, n_max, f = case
        got = _scan_outcome(axioms._anonymity_witness, f, m, n_max)
        assert got == _scan_outcome(_sorting_anonymity_witness, f, m, n_max)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 12, 40])
    def test_ids_are_the_sorted_classes(self, m):
        # every level with at most 5,000 ordered profiles: at m = 12 and 40,
        # (12, 3) and (40, 2), each class code has m + 1 digits
        n_max = max(n for n in range(1, 10) if (m + 1) ** n <= 5_000)
        levels = list(axioms._class_ids(m, n_max))
        assert len(levels) == n_max
        for n, (keys, ids) in enumerate(levels, start=1):
            assert keys == list(combinations_with_replacement(range(m + 1), n))
            index = {key: i for i, key in enumerate(keys)}
            ordered = list(product(range(m + 1), repeat=n))
            assert ids == [index[tuple(sorted(t))] for t in ordered]
            # each class is first met at its sorted member
            first = {}
            for t, i in zip(ordered, ids):
                first.setdefault(i, t)
            assert first == dict(enumerate(keys))


def _drawn_ordered(m, n_max, flip_last):
    """A seeded non-anonymous function over ordered profiles: random
    throughout, or majority but for the last unsorted profile of n_max
    voters, so the scan runs to the end."""
    rnd = random.Random(m * 100 + n_max)
    profiles = [b for n in range(1, n_max + 1) for b in product(range(m + 1), repeat=n)]
    if not flip_last:
        return OrderedFunction({b: rnd.randint(0, m) for b in profiles})
    table = {b: MAJ.evaluate(Profile(m, b)) for b in profiles}
    last = max(b for b in profiles if len(b) == n_max and list(b) != sorted(b))
    table[last] = (table[last] + 1) % (m + 1)
    return OrderedFunction(table)


_MASK_SCOPES = [(2, 5), (3, 4), (4, 3)]
_MASK_RULES = ["maj", "uc", "lex", "zero", "dict1", "last", "drawn", "flipped"]


def _mask_rule(name, m, n_max):
    named = {**RULES, "dict1": DICTATOR, "last": LAST}
    if name in named:
        return named[name]
    return _drawn_ordered(m, n_max, flip_last=name == "flipped")


# The A scan against the sorting scan, which finds each class by sorting
# and reads f without the scan's readers.  The class name keeps the masked
# scan's name, and the test names the seen-test scan's, the references they
# were written against.


class TestMaskedAnonymityScan:
    @pytest.mark.parametrize("m,n_max", _MASK_SCOPES)
    @pytest.mark.parametrize("name", _MASK_RULES)
    def test_equals_the_seen_scan(self, name, m, n_max):
        # the same witness and class values, with f read at the same
        # ballots in the same order
        f = _mask_rule(name, m, n_max)
        got = _scan_outcome(axioms._anonymity_witness, f, m, n_max)
        assert got == _scan_outcome(_sorting_anonymity_witness, f, m, n_max)
        assert got[2], "f is read"

    @pytest.mark.parametrize("m,n_max", _MASK_SCOPES)
    @pytest.mark.parametrize("name", _MASK_RULES)
    def test_raises_where_the_seen_scan_does(self, name, m, n_max):
        # f raises partway: at an unsorted profile of the top level, and at
        # a sorted one, each read at its own position
        f = _mask_rule(name, m, n_max)
        unsorted = [t for t in product(range(m + 1), repeat=n_max) if list(t) != sorted(t)]
        middle = unsorted[len(unsorted) // 2]
        for drawn in (middle, tuple(sorted(middle))):
            raising = Raising(f, drawn)
            got = _scan_outcome(axioms._anonymity_witness, raising, m, n_max)
            assert got == _scan_outcome(_sorting_anonymity_witness, raising, m, n_max)
            if name in RULES:  # anonymous, so the scan reaches the drawn profile
                assert got[0] == ("RuntimeError", f"drawn profile {drawn}")


class TestNeutrality:
    def test_lex_fails_with_swap_witness(self):
        report = check_neutrality(LEX, 2, 2)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (1, 2)
        assert w.permutation == (2, 1)
        assert (w.actual, w.expected) == (1, 2)
        assert replay_witness(LEX, report)

    def test_majority_and_zero_pass(self):
        assert check_neutrality(MAJ, 3, 3).passed
        assert check_neutrality(ZERO, 4, 2).passed

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [1.0, True])
    def test_rejects_an_outcome_that_is_not_an_int(self, m, bad):
        # True indexes a relabeling's lookup as 1 and 1.0 not at all: each
        # is refused before it is relabeled, so once N passes every
        # outcome is a ballot, as the orbit scans after it assume
        with pytest.raises(ValueError) as err:
            check_neutrality(Rule("bad", lambda p: bad), m, 2)
        assert str(err.value) == f"outcome {bad!r} is not an int"

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [-1, "m+1"])
    def test_rejects_an_outcome_no_relabeling_maps(self, m, bad):
        # -1 would index a relabeling's lookup from the end, so without the
        # range check (0,) failed N under the identity with expected 2 at
        # m = 3 (under the swap at m = 2), and the replay confirmed it
        out = m + 1 if bad == "m+1" else bad
        f = Rule("bad", lambda p: out)
        with pytest.raises(ValueError) as err:
            check_neutrality(f, m, 2)
        assert str(err.value) == f"outcome {out} outside [0, {m}]"
        for image in permutations(range(1, m + 1)):
            for expected in range(m + 1):
                w = Witness(Profile(m, (0,)), out, expected, Profile(m, (0,)), permutation=image)
                assert replay_witness(f, AxiomReport("N", m, 2, False, w)) is False


class TestDuelProperty:
    def test_majority_and_unanimity_pass(self):
        assert check_duel_property(MAJ, 3, 4).passed
        assert check_duel_property(UC, 3, 3).passed

    def test_third_party_rule_fails_on_first_duel(self):
        report = check_duel_property(THIRD_PARTY, 3, 2)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (1, 2)
        assert w.pair == (1, 2)
        assert w.actual == 3
        assert replay_witness(THIRD_PARTY, report)

    def test_m2_duels_never_constrain(self):
        # with two candidates every outcome belongs to the only pair
        assert check_duel_property(LEX, 2, 3).passed
        assert check_duel_property(DICTATOR, 2, 2).passed

    @settings(max_examples=200)
    @given(st.data())
    def test_reports_equal_the_full_pair_scan(self, data):
        # near-majority and random tables: the same pass or first pair
        m, n_max = data.draw(st.sampled_from([(3, 3), (4, 2)]))
        table = dict(TabledFunction.from_rule(MAJ, m, n_max).table)
        cells = sorted(table, key=lambda k: (len(k), k))
        changed = cells if data.draw(st.integers(0, 3)) == 0 else data.draw(
            st.lists(st.sampled_from(cells), max_size=3, unique=True)
        )
        for key in changed:
            table[key] = data.draw(st.integers(0, m))
        f = TabledFunction(m, n_max, table)
        assert check_duel_property(f, m, n_max).to_dict() == _full_pair_scan(f, m, n_max).to_dict()


def _full_pair_scan(f, m: int, n_max: int) -> AxiomReport:
    """DP as scanned before the early return: on each class with at most two
    supported candidates, every pair holding the support, in order."""
    for n in range(1, n_max + 1):
        for p in enumerate_profiles(m, n, canonical_only=True):
            support = set(tally(p).support())
            if len(support) > 2:
                continue
            out = f.evaluate(p)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    if support <= {i, j} and out not in (0, i, j):
                        w = Witness(profile=p, pair=(i, j), actual=out, note="outcome outside {0, i, j}")
                        return AxiomReport("DP", m, n_max, False, w)
    return AxiomReport("DP", m, n_max, True)


class TestPareto:
    def test_zero_fails_on_single_vote(self):
        report = check_pareto(ZERO, 2, 1)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (1,)
        assert (w.candidate, w.expected, w.actual) == (1, 1, 0)
        assert replay_witness(ZERO, report)

    def test_majority_and_lex_pass(self):
        assert check_pareto(MAJ, 3, 4).passed
        assert check_pareto(LEX, 3, 3).passed


class TestReducibility:
    def test_uc_fails_with_paper_exact_witness(self):
        report = check_rs(UC, 2, 3)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (1, 1, 2)
        assert w.actual == 0
        assert w.related_profile.ballots == (0, 0, 1)
        assert w.expected == 1
        assert replay_witness(UC, report)

    def test_failure_is_monotone_in_scope(self):
        assert not check_rs(UC, 2, 3).passed
        assert not check_rs(UC, 2, 4).passed

    def test_lex_passes(self):
        assert check_rs(LEX, 2, 3).passed

    @pytest.mark.parametrize("bad", [-1, 1.0, True])
    def test_a_subsociety_outcome_that_is_no_ballot_raises(self, bad):
        # 1.0 and True are members of range(3) but no ballots: they raise
        # as -1 does, where a reduced profile holding them was reported
        f = Rule("bad", lambda p: bad if p.n == 1 else p.ballots.count(0))
        with pytest.raises(ValueError) as err:
            check_axioms(f, 2, 2, ["RS"])
        reason = "outside [0, 2]" if bad == -1 else "is not an int"
        assert str(err.value) == f"ballot {bad!r} {reason}"

    def test_majority_passes_against_independent_oracle(self):
        # independent re-derivation with inline counting, no library calls
        m, n_max = 3, 4

        def maj_local(ballots):
            counts = [ballots.count(k) for k in range(1, m + 1)]
            top = max(counts)
            if top > 0 and counts.count(top) == 1:
                return counts.index(top) + 1
            return 0

        violations = []
        for n in range(2, n_max + 1):
            for ballots in product(range(m + 1), repeat=n):
                reduced = tuple(
                    maj_local(ballots[:l] + ballots[l + 1 :]) for l in range(n)
                )
                if maj_local(ballots) != maj_local(reduced):
                    violations.append(ballots)
        assert violations == []
        assert check_rs(MAJ, m, n_max).passed


class TestPositiveResponsiveness:
    def test_majority_passes_small_scope_against_oracle(self):
        # oracle: scan every single-ballot upgrade by hand at m=2, n <= 3
        m, n_max = 2, 3

        def maj_local(ballots):
            ones, twos = ballots.count(1), ballots.count(2)
            return 1 if ones > twos else 2 if twos > ones else 0

        for n in range(1, n_max + 1):
            for ballots in product(range(m + 1), repeat=n):
                before = maj_local(ballots)
                for k in (1, 2):
                    if before not in (0, k):
                        continue
                    for l in range(n):
                        if ballots[l] == k:
                            continue
                        after = maj_local(ballots[:l] + (k,) + ballots[l + 1 :])
                        assert after == k, (ballots, k, l)
        assert check_positive_responsiveness(MAJ, 2, 3).passed

    def test_majority_passes_every_acceptance_scope(self):
        for m, n_max in [(2, 5), (3, 4), (4, 3)]:
            assert check_positive_responsiveness(MAJ, m, n_max).passed

    def test_majority_fails_the_literal_tie_clause_beyond_two_candidates(self):
        # a vote for an uninvolved outsider cannot crown them, so the
        # unconditional tie-upgrade reading rejects majority rule
        report = check_positive_responsiveness(MAJ, 3, 2, tie_upgrade="always")
        assert not report.passed
        assert report.witness.profile.ballots == (1, 2)
        assert report.witness.candidate == 3
        assert replay_witness(MAJ, report)

    def test_uc_coincides_with_majority_up_to_two_voters(self):
        # no axiom relating equal-sized profiles can split them at n_max = 2
        assert check_positive_responsiveness(UC, 2, 2).passed

    def test_uc_fails_at_three_voters(self):
        report = check_positive_responsiveness(UC, 2, 3)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (0, 1, 2)
        assert (w.candidate, w.voter) == (1, 1)
        assert w.related_profile.ballots == (1, 1, 2)
        assert (w.expected, w.actual) == (1, 0)
        assert replay_witness(UC, report)

    def test_zero_cannot_respond(self):
        report = check_positive_responsiveness(ZERO, 2, 2)
        assert not report.passed
        assert report.witness.profile.ballots == (0,)
        assert replay_witness(ZERO, report)
        # the documented two-voter configuration is also a genuine violation
        assert ZERO.evaluate(Profile(2, (1, 0))) == 0
        assert ZERO.evaluate(Profile(2, (1, 1))) == 0  # never becomes 1

    def test_wins_only_mode_ignores_ties(self):
        assert check_positive_responsiveness(ZERO, 2, 3, tie_upgrade="wins").passed

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            check_positive_responsiveness(MAJ, 2, 2, tie_upgrade="sometimes")

    @pytest.mark.parametrize("outcome", [3, -1])
    def test_rejects_an_outcome_that_cannot_be_a_ballot(self, outcome):
        # a winning outcome is written into the upgraded profile as a ballot
        with pytest.raises(ValueError):
            check_positive_responsiveness(Rule("bad", lambda p: outcome), 2, 2)


class TestNoTiedWinner:
    def test_majority_never_crowns_tied_candidates(self):
        assert check_no_tied_winner(MAJ, 3, 4).passed
        assert MAJ.evaluate(Profile(2, (1, 2))) == 0

    def test_lex_shows_the_hypotheses_matter(self):
        # lex is anonymous but not neutral, and crowns a tied candidate
        report = check_no_tied_winner(LEX, 2, 2)
        assert not report.passed
        w = report.witness
        assert w.profile.ballots == (1, 2)
        assert w.pair == (1, 2)
        assert w.actual == 1
        assert replay_witness(LEX, report)


def _majority_with(one):
    """Majority rule at m = 2, but returning ``one`` where candidate 1 wins."""

    def fn(p):
        ones, twos = p.ballots.count(1), p.ballots.count(2)
        return one if ones > twos else 2 if twos > ones else 0

    return Rule(f"maj-{one!r}", fn)


class TestOutcomesAreBallots:
    # every scan but A's reads f's outcome at the profile it checks as a
    # ballot; DP, PO, PR and NTW compared it by value, so 1.0 and True
    # passed for 1

    @pytest.mark.parametrize("axiom", ["N", "DP", "PO", "RS", "PR", "NTW"])
    def test_a_float_outcome_raises_in_every_scan_but_a(self, axiom):
        with pytest.raises(ValueError) as err:
            check_axioms(_majority_with(1.0), 2, 3, [axiom])
        assert str(err.value) == "outcome 1.0 is not an int"

    def test_a_bool_outcome_raises_in_pr(self):
        with pytest.raises(ValueError) as err:
            check_positive_responsiveness(_majority_with(True), 2, 3)
        assert str(err.value) == "outcome True is not an int"

    def test_a_float_outcome_passes_a(self):
        # A only compares outcomes, and majority with 1.0 is anonymous
        assert check_anonymity(_majority_with(1.0), 2, 3).passed

    def test_an_rs_left_side_outside_the_range_raises(self):
        # -1 on every profile of two voters or more: the left side equals
        # f at the reduced profile (0, 0), so the scan passed
        f = Rule("minus-one", lambda p: -1 if p.n > 1 else 0)
        with pytest.raises(ValueError) as err:
            check_rs(f, 2, 2)
        assert str(err.value) == "outcome -1 outside [0, 2]"

    def test_relabelings_are_built_per_call(self):
        # no cache outlives a call: each scan builds its own relabelings
        assert axioms._relabeling_lookups(3) == axioms._relabeling_lookups(3)
        assert axioms._relabeling_lookups(3) is not axioms._relabeling_lookups(3)
        assert axioms._generators(3) is not axioms._generators(3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_relabeling_lookups_are_those_of_the_permutations(self, m):
        # built from the images alone, in the order of the relabelings the
        # reference scan applies
        assert axioms._relabeling_lookups(m) == [(0, *tau) for tau in _relabelings(m)]

    def test_lex_rescan_at_eight_candidates(self):
        # the 8! relabelings' rescan keeps the swap's witness
        report = check_neutrality(LEX, 8, 2)
        w = report.witness
        assert (w.profile.ballots, w.permutation, w.actual, w.expected) == ((1, 2), (2, 1, 3, 4, 5, 6, 7, 8), 1, 2)
        assert replay_witness(LEX, report)


MAJ_2X2 = TabledFunction.from_rule(MAJ, 2, 2)

# forged witnesses: a pair that is not two candidates i < j, an upgrade by
# no voter of the profile or to no candidate
_FORGED = {
    # (1, 1) holds the support of (1), and the outcome 2 lies outside {0, 1};
    # at m = 2 the one duel pair holds every outcome, so this rule passes DP
    "DP-equal-pair": (Rule("two", lambda p: 2), "DP", Witness(Profile(2, (1,)), actual=2, pair=(1, 1))),
    "DP-reversed-pair": (THIRD_PARTY, "DP", Witness(Profile(3, (1, 2)), actual=3, pair=(2, 1))),
    # voter 0 would read the last ballot, and upgrade (1) to (2, 1)
    "PR-voter-0": (
        ZERO,
        "PR",
        Witness(Profile(2, (1,)), 0, 2, Profile(2, (2, 1)), candidate=2, voter=0, note="pr:tie:always"),
    ),
    "PR-voter-past-n": (ZERO, "PR", Witness(Profile(2, (1,)), 0, 2, Profile(2, (2,)), candidate=2, voter=2)),
    "PR-candidate-past-m": (ZERO, "PR", Witness(Profile(2, (1,)), 0, 3, Profile(2, (2,)), candidate=3, voter=1)),
    "NTW-pair-past-m": (LEX, "NTW", Witness(Profile(2, (1, 2)), actual=1, pair=(1, 5))),
    "NTW-reversed-pair": (LEX, "NTW", Witness(Profile(2, (1, 2)), actual=1, pair=(2, 1))),
    # malformed witnesses, each a real violation but for the one bad field
    "A-permutation-too-long": (
        DICTATOR,
        "A",
        Witness(Profile(2, (1, 2)), 1, 2, Profile(2, (2, 1)), permutation=(2, 1, 3)),
    ),
    "N-not-a-permutation": (LEX, "N", Witness(Profile(2, (1, 2)), 1, 2, Profile(2, (2, 1)), permutation=(2, 2))),
    "RS-one-voter": (UC, "RS", Witness(Profile(2, (1,)), 1, 0, Profile(2, (0,)))),
    # f's outcome on a voter-deleted subprofile is no ballot, so the reduced
    # profile does not exist; reduce_profile raises there
    "RS-reduced-outcome-minus-one": (
        Rule("minus-one", lambda p: -1 if p.n == 1 else 1),
        "RS",
        Witness(Profile(2, (1, 2)), 1, 0, Profile(2, (0, 0))),
    ),
    "RS-reduced-outcome-none": (
        Rule("none", lambda p: None if p.n == 1 else 1),
        "RS",
        Witness(Profile(2, (1, 2)), 1, 0, Profile(2, (0, 0))),
    ),
    "DP-no-pair": (THIRD_PARTY, "DP", Witness(Profile(3, (1, 2)), actual=3)),
    "NTW-no-pair": (LEX, "NTW", Witness(Profile(2, (1, 2)), actual=1)),
    "PR-no-voter": (ZERO, "PR", Witness(Profile(2, (1,)), 0, 2, Profile(2, (2,)), candidate=2, note="pr:tie:always")),
    "PR-no-candidate": (ZERO, "PR", Witness(Profile(2, (1,)), 0, 2, Profile(2, (2,)), voter=1, note="pr:tie:always")),
    # three voters in a report with n_max = 2: majority's table raises past
    # its voter bound, and zero's PO violation at (1, 1, 1) is genuine
    "PO-past-n-max-table": (MAJ_2X2, "PO", Witness(Profile(2, (1, 1, 1)), 0, 1, candidate=1)),
    "DP-past-n-max-table": (MAJ_2X2, "DP", Witness(Profile(2, (1, 1, 1)), actual=0, pair=(1, 2))),
    "RS-past-n-max-table": (MAJ_2X2, "RS", Witness(Profile(2, (1, 1, 1)), 1, 0, Profile(2, (1, 1, 1)))),
    "PO-past-n-max-zero": (ZERO, "PO", Witness(Profile(2, (1, 1, 1)), 0, 1, candidate=1)),
    # fields that are not ints: None in a pair, floats where the witness
    # names voters or candidates; the last two were replayed as genuine
    "DP-pair-with-none": (THIRD_PARTY, "DP", Witness(Profile(3, (1, 2)), actual=3, pair=(None, 2))),
    "NTW-pair-with-none": (LEX, "NTW", Witness(Profile(2, (1, 2)), actual=1, pair=(1, None))),
    "A-float-permutation": (
        DICTATOR,
        "A",
        Witness(Profile(2, (1, 2)), 1, 2, Profile(2, (2, 1)), permutation=(2.0, 1.0)),
    ),
    "PR-float-voter": (
        ZERO,
        "PR",
        Witness(Profile(2, (1,)), 0, 2, Profile(2, (2,)), candidate=2, voter=1.0, note="pr:tie:always"),
    ),
    "PR-float-candidate": (
        ZERO,
        "PR",
        Witness(Profile(2, (1,)), 0, 2, Profile(2, (2,)), candidate=2.0, voter=1, note="pr:tie:always"),
    ),
    "PO-float-candidate": (ZERO, "PO", Witness(Profile(2, (1,)), 0, 1, candidate=1.0)),
    # recorded outcomes equal to f's but of another type: 0.0 is not 0 and
    # True is not 1; each was replayed as genuine
    "PO-float-outcomes": (ZERO, "PO", Witness(Profile(2, (1,)), actual=0.0, expected=1.0, candidate=1)),
    "N-bool-outcome": (LEX, "N", Witness(Profile(2, (1, 2)), True, 2, Profile(2, (2, 1)), permutation=(2, 1))),
    "A-bool-outcome": (DICTATOR, "A", Witness(Profile(2, (1, 0)), True, 0, Profile(2, (0, 1)), permutation=(2, 1))),
    "RS-float-outcome": (DICTATOR, "RS", Witness(Profile(2, (1, 2)), 1, 2.0, Profile(2, (2, 1)))),
    # f's outcome True at (1, 2) is no ballot, though the swap's lookup maps
    # it as candidate 1; N raises there, and this witness was replayed
    "N-bool-profile-outcome": (
        Rule("true-at-1-2", lambda p: True if p.ballots == (1, 2) else 1),
        "N",
        Witness(Profile(2, (1, 2)), 1, 2, Profile(2, (2, 1)), permutation=(2, 1)),
    ),
    # f's outcome 1.0 on one voter is no ballot, though 1.0 in range(3): RS
    # scans reported this witness, with a reduced profile no constructor
    # admits, and its replay confirmed it
    "RS-float-subsociety": (
        Rule("float-subsociety", lambda p: 1.0 if p.n == 1 else p.ballots.count(0)),
        "RS",
        Witness(Profile(2, (0, 0)), 2, 0, Profile._trusted(2, (1.0, 1.0))),
    ),
    # f's outcome at the witness profile is no ballot, so the scans raise
    # there; each recorded outcome matches f's, and each was replayed
    "NTW-float-profile-outcome": (
        Rule("float-at-1-2", lambda p: 1.0 if p.ballots == (1, 2) else 0),
        "NTW",
        Witness(Profile(2, (1, 2)), actual=1.0, pair=(1, 2), note="tied pair won"),
    ),
    "PO-float-profile-outcome": (
        Rule("zero-float", lambda p: 0.0),
        "PO",
        Witness(Profile(2, (1,)), actual=0.0, expected=1, candidate=1),
    ),
    "DP-float-profile-outcome": (
        Rule("three-float", lambda p: 3.0),
        "DP",
        Witness(Profile(3, (1, 2)), actual=3.0, pair=(1, 2), note="outcome outside {0, i, j}"),
    ),
    "PR-bool-profile-outcome": (
        Rule("true-at-2", lambda p: True if p.ballots == (2,) else 0),
        "PR",
        Witness(Profile(2, (2,)), 0, 1, Profile(2, (1,)), candidate=1, voter=1, note="pr:win"),
    ),
    # zero's PR witness at (0), under a tie mode no scan runs
    "PR-unknown-tie-mode": (
        ZERO,
        "PR",
        Witness(Profile(2, (0,)), 0, 1, Profile(2, (1,)), candidate=1, voter=1, note="pr:tie:sometimes"),
    ),
    # a profile no constructor admits, though zero fails PO at (1)
    "PO-float-profile": (ZERO, "PO", Witness(Profile._trusted(2, (1.0,)), 0, 1.0, candidate=1.0)),
    # True sorts as candidate 1, so (2, True) lists 1..2 once each; it
    # relabels (1, 2) to (2, True), where lex's outcome is True, and this
    # witness is what N's per-profile code builds under that lookup
    "N-bool-permutation": (
        LEX,
        "N",
        Witness(Profile(2, (1, 2)), True, 2, Profile._trusted(2, (2, True)), permutation=(2, True)),
    ),
}

# any value a witness field may hold: ints out of range, None, floats, and
# tuples of any length
_FIELDS = st.one_of(
    st.none(),
    st.integers(-2, 6),
    st.floats(),
    st.lists(st.one_of(st.none(), st.integers(-2, 6), st.floats()), max_size=4).map(tuple),
)


@st.composite
def untrusted_reports(draw):
    """A failing report for any of the seven axioms at a scope (m, n_max),
    whose witness profiles are over m or another candidate count with 1 to
    n_max + 1 voters, and whose other fields are drawn from ``_FIELDS``."""
    m, n_max = draw(st.integers(2, 3)), draw(st.integers(1, 3))

    def profile():
        size = draw(st.sampled_from([m, m + 1]))
        return Profile(size, tuple(draw(st.lists(st.integers(0, size), min_size=1, max_size=n_max + 1))))

    witness = Witness(
        profile(),
        actual=draw(_FIELDS),
        expected=draw(_FIELDS),
        related_profile=draw(st.sampled_from([None, profile()])),
        permutation=draw(_FIELDS),
        pair=draw(_FIELDS),
        candidate=draw(_FIELDS),
        voter=draw(_FIELDS),
        note=draw(st.sampled_from(["", "pr:win", "pr:tie:always", "pr:tie:leaders"])),
    )
    return AxiomReport(draw(st.sampled_from(AXIOM_IDS)), m, n_max, False, witness)


@functools.cache
def _failing_reports():
    """A genuine failing report of each axiom, with the function it fails."""
    return [
        (DICTATOR, check_anonymity(DICTATOR, 2, 2)),
        (LEX, check_neutrality(LEX, 3, 3)),
        (THIRD_PARTY, check_duel_property(THIRD_PARTY, 3, 2)),
        (ZERO, check_pareto(ZERO, 3, 2)),
        (UC, check_rs(UC, 3, 3)),
        (UC, check_positive_responsiveness(UC, 2, 3)),
        (ZERO, check_positive_responsiveness(ZERO, 3, 2, tie_upgrade="always")),
        (LEX, check_no_tied_winner(LEX, 2, 2)),
    ]


# a candidate wins only as the one voter who votes: a second vote for the
# winner makes a tie, so it fails PR even in the wins-only mode
LONE = Rule("lone", lambda p: max(p.ballots) if p.ballots.count(0) == p.n - 1 else 0)


@functools.cache
def _pr_reports():
    """A genuine failing PR report in each tie mode."""
    cases = [(UC, 2, 3, "leaders"), (ZERO, 3, 2, "always"), (LONE, 2, 2, "wins")]
    return [(f, check_positive_responsiveness(f, m, n_max, mode)) for f, m, n_max, mode in cases]


# every witness field but the profile, at which the replay reruns the scan
_CHANGED_FIELDS = [field.name for field in dataclasses.fields(Witness) if field.name != "profile"]
_NOTES = ["", "pr:win", "pr:tie:always", "pr:tie:leaders", "pr:tie:wins", "tied pair won", "outcome outside {0, i, j}"]


def _retyped(value, data):
    """``value`` with an int, or one int item of a tuple or a profile's
    ballots, replaced by the equal float or bool."""
    if isinstance(value, Profile):
        return Profile._trusted(value.m, _retyped(value.ballots, data))
    if isinstance(value, tuple):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + (_retyped(value[i], data),) + value[i + 1 :]
    if type(value) is int:
        return data.draw(st.sampled_from([float(value), *([bool(value)] if value in (0, 1) else [])]))
    return value


def _reshaped(value, data):
    """A tuple, or a profile's ballots, permuted or lengthened by one item."""
    if isinstance(value, Profile):
        return Profile._trusted(value.m, _reshaped(value.ballots, data))
    if isinstance(value, tuple):
        if data.draw(st.booleans()):
            return tuple(data.draw(st.permutations(value)))
        return value + (data.draw(st.integers(0, 3)),)
    return value


@functools.cache
def _majority_table(m, n_max):
    return TabledFunction.from_rule(MAJ, m, n_max)


class TestCheckerInfrastructure:
    def test_scope_validation(self):
        with pytest.raises(ValueError):
            check_anonymity(MAJ, 1, 2)
        with pytest.raises(ValueError):
            check_neutrality(MAJ, 2, 0)
        with pytest.raises(ValueError):
            check_rs(MAJ, 2, 1)

    def test_scope_must_be_ints(self):
        # 3.0 reached range() and raised a bare TypeError
        with pytest.raises(ValueError) as err:
            check_axioms(MAJ, 3.0, 3, ["N"])
        assert str(err.value) == "candidate count 3.0 is not an int"

    def test_a_report_refuses_an_unknown_axiom_and_a_witness_that_disagrees(self):
        witness = check_rs(UC, 2, 3).witness
        with pytest.raises(ValueError) as err:
            AxiomReport("X", 2, 3, True)
        assert str(err.value) == "unknown axiom id 'X'"
        for passed, w in [(True, witness), (False, None)]:
            with pytest.raises(ValueError) as err:
                AxiomReport("RS", 2, 3, passed, w)
            assert str(err.value) == "a report fails exactly when it carries a witness"

    def test_reports_serialize_with_profiles_in_text_format(self):
        report = check_rs(UC, 2, 3)
        doc = report.to_dict()
        assert doc["axiom"] == "RS"
        assert doc["pass"] is False
        assert doc["witness"]["profile"] == "2 3\n1 1 2\n"
        assert doc["witness"]["related_profile"] == "2 3\n0 0 1\n"

    def test_replay_rejects_passing_reports(self):
        assert not replay_witness(MAJ, check_rs(MAJ, 2, 2))

    @pytest.mark.parametrize("name", list(_FORGED))
    def test_replay_rejects_forged_witnesses(self, name):
        f, axiom, witness = _FORGED[name]
        assert replay_witness(f, AxiomReport(axiom, witness.profile.m, 2, False, witness)) is False

    @settings(max_examples=400, deadline=None)
    @given(report=untrusted_reports())
    def test_replay_never_raises(self, report):
        # a witness read from a file is untrusted input: whatever its fields
        # hold, replaying it gives a verdict, not an error
        for f in [*RULES.values(), _majority_table(report.m, report.n_max)]:
            assert type(replay_witness(f, report)) is bool

    @pytest.mark.parametrize(
        "witness",
        [
            Witness(profile=(1, 2), actual=1, expected=2, permutation=(2, 1)),
            Witness(profile=None, actual=1, expected=2, permutation=(2, 1)),
            Witness(profile="2 2\n1 2\n", actual=1, expected=2, permutation=(2, 1)),
            "x",
        ],
        ids=["tuple profile", "no profile", "text profile", "no witness"],
    )
    def test_replay_rejects_a_witness_of_another_type(self, witness):
        # lex fails N at (1, 2) under the swap; a witness that is not a
        # Witness, or whose profile is not a Profile, raised AttributeError
        assert replay_witness(LEX, AxiomReport("N", 2, 2, False, witness)) is False

    def test_replay_rejects_a_witness_over_another_m(self):
        # lex's genuine N witness at m = 3, in a report at m = 2
        report = check_neutrality(LEX, 3, 2)
        assert replay_witness(LEX, report)
        assert replay_witness(LEX, AxiomReport("N", 2, 2, False, report.witness)) is False

    def test_every_failing_report_replays(self):
        for f, report in _failing_reports():
            assert not report.passed
            assert replay_witness(f, report), report

    def test_the_pr_reports_cover_every_tie_mode(self):
        notes = {report.witness.note for _, report in _pr_reports()}
        assert notes == {"pr:win", "pr:tie:always", "pr:tie:leaders"}

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_a_changed_field_replays_only_unchanged(self, data):
        # each field of a genuine witness is compared in type as well as
        # value, so any change but to an identical value replays False
        f, report = data.draw(st.sampled_from(_failing_reports() + _pr_reports()))
        w = report.witness
        name = data.draw(st.sampled_from(_CHANGED_FIELDS))
        old = getattr(w, name)
        kind = data.draw(st.sampled_from(["int", "retyped", "none", "reshaped", "note"]))
        if kind == "int":
            new = data.draw(st.integers(-2, 6))
        elif kind == "retyped":
            new = _retyped(old, data)
        elif kind == "reshaped":
            new = _reshaped(old, data)
        elif kind == "note":
            new = data.draw(st.sampled_from(_NOTES))
        else:
            new = None
        changed = dataclasses.replace(w, **{name: new})
        replayed = replay_witness(f, AxiomReport(report.axiom, report.m, report.n_max, False, changed))
        # repr tells True and 1.0 from 1, in tuples and profiles too
        genuine = repr(changed) == repr(w)
        if report.axiom == "PR" and new in ("pr:tie:always", "pr:tie:leaders"):
            # the other tie mode's scan may meet the same upgrade first
            other = _profile_responsiveness(f, w.profile, new.removeprefix("pr:tie:"))
            genuine = genuine or repr(other) == repr(changed)
        assert replayed is genuine


class TestReplayRerunsTheScan:
    # a replay rebuilds the witness with the scan's per-profile code, so a
    # genuine violation recorded otherwise than the scan records it is False

    def test_a_dp_witness_under_another_pair_is_false(self):
        three = Rule("three", lambda p: 3)
        scans = Witness(Profile(4, (1,)), actual=3, pair=(1, 2), note="outcome outside {0, i, j}")
        assert replay_witness(three, AxiomReport("DP", 4, 2, False, scans))
        # (1, 4) also holds the support of (1), and 3 lies outside {0, 1, 4}
        other = dataclasses.replace(scans, pair=(1, 4))
        assert replay_witness(three, AxiomReport("DP", 4, 2, False, other)) is False

    def test_a_pr_witness_at_an_upgrade_the_scan_meets_later_is_false(self):
        # zero's tie at (0) fails the upgrade to 1 first, then to 2
        scans = Witness(Profile(2, (0,)), 0, 1, Profile(2, (1,)), candidate=1, voter=1, note="pr:tie:always")
        assert replay_witness(ZERO, AxiomReport("PR", 2, 2, False, scans))
        later = Witness(Profile(2, (0,)), 0, 2, Profile(2, (2,)), candidate=2, voter=1, note="pr:tie:always")
        assert replay_witness(ZERO, AxiomReport("PR", 2, 2, False, later)) is False

    def test_an_a_witness_under_another_sorting_permutation_is_false(self):
        # (3, 2, 1) sorts (2, 1, 1) too, but the stable sort's is (3, 1, 2)
        scans = Witness(Profile(2, (2, 1, 1)), 2, 1, Profile(2, (1, 1, 2)), permutation=(3, 1, 2))
        assert replay_witness(DICTATOR, AxiomReport("A", 2, 3, False, scans))
        other = dataclasses.replace(scans, permutation=(3, 2, 1))
        assert replay_witness(DICTATOR, AxiomReport("A", 2, 3, False, other)) is False


class TestNeutralityImpliesDuels:
    def test_neutrality_implies_duel_property_from_four_candidates(self):
        from scfkit.search import enumerate_neutral_functions

        for f in enumerate_neutral_functions(4, 2):
            assert check_duel_property(f, 4, 2).passed

    def test_three_candidates_admit_a_neutral_duel_violation(self):
        from scfkit.search import enumerate_neutral_functions

        failing = [
            f for f in enumerate_neutral_functions(3, 2)
            if not check_duel_property(f, 3, 2).passed
        ]
        assert failing
        # the violation is exactly the third-party behaviour on a duel
        report = check_duel_property(failing[0], 3, 2)
        assert report.witness.actual not in (0, *report.witness.pair)


def _all_reports(f, m, n_max):
    reports = [checker(f, m, n_max) for ax, checker in CHECKERS.items() if ax != "PR"]
    reports += [check_positive_responsiveness(f, m, n_max, tie_upgrade=mode) for mode in PR_TIE_MODES]
    reports.append(check_no_tied_winner(f, m, n_max))
    return [r.to_dict() for r in reports]


@st.composite
def complete_tables(draw):
    m, n_max = draw(st.sampled_from([(2, 3), (3, 2), (3, 3)]))
    maj = TabledFunction.from_rule(MAJ, m, n_max)
    cells = sorted(maj.table, key=lambda k: (len(k), k))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, m), min_size=len(cells), max_size=len(cells)))
        return TabledFunction(m, n_max, dict(zip(cells, values)))
    # near-majority: a few cells changed, so later checkers get past n = 1
    table = dict(maj.table)
    for key in draw(st.lists(st.sampled_from(cells), max_size=3, unique=True)):
        table[key] = draw(st.integers(0, m))
    return TabledFunction(m, n_max, table)


@st.composite
def neutral_tables(draw):
    """Complete neutral tables: random, or majority's with a few orbits
    drawn anew, so that scans get past the first levels."""
    m, n_max = draw(st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 3)]))
    base = TabledFunction.from_rule(MAJ, m, n_max).table if draw(st.booleans()) else None
    return TabledFunction(m, n_max, _neutral_table(draw, m, n_max, base))


def _spy_stream(mp, levels: list) -> None:
    """Record, for each voter level a scan walks through the profile stream,
    whether it walks one sorted profile per class.  A's scan walks one level
    at a time: its class keys, then its ordered profiles."""
    original = axioms._profiles

    def stream(m, n_min, n_max, by_class):
        levels.extend([by_class] * (n_max - n_min + 1))
        return original(m, n_min, n_max, by_class)

    mp.setattr(axioms, "_profiles", stream)


def _scan_tables(mp) -> None:
    """Send a table's N, DP, PO and RS checks to their scans, as a table
    that fails every one-pass check (``axioms._table_passes``) goes, so a
    test can watch the scans' reads on a passing table."""
    mp.setattr(axioms, "_table_passes", lambda axiom, index, firsts, m, n_max: False)


def _spy_reader(mp, calls: list) -> None:
    """Record the ballots at which each scan reads f.  A's scan is included
    for a table only: it calls any other f without ``_reader``."""
    original = axioms._reader

    def reader(*args):
        value = original(*args)
        return lambda ballots: calls.append(ballots) or value(ballots)

    mp.setattr(axioms, "_reader", reader)


class TestClassScan:
    def test_non_anonymous_rule_is_scanned_over_ordered_profiles(self):
        po = check_pareto(LAST, 2, 2)
        assert not po.passed
        assert po.witness.profile.ballots == (1, 0)
        assert (po.witness.actual, po.witness.expected) == (0, 1)
        assert replay_witness(LAST, po)
        assert check_neutrality(LAST, 2, 2).passed
        assert not check_rs(LAST, 2, 2).passed

    def test_anonymous_rule_scans_one_profile_per_class(self, monkeypatch):
        scanned = []
        _spy_stream(monkeypatch, scanned)
        check_pareto(MAJ, 2, 3)
        # the anonymity scan reads each level's classes, then walks its
        # ordered profiles; then PO's three class levels
        assert scanned == [True, False] * 3 + [True] * 3
        scanned.clear()
        check_pareto(TabledFunction.from_rule(MAJ, 2, 3), 2, 3)
        assert scanned == [True] * 3

    @given(complete_tables())
    def test_class_scan_equals_ordered_scan(self, t):
        by_class = _all_reports(t, t.m, t.n_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(axioms, "_scans_classes", lambda f, anonymity: False)
            ordered = _all_reports(t, t.m, t.n_max)
        assert by_class == ordered


class TestFeasibility:
    def test_infeasible_scope_is_refused_before_scanning(self):
        # estimated only: the ordered anonymity pre-scan alone would walk
        # 4^11 profiles at n = 11
        cost = check_cost("N", 3, 11)
        assert cost == 5_596_496 > CHECK_MAX_COST
        f, calls = _counting(MAJ)
        with pytest.raises(CheckInfeasibleError) as err:
            check_neutrality(f, 3, 11)
        assert err.value.cost == cost
        assert str(err.value) == (
            f"checking N at m=3, n_max=11 needs about {cost} evaluations (> {CHECK_MAX_COST})"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "price",
        [check_cost, lambda axioms, m, n_max: require_feasible(axioms, MAJ, m, n_max)],
        ids=["check_cost", "require_feasible"],
    )
    def test_an_unknown_axiom_is_refused_not_priced(self, price):
        # check_cost(["X"], 3, 3) returned 118, the cost of the A pre-scan
        with pytest.raises(ValueError) as err:
            price(["N", "X"], 3, 3)
        assert str(err.value) == "unknown axiom id 'X'"

    def test_check_cost_reads_a_str_as_one_axiom_id(self):
        assert check_cost("PO", 3, 3) == check_cost(["PO"], 3, 3) == 118

    def test_require_feasible_reads_a_str_as_one_axiom_id(self):
        with pytest.raises(CheckInfeasibleError) as err:
            require_feasible("PO", MAJ, 3, 11)
        assert str(err.value).startswith("checking PO at m=3, n_max=11 needs about ")
        assert err.value.cost == check_cost(["PO"], 3, 11)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_neutrality_costs_the_profile_and_each_generator(self, m):
        # counted without building the generators, whose m-cycle has m entries
        assert axioms._evaluations_per_class("N", m, 3) == 1 + len(axioms._generators(m))

    def test_estimate_stops_past_the_cap(self):
        # summing every level of 3^n up to n = 100,000 would take seconds,
        # and the sum has too many digits to print
        cost = check_cost("A", 2, 100_000)
        assert cost == sum(3**n for n in range(1, 20)) > axioms._COST_CAP > sum(3**n for n in range(1, 19))
        f, calls = _counting(MAJ)
        with pytest.raises(CheckInfeasibleError) as err:
            check_axioms(f, 2, 100_000, ["A"])
        assert err.value.cost == cost
        assert str(err.value) == (
            f"checking A at m=2, n_max=100000 needs over {axioms._COST_CAP} evaluations (> {CHECK_MAX_COST})"
        )
        assert calls == []

    def test_cost_counts_ordered_profiles_for_anonymity(self):
        assert check_cost("A", 3, 2) == 4 + 16
        # classes times evaluations per class, plus the ordered pre-scan
        assert check_cost("PO", 3, 2, tabled=True) == 4 + 10
        assert check_cost("PO", 3, 2) == 4 + 10 + 4 + 16

    @pytest.mark.parametrize(
        "checker,axiom,n_max,class_cost,ordered_cost",
        [
            (check_neutrality, "N", 10, 1_401_100, 4_194_300),
            (check_positive_responsiveness, "PR", 8, 97_378, 2_097_152),
        ],
    )
    def test_ordered_fallback_is_refused_before_scanning(self, checker, axiom, n_max, class_cost, ordered_cost):
        # accepted as a class scan, but "last" fails A at (1, 0), and every
        # ordered profile would then cost the per-class evaluations
        assert check_cost(axiom, 3, n_max) == class_cost <= CHECK_MAX_COST
        assert check_cost(axiom, 3, n_max, ordered=True) == ordered_cost > CHECK_MAX_COST
        calls = []
        last = Rule("last", lambda p: calls.append(p) or p.ballots[-1])
        with pytest.raises(CheckInfeasibleError) as err:
            checker(last, 3, n_max)
        assert err.value.cost == ordered_cost
        assert str(ordered_cost) in str(err.value)
        # only the anonymity pre-scan ran, up to (1, 0) against (0, 1)
        assert [p.ballots for p in calls] == [(0,), (1,), (2,), (3,), (0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]

    @pytest.mark.parametrize("m,n_max", [(2, 5), (3, 4), (4, 3), (3, 6), (3, 7)])
    def test_acceptance_and_benchmark_scopes_are_accepted(self, m, n_max):
        for axiom in CHECKERS:
            require_feasible(axiom, MAJ, m, n_max)

    @pytest.mark.parametrize("m,n_max", [(2, 20), (3, 12), (5, 5)])
    def test_theorem_replay_is_accepted_at_north_star_scopes(self, m, n_max):
        for axiom in ("N", "DP", "PO", "RS"):
            assert check_cost(axiom, m, n_max, tabled=True) <= CHECK_MAX_COST


ALL_AXIOMS = ["A", "N", "DP", "PO", "RS", "PR", "NTW"]


def _alone(f, m, n_max, ax, mode):
    if ax == "PR":
        return check_positive_responsiveness(f, m, n_max, tie_upgrade=mode)
    if ax == "NTW":
        return check_no_tied_winner(f, m, n_max)
    return CHECKERS[ax](f, m, n_max)


def _counting(rule):
    """``rule`` plus the list of profiles it is evaluated on."""
    calls = []
    return Rule(rule.name, lambda p: calls.append(p.ballots) or rule.evaluate(p)), calls


class TestCheckAxioms:
    @given(
        st.one_of(
            complete_tables().map(lambda t: (t, t.m, t.n_max)),
            neutral_tables().map(lambda t: (t, t.m, t.n_max)),
            st.sampled_from([(2, 3), (3, 2), (3, 3)]).map(lambda scope: (LAST, *scope)),
        ),
        st.sampled_from(PR_TIE_MODES),
    )
    # a neutral rule on the ordered fallback, and a table that fails N and
    # fails PO at (2,), a class no orbit starts with
    @example((LAST, 2, 3), "leaders")
    @example((TabledFunction(2, 2, {**MAJ_2X2.table, (2,): 0}), 2, 2), "leaders")
    def test_equals_the_individual_checkers(self, case, mode):
        # random, near-majority and neutral tables, and a rule that fails
        # anonymity, so both the class scan and the ordered fallback are
        # compared; on a neutral table the scans listed after N check one
        # class per orbit, those before it and the one-axiom checkers every
        # class
        f, m, n_max = case
        together = [r.to_dict() for r in check_axioms(f, m, n_max, ALL_AXIOMS, mode)]
        assert together == [_alone(f, m, n_max, ax, mode).to_dict() for ax in ALL_AXIOMS]
        backwards = check_axioms(f, m, n_max, reversed(ALL_AXIOMS), mode)
        assert [r.to_dict() for r in backwards] == together[::-1]

    def test_a_str_is_one_axiom_id(self):
        # "PO" was read as the ids P and O, and refused
        assert check_axioms(MAJ, 3, 3, "PO") == check_axioms(MAJ, 3, 3, ["PO"])
        assert [(r.axiom, r.passed) for r in check_axioms(ZERO, 3, 3, "PO")] == [("PO", False)]

    def test_anonymity_is_scanned_once_per_call(self, monkeypatch):
        levels = []
        original = axioms._profiles

        def counting(m, n_min, n_max, by_class):
            if not by_class:
                levels.extend(range(n_min, n_max + 1))
            return original(m, n_min, n_max, by_class)

        monkeypatch.setattr(axioms, "_profiles", counting)
        six = ["A", "N", "DP", "PO", "RS", "PR"]
        assert all(r.passed for r in check_axioms(MAJ, 3, 3, six))
        assert levels == [1, 2, 3]
        # nothing carries over to the next call
        check_axioms(MAJ, 3, 3, six)
        assert levels == [1, 2, 3] * 2
        # a table is anonymous by construction: scanned only for the A report
        levels.clear()
        table = TabledFunction.from_rule(MAJ, 3, 3)
        check_axioms(table, 3, 3, ["N", "PO", "RS"])
        assert levels == []
        check_axioms(table, 3, 3, ["N", "A"])
        assert levels == [1, 2, 3]

    @pytest.mark.parametrize(
        "m,n_max,requested,mode,error",
        [
            (2, 1, ["A", "PO", "RS"], "leaders", ValueError),
            (2, 2, ["A", "PR"], "sometimes", ValueError),
            (2, 2, ["A", "XX"], "leaders", ValueError),
            (1, 2, ["A"], "leaders", ValueError),
            (3, 11, ["A", "PO", "N"], "leaders", CheckInfeasibleError),
        ],
    )
    def test_refuses_before_evaluating(self, m, n_max, requested, mode, error):
        f, calls = _counting(MAJ)
        with pytest.raises(error):
            check_axioms(f, m, n_max, requested, mode)
        assert calls == []

    def test_every_ordered_fallback_is_refused_before_any_scan(self):
        # PO's ordered fallback at (3, 10) is cheap, N's is not: PO is not
        # scanned either, only the anonymity scan ran, up to (1, 0) against
        # (0, 1)
        f, calls = _counting(LAST)
        with pytest.raises(CheckInfeasibleError) as err:
            check_axioms(f, 3, 10, ["PO", "N"])
        assert check_cost("PO", 3, 10, ordered=True) <= CHECK_MAX_COST
        assert err.value.cost == check_cost(["PO", "N"], 3, 10, ordered=True)
        assert calls == [(0,), (1,), (2,), (3,), (0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


class Plain:
    """``g`` as the evaluate method of an object that is no Rule."""

    def __init__(self, g):
        self.evaluate = g


@st.composite
def profile_functions(draw):
    """A scope and a function g of a Profile on it: an ordered function's,
    a named rule's, or one of these raising on a drawn profile."""
    if draw(st.booleans()):
        m, n_max, f = draw(ordered_functions())
    else:
        m, n_max = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 2)]))
        f = draw(st.sampled_from(list(RULES.values())))
    if draw(st.booleans()):
        n = draw(st.integers(1, n_max))
        f = Raising(f, tuple(draw(st.lists(st.integers(0, m), min_size=n, max_size=n))))
    return m, n_max, f.evaluate


def _seen_reads(wrap, g, m, n_max, requested):
    """The reports of ``check_axioms`` on ``wrap(g)``, or the type and text of
    what it raised, and the ballots at which g was called, in order."""
    seen = []
    f = wrap(lambda p: seen.append(p.ballots) or g(p))
    try:
        got = [r.to_dict() for r in check_axioms(f, m, n_max, requested)]
    except RuntimeError as exc:
        got = (type(exc), str(exc))
    return got, seen


class TestRuleReads:
    # a Rule of exactly that type is called through its fn, anything else
    # through its evaluate; nothing else may differ

    @settings(max_examples=150)
    @given(profile_functions())
    def test_a_rule_reads_as_any_f_does(self, case):
        m, n_max, g = case
        rule = _seen_reads(lambda h: Rule("g", h), g, m, n_max, ALL_AXIOMS)
        assert rule == _seen_reads(Plain, g, m, n_max, ALL_AXIOMS)
        assert rule[1]

    @pytest.mark.parametrize("rule", [MAJ, LAST, DICTATOR])
    def test_a_rule_subclass_is_called_through_its_evaluate(self, rule):
        # every scan, A's included, calls an override as often, at the same
        # ballots, as a plain Rule calls its fn
        overridden = []

        class Counted(Rule):
            def evaluate(self, p):
                overridden.append(p.ballots)
                return super().evaluate(p)

        for requested in [[axiom] for axiom in ALL_AXIOMS] + [ALL_AXIOMS]:
            overridden.clear()
            reports = [r.to_dict() for r in check_axioms(Counted(rule.name, rule.fn), 3, 3, requested)]
            assert (reports, overridden) == _seen_reads(lambda h: Rule(rule.name, h), rule.fn, 3, 3, requested)
            assert overridden

    def test_a_class_level_patch_of_rule_evaluate_sees_no_read(self, monkeypatch):
        patched = []
        original = Rule.evaluate
        monkeypatch.setattr(Rule, "evaluate", lambda self, p: patched.append(p) or original(self, p))
        assert all(r.passed for r in check_axioms(MAJ, 3, 3, ALL_AXIOMS))
        assert patched == []


class TestClassValues:
    @given(
        st.one_of(
            complete_tables().map(lambda t: (t, t.m, t.n_max)),
            st.sampled_from([(2, 3), (3, 2), (3, 3)]).map(lambda scope: (LAST, *scope)),
        ),
        st.permutations(ALL_AXIOMS).flatmap(lambda order: st.integers(1, len(order)).map(lambda k: order[:k])),
        st.sampled_from(PR_TIE_MODES),
    )
    def test_reads_equal_evaluations(self, case, requested, mode):
        # an anonymous rule (a table behind a Rule) is read from its class
        # values and must report as its table does; "last" fails A and must
        # report as the one-axiom checkers do, which evaluate it directly
        f, m, n_max = case
        anonymous = isinstance(f, TabledFunction)
        if anonymous:
            f, calls = _counting(Rule("drawn", f.evaluate))
            table = TabledFunction.from_rule(f, m, n_max)
            reference = [r.to_dict() for r in check_axioms(table, m, n_max, requested, mode)]
        else:
            f, calls = _counting(f)
            reference = [_alone(f, m, n_max, ax, mode).to_dict() for ax in requested]
        calls.clear()
        reports = check_axioms(f, m, n_max, requested, mode)
        assert [r.to_dict() for r in reports] == reference
        if anonymous:
            assert len(calls) == len(set(calls))
        else:
            # the one-axiom checkers are check_axioms too: the witnesses must
            # also replay on "last" itself
            assert all(replay_witness(LAST, r) for r in reports if not r.passed)

    @pytest.mark.parametrize("m,n_max,profiles", [(3, 4, 340), (3, 6, 5_460)])
    def test_each_ordered_profile_is_evaluated_once(self, m, n_max, profiles):
        # the A scan evaluates every ordered profile but those of the classes
        # with one ordering, which the later scans evaluate once each
        assert profiles == sum((m + 1) ** n for n in range(1, n_max + 1))
        f, calls = _counting(MAJ)
        six = ["A", "N", "DP", "PO", "RS", "PR"]
        assert all(r.passed for r in check_axioms(f, m, n_max, six))
        assert len(calls) == len(set(calls)) == profiles
        # nothing outlives the call: the next one evaluates them all again
        check_axioms(f, m, n_max, six)
        assert len(calls) == 2 * profiles

    def test_a_class_valued_none_is_evaluated_once(self):
        # majority with None for 0: a stored None is a class value, not a
        # miss, so no ordered profile is evaluated twice.  A reads every
        # ordered profile once, and PO reads the class table it leaves
        f, calls = _counting(Rule("maj_or_none", lambda p: MAJ.evaluate(p) or None))
        reports = check_axioms(f, 3, 4, ["A", "PO"])
        assert [r.to_dict() for r in reports] == [
            {"axiom": ax, "m": 3, "n_max": 4, "pass": True} for ax in ("A", "PO")
        ]
        assert len(calls) == len(set(calls)) == 340
        # NTW reads f at every class, and None there is no ballot
        with pytest.raises(ValueError, match="^outcome None is not an int$"):
            check_axioms(f, 3, 4, ["A", "PO", "NTW"])


def _relabel(tau: tuple[int, ...], b: int) -> int:
    return 0 if b == 0 else tau[b - 1]


def _reference_scan(f, m, n_max, axiom) -> AxiomReport:
    """N or RS as scanned before generators and run sharing: one sorted
    profile per class when f is a table or anonymous, else every ordered
    profile; every m! relabeling, identity first, and f on every
    voter-deleted subprofile."""
    by_class = isinstance(f, TabledFunction) or check_anonymity(f, m, n_max).passed
    for n in range(1 if axiom == "N" else 2, n_max + 1):
        for p in enumerate_profiles(m, n, canonical_only=by_class):
            out = f.evaluate(p)
            if axiom == "N":
                for tau in permutations(range(1, m + 1)):
                    permuted = Profile(m, tuple(_relabel(tau, b) for b in p.ballots))
                    actual = f.evaluate(permuted)
                    if actual != _relabel(tau, out):
                        w = Witness(p, actual, _relabel(tau, out), permuted, permutation=tau)
                        return AxiomReport("N", m, n_max, False, w)
            else:
                subprofiles = [Profile(m, p.ballots[:l] + p.ballots[l + 1 :]) for l in range(n)]
                reduced = Profile(m, tuple(f.evaluate(q) for q in subprofiles))
                expected = f.evaluate(reduced)
                if out != expected:
                    return AxiomReport("RS", m, n_max, False, Witness(p, out, expected, reduced))
    return AxiomReport(axiom, m, n_max, True)


def _outcome(scan):
    """A scan's report, or the table entry it found unassigned."""
    try:
        return scan().to_dict()
    except IncompleteTableError as exc:
        return ("incomplete", exc.ballots)


def _brute_force_orbits(m, n_max):
    """Each orbit of the classes under all m! relabelings, in the order of
    its first class in the class stream: that class, the outcomes its
    stabilizer fixes, and each relabeling's image of it."""
    relabelings = list(permutations(range(1, m + 1)))
    seen, orbits = set(), []
    for n in range(1, n_max + 1):
        for p in enumerate_profiles(m, n, canonical_only=True):
            if p.ballots in seen:
                continue
            images = {tau: tuple(sorted(_relabel(tau, b) for b in p.ballots)) for tau in relabelings}
            seen.update(images.values())
            stabilizer = [tau for tau, image in images.items() if image == p.ballots]
            fixed = [0] + [k for k in range(1, m + 1) if all(tau[k - 1] == k for tau in stabilizer)]
            orbits.append((p.ballots, fixed, images))
    return orbits


def _firsts_by_voted_relabelings(m, n_max):
    """The first classes of :func:`_brute_force_orbits`, each orbit found by
    relabeling only its first class's voted candidates: a relabeling moves
    a class through those alone, so their injective maps into 1..m give the
    images all m! relabelings give, at most m!/(m - n_max)! of them."""
    seen, firsts = set(), []
    for n in range(1, n_max + 1):
        for ballots in combinations_with_replacement(range(m + 1), n):
            if ballots in seen:
                continue
            voted = sorted(set(ballots) - {0})
            for targets in permutations(range(1, m + 1), len(voted)):
                to = {0: 0, **dict(zip(voted, targets))}
                seen.add(tuple(sorted(to[b] for b in ballots)))
            firsts.append(ballots)
    return firsts


def _neutral_table(draw, m, n_max, base=None) -> dict[tuple[int, ...], int]:
    """A random neutral table: one outcome per orbit, fixed by the
    stabilizer of the orbit's first class, relabeled onto every member.
    With ``base``, a neutral table at the scope, at most three orbits are
    drawn and the others keep base's outcomes."""
    orbits = _brute_force_orbits(m, n_max)
    drawn = range(len(orbits)) if base is None else draw(st.sets(st.integers(0, len(orbits) - 1), max_size=3))
    table: dict[tuple[int, ...], int] = {}
    for i, (first, fixed, images) in enumerate(orbits):
        value = draw(st.sampled_from(fixed)) if i in drawn else base[first]
        for tau, image in images.items():
            table[image] = _relabel(tau, value)
    return table


@st.composite
def neutrality_cases(draw):
    """Neutral tables, tables with one orbit relabeled or one cell changed,
    lex, the non-anonymous last and neutral tables with one ordered profile
    changed, at the small scopes; tables may lose a few entries."""
    m, n_max = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 2)]))
    kind = draw(st.sampled_from(["neutral", "orbit", "cell", "lex", "last", "ordered"]))
    if kind == "ordered":
        # a neutral table read on ordered profiles, one of them changed
        by_class = _neutral_table(draw, m, n_max)
        profiles = [b for n in range(1, n_max + 1) for b in product(range(m + 1), repeat=n)]
        table = {b: by_class[tuple(sorted(b))] for b in profiles}
        flipped = draw(st.sampled_from(profiles))
        table[flipped] = (table[flipped] + draw(st.integers(1, m))) % (m + 1)
        return OrderedFunction(table), m, n_max
    if kind in ("lex", "last"):
        return {"lex": LEX, "last": LAST}[kind], m, n_max
    table = _neutral_table(draw, m, n_max)
    cells = sorted(table, key=lambda k: (len(k), k))
    key = draw(st.sampled_from(cells))
    if kind == "orbit":
        rho = draw(st.permutations(range(1, m + 1)))
        orbit = {tuple(sorted(_relabel(tau, b) for b in key)) for tau in permutations(range(1, m + 1))}
        for member in orbit:
            table[member] = _relabel(rho, table[member])
    elif kind == "cell":
        table[key] = (table[key] + draw(st.integers(1, m))) % (m + 1)
    if draw(st.booleans()):
        for missing in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2, unique=True)):
            del table[missing]
    return TabledFunction(m, n_max, table), m, n_max


class TestGeneratorScans:
    @settings(max_examples=200)
    @given(neutrality_cases())
    def test_equals_the_full_group_and_per_voter_scans(self, case):
        # reports, witnesses and the entry an incomplete table misses are
        # those of the m! relabeling scan and the per-voter reduction
        f, m, n_max = case
        for axiom in ("N", "RS"):
            got = _outcome(lambda: check_axioms(f, m, n_max, [axiom])[0])
            assert got == _outcome(lambda: _reference_scan(f, m, n_max, axiom))
            if isinstance(got, dict) and not got["pass"]:
                assert replay_witness(f, check_axioms(f, m, n_max, [axiom])[0])

    @pytest.mark.parametrize("m", [3, 4])
    def test_incomplete_tables_name_the_entry_the_full_scan_names(self, m):
        # every single missing entry, in majority's table and in one where
        # (1,) elects 2: with (2,) missing, the full scan fails at (1,) under
        # the swap of 2 and 3 before it needs (2,), the generator scan needs
        # (2,) first
        maj = TabledFunction.from_rule(MAJ, m, 2)
        for base in (maj.table, {**maj.table, (1,): 2}):
            for missing in base:
                t = TabledFunction(m, 2, {k: v for k, v in base.items() if k != missing})
                for axiom in ("N", "RS"):
                    got = _outcome(lambda: check_axioms(t, m, 2, [axiom])[0])
                    assert got == _outcome(lambda: _reference_scan(t, m, 2, axiom)), (missing, axiom)

    def test_an_f_that_changes_between_the_scan_and_the_rescan_raises(self):
        # voter 1's ballot, so f fails A and N reads f at every ordered
        # profile, but (1,) elects nobody until f is read at (2,) a second
        # time: A reads (2,) once, N's swap fails at (1,) as it reads (2,)
        # again, then the rescan, reading (1,) again, finds no relabeling
        # that fails
        reads = []

        def fickle(p):
            reads.append(p.ballots)
            return 0 if p.ballots == (1,) and reads.count((2,)) < 2 else p.ballots[0]

        with pytest.raises(RuntimeError) as err:
            check_neutrality(Rule("fickle", fickle), 3, 2)
        assert str(err.value) == "f fails N under a generator but under no relabeling: it is not deterministic"

    def test_evaluates_generators_and_one_subprofile_per_run(self):
        calls, evaluated = [], []
        table = TabledFunction.from_rule(MAJ, 3, 4)
        original = TabledFunction.evaluate
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            # a complete table is read directly, never evaluated
            mp.setattr(TabledFunction, "evaluate", lambda self, p: evaluated.append(p) or original(self, p))
            # a passing table is decided by the one-pass check, through no reader
            assert check_neutrality(table, 3, 4).passed and calls == []
            with pytest.MonkeyPatch.context() as scan:
                _scan_tables(scan)
                check_neutrality(table, 3, 4)
            classes = [p.ballots for n in range(1, 5) for p in enumerate_profiles(3, n, canonical_only=True)]
            # each class, then its image under (1 2) and under the 3-cycle
            assert len(calls) == 3 * len(classes)
            assert calls[:3] == [(0,), (0,), (0,)] and calls[6:9] == [(2,), (1,), (3,)]
            calls.clear()
            check_rs(table, 3, 4)
            runs = [1 + sum(a != b for a, b in zip(c, c[1:])) for c in classes if len(c) > 1]
            assert len(calls) == sum(2 + r for r in runs)
            assert evaluated == []

    def test_two_candidates_check_the_swap_once(self):
        # on a table: a rule that passes A is read from its class values
        calls = []
        table = TabledFunction.from_rule(MAJ, 2, 1)
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            assert check_neutrality(table, 2, 1).passed and calls == []
            _scan_tables(mp)
            check_neutrality(table, 2, 1)
        assert calls == [(0,), (0,), (1,), (2,), (2,), (1,)]

    def test_two_candidate_failure_needs_no_rescan(self):
        # at m = 2 the swap is the only relabeling besides the identity, so
        # the generator scan's first failure is the witness: f is evaluated
        # on each class and its swap up to lex's witness (1, 2), and no more
        calls = []
        table = TabledFunction.from_rule(LEX, 2, 3)
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            report = check_neutrality(table, 2, 3)
        classes = [p.ballots for n in range(1, 4) for p in enumerate_profiles(2, n, canonical_only=True)]
        scanned = classes[: classes.index((1, 2)) + 1]
        assert calls == [b for c in scanned for b in (c, tuple(3 - x if x else 0 for x in c))]
        w = report.witness
        assert (w.profile.ballots, w.permutation, w.actual, w.expected) == ((1, 2), (2, 1), 1, 2)

    def test_lex_witness_is_the_swap_at_three_candidates(self):
        report = check_neutrality(LEX, 3, 4)
        w = report.witness
        assert (w.profile.ballots, w.permutation, w.actual, w.expected) == ((1, 2), (2, 1, 3), 1, 2)
        assert replay_witness(LEX, report)

    def test_witness_rescan_is_refused_with_estimate(self):
        # lex passes every class up to (1, 1) at m = 10; the swap fails at
        # (1, 2), the 24th class, and its rescan would try 10! relabelings;
        # on a table, as a rule that passes A is read from its class values
        calls = []
        table = TabledFunction.from_rule(LEX, 10, 3)
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            with pytest.raises(CheckInfeasibleError) as err:
                check_neutrality(table, 10, 3)
        cost = 24 * (1 + math.factorial(10))
        assert err.value.cost == cost
        assert str(err.value) == (
            f"rescanning N for its witness at m=10, n_max=3 needs about {cost} evaluations (> {CHECK_MAX_COST})"
        )
        assert calls[-2:] == [(1, 2), (2, 1)]


@st.composite
def one_pass_cases(draw):
    """A neutral table at m = 2..4 with at most four voters, as it is or
    with one entry changed: to another value, removed, or to True, 1.0,
    -1, m + 1 or None; or with the unsorted key (2, 1) added, which the
    scan reads as the swap of (1, 2) and a table may not hold.  The table
    is drawn whole, or as majority's with at most three orbits redrawn,
    which often keeps DP, PO or RS.  Checked at its own scope, at a larger
    or smaller voter bound, or with a candidate more; RS needs two voters,
    so a table of one voter is checked at two."""
    m, n_max = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    base = dict(TabledFunction.from_rule(MAJ, m, n_max).table) if draw(st.booleans()) else None
    table = _neutral_table(draw, m, n_max, base)
    key = draw(st.sampled_from(sorted(table)))
    change = draw(st.sampled_from(["none", "value", "remove", "unsorted", True, 1.0, -1, m + 1, None]))
    if change == "value":
        table[key] = (table[key] + draw(st.integers(1, m))) % (m + 1)
    elif change == "remove":
        del table[key]
    elif change == "unsorted":
        table[(2, 1)] = draw(st.integers(0, m))
    elif change != "none":
        table[key] = change
    n = max(2, n_max)
    scope = draw(st.sampled_from([(m, n), (m, n), (m, draw(st.integers(n, 4))), (m, max(2, n - 1)), (m + 1, n)]))
    return (*scope, change, TabledFunction._trusted(m, n_max, table))


def _neutral_by_pass(table, m, n_max) -> bool:
    """Whether N's one-pass check decides that a table is neutral."""
    index = axioms._class_index(table, m, n_max)
    return index is not None and axioms._table_passes("N", index, None, m, n_max)


def _raised_or(run):
    """run()'s result, or the type and text of the error it raised."""
    try:
        return run()
    except Exception as exc:  # every error must be the scan's
        return (type(exc), str(exc))


def _spy_scans(mp, scanned: list) -> None:
    """Record the axiom of each DP, PO, RS, PR or NTW scan a call runs."""
    original, axiom_of = axioms._first_witness, {scan: ax for ax, (scan, _) in axioms._SCANS.items()}

    def first_witness(witness_of, *args):
        scanned.append(axiom_of[witness_of])
        return original(witness_of, *args)

    mp.setattr(axioms, "_first_witness", first_witness)


class TestOnePassNeutrality:
    @settings(max_examples=300, deadline=None)
    @given(one_pass_cases())
    def test_equals_the_generator_scan(self, case):
        # a table's N, DP, PO and RS checks give the reports of the scans
        # with every pass off, or their error; N's gives the generator
        # scan's report, so it leaves every later scan as it was
        m, n_max, change, t = case
        requested = ["N", "DP", "PO", "RS"]

        def reports():
            return [r.to_dict() for r in check_axioms(t, m, n_max, requested)]

        def scanned():
            value = axioms._reader(t, m, True, {})
            w = axioms._neutrality_witness(value, m, n_max, True)
            return AxiomReport("N", m, n_max, w is None, w).to_dict()

        with pytest.MonkeyPatch.context() as mp:
            _scan_tables(mp)
            reference = _raised_or(reports)
        alone = _raised_or(scanned)
        scanned = []
        with pytest.MonkeyPatch.context() as mp:
            _spy_scans(mp, scanned)
            if change == "none" and t.m == m and t.n_max == n_max:
                # a neutral table passes without the scan
                mp.setattr(axioms, "_neutrality_witness", lambda *args: pytest.fail("scanned"))
            got = _raised_or(reports)
        assert got == reference
        if change == "none" and t.m == m and t.n_max == n_max:
            # past N, a pass decides exactly the axioms that pass
            assert scanned == [r["axiom"] for r in got[1:] if not r["pass"]]
        if isinstance(alone, tuple):
            assert got == alone
        elif isinstance(got, list):
            assert got[0] == alone

    @pytest.mark.parametrize("m,n_max", [(2, 9), (3, 7), (5, 5), (40, 3)])
    def test_decides_majority_lex_and_last_wins(self, m, n_max):
        # lex fails under the swap; from m = 3 on, the last candidate
        # winning whenever voted for, majority otherwise, passes the swap of
        # 1 and 2 and fails only under the m-cycle
        table = TabledFunction.from_rule(MAJ, m, n_max).table
        assert _neutral_by_pass(table, m, n_max)
        assert not _neutral_by_pass(TabledFunction.from_rule(LEX, m, n_max).table, m, n_max)
        last = Rule("last", lambda p: m if m in p.ballots else MAJ.evaluate(p))
        last_wins = TabledFunction.from_rule(last, m, n_max)
        assert not _neutral_by_pass(last_wins.table, m, n_max)
        if m <= 5:  # the scan's witness rescan is refused at m = 40
            assert not check_neutrality(last_wins, m, n_max).passed


def _pass_and_scan_reports(t, m, n_max, requested):
    """The reports of a call with the passes on, which DP, PO and RS scans
    it ran, and the reports with every pass off."""
    scanned = []
    with pytest.MonkeyPatch.context() as mp:
        _spy_scans(mp, scanned)
        got = [r.to_dict() for r in check_axioms(t, m, n_max, requested)]
    with pytest.MonkeyPatch.context() as mp:
        _scan_tables(mp)
        reference = [r.to_dict() for r in check_axioms(t, m, n_max, requested)]
    return got, scanned, reference


class TestTablePasses:
    @pytest.mark.parametrize(
        "m,n_max,limit,tables_passing",
        [
            (2, 3, None, (2187, 2187, 3, 25)),
            (3, 2, None, (16, 8, 2, 9)),
            (4, 2, None, (8, 8, 1, 5)),
            (2, 4, 4000, (4000, 4000, 0, 1)),
            (3, 3, 4000, (1024, 192, 16, 19)),
        ],
    )
    def test_every_neutral_table_gets_the_scans_reports(self, m, n_max, limit, tables_passing):
        # every neutral table (the first 4,000 at (2, 4); (3, 3) has 1,024):
        # the reports with the passes equal those of the scans, and past N
        # a scan runs exactly when its axiom fails.  DP never fails at
        # m = 2, nor from m = 4 at two voters (criterion 4 of the acceptance
        # suite); the first tables at (2, 4) all have (1,) tie
        requested = ["N", "DP", "PO", "RS"]
        tables = list(islice(search.enumerate_neutral_functions(m, n_max), limit))
        passing = dict.fromkeys(requested, 0)
        for t in tables:
            got, scanned, reference = _pass_and_scan_reports(t, m, n_max, requested)
            assert got == reference, t.table
            assert scanned == [r["axiom"] for r in got[1:] if not r["pass"]], t.table
            for r in got:
                passing[r["axiom"]] += r["pass"]
        assert tuple(passing.values()) == tables_passing

    @pytest.mark.parametrize("m,n_max", [(2, 9), (3, 7), (5, 5), (40, 3)])
    def test_majority_needs_no_scan(self, m, n_max):
        # majority's table gets all four verdicts from the passes: no scan
        # reads f
        calls = []
        table = TabledFunction.from_rule(MAJ, m, n_max)
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            reports = check_axioms(table, m, n_max, ["N", "DP", "PO", "RS"])
        assert all(r.passed for r in reports)
        assert calls == []

    def test_no_pass_decides_before_neutrality_passes(self):
        # majority's table with (2,) electing 3 at (3, 2) fails N, DP and
        # PO at (2,), no orbit's first class: a pass reading only those
        # would pass DP and PO
        base = dict(TabledFunction.from_rule(MAJ, 3, 2).table)
        t = TabledFunction(3, 2, {**base, (2,): 3})
        requested = ["N", "DP", "PO", "RS"]
        got, scanned, reference = _pass_and_scan_reports(t, 3, 2, requested)
        assert got == reference
        assert [(r["axiom"], r["pass"]) for r in got] == [("N", False), ("DP", False), ("PO", False), ("RS", False)]
        assert [r["witness"]["profile"] for r in got[1:3]] == ["3 1\n2\n", "3 1\n2\n"]
        assert scanned == ["DP", "PO", "RS"]

    def test_two_candidates_pass_every_duel(self):
        # at m = 2 every outcome lies in the one duel pair: a neutral table
        # where (1,) elects 2, and (1, 1) and (1, 1, 1) tie, fails PO and RS
        # but passes DP with no scan
        base = dict(TabledFunction.from_rule(MAJ, 2, 3).table)
        t = TabledFunction(2, 3, {**base, (1,): 2, (2,): 1, (1, 1): 0, (2, 2): 0, (1, 1, 1): 0, (2, 2, 2): 0})
        got, scanned, reference = _pass_and_scan_reports(t, 2, 3, ["N", "DP", "PO", "RS"])
        assert got == reference
        assert [(r["axiom"], r["pass"]) for r in got] == [("N", True), ("DP", True), ("PO", False), ("RS", False)]
        assert scanned == ["PO", "RS"]


@st.composite
def anonymous_rules(draw):
    """An anonymous f that is no table, at m = 2..4 and n_max = 2..4: a
    random table, a random neutral one, or majority's with up to two
    classes changed, behind a Rule; perhaps with one class's outcome set to
    None, True, 1.0, -1 or m + 1, and perhaps raising on a drawn profile."""
    m, n_max = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rnd = draw(st.randoms(use_true_random=False))
    classes = [c for n in range(1, n_max + 1) for c in combinations_with_replacement(range(m + 1), n)]
    kind = draw(st.sampled_from(["random", "neutral", "majority"]))
    if kind == "random":
        by_class = {c: rnd.randint(0, m) for c in classes}
    elif kind == "neutral":
        by_class = _neutral_table(draw, m, n_max)
    else:
        by_class = dict(TabledFunction.from_rule(MAJ, m, n_max).table)
        for c in rnd.sample(classes, draw(st.integers(0, 2))):
            by_class[c] = (by_class[c] + rnd.randint(1, m)) % (m + 1)
    if draw(st.booleans()):
        by_class[rnd.choice(classes)] = draw(st.sampled_from([None, True, 1.0, -1, m + 1]))
    f = Rule("drawn", lambda p: by_class[tuple(sorted(p.ballots))])
    if draw(st.booleans()):
        f = Raising(f, tuple(rnd.randint(0, m) for _ in range(rnd.randint(1, n_max))))
    return m, n_max, f


class TestClassTablePasses:
    @settings(max_examples=300, deadline=None)
    @given(
        anonymous_rules(),
        st.permutations(ALL_AXIOMS).flatmap(lambda order: st.integers(1, len(order)).map(lambda k: order[:k])),
        st.sampled_from(PR_TIE_MODES),
    )
    def test_equal_the_scans(self, case, requested, mode):
        # an anonymous f read from the class table A leaves: the passes on
        # give the reports or error of the scans with every pass off, and f
        # is evaluated at the same ballots, all within A
        m, n_max, f = case
        got = _check_outcome(check_axioms, f, m, n_max, requested, mode)
        with pytest.MonkeyPatch.context() as mp:
            _scan_tables(mp)
            assert got == _check_outcome(check_axioms, f, m, n_max, requested, mode)

    @pytest.mark.parametrize("m,n_max", [(3, 4), (40, 2)])
    @pytest.mark.parametrize("rule", [MAJ, UC], ids=["maj", "uc"])
    def test_rules_need_no_scan_of_a_passing_axiom(self, rule, m, n_max):
        # no N scan runs, and past N a scan runs exactly when its axiom
        # fails; the class table A leaves is the rule's table
        scanned, tables = [], []
        anonymity = axioms._anonymity_witness

        def keeping(f, m, n_max, values):
            tables.append(values)
            return anonymity(f, m, n_max, values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(axioms, "_anonymity_witness", keeping)
            mp.setattr(axioms, "_neutrality_witness", lambda *args: pytest.fail("scanned"))
            _spy_scans(mp, scanned)
            reports = [r.to_dict() for r in check_axioms(rule, m, n_max, ["A", "N", "DP", "PO", "RS"])]
        assert [r["pass"] for r in reports[:2]] == [True, True]
        assert scanned == [r["axiom"] for r in reports[2:] if not r["pass"]]
        (table,) = tables
        assert table == TabledFunction.from_rule(rule, m, n_max).table
        assert rule is not MAJ or all(r["pass"] for r in reports)

    def test_lex_gets_its_neutrality_witness_from_the_scan(self):
        witnesses = []
        scan = axioms._neutrality_witness
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(axioms, "_neutrality_witness", lambda *args: witnesses.append(scan(*args)) or witnesses[-1])
            report = check_axioms(LEX, 3, 4, ["A", "N"])[1]
        assert witnesses == [report.witness]
        w = report.witness
        assert (w.profile.ballots, w.permutation, w.actual, w.expected) == ((1, 2), (2, 1, 3), 1, 2)


class TestClassCodes:
    @pytest.mark.parametrize("m,n_max", [(2, 2), (2, 9), (3, 7), (5, 5), (12, 3), (40, 3), (4, 1)])
    def test_codes_are_weight_sums_that_find_the_relabeled_class(self, m, n_max):
        # a class's code is the sum of its ballots' weights (n_max + 1) ** b,
        # so its counts are the code's digits and no two classes share one;
        # under a generator each class gets its relabeled class's code.  A
        # base of n_max would collide at (2, 2): (0, 0) and (1,)
        def code(ballots):
            return sum((n_max + 1) ** b for b in ballots)

        classes = list(core._profiles(m, 1, n_max, True))
        codes = axioms._class_codes(m, n_max, range(m + 1))
        assert codes == [code(K) for K in classes]
        assert len(set(codes)) == len(classes)
        for lookup in axioms._generators(m):
            relabeled = [code(tuple(sorted(map(lookup.__getitem__, K)))) for K in classes]
            assert axioms._class_codes(m, n_max, lookup) == relabeled


class TestOrbitScans:
    @pytest.mark.parametrize("m,n_max", [(2, 5), (3, 4), (4, 3), (5, 3)])
    def test_orbit_firsts_are_the_brute_force_orbits_first_classes(self, m, n_max):
        assert list(core._orbit_firsts(m, 1, n_max)) == [first for first, _, _ in _brute_force_orbits(m, n_max)]

    @pytest.mark.parametrize("m,n_min,n_max", [(2, 3, 6), (3, 2, 4), (4, 3, 3), (5, 2, 3)])
    def test_the_core_stream_from_n_min_is_the_brute_force_orbits(self, m, n_min, n_max):
        # each orbit's first class, built from the shapes, against the
        # brute force's first classes of n_min or more voters
        stream = list(core._orbit_firsts(m, n_min, n_max))
        firsts = [first for first, _, _ in _brute_force_orbits(m, n_max) if len(first) >= n_min]
        assert stream == firsts

    @pytest.mark.parametrize("m,n_max", [(2, 5), (3, 4), (4, 3)])
    def test_relabeling_the_voted_candidates_gives_the_brute_force_orbits(self, m, n_max):
        firsts = [first for first, _, _ in _brute_force_orbits(m, n_max)]
        assert _firsts_by_voted_relabelings(m, n_max) == firsts

    def test_the_core_stream_at_twelve_candidates(self):
        # the brute force's 12! relabelings per orbit are out of reach, so
        # its first classes come from the voted candidates' relabelings
        stream = list(core._orbit_firsts(12, 1, 3))
        assert stream == _firsts_by_voted_relabelings(12, 3)
        assert len(stream) == 13

    def test_scans_after_neutrality_read_one_class_per_orbit(self):
        # majority's table passes N at (3, 4); RS and PR then read f only
        # while checking each orbit's first class, as the Profile scans do
        # there, and every other class goes unchecked
        table = TabledFunction.from_rule(MAJ, 3, 4)
        classes = [c for n in range(1, 5) for c in combinations_with_replacement(range(4), n)]
        firsts = [first for first, _, _ in _brute_force_orbits(3, 4)]
        assert (len(classes), len(firsts)) == (69, 24)
        expected = []
        recorded = Rule("recorded", lambda p: expected.append(p.ballots) or table.evaluate(p))
        for c in firsts:
            if len(c) >= 2:
                assert _profile_reducibility(recorded, Profile(3, c), "leaders") is None
        rs_reads = len(expected)
        for c in firsts:
            assert _profile_responsiveness(recorded, Profile(3, c), "leaders") is None
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _spy_reader(mp, calls)
            reports = check_axioms(table, 3, 4, ["N", "RS", "PR"])
            # N's and RS's one-pass checks read the table's dict through no
            # reader; PR has no pass
            assert all(r.passed for r in reports) and calls == expected[rs_reads:]
            calls.clear()
            _scan_tables(mp)
            reports = check_axioms(table, 3, 4, ["N", "RS", "PR"])
        assert all(r.passed for r in reports)
        # N reads each class and its images under the two generators
        assert calls[3 * len(classes) :] == expected


class TestCallEstimate:
    SIX = ["A", "N", "DP", "PO", "RS", "PR"]

    def test_the_anonymity_scan_is_counted_once(self):
        profiles = check_cost("A", 3, 10)
        scans = sum(check_cost(ax, 3, 10, tabled=True) for ax in self.SIX[1:])
        assert check_cost(self.SIX, 3, 10) == check_cost(self.SIX, 3, 10, tabled=True) == profiles + scans
        assert check_cost(self.SIX[1:], 3, 10, tabled=True) == scans
        assert check_cost(self.SIX, 3, 10) <= CHECK_MAX_COST < sum(check_cost(ax, 3, 10) for ax in self.SIX)

    def test_ordered_fallbacks_are_refused_as_a_whole(self):
        # each fallback alone is accepted, their sum is not
        assert all(check_cost(ax, 2, 10, ordered=True) <= CHECK_MAX_COST for ax in self.SIX[1:])
        cost = check_cost(self.SIX[1:], 2, 10, ordered=True)
        assert cost == 3_144_351 > CHECK_MAX_COST
        f, calls = _counting(LAST)
        with pytest.raises(CheckInfeasibleError) as err:
            check_axioms(f, 2, 10, self.SIX)
        assert err.value.cost == cost
        assert str(err.value) == (
            f"checking N,DP,PO,RS,PR at m=2, n_max=10 needs about {cost} evaluations (> {CHECK_MAX_COST})"
        )
        assert calls == [(0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 0)]

    @given(
        st.one_of(
            complete_tables().map(lambda t: (t, t.m, t.n_max)),
            st.tuples(st.sampled_from([MAJ, LAST]), st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 2)])).map(
                lambda case: (case[0], *case[1])
            ),
        ),
        st.lists(st.sampled_from(ALL_AXIOMS), min_size=1, unique=True),
        st.sampled_from(PR_TIE_MODES),
    )
    def test_evaluations_never_exceed_the_estimate(self, case, requested, mode):
        # every scan, A's included, reads f through ``_reader``, so each read
        # counts once, and each evaluation of f outside a read once more.
        # Each scan is bounded by its own axiom's estimate, so slack in one
        # cannot hide another's shortfall: every scan as a whole, N's with
        # its rescan, which bounds the profiles it walks; the DP, PO, RS, PR
        # and NTW scans also at each profile they check, by the evaluations
        # per profile that their estimate multiplies
        f, m, n_max = case
        reads: dict[str | None, int] = {}  # by the axiom being scanned
        per_profile = []  # (axiom, voters, reads) for each profile checked
        rescans, by_class = [], []
        scan = [None]  # the axiom being scanned
        reading = []  # the ballots being read, while a read runs
        refuse, reader, evaluate = axioms._refuse_above, axioms._reader, TabledFunction.evaluate
        scans_classes = axioms._scans_classes

        def counted():
            reads[scan[0]] = reads.get(scan[0], 0) + 1

        def counted_reader(*args):
            value = reader(*args)

            def read(ballots):
                counted()
                reading.append(ballots)
                try:
                    return value(ballots)
                finally:
                    reading.pop()

            return read

        def outside_reads(p):
            if not reading:
                counted()

        def scanning(axiom, run):
            def wrapped(*args):
                scan[0] = axiom
                try:
                    return run(*args)
                finally:
                    scan[0] = None

            return wrapped

        def checking(axiom, witness_of):
            def wrapped(value, m, ballots, tie_upgrade):
                before = reads.get(axiom, 0)
                try:
                    return scanning(axiom, witness_of)(value, m, ballots, tie_upgrade)
                finally:
                    per_profile.append((axiom, len(ballots), reads.get(axiom, 0) - before))

            return wrapped

        def refusing(cost, task):
            if task.startswith("rescanning N"):
                rescans.append(cost)
            return refuse(cost, task)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(axioms, "_refuse_above", refusing)
            mp.setattr(axioms, "_reader", counted_reader)
            mp.setattr(axioms, "_scans_classes", lambda *args: by_class.append(scans_classes(*args)) or by_class[-1])
            mp.setattr(axioms, "_anonymity_witness", scanning("A", axioms._anonymity_witness))
            mp.setattr(axioms, "_neutrality_witness", scanning("N", axioms._neutrality_witness))
            for ax, (witness_of, n_min) in axioms._SCANS.items():
                mp.setitem(axioms._SCANS, ax, (checking(ax, witness_of), n_min))
            if isinstance(f, Rule):
                rule = f
                f = Rule(rule.name, lambda p: outside_reads(p) or rule.evaluate(p))
            else:
                mp.setattr(TabledFunction, "evaluate", lambda self, p: outside_reads(p) or evaluate(self, p))
            check_axioms(f, m, n_max, requested, mode)
        assert None not in reads
        (classes,) = by_class
        ordered = not classes
        assert reads.get("A", 0) <= check_cost("A", m, n_max)
        assert reads.get("N", 0) <= check_cost("N", m, n_max, tabled=True, ordered=ordered) + sum(rescans)
        for ax in axioms._SCANS:
            assert reads.get(ax, 0) <= check_cost(ax, m, n_max, tabled=True, ordered=ordered), ax
        for ax, n, count in per_profile:
            assert count <= axioms._evaluations_per_class(ax, m, n, ordered), (ax, n)


# The checkers' scans as written over Profile objects, before they walked
# ballot tuples through one reader, kept as the reference of the tuple scans:
# f is read as a Profile, through its class values when it passed A.


class _ProfileClassValues:
    def __init__(self, f, m, values):
        self.f, self.m, self.values = f, m, values

    def evaluate(self, p):
        out = self.values.get(p.ballots, axioms._UNEVALUATED)
        if out is axioms._UNEVALUATED:
            key = tuple(sorted(p.ballots))
            out = self.values.get(key, axioms._UNEVALUATED)
            if out is axioms._UNEVALUATED:
                out = self.values[key] = self.f.evaluate(Profile._trusted(self.m, key))
        return out


def _profile_stream(m, n_min, n_max, by_class):
    for n in range(n_min, n_max + 1):
        yield from enumerate_profiles(m, n, canonical_only=by_class)


def _profile_first_witness(witness_of, f, profiles, tie_upgrade):
    for p in profiles:
        w = witness_of(f, p, tie_upgrade)
        if w is not None:
            return w
    return None


def _profile_relabeling_witness(f, p, relabelings):
    out = f.evaluate(p)
    for tau in relabelings:
        permuted = apply_candidate_permutation(p, tau)
        actual = f.evaluate(permuted)
        expected = _relabel(tau, out)
        if actual != expected:
            return Witness(profile=p, related_profile=permuted, permutation=tau, actual=actual, expected=expected)
    return None


def _relabelings(m):
    """The images of the m! candidate permutations, in lexicographic order."""
    return tuple(permutations(range(1, m + 1)))


def _profile_neutrality_witness(f, m, n_max, by_class):
    generators = [lookup[1:] for lookup in axioms._generators(m)]
    for scanned, p in enumerate(_profile_stream(m, 1, n_max, by_class), start=1):
        if m == 2:
            w = _profile_relabeling_witness(f, p, generators)
            if w is not None:
                return w
            continue
        try:
            if _profile_relabeling_witness(f, p, generators) is None:
                continue
        except IncompleteTableError:
            pass
        axioms._refuse_above(scanned * (1 + math.factorial(m)), f"rescanning N for its witness at m={m}, n_max={n_max}")
        for q in islice(_profile_stream(m, 1, n_max, by_class), scanned):
            w = _profile_relabeling_witness(f, q, _relabelings(m))
            if w is not None:
                return w
        raise RuntimeError("f fails N under a generator but under no relabeling: it is not deterministic")
    return None


def _profile_support(p):
    counts = ballot_counts(p)
    return tuple(k for k in range(1, p.m + 1) if counts[k])


def _profile_leaders(p):
    counts = ballot_counts(p)
    top = max(counts[1:])
    return tuple(k for k in range(1, p.m + 1) if counts[k] == top)


def _profile_duel_property(f, p, tie_upgrade):
    support = _profile_support(p)
    if len(support) > 2:
        return None
    out = f.evaluate(p)
    if out == 0 or out in support:
        return None
    for i, j in axioms._duel_pairs(support, p.m):
        if out not in (0, i, j):
            return Witness(profile=p, pair=(i, j), actual=out, note="outcome outside {0, i, j}")
    return None


def _profile_pareto(f, p, tie_upgrade):
    support = _profile_support(p)
    if len(support) != 1:
        return None
    k = support[0]
    out = f.evaluate(p)
    if out != k:
        return Witness(profile=p, candidate=k, expected=k, actual=out)
    return None


def _profile_reduce(f, p):
    m, ballots = p.m, p.ballots
    reduced, outcomes = [], []
    for l, b in enumerate(ballots):
        if l == 0 or b != ballots[l - 1]:
            out = f.evaluate(Profile._trusted(m, ballots[:l] + ballots[l + 1 :]))
            outcomes.append(out)
        reduced.append(out)
    if all(0 <= out <= m for out in outcomes):
        return Profile._trusted(m, tuple(reduced))
    return Profile(m, tuple(reduced))


def _profile_reducibility(f, p, tie_upgrade):
    lhs = f.evaluate(p)
    reduced = _profile_reduce(f, p)
    rhs = f.evaluate(reduced)
    if lhs != rhs:
        return Witness(profile=p, related_profile=reduced, actual=lhs, expected=rhs)
    return None


def _profile_responsiveness(f, p, tie_upgrade):
    m = p.m
    out = f.evaluate(p)
    if out == 0:
        targets = {"always": tuple(range(1, m + 1)), "leaders": _profile_leaders(p), "wins": ()}[tie_upgrade]
        note = f"pr:tie:{tie_upgrade}"
    else:
        if not 0 < out <= m:
            raise ValueError(f"outcome {out} outside [0, {m}]")
        targets = (out,)
        note = "pr:win"
    for k in targets:
        for l in range(1, p.n + 1):
            if p.ballots[l - 1] == k:
                continue
            upgraded = Profile._trusted(m, p.ballots[: l - 1] + (k,) + p.ballots[l:])
            actual = f.evaluate(upgraded)
            if actual != k:
                return Witness(
                    profile=p, related_profile=upgraded, candidate=k, voter=l, expected=k, actual=actual, note=note
                )
    return None


def _profile_no_tied_winner(f, p, tie_upgrade):
    counts = ballot_counts(p)
    out = f.evaluate(p)
    if out == 0:
        return None
    for i in range(1, p.m + 1):
        for j in range(i + 1, p.m + 1):
            if counts[i] == counts[j] and out in (i, j):
                return Witness(profile=p, pair=(i, j), actual=out, note="tied pair won")
    return None


_PROFILE_SCANS = {
    "DP": (_profile_duel_property, 1),
    "PO": (_profile_pareto, 1),
    "RS": (_profile_reducibility, 2),
    "PR": (_profile_responsiveness, 1),
    "NTW": (_profile_no_tied_winner, 1),
}


def _profile_check_axioms(f, m, n_max, requested, tie_upgrade):
    """check_axioms over Profile objects: the same refusals and A scan, then
    each other axiom's Profile scan."""
    if "RS" in requested and n_max < 2:
        raise ValueError("the reduction axiom needs a voter bound of at least 2")
    require_feasible(requested, f, m, n_max)
    others = [ax for ax in requested if ax != "A"]
    tabled = isinstance(f, TabledFunction)
    values = {}
    scans_anonymity = "A" in requested or (others and not tabled)
    anonymity = axioms._anonymity_witness(f, m, n_max, values) if scans_anonymity else None
    by_class = axioms._scans_classes(f, anonymity)
    if not by_class:
        require_feasible(others, f, m, n_max, ordered=True)
    elif not tabled:
        f = _ProfileClassValues(f, m, values)
    witnesses = {"A": anonymity}
    for ax in others:
        if ax == "N":
            witnesses[ax] = _profile_neutrality_witness(f, m, n_max, by_class)
        else:
            witness_of, n_min = _PROFILE_SCANS[ax]
            stream = _profile_stream(m, n_min, n_max, by_class)
            witnesses[ax] = _profile_first_witness(witness_of, f, stream, tie_upgrade)
    return [AxiomReport(ax, m, n_max, witnesses[ax] is None, witnesses[ax]) for ax in requested]


def _check_outcome(check, f, m, n_max, requested, mode):
    """What ``check`` observably does with f: its reports or raised error,
    and, unless f is a table, the profiles f is evaluated on."""
    calls = []
    if not isinstance(f, TabledFunction):
        f = Rule("recorded", lambda p, f=f: calls.append(p.ballots) or f.evaluate(p))
    try:
        result = [r.to_dict() for r in check(f, m, n_max, requested, mode)]
    except Exception as exc:  # every error must be the reference's
        result = (type(exc), exc.args)
    return result, calls


@st.composite
def raw_tables(draw):
    """A table at a scope with m = 2..4, n_max = 1..4: random, or majority's
    with a few entries changed, so that scans get past the first levels;
    validated or built as the library builds its own; with a few entries
    missing or none.  Checked at its own scope, or at one with a candidate
    fewer or more or a voter more."""
    m, n_max = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    classes = [c for n in range(1, n_max + 1) for c in combinations_with_replacement(range(m + 1), n)]
    if draw(st.booleans()):
        table = {c: rnd.randint(0, m) for c in classes}
    else:
        table = dict(TabledFunction.from_rule(MAJ, m, n_max).table)
        for changed in rnd.sample(classes, min(len(classes), draw(st.integers(0, 2)))):
            table[changed] = rnd.randint(0, m)
    for missing in rnd.sample(classes, min(len(classes), draw(st.integers(0, 3)))):
        del table[missing]
    make = TabledFunction if draw(st.booleans()) else TabledFunction._trusted
    scope = draw(st.sampled_from([(m, n_max), (m, n_max), (max(2, m - 1), n_max), (m + 1, n_max), (m, n_max + 1)]))
    return (*scope, make(m, n_max, table))


class TestTupleScans:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(scan_cases(), raw_tables()), st.booleans())
    def test_equal_the_profile_scans(self, case, with_anonymity):
        # reports, raised errors and the profiles a function that is not a
        # table is evaluated on are those of the Profile scans; a table is
        # read, never written
        m, n_max, f = case
        before = dict(f.table) if isinstance(f, TabledFunction) else None
        for ax, mode in [(ax, "leaders") for ax in ("N", "DP", "PO", "RS", "NTW")] + [("PR", t) for t in PR_TIE_MODES]:
            requested = ["A", ax] if with_anonymity else [ax]
            got = _check_outcome(check_axioms, f, m, n_max, requested, mode)
            assert got == _check_outcome(_profile_check_axioms, f, m, n_max, requested, mode), (ax, mode)
            if before is not None:
                assert f.table == before


# The four reports' ``to_dict`` bodies as written by hand before one rule,
# ``axioms._document``, wrote every report: the reference for that rule.
# Each nested report goes to its reference body, not to its ``to_dict``.


def _witness_to_dict(self) -> dict:
    doc: dict = {"profile": format_profile(self.profile), "actual": self.actual}
    if self.expected is not None:
        doc["expected"] = self.expected
    if self.related_profile is not None:
        doc["related_profile"] = format_profile(self.related_profile)
    if self.permutation is not None:
        doc["permutation"] = list(self.permutation)
    if self.pair is not None:
        doc["pair"] = list(self.pair)
    if self.candidate is not None:
        doc["candidate"] = self.candidate
    if self.voter is not None:
        doc["voter"] = self.voter
    if self.note:
        doc["note"] = self.note
    return doc


def _report_to_dict(self) -> dict:
    doc: dict = {
        "axiom": self.axiom,
        "m": self.m,
        "n_max": self.n_max,
        "pass": self.passed,
    }
    if self.witness is not None:
        doc["witness"] = _witness_to_dict(self.witness)
    return doc


def _theorem_to_dict(self) -> dict:
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


def _independence_to_dict(self) -> dict:
    return {
        "m": self.m,
        "n_max": self.n_max,
        "pass": self.passed,
        "failures": {rule: list(axs) for rule, axs in sorted(self.failures.items())},
        "mismatches": list(self.mismatches),
        "reports": {
            rule: {ax: _report_to_dict(rep) for ax, rep in sorted(by_axiom.items())}
            for rule, by_axiom in sorted(self.reports.items())
        },
    }


_REFERENCE_BODIES = {
    Witness: _witness_to_dict,
    AxiomReport: _report_to_dict,
    TheoremVerdict: _theorem_to_dict,
    IndependenceVerdict: _independence_to_dict,
}


@functools.cache
def _verdicts():
    return [
        verify_theorem(2, 4),
        verify_theorem(3, 3),
        verify_theorem(3, 3, include_dp=False),
        verify_theorem(3, 3, max_nodes=5),
        verify_independence(2, 3),
        verify_independence(3, 4),
    ]


class TestReportRule:
    # every report's to_dict() is one rule's document; it must write what
    # the hand-written body of its class wrote

    @staticmethod
    def _assert_documented_as_before(value, ordered: bool = True):
        doc, reference = value.to_dict(), _REFERENCE_BODIES[type(value)](value)
        assert cli._to_json(doc) == cli._to_json(reference)
        if ordered:
            # verify-theorem prints each key and each value's repr in
            # document order; an independence verdict's own keys now come
            # in declared order, which nothing shows, but every dict it
            # holds keeps its order
            if type(value) is IndependenceVerdict:
                doc, reference = sorted(doc.items()), sorted(reference.items())
            assert repr(doc) == repr(reference)

    def test_every_genuine_report_is_documented_as_before(self):
        for _, report in _failing_reports() + _pr_reports():
            self._assert_documented_as_before(report)
            self._assert_documented_as_before(report.witness)
        for report in check_axioms(MAJ, 3, 3, ALL_AXIOMS):
            self._assert_documented_as_before(report)

    def test_every_verdict_is_documented_as_before(self):
        verdicts = _verdicts()
        assert {type(v) for v in verdicts} == {TheoremVerdict, IndependenceVerdict}
        assert not verdicts[2].passed and not verdicts[3].exhausted
        for verdict in verdicts:
            self._assert_documented_as_before(verdict)

    @settings(max_examples=300, deadline=None)
    @given(report=untrusted_reports())
    def test_an_untrusted_report_is_documented_as_before(self, report):
        # wherever the hand-written body returns: it raised TypeError for a
        # permutation or pair that is not iterable.  A tuple it left as it
        # is, where the rule writes a list, so only the JSON text compares.
        try:
            _report_to_dict(report)
        except TypeError:
            return
        self._assert_documented_as_before(report, ordered=False)

    def test_the_malformed_witnesses_where_the_bodies_differ(self):
        # each is no witness a scan builds, and the rule writes each one
        profile = Profile(2, (1, 2))
        assert Witness(profile, 1, permutation=3, pair=2.5).to_dict()["permutation"] == 3
        assert Witness(profile, profile).to_dict()["actual"] == "2 2\n1 2\n"
        assert Witness(profile, 1, note=0).to_dict()["note"] == 0


def _sibling_imports(source: str) -> set[str]:
    """The names a module of the flat ``scfkit`` package imports from the
    package: each sibling module it names in ``from . import x``,
    ``from .x import y``, ``from scfkit.x import y``, ``from scfkit import
    x`` or ``import scfkit.x``, and ``__init__`` for a bare ``import
    scfkit``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            names.update((path[1:] or ["__init__"])[0] for path in paths if path[0] == "scfkit")
        elif isinstance(node, ast.ImportFrom):
            path = (["scfkit"] if node.level else []) + (node.module.split(".") if node.module else [])
            if path[:1] == ["scfkit"]:
                names.update(path[1:2] or [alias.name for alias in node.names])
    return names


def _imports_the_engine(module) -> bool:
    """Whether a module of the package imports the engine or its runs."""
    return bool(_sibling_imports(inspect.getsource(module)) & {"engine", "search"})


# The layers below the verdicts: what each module may import from the
# package.  The checkers are the oracle the engine's solutions are replayed
# through, so neither the checkers nor the engine may import the other.
_MAY_IMPORT = {
    "core": set(),
    "rules": {"core"},
    "axioms": {"core", "rules"},
    "engine": {"core", "rules"},
}


class TestOracleIndependence:
    def test_checkers_do_not_import_the_engine(self):
        # the checkers are the oracle the engine's solutions are replayed
        # through, so neither they nor what they build on may use the engine
        for module in (core, rules, axioms):
            assert not _imports_the_engine(module), module.__name__

    def test_the_import_scan_sees_the_engine(self):
        # ``from .search import ...`` and ``from . import ..., search``
        assert _imports_the_engine(cli) and _imports_the_engine(scfkit)

    @pytest.mark.parametrize("name", list(_MAY_IMPORT))
    def test_each_layer_imports_only_the_layers_below(self, name):
        module = importlib.import_module(f"scfkit.{name}")
        assert _sibling_imports(inspect.getsource(module)) <= _MAY_IMPORT[name]

    @pytest.mark.parametrize(
        "source,names",
        [
            ("from . import core, rules", {"core", "rules"}),
            ("from .engine import _orbits", {"engine"}),
            ("from scfkit.axioms import CHECK_MAX_COST", {"axioms"}),
            ("from scfkit import search", {"search"}),
            ("import scfkit.search as s, math", {"search"}),
            ("import scfkit", {"__init__"}),
            ("def f():\n    from .search import verify_theorem", {"search"}),
            ("import math\nfrom itertools import chain\nfrom .core import Profile", {"core"}),
        ],
    )
    def test_the_import_scan_reads_every_form(self, source, names):
        assert _sibling_imports(source) == names
