import copy
import pickle
import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from scfkit import rules
from scfkit.axioms import check_axioms
from scfkit.core import Profile, enumerate_profiles
from scfkit.rules import (
    RULES,
    IncompleteTableError,
    Rule,
    TabledFunction,
    TableParseError,
    constant_zero,
    lexicographic_first,
    majority_rule,
    unanimity_consent,
)


@st.composite
def profiles(draw, m_max=4, n_max=5):
    m = draw(st.integers(2, m_max))
    n = draw(st.integers(1, n_max))
    return Profile(m, tuple(draw(st.lists(st.integers(0, m), min_size=n, max_size=n))))


@st.composite
def table_texts(draw):
    """Table-shaped text whose numbers may fall outside every range."""
    small = st.integers(-1, 4).map(str)
    header = draw(st.lists(small, min_size=1, max_size=3))
    entries = draw(st.lists(st.tuples(st.lists(small, max_size=4), small), max_size=6))
    lines = [" ".join(header)] + [f"{' '.join(key)} -> {out}" for key, out in entries]
    return "\n".join(lines)


# keys' ballots and outcomes a caller may hand a table: ints in and out of
# range, and values equal to ints that are no ballots
_ENTRY_VALUES = st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from([0.0, 1.0, 2.0]))


def _reference_text(t):
    """The table text with a str() per ballot and outcome, to_text's
    reference."""
    lines = [f"{t.m} {t.n_max}"]
    for key in sorted(t.table, key=lambda k: (len(k), k)):
        lines.append(f"{' '.join(str(b) for b in key)} -> {t.table[key]}")
    return "\n".join(lines) + "\n"


class TestMajorityRule:
    @pytest.mark.parametrize(
        "m,ballots,expected",
        [
            (2, (1, 1, 2), 1),
            (2, (1, 2), 0),
            (2, (0, 0, 0), 0),
            (3, (1, 2, 3), 0),
            (3, (0, 0, 2), 2),
            (4, (3, 3, 1, 2), 3),
        ],
    )
    def test_examples(self, m, ballots, expected):
        assert majority_rule(Profile(m, ballots)) == expected

    @given(profiles())
    def test_matches_unique_strict_maximum_oracle(self, p):
        # independent derivation: winner iff a single candidate holds the
        # strictly largest positive count
        counts = [0] * p.m
        for b in p.ballots:
            if b:
                counts[b - 1] += 1
        top = max(counts)
        winners = [k + 1 for k, c in enumerate(counts) if c == top]
        expected = winners[0] if top > 0 and len(winners) == 1 else 0
        assert majority_rule(p) == expected


class TestOtherRules:
    @pytest.mark.parametrize(
        "m,ballots,expected",
        [(3, (1, 1, 2), 0), (3, (0, 0, 1), 1), (2, (0, 0), 0), (2, (0, 2, 2), 2)],
    )
    def test_unanimity_consent(self, m, ballots, expected):
        assert unanimity_consent(Profile(m, ballots)) == expected

    @given(profiles())
    def test_unanimity_wins_iff_single_supported_candidate(self, p):
        supported = {b for b in p.ballots if b}
        out = unanimity_consent(p)
        assert (out != 0) == (len(supported) == 1)
        if out:
            assert supported == {out}

    @pytest.mark.parametrize(
        "m,ballots,expected",
        [(2, (2, 1), 1), (2, (0, 0, 0), 0), (3, (3, 0, 2), 2), (4, (0, 4), 4)],
    )
    def test_lexicographic_first(self, m, ballots, expected):
        assert lexicographic_first(Profile(m, ballots)) == expected

    @given(profiles())
    def test_lexicographic_zero_iff_all_abstain(self, p):
        assert (lexicographic_first(p) == 0) == all(b == 0 for b in p.ballots)

    def test_constant_zero(self):
        for ballots in [(1,), (0, 0), (1, 1, 1)]:
            assert constant_zero(Profile(2, ballots)) == 0

    def test_registry(self):
        assert set(RULES) == {"maj", "uc", "lex", "zero"}
        assert RULES["maj"].evaluate(Profile(2, (1, 1, 2))) == 1

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_named_rules_are_anonymous(self, name):
        rule = RULES[name]
        for m, n_max in [(2, 4), (3, 3), (4, 2)]:
            for n in range(1, n_max + 1):
                for p in enumerate_profiles(m, n):
                    assert rule.evaluate(p) == rule.evaluate(Profile(m, tuple(sorted(p.ballots))))

    def test_majority_is_neutral_at_small_scale(self):
        from itertools import permutations

        from scfkit.core import apply_candidate_permutation

        for m, n_max in [(2, 3), (3, 3)]:
            for image in permutations(range(1, m + 1)):
                relabel = (0, *image).__getitem__  # 0 stays 0, k becomes image[k-1]
                for n in range(1, n_max + 1):
                    for p in enumerate_profiles(m, n):
                        lhs = majority_rule(apply_candidate_permutation(p, image))
                        assert lhs == relabel(majority_rule(p))


def _brute_force(name: str, p: Profile) -> int:
    """The named rule from its definition, by counting each candidate."""
    votes = {k: sum(b == k for b in p.ballots) for k in range(1, p.m + 1)}
    voted = [k for k in votes if votes[k]]
    if name == "maj":
        winners = [k for k in voted if all(votes[k] > votes[j] for j in votes if j != k)]
        return winners[0] if winners else 0
    if name == "uc":
        return voted[0] if len(voted) == 1 else 0
    return min(voted, default=0)


class TestCountingRules:
    # (12, 3) and (40, 2): m far above n, where only the ballots present count
    @pytest.mark.parametrize("m,n_max", [(2, 6), (3, 5), (4, 4), (12, 3), (40, 2)])
    @pytest.mark.parametrize("name", ["maj", "uc", "lex"])
    def test_equal_the_brute_force_definition_on_every_profile(self, name, m, n_max):
        rule = RULES[name]
        for n in range(1, n_max + 1):
            for p in enumerate_profiles(m, n):
                assert rule.evaluate(p) == _brute_force(name, p), p.ballots


def _sorted_lookup(t: TabledFunction, p: Profile) -> int:
    """Table lookup as written before the unsorted-first lookup: always by
    the sorted ballots."""
    key = tuple(sorted(p.ballots))
    if key not in t.table:
        raise IncompleteTableError(key)
    return t.table[key]


def _lookup(evaluate, p: Profile):
    try:
        return evaluate(p)
    except IncompleteTableError as exc:
        return ("missing", exc.ballots)


class TestTabledFunction:
    def test_lookup_equals_the_sorted_key_lookup(self):
        # on every ordered profile at (3, 4), complete and with each single
        # entry removed: the same outcome, or a miss naming the same class
        m, n_max = 3, 4
        full = TabledFunction.from_rule(RULES["maj"], m, n_max)
        profiles = [p for n in range(1, n_max + 1) for p in enumerate_profiles(m, n)]
        tables = [full] + [
            TabledFunction(m, n_max, {k: v for k, v in full.table.items() if k != missing})
            for missing in full.table
        ]
        misses = 0
        for t in tables:
            for p in profiles:
                got = _lookup(t.evaluate, p)
                assert got == _lookup(lambda q: _sorted_lookup(t, q), p), (len(t.table), p.ballots)
                misses += isinstance(got, tuple)
        # each class is removed from one table, and missed there by each of
        # its orderings
        assert misses == len(profiles)

    def test_lookup_goes_through_canonical_form(self):
        t = TabledFunction(2, 2, {(1, 2): 0})
        assert t.evaluate(Profile(2, (2, 1))) == 0

    def test_missing_entry_is_incomplete_not_argument_error(self):
        t = TabledFunction(2, 2, {(1, 2): 0})
        with pytest.raises(IncompleteTableError):
            t.evaluate(Profile(2, (1, 1)))
        with pytest.raises(ValueError):
            t.evaluate(Profile(3, (1, 1)))
        with pytest.raises(ValueError):
            t.evaluate(Profile(2, (1, 1, 1)))

    def test_from_rule_matches_rule_on_all_profiles(self):
        t = TabledFunction.from_rule(RULES["maj"], 2, 2)
        assert set(t.table) == {(0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
        assert t.evaluate(Profile(2, (1, 0))) == 1
        for n in (1, 2):
            for p in enumerate_profiles(2, n):
                assert t.evaluate(p) == majority_rule(p)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_from_rule_names_the_first_out_of_range_outcome(self, bad):
        # the message of the validating constructor, raised once every class
        # has been evaluated
        calls = []

        def fn(p):
            calls.append(p.ballots)
            return bad if p.ballots in ((1, 2), (3, 3)) else 0

        with pytest.raises(ValueError) as err:
            TabledFunction.from_rule(Rule("bad", fn), 3, 2)
        assert str(err.value) == f"outcome {bad} for (1, 2) outside [0, 3]"
        assert calls == [p.ballots for n in (1, 2) for p in enumerate_profiles(3, n, canonical_only=True)]

    def test_from_rule_equals_the_per_class_tabulation(self):
        # the table a dict comprehension of Profile._trusted and evaluate
        # builds, for a Rule (called through its fn), a Rule subclass that
        # overrides evaluate, and any object with evaluate; each is read in
        # class order, once per class
        class Doubled(Rule):
            def evaluate(self, p):
                return min(2 * self.fn(p), p.m)

        class Plain:
            def __init__(self):
                self.seen = []

            def evaluate(self, p):
                self.seen.append(p.ballots)
                return p.ballots[-1]

        m, n_max = 3, 4
        classes = [ballots for n in range(1, n_max + 1) for ballots in combinations_with_replacement(range(m + 1), n)]
        for f in (RULES["maj"], Doubled("doubled", lexicographic_first), Plain()):
            old = {ballots: f.evaluate(Profile._trusted(m, ballots)) for ballots in classes}
            if isinstance(f, Plain):
                f.seen.clear()
            t = TabledFunction.from_rule(f, m, n_max)
            assert t.table == old and list(t.table) == classes
            if isinstance(f, Plain):
                assert f.seen == classes

    def test_from_rule_raises_at_the_same_profile(self):
        # a function that raises stops the tabulation at the profile it
        # raises on, as the dict comprehension did
        calls = []

        def fn(p):
            calls.append(p)
            if p.ballots == (1, 2):
                raise KeyError(p.ballots)
            return 0

        with pytest.raises(KeyError) as err:
            TabledFunction.from_rule(Rule("raises", fn), 3, 2)
        assert err.value.args == ((1, 2),)
        assert [p.ballots for p in calls] == [(0,), (1,), (2,), (3,), (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]
        assert all(type(p) is Profile and p.m == 3 and p == Profile(3, p.ballots) for p in calls)

    def test_from_rule_checks_the_scope(self):
        for m, n_max, message in [
            (1, 2, "candidate count must be >= 2, got 1"),
            (2, 0, "voter bound must be >= 1, got 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                TabledFunction.from_rule(RULES["maj"], m, n_max)

    @pytest.mark.parametrize(
        "m,n_max,message",
        [(2.0, 2, "candidate count 2.0 is not an int"), (2, True, "voter bound True is not an int")],
    )
    def test_scope_must_be_ints(self, m, n_max, message):
        # a table of m = 2.0 wrote the header "2.0 2", which from_text refuses
        with pytest.raises(ValueError) as err:
            TabledFunction(m, n_max, {(1,): 1})
        assert str(err.value) == message

    def test_validation(self):
        with pytest.raises(ValueError):
            TabledFunction(2, 2, {(2, 1): 0})  # not canonical
        with pytest.raises(ValueError):
            TabledFunction(2, 2, {(1, 2): 5})  # outcome out of range
        with pytest.raises(ValueError):
            TabledFunction(2, 1, {(1, 2): 0})  # too many voters

    def test_table_is_read_only(self):
        # a table the checkers trust as anonymous cannot gain an unsorted key
        for t in (TabledFunction.from_rule(RULES["maj"], 2, 3), TabledFunction(2, 3, {(1, 1): 1})):
            before = dict(t.table)
            with pytest.raises(TypeError):
                t.table[(2, 1, 1)] = 2
            assert t.table == before

    def test_constructor_copies_the_callers_mapping(self):
        # editing the dict a table was built from changes neither the table
        # nor its reports: with (2, 1, 1) -> 2 in it, RS would fail there
        maj = TabledFunction.from_rule(RULES["maj"], 2, 3)
        d = dict(maj.table)
        t = TabledFunction(2, 3, d)
        reports = check_axioms(t, 2, 3, ["N", "PO", "RS"])
        assert all(r.passed for r in reports)
        d[(2, 1, 1)] = 2
        d[(1,)] = 0
        assert t.table == maj.table and t == maj
        assert t.evaluate(Profile(2, (2, 1, 1))) == 1
        assert check_axioms(t, 2, 3, ["N", "PO", "RS"]) == reports

    def test_pickle_and_copy_round_trip(self):
        for t in (TabledFunction.from_rule(RULES["maj"], 3, 3), TabledFunction(3, 2, {(0,): 0, (1, 2): 3})):
            copies = [pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for back in copies + [copy.copy(t), copy.deepcopy(t)]:
                assert back == t and back.to_text() == t.to_text()
                with pytest.raises(TypeError):
                    back.table[(1,)] = 1

    def test_text_round_trip_is_bit_exact(self):
        t = TabledFunction.from_rule(RULES["maj"], 2, 2)
        text = t.to_text()
        assert text == (
            "2 2\n"
            "0 -> 0\n"
            "1 -> 1\n"
            "2 -> 2\n"
            "0 0 -> 0\n"
            "0 1 -> 1\n"
            "0 2 -> 2\n"
            "1 1 -> 1\n"
            "1 2 -> 0\n"
            "2 2 -> 2\n"
        )
        back = TabledFunction.from_text(text)
        assert back == t
        assert back.to_text() == text

    @pytest.mark.parametrize("name", sorted(RULES))
    @pytest.mark.parametrize("m,n_max", [(2, 3), (3, 2)])
    def test_text_round_trip_all_rules(self, name, m, n_max):
        t = TabledFunction.from_rule(RULES[name], m, n_max)
        assert TabledFunction.from_text(t.to_text()) == t

    def test_partial_table_round_trips(self):
        t = TabledFunction(3, 2, {(0,): 0, (1, 2): 3})
        assert TabledFunction.from_text(t.to_text()) == t

    @pytest.mark.parametrize(
        "text",
        ["", "2\n", "2 2\n1 2 0\n", "2 2\nx -> 0\n", "2 2\n1 2 -> 0\n1 2 -> 1\n"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(TableParseError):
            TabledFunction.from_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("2 x\n", "line 1: non-integer header tokens ['2', 'x']"),
            ("2 2\n -> 1\n", "line 2: entry has no ballots"),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(TableParseError) as err:
            TabledFunction.from_text(text)
        assert str(err.value) == message

    def test_trailing_blank_lines_are_ignored(self):
        t = TabledFunction(2, 1, {(1,): 1})
        assert TabledFunction.from_text(t.to_text() + "\n  \n\n") == t

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1 2\n1 -> 1\n", 1),
            ("2 0\n", 1),
            ("2 2\n1 -> 5\n", 2),
            ("2 2\n2 1 -> 1\n", 2),
            ("2 2\n1 -> 1\n1 1 1 -> 0\n", 3),
            ("2 2\n1 -> 1\n3 -> 0\n", 3),
        ],
    )
    def test_range_errors_carry_line(self, text, line):
        with pytest.raises(TableParseError) as err:
            TabledFunction.from_text(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "table,message",
        [
            ({(1.0,): 1}, "key (1.0,): ballot 1.0 is not an int"),
            ({(True,): 1}, "key (True,): ballot True is not an int"),
            ({(3,): 1}, "key (3,): ballot 3 outside [0, 2]"),
            ({(0,): True}, "outcome True for (0,) is not an int"),
            ({(0,): 1.0}, "outcome 1.0 for (0,) is not an int"),
        ],
    )
    def test_entries_must_be_ballots(self, table, message):
        # 1.0 and True compare equal to 1, but to_text would write them as
        # "1.0" and "True", which from_text refuses
        with pytest.raises(ValueError) as err:
            TabledFunction(2, 1, table)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_from_rule_refuses_an_outcome_that_is_no_ballot(self, bad):
        with pytest.raises(ValueError) as err:
            TabledFunction.from_rule(Rule("bad", lambda p: bad if p.ballots == (1,) else 0), 2, 1)
        assert str(err.value) == f"outcome {bad!r} for (1,) is not an int"

    @given(
        st.integers(2, 3).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.dictionaries(
                    st.lists(_ENTRY_VALUES, min_size=0, max_size=3).map(tuple), _ENTRY_VALUES, max_size=5
                ),
            )
        )
    )
    def test_every_table_that_constructs_round_trips(self, scope_and_table):
        # a key or outcome that is no ballot, 1.0 or True, is refused when
        # the table is built, never written as text that does not parse back
        m, table = scope_and_table
        try:
            t = TabledFunction(m, 3, table)
        except ValueError:
            return
        text = t.to_text()
        back = TabledFunction.from_text(text)
        assert back == t and back.to_text() == text
        assert all(type(b) is int for key in back.table for b in key)

    @given(
        st.integers(2, 12).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.dictionaries(
                    st.lists(st.integers(0, m), min_size=1, max_size=3).map(sorted).map(tuple),
                    st.integers(0, m),
                    max_size=8,
                ),
            )
        )
    )
    def test_text_equals_the_per_value_str_writer(self, scope_and_table):
        # every table of sorted keys constructs; from m = 10 on, two-digit
        # values are written as str() wrote them
        m, table = scope_and_table
        t = TabledFunction(m, 3, table)
        assert t.to_text() == _reference_text(t)

    def test_text_of_a_partial_table_does_not_scale_with_m(self):
        # only the values present are named: one entry at m = 10^6 writes
        # without a string per candidate
        t = TabledFunction(10**6, 2, {(0, 999_999): 999_999})
        tracemalloc.start()
        try:
            text = t.to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "1000000 2\n0 999999 -> 999999\n"
        assert peak < 100_000

    def test_majority_round_trips_at_three_candidates_ten_voters(self, monkeypatch):
        # 1,000 entries, each checked once, on its line
        t = TabledFunction.from_rule(RULES["maj"], 3, 10)
        checked = []
        monkeypatch.setattr(rules, "_check_entry", lambda *entry: checked.append(entry[2:]))
        assert TabledFunction.from_text(t.to_text()) == t
        assert checked == sorted(t.table.items(), key=lambda e: (len(e[0]), e[0]))
        assert len(checked) == 1000

    @given(st.one_of(st.text(), table_texts()))
    def test_any_text_round_trips_or_reports_a_line(self, text):
        try:
            t = TabledFunction.from_text(text)
        except TableParseError as exc:
            assert exc.line is not None and exc.line >= 1
        else:
            assert TabledFunction.from_text(t.to_text()) == t
