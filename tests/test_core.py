import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, strategies as st

from scfkit import axioms, core
from scfkit.core import (
    Profile,
    ProfileParseError,
    Tally,
    apply_candidate_permutation,
    ballot_counts,
    enumerate_profiles,
    format_profile,
    parse_profile,
    profile_count,
    remove_voter,
    tally,
)


@st.composite
def profiles(draw, m_max=4, n_max=5):
    m = draw(st.integers(2, m_max))
    n = draw(st.integers(1, n_max))
    ballots = tuple(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)))
    return Profile(m, ballots)


@st.composite
def profile_texts(draw):
    """Profile-shaped text whose numbers may fall outside every range."""
    small = st.integers(-1, 4).map(str)
    lines = draw(st.lists(st.lists(small, max_size=4).map(" ".join), max_size=3))
    return "\n".join(lines)


@st.composite
def profiles_with_voter_perm(draw):
    p = draw(profiles())
    image = tuple(draw(st.permutations(tuple(range(1, p.n + 1)))))
    return p, image


@st.composite
def profiles_with_candidate_perm(draw):
    p = draw(profiles())
    image = tuple(draw(st.permutations(tuple(range(1, p.m + 1)))))
    return p, image


class TestTypes:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            Profile(1, (0,))
        with pytest.raises(ValueError):
            Profile(2, ())
        with pytest.raises(ValueError):
            Profile(2, (3,))
        with pytest.raises(ValueError):
            Profile(2, (-1,))

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_profile_ballots_must_be_ints(self, bad):
        # 1.0 and True lie in [0, m] and compare equal to 1, but are no
        # ballots: the named rules would return them as outcomes
        with pytest.raises(ValueError) as err:
            Profile(2, (0, bad))
        assert str(err.value) == f"ballot {bad!r} is not an int"

    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    def test_candidate_count_must_be_an_int(self, bad):
        # Profile(2.0, ...) passed the range check, and format_profile wrote
        # a "2.0 2" header that parse_profile refuses
        with pytest.raises(ValueError) as err:
            Profile(bad, (1, 2))
        assert str(err.value) == f"candidate count {bad!r} is not an int"

    def test_profiles_with_different_m_are_distinct(self):
        assert Profile(2, (1, 2)) != Profile(3, (1, 2))

    def test_permutation_validation(self):
        # a repeated label, and one out of range
        for image in ((1, 1), (1, 2, 4)):
            m = len(image)
            with pytest.raises(ValueError) as err:
                apply_candidate_permutation(Profile(m, (1,)), image)
            assert str(err.value) == f"image {image} is not a permutation of 1..{m}"

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_permutation_images_must_be_ints(self, bad):
        # 1.0 and True sort as 1: the image (1.0, 2) passed the sorted check,
        # and relabeled a profile's ballots to floats or indexed a list by one
        with pytest.raises(ValueError) as err:
            apply_candidate_permutation(Profile(2, (1, 2)), (bad, 2))
        assert str(err.value) == f"image {(bad, 2)} is not a permutation of 1..2"

    def test_tally_accounts_for_everyone(self):
        t = tally(Profile(3, (3, 0, 3, 1)))
        assert t.counts == (1, 0, 2)
        assert t.abstentions == 1
        assert t.abstentions + sum(t.counts) == 4

    def test_tally_leaders(self):
        assert tally(Profile(3, (1, 1, 2))).leaders() == (1,)
        assert tally(Profile(3, (1, 2))).leaders() == (1, 2)
        assert tally(Profile(3, (0, 0))).leaders() == (1, 2, 3)

    @pytest.mark.parametrize(
        "t,built,other,field",
        [
            (tally(Profile(3, (3, 0, 3, 1))), Tally(3, (1, 0, 2), 1), Tally(4, (1, 0, 2), 1), "counts"),
            (Profile._trusted(3, (3, 0, 3, 1)), Profile(3, (3, 0, 3, 1)), Profile(4, (3, 0, 3, 1)), "ballots"),
        ],
        ids=["tally", "trusted-profile"],
    )
    def test_tally_is_a_frozen_value(self, t, built, other, field):
        assert type(t) is type(built)
        assert t == built and hash(t) == hash(built)
        assert t != other
        with pytest.raises(FrozenInstanceError):
            setattr(t, field, (0, 0, 0))
        assert t == built


class TestOperations:
    @pytest.mark.parametrize(
        "ballots,counts,abst",
        [
            ((1, 1, 2), (2, 1, 0), 0),
            ((3, 0, 3, 1), (1, 0, 2), 1),
        ],
    )
    def test_tally_examples_m3(self, ballots, counts, abst):
        t = tally(Profile(3, ballots))
        assert t.counts == counts and t.abstentions == abst

    def test_tally_all_abstain(self):
        t = tally(Profile(2, (0, 0)))
        assert t.counts == (0, 0) and t.abstentions == 2

    @given(profiles(m_max=6, n_max=8))
    def test_ballot_counts_count_each_value(self, p):
        counts = ballot_counts(p)
        assert counts == [p.ballots.count(b) for b in range(p.m + 1)]
        assert tally(p) == Tally(p.m, tuple(counts[1:]), counts[0])
        # a fresh list each call: callers may overwrite it
        counts[0] = -1
        assert ballot_counts(p)[0] == p.ballots.count(0)

    def test_candidate_permutation_swap(self):
        assert apply_candidate_permutation(Profile(2, (1, 2)), (2, 1)).ballots == (2, 1)

    def test_candidate_permutation_fixes_abstentions(self):
        p = Profile(2, (0, 0))
        for image in ((1, 2), (2, 1)):
            assert apply_candidate_permutation(p, image) == p

    def test_candidate_permutation_cycle(self):
        assert apply_candidate_permutation(Profile(3, (3, 1)), (2, 3, 1)).ballots == (1, 2)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_candidate_permutation_relabels_each_ballot_by_outcome(self, m):
        # every relabeling, on every ballot value, alone, in pairs and all
        # together in both orders
        values = range(m + 1)
        cases = [(b,) for b in values] + [(a, b) for a in values for b in values]
        cases += [tuple(values), tuple(reversed(values))]
        for image in permutations(range(1, m + 1)):
            for ballots in cases:
                got = apply_candidate_permutation(Profile(m, ballots), image)
                assert got == Profile(m, tuple(_relabel(image, b) for b in ballots))

    def test_candidate_permutation_m_mismatch(self):
        # an image over two candidates is no relabeling of three
        with pytest.raises(ValueError) as err:
            apply_candidate_permutation(Profile(3, (1,)), (2, 1))
        assert str(err.value) == "image (2, 1) is not a permutation of 1..3"

    def test_remove_voter(self):
        p = Profile(2, (1, 1, 2))
        assert remove_voter(p, 3).ballots == (1, 1)
        assert remove_voter(p, 1).ballots == (1, 2)
        assert remove_voter(Profile(2, (0, 2)), 2).ballots == (0,)

    def test_remove_voter_errors(self):
        with pytest.raises(ValueError):
            remove_voter(Profile(2, (1,)), 1)
        with pytest.raises(IndexError):
            remove_voter(Profile(2, (1, 2)), 3)
        with pytest.raises(IndexError):
            remove_voter(Profile(2, (1, 2)), 0)

    @pytest.mark.parametrize(
        "ballots,expected",
        [((2, 0, 1), (0, 1, 2)), ((1, 1, 2), (1, 1, 2)), ((3, 3, 0, 1), (0, 1, 3, 3))],
    )
    def test_canonicalize(self, ballots, expected):
        # A's witness sorts a profile by its sorting permutation
        p = Profile(3, ballots)
        assert _apply_voter_permutation(p, axioms._sorting_permutation(p)).ballots == expected


class TestEnumeration:
    def test_counts_match_formulas(self):
        assert len(list(enumerate_profiles(2, 3))) == 27 == profile_count(2, 3)
        assert len(list(enumerate_profiles(2, 3, canonical_only=True))) == 10
        assert profile_count(2, 3, canonical_only=True) == 10

    def test_single_voter_enumeration(self):
        assert [p.ballots for p in enumerate_profiles(3, 1)] == [(0,), (1,), (2,), (3,)]

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_enumeration_is_exact_and_distinct(self, m, n):
        full = [p.ballots for p in enumerate_profiles(m, n)]
        assert len(full) == len(set(full)) == profile_count(m, n)
        assert full == sorted(full)
        canon = [p.ballots for p in enumerate_profiles(m, n, canonical_only=True)]
        assert len(canon) == len(set(canon)) == profile_count(m, n, canonical_only=True)
        assert all(list(b) == sorted(b) for b in canon)
        # one representative per anonymity class
        assert set(canon) == {tuple(sorted(b)) for b in full}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_profiles(1, 2))
        with pytest.raises(ValueError):
            list(enumerate_profiles(2, 0))

    @pytest.mark.parametrize(
        "m,n,message",
        [
            (2.0, 2, "candidate count 2.0 is not an int"),
            (2, 2.0, "voter count 2.0 is not an int"),
            (2, True, "voter count True is not an int"),
        ],
    )
    def test_scope_must_be_ints(self, m, n, message):
        with pytest.raises(ValueError) as err:
            list(enumerate_profiles(m, n))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "m,n,message",
        [
            (2.0, 3, "candidate count 2.0 is not an int"),
            (2, 3.5, "voter count 3.5 is not an int"),
            (2, -1, "voter count must be >= 1, got -1"),
            (True, 3, "candidate count True is not an int"),
            (1, 3, "candidate count must be >= 2, got 1"),
        ],
    )
    @pytest.mark.parametrize("canonical_only", [False, True])
    def test_profile_count_refuses_what_enumeration_refuses(self, m, n, message, canonical_only):
        # the same scope check and message as enumerate_profiles, not a
        # float, a fraction or a count of a scope with no profiles
        with pytest.raises(ValueError) as err:
            profile_count(m, n, canonical_only)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            list(enumerate_profiles(m, n, canonical_only))
        assert str(err.value) == message


class TestProfileStream:
    @pytest.mark.parametrize("n_max", range(1, 6))
    @pytest.mark.parametrize("m", range(2, 7))
    def test_yields_each_class_in_enumeration_order(self, m, n_max):
        stream = list(core._profiles(m, 1, n_max, True))
        assert stream == [c for n in range(1, n_max + 1) for c in combinations_with_replacement(range(m + 1), n)]
        assert stream == [p.ballots for n in range(1, n_max + 1) for p in enumerate_profiles(m, n, canonical_only=True)]
        for b in stream:
            assert core._counts(m, b) == [sum(x == v for x in b) for v in range(m + 1)], b

    @pytest.mark.parametrize("m,n_min,n_max", [(2, 1, 3), (3, 2, 4), (4, 3, 3)])
    def test_yields_every_ordered_profile_of_its_levels(self, m, n_min, n_max):
        stream = list(core._profiles(m, n_min, n_max, False))
        assert stream == [c for n in range(n_min, n_max + 1) for c in product(range(m + 1), repeat=n)]


def _relabel(image: tuple[int, ...], value: int) -> int:
    """The relabeling with this image applied to one ballot or outcome; 0 stays 0."""
    return 0 if value == 0 else image[value - 1]


def _apply_voter_permutation(p: Profile, image: tuple[int, ...]) -> Profile:
    """Reorder ballots: the result's ballot at position image[l] is p's at l."""
    out = [0] * p.n
    for l in range(p.n):
        out[image[l] - 1] = p.ballots[l]
    return Profile(p.m, tuple(out))


class TestProperties:
    @given(profiles_with_voter_perm())
    def test_tally_invariant_under_voter_permutation(self, case):
        p, sigma = case
        assert tally(_apply_voter_permutation(p, sigma)) == tally(p)

    @given(profiles_with_candidate_perm())
    def test_tally_pushforward_under_candidate_permutation(self, case):
        p, tau = case
        before = tally(p)
        after = tally(apply_candidate_permutation(p, tau))
        for k in range(1, p.m + 1):
            assert after.count(_relabel(tau, k)) == before.count(k)
        assert after.abstentions == before.abstentions

    @given(profiles())
    def test_canonicalize_idempotent_and_tally_preserving(self, p):
        c = _apply_voter_permutation(p, axioms._sorting_permutation(p))
        assert axioms._sorting_permutation(c) == tuple(range(1, c.n + 1))
        assert tally(c) == tally(p)
        assert sorted(c.ballots) == list(c.ballots)

    @given(profiles().filter(lambda p: p.n >= 2), st.data())
    def test_remove_voter_drops_one_occurrence(self, p, data):
        l = data.draw(st.integers(1, p.n))
        smaller = remove_voter(p, l)
        expected = list(p.ballots)
        expected.remove(p.ballots[l - 1])
        assert sorted(smaller.ballots) == sorted(expected)
        assert smaller.n == p.n - 1


def _assert_like_validated(p: Profile) -> None:
    """p equals, and hashes like, the same profile built by validation."""
    assert type(p.ballots) is tuple
    built = Profile(p.m, tuple(p.ballots))
    assert p == built and hash(p) == hash(built)
    assert (p.m, p.n) == (built.m, built.n)


class TestTrustedProfiles:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 2), (4, 2)])
    @pytest.mark.parametrize("canonical_only", [False, True])
    def test_enumerated_profiles_match_validated_ones(self, m, n, canonical_only):
        for p in enumerate_profiles(m, n, canonical_only=canonical_only):
            _assert_like_validated(p)
            assert p.m == m

    @given(profiles_with_candidate_perm())
    def test_candidate_permutation_output(self, case):
        _assert_like_validated(apply_candidate_permutation(*case))

    @given(profiles().filter(lambda p: p.n >= 2), st.data())
    def test_remove_voter_output(self, p, data):
        _assert_like_validated(remove_voter(p, data.draw(st.integers(1, p.n))))

    @given(profiles())
    def test_canonicalize_output(self, p):
        # A's witness carries p's canonical form, built without validation
        related = axioms._unsorted_witness(p.m, p.ballots, 1, 0).related_profile
        assert related.ballots == tuple(sorted(p.ballots))
        _assert_like_validated(related)

    @pytest.mark.parametrize("m,n_max", [(2, 4), (3, 3)])
    def test_trusted_profiles_are_validated_ones_without_a_dict(self, m, n_max):
        for n in range(1, n_max + 1):
            for ballots in product(range(m + 1), repeat=n):
                trusted, built = Profile._trusted(m, ballots), Profile(m, ballots)
                assert trusted == built and hash(trusted) == hash(built)
                assert repr(trusted) == repr(built)
                for p in (trusted, built):
                    assert not hasattr(p, "__dict__")
                    copies = [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
                    for copied in [*copies, copy.deepcopy(p)]:
                        assert type(copied) is Profile and copied == built and hash(copied) == hash(built)

    def test_public_construction_still_validates(self):
        for m, ballots in [(1, (0,)), (2, ()), (2, (3,)), (3, (1, -1)), (2, [1, 5])]:
            with pytest.raises(ValueError):
                Profile(m, ballots)
        assert Profile(2, [1, 0]).ballots == (1, 0)
        for text in ["1 1\n0\n", "2 0\n\n", "2 1\n3\n", "3 2\n1 -1\n"]:
            with pytest.raises(ProfileParseError):
                parse_profile(text)


class TestTextFormat:
    def test_documented_example(self):
        p = parse_profile("3 3\n1 1 2")
        assert p == Profile(3, (1, 1, 2))
        assert format_profile(p) == "3 3\n1 1 2\n"

    @given(profiles())
    def test_round_trip(self, p):
        text = format_profile(p)
        assert parse_profile(text) == p
        assert format_profile(parse_profile(text)) == text

    @pytest.mark.parametrize(
        "text,line",
        [
            ("3 3\n1 1\n", 2),
            ("3\n1 1 2\n", 1),
            ("a b\n1 1 2\n", 1),
            ("3 3\n1 1 9\n", 2),
            ("3 3\n1 x 2\n", 2),
            ("1 1\n0\n", 1),
            ("3 3\n1 1 2\nextra\n", 3),
        ],
    )
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,message",
        [("1 1\n0\n", "candidate count must be >= 2, got 1"), ("2 0\n1\n", "voter count must be >= 1, got 0")],
    )
    def test_header_range_errors(self, text, message):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(text)
        assert str(err.value) == f"line 1: {message}"

    @given(st.one_of(st.text(), profile_texts()))
    def test_any_text_round_trips_or_reports_a_line(self, text):
        try:
            p = parse_profile(text)
        except ProfileParseError as exc:
            assert exc.line is not None and exc.line >= 1
        else:
            assert parse_profile(format_profile(p)) == p
