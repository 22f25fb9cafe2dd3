"""Choose-one voting profiles with abstentions, tallies and relabelings.

A ballot is an int in [0, m], the one test :func:`_ballot_error` makes: 0 is
an abstention, k in [1, m] is a vote for candidate k.  Aggregation outcomes
live in the same value space (0 means a tie / no decision), so an outcome can
be fed back in as a ballot -- the subsociety-reduction axiom depends on that.
A relabeling of the candidates is its image tuple (tau(1), ..., tau(m)),
checked by :func:`_check_image`; abstention (0) is always fixed.

Count lists over [0, m] come from one place, :func:`_counts` over a ballot
tuple, which :func:`ballot_counts` calls for a profile; the named rules of
:mod:`scfkit.rules` count only the values present.  Every walk over the
profile space reads its ballot tuples from one stream, :func:`_profiles`:
one sorted tuple per anonymity class, or every ordered tuple, level by
level.  Beside it, :func:`_orbit_firsts` yields the sorted ballots of the
first class of each neutrality orbit, in the same order: it builds them
from the abstentions and the votes of each count shape
(:func:`_shape_votes`), so no class is counted or filtered.

All values here are immutable.  A :class:`Profile` has two slots and no
instance dict; trusted construction sets the slots directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, compress, product
from typing import Iterable, Iterator

__all__ = [
    "Outcome",
    "Profile",
    "Tally",
    "ProfileParseError",
    "ballot_counts",
    "tally",
    "apply_candidate_permutation",
    "remove_voter",
    "enumerate_profiles",
    "profile_count",
    "parse_profile",
    "format_profile",
    "is_all_abstention",
    "is_leader_profile",
    "is_dominating_tie",
    "classify_profile",
]

# 0 = tie/abstention, k in [1, m] = candidate k.
Outcome = int

# How a tie (outcome 0) responds to one ballot moving to candidate k:
#   leaders: f(P') = k required when k is among P's plurality co-leaders
#            (every candidate, when nobody votes).  Default.
#   always:  f(P') = k required for every k.  Majority rule itself fails
#            this for m >= 3 (a vote for an outsider cannot crown them),
#            so it is kept only as the literal two-candidate reading.
#   wins:    ties are unconstrained; only existing wins must be preserved.
PR_TIE_MODES = ("leaders", "always", "wins")

# check_cost and the search engine's cell count, which share it from here,
# stop once their count passes this: a larger count is a lower bound, and a
# refusal prints this bound instead.  Far larger scopes would otherwise take
# longer to count than to refuse.
_COST_CAP = 10**9


def _ballot_error(m: int, value) -> str | None:
    """Why ``value`` is no ballot over m candidates, or None: a ballot is an
    int in [0, m], not a bool or a float, though True and 1.0 equal 1."""
    if type(value) is not int:
        return "is not an int"
    if not 0 <= value <= m:
        return f"outside [0, {m}]"
    return None


def _check_scope(m: int, n: int | None = None, voters: str = "voter bound") -> None:
    """Refuse a candidate count m below 2 and, when given, a voter count or
    bound n below 1.  Each must be an int, not a bool or a float, as a
    ballot must (:func:`_ballot_error`)."""
    for name, value, low in (("candidate count", m, 2), (voters, n, 1))[: 1 if n is None else 2]:
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an int")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _axiom_list(axioms: str | Iterable[str]) -> list[str]:
    """The ids of an axiom list: a str is one id, such as ``"PO"``, and
    anything else is iterated."""
    return [axioms] if isinstance(axioms, str) else list(axioms)


def _check_image(size: int, image: tuple) -> None:
    """Refuse an image that does not list 1..size once each, as ints."""
    if any(_ballot_error(size, k) for k in image) or sorted(image) != list(range(1, size + 1)):
        raise ValueError(f"image {image} is not a permutation of 1..{size}")


class ProfileParseError(ValueError):
    """Profile text does not match the on-disk format; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Profile:
    """An ordered sequence of ballots over a fixed candidate count.

    ``m`` is explicit: two profiles with equal ballots but different ``m``
    are distinct values, because candidate relabelings quantify over all m
    candidates, including those receiving zero votes.

    Construction validates m, an int of at least 2, and every ballot, which
    must be an int in [0, m]: not a bool, a float or a string.  Profiles the
    library derives from valid ones (enumeration, voter removal, relabeling)
    skip that check through :meth:`_trusted`, which sets the two slots directly.
    A profile has slots, not an instance dict, so it cannot be
    weak-referenced.
    """

    m: int
    ballots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ballots", tuple(self.ballots))
        _check_scope(self.m)
        if not self.ballots:
            raise ValueError("a profile needs at least one voter")
        for b in self.ballots:
            error = _ballot_error(self.m, b)
            if error:
                raise ValueError(f"ballot {b!r} {error}")

    @classmethod
    def _trusted(cls, m: int, ballots: tuple[int, ...]) -> "Profile":
        """A profile built without validation, for ballots the library has
        derived from a valid profile: a non-empty tuple over [0, m], m >= 2."""
        p = object.__new__(cls)
        _set_m(p, m)
        _set_ballots(p, ballots)
        return p

    @property
    def n(self) -> int:
        """Number of voters."""
        return len(self.ballots)


# the slots' own setters, which the frozen class's __setattr__ would refuse
_set_m, _set_ballots = Profile.m.__set__, Profile.ballots.__set__


@dataclass(frozen=True)
class Tally:
    """Vote counts per candidate plus the abstention count.

    ``counts[k-1]`` is the number of ballots for candidate k;
    ``abstentions + sum(counts)`` equals the source profile's voter count.
    """

    m: int
    counts: tuple[int, ...]
    abstentions: int

    def count(self, k: int) -> int:
        """Votes for candidate k (1-indexed)."""
        return self.counts[k - 1]

    def leaders(self) -> tuple[int, ...]:
        """Candidates sharing the maximum vote count.

        When nobody votes, every candidate is trivially tied at zero, so all
        of them are returned.
        """
        top = max(self.counts)
        return tuple(k for k in range(1, self.m + 1) if self.counts[k - 1] == top)

    def support(self) -> tuple[int, ...]:
        """Candidates with at least one vote, ascending."""
        return tuple(k for k in range(1, self.m + 1) if self.counts[k - 1] > 0)


def _counts(m: int, ballots: tuple[int, ...]) -> list[int]:
    """How many of ``ballots`` take each value in [0, m]: ``counts[0]``
    abstentions, ``counts[k]`` votes for candidate k.  A fresh list the caller
    may edit."""
    counts = [0] * (m + 1)
    for b in ballots:
        counts[b] += 1
    return counts


def ballot_counts(p: Profile) -> list[int]:
    """How many ballots take each value: ``counts[0]`` abstentions,
    ``counts[k]`` votes for candidate k.  A fresh list the caller may edit."""
    return _counts(p.m, p.ballots)


def tally(p: Profile) -> Tally:
    """Count votes per candidate and abstentions."""
    counts = ballot_counts(p)
    return Tally(p.m, tuple(counts[1:]), counts[0])


def apply_candidate_permutation(p: Profile, image: tuple[int, ...]) -> Profile:
    """Relabel every ballot by the image tuple (tau(1), ..., tau(m)):
    candidate k becomes ``image[k-1]``; abstentions are unchanged."""
    _check_image(p.m, image)
    return Profile._trusted(p.m, tuple(map((0, *image).__getitem__, p.ballots)))


def remove_voter(p: Profile, l: int) -> Profile:
    """Delete voter l (1-indexed), preserving the order of the others."""
    if not 1 <= l <= p.n:
        raise IndexError(f"voter index {l} outside [1, {p.n}]")
    if p.n == 1:
        raise ValueError("cannot remove the only voter")
    return Profile._trusted(p.m, p.ballots[: l - 1] + p.ballots[l:])


def enumerate_profiles(m: int, n: int, canonical_only: bool = False) -> Iterator[Profile]:
    """Yield every profile in [0, m]^n in lexicographic ballot order.

    With ``canonical_only`` only sorted profiles are produced, one per
    anonymity class; both orders are deterministic, so downstream witness
    selection is stable across runs.
    """
    _check_scope(m, n, "voter count")
    trusted = Profile._trusted
    for ballots in _profiles(m, n, n, canonical_only):
        yield trusted(m, ballots)


def _profiles(m: int, n_min: int, n_max: int, by_class: bool) -> Iterator[tuple[int, ...]]:
    """The ballots of the profiles of n_min..n_max voters in (n, profile)
    order, lexicographic within a level: one sorted tuple per anonymity
    class, or every ordered tuple.  The scope is not validated."""
    values = range(m + 1)
    return chain.from_iterable(
        combinations_with_replacement(values, n) if by_class else product(values, repeat=n)
        for n in range(n_min, n_max + 1)
    )


def _shapes(total: int, top: int, room: int) -> Iterator[tuple[int, ...]]:
    """The non-increasing tuples of at most ``room`` positive counts, each
    at most ``top``, summing to ``total``, in descending lexicographic order:
    () alone when total = 0."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, top), 0, -1):
        if first * room < total:  # the parts left cannot reach the total
            return
        for tail in _shapes(total - first, first, room - 1):
            yield (first, *tail)


def _shape_votes(m: int, s_max: int) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """For each s = 0..s_max, the count shapes of s votes over m candidates
    (:func:`_shapes`), each paired with its votes: shape[0] ones, then
    shape[1] twos, and so on; () for the shape of no votes."""
    return [
        [(shape, tuple(k for k, c in enumerate(shape, 1) for _ in range(c))) for shape in _shapes(s, s, m)]
        for s in range(s_max + 1)
    ]


def _orbit_firsts(m: int, n_min: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """The sorted ballots of each neutrality orbit's first class, for the
    classes of n_min..n_max voters, in the order of the class stream of
    :func:`_profiles`: c0 zeros, then the votes of a count shape
    (non-increasing, positive), shape[0] ones, shape[1] twos, and so on.

    A relabeling keeps a class's abstentions and permutes its candidate
    counts, so an orbit is fixed by c0 and the multiset of counts, and holds
    one class per arrangement of that multiset over the m candidates.  The
    non-increasing arrangement is its first class: more zeros, then more
    ones, then more twos, and so on, come first in lexicographic order.  So
    within a level c0 falls from n to 0 and, for each, the shapes summing to
    n - c0 come in descending lexicographic order.  Each sum's shapes and
    their votes are built once per call (:func:`_shape_votes`).  The scope
    is not validated.
    """
    votes = _shape_votes(m, n_max)
    for n in range(n_min, n_max + 1):
        for c0 in range(n, -1, -1):
            zeros = (0,) * c0
            for _, ballots in votes[n - c0]:
                yield zeros + ballots


def profile_count(m: int, n: int, canonical_only: bool = False) -> int:
    """Size of the profile space: (m+1)^n, or C(n+m, m) canonical classes.
    The scope is validated as :func:`enumerate_profiles` validates it."""
    _check_scope(m, n, "voter count")
    return math.comb(n + m, m) if canonical_only else (m + 1) ** n


def parse_profile(text: str) -> Profile:
    """Parse the two-line text format: ``"m n"`` then n space-separated ballots."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != 2:
        raise ProfileParseError(f"expected 2 lines, found {len(lines)}", line=min(max(len(lines), 1), 3))
    header = lines[0].split()
    if len(header) != 2:
        raise ProfileParseError(f"expected 'm n', found {len(header)} tokens", line=1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ProfileParseError(f"non-integer header tokens {header!r}", line=1) from None
    try:
        _check_scope(m, n, "voter count")
    except ValueError as exc:
        raise ProfileParseError(str(exc), line=1) from None
    tokens = lines[1].split()
    if len(tokens) != n:
        raise ProfileParseError(f"expected {n} ballots, found {len(tokens)}", line=2)
    ballots = []
    for col, tok in enumerate(tokens, start=1):
        try:
            b = int(tok)
        except ValueError:
            raise ProfileParseError(f"column {col}: non-integer ballot {tok!r}", line=2) from None
        error = _ballot_error(m, b)
        if error:
            raise ProfileParseError(f"column {col}: ballot {b} {error}", line=2)
        ballots.append(b)
    return Profile(m, tuple(ballots))


def format_profile(p: Profile) -> str:
    """Render the canonical two-line text form (byte-stable, trailing newline)."""
    return f"{p.m} {p.n}\n{' '.join(str(b) for b in p.ballots)}\n"


# -- profile classification (the two proof cases plus the empty profile) ------


def is_all_abstention(p: Profile) -> bool:
    return not any(p.ballots)


def is_leader_profile(p: Profile) -> bool:
    """Some candidate has strictly more votes than every other candidate:
    the top count is held once (m >= 2, so nobody voting is a tie)."""
    counts = ballot_counts(p)[1:]
    return counts.count(max(counts)) == 1


def is_dominating_tie(p: Profile) -> bool:
    """Two or more candidates share the strictly highest, positive vote count."""
    counts = ballot_counts(p)[1:]
    top = max(counts)
    return top > 0 and counts.count(top) >= 2


_CASES = ("all_abstention", "dominating_tie", "leader")


def classify_profile(p: Profile) -> str:
    """The one case p falls into.  All three predicates are asked, so a
    profile in no case or in several raises :class:`RuntimeError`."""
    hits = list(compress(_CASES, (is_all_abstention(p), is_dominating_tie(p), is_leader_profile(p))))
    if len(hits) != 1:
        raise RuntimeError(f"profile {p.ballots} classified as {hits}; not a partition")
    return hits[0]
