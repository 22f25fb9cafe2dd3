"""Concrete social choice functions and the table representation used by search.

A social choice function maps profiles (fixed m, any n >= 1) to a single
outcome.  The named rules here are total and deterministic; ``TabledFunction``
is the finite, canonical-profile-keyed representation the search engine
enumerates over.

The named rules read only the ballot values present in a profile, each
counted with ``tuple.count``, so an evaluation costs O(n) at any m rather
than an (m + 1)-long count list or a :class:`~scfkit.core.Tally`.  A
table looks its key up as given and sorts only ballots that miss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping

from .core import Outcome, Profile, _ballot_error, _check_scope, _profiles, _set_ballots, _set_m

__all__ = [
    "Rule",
    "TabledFunction",
    "IncompleteTableError",
    "TableParseError",
    "majority_rule",
    "unanimity_consent",
    "lexicographic_first",
    "constant_zero",
    "RULES",
]


@dataclass(frozen=True)
class Rule:
    """A named social choice function."""

    name: str
    fn: Callable[[Profile], Outcome]

    def evaluate(self, p: Profile) -> Outcome:
        return self.fn(p)


def _evaluator(f) -> Callable[[Profile], Outcome]:
    """f's outcome at a Profile: a Rule of exactly that type through its
    ``fn``, which is all Rule.evaluate does; anything else, subclasses too,
    through evaluate."""
    return f.fn if type(f) is Rule else f.evaluate


def majority_rule(p: Profile) -> Outcome:
    """The candidate with strictly more votes than every other; 0 on any top
    tie or when nobody votes."""
    ballots = p.ballots
    supported = set(ballots)
    supported.discard(0)  # abstentions elect nobody
    best, winner = 0, 0
    for k in supported:
        votes = ballots.count(k)
        if votes > best:
            best, winner = votes, k
        elif votes == best:
            winner = 0
    return winner


def unanimity_consent(p: Profile) -> Outcome:
    """A candidate wins only when no one voted for anyone else (abstentions
    allowed); otherwise a tie."""
    supported = set(p.ballots)
    supported.discard(0)
    return supported.pop() if len(supported) == 1 else 0


def lexicographic_first(p: Profile) -> Outcome:
    """The smallest-indexed candidate with any votes; 0 when everyone abstains.

    Deliberately candidate-biased: used as the neutrality counterexample.
    """
    supported = set(p.ballots)
    supported.discard(0)
    return min(supported, default=0)


def constant_zero(p: Profile) -> Outcome:
    """Always a tie, regardless of votes."""
    return 0


RULES: dict[str, Rule] = {
    "maj": Rule("maj", majority_rule),
    "uc": Rule("uc", unanimity_consent),
    "lex": Rule("lex", lexicographic_first),
    "zero": Rule("zero", constant_zero),
}


class IncompleteTableError(LookupError):
    """Evaluation hit an unassigned table entry.  Distinct from argument
    errors so that N's generator scan (``axioms._neutrality_witness``) can
    catch it and rescan for the minimal witness, which meets the same entry
    or an earlier violation."""

    def __init__(self, ballots: tuple[int, ...]):
        self.ballots = ballots
        super().__init__(f"no outcome assigned for canonical profile {ballots}")


class TableParseError(ValueError):
    """Table text does not match the on-disk format; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_entry(m: int, n_max: int, key: tuple[int, ...], out: int) -> None:
    if not 1 <= len(key) <= n_max:
        raise ValueError(f"key {key} has length outside [1, {n_max}]")
    for b in key:  # before the key is sorted, which a str among ints breaks
        error = _ballot_error(m, b)
        if error:
            raise ValueError(f"key {key}: ballot {b!r} {error}")
    if list(key) != sorted(key):
        raise ValueError(f"key {key} is not canonical (sorted)")
    error = _ballot_error(m, out)
    if error:
        raise ValueError(f"outcome {out!r} for {key} {error}")


class _Strings(dict):
    """str(v) for each v looked up, made on first lookup: never all of 0..m."""

    def __missing__(self, v: int) -> str:
        return self.setdefault(v, str(v))


@dataclass(frozen=True)
class TabledFunction:
    """An explicit outcome table over canonical profiles with 1 <= n <= n_max.

    Keys are sorted ballot tuples, so anonymity is built into the
    representation.  Entries absent from ``table`` are unassigned; evaluating
    one raises :class:`IncompleteTableError`.

    A validated table stays valid: the constructor copies the caller's
    mapping before it validates it, and ``table`` is a read-only view of
    that copy, which evaluation and the checkers read as ``_table``.
    """

    m: int
    n_max: int
    table: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        _check_scope(self.m, self.n_max)
        table = dict(self.table.items())
        for key, out in table.items():
            _check_entry(self.m, self.n_max, key, out)
        self.__dict__.update(table=MappingProxyType(table), _table=table)

    @classmethod
    def _trusted(cls, m: int, n_max: int, table: dict[tuple[int, ...], int]) -> "TabledFunction":
        """A table built without validation, for tables the library has built
        or checked itself: m >= 2, n_max >= 1, canonical keys of 1..n_max
        ballots and ballots as outcomes.  It keeps ``table``, a dict no
        caller holds."""
        t = object.__new__(cls)
        t.__dict__.update(m=m, n_max=n_max, table=MappingProxyType(table), _table=table)
        return t

    def __reduce__(self):
        # a mappingproxy cannot be pickled: rebuild from the private dict
        return type(self)._trusted, (self.m, self.n_max, self._table)

    @classmethod
    def from_rule(cls, rule, m: int, n_max: int) -> "TabledFunction":
        """Tabulate any social choice function over canonical profiles, in
        class order.  The keys are canonical by construction; each outcome
        must be a ballot, checked once every profile has been evaluated.

        Each class's Profile is built as :meth:`~scfkit.core.Profile._trusted`
        builds one, a shell with its two slots set, but by ``map`` over all
        classes at once, with no Python frame per class.  The rule is called
        through :func:`_evaluator`."""
        _check_scope(m, n_max)
        keys = list(_profiles(m, 1, n_max, True))
        profiles = list(map(object.__new__, repeat(Profile, len(keys))))
        deque(map(_set_m, profiles, repeat(m)), maxlen=0)
        deque(map(_set_ballots, profiles, keys), maxlen=0)
        table = dict(zip(keys, map(_evaluator(rule), profiles)))
        for key, out in table.items():
            if _ballot_error(m, out):
                _check_entry(m, n_max, key, out)
        return cls._trusted(m, n_max, table)

    def evaluate(self, p: Profile) -> Outcome:
        if p.m != self.m:
            raise ValueError(f"profile has m={p.m}, table has m={self.m}")
        if len(p.ballots) > self.n_max:
            raise ValueError(f"profile has {len(p.ballots)} voters, table bound is {self.n_max}")
        # Keys are sorted ballot tuples (validated, or canonical where the
        # library builds them), so a hit on the ballots as given is their
        # class: only unsorted ballots, or a missing entry, are sorted.
        out = self._table.get(p.ballots)
        if out is None:
            key = tuple(sorted(p.ballots))
            out = self._table.get(key)
            if out is None:
                raise IncompleteTableError(key)
        return out

    def to_text(self) -> str:
        """Persist as text: header ``"m n_max"``, one ``"b1 .. bn -> o"`` line
        per assigned entry, sorted by (n, ballots).  Round-trips bit-exactly."""
        table, name = self._table, _Strings().__getitem__
        lines = [f"{self.m} {self.n_max}"]
        for key in sorted(table, key=lambda k: (len(k), k)):
            lines.append(f"{' '.join(map(name, key))} -> {name(table[key])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TabledFunction":
        lines = text.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise TableParseError("empty table text", line=1)
        header = lines[0].split()
        if len(header) != 2:
            raise TableParseError(f"expected 'm n_max', found {len(header)} tokens", line=1)
        try:
            m, n_max = int(header[0]), int(header[1])
        except ValueError:
            raise TableParseError(f"non-integer header tokens {header!r}", line=1) from None
        try:
            _check_scope(m, n_max)
        except ValueError as exc:
            raise TableParseError(str(exc), line=1) from None
        table = {}
        for lineno, raw in enumerate(lines[1:], start=2):
            if "->" not in raw:
                raise TableParseError("missing '->' separator", line=lineno)
            left, _, right = raw.partition("->")
            try:
                key = tuple(int(tok) for tok in left.split())
                out = int(right.strip())
            except ValueError:
                raise TableParseError(f"non-integer entry {raw!r}", line=lineno) from None
            if not key:
                raise TableParseError("entry has no ballots", line=lineno)
            if key in table:
                raise TableParseError(f"duplicate entry for {key}", line=lineno)
            try:
                _check_entry(m, n_max, key, out)
            except ValueError as exc:
                raise TableParseError(str(exc), line=lineno) from None
            table[key] = out
        return cls._trusted(m, n_max, table)  # each entry checked above
