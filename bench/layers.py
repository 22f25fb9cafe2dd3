"""Per-layer metrics of one verdict, from cProfile aggregated by scfkit module.

A layer is one module of the package: core, rules, axioms, search and cli.
Its self time is the profiler's self time of the functions defined in it,
plus the self time of functions outside the package (builtins, the standard
library, generated dataclass methods) when the layer's code calls them
directly.  Work counters are profiler call counts of public functions, read
through their code objects, except profiles enumerated: a generator's call
count mixes yields and resumptions, so those are counted by rebinding
``enumerate_profiles`` for the duration of the traced verdict.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sys
from collections import Counter
from pathlib import Path

LAYERS = ("core", "rules", "axioms", "search", "cli")
_BENCH_DIR = str(Path(__file__).resolve().parent)


def _key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _counted(gen, counts: Counter, caller: str):
    for item in gen:
        counts[caller] += 1
        yield item


class EnumerationCounter:
    """Counts profiles yielded by ``core.enumerate_profiles``, keyed by the
    calling module, while the ``with`` block runs."""

    def __init__(self):
        self.by_module: Counter = Counter()

    def __enter__(self) -> "EnumerationCounter":
        original = sys.modules["scfkit.core"].enumerate_profiles
        counts = self.by_module

        def enumerate_profiles(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return _counted(original(*args, **kwargs), counts, caller)

        self._original = original
        self._bound = [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "scfkit" or mod_name.startswith("scfkit.")
            for name, value in vars(mod).items()
            if value is original
        ]
        for mod, name in self._bound:
            setattr(mod, name, enumerate_profiles)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name in self._bound:
            setattr(mod, name, self._original)


def profile_call(fn):
    """Run ``fn()`` under cProfile and the enumeration counter.

    Returns (result, pstats table, profiles yielded by calling module).
    """
    prof = cProfile.Profile()
    with EnumerationCounter() as enum:
        prof.enable()
        try:
            result = fn()
        finally:
            prof.disable()
    return result, pstats.Stats(prof).stats, dict(enum.by_module)


class _Table:
    """Lookup helpers over a pstats table, with layer attribution."""

    def __init__(self, stats: dict, pkg_dir: str):
        self.stats = stats
        self.pkg_dir = pkg_dir

    def layer(self, key) -> str | None:
        filename = key[0]
        path = Path(filename)
        if str(path.parent) == self.pkg_dir and path.stem in LAYERS:
            return path.stem
        return None

    def calls(self, fn) -> int:
        entry = self.stats.get(_key(fn))
        return entry[1] if entry else 0

    def cumulative(self, fn) -> float:
        entry = self.stats.get(_key(fn))
        return entry[3] if entry else 0.0

    def cumulative_from(self, callee, layer: str) -> float:
        """Cumulative seconds of ``callee`` when called from ``layer``'s code."""
        entry = self.stats.get(_key(callee))
        if not entry:
            return 0.0
        return sum(edge[3] for caller, edge in entry[4].items() if self.layer(caller) == layer)

    def self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            layer = self.layer(key)
            if layer is not None:
                out[layer] += tt
            elif not key[0].startswith(_BENCH_DIR):
                for caller, edge in callers.items():
                    caller_layer = self.layer(caller)
                    if caller_layer is not None:
                        out[caller_layer] += edge[2]
        return out


def layer_metrics(stats: dict, enumerated: dict[str, int], wall: float, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced verdict.

    ``facts`` carries what the verdict's own report says: ``nodes``,
    ``prunes`` (axiom -> count), ``cells`` and ``report_bytes``.
    """
    from scfkit import axioms, cli, core, rules, search

    t = _Table(stats, str(Path(core.__file__).resolve().parent))
    self_s = t.self_times()
    evaluators = (rules.Rule.evaluate, rules.TabledFunction.evaluate)

    # memo lookups: the checkers' evaluation closures, named ``evaluate``
    memo_keys = [k for k in stats if t.layer(k) == "axioms" and k[2] == "evaluate"]
    lookups = sum(stats[k][1] for k in memo_keys)
    underlying = sum(
        edge[1]
        for fn in evaluators
        for caller, edge in stats.get(_key(fn), (0, 0, 0, 0, {}))[4].items()
        if caller in memo_keys
    )

    # verify_theorem is the only caller in search of the checkers and of
    # enumerate_functions on these workloads
    replay_s = sum(t.cumulative_from(fn, "search") for fn in axioms.CHECKERS.values())
    theorem_engine_s = t.cumulative_from(search.enumerate_functions, "search")
    partition_s = t.cumulative(search.verify_theorem) - theorem_engine_s - replay_s
    library_s = 0.0
    for key, entry in stats.items():
        if t.layer(key) in ("core", "rules", "axioms", "search"):
            library_s += sum(edge[3] for caller, edge in entry[4].items() if t.layer(caller) == "cli")

    nodes = facts["nodes"]
    prunes = facts["prunes"]
    metrics = {
        "core.self_s": self_s["core"],
        "core.profiles_built": t.calls(core.Profile.__post_init__),
        "core.tally_calls": t.calls(core.tally),
        "core.remove_voter_calls": t.calls(core.remove_voter),
        "core.candidate_perm_calls": t.calls(core.apply_candidate_permutation),
        "core.profiles_enumerated": sum(enumerated.values()),
        "rules.self_s": self_s["rules"],
        "rules.evals": sum(t.calls(fn) for fn in evaluators),
        "axioms.self_s": self_s["axioms"],
        **{f"axioms.check_s.{ax}": t.cumulative(fn) for ax, fn in axioms.CHECKERS.items()},
        "axioms.profiles_scanned": enumerated.get("scfkit.axioms", 0),
        "axioms.evals_requested": lookups,
        "axioms.memo_hit_ratio": 1 - underlying / lookups if lookups else 0.0,
        "search.self_s": self_s["search"],
        "search.engine_s": t.cumulative(search.enumerate_functions),
        "search.nodes": nodes,
        **{f"search.prunes.{ax}": prunes.get(ax, 0) for ax in ("N", "DP", "PO", "RS")},
        "search.node_survival_ratio": (nodes - sum(prunes.values())) / nodes if nodes else 0.0,
        "search.cells": facts["cells"],
        "search.replay_s": replay_s,
        "search.partition_s": partition_s,
        "cli.overhead_s": t.cumulative(cli.main) - library_s,
        "cli.report_bytes": facts["report_bytes"],
        "trace.coverage": sum(self_s.values()) / wall,
    }
    return metrics


def table_cells(m: int, n_max: int) -> int:
    """Cells of an outcome table over sorted profiles with 1..n_max voters."""
    return sum(math.comb(n + m, m) for n in range(1, n_max + 1))
