#!/usr/bin/env python3
"""scfkit benchmark: fixed CLI verdicts, judged by an independent oracle.

Run from the repository root:

    python3 bench/run.py --workload check-maj-3x6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, a table
    python3 bench/run.py --smoke                          # self-check at toy scope

Each workload is one ``scfkit`` command, run in-process through
``scfkit.cli.main`` by one closed-loop client: the next verdict starts when
the previous one returns.  Every verdict is checked by ``oracle.py``, which
does not import scfkit.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` profiles two verdicts and reports the per-layer metrics of
``layers.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``info``, records the run context.  See README.md in this
directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import monotonic, perf_counter

import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# Enough verdicts that the tail percentile has ten beyond it.
MIN_SAMPLES = 11
# Untraced verdicts a traced run needs for its overhead ratio.
MIN_UNTRACED = 3
SETUP_REPEATS = 15
# Seconds reference_work() takes when the machine is not contended: its
# fastest time on the 2-core machine the benchmark was written on (Python
# 3.11.7).  Verdict times are rescaled to this speed; see untraced_run.
REFERENCE_S = 0.0137
# Time spent on reference work after each verdict, as a share of the verdict.
REFERENCE_SHARE = 0.1

END_TO_END_UNITS = {
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "core.self_s": "s",
    "core.profiles_built": "count",
    "core.tally_calls": "count",
    "core.remove_voter_calls": "count",
    "core.candidate_perm_calls": "count",
    "core.profiles_enumerated": "count",
    "rules.self_s": "s",
    "rules.evals": "count",
    "axioms.self_s": "s",
    **{f"axioms.check_s.{ax}": "s" for ax in oracle.ALL_AXIOMS},
    "axioms.profiles_scanned": "count",
    "axioms.evals_requested": "count",
    "axioms.memo_hit_ratio": "ratio",
    "search.self_s": "s",
    "search.engine_s": "s",
    "search.nodes": "count",
    **{f"search.prunes.{ax}": "count" for ax in ("N", "DP", "PO", "RS")},
    "search.node_survival_ratio": "ratio",
    "search.cells": "count",
    "search.replay_s": "s",
    "search.partition_s": "s",
    "cli.overhead_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}
# Deterministic per-layer values: two traced verdicts must agree exactly.
REPEATABLE = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed scope.  The seed only respells the command
    (option order, axiom-list order), which the CLI must canonicalize, so
    every seed does the same work and reaches the same verdict."""

    name: str
    command: str
    m: int
    n_max: int
    # search.nodes at the commit that introduced the benchmark; a later
    # search engine may change it, so a difference is reported, not failed.
    seed_nodes: int | None = None

    def argv(self, rng: random.Random, out: Path) -> list[str]:
        options = [["--m", str(self.m)], ["--n-max", str(self.n_max)], ["--out", str(out)]]
        if self.command == "check":
            axioms = list(oracle.ALL_AXIOMS)
            rng.shuffle(axioms)
            options += [["--rule", "maj"], ["--axioms", ",".join(axioms)]]
        elif self.command == "search":
            axioms = ["N", "DP", "PO", "RS"]
            rng.shuffle(axioms)
            options.append(["--axioms", ",".join(axioms)])
        rng.shuffle(options)
        return [self.command] + [token for option in options for token in option]

    def out_path(self, run_dir: Path) -> Path:
        return run_dir / ("out" if self.command == "search" else "out.json")

    def judge(self, code, stdout: str, out: Path, cases: dict[str, int] | None) -> list[str]:
        if code is None:
            return ["raised"]
        if self.command == "check":
            return oracle.judge_check(self.m, self.n_max, code, stdout, out)
        if self.command == "search":
            return oracle.judge_search(self.m, self.n_max, code, stdout, out)
        return oracle.judge_theorem(self.m, self.n_max, code, stdout, out, cases)

    def facts(self, out: Path) -> dict:
        """Search counters and report size, read from the verdict's report."""
        if out.is_dir():
            report_bytes = sum(p.stat().st_size for p in out.iterdir())
            doc = json.loads((out / "summary.json").read_text())
        else:
            report_bytes = out.stat().st_size
            doc = json.loads(out.read_text())
        searched = self.command != "check"
        return {
            "nodes": doc.get("nodes_explored", 0),
            "prunes": doc.get("prune_counts", {}),
            "cells": layers.table_cells(self.m, self.n_max) if searched else 0,
            "report_bytes": report_bytes,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-maj-3x6", "check", 3, 6),
        Workload("search-rs-2x9", "search", 2, 9, seed_nodes=420_201),
        Workload("theorem-3x7", "verify-theorem", 3, 7, seed_nodes=37_200),
    )
}


def load_cli():
    """Import scfkit.cli from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from scfkit import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import scfkit from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: scfkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(repeats: int) -> float:
    """Median seconds from launching a fresh interpreter until scfkit.cli is
    imported and build_parser() has returned, after one warm-up launch.
    Each launch is rescaled to reference speed like a verdict."""
    code = "import time\nfrom scfkit.cli import build_parser\nbuild_parser()\nprint(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for i in range(repeats + 1):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up launch failed:\n{proc.stderr}")
        seconds = float(proc.stdout.split()[-1]) - start
        after = slowdown(REFERENCE_SHARE * seconds)
        if i:
            samples.append(seconds / ((before + after) / 2))
        before = after
    return statistics.median(samples)


@dataclass
class Verdict:
    code: int | None
    stdout: str
    seconds: float
    problems: list[str]
    out: Path
    # (pstats table, profiles enumerated by module) of a profiled verdict
    profile: tuple[dict, dict] | None = None


class Client:
    """One closed-loop client issuing a workload's verdicts in-process."""

    def __init__(self, cli, workload: Workload, seed: int, run_dir: Path, cases):
        self.cli = cli
        self.workload = workload
        self.rng = random.Random(seed)
        self.out = workload.out_path(run_dir)
        self.cases = cases

    def verdict(self, profiled: bool = False) -> Verdict:
        """One timed ``cli.main`` call, then the untimed oracle check."""
        if self.out.is_dir():
            shutil.rmtree(self.out)
        elif self.out.exists():
            self.out.unlink()
        argv = self.workload.argv(self.rng, self.out)
        stdout = io.StringIO()

        def call():
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = None
            return code, perf_counter() - start

        profile = None
        if profiled:
            (code, seconds), *profile = layers.profile_call(call)
        else:
            code, seconds = call()
        text = stdout.getvalue()
        problems = self.workload.judge(code, text, self.out, self.cases)
        if problems:
            print(f"verdict rejected ({' '.join(argv)}): {'; '.join(problems)}", file=sys.stderr)
        return Verdict(code, text, seconds, problems, self.out, profile)


def reference_work() -> dict:
    """Fixed pure-Python work in the style of a checker's inner loop: sort
    small ballot tuples, count votes, memoize by class."""
    memo = {}
    for i in range(8192):
        ballots = tuple(sorted((i & 3, i >> 2 & 3, i >> 4 & 3, i >> 6 & 3, i >> 8 & 3)))
        memo[ballots] = max(ballots.count(k) for k in range(1, 4))
    return memo


def slowdown(budget: float) -> float:
    """How much slower than REFERENCE_S the reference work runs right now:
    the median of as many repetitions as fit in ``budget`` seconds (at
    least one)."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < budget:
        rep = perf_counter()
        reference_work()
        times.append(perf_counter() - rep)
    return statistics.median(times) / REFERENCE_S


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def untraced_run(client: Client, seconds: float, warm_seconds: float) -> tuple[dict, dict, int, int]:
    """Closed loop for ``seconds``.  Each verdict's time is divided by the
    machine's slowdown, measured by the reference work just before and just
    after it, for a tenth of the verdict's time each; the raw wall figures go
    to the info line."""
    attempted = failed = 0
    wall, scaled, scaled_loop, slowdowns = [], [], 0.0, []
    before = slowdown(REFERENCE_SHARE * warm_seconds)
    start = perf_counter()
    while perf_counter() - start < seconds or attempted < MIN_SAMPLES:
        iteration = perf_counter()
        v = client.verdict()
        iteration = perf_counter() - iteration
        after = slowdown(REFERENCE_SHARE * v.seconds)
        factor = (before + after) / 2
        before = after
        attempted += 1
        failed += bool(v.problems)
        wall.append(v.seconds)
        scaled.append(v.seconds / factor)
        scaled_loop += iteration / factor
        slowdowns.append(factor)
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "verdict_s_p50": statistics.median(scaled),
        "verdict_s_tail": tail_s,
        "verdicts_per_s": (attempted - failed) / scaled_loop,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "verdict_s_tail_percentile": round(tail_pct, 2),
        "samples": attempted,
        "slowdown_p50": statistics.median(slowdowns),
        "wall_s_p50": statistics.median(wall),
        "wall_s_tail": tail(wall)[0],
    }
    return metrics, info, attempted, failed


def traced_run(client: Client, seconds: float) -> tuple[dict, dict, int, int]:
    """Two profiled verdicts, then untraced ones for the overhead ratio."""
    attempted = failed = 0
    passes = []
    start = perf_counter()
    for _ in range(2):
        v = client.verdict(profiled=True)
        attempted += 1
        failed += bool(v.problems)
        if not v.problems:
            facts = client.workload.facts(v.out)
            passes.append((v.seconds, layers.layer_metrics(*v.profile, v.seconds, facts)))
    untraced = []
    while perf_counter() - start < seconds or len(untraced) < MIN_UNTRACED:
        v = client.verdict()
        attempted += 1
        failed += bool(v.problems)
        untraced.append(v.seconds)
    info: dict = {"samples": attempted}
    if len(passes) < 2:
        return {}, info, attempted, failed
    (wall_a, first), (wall_b, second) = passes
    info["counts_repeat"] = all(first[k] == second[k] for k in REPEATABLE)
    if not info["counts_repeat"]:
        diff = {k: (first[k], second[k]) for k in REPEATABLE if first[k] != second[k]}
        print(f"per-layer counts differ between traced verdicts: {diff}", file=sys.stderr)
    metrics = {k: first[k] if k in REPEATABLE else (first[k] + second[k]) / 2 for k in first}
    metrics["trace.overhead_ratio"] = statistics.median([wall_a, wall_b]) / statistics.median(untraced)
    if client.workload.seed_nodes is not None:
        info["seed_nodes"] = {"expected": client.workload.seed_nodes, "read": metrics["search.nodes"]}
    return metrics, info, attempted, failed


def run_context() -> dict:
    nproc = len(os.sched_getaffinity(0))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
    load = os.getloadavg()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_before": [round(x, 2) for x in load],
        "loaded_at_start": load[0] > nproc,
    }


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; returns (result document, info)."""
    context = run_context()
    cases = oracle.case_counts(workload.m, workload.n_max) if workload.command == "verify-theorem" else None
    run_dir = OUT_ROOT / f"{os.getpid()}-{workload.name}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, workload, seed, run_dir, cases)
        warm = client.verdict()  # lazy imports and allocator growth happen once per process
        if trace:
            metrics, info, attempted, failed = traced_run(client, seconds)
            units = PER_LAYER_UNITS
        else:
            setup_s = measure_setup(setup_repeats)
            metrics, info, attempted, failed = untraced_run(client, seconds, warm.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    failed += bool(warm.problems)
    attempted += 1
    context["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    info = {"workload": workload.name, "seed": seed, "trace": int(trace), "failed_ratio": failed / attempted,
            **info, "context": context}
    correct = failed == 0 and info.get("counts_repeat", True) and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    return result, info


def smoke(cli) -> list[str]:
    """At toy scope (2, 3): the oracle accepts every real verdict, rejects a
    deliberately wrong report, and both modes emit exactly the metrics named
    in BENCHMARK.json, with their units."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
        1: {e["name"]: e["unit"] for e in spec["per_layer"]},
    }
    corruptions = {
        "check": ("out.json", lambda text: text.replace('"pass": true', '"pass": false', 1)),
        "search": ("out/solution_000.table", lambda text: text.replace("1 -> 1", "1 -> 0", 1)),
        "verify-theorem": ("out.json", lambda text: text.replace('"leader": ', '"leader": 1', 1)),
    }
    for full in WORKLOADS.values():
        workload = replace(full, m=2, n_max=3, seed_nodes=None)
        cases = oracle.case_counts(2, 3) if workload.command == "verify-theorem" else None
        run_dir = OUT_ROOT / f"{os.getpid()}-smoke"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            client = Client(cli, workload, 0, run_dir, cases)
            v = client.verdict()
            if v.problems:
                problems.append(f"{full.name}: oracle rejected a real verdict: {v.problems}")
            name, corrupt = corruptions[workload.command]
            target = run_dir / name
            target.write_text(corrupt(target.read_text()))
            if not workload.judge(v.code, v.stdout, v.out, cases):
                problems.append(f"{full.name}: oracle accepted a corrupted {name}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for trace in (0, 1):
            result, _ = run_workload(cli, workload, 0, 0.2, bool(trace), setup_repeats=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{full.name} --trace {trace}: run not correct")
            if emitted != wanted[trace]:
                problems.append(f"{full.name} --trace {trace}: emitted {emitted}, BENCHMARK.json names {wanted[trace]}")
    return problems


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints a table and returns the exit code."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        info, result = json.loads(lines[-2].removeprefix("info ")), json.loads(lines[-1])
        ok &= result["correct"]
        print(f"== {name}  seed={seed} trace={trace}  correct={result['correct']}  "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_ratio={info['failed_ratio']:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:30s} {entry['value']:>14.6g} {entry['unit']}")
        extra = {k: v for k, v in info.items() if k not in ("workload", "seed", "trace", "failed_ratio")}
        print(f"   info {json.dumps(extra)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check at toy scope")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cli = load_cli()
    if args.smoke:
        problems = smoke(cli)
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 0 if not problems else 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, info = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
