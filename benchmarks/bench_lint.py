#!/usr/bin/env python
"""Analyzer throughput benchmark: simlint wall time over ``src/``.

Measures the end-to-end cost of ``lint_paths([src/repro])`` (total wall
seconds and files/sec) plus a stage/per-rule breakdown so future rules
have a perf trajectory:

==============  ==========================================================
stage           what is timed
==============  ==========================================================
parse           ``build_context`` over every file (one AST parse each)
file rules      each per-file rule's ``check`` over the prebuilt contexts
project build   symbol table + call graph (``build_project`` +
                ``build_call_graph``) — paid once per run, shared by all
                cross-module rules
project rules   each project rule's ``check`` over the prebuilt
                project/graph
==============  ==========================================================

The breakdown reuses the runner's own building blocks rather than
re-running ``lint_paths`` per rule, so a rule's figure is its marginal
cost, not parse time re-counted twelve ways.  Each figure is the best
of ``rounds`` repetitions (parsing is deterministic; best-of discards
scheduler noise).

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py           # full
    PYTHONPATH=src python benchmarks/bench_lint.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_lint.py --quick --check

Writes machine-readable results to ``BENCH_lint.json`` (``--out`` to
redirect).  ``--check`` additionally asserts the end-to-end lint of
``src/repro`` finishes under ``--budget`` seconds (default 5.0, the
lint-runtime smoke gate; intentionally loose so shared runners don't
flake) and that the tree is clean.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

from repro.lint import lint_paths
from repro.lint.config import rule_applies
from repro.lint.context import build_context
from repro.lint.graph import build_call_graph
from repro.lint.rules import RULES
from repro.lint.runner import iter_python_files
from repro.lint.symbols import build_project

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro.bench.lint/1"

#: The tree the quality gate lints — the benchmark measures exactly
#: what ``scripts/check.sh`` pays for.
TARGET = REPO_ROOT / "src" / "repro"


def _best_of(rounds: int, fn) -> float:
    """Best (minimum) wall time of ``rounds`` calls to ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_end_to_end(rounds: int) -> dict:
    result = lint_paths([TARGET])
    elapsed = _best_of(rounds, lambda: lint_paths([TARGET]))
    return {
        "elapsed": round(elapsed, 4),
        "files": result.files_checked,
        "files_per_sec": round(result.files_checked / elapsed, 1),
        "violations": len(result.violations),
        "errors": len(result.errors),
    }


def bench_stages(rounds: int) -> dict:
    """Stage and per-rule breakdown over prebuilt inputs."""
    files = list(iter_python_files([TARGET]))
    parse = _best_of(rounds, lambda: [build_context(f) for f in files])
    contexts = [build_context(f) for f in files]

    per_rule: dict[str, float] = {}
    for rule_id in sorted(RULES):
        registered = RULES[rule_id]
        if registered.project:
            continue
        applicable = [ctx for ctx in contexts
                      if rule_applies(rule_id, ctx.module, None)]
        per_rule[rule_id] = _best_of(
            rounds,
            lambda: [list(registered.check(ctx)) for ctx in applicable])

    build = _best_of(
        rounds,
        lambda: build_call_graph(build_project(contexts)))
    project = build_project(contexts)
    graph = build_call_graph(project)
    for rule_id in sorted(RULES):
        registered = RULES[rule_id]
        if not registered.project:
            continue
        per_rule[rule_id] = _best_of(
            rounds, lambda: list(registered.check(project, graph)))

    return {
        "parse": round(parse, 4),
        "project_build": round(build, 4),
        "per_rule": {rule_id: round(cost, 4)
                     for rule_id, cost in sorted(per_rule.items())},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds for CI smoke testing")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_lint.json",
                        help="output JSON path")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the end-to-end lint "
                             "stays under --budget seconds and is clean")
    parser.add_argument("--budget", type=float, default=5.0,
                        help="--check wall-time budget in seconds "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    rounds = 2 if args.quick else 5

    end_to_end = bench_end_to_end(rounds)
    stages = bench_stages(rounds)
    print(f"end-to-end: {end_to_end['elapsed']:.3f}s for "
          f"{end_to_end['files']} files "
          f"({end_to_end['files_per_sec']:.1f} files/s)")
    print(f"parse {stages['parse']:.3f}s   "
          f"project build {stages['project_build']:.3f}s")
    for rule_id, cost in stages["per_rule"].items():
        print(f"  {rule_id}: {cost * 1000:7.1f} ms")

    payload = {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_lint.py",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "rounds": rounds,
        "target": str(TARGET.relative_to(REPO_ROOT)),
        "end_to_end": end_to_end,
        "stages": stages,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")

    if args.check:
        reparsed = json.loads(args.out.read_text(encoding="utf-8"))
        measured = reparsed["end_to_end"]
        failures = []
        if measured["elapsed"] >= args.budget:
            failures.append(
                f"lint took {measured['elapsed']:.3f}s "
                f">= budget {args.budget:.1f}s")
        if measured["violations"] or measured["errors"]:
            failures.append(
                f"tree not clean: {measured['violations']} violation(s), "
                f"{measured['errors']} error(s)")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print(f"CHECK OK: {measured['elapsed']:.3f}s "
              f"< {args.budget:.1f}s budget, tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
