"""Command-line entry point: regenerate any table or figure.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments --figure 2
    python -m repro.experiments 2 3 --jobs 8 --cache-dir .repro-cache
    python -m repro.experiments all --jobs 8
    python -m repro.experiments scenario show --grid 2
    python -m repro.experiments scenario run my_scenario.json
    python -m repro.experiments equiv --against EQUIV_pool.json --jobs 2

Figures and tables can be named positionally (``all`` expands to
everything) or through the original ``--figure`` / ``--table`` flags.
Every id is checked before anything runs: one unknown id exits 2 with
nothing on stdout.  ``--jobs N`` fans each figure's run grid out over
N worker processes and ``--cache-dir`` memoizes completed runs on disk
(see :mod:`repro.experiments.parallel`).  ``scenario --grid`` takes
the keys of the grid registry
:data:`repro.experiments.figures.FIGURE_GRIDS` (``--list`` prints them).

The ``scenario`` subcommand is the JSON face of the Scenario API
(:mod:`repro.core.scenario`): ``show`` prints the canonical JSON of a
spec file, a figure grid, or a named demo; ``fingerprint`` prints
content digests (the runner's cache keys); ``run`` executes scenarios
end to end — controller included — and emits outcome JSON.  A spec
file goes through :meth:`~repro.core.scenario.ScenarioSpec.from_json_dict`,
which checks every field and lists every problem before anything runs
(exit 2).  ``show`` output feeds back into ``fingerprint``/``run``
unchanged, which is the round-trip CI pins for every grid and demo.

The ``equiv`` subcommand is the replicated-seed equivalence gate
(:mod:`repro.experiments.equiv`): ``--record`` writes a reference,
``--against`` reruns its cells with the current code and exits 1 when
a paired test rejects after Holm's correction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, Dict, List

from repro.core import scenario as scenario_module
from repro.core.scenario import ScenarioSpec
from repro.experiments import figures, parallel, tables

_FIGURES: Dict[str, Callable] = {
    "2": figures.figure2,
    "3": figures.figure3,
    "4": figures.figure4,
    "5": figures.figure5,
    "7": figures.figure7,
    "10": figures.figure10,
    "11": figures.figure11,
    "12": figures.figure12,
    "13": figures.figure13,
    "s3.2": figures.section32_response_time,
    "s4.3": figures.controller_convergence,
    "po": figures.partly_open,
    "tv": figures.time_varying_controller,
    "sh": figures.sharded_cluster,
    "ft": figures.fault_tolerance,
    "rf": figures.replica_fanout,
    "rs": figures.resilience,
    "xs": figures.cross_shard,
    "es": figures.elastic_capacity,
}

_TABLES: Dict[str, Callable[[], str]] = {
    "1": tables.table1,
    "2": tables.table2,
    "c2": tables.variability_table,
}

#: Figures that take no ``fast`` argument (purely analytic).
_ANALYTIC = {"7", "10"}


def _unknown(kind: str, name: str, known: Dict[str, Callable]) -> int:
    print(
        f"error: unknown {kind} {name!r}; available {kind}s: "
        + ", ".join(sorted(known)),
        file=sys.stderr,
    )
    return 2


def _run_target(kind: str, key: str, fast: bool) -> None:
    """Print one figure or table, then its ``[kind key regenerated ...]``
    footer with the cells it served from the cache and ran (baseline
    and analytic cells included).  A table that submitted no cell
    prints no footer."""
    runner = parallel.get_runner()
    before = dataclasses.replace(runner.totals)
    start = time.time()
    if kind == "table":
        print(_TABLES[key]())
        print()
    else:
        function = _FIGURES[key]
        result = function() if key in _ANALYTIC else function(fast=fast)
        for panel in result if isinstance(result, list) else [result]:
            print(panel.render())
            print()
    # totals delta = every grid this target submitted (a figure may
    # submit several), and nothing from previous targets
    stats = runner.totals.since(before)
    if kind == "table" and not stats.submitted:
        return
    cache_note = (
        f", {stats.cached} cached / {stats.simulated} simulated"
        if stats.submitted
        else ""
    )
    print(f"[{kind} {key} regenerated in {time.time() - start:.1f}s{cache_note}]")


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulation grids (default 1: in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache; re-runs of unchanged "
        "figures become near-instant",
    )


def _load_scenarios(args: argparse.Namespace) -> "tuple[List[ScenarioSpec], bool]":
    """Resolve the scenario input source; returns (specs, was_single).

    ``was_single`` keeps single-spec inputs emitting a single JSON
    object (not a one-element list), so piping a spec through ``show``
    never changes its shape.
    """
    sources = [args.file is not None, args.grid is not None, args.demo is not None]
    if sum(sources) != 1:
        raise ValueError("specify exactly one of FILE, --grid, or --demo")
    if args.grid is not None:
        key = args.grid.lower()
        builder = figures.FIGURE_GRIDS.get(key)
        if builder is None:
            raise ValueError(
                f"unknown figure grid {args.grid!r}; available: "
                + ", ".join(sorted(figures.FIGURE_GRIDS))
            )
        return builder(fast=not args.full), False
    if args.demo is not None:
        demos = scenario_module.demo_scenarios()
        spec = demos.get(args.demo)
        if spec is None:
            raise ValueError(
                f"unknown demo scenario {args.demo!r}; available: "
                + ", ".join(sorted(demos))
            )
        return [spec], True
    if args.file == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.file, encoding="utf-8") as handle:
            payload = json.load(handle)
    # file payloads are untrusted: the decoder checks every field's type
    # and rules and reports *every* problem (with JSON-pointer paths)
    if isinstance(payload, list):
        return [ScenarioSpec.from_json_dict(entry) for entry in payload], False
    return [ScenarioSpec.from_json_dict(payload)], True


def scenario_main(argv: List[str]) -> int:
    """``scenario``: show / fingerprint / run specs, JSON in and out."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments scenario",
        description="Show, fingerprint, or run Scenario API specs (JSON).",
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=("show", "fingerprint", "run"),
        help="show: canonical JSON; fingerprint: content digests; "
        "run: execute end to end and emit outcome JSON",
    )
    parser.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="FILE",
        help="JSON spec file (an object or a list; '-' reads stdin)",
    )
    parser.add_argument(
        "--grid",
        default=None,
        metavar="ID",
        help=f"use a figure grid as the spec list (one of "
        f"{sorted(figures.FIGURE_GRIDS)})",
    )
    parser.add_argument(
        "--full", action="store_true", help="with --grid: full-size grid"
    )
    parser.add_argument(
        "--demo",
        default=None,
        metavar="NAME",
        help="use a named demo scenario (see --list-demos)",
    )
    parser.add_argument(
        "--list-demos", action="store_true", help="list demo scenario names"
    )
    parser.add_argument(
        "--components",
        action="store_true",
        help="with fingerprint: include the per-axis component digests",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.list_demos:
        for name in sorted(scenario_module.demo_scenarios()):
            print(name)
        return 0
    if args.action is None:
        parser.error("an action (show / fingerprint / run) is required")
    try:
        specs, single = _load_scenarios(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "show":
        payloads: List[dict] = [spec.to_json_dict() for spec in specs]
    elif args.action == "fingerprint":
        payloads = []
        for spec in specs:
            entry = {"fingerprint": spec.fingerprint()}
            if args.components:
                entry["components"] = spec.component_fingerprints()
            payloads.append(entry)
    else:  # run
        payloads = []
        for spec in specs:
            outcome = scenario_module.execute_scenario(spec)
            payloads.append(outcome.to_json_dict())
            print(
                f"[scenario] {spec.tag or spec.fingerprint()[:12]}: "
                f"{outcome.result.throughput:.1f} tx/s, "
                f"{outcome.result.mean_response_time:.3f}s mean RT",
                file=sys.stderr,
            )
    body = payloads[0] if single else payloads
    text = json.dumps(body, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def fuzz_main(argv: List[str]) -> int:
    """``fuzz``: random-walk ScenarioSpec space under the oracle library.

    Exit status: 0 when every sampled scenario (or replayed corpus
    entry) passes every oracle, 1 on failures (minimized reproducers
    are written to ``--corpus-dir`` for triage / check-in), 2 on usage
    errors.
    """
    from repro.experiments import fuzz as fuzz_module

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fuzz",
        description="Fuzz the Scenario API: a seeded spec-space random "
        "walk checked against conservation / replay / codec / MPL "
        "oracles, with automatic shrinking of failures.",
    )
    parser.add_argument("--seed", type=int, default=0, help="walk seed")
    parser.add_argument(
        "--iterations", type=int, default=50, metavar="N",
        help="scenarios to sample (default 50)",
    )
    parser.add_argument(
        "--check-jobs-every", type=int, default=10, metavar="N",
        help="run the ParallelRunner --jobs 2 invariance oracle on every "
        "Nth scenario (0 disables; default 10 — it re-runs the scenario "
        "through a worker pool, the most expensive oracle)",
    )
    parser.add_argument(
        "--corpus-dir", default="tests/data/fuzz_corpus", metavar="DIR",
        help="where minimized reproducers are written on failure, and "
        "what --replay replays (default tests/data/fuzz_corpus)",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="replay the reproducer corpus instead of fuzzing",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing scenarios unminimized (faster triage loop)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the JSON campaign report here",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache shared with the jobs-invariance oracle's runner",
    )
    args = parser.parse_args(argv)

    if args.iterations < 1:
        print(f"error: --iterations must be >= 1, got {args.iterations}",
              file=sys.stderr)
        return 2
    if args.check_jobs_every < 0:
        print(f"error: --check-jobs-every must be >= 0, "
              f"got {args.check_jobs_every}", file=sys.stderr)
        return 2

    if args.replay:
        failures = fuzz_module.replay_corpus(
            args.corpus_dir, check_jobs=args.check_jobs_every > 0, log=print
        )
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        print(f"[fuzz] corpus replay: {len(failures)} failure(s)")
        return 1 if failures else 0

    start = time.time()
    report = fuzz_module.run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        check_jobs_every=args.check_jobs_every,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        cache_dir=args.cache_dir,
        log=print,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"[fuzz] seed {report.seed}: {report.iterations} scenarios, "
        f"{len(report.failures)} failure(s), {report.jobs_checked} "
        f"jobs-invariance checks, {time.time() - start:.1f}s"
    )
    for failure in report.failures:
        where = failure.reproducer_path or "(no reproducer written)"
        print(
            f"error: iteration {failure.iteration}: {failure.oracle}: "
            f"{failure.error} -> {where}",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def equiv_main(argv: List[str]) -> int:
    """``equiv``: record a replicated-seed reference, or gate against one.

    Exit status: 0 when recorded or when no test rejects, 1 when one
    does, 2 on usage errors (an unreadable reference, a grid that no
    longer has the recorded cells).
    """
    from repro.experiments import equiv

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments equiv",
        description="Replicated-seed equivalence gate: paired per-seed "
        "differences against a recorded reference, Holm-corrected.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="PATH", help="write a reference here")
    mode.add_argument(
        "--against", metavar="PATH",
        help="rerun this reference's cells at its seeds and compare",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1); the result cache is never used",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    start = time.time()
    if args.record:
        reference = equiv.record(args.jobs)
        with open(args.record, "w", encoding="utf-8") as handle:
            handle.write(equiv.dumps(reference))
        cells = sum(len(cells) for cells in reference["grids"].values())
        print(f"[equiv] recorded {cells} cells x {reference['replicates']} seeds "
              f"to {args.record} in {time.time() - start:.1f}s")
        return 0
    try:
        with open(args.against, encoding="utf-8") as handle:
            reference = json.load(handle)
        candidate = equiv.rerun(reference, args.jobs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {args.against}: {exc}", file=sys.stderr)
        return 2
    comparison = equiv.compare(reference["grids"], candidate)
    print(equiv.render(comparison, args.against))
    print(f"[equiv] {'passed' if comparison.passed else 'FAILED'} "
          f"in {time.time() - start:.1f}s")
    return 0 if comparison.passed else 1


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        return scenario_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "equiv":
        return equiv_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="figure/table ids to regenerate, or 'all' (same as --all); "
        "'scenario' starts the Scenario API subcommand (show / "
        "fingerprint / run), 'fuzz' the scenario fuzzer, and 'equiv' "
        "the replicated-seed equivalence gate",
    )
    parser.add_argument(
        "--figure",
        action="append",
        default=[],
        metavar="ID",
        help=f"figure to regenerate (one of {sorted(_FIGURES)})",
    )
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="ID",
        help=f"table to regenerate (one of {sorted(_TABLES)})",
    )
    parser.add_argument("--all", action="store_true", help="regenerate everything")
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-size runs (default is fast, reduced sample sizes)",
    )
    parser.add_argument("--list", action="store_true", help="list available ids")
    _add_runner_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        print("figures:", ", ".join(sorted(_FIGURES)))
        print("tables :", ", ".join(sorted(_TABLES)))
        print("grids  :", ", ".join(sorted(figures.FIGURE_GRIDS)),
              "(for scenario --grid)")
        print("demos  :", ", ".join(sorted(scenario_module.demo_scenarios())),
              "(for scenario run --demo)")
        return 0

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    # reject every unknown id before anything runs or prints
    for figure_id in args.figure:
        if figure_id.lower() not in _FIGURES:
            return _unknown("figure", figure_id, _FIGURES)
    for table_id in args.table:
        if table_id.lower() not in _TABLES:
            return _unknown("table", table_id, _TABLES)
    figure_ids = [figure_id.lower() for figure_id in args.figure]
    table_ids = [table_id.lower() for table_id in args.table]
    run_all = args.all
    for target in args.targets:
        key = target.lower()
        if key == "all":
            run_all = True
        elif key in _FIGURES:
            figure_ids.append(key)
        elif key in _TABLES:
            table_ids.append(key)
        else:
            print(
                f"error: unknown target {target!r}; figures: "
                + ", ".join(sorted(_FIGURES))
                + "; tables: "
                + ", ".join(sorted(_TABLES))
                + "; or 'all' / 'scenario' / 'fuzz' / 'equiv'",
                file=sys.stderr,
            )
            return 2
    if run_all:
        figure_ids = sorted(_FIGURES)
        table_ids = sorted(_TABLES)
    if not figure_ids and not table_ids:
        parser.print_help()
        return 2

    parallel.configure(jobs=args.jobs, cache_dir=args.cache_dir)
    try:
        for key in table_ids:
            _run_target("table", key, fast=not args.full)
        for key in figure_ids:
            _run_target("figure", key, fast=not args.full)
    finally:
        parallel.configure(jobs=1, cache_dir=None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
