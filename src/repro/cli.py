"""Command-line interface: ``repro-sim``.

Subcommands
-----------
``run``
    One open-system simulation at a target gross utilization.
``sweep``
    A response-time-vs-utilization curve for one configuration.
``maxutil``
    Constant-backlog estimation of the maximal utilization.
``trace``
    Generate the synthetic DAS1 log and write it in SWF.
``trace-info``
    Summarise an SWF trace file.
``experiment``
    Regenerate one of the paper's exhibits (table1..table3, fig1..fig7).
``lint``
    Run simlint, the simulator-invariant static-analysis pass.
``obs``
    Inspect observability artifacts: ``summary``, ``tail``,
    ``validate``, ``dash``, ``trace``, ``manifest``, ``profile``
    (see ``docs/observability.md``).
``serve``
    Run the persistent sweep service: an asyncio campaign server on a
    local Unix-domain socket (see ``docs/service.md``).
``submit``
    Submit a sweep to a running service and stream its results.
``attach``
    Reattach to a previously submitted campaign by key prefix.

Examples::

    repro-sim run --policy LS --limit 16 --utilization 0.5
    repro-sim sweep --policy GS --limit 24 --grid 0.2:0.8:0.1
    repro-sim sweep --policy GS --cache --progress
    repro-sim sweep --policy GS --backend scalar --workers 4 --retries 2 --task-timeout 300
    repro-sim sweep --policy GS --resume
    repro-sim sweep --policy LS --obs --cache
    repro-sim experiment fig3 --workers 4 --cache
    repro-sim maxutil --policy GS --limit 16
    repro-sim trace --jobs 30000 --out das1.swf
    repro-sim experiment table2
    repro-sim lint src/repro
    repro-sim obs summary
    repro-sim obs tail .repro-obs/events/ab/abcd....jsonl -n 5
    repro-sim obs tail .repro-obs/events/ab/abcd....jsonl --follow
    repro-sim obs validate .repro-obs
    repro-sim obs dash --iterations 1
    repro-sim obs trace --out trace.json
    repro-sim serve --socket /tmp/repro.sock
    repro-sim submit --policy GS --grid 0.2:0.8:0.1 --socket /tmp/repro.sock
    repro-sim attach 9df5b409 --socket /tmp/repro.sock
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, Optional, Sequence

from repro.analysis import experiments, line_plot, tables
from repro.analysis.sweeps import sweep, utilization_grid
from repro.core import SimulationConfig, run_open_system
from repro.obs.gate import OBS_ENV
from repro.runner import (
    CACHE_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    WORKERS_ENV,
    CacheSpec,
)
from repro.metrics.saturation import estimate_maximal_utilization
from repro.sim import StreamFactory
from repro.workload import (
    JobFactory,
    WORKLOADS,
    das_t_900,
    generate_das_log,
    read_swf,
    summarize_log,
    write_swf,
)
from repro.workload import stats_model

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Processor co-allocation simulations (HPDC'03 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_args(p):
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for independent runs "
                            "(default $REPRO_WORKERS or 1; results are "
                            "identical at any worker count)")
        p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="reuse/store run results under .repro-cache "
                            "(default $REPRO_CACHE, off)")
        p.add_argument("--obs", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="write observability artifacts (event logs, "
                            "manifests) under $REPRO_OBS_DIR or "
                            ".repro-obs (default $REPRO_OBS, off); "
                            "results are byte-identical either way")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="re-execute a failing/crashing/timed-out "
                            "task up to N extra times with deterministic "
                            "backoff (default $REPRO_RETRIES or 0; "
                            "results are byte-identical regardless)")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="S",
                       help="per-task wall-clock limit in seconds; a "
                            "stuck worker is terminated, replaced and "
                            "the task retried (default "
                            "$REPRO_TASK_TIMEOUT, none)")
        p.add_argument("--progress", action="store_true",
                       help="render a live per-task progress line on "
                            "stderr plus phase timers")

    def add_model_args(p):
        p.add_argument("--policy", default="GS",
                       choices=["GS", "LS", "LP", "SC"],
                       help="scheduling policy")
        p.add_argument("--limit", type=int, default=16,
                       choices=[16, 24, 32],
                       help="job-component-size limit")
        p.add_argument("--workload", default="das-s-128",
                       choices=sorted(WORKLOADS),
                       help="total-job-size distribution")
        p.add_argument("--unbalanced", action="store_true",
                       help="use the 40/20/20/20 local-queue routing")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--warmup", type=int, default=2_000,
                       help="warmup jobs discarded")
        p.add_argument("--measured", type=int, default=10_000,
                       help="jobs measured after warmup")

    run_p = sub.add_parser("run", help="one open-system simulation")
    add_model_args(run_p)
    run_p.add_argument("--utilization", type=float, default=0.5,
                       help="target offered gross utilization")

    sweep_p = sub.add_parser("sweep", help="response-vs-utilization curve")
    add_model_args(sweep_p)
    add_runner_args(sweep_p)
    sweep_p.add_argument("--grid", default="0.2:0.8:0.1",
                         help="utilization grid start:stop:step")
    sweep_p.add_argument("--plot", action="store_true",
                         help="also render an ASCII plot")
    sweep_p.add_argument("--json", metavar="PATH", default=None,
                         help="save the sweep result as JSON")
    sweep_p.add_argument("--profile", action="store_true",
                         help="run under cProfile and print the "
                              "hottest functions afterwards")
    sweep_p.add_argument("--backend", default="auto",
                         choices=["scalar", "batch", "auto"],
                         help="simulation engine: auto (default) runs "
                              "the batch lane kernel whenever it "
                              "supports the model, else the scalar "
                              "event loop; scalar and batch force one "
                              "engine (the points are byte-identical "
                              "under the same cache keys).  The kernel "
                              "runs in-process, so --workers, "
                              "--retries and --task-timeout reach only "
                              "scalar runs and --obs or fault-armed "
                              "campaigns")
    sweep_p.add_argument("--replications", type=int, default=1,
                         metavar="N",
                         help="independent replications per grid "
                              "point (seeds seed, seed+1000, ...); "
                              "N>1 aggregates across-seed confidence "
                              "intervals, where the batch backend "
                              "runs all seeds as lanes of one "
                              "kernel")
    sweep_p.add_argument("--resume", action="store_true",
                         help="resume an interrupted sweep: forces the "
                              "result cache on, reports how many grid "
                              "points the previous run completed, and "
                              "re-executes only the remainder (output "
                              "is byte-identical to an uninterrupted "
                              "run)")

    max_p = sub.add_parser("maxutil",
                           help="maximal utilization (constant backlog)")
    add_model_args(max_p)
    max_p.add_argument("--backlog", type=int, default=60)

    trace_p = sub.add_parser("trace", help="generate a synthetic DAS1 log")
    trace_p.add_argument("--jobs", type=int,
                         default=stats_model.LOG_NUM_JOBS)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument("--out", required=True, help="SWF output path")

    info_p = sub.add_parser("trace-info", help="summarise an SWF trace")
    info_p.add_argument("path", help="SWF file to read")

    exp_p = sub.add_parser("experiment",
                           help="regenerate one paper exhibit")
    exp_p.add_argument("name", choices=[
        "table1", "table2", "table3",
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    ])
    exp_p.add_argument("--scale", default=None, choices=["smoke", "quick", "full"])
    add_runner_args(exp_p)

    report_p = sub.add_parser(
        "report", help="run the full suite, write a Markdown report"
    )
    report_p.add_argument("--out", required=True, help="output .md path")
    report_p.add_argument("--scale", default=None,
                          choices=["smoke", "quick", "full"])
    report_p.add_argument("--sections", nargs="*", default=None,
                          help="section title prefixes to include")
    add_runner_args(report_p)

    sens_p = sub.add_parser(
        "sensitivity", help="one-factor-at-a-time sensitivity tornado"
    )
    sens_p.add_argument("--net-load", type=float, default=0.40,
                        help="fixed offered net utilization")
    sens_p.add_argument("--policy", default="LS",
                        choices=["GS", "LS", "LP"])
    sens_p.add_argument("--scale", default=None,
                        choices=["smoke", "quick", "full"])

    char_p = sub.add_parser(
        "characterize", help="characterise an SWF trace"
    )
    char_p.add_argument("path", help="SWF file to analyse")

    lint_p = sub.add_parser(
        "lint", help="simulator-invariant static analysis (simlint)"
    )
    lint_p.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories (default: src/repro)")
    lint_p.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    lint_p.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run")
    lint_p.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of accepted findings")
    lint_p.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    lint_p.add_argument("--update-baseline", action="store_true",
                        help="record current findings as the baseline")
    lint_p.add_argument("--fix", action="store_true",
                        help="apply mechanical autofixes, then re-lint")
    lint_p.add_argument("--fix-suppress", default=None, metavar="RULES",
                        help="insert suppression comments for these rules")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")

    obs_p = sub.add_parser(
        "obs", help="inspect observability artifacts"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    obs_sum = obs_sub.add_parser(
        "summary", help="aggregate run manifests (or one event log)"
    )
    obs_sum.add_argument("--dir", default=None, metavar="PATH",
                         help="artifact root (default $REPRO_OBS_DIR "
                              "or .repro-obs)")
    obs_sum.add_argument("--log", default=None, metavar="PATH",
                         help="summarise one JSONL event log instead")
    obs_tail = obs_sub.add_parser(
        "tail", help="print the last events of a JSONL event log"
    )
    obs_tail.add_argument("log", help="event log path")
    obs_tail.add_argument("-n", "--events", type=int, default=10,
                          help="number of events (default 10)")
    obs_tail.add_argument("--kind", action="append", default=None,
                          metavar="KIND",
                          help="only this event kind (repeatable)")
    obs_tail.add_argument("--since", type=float, default=None,
                          metavar="T",
                          help="only events with t >= T")
    obs_tail.add_argument("--until", type=float, default=None,
                          metavar="T",
                          help="only events with t <= T")
    obs_tail.add_argument("--follow", action="store_true",
                          help="tail a live log as events are flushed "
                               "(stops when the log is finalized)")
    obs_tail.add_argument("--timeout", type=float, default=None,
                          metavar="S",
                          help="give up following after S seconds "
                               "(default: wait forever)")
    obs_val = obs_sub.add_parser(
        "validate", help="audit event logs against the event schemas"
    )
    obs_val.add_argument("target",
                         help="one JSONL event log, or an artifact "
                              "root whose logs are all audited")
    obs_dash = obs_sub.add_parser(
        "dash", help="live campaign dashboard (snapshot on non-TTY)"
    )
    obs_dash.add_argument("--dir", default=None, metavar="PATH",
                          help="artifact root (default $REPRO_OBS_DIR "
                               "or .repro-obs)")
    obs_dash.add_argument("--cache-dir", default=None, metavar="PATH",
                          help="result-cache root whose sweeps/ "
                               "manifests drive the campaign progress "
                               "bars (default .repro-cache when it "
                               "exists)")
    obs_dash.add_argument("--interval", type=float, default=1.0,
                          metavar="S",
                          help="refresh period in seconds (default 1)")
    obs_dash.add_argument("--iterations", type=int, default=None,
                          metavar="N",
                          help="stop after N frames (default: until "
                               "interrupted)")
    obs_dash.add_argument("--duration", type=float, default=None,
                          metavar="S",
                          help="stop after S seconds")
    obs_trace = obs_sub.add_parser(
        "trace", help="export spans as Chrome trace-event JSON "
                      "(Perfetto / chrome://tracing)"
    )
    obs_trace.add_argument("--dir", default=None, metavar="PATH",
                           help="artifact root (default "
                                "$REPRO_OBS_DIR or .repro-obs)")
    obs_trace.add_argument("--cache-dir", default=None, metavar="PATH",
                           help="result-cache root providing campaign "
                                "spans (default .repro-cache when it "
                                "exists)")
    obs_trace.add_argument("--out", default="trace.json",
                           metavar="PATH",
                           help="output path (default trace.json)")
    obs_man = obs_sub.add_parser(
        "manifest", help="show one run manifest by task key"
    )
    obs_man.add_argument("key", help="task key (or unique prefix)")
    obs_man.add_argument("--dir", default=None, metavar="PATH",
                         help="artifact root (default $REPRO_OBS_DIR "
                              "or .repro-obs)")
    obs_prof = obs_sub.add_parser(
        "profile", help="profile one run (cProfile hotspot table)"
    )
    add_model_args(obs_prof)
    obs_prof.add_argument("--utilization", type=float, default=0.5,
                          help="target offered gross utilization")
    obs_prof.add_argument("--top", type=int, default=20,
                          help="hotspot rows to print (default 20)")

    def add_socket_arg(p):
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="service socket path (default "
                            "$REPRO_SERVICE_SOCKET or "
                            ".repro-service.sock)")

    serve_p = sub.add_parser(
        "serve", help="persistent sweep service (campaign server)"
    )
    add_socket_arg(serve_p)
    serve_p.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="result-cache root backing the service "
                              "(default .repro-cache); campaign "
                              "ledgers and all results live here, so "
                              "a restarted server resumes from it")
    serve_p.add_argument("--fleet", type=int, default=1, metavar="N",
                         help="concurrent engine executions across "
                              "all campaigns (default 1: engines "
                              "share one GIL, so more threads only "
                              "trade it)")
    serve_p.add_argument("--task-workers", type=int, default=1,
                         metavar="N",
                         help="worker processes per task execution "
                              "(default 1: in-thread; >1 fans one "
                              "task's retries over a process pool)")
    serve_p.add_argument("--retries", type=int, default=None,
                         metavar="N",
                         help="per-task retry count for the fleet "
                              "(default $REPRO_RETRIES or 0)")
    serve_p.add_argument("--task-timeout", type=float, default=None,
                         metavar="S",
                         help="per-task wall-clock limit in seconds "
                              "(default $REPRO_TASK_TIMEOUT, none)")

    submit_p = sub.add_parser(
        "submit", help="submit a sweep to a running service"
    )
    add_model_args(submit_p)
    add_socket_arg(submit_p)
    submit_p.add_argument("--grid", default="0.2:0.8:0.1",
                          help="utilization grid start:stop:step")
    submit_p.add_argument("--backend", default="scalar",
                          choices=["scalar", "batch", "auto"],
                          help="accepted for compatibility: the "
                               "service runs every fusable campaign "
                               "through the batch lane kernel and the "
                               "rest through the scalar engine, "
                               "whatever is asked (the points are "
                               "identical)")
    submit_p.add_argument("--label", default=None,
                          help="campaign label (default: the policy "
                               "name, matching one-shot sweeps)")
    submit_p.add_argument("--stop-after", type=int, default=1,
                          metavar="N",
                          help="cut the curve after N saturated "
                               "points (default 1, the paper's "
                               "convention; 0 streams the full grid)")
    submit_p.add_argument("--json", metavar="PATH", default=None,
                          help="save the sweep result as JSON")

    attach_p = sub.add_parser(
        "attach", help="reattach to a submitted campaign by key prefix"
    )
    attach_p.add_argument("campaign",
                          help="campaign key (or unique prefix)")
    add_socket_arg(attach_p)
    return parser


def _config_from_args(args) -> SimulationConfig:
    weights = (stats_model.UNBALANCED_WEIGHTS if args.unbalanced
               else stats_model.BALANCED_WEIGHTS)
    kwargs = dict(
        policy=args.policy,
        component_limit=args.limit,
        routing_weights=weights,
        seed=args.seed,
        warmup_jobs=args.warmup,
        measured_jobs=args.measured,
    )
    if args.policy == "SC":
        kwargs.update(capacities=(stats_model.SINGLE_CLUSTER_SIZE,),
                      component_limit=None)
    return SimulationConfig(**kwargs)


def _factory_for(config: SimulationConfig, workload: str) -> JobFactory:
    return JobFactory(
        WORKLOADS[workload](), das_t_900(), config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(config.seed),
    )


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    sizes = WORKLOADS[args.workload]()
    service = das_t_900()
    factory = _factory_for(config, args.workload)
    rate = factory.arrival_rate_for_gross_utilization(
        args.utilization, config.capacity
    )
    result = run_open_system(config, sizes, service, rate)
    r = result.report
    print(f"policy                {config.policy}")
    print(f"component-size limit  {config.component_limit}")
    print(f"offered gross util    {result.offered_gross_utilization:.3f}")
    print(f"measured gross util   {r.gross_utilization:.3f}")
    print(f"measured net util     {r.net_utilization:.3f}")
    print(f"mean response time    {r.mean_response:.1f} "
          f"± {r.response_ci_half_width:.1f} (95% CI)")
    print(f"mean jobs waiting     {r.mean_jobs_waiting:.1f}")
    print(f"completed jobs        {r.completed_jobs}")
    print(f"saturated             {'yes' if result.saturated else 'no'}")
    return 0


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise SystemExit(f"bad grid {text!r}; expected start:stop:step")
    return utilization_grid(start, stop, step)


@contextlib.contextmanager
def _progress_display(args, total: Optional[int] = None,
                      label: str = "") -> Iterator[None]:
    """Activate the live progress line while ``--progress`` is set."""
    if not getattr(args, "progress", False):
        yield
        return
    from repro.obs import progress as obs_progress

    display = obs_progress.ProgressDisplay(total=total, label=label)
    obs_progress.activate(display.on_task_event)
    try:
        yield
    finally:
        obs_progress.deactivate()
        display.close()


def _report_resume(args, config, sizes, grid) -> CacheSpec:
    """Handle ``sweep --resume``: force the cache on, report progress.

    Returns the cache spec the sweep should run with.  The campaign
    identity is recomputed from the command's own arguments, so
    ``--resume`` can never mix state across different sweeps — a
    changed grid, seed or policy is simply a fresh campaign.
    """
    from repro.analysis.sweeps import sweep_tasks
    from repro.runner import (
        campaign_key,
        campaign_progress,
        load_campaign,
        resolve_cache,
        task_keys,
    )

    if args.cache is False:
        raise SystemExit("--resume requires the result cache "
                         "(drop --no-cache)")
    # Honour an explicit $REPRO_CACHE directory; only when the
    # environment leaves the cache off is it forced to the default
    # location (resume without a cache is meaningless).
    store = resolve_cache(args.cache) or resolve_cache(True)
    keys = task_keys(sweep_tasks(config, sizes, das_t_900(), grid))
    manifest = load_campaign(store,
                             campaign_key("sweep", args.policy, keys))
    if manifest is None:
        print("resume: no previous state for this sweep; "
              "starting fresh")
        return store
    done = sum(1 for key in keys if store.contains(key))
    _, total = campaign_progress(store, manifest)
    print(f"resume: {done}/{total} grid points already completed; "
          f"re-executing {total - done}")
    return store


def _cmd_sweep(args) -> int:
    from repro.obs.timing import PhaseTimer

    config = _config_from_args(args)
    sizes = WORKLOADS[args.workload]()
    grid = _parse_grid(args.grid)
    if args.replications > 1:
        return _cmd_sweep_replicated(args, config, sizes, grid)
    timer = PhaseTimer()
    cache: CacheSpec = args.cache
    if args.resume:
        cache = _report_resume(args, config, sizes, grid)

    def simulate():
        with _progress_display(args, total=len(grid),
                               label=f"sweep {args.policy}"):
            with timer.phase("simulate"):
                return sweep(args.policy, config, sizes, das_t_900(),
                             utilizations=grid,
                             workers=args.workers, cache=cache,
                             backend=args.backend)

    hotspots = None
    if args.profile:
        from repro.obs.profiling import profile_call

        result, hotspots = profile_call(simulate)
    else:
        result = simulate()
    with timer.phase("render"):
        print(tables.render_sweeps(
            [result],
            title=f"{args.policy} L={args.limit} ({args.workload})"
        ))
        if args.plot:
            xs, ys = result.series()
            print(line_plot({result.label: (xs, ys)},
                            x_label="gross utilization",
                            y_label="mean response"))
    if args.json:
        with timer.phase("save"):
            from repro.analysis.io import save_sweep

            save_sweep(result, args.json)
        print(f"saved sweep to {args.json}")
    if hotspots is not None:
        print(hotspots)
    if args.progress:
        print(timer.render(), file=sys.stderr)
    return 0


def _cmd_sweep_replicated(args, config, sizes, grid) -> int:
    """``sweep --replications N``: aggregate a curve across seeds."""
    from repro.analysis.replications import replicate_sweep
    from repro.runner import resolve_cache

    cache: CacheSpec = args.cache
    if args.resume:
        # Campaign state lives in the per-task result cache; forcing it
        # on is all a replicated resume needs (every completed seed ×
        # grid-point run is fetched instead of re-simulated).
        cache = resolve_cache(args.cache) or resolve_cache(True)
        print("resume: result cache on; completed replication runs "
              "will be reused")
    result = replicate_sweep(args.policy, config, sizes, das_t_900(),
                             utilizations=grid,
                             replications=args.replications,
                             workers=args.workers, cache=cache,
                             backend=args.backend)
    title = (f"{args.policy} L={args.limit} ({args.workload}) — "
             f"{args.replications} replications [{args.backend}]")
    print(title)
    print(f"{'offered':>8} {'gross':>8} {'net':>8} "
          f"{'response':>10} {'ci95':>10} {'reps':>5}")
    for p in result.points:
        flag = " SAT" if p.any_saturated else ""
        print(f"{p.offered_gross:8.3f} {p.mean_gross_utilization:8.4f} "
              f"{p.mean_net_utilization:8.4f} {p.mean_response:10.2f} "
              f"{p.response_ci.half_width:10.2f} "
              f"{p.replications:5d}{flag}")
    if args.json:
        from repro.analysis.io import save_replicated_sweep

        save_replicated_sweep(result, args.json)
        print(f"saved replicated sweep to {args.json}")
    return 0


def _cmd_maxutil(args) -> int:
    from repro.analysis.theory import gross_net_ratio

    config = _config_from_args(args)
    sizes = WORKLOADS[args.workload]()
    ratio = (1.0 if config.component_limit is None
             else gross_net_ratio(sizes, config.component_limit,
                                  len(config.capacities)))
    result = estimate_maximal_utilization(
        config, sizes, das_t_900(), ratio,
        backlog=args.backlog, warmup_jobs=args.warmup,
        measured_jobs=args.measured,
    )
    print(f"policy                {config.policy}")
    print(f"component-size limit  {config.component_limit}")
    print(f"maximal gross util    {result.gross:.3f}")
    print(f"maximal net util      {result.net:.3f}")
    print(f"gross/net ratio       {result.gross_net_ratio:.4f}")
    return 0


def _cmd_trace(args) -> int:
    log = generate_das_log(seed=args.seed, num_jobs=args.jobs)
    count = write_swf(log, args.out)
    summary = summarize_log(log)
    print(f"wrote {count} jobs to {args.out}")
    print(f"mean size {summary.mean_size:.2f}, "
          f"mean runtime {summary.mean_runtime:.1f}s, "
          f"{summary.num_distinct_sizes} distinct sizes")
    return 0


def _cmd_trace_info(args) -> int:
    records = read_swf(args.path)
    s = summarize_log(records)
    print(f"jobs                 {s.num_jobs}")
    print(f"users                {s.num_users}")
    print(f"distinct sizes       {s.num_distinct_sizes}")
    print(f"mean size            {s.mean_size:.2f} (CV {s.cv_size:.2f})")
    print(f"mean runtime         {s.mean_runtime:.1f}s "
          f"(CV {s.cv_runtime:.2f})")
    print(f"power-of-two sizes   {s.power_of_two_fraction:.1%}")
    print(f"below 900s           {s.fraction_below_cutoff:.1%}")
    return 0


def _cmd_experiment(args) -> int:
    with _progress_display(args, label=f"experiment {args.name}"):
        return _run_experiment(args)


def _run_experiment(args) -> int:
    scale = experiments.get_scale(args.scale)
    name = args.name
    if name == "table1":
        print(tables.render_table1(
            experiments.table1_power_of_two_fractions(scale)))
    elif name == "table2":
        print(tables.render_table2(
            experiments.table2_component_fractions()))
    elif name == "table3":
        print(tables.render_table3(
            experiments.table3_maximal_utilization(scale)))
    elif name == "fig1":
        from repro.analysis import bar_chart

        data = experiments.fig1_size_density(scale)
        merged = {**data["powers"], **data["others"]}
        top = dict(sorted(merged.items(), key=lambda kv: -kv[1])[:20])
        print(bar_chart(top, title="Figure 1 — job-size density "
                                   "(20 most frequent sizes)"))
    elif name == "fig2":
        from repro.analysis import bar_chart

        data = experiments.fig2_service_density(scale, bin_width=60.0)
        print(bar_chart(data["bins"],
                        title="Figure 2 — service-time density "
                              f"(mean {data['mean']:.0f}s)"))
    elif name == "fig3":
        for limit in stats_model.SIZE_LIMITS:
            sweeps = experiments.fig3_policy_comparison(limit, scale=scale)
            print(tables.render_sweeps(
                sweeps, title=f"Figure 3 — L={limit}, balanced"))
            print()
    elif name == "fig4":
        print(tables.render_fig4(experiments.fig4_lp_saturation(
            scale=scale)))
    elif name == "fig5":
        print(tables.render_sweeps(
            experiments.fig5_total_size_limit(scale),
            title="Figure 5 — DAS-s-64 vs DAS-s-128 (L=16, balanced)"))
    elif name == "fig6":
        for policy in ("LS", "LP", "GS"):
            print(tables.render_sweeps(
                experiments.fig6_component_size_limits(policy,
                                                       scale=scale),
                title=f"Figure 6 — {policy} across size limits"))
            print()
    elif name == "fig7":
        for policy in ("LS", "LP", "GS"):
            print(tables.render_fig7(
                experiments.fig7_gross_vs_net(policy, 16, scale=scale)))
            print()
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    scale = experiments.get_scale(args.scale)
    with _progress_display(args, label="report"):
        rendered = generate_report(args.out, scale=scale,
                                   sections=args.sections)
    print(f"wrote {len(rendered)} sections to {args.out}:")
    for title in rendered:
        print(f"  - {title}")
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.analysis.sensitivity import (
        render_tornado,
        sensitivity_scan,
    )

    scale = experiments.get_scale(args.scale)
    results = sensitivity_scan(net_rho=args.net_load,
                               policy=args.policy, scale=scale)
    print(render_tornado(results))
    return 0


def _cmd_characterize(args) -> int:
    from repro.workload import characterize

    records = read_swf(args.path)
    print(characterize(records).summary())
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import cli as lint_cli

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    argv.extend(["--format", args.format])
    if args.select:
        argv.extend(["--select", args.select])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.fix:
        argv.append("--fix")
    if args.fix_suppress:
        argv.extend(["--fix-suppress", args.fix_suppress])
    return lint_cli.main(argv)


def _default_cache_dir(explicit: Optional[str]) -> Optional[str]:
    """An explicit ``--cache-dir``, else ``.repro-cache`` when present."""
    if explicit is not None:
        return explicit
    from repro.runner.cache import DEFAULT_CACHE_DIR

    return DEFAULT_CACHE_DIR if os.path.isdir(DEFAULT_CACHE_DIR) \
        else None


def _cmd_obs(args) -> int:
    from repro.obs import cli as obs_cli

    if args.obs_command == "summary":
        return obs_cli.summary(directory=args.dir, log=args.log)
    if args.obs_command == "tail":
        return obs_cli.tail(args.log, n=args.events, kinds=args.kind,
                            since=args.since, until=args.until,
                            follow=args.follow, timeout=args.timeout)
    if args.obs_command == "validate":
        return obs_cli.validate(args.target)
    if args.obs_command == "dash":
        return obs_cli.dash(directory=args.dir,
                            cache_dir=_default_cache_dir(args.cache_dir),
                            interval=args.interval,
                            iterations=args.iterations,
                            duration=args.duration)
    if args.obs_command == "trace":
        return obs_cli.export_trace(
            directory=args.dir,
            cache_dir=_default_cache_dir(args.cache_dir),
            out_path=args.out)
    if args.obs_command == "manifest":
        return obs_cli.show_manifest(args.key, directory=args.dir)
    config = _config_from_args(args)
    return obs_cli.profile_run(
        config, WORKLOADS[args.workload](), das_t_900(),
        args.utilization, top=args.top,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.runner.cache import DEFAULT_CACHE_DIR
    from repro.service import ServiceServer, resolve_socket_path

    socket_path = resolve_socket_path(args.socket)
    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    server = ServiceServer(cache_dir, socket_path, fleet=args.fleet,
                           workers=args.task_workers)
    print(f"sweep service listening on {socket_path} "
          f"(cache {cache_dir}, fleet {args.fleet})", flush=True)
    asyncio.run(server.serve())
    print("sweep service stopped")
    return 0


def _print_campaign_summary(result) -> None:
    print(f"campaign {result.campaign[:12]}: "
          f"{result.statuses.count('computed')} computed, "
          f"{result.statuses.count('hit')} cached, "
          f"{result.statuses.count('deduped')} deduped")


def _cmd_submit(args) -> int:
    from repro.analysis.sweeps import SweepResult
    from repro.service import (
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
        resolve_socket_path,
        sweep_spec,
    )

    config = _config_from_args(args)
    grid = _parse_grid(args.grid)
    label = args.label or args.policy
    stop = args.stop_after if args.stop_after > 0 else None
    spec = sweep_spec(label, config, grid, workload=args.workload,
                      backend=args.backend, stop_after_saturation=stop)
    client = ServiceClient(resolve_socket_path(args.socket))
    try:
        result = client.run(spec)
    except ServiceConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_campaign_summary(result)
    sweep_result = SweepResult(label=label, config=config,
                               points=tuple(result.points))
    print(tables.render_sweeps(
        [sweep_result],
        title=f"{label} L={args.limit} ({args.workload}) [service]"))
    if args.json:
        from repro.analysis.io import save_sweep

        save_sweep(sweep_result, args.json)
        print(f"saved sweep to {args.json}")
    return 0


def _cmd_attach(args) -> int:
    from repro.service import (
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
        resolve_socket_path,
    )

    client = ServiceClient(resolve_socket_path(args.socket))
    try:
        result = client.run_attached(args.campaign)
    except ServiceConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_campaign_summary(result)
    # The original configuration lives server-side (in the ledger), so
    # reattachment renders the plain point rows.
    print(f"{'offered':>8} {'gross':>8} {'net':>8} "
          f"{'response':>10} {'ci95':>10}")
    for p in result.points:
        flag = " SAT" if p.saturated else ""
        print(f"{p.offered_gross:8.3f} {p.gross_utilization:8.4f} "
              f"{p.net_utilization:8.4f} {p.mean_response:10.2f} "
              f"{p.ci_half_width:10.2f}{flag}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "maxutil": _cmd_maxutil,
    "trace": _cmd_trace,
    "trace-info": _cmd_trace_info,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "sensitivity": _cmd_sensitivity,
    "characterize": _cmd_characterize,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "attach": _cmd_attach,
}


@contextlib.contextmanager
def _runner_environment(args) -> Iterator[None]:
    """Export ``--workers`` / ``--cache`` as the runner's env defaults.

    ``experiment`` and ``report`` reach sweeps through the experiment
    functions, whose ``workers``/``cache`` parameters default to the
    ``$REPRO_WORKERS`` / ``$REPRO_CACHE`` environment variables — so the
    flags are bridged through the environment for the duration of one
    command and restored afterwards (tests call :func:`main` in-process).
    """
    updates: dict[str, str] = {}
    if getattr(args, "workers", None) is not None:
        updates[WORKERS_ENV] = str(args.workers)
    if getattr(args, "cache", None) is not None:
        updates[CACHE_ENV] = "1" if args.cache else "0"
    if getattr(args, "obs", None) is not None:
        updates[OBS_ENV] = "1" if args.obs else "0"
    if getattr(args, "retries", None) is not None:
        updates[RETRIES_ENV] = str(args.retries)
    if getattr(args, "task_timeout", None) is not None:
        updates[TIMEOUT_ENV] = str(args.task_timeout)
    saved = {key: os.environ.get(key) for key in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    with _runner_environment(args):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
