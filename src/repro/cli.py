"""Command-line interface: ``python -m repro <command>``.

Subcommands give downstream users the paper's workflow without writing
code:

- ``suite``    — run the standard benchmark suite across the platform
  catalog and print ranked scores;
- ``audit``    — audit a design plan (JSON file) against the Seven
  Challenges;
- ``dse``      — explore the demo co-design space (platform knobs
  priced against the suite) with any search strategy;
- ``mission``  — sweep the UAV compute ladder through the closed-loop
  patrol mission (§2.4);
- ``fleet``    — Monte Carlo mission sweep: the compute ladder flown
  through seeded perturbations of battery, payload, sensor rate, and
  workload, evaluated by the vectorized fleet engine;
- ``fig1``     — regenerate the publication-trend figure;
- ``verify``   — parse a pipeline DSL file and statically verify it
  against a catalog platform;
- ``trace``    — run an instrumented simulation and export a Chrome
  trace (open in Perfetto / ``chrome://tracing``), or summarize one;
- ``bench``    — run registered benchmarks (``--list`` to discover
  them); every run appends provenance-stamped records to the perf
  ledger (``BENCH_LEDGER.jsonl``), and ``--check`` gates the gated
  metrics against the committed baselines
  (``BENCH_BASELINES.json``), exiting nonzero on regression;
- ``run``      — execute a declarative scenario file (suite, mission,
  fleet, or dse) through the same code paths as the subcommands above,
  cache keys included;
- ``spec``     — validate (``spec validate``) or normalize and
  pretty-print (``spec show``) spec files;
- ``serve``    — run the evaluation daemon: concurrent clients submit
  candidates over a JSON-lines socket and the server coalesces every
  tenant's cache misses into shared oracle batches (results and cache
  keys are identical to the one-shot paths above);
- ``submit``   — client side of ``serve``: price candidates against a
  running daemon (inline configs or space indices), query its
  dashboard, or ask it to shut down.

Generated artifacts (traces, profiles) default into the gitignored
``artifacts/`` directory; pass an explicit path to write elsewhere.

``suite``, ``mission``, and ``fleet`` accept ``--json <path>``
(machine-readable
results with run provenance) and ``--trace-out <path>`` (Chrome trace of
the run) so every workflow can feed automated optimization loops instead
of only printing tables.  ``suite`` and ``dse`` additionally accept
``--jobs N`` (process-pool evaluation; results are identical to serial)
and ``--cache DIR`` (on-disk result cache; warm re-runs cost zero
oracle calls).  ``fleet --profile-out <path>`` writes a span-scoped
profile: per-phase hotspot tables plus the engine's exact
bytes-allocated counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.report import ascii_bar_chart, format_table


def _artifact_path(name: str) -> str:
    """Default location for a generated artifact: the gitignored
    ``artifacts/`` directory (created on demand), so default-named
    traces and profiles stop landing at the repo root."""
    import os

    os.makedirs("artifacts", exist_ok=True)
    return os.path.join("artifacts", name)


def _run_suite(targets, reference="embedded-cpu", workloads=None,
               jobs=1, cache_dir=None, json_path=None, trace_out=None,
               command_config=None) -> int:
    """Shared suite execution path: ``repro suite`` and suite scenarios
    both land here, so a scenario file reproduces the programmatic run
    exactly (same runner, same evaluator context, same cache keys)."""
    from repro.benchmarksuite import SuiteRunner, row_cache
    from repro.telemetry import (
        MetricsRegistry,
        Tracer,
        run_provenance,
        write_chrome_trace,
        write_metrics_json,
    )

    tracer = Tracer() if trace_out else None
    metrics = MetricsRegistry()
    runner = SuiteRunner(workloads)
    cache = row_cache(cache_dir) if cache_dir else None
    rows = runner.run(list(targets), tracer=tracer, metrics=metrics,
                      jobs=jobs, cache=cache)
    print(runner.report(rows))
    print()
    scores = runner.ranked_scores(rows, reference)
    print(format_table(["target", f"geomean speedup vs {reference}"],
                       scores, title="Suite scores"))
    if cache is not None:
        stats = cache.stats()
        print(f"result cache: {stats['hits']} hit(s)"
              f" ({stats['disk_hits']} from disk),"
              f" {stats['misses']} miss(es)")

    provenance = run_provenance(config={**(command_config or {}),
                                        "reference": reference,
                                        "jobs": jobs,
                                        "cache": cache_dir})
    if json_path:
        write_metrics_json(
            json_path, registry=metrics, provenance=provenance,
            extra={
                "rows": [{**dataclasses.asdict(r),
                          "meets_deadline": r.meets_deadline}
                         for r in rows],
                "scores": [{"target": t, "geomean_speedup": s}
                           for t, s in scores],
            },
        )
        print(f"wrote metrics JSON to {json_path}")
    if trace_out and tracer is not None:
        count = write_chrome_trace(tracer, trace_out,
                                   provenance=provenance)
        print(f"wrote {count} trace events to {trace_out}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.hw import (
        HeterogeneousSoC,
        asic_gemm_engine,
        embedded_cpu,
    )
    from repro.spec.registry import PLATFORMS

    targets = [PLATFORMS.build(name) for name in
               ("embedded-cpu", "desktop-cpu", "embedded-gpu",
                "midrange-fpga")]
    targets.append(
        HeterogeneousSoC("gemm-soc", embedded_cpu("soc-host"),
                         [asic_gemm_engine()]))
    return _run_suite(targets, jobs=args.jobs, cache_dir=args.cache,
                      json_path=args.json, trace_out=args.trace_out,
                      command_config={"command": "suite"})


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.advisor import (
        DesignReview,
        EvaluationPlan,
        SevenChallengesAdvisor,
    )

    with open(args.plan) as handle:
        plan = json.load(handle)
    evaluation = EvaluationPlan(
        metrics=tuple(plan.get("metrics", ())),
        evaluated_workloads=tuple(plan.get("evaluated_workloads", ())),
        baseline_platforms=tuple(plan.get("baseline_platforms", ())),
        end_to_end=bool(plan.get("end_to_end", False)),
        closed_loop=bool(plan.get("closed_loop", False)),
    )
    review = DesignReview(
        name=plan.get("name", "unnamed"),
        accelerated_categories=tuple(
            plan.get("accelerated_categories", ())
        ),
        target_platform=plan.get("target_platform", "asic"),
        evaluation=evaluation,
        expert_consultations=int(plan.get("expert_consultations", 0)),
        algorithm_vintage_years=tuple(
            plan.get("algorithm_vintage_years", ())
        ),
        integrates_with_middleware=bool(
            plan.get("integrates_with_middleware", False)
        ),
        system_budget_accounted=bool(
            plan.get("system_budget_accounted", False)
        ),
        shared_resource_analysis=bool(
            plan.get("shared_resource_analysis", False)
        ),
        lifecycle_analysis=bool(plan.get("lifecycle_analysis", False)),
        deployment_scale_units=int(
            plan.get("deployment_scale_units", 1)
        ),
    )
    advisor = SevenChallengesAdvisor()
    findings = advisor.audit(review)
    print(f"{review.name}: score {advisor.score(review):.0f}/100,"
          f" {len(findings)} finding(s)")
    for finding in findings:
        print(f"  [{finding.severity.value}]"
              f" {finding.challenge.value}: {finding.message}")
        print(f"      remedy: {finding.recommendation}")
    return 0 if not findings else 1


def _run_mission(config, tiers, seed=None, json_path=None,
                 trace_out=None, command_config=None) -> int:
    """Shared mission execution path (see :func:`_run_suite`)."""
    from repro.system import sweep_compute_tiers
    from repro.telemetry import (
        Tracer,
        run_provenance,
        write_chrome_trace,
        write_metrics_json,
    )

    tracer = Tracer() if trace_out else None
    if tracer is not None:
        rows = []
        for name, platform, mass, power in tiers:
            with tracer.wall_span(name, track="mission"):
                pairs = sweep_compute_tiers(
                    config, [(name, platform, mass, power)]
                )
            rows.append(pairs[0])
    else:
        rows = sweep_compute_tiers(config, list(tiers))
    print(format_table(
        ["tier", "outcome", "safe speed (m/s)", "endurance (s)",
         "energy (kJ)"],
        [[name,
          "success" if r.success else f"FAIL ({r.failure_reason})",
          r.safe_speed_m_s, r.endurance_s, r.energy_j / 1e3]
         for name, r in rows],
        title=f"Closed-loop patrol mission, {config.laps} laps",
    ))
    provenance = run_provenance(
        seed=seed,
        config={**(command_config or {}), "laps": config.laps},
    )
    if json_path:
        write_metrics_json(
            json_path, provenance=provenance,
            extra={"rows": [{"tier": name,
                             **dataclasses.asdict(result)}
                            for name, result in rows]},
        )
        print(f"wrote metrics JSON to {json_path}")
    if trace_out and tracer is not None:
        count = write_chrome_trace(tracer, trace_out,
                                   provenance=provenance)
        print(f"wrote {count} trace events to {trace_out}")
    return 0


def _patrol_config(world_seed: int, laps: int):
    """The 40-obstacle patrol mission ``repro mission`` and ``repro
    fleet`` fly."""
    from repro.kernels.planning import CircleWorld
    from repro.system import MissionConfig

    world = CircleWorld.random(dim=2, n_obstacles=40, extent=120.0,
                               radius_range=(1.0, 3.0),
                               seed=world_seed, keep_corners_free=3.0)
    return MissionConfig(world=world, start=np.array([1.0, 1.0]),
                         goal=np.array([118.0, 118.0]), laps=laps)


def _cmd_mission(args: argparse.Namespace) -> int:
    from repro.hw import uav_compute_tiers

    return _run_mission(_patrol_config(args.seed, args.laps),
                        uav_compute_tiers(), seed=args.seed,
                        json_path=args.json,
                        trace_out=args.trace_out,
                        command_config={"command": "mission"})


def _fleet_jobs_refused(jobs: Optional[int]) -> bool:
    """Print why and return True for any ``--jobs`` but 1 on a fleet
    study: studies run in-process."""
    if jobs in (None, 1):
        return False
    print(f"--jobs {jobs}: fleet studies run in-process (a process"
          " pool loses to the serial study); drop --jobs",
          file=sys.stderr)
    return True


def _run_fleet(config, tiers, trials=64, seed=0,
               perturbation=None, chunk_size=None,
               json_path=None, trace_out=None,
               profile_out=None, command_config=None) -> int:
    """Shared fleet execution path (see :func:`_run_suite`)."""
    import contextlib

    from repro.system.fleet import FleetStudy
    from repro.telemetry import (
        MetricsRegistry,
        SpanProfiler,
        Tracer,
        format_hotspots,
        measure_allocations,
        run_provenance,
        use_tracer,
        write_chrome_trace,
        write_metrics_json,
    )

    if trials < 1:
        print(f"--trials must be >= 1 (got {trials})", file=sys.stderr)
        return 2
    if chunk_size is not None and chunk_size < 1:
        print(f"--chunk-size must be >= 1 (got {chunk_size})",
              file=sys.stderr)
        return 2
    kwargs = {} if perturbation is None else {
        "perturbation": perturbation}
    study = FleetStudy(config=config, tiers=list(tiers), trials=trials,
                       seed=seed, **kwargs)
    metrics = MetricsRegistry()
    tracer = Tracer() if (trace_out or profile_out) else None
    profiler = None
    meter = None
    if profile_out and tracer is not None:
        # Span-scoped profiling: the engine's phase spans
        # (fleet.plan/gather/price/solve/emit) each capture their own
        # cProfile run, and the allocation meter records the exact SoA
        # working set the kernels allocate.
        profiler = SpanProfiler(cpu=True, memory=True)
        tracer.profiler = profiler
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if profiler is not None:
            meter = stack.enter_context(measure_allocations())
        result = study.run(metrics=metrics, chunk_size=chunk_size)
    print(format_table(
        ["tier", "success", "time p50 (s)", "time p99 (s)",
         "energy p50 (kJ)", "failures"],
        [[s.tier, f"{s.success_rate:.0%}", s.mission_time_p50_s,
          s.mission_time_p99_s, s.energy_p50_j / 1e3,
          ", ".join(f"{k}:{v}" for k, v in
                    sorted(s.failure_counts.items())) or "-"]
         for s in result.statistics],
        title=f"Fleet Monte Carlo, {trials} trial(s) x"
              f" {len(study.tiers)} tier(s), {config.laps} lap(s)",
    ))
    best = result.best_tier()
    print(f"best tier: {best.tier}"
          f" ({best.success_rate:.0%} success,"
          f" p50 {best.mission_time_p50_s:.1f} s)")
    print(f"rollouts: {len(result.fleet)}"
          f" (batch-priced: {result.batch_priced},"
          f" scalar fallbacks: {result.scalar_fallback})")
    provenance = run_provenance(
        seed=seed,
        config={**(command_config or {}), "trials": trials,
                "chunk_size": chunk_size, "laps": config.laps},
    )
    if json_path:
        write_metrics_json(
            json_path, registry=metrics, provenance=provenance,
            extra={
                "tiers": result.to_rows(),
                "best_tier": best.tier,
                "rollouts": len(result.fleet),
                "batch_priced": result.batch_priced,
                "scalar_fallback": result.scalar_fallback,
            },
        )
        print(f"wrote metrics JSON to {json_path}")
    if trace_out and tracer is not None:
        count = write_chrome_trace(tracer, trace_out,
                                   provenance=provenance)
        print(f"wrote {count} trace events to {trace_out}")
    if profile_out and profiler is not None and meter is not None:
        print()
        print(format_table(
            ["phase", "wall (ms)", "numpy alloc (MB)",
             "top hotspot (self ms)"],
            [[record.name, record.wall_s * 1e3,
              (record.numpy_alloc_b or 0) / 1e6,
              (f"{_short_fn(record.hotspots[0].function)}"
               f" ({record.hotspots[0].total_s * 1e3:.1f})")
              if record.hotspots else "-"]
             for record in profiler.records],
            title="Per-phase profile",
        ))
        print(format_hotspots(profiler.hotspots(top_n=8),
                              title="Merged hotspots (by self time)"))
        sites = meter.snapshot()
        fleet = result.fleet
        print(f"alloc meter: {fleet.alloc_bytes:,} B engine working"
              f" set ({fleet.alloc_bytes_per_rollout:,.0f}"
              f" B/rollout, {len(sites)} site(s))")
        document = {
            "schema": "repro-profile/1",
            "provenance": provenance,
            "profile": profiler.report(),
            "alloc_sites": sites,
            "alloc_bytes": fleet.alloc_bytes,
            "alloc_bytes_per_rollout": fleet.alloc_bytes_per_rollout,
        }
        with open(profile_out, "w") as handle:
            json.dump(document, handle, indent=2, default=str)
            handle.write("\n")
        print(f"wrote profile JSON to {profile_out}")
    return 0


def _short_fn(function: str) -> str:
    """Trim a pstats ``path:line(name)`` label to its basename."""
    import os

    head, sep, tail = function.partition("(")
    return os.path.basename(head) + sep + tail


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.hw import uav_compute_tiers

    if _fleet_jobs_refused(args.jobs):
        return 2
    return _run_fleet(_patrol_config(args.world_seed, args.laps),
                      uav_compute_tiers(), trials=args.trials,
                      seed=args.seed, chunk_size=args.chunk_size,
                      json_path=args.json, trace_out=args.trace_out,
                      profile_out=args.profile_out,
                      command_config={"command": "fleet",
                                      "world_seed": args.world_seed})


def _run_dse(space, objective_name="suite_objective",
             strategy="surrogate", budget=24, seed=0, jobs=1,
             cache_dir=None, chunk_size=None, funnel=None,
             json_path=None, command_config=None) -> int:
    """Shared DSE execution path (see :func:`_run_suite`).  The
    objective is resolved from the registry by name, and that name goes
    into the evaluator context — so spec-driven and programmatic runs
    share cache keys."""
    from repro.dse import (
        EvolutionarySearch,
        SurrogateSearch,
        grid_search,
        random_search,
    )
    from repro.dse.funnel import FunnelConfig, funnel_search
    from repro.engine import Evaluator, ResultCache
    from repro.spec.registry import OBJECTIVES
    from repro.telemetry import run_provenance, write_metrics_json

    if budget < 1:
        print(f"--budget must be >= 1 (got {budget})",
              file=sys.stderr)
        return 2
    if chunk_size is not None and chunk_size < 1:
        print(f"--chunk-size must be >= 1 (got {chunk_size})",
              file=sys.stderr)
        return 2
    objective = OBJECTIVES.get(objective_name)
    cache = ResultCache(cache_dir) if cache_dir else None
    evaluator = Evaluator(
        objective, jobs=jobs, cache=cache, seed=seed,
        chunk_size=chunk_size,
        context={"task": "dse-codesign",
                 "objective": objective_name},
    )
    tier_report = None
    if strategy == "grid":
        result = grid_search(space, budget=budget,
                             evaluator=evaluator)
    elif strategy == "random":
        result = random_search(space, budget=budget,
                               seed=seed, evaluator=evaluator)
    elif strategy == "evolutionary":
        search = EvolutionarySearch(space, seed=seed)
        result = search.run(budget=budget, evaluator=evaluator)
    elif strategy == "funnel":
        result, funnel_strategy = funnel_search(
            space, budget=budget, seed=seed,
            config=funnel if funnel is not None else FunnelConfig(),
            evaluator=evaluator)
        tier_report = funnel_strategy.tier_report()
    else:  # surrogate
        search = SurrogateSearch(
            space, n_initial=max(2, min(8, budget)),
            seed=seed)
        result = search.run(budget=budget, evaluator=evaluator)

    print(format_table(
        ["knob", "value"],
        sorted(result.best_config.items()),
        title=f"Best of {result.evaluations} evaluation(s)"
              f" ({strategy}, {space.size}-point space)",
    ))
    print(f"objective: {result.best_value:.6g}")
    stats = evaluator.stats()
    print(f"oracle calls: {stats['oracle_calls']}"
          f" (cache hits: {stats['hits']}, jobs: {jobs})")
    print(f"batch-priced: {stats['batch_hits']}"
          f" (scalar fallbacks: {stats['batch_fallbacks']})")
    if chunk_size:
        print(f"chunks: {stats['chunks']}"
              f" (chunk size {chunk_size})")
    if tier_report is not None:
        print(format_table(
            ["tier", "evaluated", "survivors", "killed", "kill rate"],
            [(row["tier"], row["evaluated"], row["survivors"],
              row["killed"], f"{row['kill_rate']:.1%}"
              + (" (forced)" if row["forced"] else ""))
             for row in tier_report],
            title="Funnel survivor report (cheapest tier first)",
        ))
        screened = tier_report[0]["evaluated"]
        reached = tier_report[-1]["evaluated"]
        if screened:
            print(f"top-tier fraction: {reached}/{screened}"
                  f" ({reached / screened:.2%})")
    if json_path:
        provenance = run_provenance(
            seed=seed,
            config={**(command_config or {}), "strategy": strategy,
                    "budget": budget, "jobs": jobs,
                    "cache": cache_dir},
        )
        extra = {
            "best_config": result.best_config,
            "best_value": result.best_value,
            "evaluations": result.evaluations,
            "trace": result.trace,
            "engine": stats,
        }
        if tier_report is not None:
            extra["funnel"] = tier_report
            extra["engine_tiers"] = evaluator.tier_stats()
        write_metrics_json(
            json_path, provenance=provenance, extra=extra)
        print(f"wrote metrics JSON to {json_path}")
    return 0


def _space_help() -> str:
    """``--space`` help text, derived from the registry the runtime
    lookup uses so the two cannot drift."""
    from repro.spec.registry import SPACES

    return "design space to search: " + ", ".join(SPACES.names())


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.errors import SpecError
    from repro.spec.registry import OBJECTIVES, SPACES

    try:
        space = SPACES.build(args.space, "--space")
        OBJECTIVES.entry(args.objective, "--objective")
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2
    return _run_dse(space, objective_name=args.objective,
                    strategy=args.strategy,
                    budget=args.budget, seed=args.seed,
                    jobs=args.jobs, cache_dir=args.cache,
                    chunk_size=args.chunk_size,
                    json_path=args.json,
                    command_config={"command": "dse"})


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.biblio import TOP_VENUES, fig1_series, generate_corpus

    corpus = generate_corpus(seed=args.seed)
    trend = fig1_series(corpus, venues=TOP_VENUES)
    print(ascii_bar_chart(
        [str(year) for year, _ in trend.series],
        [float(count) for _, count in trend.series],
        title="Fig. 1: autonomy-accelerator mentions per year"
              " (synthetic corpus)",
    ))
    print(f"total={trend.total}  CAGR={trend.growth_rate:.1%}")
    return 0


def _catalog_builders():
    """Programmable catalog platforms, straight from the registry —
    fixed-function accelerators (``programmable=False``) stay
    spec-addressable but are not standalone CLI targets."""
    from repro.spec.registry import PLATFORMS

    return {entry.name: entry.builder
            for entry in PLATFORMS.entries()
            if entry.meta.get("programmable", True)}


def _platform_help() -> str:
    """``--platform`` help text, derived from the same registry as the
    runtime lookup so the two cannot drift."""
    return "catalog platform: " + ", ".join(_catalog_builders())


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import SpecError
    from repro.spec import (
        FleetScenario,
        MissionScenario,
        SuiteScenario,
        load_scenario,
    )

    try:
        scenario = load_scenario(args.scenario)
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2
    run = scenario.run
    print(f"scenario {scenario.name!r} ({args.scenario})")
    command_config = {"command": "run", "scenario": args.scenario}
    if isinstance(run, SuiteScenario):
        return _run_suite(
            run.targets, reference=run.reference,
            workloads=run.workloads,
            jobs=args.jobs if args.jobs is not None else run.jobs,
            cache_dir=args.cache, json_path=args.json,
            trace_out=args.trace_out, command_config=command_config)
    if isinstance(run, MissionScenario):
        return _run_mission(
            run.config, run.tiers, seed=run.seed,
            json_path=args.json, trace_out=args.trace_out,
            command_config=command_config)
    if isinstance(run, FleetScenario):
        if _fleet_jobs_refused(args.jobs):
            return 2
        return _run_fleet(
            run.config, run.tiers, trials=run.trials, seed=run.seed,
            perturbation=run.perturbation,
            chunk_size=run.chunk_size, json_path=args.json,
            trace_out=args.trace_out, command_config=command_config)
    if args.trace_out:
        print("note: --trace-out is ignored for dse scenarios",
              file=sys.stderr)
    return _run_dse(
        run.space, objective_name=run.objective,
        strategy=run.strategy, budget=run.budget, seed=run.seed,
        jobs=args.jobs if args.jobs is not None else run.jobs,
        cache_dir=args.cache, chunk_size=run.chunk_size,
        funnel=run.funnel, json_path=args.json,
        command_config=command_config)


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.errors import SpecError
    from repro.spec import dump_spec, load_spec

    if args.spec_command == "validate":
        failures = 0
        for path in args.files:
            try:
                document = dump_spec(load_spec(path))
            except SpecError as error:
                print(f"INVALID {path}: {error}")
                failures += 1
            else:
                print(f"OK      {path} ({document['kind']})")
        return 1 if failures else 0
    # show: load, normalize, and pretty-print the document
    try:
        document = dump_spec(load_spec(args.file))
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.dsl import parse_pipeline, verify_pipeline

    builders = _catalog_builders()
    if args.platform not in builders:
        print(f"unknown platform {args.platform!r}; choose from"
              f" {sorted(builders)}", file=sys.stderr)
        return 2
    with open(args.pipeline) as handle:
        workload = parse_pipeline(handle.read())
    report = verify_pipeline(workload, builders[args.platform]())
    status = "VERIFIED" if report.verified else "REJECTED"
    print(f"[{status}] {report.workload} on {report.platform}")
    for name, utilization in report.stage_utilization.items():
        print(f"  {name}: utilization {utilization:.3f}")
    for violation in report.violations:
        print(f"  VIOLATION {violation.check}"
              f"{' @ ' + violation.stage if violation.stage else ''}:"
              f" {violation.detail}")
    return 0 if report.verified else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        MetricsRegistry,
        Tracer,
        run_provenance,
        trace_summary,
        write_chrome_trace,
        write_metrics_json,
    )

    from repro.errors import TelemetryError

    if args.trace_command == "summary":
        with open(args.trace) as handle:
            document = json.load(handle)
        try:
            summary = trace_summary(document)
        except TelemetryError as error:
            print(f"{args.trace}: {error}", file=sys.stderr)
            return 2
        print(f"{summary['events']} events;"
              f" phases {summary['phases']}")
        print(format_table(
            ["track", "spans", "busy (ms)"],
            [[track, int(stats["spans"]), stats["busy_us"] / 1e3]
             for track, stats in summary["tracks"].items()],
            title="Span tracks",
        ))
        return 0

    if args.duration <= 0:
        print(f"--duration must be > 0 (got {args.duration})",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    metrics = MetricsRegistry()

    if args.trace_command == "pipeline":
        from repro.benchmarksuite.workloads import standard_suite
        from repro.system.pipeline import PipelineSimulation

        workloads = {w.name: w for w in standard_suite()}
        if args.workload not in workloads:
            print(f"unknown workload {args.workload!r}; choose from"
                  f" {sorted(workloads)}", file=sys.stderr)
            return 2
        builders = _catalog_builders()
        if args.platform not in builders:
            print(f"unknown platform {args.platform!r}; choose from"
                  f" {sorted(builders)}", file=sys.stderr)
            return 2
        workload = workloads[args.workload]
        platform = builders[args.platform]()
        service_times = {}
        for stage in workload.graph.stages:
            if not platform.supports(stage.profile):
                print(f"{platform.name} cannot run stage"
                      f" {stage.name!r}", file=sys.stderr)
                return 2
            service_times[stage.name] = \
                platform.estimate(stage.profile).latency_s
        simulation = PipelineSimulation(
            workload.graph, service_times,
            queue_capacity=args.queue_capacity,
            tracer=tracer, metrics=metrics,
        )
        result = simulation.run(args.duration)
        print(f"{workload.name} on {platform.name}:"
              f" {result.samples_completed}/{result.samples_emitted}"
              f" samples, mean latency"
              f" {result.mean_latency_s() * 1e3:.3f} ms, p99"
              f" {result.p99_latency_s() * 1e3:.3f} ms, drop rate"
              f" {result.drop_rate():.1%}")
        provenance = run_provenance(config={
            "command": "trace pipeline", "workload": args.workload,
            "platform": args.platform, "duration_s": args.duration,
            "queue_capacity": args.queue_capacity,
        })
    else:  # scheduler
        from repro.system.scheduler import (
            PeriodicTask,
            SchedulerPolicy,
            simulate_scheduler,
        )

        policies = {p.value: p for p in SchedulerPolicy}
        if args.policy not in policies:
            print(f"unknown policy {args.policy!r}; choose from"
                  f" {sorted(policies)}", file=sys.stderr)
            return 2
        scale = 2.0 if args.overload else 1.0
        tasks = [
            PeriodicTask("control", period_s=0.01,
                         wcet_s=0.002 * scale, priority=0),
            PeriodicTask("perception", period_s=0.033,
                         wcet_s=0.010 * scale, priority=1),
            PeriodicTask("planning", period_s=0.1,
                         wcet_s=0.025 * scale, priority=2),
        ]
        result = simulate_scheduler(tasks, policies[args.policy],
                                    duration_s=args.duration,
                                    tracer=tracer)
        print(f"{args.policy}: {result.jobs_completed}/"
              f"{result.jobs_released} jobs completed,"
              f" {result.deadline_misses} deadline miss(es),"
              f" utilization {result.utilization:.2f}")
        metrics.counter("scheduler.jobs_released").inc(
            result.jobs_released)
        metrics.counter("scheduler.deadline_misses").inc(
            result.deadline_misses)
        provenance = run_provenance(config={
            "command": "trace scheduler", "policy": args.policy,
            "duration_s": args.duration, "overload": args.overload,
        })

    out = args.out if args.out else _artifact_path("trace.json")
    count = write_chrome_trace(tracer, out,
                               provenance=provenance)
    print(f"wrote {count} trace events to {out}"
          f" (open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics_out:
        write_metrics_json(args.metrics_out, registry=metrics,
                           provenance=provenance)
        print(f"wrote metrics JSON to {args.metrics_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.errors import ServeError
    from repro.serve import EvalServer, ServeConfig
    from repro.telemetry import run_provenance, write_metrics_json

    try:
        config = ServeConfig(
            host=args.host, port=args.port,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue, max_inflight=args.max_inflight,
            cache_dir=args.cache,
            cache_max_entries=args.cache_max_entries,
            jobs=args.jobs, chunk_size=args.chunk_size)
    except ServeError as error:
        print(error, file=sys.stderr)
        return 2
    server = EvalServer(config)

    async def _run() -> None:
        await server.start()
        print(f"serving on {config.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
        await server.run()

    asyncio.run(_run())
    stats = server.stats()
    serve_stats = stats["serve"]
    cache_stats = stats["cache"]
    lookups = cache_stats["hits"] + cache_stats["misses"]
    hit_rate = cache_stats["hits"] / lookups if lookups else 0.0
    latency = serve_stats["request_latency_s"]
    print(f"served {int(serve_stats['requests'])} request(s),"
          f" {int(serve_stats['candidates'])} candidate(s);"
          f" {int(serve_stats['flushes'])} flush(es),"
          f" {int(serve_stats['coalesced_batches'])} coalesced")
    print(f"cache hit rate: {hit_rate:.1%};"
          f" batch occupancy mean:"
          f" {serve_stats['batch_occupancy']['mean']:.1f};"
          f" latency p50 {latency['p50'] * 1e3:.1f} ms /"
          f" p99 {latency['p99'] * 1e3:.1f} ms")
    if args.metrics_json:
        provenance = run_provenance(config={
            "command": "serve", "host": config.host,
            "port": server.port, "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms, "jobs": config.jobs,
            "cache": config.cache_dir,
        })
        write_metrics_json(args.metrics_json,
                           registry=server.metrics,
                           provenance=provenance, extra=stats)
        print(f"wrote metrics JSON to {args.metrics_json}")
    return 0


def _parse_indices(spec: str) -> Optional[list]:
    """``"0,3,8-11"`` -> ``[0, 3, 8, 9, 10, 11]`` (None on a parse
    error, so the caller can print a usage message)."""
    indices = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:  # allow a leading minus to fail below
                lo_text, hi_text = part.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    return None
                indices.extend(range(lo, hi + 1))
            else:
                indices.append(int(part))
        except ValueError:
            return None
    return indices


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.serve import ServeClient

    candidates = None
    indices = None
    if args.candidates:
        with open(args.candidates) as handle:
            candidates = json.load(handle)
        if not isinstance(candidates, list):
            print(f"{args.candidates}: expected a JSON list of"
                  f" candidate configs", file=sys.stderr)
            return 2
    if args.indices:
        indices = _parse_indices(args.indices)
        if indices is None:
            print(f"--indices: cannot parse {args.indices!r}"
                  f" (expected e.g. '0,3,8-11')", file=sys.stderr)
            return 2
    wants_submit = candidates is not None or indices is not None
    if not (wants_submit or args.stats or args.shutdown):
        print("nothing to do: pass --candidates FILE or --space/"
              "--indices (or --stats / --shutdown)", file=sys.stderr)
        return 2
    try:
        client = ServeClient(args.host, args.port,
                             timeout=args.timeout)
    except ServeError as error:
        print(error, file=sys.stderr)
        return 2
    with client:
        if wants_submit:
            try:
                envelope = client.submit(
                    candidates, objective=args.objective,
                    space=args.space if indices is not None else None,
                    indices=indices, tenant=args.tenant,
                    no_coalesce=args.no_coalesce)
            except ServeError as error:
                print(error, file=sys.stderr)
                return 2
            if not envelope.get("ok"):
                print(f"submit rejected:"
                      f" {envelope.get('error', 'unknown')}"
                      f" ({envelope.get('detail', 'no detail')})",
                      file=sys.stderr)
                return 1
            results = envelope["results"]
            hits = sum(1 for result in results if result["cached"])
            print(format_table(
                ["#", "value", "cached"],
                [[i, f"{result['value']:.6g}",
                  "yes" if result["cached"] else "no"]
                 for i, result in enumerate(results)],
                title=f"{len(results)} candidate(s) priced under"
                      f" {args.objective}",
            ))
            print(f"cache hits: {hits}/{len(results)}")
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump(envelope, handle, indent=2)
                print(f"wrote response JSON to {args.json}")
        if args.stats:
            stats = client.stats()
            serve_stats = stats["serve"]
            print(format_table(
                ["metric", "value"],
                [["requests", int(serve_stats["requests"])],
                 ["candidates", int(serve_stats["candidates"])],
                 ["flushes", int(serve_stats["flushes"])],
                 ["coalesced batches",
                  int(serve_stats["coalesced_batches"])],
                 ["queue depth", int(serve_stats["queue_depth"])],
                 ["batch occupancy (mean)",
                  f"{serve_stats['batch_occupancy']['mean']:.1f}"],
                 ["latency p50 (ms)",
                  f"{serve_stats['request_latency_s']['p50'] * 1e3:.2f}"],
                 ["latency p99 (ms)",
                  f"{serve_stats['request_latency_s']['p99'] * 1e3:.2f}"]],
                title="Daemon dashboard",
            ))
        if args.shutdown:
            client.shutdown()
            print("daemon acknowledged shutdown")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.bench import (
        REGISTRY,
        append_records,
        baselines_from_records,
        check_monotone,
        check_records,
        ledger_record,
        load_baselines,
        load_builtins,
        merge_baselines,
        write_baselines,
    )
    from repro.errors import BenchmarkError

    load_builtins()

    selected = REGISTRY.select(args.filter)
    if not selected:
        print(f"no benchmark matches {args.filter!r}; registered:"
              f" {', '.join(REGISTRY.names())}", file=sys.stderr)
        return 2

    if args.list:
        print(format_table(
            ["name", "sizes", "smoke", "gated metrics", "tags"],
            [[entry.name,
              ",".join(str(s) for s in entry.sizes),
              ",".join(str(s) for s in entry.smoke_sizes),
              ",".join(m.name for m in entry.gated_metrics()) or "-",
              ",".join(entry.tags) or "-"]
             for entry in selected],
            title="Registered benchmarks",
        ))
        for entry in selected:
            print(f"  {entry.name}: {entry.description}")
        return 0

    sizes_override = None
    if args.sizes:
        try:
            sizes_override = tuple(
                int(token) for token in args.sizes.split(",")
                if token.strip())
        except ValueError:
            sizes_override = ()
        if not sizes_override:
            print(f"--sizes must be comma-separated integers"
                  f" (got {args.sizes!r})", file=sys.stderr)
            return 2

    profiler = None
    if args.profile:
        from repro.telemetry import SpanProfiler

        profiler = SpanProfiler(cpu=True, memory=True)

    records = []
    try:
        for benchmark in selected:
            sizes = sizes_override or (
                benchmark.sizes if args.full
                else benchmark.smoke_sizes)
            rows = []
            for size in sizes:
                started = time.perf_counter()
                if profiler is not None:
                    with profiler.capture(
                            f"{benchmark.name}@{size}",
                            track="bench"):
                        measured = benchmark.run(size)
                else:
                    measured = benchmark.run(size)
                wall_s = time.perf_counter() - started
                records.append(ledger_record(
                    benchmark.name, size, measured, wall_s,
                    seed=args.seed,
                    config={"command": "bench",
                            "filter": args.filter,
                            "full": bool(args.full)}))
                rows.append(
                    [size]
                    + [measured[m.name] for m in benchmark.metrics]
                    + [round(wall_s, 3)])
            print(format_table(
                ["size"]
                + [m.name + (f" ({m.unit})" if m.unit else "")
                   for m in benchmark.metrics]
                + ["wall (s)"],
                rows,
                title=f"{benchmark.name} — {benchmark.description}"))
            print()
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 2

    if profiler is not None:
        from repro.telemetry import format_hotspots

        print(format_hotspots(
            profiler.hotspots(),
            title="Hotspots (merged, by self time)"))
        print()

    if not args.no_ledger:
        count = append_records(args.ledger, records)
        print(f"appended {count} record(s) to {args.ledger}")

    checks = []
    regressions = []
    monotone_checks = []
    monotone_violations = []
    if args.check:
        baselines = load_baselines(args.baselines)
        if not baselines:
            print(f"no baselines at {args.baselines};"
                  f" nothing to check", file=sys.stderr)
        benchmarks = {entry.name: entry for entry in selected}
        checks = check_records(records, baselines, benchmarks,
                               args.threshold)
        for check in checks:
            marker = "REGRESSION" if check.regressed else "ok"
            print(f"  [{marker}] {check.benchmark}@{check.size}"
                  f" {check.metric}: {check.measured:g} vs baseline"
                  f" {check.baseline:g} ({check.change:+.1%},"
                  f" threshold -{check.threshold:.0%})")
        regressions = [check for check in checks if check.regressed]
        if regressions:
            print(f"{len(regressions)} regression(s) beyond"
                  f" {args.threshold:.0%}"
                  + (" (warn-only)" if args.warn_only else ""),
                  file=sys.stderr)
        monotone_checks = check_monotone(records, benchmarks,
                                         args.monotone_tolerance)
        for check in monotone_checks:
            marker = "NON-MONOTONE" if check.violated else "ok"
            print(f"  [{marker}] {check.benchmark} {check.metric}:"
                  f" {check.value:g} @{check.size} vs"
                  f" {check.prev_value:g} @{check.prev_size}"
                  f" (floor {check.tolerance:g}x)")
        monotone_violations = [check for check in monotone_checks
                               if check.violated]
        if monotone_violations:
            # Machine-independent (same-run) criterion: hard-fails
            # even under --warn-only, which exists for noisy
            # cross-machine baseline comparisons.
            print(f"{len(monotone_violations)} monotonicity"
                  f" violation(s) below"
                  f" {args.monotone_tolerance:g}x", file=sys.stderr)

    if args.update_baselines:
        document = merge_baselines(args.baselines,
                                   baselines_from_records(records))
        write_baselines(args.baselines, document)
        print(f"wrote {len(document['entries'])} baseline(s)"
              f" to {args.baselines}")

    if args.json:
        document = {
            "schema": "repro-bench-run/1",
            "records": records,
            "checks": [dataclasses.asdict(check)
                       for check in checks],
            "regressions": len(regressions),
            "monotone_checks": [dataclasses.asdict(check)
                                for check in monotone_checks],
            "monotone_violations": len(monotone_violations),
        }
        if profiler is not None:
            document["profile"] = profiler.report()
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, default=str)
            handle.write("\n")
        print(f"wrote bench JSON to {args.json}")

    if monotone_violations:
        return 1
    return 1 if regressions and not args.warn_only else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="End-to-end co-design framework for"
                    " autonomous-system accelerators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="run the benchmark suite"
                                         " across the platform catalog")
    suite.add_argument("--json", help="also write rows + scores +"
                                      " metrics as JSON")
    suite.add_argument("--trace-out", help="write a Chrome trace of"
                                           " the run")
    suite.add_argument("--jobs", type=int, default=1,
                       help="evaluate rows on a process pool of this"
                            " width (results are identical to serial)")
    suite.add_argument("--cache",
                       help="directory for the on-disk result cache;"
                            " re-runs answer from it without"
                            " re-evaluating")

    dse = sub.add_parser("dse", help="design-space exploration over"
                                     " the demo co-design space"
                                     " (suite-priced platform knobs)")
    dse.add_argument("--strategy", default="surrogate",
                     choices=["grid", "random", "evolutionary",
                              "surrogate", "funnel"])
    dse.add_argument("--space", default="codesign",
                     help=_space_help())
    dse.add_argument("--objective", default="suite_objective",
                     help="registered objective to optimize (e.g."
                          " suite_objective, mission_objective)")
    dse.add_argument("--budget", type=int, default=24,
                     help="unique-candidate evaluation budget"
                          " (for --strategy funnel: the cheap-tier"
                          " screen budget)")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--jobs", type=int, default=1,
                     help="process-pool width for candidate pricing")
    dse.add_argument("--cache",
                     help="directory for the on-disk result cache")
    dse.add_argument("--chunk-size", type=int, default=None,
                     help="evaluate at most this many pending"
                          " candidates per oracle pass (bounds the"
                          " peak working set; results are identical)")
    dse.add_argument("--json", help="also write the best design +"
                                    " engine stats as JSON")

    audit = sub.add_parser("audit", help="Seven Challenges audit of a"
                                         " JSON design plan")
    audit.add_argument("plan", help="path to the design-plan JSON")

    run = sub.add_parser("run", help="execute a scenario file (a"
                                     " declarative suite, mission, or"
                                     " dse run)")
    run.add_argument("scenario", help="path to the scenario JSON"
                                      " (see examples/scenarios/)")
    run.add_argument("--json", help="also write results + metrics as"
                                    " JSON")
    run.add_argument("--trace-out", help="write a Chrome trace of the"
                                         " run (suite/mission)")
    run.add_argument("--jobs", type=int, default=None,
                     help="override the scenario's process-pool width"
                          " (suite/dse; fleet studies run in-process)")
    run.add_argument("--cache",
                     help="directory for the on-disk result cache;"
                          " shared with the suite/dse subcommands")

    spec = sub.add_parser("spec", help="validate or normalize spec"
                                       " files")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    spec_validate = spec_sub.add_parser(
        "validate", help="check spec files; exit 1 if any is invalid")
    spec_validate.add_argument("files", nargs="+",
                               help="spec JSON files")
    spec_show = spec_sub.add_parser(
        "show", help="load a spec file and pretty-print its"
                     " normalized document")
    spec_show.add_argument("file", help="spec JSON file")

    mission = sub.add_parser("mission", help="UAV compute-ladder"
                                             " mission sweep")
    mission.add_argument("--laps", type=int, default=20)
    mission.add_argument("--seed", type=int, default=11)
    mission.add_argument("--json", help="also write per-tier results"
                                        " as JSON")
    mission.add_argument("--trace-out", help="write a Chrome trace of"
                                             " the sweep")

    fleet = sub.add_parser("fleet", help="Monte Carlo mission sweep"
                                         " over the UAV compute ladder"
                                         " (vectorized fleet engine)")
    fleet.add_argument("--trials", type=int, default=64,
                       help="Monte Carlo trials per tier")
    fleet.add_argument("--laps", type=int, default=20)
    fleet.add_argument("--seed", type=int, default=0,
                       help="perturbation RNG seed")
    fleet.add_argument("--world-seed", type=int, default=11,
                       help="obstacle-world generation seed")
    # Studies run in-process; a stray --jobs gets a clear refusal.
    fleet.add_argument("--jobs", type=int, default=None,
                       help=argparse.SUPPRESS)
    fleet.add_argument("--chunk-size", type=int, default=None,
                       help="evaluate rollouts through a fixed-size"
                            " arena window of this many at a time"
                            " (bounds the peak working set; results"
                            " are identical)")
    fleet.add_argument("--json", help="also write per-tier statistics"
                                      " + metrics as JSON")
    fleet.add_argument("--trace-out", help="write a Chrome trace of"
                                           " the run")
    fleet.add_argument("--profile-out",
                       help="write a span-scoped profile JSON:"
                            " per-phase hotspots + exact"
                            " bytes-allocated counters")

    bench = sub.add_parser(
        "bench",
        help="run registered benchmarks; append provenance-stamped"
             " records to the perf ledger, optionally gating against"
             " the committed baselines")
    bench.add_argument("--list", action="store_true",
                       help="list matching benchmarks and exit")
    bench.add_argument("--filter", default="",
                       help="substring match on benchmark name or"
                            " tags (e.g. 'smoke')")
    bench.add_argument("--sizes",
                       help="comma-separated workload sizes"
                            " (overrides the smoke/full selection)")
    bench.add_argument("--full", action="store_true",
                       help="run the full sweep sizes instead of the"
                            " smoke sizes")
    bench.add_argument("--profile", action="store_true",
                       help="span-profile each run and print merged"
                            " hotspots")
    bench.add_argument("--json",
                       help="also write records + checks (+ profile)"
                            " as JSON")
    bench.add_argument("--ledger", default="BENCH_LEDGER.jsonl",
                       help="perf ledger path (JSONL, appended)")
    bench.add_argument("--no-ledger", action="store_true",
                       help="do not append this run to the ledger")
    bench.add_argument("--check", action="store_true",
                       help="compare gated metrics against the"
                            " baselines; exit 1 on regression")
    bench.add_argument("--baselines", default="BENCH_BASELINES.json",
                       help="committed baselines path")
    bench.add_argument("--threshold", type=float, default=0.15,
                       help="relative regression threshold for"
                            " --check (0.15 = 15%%)")
    bench.add_argument("--warn-only", action="store_true",
                       help="report baseline regressions but exit 0"
                            " (for noisy CI runners); same-run"
                            " monotonicity violations still fail")
    bench.add_argument("--monotone-tolerance", type=float, default=0.9,
                       help="--check floor for monotone-declared"
                            " metrics across a size sweep: each size's"
                            " value must be >= this fraction of the"
                            " previous size's (same-run, so it holds"
                            " on any machine)")
    bench.add_argument("--update-baselines", action="store_true",
                       help="merge this run's results into the"
                            " baselines file")
    bench.add_argument("--seed", type=int, default=None,
                       help="seed recorded in run provenance")

    serve = sub.add_parser(
        "serve",
        help="run the evaluation daemon: coalesce concurrent clients'"
             " cache misses into shared oracle batches")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7343,
                       help="bind port (0 = ephemeral; the bound port"
                            " is printed on startup)")
    serve.add_argument("--max-batch", type=int, default=1024,
                       help="flush the pending set at this occupancy")
    serve.add_argument("--max-wait-ms", type=float, default=50.0,
                       help="flush a non-empty pending set after this"
                            " long (the latency a candidate pays for"
                            " the chance to coalesce)")
    serve.add_argument("--max-queue", type=int, default=8192,
                       help="admission bound on pending candidates;"
                            " beyond it submissions get 'overloaded'")
    serve.add_argument("--max-inflight", type=int, default=4096,
                       help="per-tenant bound on unanswered"
                            " candidates")
    serve.add_argument("--cache",
                       help="directory for the on-disk result cache;"
                            " shared with the dse/run subcommands, so"
                            " a server-primed cache replays 'repro"
                            " run' with zero oracle calls")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       help="bound the in-memory cache (LRU eviction)"
                            " for long-lived daemons")
    serve.add_argument("--jobs", type=int, default=1,
                       help="process-pool width for oracle flushes")
    serve.add_argument("--chunk-size", type=int, default=None,
                       help="evaluate at most this many candidates"
                            " per oracle pass")
    serve.add_argument("--metrics-json",
                       help="write the dashboard metrics as JSON on"
                            " shutdown")

    submit = sub.add_parser(
        "submit",
        help="submit candidates to a running evaluation daemon")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7343)
    submit.add_argument("--objective", default="suite_objective",
                        help="registered objective to price under")
    submit.add_argument("--candidates",
                        help="JSON file holding a list of candidate"
                             " configs")
    submit.add_argument("--space", default="codesign",
                        help=_space_help())
    submit.add_argument("--indices",
                        help="design indices into --space, e.g."
                             " '0,3,8-11'")
    submit.add_argument("--tenant", default="cli",
                        help="tenant label for the daemon's per-tenant"
                             " accounting")
    submit.add_argument("--no-coalesce", action="store_true",
                        help="price this request's misses as their own"
                             " batch instead of joining the shared"
                             " pending set")
    submit.add_argument("--timeout", type=float, default=60.0,
                        help="per-request socket timeout in seconds")
    submit.add_argument("--stats", action="store_true",
                        help="print the daemon's dashboard")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain and exit")
    submit.add_argument("--json", help="also write the raw response"
                                       " envelope as JSON")

    fig1 = sub.add_parser("fig1", help="regenerate the Fig. 1 trend")
    fig1.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="statically verify a"
                                           " pipeline DSL file")
    verify.add_argument("pipeline", help="path to the DSL file")
    verify.add_argument("--platform", default="embedded-cpu",
                        help=_platform_help())

    trace = sub.add_parser("trace", help="run an instrumented"
                                         " simulation and export a"
                                         " Chrome trace")
    trace_sub = trace.add_subparsers(dest="trace_command",
                                     required=True)

    trace_pipeline = trace_sub.add_parser(
        "pipeline", help="queued pipeline simulation of a suite"
                         " workload on a catalog platform")
    trace_pipeline.add_argument("--workload", default="vio-navigation")
    trace_pipeline.add_argument("--platform", default="embedded-cpu",
                                help=_platform_help())
    trace_pipeline.add_argument("--duration", type=float, default=1.0)
    trace_pipeline.add_argument("--queue-capacity", type=int, default=4)
    trace_pipeline.add_argument(
        "--out", default=None,
        help="trace output path (default: artifacts/trace.json)")
    trace_pipeline.add_argument("--metrics-out",
                                help="also write a metrics JSON")

    trace_scheduler = trace_sub.add_parser(
        "scheduler", help="Gantt trace of the autonomy task set under"
                          " a scheduling policy")
    trace_scheduler.add_argument("--policy", default="edf")
    trace_scheduler.add_argument("--duration", type=float, default=1.0)
    trace_scheduler.add_argument("--overload", action="store_true")
    trace_scheduler.add_argument(
        "--out", default=None,
        help="trace output path (default: artifacts/trace.json)")
    trace_scheduler.add_argument("--metrics-out",
                                 help="also write a metrics JSON")

    trace_summary = trace_sub.add_parser(
        "summary", help="summarize an exported Chrome trace")
    trace_summary.add_argument("trace", help="path to the trace JSON")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "suite": _cmd_suite,
        "audit": _cmd_audit,
        "dse": _cmd_dse,
        "mission": _cmd_mission,
        "fleet": _cmd_fleet,
        "bench": _cmd_bench,
        "fig1": _cmd_fig1,
        "verify": _cmd_verify,
        "trace": _cmd_trace,
        "run": _cmd_run,
        "spec": _cmd_spec,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
