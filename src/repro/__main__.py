"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``            run every table/figure runner
``experiment <name>``      run one artefact (fig12, tab6, ...)
``simulate``               one SSim run with explicit parameters
``optimize``               one customer's utility-maximising purchase
``datacenter-stream``      drive the streaming allocation service
``list``                   benchmarks, utilities, markets, experiments

Each command imports the modules it runs when it runs, so ``list``,
``--help`` and ``simulate`` never load numpy or the market kernel.
"""

from __future__ import annotations

import argparse
import sys

_EXPERIMENTS = {
    "fig10": "area_decomposition",
    "fig11": "area_decomposition",
    "fig12": "scalability",
    "fig13": "cache_sensitivity",
    "tab4": "optima",
    "fig14": "utility_surfaces",
    "tab6": "markets",
    "fig15": "static_comparison",
    "fig16": "hetero_comparison",
    "fig17": "datacenter_mix",
    "tab7": "phases",
    "tab8": "taxonomy",
    "parsec": "parsec_multivcore",
    "energy": "energy_delay",
    "ablation-son": "ablation_son",
    "datacenter": "datacenter_scale",
    "datacenter-stream": "datacenter_stream",
}


def _cmd_experiment(args) -> int:
    module_name = _EXPERIMENTS.get(args.name)
    if module_name is None:
        print(f"unknown experiment {args.name!r}; known: "
              f"{', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    import importlib
    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def _slices(text: str) -> int:
    from repro.core.config import MAX_SLICES, MIN_SLICES

    value = int(text)
    if not MIN_SLICES <= value <= MAX_SLICES:
        raise argparse.ArgumentTypeError(
            f"a VCore has {MIN_SLICES}-{MAX_SLICES} Slices, got {value}")
    return value


def _cache_kb(text: str) -> float:
    from repro.core.config import l2_size_error

    value = float(text)
    message = l2_size_error(value)
    if message is not None:
        raise argparse.ArgumentTypeError(message)
    return value


def _budget(text: str) -> float:
    from repro.economics.market import budget_error

    value = float(text)
    message = budget_error(value)
    if message is not None:
        raise argparse.ArgumentTypeError(message)
    return value


def _cmd_simulate(args) -> int:
    import json

    from repro.core.simulator import simulate
    from repro.obs import Observability
    from repro.trace.generator import make_workload

    obs = None
    if args.obs or args.trace or args.metrics_out:
        if args.sampling:
            print("repro simulate: error: --sampling has no per-cycle "
                  "instrumentation; drop --obs/--trace/--metrics-out or "
                  "--sampling", file=sys.stderr)
            return 2
        obs = Observability(trace=args.trace is not None)
    warmup, trace = make_workload(args.benchmark, args.length,
                                  seed=args.seed)
    summary = None
    if args.sampling:
        from repro.sampling import simulate_sampled
        result = simulate_sampled(trace, num_slices=args.slices,
                                  l2_cache_kb=args.cache_kb,
                                  warmup_addresses=warmup)
        summary = result.sampling
    else:
        result = simulate(trace, num_slices=args.slices,
                          l2_cache_kb=args.cache_kb,
                          warmup_addresses=warmup, obs=obs)
    print(f"{args.benchmark} on ({args.slices} Slices, "
          f"{args.cache_kb:.0f} KB L2):")
    for key, value in result.stats.summary().items():
        print(f"  {key:16} {value}")
    if summary is not None:
        lo, hi = result.ipc_ci
        print(f"  {'ipc_ci':16} [{lo:.4f}, {hi:.4f}] "
              f"(+-{summary.relative_error:.1%})")
        print(f"  {'detail_frac':16} {summary.detail_fraction:.3f} "
              f"({summary.windows} windows, head "
              f"{summary.head_instructions})")
    if args.metrics_out:
        payload = {
            "benchmark": args.benchmark,
            "slices": args.slices,
            "cache_kb": args.cache_kb,
            "stats": result.stats.summary(),
            "obs": obs.snapshot(),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.metrics_out}")
    if args.trace:
        obs.export_trace(
            args.trace,
            process_name=f"ssim:{args.benchmark}"
                         f".s{args.slices}.c{args.cache_kb:g}",
        )
        print(f"wrote {args.trace}")
    return 0


def _cmd_optimize(args) -> int:
    from repro.economics.market import STANDARD_MARKETS
    from repro.economics.optimizer import UtilityOptimizer
    from repro.economics.utility import STANDARD_UTILITIES

    utilities = {u.name: u for u in STANDARD_UTILITIES}
    markets = {m.name: m for m in STANDARD_MARKETS}
    optimizer = UtilityOptimizer(budget=args.budget)
    choice = optimizer.best(args.benchmark, utilities[args.utility],
                            markets[args.market])
    print(f"{args.benchmark} / {args.utility} / {args.market} "
          f"(budget {args.budget:.0f}):")
    print(f"  buy {choice.vcores:.2f} VCores of "
          f"({choice.slices} Slices, {choice.cache_kb:.0f} KB L2)")
    print(f"  performance {choice.performance:.3f} IPC, "
          f"utility {choice.utility:.3f}")
    return 0


def _cmd_datacenter_stream(args) -> int:
    import json

    from repro.experiments import datacenter_stream

    try:
        datacenter_stream.check_run_args(
            args.events, shards=args.shards, couple=args.couple,
            fault_rate=args.faults,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
            sync_every=args.sync_every, chaos_seed=args.chaos_seed,
            jobs=args.jobs, reprice_every=args.reprice_every,
            audit_every=args.audit_every)
    except ValueError as exc:
        print(f"repro datacenter-stream: error: {exc}", file=sys.stderr)
        return 2
    engine = None
    if args.shards > 1:
        from repro.engine import SweepEngine
        engine = SweepEngine(jobs=args.jobs)
    floor = (args.admission_floor if args.admission_floor is not None
             else datacenter_stream.ADMISSION_FLOOR)
    strict = True if args.strict else None

    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = datacenter_stream.run(
            num_events=args.events,
            seed=args.seed,
            admission_floor=floor,
            reprice_every=args.reprice_every,
            shards=args.shards,
            couple=args.couple,
            sync_every=args.sync_every,
            fault_rate=args.faults,
            chaos_seed=args.chaos_seed,
            strict=strict,
            readmit=args.readmit,
            audit_every=args.audit_every,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
            engine=engine,
        )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"wrote {args.profile} "
                  f"(open with `python -m pstats {args.profile}`)")
    datacenter_stream.render(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_list(_args) -> int:
    from repro.economics.market import STANDARD_MARKETS
    from repro.economics.utility import STANDARD_UTILITIES
    from repro.trace.profiles import all_benchmarks

    print("benchmarks :", ", ".join(all_benchmarks()))
    print("utilities  :", ", ".join(u.name for u in STANDARD_UTILITIES))
    print("markets    :", ", ".join(m.name for m in STANDARD_MARKETS))
    print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # The vocabularies the parser offers as choices; none loads numpy.
    from repro.economics.market import STANDARD_MARKETS
    from repro.economics.utility import STANDARD_UTILITIES
    from repro.experiments import runner
    from repro.trace.profiles import all_benchmarks

    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Sharing Architecture (ASPLOS 2014) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments", help="run every table/figure",
                         parents=[runner.build_parser(add_help=False)])
    exp.set_defaults(func=runner.run_parsed)

    one = sub.add_parser("experiment", help="run one artefact")
    one.add_argument("name", help="fig12, tab6, parsec, ...")
    one.set_defaults(func=_cmd_experiment)

    sim = sub.add_parser("simulate", help="one SSim run")
    sim.add_argument("--benchmark", default="gcc",
                     choices=all_benchmarks())
    sim.add_argument("--slices", type=_slices, default=2,
                     help="Slices in the VCore, 1-8 (default 2)")
    sim.add_argument("--cache-kb", type=_cache_kb, default=256.0,
                     help="L2 size in KB: a multiple of 64 from 0 to "
                          "8192 (default 256)")
    sim.add_argument("--length", type=runner._positive_int, default=3000,
                     help="trace length in instructions, >= 1 "
                          "(default 3000)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--obs", action="store_true",
                     help="attach the instrument registry (per-Slice, "
                          "L2-bank and LSQ-bank counters)")
    sim.add_argument("--trace", metavar="PATH", default=None,
                     help="write Chrome trace_event JSON of the run "
                          "(open in ui.perfetto.dev)")
    sim.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write stats + instrument snapshot as JSON")
    sim_mode = sim.add_mutually_exclusive_group()
    sim_mode.add_argument("--sampling", action="store_true",
                          help="interval-sampled run (reports IPC with "
                               "a confidence interval)")
    sim_mode.add_argument("--exact", action="store_true",
                          help="exact cycle-level run (default)")
    sim.set_defaults(func=_cmd_simulate)

    opt = sub.add_parser("optimize", help="one customer's best purchase")
    opt.add_argument("--benchmark", default="gcc",
                     choices=all_benchmarks())
    opt.add_argument("--utility", default="Utility2",
                     choices=[u.name for u in STANDARD_UTILITIES])
    opt.add_argument("--market", default="Market2",
                     choices=[m.name for m in STANDARD_MARKETS])
    opt.add_argument("--budget", type=_budget, default=24.0,
                     help="hourly budget, > 0 (default 24)")
    opt.set_defaults(func=_cmd_optimize)

    stream = sub.add_parser(
        "datacenter-stream",
        help="drive the streaming allocation service",
    )
    stream.add_argument("--events", type=int, default=20_000,
                        help="number of submit/resize/depart events")
    stream.add_argument("--seed", type=int, default=11)
    stream.add_argument("--admission-floor", type=float, default=None,
                        help="minimum utility per budget unit to admit "
                             "a tenant")
    stream.add_argument("--reprice-every", type=int, default=1,
                        metavar="N", help="run a warm-started repricing "
                        "step every N events (0 disables)")
    stream.add_argument("--shards", type=int, default=1,
                        help="fan independent stream shards across "
                             "engine workers")
    stream.add_argument("--couple", type=int, default=1, metavar="N",
                        help="split each stream across N coupled "
                             "shards trading against one global price "
                             "vector (periodic averaging)")
    stream.add_argument("--sync-every", type=int, default=None,
                        metavar="N",
                        help="per-shard events between global price "
                             "syncs (needs --couple; default 500)")
    stream.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (needs --shards)")
    stream.add_argument("--profile", metavar="PATH", default=None,
                        help="wrap the run in cProfile and dump pstats "
                             "to PATH")
    stream.add_argument("--json", metavar="PATH", default=None,
                        help="write the result as JSON")
    stream.add_argument("--faults", type=float, default=0.0,
                        metavar="RATE",
                        help="inject seeded faults at this per-event "
                             "rate (0 disables; implies lenient mode)")
    stream.add_argument("--chaos-seed", type=int, default=None,
                        help="seed for the fault plan and injector "
                             "(needs --faults; default 0)")
    stream.add_argument("--strict", action="store_true",
                        help="raise on bad events even when injecting "
                             "faults (default: lenient when --faults>0)")
    stream.add_argument("--readmit", action="store_true",
                        help="retry capacity-rejected tenants with "
                             "capped backoff after departures")
    stream.add_argument("--audit-every", type=int, default=0,
                        metavar="N",
                        help="verify service invariants every N events")
    stream.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="write a resumable checkpoint every N "
                             "events (needs --checkpoint-path)")
    stream.add_argument("--checkpoint-path", metavar="PATH",
                        default=None,
                        help="where to write the checkpoint JSON "
                             "(needs --checkpoint-every)")
    stream.set_defaults(func=_cmd_datacenter_stream)

    sub.add_parser("list", help="list names").set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
