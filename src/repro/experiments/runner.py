"""Run the paper's experiments through one engine-backed harness.

``python -m repro.experiments.runner`` runs every table/figure in the
paper's presentation order.  Flags:

``--only <name>``     run one experiment (repeatable; see ``NAMES``)
``--jobs N``          worker processes for the sweep engine (default 1)
``--json <path>``     export all results + run metrics as JSON
``--no-cache``        disable the persistent result cache
``--cache-dir DIR``   cache location (default ``.repro_cache``)
``--obs``             enable the instrument registry (repro.obs)
``--trace PATH``      write a Chrome trace_event JSON of the run
                      (implies ``--obs``; open in ui.perfetto.dev)
``--metrics-out PATH``  write run metrics (+ obs snapshot) as JSON
``--timeout S``       per-sweep wall-clock bound (checked before each
                      in-process unit; hung pool workers are killed)
``--sampling``        interval-sampled simulation for simulation sweeps
                      (``--exact``, the default, keeps golden paths
                      bit-identical)
``--profile``         wrap the run in cProfile; writes a pstats dump
                      next to ``--metrics-out`` (see README "Profiling")

``python -m repro experiments`` takes the same flags: its subcommand
parser inherits :func:`build_parser` and hands the parsed namespace to
:func:`run_parsed`.

Every experiment goes through the same path: ``module.run(engine=...)``
returns a frozen :class:`~repro.experiments.base.ExperimentResult`,
``module.render(result)`` prints it, and the engine records per-sweep
cache/fan-out metrics that land in the JSON export.  No artefact sends
a work unit to the engine today (the analytic ones read the model
directly, and ``datacenter_stream`` runs one shard in-process), so the
engine flags change no result and ``metrics.engine`` reads zero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional, Sequence

#: (title, module name) in the paper's presentation order; a module is
#: imported only when it runs.  The SON ablation is omitted here because
#: it drives the cycle-level simulator (minutes); run it directly via
#: ``python -m repro.experiments.ablation_son``.
EXPERIMENTS = (
    ("Figures 10-11 (area)", "area_decomposition"),
    ("Figure 12 (scalability)", "scalability"),
    ("Figure 13 (cache sensitivity)", "cache_sensitivity"),
    ("Table 4 (efficiency optima)", "optima"),
    ("Figure 14 (utility surfaces)", "utility_surfaces"),
    ("Table 6 (markets)", "markets"),
    ("Figure 15 (vs static fixed)", "static_comparison"),
    ("Figure 16 (vs heterogeneous)", "hetero_comparison"),
    ("Figure 17 (datacenter mix)", "datacenter_mix"),
    ("Table 7 (dynamic phases)", "phases"),
    ("Table 8 (taxonomy)", "taxonomy"),
    ("Extension: Energy*Delay^n optima", "energy_delay"),
    ("Extension: datacenter-scale allocation", "datacenter_scale"),
    ("Extension: streaming allocation service", "datacenter_stream"),
)

#: ``--only`` vocabulary, in run order: each artefact module's ``NAME``.
NAMES = tuple(name for _, name in EXPERIMENTS)

#: JSON export format version.
EXPORT_SCHEMA = 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Run the paper's tables and figures",
        add_help=add_help,
    )
    parser.add_argument("--only", action="append", choices=NAMES,
                        metavar="NAME", default=None,
                        help="run only this experiment (repeatable); "
                             "one of: " + ", ".join(NAMES))
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="sweep-engine worker processes (default 1)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results + run metrics as JSON")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache directory "
                             "(default .repro_cache, or $REPRO_CACHE_DIR)")
    parser.add_argument("--obs", action="store_true",
                        help="enable the instrument registry "
                             "(counters/histograms in --metrics-out)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON of the run "
                             "(implies --obs; open in ui.perfetto.dev)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write run metrics (and, with --obs, the "
                             "instrument snapshot) as JSON")
    parser.add_argument("--timeout", type=_positive_float, default=None,
                        metavar="S",
                        help="per-sweep wall-clock bound (seconds)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--sampling", action="store_true",
                      help="interval-sampled simulation for simulation "
                           "sweeps (bounded, reported IPC error)")
    mode.add_argument("--exact", action="store_true",
                      help="exact cycle-level simulation (default; "
                           "golden/bit-identity paths)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile and write a "
                             "pstats dump next to --metrics-out "
                             "(default runner_profile.pstats)")
    return parser


def profile_dump_path(metrics_out: Optional[str]) -> str:
    """Where ``--profile`` writes its pstats dump.

    Lands next to ``--metrics-out`` (same directory, ``.pstats``
    suffix), or in the working directory without one.
    """
    import os.path

    if metrics_out:
        base, _ = os.path.splitext(metrics_out)
        return base + ".pstats"
    return "runner_profile.pstats"


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_parsed(build_parser().parse_args(argv))


def run_parsed(args: argparse.Namespace) -> int:
    """Run the experiments a :func:`build_parser` namespace selects."""
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run(args)
        finally:
            profiler.disable()
            path = profile_dump_path(args.metrics_out)
            pstats.Stats(profiler).dump_stats(path)
            print(f"wrote {path} (inspect: python -m pstats {path}, "
                  "or snakeviz)")
    return _run(args)


def _run(args) -> int:
    from repro.engine import ResultCache, RunMetrics, SweepEngine
    from repro.obs import OBS_OFF, Observability

    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    obs = (Observability(trace=args.trace is not None)
           if (args.obs or args.trace is not None) else OBS_OFF)
    sampling = None
    if args.sampling:
        from repro.sampling import DEFAULT_SAMPLING
        sampling = DEFAULT_SAMPLING
    engine = SweepEngine(jobs=args.jobs, cache=cache, obs=obs,
                         timeout_s=args.timeout, sampling=sampling)
    if obs is not OBS_OFF:
        from repro.trace import materialize
        materialize.attach_obs(obs.scope("trace.workload_lru"))
    run_metrics = RunMetrics(engine=engine, obs=obs)

    selected = [
        (title, importlib.import_module(f"repro.experiments.{name}"))
        for title, name in EXPERIMENTS
        if args.only is None or name in args.only
    ]
    results = []
    for title, module in selected:
        print("=" * 72)
        print(title)
        print("=" * 72)
        with run_metrics.measure(module.NAME):
            result = module.run(engine=engine)
        module.render(result)
        results.append(result)
        print(f"[{result.elapsed:.1f}s]\n")

    if args.json:
        payload = {
            "schema": EXPORT_SCHEMA,
            "results": [r.to_dict(include_elapsed=False) for r in results],
            "metrics": run_metrics.to_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if args.metrics_out:
        payload = {
            "schema": EXPORT_SCHEMA,
            "metrics": run_metrics.to_dict(),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.metrics_out}")
    if args.trace:
        obs.export_trace(args.trace, process_name="repro.experiments")
        print(f"wrote {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
