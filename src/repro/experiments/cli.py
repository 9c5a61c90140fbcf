"""``omega-sim``: command-line front end for the experiment drivers.

Examples::

    omega-sim fig8 --scale 0.25 --hours 3
    omega-sim fig15 --hours 6
    omega-sim table1

Every command prints the same rows the corresponding benchmark emits;
``--scale`` shrinks the cell (and arrival rates with it), ``--hours``
sets the simulated horizon. Each experiment command is one entry of
:data:`COMMANDS`: its driver, help, options, plot and small variant.
The subcommands, ``--jobs``/checkpoint support, the checkpoint manifest
and ``--output`` parameters, ``--plot`` and ``--smoke``, and the
determinism gate's experiments all come from that table.

Observability (see ``docs/OBSERVABILITY.md``): every command accepts
``--trace FILE`` to record a structured JSONL trace of the run,
``--timeline-interval SECONDS`` to sample ``timeline.*`` telemetry
series (utilization, busy fraction, conflict rate) on the simulated
clock, and ``--verbose`` to print engine statistics. ``omega-sim
omega`` runs a single Omega operating point, the natural target for
tracing. Consumers: ``omega-sim trace FILE`` summarizes a trace
(``--json`` for the machine-readable rollup), ``omega-sim perfetto
FILE`` converts it to Chrome/Perfetto trace-event JSON for
ui.perfetto.dev, and ``omega-sim report FILE...`` renders a
self-contained HTML report with SVG charts and percentile tables.

Static analysis (see ``docs/STATIC_ANALYSIS.md``): ``omega-sim lint
[PATHS]`` runs the omega-lint rule pass (determinism,
transaction-safety and resource-arithmetic invariants) and exits
non-zero on findings; ``--format json`` emits a machine-readable
report.

Performance (see ``docs/PERFORMANCE.md``): sweep commands accept
``--jobs N`` to fan independent sweep points across worker processes
(results are byte-identical to ``--jobs 1``); ``omega-sim bench`` runs
the curated performance benchmarks and regression gate.

Recovery (see ``docs/RECOVERY.md``): sweep commands accept
``--checkpoint DIR`` to durably log each completed sweep point;
``--resume`` continues an interrupted run from that directory, skipping
completed points (the final table and trace are identical to an
uninterrupted run). ``--point-timeout`` / ``--point-attempts`` bound
how long and how often a sweep point may run; worker crashes are
retried and surface as ``recovery.*`` trace events.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro import obs
from repro.analysis import cli as lint
from repro.analysis import sanitizer as _san
from repro.obs import timeline as obs_timeline
from repro.experiments import ablations, conflict_modes, hifi_perf, mesos, monolithic
from repro.experiments import conflict_avoidance as conflict_avoidance_experiments
from repro.experiments import federation as federation_experiments
from repro.experiments import mapreduce as mapreduce_experiments
from repro.experiments import omega as omega_experiments
from repro.experiments import resilience as resilience_experiments
from repro.experiments import sweep3d, tables, workload_char
from repro.experiments.common import format_table
from repro.experiments.io import save_rows
from repro.faults.retry import RETRY_POLICIES
from repro.metrics.ascii_chart import line_chart
from repro.perf.parallel import resolve_jobs
from repro.recovery import (
    DEFAULT_POLICY,
    CheckpointStore,
    PointFailure,
    RecoveryContext,
    RecoveryError,
    RunManifest,
    SupervisorPolicy,
    activate,
)
from repro.workload.clusters import PRESETS
from repro.workload.validation import validate_all


#: The small variant's cell scale and horizon: what ``--smoke`` runs,
#: and the determinism gate's defaults.
SMOKE_SCALE = 0.05
SMOKE_HOURS = 0.5


def _checked(kind: type, ok: Callable[[Any], bool], requirement: str):
    """An argparse ``type``: parse as ``kind``, then reject (exit 2 with
    a one-line message) values that fail ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" wording
    return parse


POSITIVE_FLOAT = _checked(float, lambda value: value > 0, "positive")
POSITIVE_INT = _checked(int, lambda value: value > 0, "positive")
NON_NEGATIVE_INT = _checked(int, lambda value: value >= 0, ">= 0")


class Plot(NamedTuple):
    """The ``--plot`` chart of a command's headline series."""

    series: str | None  # column naming the series; None: one series
    x: str
    y: str
    log_x: bool
    log_y: bool
    title: str


@dataclass(frozen=True)
class Option:
    """A command-specific option.

    ``default`` picks the kind: ``False`` is a flag; a tuple is a
    comma-separated list whose parts parse as the tuple's element type;
    anything else is a scalar of that type, or of ``parse`` when set.
    The parsed value reaches the driver as ``kwarg`` (default: the
    option's dest) when the driver takes it.
    """

    flag: str
    help: str
    default: Any = False
    kwarg: str | None = None
    choices: tuple[str, ...] | None = None
    parse: Callable[[str], Any] | None = None
    #: Record the flag in run parameters only when it is set, so
    #: checkpoints written before the flag existed still resume.
    recorded_when_set: bool = False
    #: A flag that runs this experiment instead of the command's own.
    runs: Experiment | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.default is False:
            parser.add_argument(self.flag, action="store_true", help=self.help)
        elif isinstance(self.default, tuple):
            parser.add_argument(
                self.flag, default=",".join(map(str, self.default)), help=self.help
            )
        else:
            parser.add_argument(
                self.flag,
                type=self.parse or type(self.default),
                default=self.default,
                choices=self.choices,
                help=self.help,
            )

    def value(self, args: argparse.Namespace) -> Any:
        value = getattr(args, self.dest)
        if isinstance(self.default, tuple):
            part_type = type(self.default[0])
            return tuple(part_type(part) for part in value.split(","))
        return value


@dataclass(frozen=True)
class Experiment:
    """One ``omega-sim`` command: its driver and everything the CLI,
    the checkpoint manifest and the determinism gate derive from it."""

    driver: Callable[..., list[dict]]
    help: str = ""
    options: tuple[Option, ...] = ()
    plot: Plot | None = None
    #: Driver keywords of the small variant, run by ``--smoke`` (at
    #: SMOKE_SCALE/SMOKE_HOURS) and by the determinism gate; None
    #: leaves the command out of the gate.
    small: dict | None = None
    #: A one-line summary of the rows, printed to stderr.
    note: Callable[[list[dict]], str] | None = None

    @property
    def parameters(self) -> frozenset[str]:
        return frozenset(inspect.signature(self.driver).parameters)

    @property
    def parallel(self) -> bool:
        """Whether sweep points fan out with ``--jobs N`` (and so
        checkpoint): exactly the drivers that take ``jobs``."""
        return "jobs" in self.parameters

    def run(self, **values) -> list[dict]:
        """Call the driver with the ``values`` it takes."""
        taken = self.parameters
        return self.driver(**{k: v for k, v in values.items() if k in taken})


COMMANDS: dict[str, Experiment] = {
    "fig2": Experiment(
        workload_char.figure2_rows,
        "workload shares: jobs/tasks/CPU/RAM, batch vs service",
    ),
    "fig3": Experiment(
        workload_char.figure3_rows, "CDFs of job runtime and inter-arrival time"
    ),
    "fig4": Experiment(workload_char.figure4_rows, "CDF of tasks per job"),
    "fig5a": Experiment(
        monolithic.figure5a_6a_rows,
        "monolithic single-path: wait time & busyness sweep",
        plot=Plot("cluster", "t_job_service", "wait_batch", True, True,
                  "Figure 5a: mean batch wait vs t_job (single-path)"),
    ),
    "fig5b": Experiment(
        monolithic.figure5b_6b_rows,
        "monolithic multi-path: wait time & busyness sweep",
        plot=Plot("cluster", "t_job_service", "wait_batch", True, True,
                  "Figure 5b: mean batch wait vs t_job(service) (multi-path)"),
    ),
    "fig5c": Experiment(
        omega_experiments.figure5c_6c_rows,
        "shared-state Omega: wait time & busyness sweep",
        plot=Plot("cluster", "t_job_service", "wait_batch", True, True,
                  "Figure 5c: mean batch wait vs t_job(service) (shared state)"),
        small=dict(t_jobs=(1.0,)),
    ),
    "partitioned": Experiment(
        monolithic.partitioned_rows, "statically partitioned scheduler sweep"
    ),
    "fig7": Experiment(
        mesos.figure7_rows,
        "two-level (Mesos): wait, busyness, abandoned jobs",
        plot=Plot("cluster", "t_job_service", "busy_batch", True, False,
                  "Figure 7b: batch framework busyness vs t_job(service) (Mesos)"),
    ),
    "fig8": Experiment(
        omega_experiments.figure8_rows,
        "Omega: scaling the batch arrival rate",
        plot=Plot("cluster", "rate_factor", "busy_batch", False, False,
                  "Figure 8b: batch busyness vs relative lambda(batch)"),
        small=dict(factors=(1.0, 4.0)),
        note=lambda rows: "saturation points (relative lambda_batch): "
        f"{omega_experiments.figure8_saturation_points(rows)}",
    ),
    "fig9": Experiment(
        omega_experiments.figure9_rows,
        "Omega: 1-32 load-balanced batch schedulers",
        plot=Plot("num_batch_schedulers", "rate_factor", "conflict_batch",
                  False, False,
                  "Figure 9a: conflict fraction vs relative lambda(batch)"),
    ),
    "omega": Experiment(
        omega_experiments.single_run_rows,
        "one Omega run at a single operating point "
        "(pairs with --trace/--timeline-interval)",
        options=(
            Option(
                "--cluster",
                "cluster preset letter (default B)",
                "B",
                choices=tuple(PRESETS),
                parse=str.upper,
            ),
            Option(
                "--rate-factor",
                "relative batch arrival-rate multiplier",
                1.0,
                parse=POSITIVE_FLOAT,
            ),
            Option(
                "--smoke",
                "CI smoke variant: 5%% cell, 30 simulated minutes "
                "(ignores --scale/--hours)",
            ),
            Option(
                "--predictor",
                "enable predictive conflict avoidance: contention-aware "
                "placement steering plus the predictive escalation retry "
                "policy (see docs/RESILIENCE.md)",
                recorded_when_set=True,
            ),
        ),
        small={},
    ),
    "fig10": Experiment(
        sweep3d.figure10_rows, "busyness surfaces for all five schemes"
    ),
    "fig11": Experiment(
        hifi_perf.figure11_rows, "hifi: service busyness over t_job x t_task (C)"
    ),
    "fig12": Experiment(
        hifi_perf.figure12_rows,
        "hifi: cluster B sweep w/ conflict fraction",
        plot=Plot(None, "t_job_service", "conflict_service", True, False,
                  "Figure 12b: service conflict fraction vs t_job(service)"),
    ),
    "fig13": Experiment(
        hifi_perf.figure13_rows,
        "hifi: 3 batch schedulers vs 1 (cluster C)",
        note=lambda rows: "saturation shift: "
        f"{hifi_perf.figure13_saturation_shift(rows)}",
    ),
    "fig14": Experiment(
        conflict_modes.figure14_rows,
        "conflict detection/commit granularity choices",
        options=(
            Option(
                "--smoke",
                "CI smoke variant: 5%% cell, 30 simulated minutes "
                "(ignores --scale/--hours)",
                recorded_when_set=True,
            ),
        ),
        plot=Plot("mode", "t_job_service", "conflict_service", True, True,
                  "Figure 14a: conflict fraction by detection/commit mode"),
        small={},
    ),
    "fig15": Experiment(
        mapreduce_experiments.figure15_rows, "MapReduce speedup CDFs per policy"
    ),
    "fig16": Experiment(
        mapreduce_experiments.figure16_rows,
        "utilization time series, normal vs max-parallel",
    ),
    "table1": Experiment(tables.table1_rows, "comparison of scheduling approaches"),
    "table2": Experiment(tables.table2_rows, "lightweight vs high-fidelity simulator"),
    "ablation-offer": Experiment(
        ablations.offer_policy_rows, "Mesos offer-all vs fair-share offers"
    ),
    "ablation-retry": Experiment(
        ablations.retry_position_rows, "conflict retry at queue head vs tail"
    ),
    "ablation-util": Experiment(
        ablations.initial_utilization_rows,
        "conflict fraction vs standing utilization",
        plot=Plot(None, "initial_utilization", "conflict_batch", False, False,
                  "Conflict fraction vs standing utilization"),
    ),
    "ablation-preemption": Experiment(
        ablations.preemption_rows, "priority preemption on vs off"
    ),
    "ablation-backoff": Experiment(
        ablations.backoff_rows,
        "OCC hot-machine backoff windows",
        plot=Plot(None, "cooldown_s", "conflict_batch", False, False,
                  "Conflict fraction vs hot-machine backoff window"),
    ),
    "ablation-placement": Experiment(
        ablations.placement_strategy_rows, "placement strategy vs conflict fraction"
    ),
    "resilience": Experiment(
        resilience_experiments.resilience_rows,
        "fault-injected degradation: architecture x fault intensity",
        options=(
            Option(
                "--intensities",
                "comma-separated fault-intensity multipliers "
                "(0 = fault-free baseline)",
                resilience_experiments.DEFAULT_INTENSITIES,
            ),
            Option(
                "--policy",
                "Omega conflict-retry policy (immediate reproduces the "
                "historical behavior; see docs/RESILIENCE.md)",
                "immediate",
                choices=RETRY_POLICIES,
            ),
            Option(
                "--smoke",
                "CI smoke variant: tiny cell, short horizon, two "
                "intensities, starvation-escalation policy",
            ),
            Option(
                "--predictor",
                "also steer placement with a conflict predictor "
                "(independent of --policy; --policy predictive implies it)",
                recorded_when_set=True,
            ),
        ),
        plot=Plot("architecture", "intensity", "wait_batch", False, False,
                  "Resilience: mean batch wait vs fault intensity"),
        small=dict(intensities=(0.0, 5.0), policy="starvation"),
    ),
    "conflict-avoidance": Experiment(
        conflict_avoidance_experiments.conflict_avoidance_rows,
        "predictive conflict avoidance: predictor on/off x operating "
        "point x fault intensity",
        options=(
            Option(
                "--factors",
                "comma-separated relative batch arrival-rate factors "
                "(Figure-8 operating points)",
                conflict_avoidance_experiments.DEFAULT_FACTORS,
            ),
            Option(
                "--intensities",
                "comma-separated fault-intensity multipliers over the "
                "resilience baseline mix (0 = fault-free)",
                conflict_avoidance_experiments.DEFAULT_INTENSITIES,
            ),
            Option(
                "--smoke",
                "CI smoke variant: tiny cell, short horizon, one "
                "operating point, predictor on and off",
            ),
        ),
        small=dict(factors=(4.0,), intensities=(0.0, 5.0)),
    ),
    "federation": Experiment(
        federation_experiments.federation_rows,
        "federated multi-cell Omega: cell count x aggregate staleness x "
        "cell-fault intensity (blackouts, feed partitions, link flaps)",
        options=(
            Option(
                "--cells",
                "comma-separated federation sizes (member cells)",
                federation_experiments.DEFAULT_CELL_COUNTS,
            ),
            Option(
                "--staleness",
                "comma-separated aggregate-view staleness intervals in "
                "simulated seconds (0 = the router reads live digests)",
                federation_experiments.DEFAULT_STALENESS,
                kwarg="staleness_values",
            ),
            Option(
                "--intensities",
                "comma-separated cell-fault intensity multipliers over "
                "the federation baseline mix (0 = fault-free)",
                federation_experiments.DEFAULT_INTENSITIES,
            ),
            Option(
                "--policy",
                "front-door routing policy (see docs/FEDERATION.md)",
                "least-loaded",
                choices=federation_experiments.ROUTING_POLICIES,
            ),
            Option(
                "--smoke",
                "CI smoke variant: tiny cells, short horizon, 1-2 "
                "cells, fault-free and hostile intensities",
            ),
            Option(
                "--degenerate-gate",
                "run the degenerate-baseline gate instead of the "
                "sweep: a 1-cell/zero-staleness/zero-fault federation "
                "must reproduce the single-cell omega table "
                "byte-for-byte (exit 1 on any difference)",
                runs=Experiment(
                    federation_experiments.degenerate_gate_rows,
                    note=lambda rows: "federation: degenerate-baseline gate "
                    "OK (1-cell federation is byte-identical to the "
                    "single-cell omega baseline)",
                ),
            ),
        ),
        plot=Plot("cells", "intensity", "wait_batch", False, False,
                  "Federation: mean batch wait vs cell-fault intensity"),
        small=dict(
            cells=(1, 2), staleness_values=(0.0, 120.0), intensities=(0.0, 5.0)
        ),
    ),
    "validate": Experiment(
        lambda: [report.as_row() for report in validate_all()],
        "sanity-check the cluster presets",
    ),
}

#: The determinism gate's experiments: every command with a small
#: variant, in registry order.
GATE_EXPERIMENTS = tuple(
    name for name, entry in COMMANDS.items() if entry.small is not None
)


def small_variant(
    name: str, seed: int, scale: float, horizon: float
) -> Callable[..., list[dict]]:
    """The command's small variant as a self-seeding experiment taking
    the worker count (the determinism gate's subject)."""
    entry = COMMANDS[name]
    return lambda jobs=1: entry.run(
        seed=seed, scale=scale, horizon=horizon, jobs=jobs, **entry.small
    )


def _driver_values(entry: Experiment, args: argparse.Namespace) -> dict:
    """Every value the command line offers a driver, by keyword."""
    values = {
        "scale": args.scale,
        "horizon": args.hours * 3600.0,
        "seed": args.seed,
        "samples": args.samples,
        "jobs": args.jobs,
    }
    for option in entry.options:
        values[option.kwarg or option.dest] = option.value(args)
    if getattr(args, "smoke", False):
        values.update(
            entry.small, scale=SMOKE_SCALE, horizon=SMOKE_HOURS * 3600.0
        )
    return values


def render_plot(command: str, rows: list[dict]) -> str | None:
    """Build the --plot chart for a command from its result rows."""
    entry = COMMANDS.get(command)
    spec = entry.plot if entry is not None else None
    if spec is None or not rows:
        return None
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label = str(row[spec.series]) if spec.series else spec.y
        series.setdefault(label, []).append((row[spec.x], row[spec.y]))
    try:
        return line_chart(
            series, title=spec.title, x_label=spec.x, y_label=spec.y,
            log_x=spec.log_x, log_y=spec.log_y,
        )
    except ValueError:
        return None  # e.g. every y was 0 on a log axis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-sim",
        description="Regenerate the tables and figures of the Omega paper "
        "(EuroSys 2013) from the reproduction simulators.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        sub = subparsers.add_parser(name, help=entry.help)
        sub.add_argument(
            "--scale",
            type=POSITIVE_FLOAT,
            default=0.25,
            help="cell scale factor (1.0 = paper-size presets)",
        )
        sub.add_argument(
            "--hours",
            type=POSITIVE_FLOAT,
            default=2.0,
            help="simulated horizon in hours",
        )
        sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
        sub.add_argument(
            "--samples",
            type=POSITIVE_INT,
            default=50_000,
            help="Monte Carlo samples (characterization figures only)",
        )
        sub.add_argument(
            "--plot",
            action="store_true",
            help="also render an ASCII chart of the headline series "
            "(supported commands only)",
        )
        sub.add_argument(
            "--output",
            metavar="FILE",
            help="also save the rows to FILE (.json or .csv)",
        )
        sub.add_argument(
            "--jobs",
            type=NON_NEGATIVE_INT,
            default=1,
            help="worker processes for independent sweep points "
            "(0 = all cores; results are identical to --jobs 1)",
        )
        sub.add_argument(
            "--trace",
            metavar="FILE",
            help="record a structured JSONL trace of every simulation run "
            "(summarize it later with `omega-sim trace FILE`)",
        )
        sub.add_argument(
            "--verbose",
            action="store_true",
            help="also print simulator engine statistics "
            "(events processed, peak queue depth, wall seconds)",
        )
        sub.add_argument(
            "--timeline-interval",
            type=float,
            default=None,
            metavar="SECONDS",
            help="sample timeline.* telemetry (cell utilization, queue "
            "depth, busy fraction, conflict rate) every this many "
            "simulated seconds; records land in the --trace file",
        )
        sub.add_argument(
            "--sanitize",
            action="store_true",
            help="run under omega-san, the transaction-isolation "
            "sanitizer: every run fails fast (exit 1) on a "
            "write-outside-commit, stale-snapshot-read, "
            "foreign-snapshot-write, or non-serializable commit "
            "(see docs/STATIC_ANALYSIS.md)",
        )
        if entry.parallel:
            sub.add_argument(
                "--checkpoint",
                metavar="DIR",
                help="durably log each completed sweep point to DIR "
                "(manifest + append-only JSONL); an interrupted run "
                "continues with --resume",
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help="resume the run recorded in --checkpoint DIR, skipping "
                "completed points; refuses (exit 2) if the experiment, "
                "seed or parameters changed",
            )
            sub.add_argument(
                "--point-timeout",
                type=float,
                default=None,
                metavar="SECONDS",
                help="kill and retry any sweep point running longer than "
                "this many wall seconds (requires --jobs >= 2)",
            )
            sub.add_argument(
                "--point-attempts",
                type=int,
                default=DEFAULT_POLICY.max_attempts,
                metavar="N",
                help="attempts per sweep point before the run fails, for "
                "points lost to worker crashes or timeouts "
                f"(default {DEFAULT_POLICY.max_attempts})",
            )
        for option in entry.options:
            option.add_to(sub)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run omega-lint, the domain static-analysis pass "
        "(determinism, transaction-safety, and resource-arithmetic "
        "rules; see docs/STATIC_ANALYSIS.md)",
    )
    lint.add_lint_arguments(lint_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the curated performance benchmarks and regression gate "
        "(snapshot resync, placement packing, batched commit, paper-scale "
        "sweep, tracing/sanitizer/predictor/federation hook overheads, "
        "serial-vs-parallel sweep; see docs/PERFORMANCE.md)",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale sizes; floors enforced always still gate "
        "(some at a lower smoke floor), full-run floors are reported only",
    )
    bench_parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker processes for the serial-vs-parallel sweep benchmark",
    )
    bench_parser.add_argument(
        "--output", metavar="FILE", help="write the result JSON to FILE"
    )
    bench_parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="committed baseline JSON to gate against (e.g. BENCH_PR3.json)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative throughput-regression tolerance vs the baseline",
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="compare two saved result JSONs (delta table) instead of "
        "running benchmarks; exits 2 on corrupt or schema-invalid inputs",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize a JSONL trace recorded with --trace: per-scheduler "
        "conflict fraction, busy-time breakdown, conflict timelines, "
        "retry chains",
    )
    trace_parser.add_argument("file", help="JSONL trace file to summarize")
    trace_parser.add_argument(
        "--jobs", type=int, default=5, help="retry chains to show (longest first)"
    )
    trace_parser.add_argument(
        "--bins", type=int, default=12, help="conflict-timeline bins"
    )
    trace_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable rollup (scheduler rows, "
        "percentiles, conflict timelines, timeline.* series) as JSON "
        "instead of the text report",
    )

    perfetto_parser = subparsers.add_parser(
        "perfetto",
        help="convert a JSONL trace to Chrome/Perfetto trace-event JSON "
        "(open the result in ui.perfetto.dev): spans and sched.busy "
        "intervals become duration events, timeline.* samples become "
        "counter tracks",
    )
    perfetto_parser.add_argument("file", help="JSONL trace file to convert")
    perfetto_parser.add_argument(
        "--output",
        metavar="FILE",
        help="output path (default: INPUT.perfetto.json)",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="render JSONL trace(s) as a self-contained static HTML "
        "report: timeline charts (inline SVG), per-scheduler percentile "
        "tables, conflict timelines; several traces compare side by side",
    )
    report_parser.add_argument(
        "files", nargs="+", metavar="FILE", help="JSONL trace file(s)"
    )
    report_parser.add_argument(
        "--output",
        metavar="FILE",
        default="report.html",
        help="output path (default: report.html)",
    )
    return parser


def _verbose_stats_table() -> str:
    """Engine statistics accumulated over every run of this command."""
    snapshot = obs.get_registry().snapshot(prefix="sim.")
    rows = [{"stat": name, "value": value} for name, value in snapshot.items()]
    if not rows:
        return "(no simulator statistics recorded)"
    return format_table(rows)


def _summarize_trace(args: argparse.Namespace) -> int:
    try:
        summary = obs.summarize_file(args.file)
        if args.json:
            import json

            report = json.dumps(
                summary.json_rollup(top_jobs=args.jobs, bins=args.bins),
                indent=2,
                sort_keys=True,
            )
        else:
            report = summary.render(top_jobs=args.jobs, bins=args.bins)
    except (OSError, ValueError) as exc:
        print(f"omega-sim trace: {exc}", file=sys.stderr)
        return 2
    try:
        print(report)
    except BrokenPipeError:
        # Reports are long; piping into `head`/`less -F` is routine.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _export_perfetto(args: argparse.Namespace) -> int:
    from repro.obs.perfetto import export_file

    output = args.output or f"{args.file}.perfetto.json"
    try:
        count = export_file(args.file, output)
    except (OSError, ValueError) as exc:
        print(f"omega-sim perfetto: {exc}", file=sys.stderr)
        return 2
    print(
        f"perfetto: {count} trace events written to {output} "
        "(open in ui.perfetto.dev)",
        file=sys.stderr,
    )
    return 0


def _render_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    try:
        size = write_report(args.files, args.output)
    except (OSError, ValueError) as exc:
        print(f"omega-sim report: {exc}", file=sys.stderr)
        return 2
    print(
        f"report: {len(args.files)} trace(s) rendered to {args.output} "
        f"({size} bytes)",
        file=sys.stderr,
    )
    return 0


def _manifest_parameters(args: argparse.Namespace) -> dict:
    """The result-determining parameters of a run, as a checkpoint
    manifest records them (the ``--output`` envelope adds the seed).

    ``--jobs`` is deliberately absent: parallelism does not change the
    rows, so a sweep checkpointed with ``--jobs 8`` may resume serially.
    """
    entry = COMMANDS[args.command]
    parameters = {
        "scale": args.scale,
        "hours": args.hours,
    }
    if "samples" in entry.parameters:
        parameters["samples"] = args.samples
    # Only recorded when set: sampling changes the trace, so a resume
    # must match, but older checkpoints (no such key) stay resumable.
    if args.timeline_interval is not None:
        parameters["timeline_interval"] = args.timeline_interval
    for option in entry.options:
        value = getattr(args, option.dest)
        if option.default is False:
            value = bool(value)
        if value or not option.recorded_when_set:
            parameters[option.dest] = value
    return parameters


def _make_recovery_context(args: argparse.Namespace) -> RecoveryContext | None:
    """Build the recovery context for a sweep command, or None.

    Raises :class:`RecoveryError` on unusable --checkpoint/--resume
    combinations (reported as a one-line message, exit 2).
    """
    checkpoint_dir = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise RecoveryError("--resume requires --checkpoint DIR")
    policy = DEFAULT_POLICY
    timeout = getattr(args, "point_timeout", None)
    attempts = getattr(args, "point_attempts", DEFAULT_POLICY.max_attempts)
    if timeout is not None or attempts != DEFAULT_POLICY.max_attempts:
        try:
            policy = SupervisorPolicy(point_timeout=timeout, max_attempts=attempts)
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
    if not checkpoint_dir:
        if policy is DEFAULT_POLICY:
            return None
        return RecoveryContext(policy=policy)
    manifest = RunManifest(
        experiment=args.command,
        seed=args.seed,
        parameters=_manifest_parameters(args),
    )
    store = CheckpointStore(checkpoint_dir)
    resumed = 0
    if resume:
        resumed = store.resume(manifest)
        if store.salvaged_line is not None:
            print(
                f"checkpoint: dropped a partial record at "
                f"{store.log_path}:{store.salvaged_line} (crash mid-append); "
                "the point will re-run",
                file=sys.stderr,
            )
        print(
            f"checkpoint: resuming from {checkpoint_dir} "
            f"({resumed} completed point(s) on record)",
            file=sys.stderr,
        )
    else:
        store.initialize(manifest)
    return RecoveryContext(store=store, policy=policy, resumed_points=resumed)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return lint.run_lint(args)
    if args.command == "trace":
        return _summarize_trace(args)
    if args.command == "perfetto":
        return _export_perfetto(args)
    if args.command == "report":
        return _render_report(args)
    if args.command == "bench":
        from repro.perf.bench import main_bench

        return main_bench(args)
    entry = COMMANDS[args.command]
    # A set mode flag (--degenerate-gate) swaps in its own experiment.
    experiment = next(
        (
            option.runs
            for option in entry.options
            if option.runs is not None and getattr(args, option.dest)
        ),
        entry,
    )
    timeline_interval = args.timeline_interval
    if timeline_interval is not None:
        try:
            # Process-wide default: every LightweightConfig the command
            # builds (including pickled sweep points) inherits it.
            obs_timeline.set_default_interval(timeline_interval)
        except ValueError as exc:
            print(f"omega-sim: {exc}", file=sys.stderr)
            return 2
    if args.jobs != 1:
        args.jobs = resolve_jobs(args.jobs)
        if not entry.parallel:
            print(
                f"omega-sim: {args.command} does not support --jobs; "
                "running serially",
                file=sys.stderr,
            )

    try:
        context = _make_recovery_context(args)
    except RecoveryError as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2

    sanitizing = args.sanitize
    saved_san_env = None
    if sanitizing:
        # The env var rides into --jobs N worker processes, which build
        # their own sanitizer from it (see LightweightSimulation.build).
        saved_san_env = os.environ.get("OMEGA_SAN")
        os.environ["OMEGA_SAN"] = "1"
        _san.install()

    recorder = None
    if args.trace:
        try:
            recorder = obs.TraceRecorder(path=args.trace, keep_records=False)
        except OSError as exc:
            print(f"omega-sim: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        obs.set_recorder(recorder)
    try:
        values = _driver_values(entry, args)
        if context is not None:
            with activate(context):
                rows = experiment.run(**values)
        else:
            rows = experiment.run(**values)
        if experiment.note is not None:
            print(experiment.note(rows), file=sys.stderr)
    except RecoveryError as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2
    except (PointFailure, federation_experiments.DegenerateGateFailure) as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 1
    except _san.IsolationViolation as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        if exc.stack:
            print(exc.stack, file=sys.stderr, end="")
        return 1
    finally:
        if timeline_interval is not None:
            obs_timeline.set_default_interval(None)
        if sanitizing:
            san = _san.ACTIVE
            if san is not None and san.writes_checked:
                print(
                    f"omega-san: {san.writes_checked} writes, "
                    f"{san.reads_checked} reads, "
                    f"{san.commits_checked} commits checked, "
                    f"{san.violations} violation(s)",
                    file=sys.stderr,
                )
            _san.uninstall()
            if saved_san_env is None:
                os.environ.pop("OMEGA_SAN", None)
            else:
                os.environ["OMEGA_SAN"] = saved_san_env
        if recorder is not None:
            obs.reset_recorder()
            recorder.close()
            print(
                f"trace: {recorder.records_emitted} records written to {args.trace}",
                file=sys.stderr,
            )
    if context is not None and context.store is not None:
        print(
            f"checkpoint: {context.points_completed} point(s) appended, "
            f"{context.points_skipped} skipped (already complete) in "
            f"{context.store.directory}",
            file=sys.stderr,
        )
    print(format_table(rows))
    if args.verbose:
        print()
        print("simulator statistics:")
        print(_verbose_stats_table())
    if args.output:
        saved = save_rows(
            rows,
            args.output,
            experiment=args.command,
            parameters={**_manifest_parameters(args), "seed": args.seed},
        )
        print(f"rows saved to {saved}", file=sys.stderr)
    if args.plot:
        chart = render_plot(args.command, rows)
        if chart is None:
            print(f"(no chart available for {args.command})", file=sys.stderr)
        else:
            print()
            print(chart)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
