"""Builds and runs one federated multi-cell simulation.

The federation owns a single shared event loop: every member cell is a
full :class:`~repro.experiments.common.LightweightSimulation` world
attached to it (cell 0 on the run's master streams, cell *i* on a
``cell.{i}`` fork, so a 1-cell federation draws byte-identical
randomness to the single-cell baseline). The front door owns the
workload generators — the combined arrival stream runs at
``num_cells`` times the per-cell template rate — and routes arrivals
on the cells' eventually-consistent digests.

The caller supplies the master :class:`~repro.sim.RandomStreams`
(see :func:`repro.experiments.federation.build_federation`): this
module is covered by the fault-injection lint discipline (FIJ001) and
therefore never constructs its own entropy source.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.common import (
    LightweightResult,
    start_owned_run,
    start_workload,
)
from repro.federation.cells import FederatedCell
from repro.federation.chaos import FederationChaosEngine
from repro.federation.config import FederationConfig
from repro.federation.router import FrontDoor
from repro.obs import recorder as _obs
from repro.obs.registry import Histogram, publish_sim_stats
from repro.sim import RandomStreams, Simulator
from repro.sim.random import derive_seed
from repro.workload.generator import WorkloadGenerator
from repro.workload.job import JobType


@dataclass
class FederatedResult:
    """Metrics of one federated run.

    Pooled accessors (:meth:`mean_wait`, :meth:`busyness`, ...) reduce
    to *exactly* the single-cell :class:`~repro.metrics.results.
    RunSummary` arithmetic when the federation has one cell — the
    degenerate-baseline guarantee the gate test enforces byte-for-byte.
    """

    config: FederationConfig
    cell_results: list[LightweightResult]
    accounting: dict[str, int]
    jobs_migrated: int
    jobs_rerouted: int
    route_timeouts: int
    abandoned_by_reason: dict[str, int]
    blackouts: int
    partitions: int
    flaps: int
    final_cpu_utilization: float
    events_processed: int
    sim_stats: dict[str, float | int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Pooled metrics (degenerate-exact for one cell)
    # ------------------------------------------------------------------
    def mean_wait(self, job_type: JobType) -> float:
        """Federation-wide average wait time: the pooled per-job list."""
        waits: list[float] = []
        for result in self.cell_results:
            waits.extend(result.metrics.wait_times(job_type))
        if not waits:
            return float("nan")
        return sum(waits) / len(waits)

    def _scheduler_mean(self, role: str, stat: str) -> float:
        """The collector's per-scheduler ``stat`` averaged over every
        scheduler of the role, across all cells."""
        values = [
            getattr(result.metrics, stat)(name, result.horizon)
            for result in self.cell_results
            for name in result.role_names(role)
        ]
        return sum(values) / len(values)

    def busyness(self, role: str) -> float:
        """Median daily busyness averaged over every scheduler of the
        role, across all cells."""
        return self._scheduler_mean(role, "median_busyness")

    def busyness_mad(self, role: str) -> float:
        return self._scheduler_mean(role, "mad_busyness")

    def conflict_fraction(self, role: str) -> float:
        """Conflicts per successfully scheduled job, pooled over every
        scheduler of the role across all cells."""
        conflicts = 0
        scheduled = 0
        for result in self.cell_results:
            for name in result.role_names(role):
                per_scheduler = result.metrics.schedulers[name]
                conflicts += sum(per_scheduler.conflicts.values())
                scheduled += sum(per_scheduler.jobs_scheduled.values())
        if scheduled == 0:
            return float("nan")
        return conflicts / scheduled

    @property
    def jobs_submitted(self) -> int:
        """Jobs that entered the federation (front-door count: each job
        once, however many times it was rerouted or migrated)."""
        return self.accounting["submitted"]

    @property
    def jobs_scheduled(self) -> int:
        return sum(result.jobs_scheduled for result in self.cell_results)

    @property
    def jobs_abandoned(self) -> int:
        """Cell-level abandonments plus the front door's own
        (reroute-cap / migration-cap)."""
        return sum(result.jobs_abandoned for result in self.cell_results) + sum(
            self.abandoned_by_reason.values()
        )

    @property
    def jobs_lost_to_blackout(self) -> int:
        return self.accounting["lost_to_blackout"]

    @property
    def unscheduled_fraction(self) -> float:
        if self.jobs_submitted == 0:
            return 0.0
        return 1.0 - self.jobs_scheduled / self.jobs_submitted

    # ------------------------------------------------------------------
    # Federation-wide wait-time percentiles (Histogram.merge_state)
    # ------------------------------------------------------------------
    def merged_wait_histogram(self) -> Histogram:
        """Every cell's per-scheduler ``jobs.wait_seconds`` histograms
        folded into one federation-wide histogram via
        :meth:`~repro.obs.registry.Histogram.merge_state`."""
        merged = Histogram("jobs.wait_seconds", {"scope": "federation"})
        states = []
        for result in self.cell_results:
            for metric in result.metrics.registry:
                if isinstance(metric, Histogram) and metric.name == "jobs.wait_seconds":
                    states.append(
                        (tuple(sorted(metric.labels.items())), metric.state())
                    )
        states.sort(key=lambda pair: pair[0])
        for _, state in states:
            merged.merge_state(state)
        return merged

    def wait_percentiles(self) -> dict[str, float]:
        merged = self.merged_wait_histogram()
        return {
            "wait_p50": merged.percentile(50.0),
            "wait_p99": merged.percentile(99.0),
            "wait_p999": merged.percentile(99.9),
        }


class FederatedSimulation:
    """Builds and runs one configured federation.

    ``streams`` is the run's master :class:`~repro.sim.RandomStreams`,
    created by the caller from the cell template's seed; cell 0 shares
    it directly (the degenerate-baseline identity), higher cells fork.
    """

    def __init__(self, config: FederationConfig, streams: RandomStreams) -> None:
        self.config = config
        self.sim = Simulator()
        self.streams = streams
        self.cells: list[FederatedCell] = []
        self.front_door: FrontDoor | None = None
        self.chaos: FederationChaosEngine | None = None
        self.generators: dict[JobType, WorkloadGenerator] = {}
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> "FederatedSimulation":
        if self._built:
            raise RuntimeError("federation already built")
        self._built = True
        # Once for the whole federation: an injected simulator marks
        # each cell as non-owning, so the cells skip it.
        start_owned_run(self.sim)
        config = self.config
        base = config.cell_config
        for index in range(config.num_cells):
            cell_config = replace(
                base,
                external_arrivals=True,
                name_prefix=f"c{index}/",
                seed=(
                    base.seed
                    if index == 0
                    else derive_seed(base.seed, f"cell.{index}")
                ),
            )
            cell_streams = (
                self.streams if index == 0 else self.streams.fork(f"cell.{index}")
            )
            cell = FederatedCell(
                index,
                cell_config,
                self.sim,
                cell_streams,
                staleness=config.staleness,
            )
            cell.build()
            self.cells.append(cell)
        self.front_door = FrontDoor(self.sim, self.cells, config, self.streams)
        if config.staleness > 0:
            for cell in self.cells:
                cell.publish_digest()
                self.sim.every(
                    config.staleness, cell.publish_digest, until=base.horizon
                )
        # The front door's combined arrival stream: the single-cell
        # run's named streams at ``num_cells`` times the template rates,
        # so one cell is exactly the baseline workload.
        self.generators = start_workload(
            self.sim,
            self.streams,
            base,
            self.front_door.submit,
            rate_multiplier=float(config.num_cells),
        )
        if config.fault_config.enabled:
            self.chaos = FederationChaosEngine(
                self.sim,
                self.streams.fork("fed-chaos"),
                config.fault_config,
                self.cells,
                self.front_door,
                horizon=base.horizon,
            )
            self.chaos.install()
        return self

    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Per-cell post-run invariant gate (every cell state must stay
        internally consistent, blackouts included)."""
        violations: list[str] = []
        for cell in self.cells:
            violations.extend(cell.world.check_invariants())
        return violations

    def cpu_utilization(self) -> float:
        used = sum(
            state.used_cpu for cell in self.cells for state in cell.world.states
        )
        total = sum(
            state.cell.total_cpu
            for cell in self.cells
            for state in cell.world.states
        )
        return used / total

    # ------------------------------------------------------------------
    def run(self) -> FederatedResult:
        if not self._built:
            self.build()
        config = self.config
        base = config.cell_config
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "run.start",
                t=self.sim.now,
                architecture="federation",
                horizon=base.horizon,
                seed=base.seed,
                cluster=base.preset.name,
                cells=config.num_cells,
                staleness=config.staleness,
                policy=config.policy,
            )
        self.sim.run(until=base.horizon)
        stats = self.sim.stats()
        publish_sim_stats(stats)
        cell_results = [cell.world.finalize() for cell in self.cells]
        assert self.front_door is not None
        accounting = self.front_door.check_accounting()
        chaos = self.chaos
        return FederatedResult(
            config=config,
            cell_results=cell_results,
            accounting=accounting,
            jobs_migrated=self.front_door.jobs_migrated,
            jobs_rerouted=self.front_door.jobs_rerouted,
            route_timeouts=self.front_door.route_timeouts,
            abandoned_by_reason=dict(self.front_door.abandoned_by_reason),
            blackouts=chaos.blackouts if chaos is not None else 0,
            partitions=chaos.partitions if chaos is not None else 0,
            flaps=chaos.flaps if chaos is not None else 0,
            final_cpu_utilization=self.cpu_utilization(),
            events_processed=self.sim.events_processed,
            sim_stats=stats,
        )
