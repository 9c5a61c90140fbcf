"""Trace-driven high-fidelity Omega simulation (paper section 5).

Only the Omega shared-state architecture is supported, like the paper's
high-fidelity simulator ("at the price of only supporting the Omega
architecture"). Placement obeys constraints and uses the deterministic
scoring algorithm, and — also like the paper — the finer placement and
fullness behaviour produces noticeably more interference than the
lightweight simulator.

The replay is the lightweight simulator's run lifecycle
(:class:`~repro.experiments.common.LightweightSimulation`: build, run,
finalize, the invariant gate, omega-san, chaos and ``timeline.*``
telemetry) with only the workload source and placement algorithm
swapped, the two ways the paper's simulators differ.

Simplifications carried over from the paper's own simulator: requested
sizes are used instead of actual usage, allocations are fixed at their
initially-requested sizes, and preemption is disabled. Machine failures
— which the paper also skipped — are *optionally* modeled here as an
extension (``fault_config``; see :mod:`repro.faults.chaos`). The paper
justifies the omission because failures "only generate a small load on
the scheduler"; ``tests/hifi/test_failures.py`` checks that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.fill import populate
from repro.core.preemption import AllocationLedger
from repro.core.scheduler import OmegaScheduler
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import DAY, LightweightResult, LightweightSimulation
from repro.faults import FaultConfig
from repro.hifi.constraints import AttributeIndex
from repro.hifi.placement import ScoringPlacer
from repro.hifi.trace import Trace, TraceJob
from repro.obs import recorder as _obs
from repro.obs import timeline as _timeline
from repro.schedulers.base import DecisionTimeModel
from repro.workload.job import Job


@dataclass
class HighFidelityConfig:
    """Parameters of one high-fidelity replay."""

    trace: Trace
    seed: int = 0
    batch_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    service_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    num_batch_schedulers: int = 1
    conflict_mode: ConflictMode = ConflictMode.FINE
    commit_mode: CommitMode = CommitMode.INCREMENTAL
    attempt_limit: int = 1000
    metrics_period: float | None = None
    #: Simulated horizon; ``None`` resolves to the trace's horizon at
    #: construction.
    horizon: float | None = None
    #: Deterministic fault injection, as in the lightweight simulator.
    #: Machine failures are an extension beyond the paper, which skipped
    #: them; with machine failures on, allocations are ledgered so a
    #: failing machine's tasks are evicted and rescheduled.
    fault_config: FaultConfig = field(default_factory=FaultConfig)
    #: ``timeline.*`` sampling interval: the process-wide default
    #: (``--timeline-interval``), captured at construction so configs
    #: pickled to ``--jobs N`` workers carry it.
    timeline_interval: float | None = field(init=False, default=None)

    #: What the shared lifecycle reads but a replay does not vary.
    architecture: ClassVar[str] = "hifi-omega"
    invariant_check_interval: ClassVar[float | None] = None
    utilization_sample_interval: ClassVar[float | None] = None

    def __post_init__(self) -> None:
        if self.num_batch_schedulers < 1:
            raise ValueError("need at least one batch scheduler")
        if self.horizon is None:
            self.horizon = self.trace.horizon
        self.timeline_interval = _timeline.default_interval()

    @property
    def period(self) -> float:
        if self.metrics_period is not None:
            return self.metrics_period
        return min(DAY, self.horizon / 4.0)


class HighFidelitySimulation(LightweightSimulation):
    """Builds and runs one trace replay: the trace's cell, standing
    tasks and jobs, scheduled by Omega schedulers that place with the
    constraint-aware :class:`~repro.hifi.placement.ScoringPlacer`."""

    config: HighFidelityConfig

    def _new_cell(self) -> Cell:
        return self.config.trace.cell()

    def _build_hifi_omega(self) -> None:
        state = CellState(self.cell)
        self.states.append(state)
        config = self.config
        if config.fault_config.machine_mtbf is not None:
            self.ledger = AllocationLedger(state, self.sim)
        placer = ScoringPlacer(self.cell, AttributeIndex(self.cell))

        def scheduler(name: str, stream: str, model: DecisionTimeModel):
            return OmegaScheduler(
                name,
                self.sim,
                self.metrics,
                state,
                self.streams.stream(stream),
                model,
                conflict_mode=config.conflict_mode,
                commit_mode=config.commit_mode,
                placement=placer,
                attempt_limit=config.attempt_limit,
                ledger=self.ledger,
            )

        count = config.num_batch_schedulers
        batch_schedulers = [
            scheduler(
                f"hifi-batch-{i}" if count > 1 else "hifi-batch",
                f"placement.hifi-batch-{i}",
                config.batch_model,
            )
            for i in range(count)
        ]
        service = scheduler(
            "hifi-service", "placement.hifi-service", config.service_model
        )
        self._attach_omega(batch_schedulers, service)

    def _fill_initial_state(self) -> None:
        populate(
            self.states[0],
            self.config.trace.initial_tasks,
            self.streams.stream("initial-fill"),
            self.sim,
            self.config.horizon,
        )

    def _start_workload(self) -> None:
        self.generators = {}
        for trace_job in self.config.trace.jobs:
            if trace_job.submit_time > self.config.horizon:
                break
            self.sim.at(trace_job.submit_time, self._submit_trace_job, trace_job)

    def _submit_trace_job(self, trace_job: TraceJob) -> None:
        job = Job(
            job_type=trace_job.job_type,
            submit_time=self.sim.now,
            num_tasks=trace_job.num_tasks,
            cpu_per_task=trace_job.cpu_per_task,
            mem_per_task=trace_job.mem_per_task,
            duration=trace_job.duration,
            constraints=trace_job.constraints,
        )
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "hifi.job_submitted",
                t=self.sim.now,
                job=job.job_id,
                job_type=job.job_type.value,
                tasks=job.num_tasks,
                constrained=bool(job.constraints),
            )
        self.submit(job)

    def _run_start_fields(self) -> dict:
        config = self.config
        return {
            "architecture": config.architecture,
            "horizon": config.horizon,
            "seed": config.seed,
        }


def run_hifi(config: HighFidelityConfig) -> LightweightResult:
    """Build and run one high-fidelity replay."""
    return HighFidelitySimulation(config).run()
