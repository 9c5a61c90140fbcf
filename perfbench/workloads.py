"""The benchmark's workloads, built through the public entry points.

Each workload is a :class:`Workload`: a config factory for one seed and
horizon. The functions below build and check the world a config
describes and fingerprint its outputs. Nothing here reaches into simulator internals; the worker
times calls into these functions from outside. Everything is imported
at module load so that no import lands inside a timed set-up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import LightweightSimulation
from repro.experiments.sweeps import batch_load_points, service_decision_points
from repro.experiments.sweeps import result_row as sweep_row
from repro.workload.clusters import preset_by_name

HOUR = 3600.0

#: Cluster B has 3,000 machines; the paper-scale point scales it up.
PAPER_SCALE_MACHINES = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated seconds one run advances.
    horizon: float
    #: ``(seed, horizon) -> config`` for :func:`build`.
    make_config: Callable[[int, float], Any]
    #: Host seconds one untraced child takes on a 2-core x86 box
    #: (interpreter start, set-up, run and checks); sizes the runs.
    nominal_s: float


def _paper_scale(seed: int, horizon: float):
    scale = PAPER_SCALE_MACHINES / preset_by_name("B").num_machines
    (config, _), = service_decision_points(
        "omega", t_jobs=(1.0,), clusters=("B",), horizon=horizon, seed=seed, scale=scale
    )
    return config


def _contended_gang(seed: int, horizon: float):
    (config, _), = batch_load_points(
        (8.0,),
        cluster="B",
        horizon=horizon,
        seed=seed,
        scale=0.2,
        num_batch_schedulers=16,
        conflict_mode=ConflictMode.COARSE,
        commit_mode=CommitMode.ALL_OR_NOTHING,
    )
    return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_scale", 2.0 * HOUR, _paper_scale, nominal_s=5.4),
        Workload("contended_gang", 1.0 * HOUR, _contended_gang, nominal_s=2.7),
    )
}


def build(config) -> LightweightSimulation:
    """An unbuilt world for ``config`` (call ``.build()`` on it)."""
    return LightweightSimulation(config)


def check(world) -> None:
    """Post-run output checks; raises on any violation.

    The invariant checker raises :class:`repro.faults.InvariantViolation`
    itself; any violation it returns instead is raised here.
    """
    violations = world.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations: {violations[:3]}")


def result_row(result) -> dict:
    """The figure-table row of one run plus its engine counters: the
    simulated outputs a performance change must leave byte-identical."""
    row = sweep_row(result)
    row["events_processed"] = result.events_processed
    row["jobs_submitted"] = result.jobs_submitted
    row["jobs_scheduled"] = result.jobs_scheduled
    return row


def fingerprint(row: dict) -> str:
    """SHA-256 over the row's canonical JSON (floats by ``repr``, so a
    change in the last digit changes the fingerprint)."""
    blob = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
