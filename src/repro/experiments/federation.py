"""Federation experiment: multi-cell graceful degradation.

``omega-sim federation`` sweeps cell count x aggregate staleness x
cell-fault intensity and reports how the federated system degrades:
batch/service wait, conflict rate, federation-wide merged wait
percentiles, and the explicit job ledger (migrated, rerouted,
abandoned, lost to blackouts). Every run ends with two gates — the
per-cell invariant checker and the front door's accounting invariant
``submitted == scheduled + pending + abandoned + lost_to_blackout`` —
so a fault path that silently loses a job fails the sweep instead of
flattering the table.

The degenerate baseline is load-bearing: a 1-cell federation at zero
staleness and zero intensity draws byte-identical randomness to the
single-cell ``omega`` experiment, and :func:`run_degenerate_gate`
enforces that its results table matches byte-for-byte (also wired into
the CI determinism gates).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import format_table
from repro.experiments.omega import single_run_rows
from repro.experiments.sweeps import batch_load_points, result_row, run_sweep
from repro.federation import (
    ROUTING_POLICIES,
    FederatedResult,
    FederatedSimulation,
    FederationConfig,
    FederationFaultConfig,
)

__all__ = [
    "ROUTING_POLICIES",
    "BASELINE_FED_FAULTS",
    "SHARED_COLUMNS",
    "build_federation",
    "federation_row",
    "federation_points",
    "federation_rows",
    "DegenerateGateFailure",
    "degenerate_gate_rows",
    "run_degenerate_gate",
]
from repro.sim import RandomStreams

#: One federation sweep point: full config plus extra row fields.
FederationPoint = tuple[FederationConfig, dict]

DEFAULT_CELL_COUNTS = (1, 2, 4)
DEFAULT_STALENESS = (0.0, 60.0)
DEFAULT_INTENSITIES = (0.0, 1.0, 3.0)

#: The intensity-1.0 cell-fault mix. Blackout MTBF is per cell, so at a
#: two-hour horizon each cell sees roughly one blackout; partitions and
#: flaps are likewise per cell. ``FederationFaultConfig.scaled``
#: divides the MTBFs by the intensity.
BASELINE_FED_FAULTS = FederationFaultConfig(
    blackout_mtbf=2 * 3600.0,
    blackout_duration=600.0,
    partition_mtbf=3 * 3600.0,
    partition_duration=900.0,
    flap_mtbf=3600.0,
    flap_duration=60.0,
)

#: The columns shared with :func:`repro.experiments.sweeps.result_row`.
#: Over these, a 1-cell/zero-staleness/zero-intensity federation table
#: must be byte-identical to the single-cell ``omega`` table.
SHARED_COLUMNS = [
    "cluster",
    "rate_factor",
    "wait_batch",
    "wait_service",
    "busy_batch",
    "busy_batch_mad",
    "busy_service",
    "busy_service_mad",
    "conflict_batch",
    "conflict_service",
    "abandoned",
    "unscheduled_fraction",
    "utilization",
]


def build_federation(config: FederationConfig) -> FederatedSimulation:
    """Construct a federation with its master streams.

    The streams are created here — not inside ``repro.federation``,
    which sits under the fault-injection lint discipline (FIJ001) and
    must only ever *receive* entropy derived from the run's master seed.
    """
    return FederatedSimulation(
        config, streams=RandomStreams(config.cell_config.seed)
    )


def federation_row(sim, result: FederatedResult, **extra) -> dict:
    """Flatten one federated run into a results-table row.

    Starts from the standard :func:`~repro.experiments.sweeps.
    result_row` columns (pooled across cells, degenerate-exact for one
    cell), then adds the federation-wide merged wait percentiles
    (satellite of ROADMAP item 3: ``Histogram.merge_state``) and the
    explicit job ledger.
    """
    row = result_row(result, **extra)
    row.update(result.wait_percentiles())
    accounting = result.accounting
    row.update(
        submitted=accounting["submitted"],
        scheduled=accounting["scheduled"],
        pending=accounting["pending"],
        lost=accounting["lost_to_blackout"],
        migrated=result.jobs_migrated,
        rerouted=result.jobs_rerouted,
        blackouts=result.blackouts,
        partitions=result.partitions,
        flaps=result.flaps,
    )
    return row


def federation_points(
    cells: Sequence[int] = DEFAULT_CELL_COUNTS,
    staleness_values: Sequence[float] = DEFAULT_STALENESS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    policy: str = "least-loaded",
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
    scale: float = 0.2,
    faults: FederationFaultConfig = BASELINE_FED_FAULTS,
) -> list[FederationPoint]:
    """The cell-count x staleness x intensity grid.

    The per-cell template reuses :func:`~repro.experiments.sweeps.
    batch_load_points` verbatim (same preset scaling and decision-time
    dilation), which is what makes the 1-cell row the exact single-cell
    baseline.
    """
    points: list[FederationPoint] = []
    for num_cells in cells:
        for staleness in staleness_values:
            for intensity in intensities:
                cell_config, _ = batch_load_points(
                    (rate_factor,),
                    cluster=cluster,
                    horizon=horizon,
                    seed=seed,
                    scale=scale,
                    invariant_check_interval=horizon / 8.0,
                )[0]
                config = FederationConfig(
                    cell_config=cell_config,
                    num_cells=num_cells,
                    staleness=staleness,
                    policy=policy,
                    fault_config=faults.scaled(intensity),
                )
                points.append(
                    (
                        config,
                        {
                            "cluster": cluster,
                            "rate_factor": rate_factor,
                            "cells": num_cells,
                            "staleness": staleness,
                            "intensity": intensity,
                            "policy": policy,
                        },
                    )
                )
    return points


def federation_rows(
    cells: Sequence[int] = DEFAULT_CELL_COUNTS,
    staleness_values: Sequence[float] = DEFAULT_STALENESS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    policy: str = "least-loaded",
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
    scale: float = 0.2,
    faults: FederationFaultConfig = BASELINE_FED_FAULTS,
    jobs: int = 1,
) -> list[dict]:
    """Graceful-degradation table over the federation grid."""
    points = federation_points(
        cells=cells,
        staleness_values=staleness_values,
        intensities=intensities,
        policy=policy,
        cluster=cluster,
        rate_factor=rate_factor,
        horizon=horizon,
        seed=seed,
        scale=scale,
        faults=faults,
    )
    # Both post-run gates run per point: the per-cell invariant checks
    # (FederatedSimulation.check_invariants) and, inside
    # FederatedSimulation.run itself, the front-door accounting invariant.
    return run_sweep(points, jobs=jobs, row=federation_row, build=build_federation)


# ----------------------------------------------------------------------
# The degenerate-baseline gate
# ----------------------------------------------------------------------
class DegenerateGateFailure(RuntimeError):
    """The degenerate federation's table differs from the single-cell
    ``omega`` table."""


def degenerate_gate_rows(
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 1800.0,
    seed: int = 0,
    scale: float = 0.05,
    jobs: int = 1,
) -> list[dict]:
    """The degenerate-baseline gate: run the 1-cell/zero-staleness/
    zero-intensity federation and the equivalent single-cell ``omega``
    run, and raise :class:`DegenerateGateFailure` unless their tables
    over :data:`SHARED_COLUMNS` are byte-identical. Returns the
    federation's rows on success."""
    federated = federation_rows(
        cells=(1,),
        staleness_values=(0.0,),
        intensities=(0.0,),
        policy="round-robin",
        cluster=cluster,
        rate_factor=rate_factor,
        horizon=horizon,
        seed=seed,
        scale=scale,
        jobs=jobs,
    )
    single = single_run_rows(
        cluster=cluster,
        rate_factor=rate_factor,
        horizon=horizon,
        seed=seed,
        scale=scale,
        jobs=jobs,
    )
    federated_table = format_table(federated, SHARED_COLUMNS)
    single_table = format_table(single, SHARED_COLUMNS)
    if federated_table != single_table:
        raise DegenerateGateFailure(
            "degenerate-baseline gate failed: 1-cell zero-staleness "
            "zero-intensity federation table differs from the "
            f"single-cell omega table\n-- federation --\n{federated_table}\n"
            f"-- single-cell --\n{single_table}"
        )
    return federated


def run_degenerate_gate(
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 1800.0,
    seed: int = 0,
    scale: float = 0.05,
    jobs: int = 1,
) -> str:
    """:func:`degenerate_gate_rows`, returning the (shared) table."""
    rows = degenerate_gate_rows(
        cluster=cluster,
        rate_factor=rate_factor,
        horizon=horizon,
        seed=seed,
        scale=scale,
        jobs=jobs,
    )
    return format_table(rows, SHARED_COLUMNS)
