"""Figures 5c/6c (Omega under the service sweep), 8 (workload scaling)
and 9 (multiple batch schedulers).

Expected shapes (paper section 4.3):

* Fig 5c/6c — wait times comparable to the multi-path monolithic case,
  but with *independent* batch and service lines: no head-of-line
  blocking, conflicts rare.
* Fig 8 — wait time and busyness rise with the batch arrival rate;
  clusters saturate in the order A (~2.5x) < B (~6x) < C (~9.5x).
* Fig 9 — the conflict fraction increases with the number of batch
  schedulers (more opportunities to conflict), but per-scheduler
  busyness drops, so the model scales to higher loads.
"""

from __future__ import annotations

from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import DAY
from repro.faults.retry import RetryPolicyConfig
from repro.experiments.sweeps import (
    DEFAULT_SWEEP_CLUSTERS,
    batch_load_points,
    run_sweep,
    saturation_point,
    sweep_service_decision_time,
)

DEFAULT_T_JOBS = (0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_RATE_FACTORS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_SCHEDULER_COUNTS = (1, 2, 4, 8, 16, 32)


def figure5c_6c_rows(
    t_jobs=DEFAULT_T_JOBS,
    clusters=DEFAULT_SWEEP_CLUSTERS,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    conflict_mode: ConflictMode = ConflictMode.FINE,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
    jobs: int = 1,
) -> list[dict]:
    """Shared-state scheduling under the service-time sweep."""
    return sweep_service_decision_time(
        "omega",
        t_jobs,
        clusters=clusters,
        horizon=horizon,
        seed=seed,
        scale=scale,
        conflict_mode=conflict_mode,
        commit_mode=commit_mode,
        jobs=jobs,
    )


def figure8_rows(
    factors=DEFAULT_RATE_FACTORS,
    clusters=DEFAULT_SWEEP_CLUSTERS,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    jobs: int = 1,
) -> list[dict]:
    """Scaling the batch arrival rate on each cluster.

    The paper's Figure 8 plots cluster B; running all three clusters
    also recovers the quoted saturation points (A ~2.5x, B ~6x,
    C ~9.5x), reported via :func:`figure8_saturation_points`.
    """
    points = []
    for cluster in clusters:
        points.extend(
            batch_load_points(
                factors, cluster=cluster, horizon=horizon, seed=seed, scale=scale
            )
        )
    return run_sweep(points, jobs=jobs)


def single_run_rows(
    cluster: str = "B",
    rate_factor: float = 1.0,
    predictor: bool = False,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    jobs: int = 1,
) -> list[dict]:
    """One Omega run at a single operating point.

    The figure drivers sweep whole parameter grids; this one runs
    exactly one shared-state simulation, which is the right shape for
    recording a time-resolved trace (``--trace`` plus
    ``--timeline-interval``) and inspecting it with ``omega-sim trace``
    / ``perfetto`` / ``report``. ``predictor`` turns on predictive
    conflict avoidance (contention-aware placement steering plus the
    ``predictive`` escalation policy, see :mod:`repro.faults.predictor`);
    off, the run is byte-identical to a build without the predictor.
    """
    config_kwargs = {}
    if predictor:
        config_kwargs["retry_policy"] = RetryPolicyConfig(kind="predictive")
    points = batch_load_points(
        (rate_factor,),
        cluster=cluster,
        horizon=horizon,
        seed=seed,
        scale=scale,
        **config_kwargs,
    )
    return run_sweep(points, jobs=jobs)


def figure8_saturation_points(rows: list[dict]) -> dict[str, float | None]:
    """Per-cluster saturation factors (the dashed vertical lines)."""
    points: dict[str, float | None] = {}
    for cluster in sorted({row["cluster"] for row in rows}):
        cluster_rows = [row for row in rows if row["cluster"] == cluster]
        points[cluster] = saturation_point(cluster_rows)
    return points


def figure9_rows(
    factors=DEFAULT_RATE_FACTORS,
    scheduler_counts=DEFAULT_SCHEDULER_COUNTS,
    cluster: str = "B",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    jobs: int = 1,
) -> list[dict]:
    """Load-balancing the batch workload over 1-32 Omega schedulers."""
    points = []
    for count in scheduler_counts:
        points.extend(
            batch_load_points(
                factors,
                cluster=cluster,
                num_batch_schedulers=count,
                horizon=horizon,
                seed=seed,
                scale=scale,
            )
        )
    return run_sweep(points, jobs=jobs)
