"""Ablation drivers: design-choice experiments beyond the paper's plots.

Each function returns result rows; the corresponding benchmark under
``benchmarks/bench_ablation_*.py`` prints and asserts them, and the
``omega-sim ablation-*`` commands expose them on the CLI. See DESIGN.md
section 5 for the paper grounding of each ablation.

Every ablation is a list of independent configurations, so each driver
accepts ``jobs`` and fans its points out through
:func:`repro.experiments.sweeps.run_sweep` (with its own row builder
for custom row shapes).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.experiments.common import LightweightConfig
from repro.experiments.mesos import pathology_preset
from repro.experiments.sweeps import SweepPoint, run_sweep
from repro.schedulers.base import DecisionTimeModel
from repro.workload.clusters import CLUSTER_A, CLUSTER_B
from repro.workload.job import JobType


def offer_policy_rows(
    t_jobs: Sequence[float] = (0.1, 100.0),
    horizon: float = 2 * 3600.0,
    seed: int = 11,
    attempt_limit: int = 200,
    jobs: int = 1,
) -> list[dict]:
    """Mesos offer-everything vs fair-share-sized offers (paper §4.2's
    discussion with the Mesos team) on the pathology workload."""
    preset = pathology_preset()
    points: list[SweepPoint] = []
    for offer_policy in ("all", "fair_share"):
        for t_job in t_jobs:
            config = LightweightConfig(
                preset=preset,
                architecture="mesos",
                horizon=horizon,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job),
                mesos_offer_policy=offer_policy,
                attempt_limit=attempt_limit,
            )
            points.append(
                (config, {"offer_policy": offer_policy, "t_job_service": t_job})
            )
    return run_sweep(points, jobs=jobs)


def _contention_config(
    scale: float, horizon: float, seed: int, **kwargs
) -> LightweightConfig:
    """A conflict-heavy Omega configuration: many schedulers, high load,
    a fairly full cell."""
    preset = dataclasses.replace(
        CLUSTER_B.scaled(scale), initial_utilization=0.75
    )
    return LightweightConfig(
        preset=preset,
        architecture="omega",
        horizon=horizon,
        seed=seed,
        num_batch_schedulers=16,
        batch_rate_factor=6.0,
        **kwargs,
    )


def retry_position_rows(
    scale: float = 0.2, horizon: float = 3600.0, seed: int = 5, jobs: int = 1
) -> list[dict]:
    """Conflicted-job requeue at the queue head (the paper's immediate
    retry) vs the tail."""
    points: list[SweepPoint] = [
        (
            _contention_config(
                scale, horizon, seed, retry_conflicts_at_front=retry_at_front
            ),
            {"retry_position": "head" if retry_at_front else "tail"},
        )
        for retry_at_front in (True, False)
    ]
    return run_sweep(points, jobs=jobs)


def initial_utilization_rows(
    fills: Sequence[float] = (0.3, 0.6, 0.8),
    scale: float = 0.2,
    horizon: float = 3600.0,
    seed: int = 5,
    jobs: int = 1,
) -> list[dict]:
    """Conflict fraction vs standing cluster fullness."""
    preset = CLUSTER_B.scaled(scale)
    points: list[SweepPoint] = [
        (
            LightweightConfig(
                preset=preset,
                architecture="omega",
                horizon=horizon,
                seed=seed,
                num_batch_schedulers=16,
                batch_rate_factor=6.0,
                initial_utilization=fill,
            ),
            {"initial_utilization": fill},
        )
        for fill in fills
    ]
    return run_sweep(points, jobs=jobs)


def preemption_row(sim, result, preemption: str) -> dict:
    """One preemption on/off row: wait times and what preemption cost."""
    return {
        "preemption": preemption,
        "wait_service": result.mean_wait(JobType.SERVICE),
        "wait_batch": result.mean_wait(JobType.BATCH),
        "tasks_preempted": result.preemptions_caused("service"),
        "batch_tasks_lost": result.tasks_lost_to_preemption("batch"),
        "unscheduled_fraction": result.unscheduled_fraction,
        "utilization": result.final_cpu_utilization,
    }


def preemption_rows(
    scale: float = 0.2, horizon: float = 2 * 3600.0, seed: int = 3, jobs: int = 1
) -> list[dict]:
    """Priority preemption on vs off on a nearly-full cell."""
    preset = dataclasses.replace(
        CLUSTER_A.scaled(scale), initial_utilization=0.85
    )
    points: list[SweepPoint] = [
        (
            LightweightConfig(
                preset=preset,
                architecture="omega",
                horizon=horizon,
                seed=seed,
                enable_preemption=enabled,
            ),
            {"preemption": "on" if enabled else "off"},
        )
        for enabled in (False, True)
    ]
    return run_sweep(points, jobs=jobs, row=preemption_row)


def placement_strategy_rows(
    strategies: Sequence[str] = ("worst-fit", "random-first-fit", "best-fit"),
    scale: float = 0.2,
    horizon: float = 3600.0,
    seed: int = 5,
    jobs: int = 1,
) -> list[dict]:
    """Placement strategy vs interference (why the paper's hifi
    simulator conflicts more than its lightweight one)."""
    points: list[SweepPoint] = [
        (
            _contention_config(scale, horizon, seed, placement_strategy=strategy),
            {"placement_strategy": strategy},
        )
        for strategy in strategies
    ]
    return run_sweep(points, jobs=jobs)


def backoff_rows(
    cooldowns: Sequence[float] = (0.0, 5.0, 30.0),
    scale: float = 0.2,
    horizon: float = 3600.0,
    seed: int = 5,
    jobs: int = 1,
) -> list[dict]:
    """OCC hot-machine backoff windows (paper §8 future work)."""
    points: list[SweepPoint] = [
        (
            _contention_config(
                scale, horizon, seed, conflict_avoidance_cooldown=cooldown
            ),
            {"cooldown_s": cooldown},
        )
        for cooldown in cooldowns
    ]
    return run_sweep(points, jobs=jobs)
