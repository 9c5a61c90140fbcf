"""Host-time benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``perfbench/worker.py`` in a fresh interpreter per child, one at a
time, so that set-up time and peak memory belong to one world each.
Child ``i`` simulates the workload on sub-seed ``derive_seed(N,
"perfbench.i")``; the last child repeats sub-seed 0, and its outputs
must match the first child's byte for byte. ``--seconds`` sets how many
children run, from each workload's nominal cost per child, so the
inputs depend on the arguments only, never on the machine's speed.

``--trace 0`` prints the end-to-end metrics over the children, with
every time scaled to the reference host by each child's host factor
(see :func:`host_factor`).
``--trace 1`` runs untraced/traced pairs on the same sub-seed and prints
the per-layer metrics (means over traced children, which add up to
their traced wall). The last line of standard output is the JSON result;
the lines before it are the per-child table and the exact simulated
statistics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest timed children in one run (the repeat of sub-seed 0 included).
MIN_CHILDREN = 3
#: Cost of a traced child relative to an untraced one, for sizing pairs.
TRACED_COST = 1.4
#: Every child and the whole run end well within the 180 s a run may take.
CHILD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0
#: Host seconds of ``worker.reference_s`` on the reference host, a
#: 2-vCPU Intel Xeon VM at 2.1 GHz: the unit the end-to-end times are
#: scaled to.
REFERENCE_S = 0.13
#: Largest |sum of layer self times - traced wall| / traced wall accepted;
#: the two differ only by float rounding.
ACCOUNTING_TOLERANCE = 1e-6

END_TO_END_UNITS = {
    "sim_speed": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layer whose self time a ``<layer>.self_s`` metric reports, with the
#: two setup layers reported under their own names.
SELF_TIME_LAYERS = {
    "sim.queue": "sim.queue.self_s",
    "sim.loop": "sim.loop.self_s",
    "workload.make_job": "workload.make_job.self_s",
    "core.cellstate.release": "core.cellstate.release.self_s",
    "core.cellstate.claim_batch": "core.cellstate.claim_batch.self_s",
    "core.cellstate.snapshot": "core.cellstate.snapshot.self_s",
    "core.cellstate.resync": "core.cellstate.resync.self_s",
    "core.placement": "core.placement.self_s",
    "core.transaction": "core.transaction.self_s",
    "schedulers.submit": "schedulers.submit.self_s",
    "schedulers.attempt": "schedulers.attempt.self_s",
    "metrics.record": "metrics.record.self_s",
    "core.fill.populate": "core.fill.populate_s",
    "setup.other": "setup.other_s",
    "trace.unattributed": "trace.unattributed_s",
}

#: Layer whose call count a metric reports.
CALL_LAYERS = {
    "sim.queue.calls": "sim.queue",
    "workload.jobs": "workload.make_job",
    "core.cellstate.release.calls": "core.cellstate.release",
    "core.cellstate.resync.calls": "core.cellstate.resync",
    "core.cellstate.snapshot.calls": "core.cellstate.snapshot",
    "core.placement.calls": "core.placement",
    "core.transaction.commits": "core.transaction",
    "schedulers.attempts": "schedulers.attempt",
    "schedulers.submit.calls": "schedulers.submit",
    "metrics.record.calls": "metrics.record",
}


#: Every per-layer metric ``--trace 1`` prints, with its unit.
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_LAYERS.values()},
    **{name: "count" for name in CALL_LAYERS},
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.peak_queue_depth": "count",
    "core.placement.tasks": "count",
    "core.transaction.claimed_tasks": "count",
    "core.transaction.accepted_tasks": "count",
    "core.transaction.accept_ratio": "ratio",
    "schedulers.attempts_per_job": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, traced: bool, timeout: float,
          horizon: float | None = None) -> dict:
    """Run one worker to completion; its result dict (``ok`` False on
    any failure, with the reason in ``error``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if horizon is not None:
        cmd += ["--horizon", repr(horizon)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "seed": seed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "seed": seed, "error": f"exit {proc.returncode}: {tail[0]}"}
    out.setdefault("seed", seed)
    if proc.returncode != 0:
        out["ok"] = False
    return out


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct child seeds derived from the run's ``--seed``."""
    from repro.sim.random import derive_seed

    return [derive_seed(seed, f"perfbench.{i}") for i in range(count)]


def judge(results: list[dict]) -> int:
    """Mark as failed every result whose fingerprint differs from an
    earlier result of the same seed; returns the number of failed
    results, those that failed on their own included."""
    first: dict[int, str] = {}
    for out in results:
        if not out.get("ok"):
            continue
        expected = first.setdefault(out["seed"], out["fingerprint"])
        if out["fingerprint"] != expected:
            out["ok"] = False
            out["error"] = f"fingerprint {out['fingerprint'][:16]} != {expected[:16]}"
    return sum(1 for out in results if not out.get("ok"))


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_factor(out: dict) -> float:
    """How much slower than the reference host this child's host ran:
    its reference work time over the reference host's."""
    return out["ref_s"] / REFERENCE_S


def end_to_end(results: list[dict]) -> dict:
    """The end-to-end metrics of one timed run's successful children.

    Every time is scaled to the reference host (divided by the child's
    :func:`host_factor`), so that the phases in which a shared host runs
    slower or faster do not show as changes of the simulator.
    ``sim_speed`` pools the children (total simulated seconds over total
    scaled run seconds), which averages out how much work each
    sub-seed's inputs make; set-up time and peak memory are medians.
    """
    good = [out for out in results if out.get("ok")]
    values = {
        "sim_speed": sum(out["horizon"] for out in good)
        / sum(out["run_s"] / host_factor(out) for out in good),
        "setup_s": statistics.median(out["setup_s"] / host_factor(out) for out in good),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in good),
    }
    return {name: _metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from ``(untraced, traced)`` pairs on one seed.

    Self times, call and work counts are means over the traced
    children, so the self times still add up to the mean traced wall.
    Events per second and the tracing overhead come from the untraced
    partners, which ran the same inputs.
    """
    traced = [t for _, t in pairs]
    untraced = [u for u, _ in pairs]
    n = len(traced)

    def mean(values) -> float:
        return sum(values) / n

    metrics: dict[str, float] = {}
    for layer, name in SELF_TIME_LAYERS.items():
        metrics[name] = mean(t["self_s"].get(layer, 0.0) for t in traced)
    for name, layer in CALL_LAYERS.items():
        metrics[name] = mean(t["calls"].get(layer, 0) for t in traced)
    for key in ("core.placement.tasks", "core.transaction.claimed_tasks",
                "core.transaction.accepted_tasks"):
        metrics[key] = mean(t["counts"].get(key, 0) for t in traced)
    metrics["sim.events"] = mean(t["events"] for t in traced)
    metrics["sim.peak_queue_depth"] = mean(t["peak_queue_depth"] for t in traced)
    metrics["sim.events_per_s"] = (
        sum(u["events"] for u in untraced) / sum(u["run_s"] for u in untraced)
    )
    claimed = metrics["core.transaction.claimed_tasks"]
    metrics["core.transaction.accept_ratio"] = (
        metrics["core.transaction.accepted_tasks"] / claimed if claimed else 0.0
    )
    jobs = metrics["workload.jobs"]
    metrics["schedulers.attempts_per_job"] = metrics["schedulers.attempts"] / jobs if jobs else 0.0
    metrics["trace.wall_s"] = mean(t["wall_s"] for t in traced)
    metrics["trace.untraced_wall_s"] = mean(u["setup_s"] + u["run_s"] for u in untraced)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    return {name: _metric(value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}


def accounts_for_wall(traced: dict) -> bool:
    """Whether one traced child's layer self times add up to its wall."""
    error = abs(sum(traced["self_s"].values()) - traced["wall_s"])
    return error <= ACCOUNTING_TOLERANCE * traced["wall_s"]


# ----------------------------------------------------------------------
def _show(out: dict, label: str) -> None:
    if not out.get("ok"):
        print(f"{label} seed={out['seed']} FAILED: {out.get('error')}")
        return
    print(
        f"{label} seed={out['seed']} setup_s={out['setup_s']:.4f} run_s={out['run_s']:.4f} "
        f"sim_speed={out['horizon'] / out['run_s']:.2f} host_factor={host_factor(out):.3f} "
        f"events={out['events']} peak_rss_mb={out['peak_rss_mb']:.1f} "
        f"fingerprint={out['fingerprint'][:16]}"
    )


def _show_rows(results: list[dict]) -> None:
    """The exact simulated statistics of every distinct sub-seed."""
    seen = set()
    for out in results:
        if out.get("ok") and out["seed"] not in seen:
            seen.add(out["seed"])
            print(f"row seed={out['seed']} {json.dumps(out['row'], sort_keys=True)}")


def _show_spread(name: str, values: list[float]) -> None:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"children {name}: median {median:.6g} quartiles {q1:.6g}..{q3:.6g} n={len(values)}")


def timed_run(workload, seed: int, seconds: float, remaining) -> tuple[list[dict], dict]:
    """Untraced children on distinct sub-seeds, then a repeat of the
    first; returns the child results and the end-to-end metrics."""
    count = max(MIN_CHILDREN, round(seconds / workload.nominal_s))
    seeds = sub_seeds(seed, count - 1)
    seeds.append(seeds[0])
    results = [spawn(workload.name, s, False, remaining()) for s in seeds]
    judge(results)
    for i, out in enumerate(results):
        _show(out, f"child {i}")
    good = [out for out in results if out.get("ok")]
    if not good:
        return results, {}
    _show_spread("raw sim_speed", [out["horizon"] / out["run_s"] for out in good])
    _show_spread("raw setup_s", [out["setup_s"] for out in good])
    _show_spread("host_factor", [host_factor(out) for out in good])
    _show_spread("peak_rss_mb", [out["peak_rss_mb"] for out in good])
    return results, end_to_end(results)


def traced_run(workload, seed: int, seconds: float, remaining) -> tuple[list[dict], dict]:
    """Untraced/traced pairs, one sub-seed each; returns the child
    results and the per-layer metrics."""
    count = max(1, round(seconds / (workload.nominal_s * (1 + TRACED_COST))))
    pairs = [
        (spawn(workload.name, s, False, remaining()), spawn(workload.name, s, True, remaining()))
        for s in sub_seeds(seed, count)
    ]
    results = [out for pair in pairs for out in pair]
    judge(results)
    for i, (untraced, traced) in enumerate(pairs):
        if traced.get("ok") and not accounts_for_wall(traced):
            traced["ok"] = False
            traced["error"] = "layer self times do not add up to the traced wall"
        _show(untraced, f"pair {i} untraced")
        _show(traced, f"pair {i} traced  ")
        for row in traced.get("top_callbacks", []):
            print(f"pair {i} callback {row['callback']} calls={row['calls']} "
                  f"total_s={row['total_s']:.4f}")
    good = [(u, t) for u, t in pairs if u.get("ok") and t.get("ok")]
    return results, per_layer(good) if good else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining() -> float:
        return min(CHILD_TIMEOUT_S, RUN_DEADLINE_S - (time.monotonic() - started))

    run = traced_run if args.trace else timed_run
    results, metrics = run(workload, args.seed, args.seconds, remaining)
    _show_rows(results)
    attempted = len(results)
    failed = sum(1 for out in results if not out.get("ok"))
    print(f"failed_run_share={failed / attempted:.4f} ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
