"""Self-test of the benchmark on a short horizon.

    python3 perfbench/selftest.py

Checks, for every workload, that the layer wrappers are transparent
(the traced run's output fingerprint equals the untraced one's), that
self times are non-negative and add up to the traced wall, and that
the wrappers are removed afterwards; then that every metric name is
well formed and matches ``BENCHMARK.json``, and that a corrupted
fingerprint is counted as a failed run. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import sys

import run

#: Simulated seconds per self-test child: long enough for every layer to
#: be called, short enough for the whole test to take under half a minute.
HORIZON = 900.0
SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_workload(name: str, failures: list[str]) -> dict:
    """Untraced and traced child on one seed; returns the untraced one."""
    plain = run.spawn(name, SEED, False, run.CHILD_TIMEOUT_S, horizon=HORIZON)
    traced = run.spawn(name, SEED, True, run.CHILD_TIMEOUT_S, horizon=HORIZON)
    check(plain.get("ok") and traced.get("ok"),
          f"{name}: both runs pass their output checks "
          f"({plain.get('error')}, {traced.get('error')})", failures)
    if not (plain.get("ok") and traced.get("ok")):
        return plain
    check(plain["fingerprint"] == traced["fingerprint"],
          f"{name}: traced fingerprint == untraced fingerprint", failures)
    check(min(traced["self_s"].values()) >= 0.0,
          f"{name}: every layer self time is non-negative", failures)
    check(run.accounts_for_wall(traced),
          f"{name}: layer self times add up to the traced wall", failures)
    metrics = run.per_layer([(plain, traced)])
    check(set(metrics) == set(run.PER_LAYER_UNITS),
          f"{name}: the traced run yields every per-layer metric", failures)
    # The overhead is a difference of two noisy walls and may dip below 0.
    check(all(m["value"] >= 0 for n, m in metrics.items() if n != "trace.overhead"),
          f"{name}: no per-layer count or time is negative", failures)
    return plain


def check_wrappers_removed(failures: list[str]) -> None:
    from tracer import METHOD_LAYERS, Tracer, resolve

    owners = [resolve(path) for path, *_ in METHOD_LAYERS] + [
        resolve(path)
        for path in ("repro.sim.events:EventQueue", "repro.metrics.collector:MetricsCollector",
                     "repro.experiments.common", "repro.core.scheduler")
    ]
    before = [dict(vars(owner)) for owner in owners]
    Tracer().install()()
    after = [dict(vars(owner)) for owner in owners]
    check(before == after, "restore() puts every original entry point back", failures)


def check_names(workloads: list[str], failures: list[str]) -> None:
    names = list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS)
    check(all(NAME.fullmatch(n) for n in names), "every metric name is well formed", failures)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end matches the metrics --trace 0 prints", failures)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.PER_LAYER_UNITS,
          "BENCHMARK.json per_layer matches the metrics --trace 1 prints", failures)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads),
          "BENCHMARK.json lists every workload", failures)


def check_corruption(result: dict, failures: list[str]) -> None:
    """A repeat of ``result`` passes; one with a corrupted fingerprint fails."""
    check(run.judge([dict(result), dict(result)]) == 0,
          "an identical repeat counts as no failure", failures)
    corrupted = dict(result, fingerprint="0" + result["fingerprint"][1:])
    results = [dict(result), corrupted]
    check(run.judge(results) == 1 and not corrupted["ok"],
          "a corrupted fingerprint counts as a failed run", failures)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    failures: list[str] = []
    results = [check_workload(name, failures) for name in WORKLOADS]
    check_wrappers_removed(failures)
    check_names(list(WORKLOADS), failures)
    if results[0].get("ok"):
        check_corruption(results[0], failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
