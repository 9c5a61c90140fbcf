"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--traced] [--horizon S]

Builds the world (timed as set-up), runs it (timed as the run), checks
its outputs and prints one JSON object as the last line of standard
output. With ``--traced`` the layer wrappers of :mod:`tracer` are
installed first and the per-layer self times are added to the object.
:mod:`run` starts one of these per run, so peak memory is per run.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def reference_s() -> float:
    """Host seconds of a fixed piece of work that mixes what the
    simulator does (scalar NumPy draws, heap pushes and pops, short
    vector kernels) but runs no simulator code, so no change to the
    simulator moves it. It measures how fast the host is right now."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    heap: list[tuple[float, int]] = []
    for i in range(30_000):
        heapq.heappush(heap, (float(rng.exponential(1.0)), i))
    while heap:
        heapq.heappop(heap)
    free = rng.random(3_000)
    for _ in range(600):
        cut = np.searchsorted(np.cumsum(np.floor_divide(free, 0.1)), 50.0)
        free[: cut + 1] *= 0.999
    return time.perf_counter() - start


def run_once(workload: workloads.Workload, seed: int, horizon: float, tracer=None) -> dict:
    """Set up, run and check one world; the measurements as a dict.

    The reference work is timed just before set-up and just after the
    run; ``ref_s`` is the mean of the two."""
    ref_before = reference_s()
    start = time.perf_counter()

    def setup():
        return workloads.build(workload.make_config(seed, horizon)).build()

    if tracer is None:
        world = setup()
        built = time.perf_counter()
        result = world.run()
        ran = time.perf_counter()
    else:
        restore = tracer.install()
        try:
            world = tracer.root("setup.other", setup)
            built = time.perf_counter()
            world.sim.profiler = tracer
            result = tracer.root("trace.unattributed", world.run)
            ran = time.perf_counter()
        finally:
            restore()
        world.sim.profiler = None
    ref_after = reference_s()
    workloads.check(world)
    row = workloads.result_row(result)
    out = {
        "seed": seed,
        "horizon": horizon,
        "setup_s": built - start,
        "run_s": ran - built,
        "ref_s": (ref_before + ref_after) / 2.0,
        "events": result.events_processed,
        "peak_queue_depth": world.sim.peak_queue_depth,
        "row": row,
        "fingerprint": workloads.fingerprint(row),
    }
    if tracer is not None:
        out["wall_s"] = tracer.wall
        out["self_s"] = tracer.self_s
        out["calls"] = tracer.calls
        out["counts"] = tracer.counts
        out["top_callbacks"] = tracer.top(5)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds (default: the workload's)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    horizon = args.horizon if args.horizon is not None else workload.horizon
    tracer = Tracer() if args.traced else None
    try:
        out = run_once(workload, args.seed, horizon, tracer)
    except Exception as exc:  # the run failed: report it, never a number
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return 1
    out["ok"] = True
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
