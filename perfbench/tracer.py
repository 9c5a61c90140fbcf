"""Per-layer host-time tracing, installed from outside the program.

:meth:`Tracer.install` replaces each layer's public entry point with a
timing wrapper, at the place the caller looks the name up (a class
attribute, or a module global for names imported with ``from ...
import``), and returns a function that puts every original back. It
must run before the world is built, because the world binds methods
(release callbacks, placement functions) while it is built.

Spans nest on one stack. A span's self time is its duration minus the
durations of the spans directly inside it, so the self times of all
spans add up to the duration of the root spans: the traced wall. Work
inside a dispatched callback that no wrapped layer covers is booked to
``trace.unattributed``. Dispatched callbacks are spans too: the
``EventQueue.pop`` wrapper opens one for the event it hands out, and
the simulator's ``profiler`` hook closes it when the callback returns.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

from repro.obs.profile import CallbackProfiler

UNATTRIBUTED = "trace.unattributed"

#: ``(class, method, layer, counts calls)`` for the class-method entry
#: points of each layer.
METHOD_LAYERS = (
    ("repro.sim.events:EventQueue", "push", "sim.queue", True),
    ("repro.sim.events:EventQueue", "peek_time", "sim.queue", True),
    ("repro.sim.engine:Simulator", "run", "sim.loop", False),
    ("repro.workload.generator:WorkloadGenerator", "make_job", "workload.make_job", True),
    ("repro.core.cellstate:CellState", "release", "core.cellstate.release", True),
    ("repro.core.cellstate:CellState", "claim_batch", "core.cellstate.claim_batch", True),
    ("repro.core.cellstate:CellState", "snapshot", "core.cellstate.snapshot", True),
    ("repro.core.cellstate:CellSnapshot", "resync", "core.cellstate.resync", True),
    ("repro.schedulers.base:QueueScheduler", "submit", "schedulers.submit", True),
    ("repro.core.scheduler:OmegaScheduler", "begin_attempt", "schedulers.attempt", False),
    ("repro.core.scheduler:OmegaScheduler", "attempt", "schedulers.attempt", True),
)


def resolve(path: str):
    """The module, or the attribute of it, that ``"module:attr"`` names."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer(CallbackProfiler):
    """Span stack plus per-layer self time, call counts and work counts.

    Also the simulator's callback profiler: :meth:`record` closes the
    dispatch span the pop wrapper opened, then keeps the per-callback
    table of :class:`CallbackProfiler`.
    """

    def __init__(self) -> None:
        super().__init__()
        #: One ``[child_seconds, start]`` frame per open span.
        self.stack: list[list[float]] = []
        #: layer -> ``[self_seconds, calls]``.
        self.layers: dict[str, list] = {}
        #: Work counts measured at the layer boundary (tasks placed,
        #: tasks claimed/accepted by commits).
        self.counts: dict[str, int] = {}
        #: Summed duration of the root spans: the traced wall.
        self.wall = 0.0

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: acc[0] for layer, acc in self.layers.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {layer: acc[1] for layer, acc in self.layers.items()}

    def _acc(self, layer: str) -> list:
        return self.layers.setdefault(layer, [0.0, 0])

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        count_calls: bool = True,
        on_result: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span of ``layer``; ``on_result(args, result)``
        runs inside the span to count work."""
        stack = self.stack
        acc = self._acc(layer)
        step = 1 if count_calls else 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                duration = clock() - frame[1]
                stack.pop()
                acc[0] += duration - frame[0]
                acc[1] += step
                if stack:
                    stack[-1][0] += duration

        return traced

    def _wrap_pop(self, pop: Callable) -> Callable:
        """``EventQueue.pop`` as a queue span that, when it hands out an
        event, opens the dispatch span :meth:`record` closes."""
        stack = self.stack
        acc = self._acc("sim.queue")
        clock = time.perf_counter

        @functools.wraps(pop)
        def traced_pop(queue):
            start = clock()
            event = pop(queue)
            end = clock()
            duration = end - start
            acc[0] += duration
            acc[1] += 1
            stack[-1][0] += duration
            if event is not None:
                stack.append([0.0, end])
            return event

        return traced_pop

    def record(self, fn: Callable, seconds: float) -> None:
        frame = self.stack.pop()
        duration = time.perf_counter() - frame[1]
        self._acc(UNATTRIBUTED)[0] += duration - frame[0]
        self.stack[-1][0] += duration
        super().record(fn, seconds)

    def root(self, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span, adding its duration to
        :attr:`wall`; returns its result."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        frame = [0.0, time.perf_counter()]
        self.stack.append(frame)
        try:
            return fn(*args)
        finally:
            duration = time.perf_counter() - frame[1]
            self.stack.pop()
            self._acc(layer)[0] += duration - frame[0]
            self.wall += duration

    # ------------------------------------------------------------------
    def install(self) -> Callable[[], None]:
        """Wrap every layer entry point; returns the undo function."""
        undo: list[tuple[Any, str, Any]] = []

        def patch(owner, attr: str, replacement) -> None:
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        for path, attr, layer, count_calls in METHOD_LAYERS:
            owner = resolve(path)
            patch(owner, attr, self.wrap(layer, vars(owner)[attr], count_calls))

        event_queue = resolve("repro.sim.events:EventQueue")
        patch(event_queue, "pop", self._wrap_pop(event_queue.pop))

        collector = resolve("repro.metrics.collector:MetricsCollector")
        for attr, fn in sorted(vars(collector).items()):
            if attr.startswith("record_"):
                patch(collector, attr, self.wrap("metrics.record", fn))

        # Names imported with ``from ... import`` are looked up in the
        # importing module, so they are wrapped there.
        common = resolve("repro.experiments.common")
        patch(common, "populate", self.wrap("core.fill.populate", common.populate))
        make_placement = common.placement_fn

        @functools.wraps(make_placement)
        def traced_placement_fn(strategy):
            return self.wrap(
                "core.placement", make_placement(strategy), on_result=self._count_placed
            )

        patch(common, "placement_fn", traced_placement_fn)
        scheduler = resolve("repro.core.scheduler")
        patch(
            scheduler,
            "commit",
            self.wrap("core.transaction", scheduler.commit, on_result=self._count_commit),
        )

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def _count_placed(self, args: tuple, claims) -> None:
        self._count("core.placement.tasks", sum(claim.count for claim in claims))

    def _count_commit(self, args: tuple, result) -> None:
        self._count("core.transaction.claimed_tasks", sum(c.count for c in args[1]))
        self._count("core.transaction.accepted_tasks", result.accepted_tasks)
