"""Per-layer counts and times, taken from outside the program.

A traced pass wraps public functions and methods of each layer at class
(or module) level before the pass and restores them afterwards.  No
``repro.obs`` tracer, profiler or monitor is attached, so the program
runs the same code path it runs untraced; only the wrapped calls pay
the wrapper's cost (reported as ``trace.overhead_s``).

Each wrapper records, per layer key: the number of calls, the busy time
(wall time inside the call) and the self time (busy time minus the busy
time of wrapped calls made inside it).  It also counts each call under
its nearest wrapped caller (``nested``), which gives boundary counts
such as "cache ``discard`` calls made by the update engine" without
touching the program.  A call into the same key as its direct caller
(``BroadcastProgram.next_arrival`` delegating to a row schedule, say)
is passed straight through, so a layer is never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.batch.engine import ColumnarEngine
from repro.cache.batched import (
    BatchedL,
    BatchedLIX,
    BatchedLRU,
    BatchedP,
    BatchedPIX,
    BatchedPolicy,
)
from repro.cache.lix import LIXPolicy, LPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.p import PPolicy
from repro.cache.pix import PIXPolicy
from repro.client.prefetch import PrefetchEngine
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.exec.build import BuildCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import FastEngine
from repro.population.aggregate import PopulationAggregate
from repro.sim.stats import RunningStats
from repro.updates.engine import VolatileEngine
from repro.updates.process import PeriodicUpdateModel
from repro.workload.distributions import AccessDistribution
from repro.workload.mapping import LogicalPhysicalMapping

import repro.batch.fleet as fleet_module
import repro.exec.run as run_module

#: Scalar policy classes by the paper's names.  Subclasses that inherit
#: a method (L from LIX, PIX from P) are told apart by ``type(self)``.
POLICY_NAMES = {
    LRUPolicy: "LRU", LPolicy: "L", LIXPolicy: "LIX", PPolicy: "P",
    PIXPolicy: "PIX",
}
BATCHED_NAMES = {
    BatchedLRU: "LRU", BatchedL: "L", BatchedLIX: "LIX", BatchedP: "P",
    BatchedPIX: "PIX",
}
#: Policies whose per-layer metrics the benchmark reports.
SCALAR_POLICIES = ("LRU", "L", "LIX", "PIX", "P")
BATCHED_POLICIES = ("LRU", "LIX")
#: The scalar engine loops, whose zero-valued response samples are hits.
ENGINE_KEYS = frozenset({
    "experiments.run_trace", "updates.run_trace", "client.prefetch.run_trace",
})


def _fixed(key: str) -> Callable[[tuple], str]:
    return lambda args: key


def _by_class(prefix: str, names: Dict[type, str], suffix: str):
    def key_of(args: tuple) -> str:
        cls = type(args[0])
        return f"{prefix}.{names.get(cls, cls.__name__)}.{suffix}"
    return key_of


class LayerTrace:
    """Counters filled by wrapped calls; spans added by ``run_pass``."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)
        self.extra: Dict[str, int] = defaultdict(int)
        self.spans: List[Dict] = []
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        self._last_folded = None

    # -- wrapping ---------------------------------------------------------
    def _wrapper(self, fn, key_of, observe):
        stack = self._stack
        calls, busy, self_time = self.calls, self.busy, self.self_time
        nested = self.nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args)
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                busy[key] += elapsed
                self_time[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                nested[(parent, key)] += 1
            if observe is not None:
                observe(key, args, result)
            return result

        return wrapper

    def wrap_method(self, classes, name: str, key_of, observe=None) -> None:
        """Wrap ``name`` in each of ``classes`` that defines it."""
        for cls in classes:
            original = cls.__dict__.get(name)
            if original is None:
                continue
            setattr(cls, name, self._wrapper(original, key_of, observe))
            self._undo.append(
                lambda cls=cls, original=original:
                setattr(cls, name, original)
            )

    def wrap_function(self, module, name: str, key: str) -> None:
        """Wrap a module-level function everywhere it was imported."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, _fixed(key), None)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                setattr(loaded, name, wrapper)
                self._undo.append(
                    lambda target=loaded: setattr(target, name, original)
                )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- observers ----------------------------------------------------------
    def _count_hit(self, key, args, result) -> None:
        if result:
            self.extra[key + ".hits"] += 1

    def _count_zero_add(self, key, args, result) -> None:
        # A zero response folded by an engine loop is a measured hit.
        if args[1] == 0.0 and self._stack \
                and self._stack[-1][0] in ENGINE_KEYS:
            self.extra["engine.zero_adds"] += 1

    def _count_columnar(self, key, args, result) -> None:
        self.extra["batch.columnar_clients"] += args[1].shape[1]

    def _count_prefetch(self, key, args, result) -> None:
        self.extra["client.prefetch.requests"] += len(args[1])

    def _count_fold(self, key, args, result) -> None:
        # Fleets fold each client into its segment and into the overall
        # rollup; count a client (or kernel block) once.
        folded = args[1]
        if folded is self._last_folded:
            return
        self._last_folded = folded
        if key == "population.fold_block":
            self.extra["population.kernel_clients"] += len(folded)
        self.extra["population.clients"] += (
            len(folded) if key == "population.fold_block" else 1
        )

    def install(self) -> None:
        """Wrap every measured layer boundary."""
        wrap = self.wrap_method
        wrap([AccessDistribution], "sample", _fixed("workload.sample"))
        wrap([LogicalPhysicalMapping], "to_physical",
             _fixed("workload.to_physical"))
        wrap([ExperimentConfig], "build_schedule", _fixed("core.build"))
        schedules = [BroadcastSchedule, BroadcastProgram]
        wrap(schedules, "next_arrival", _fixed("core.next_arrival"))
        wrap(schedules, "next_arrival_batch",
             _fixed("core.next_arrival_batch"))
        policies = list(POLICY_NAMES)
        wrap(policies, "lookup", _by_class("cache", POLICY_NAMES, "lookup"),
             self._count_hit)
        for method in ("admit", "discard", "pages"):
            wrap(policies, method, _by_class("cache", POLICY_NAMES, method))
        batched = [BatchedPolicy, *BATCHED_NAMES]
        for method in ("lookup", "admit"):
            wrap(batched, method,
                 _by_class("cache.batched", BATCHED_NAMES, method))
        wrap([FastEngine], "run_trace", _fixed("experiments.run_trace"))
        wrap([RunningStats], "add", _fixed("sim.stats_add"),
             self._count_zero_add)
        wrap([BuildCache], "layout_and_schedule",
             _fixed("exec.layout_and_schedule"))
        self.wrap_function(run_module, "execute_plan", "exec.execute_plan")
        wrap([VolatileEngine], "run_trace", _fixed("updates.run_trace"))
        wrap([PeriodicUpdateModel], "updated_in",
             _fixed("updates.updated_in"))
        wrap([PeriodicUpdateModel], "version_at",
             _fixed("updates.version_at"))
        wrap([PrefetchEngine], "run_trace",
             _fixed("client.prefetch.run_trace"), self._count_prefetch)
        self.wrap_function(fleet_module, "run_fleet", "batch.run_fleet")
        wrap([ColumnarEngine], "run", _fixed("batch.columnar_run"),
             self._count_columnar)
        wrap([PopulationAggregate], "add_result",
             _fixed("population.fold_result"), self._count_fold)
        wrap([PopulationAggregate], "add_mean_block",
             _fixed("population.fold_block"), self._count_fold)

    # -- spans --------------------------------------------------------------
    def span(self, name: str, start: float, end: float,
             parent: Optional[int]) -> int:
        self.spans.append({
            "id": len(self.spans), "name": name, "start": start,
            "end": end, "parent": parent,
        })
        return len(self.spans) - 1

    def boundary_counts(self) -> Dict[str, int]:
        """The counts the program's own counters are checked against."""

        def engine_cache_calls(method: str) -> int:
            # Scalar-cache calls made directly by the update engine.
            return sum(
                count for (caller, key), count in self.nested.items()
                if caller == "updates.run_trace"
                and key.startswith("cache.") and key.endswith(method)
            )

        return {
            "lookups": sum(
                count for key, count in self.calls.items()
                if key.startswith("cache.") and key.endswith(".lookup")
                and not key.startswith("cache.batched.")
            ),
            "hits": self.extra["engine.zero_adds"],
            "reports": engine_cache_calls(".pages"),
            "invalidations": engine_cache_calls(".discard"),
            "kernel_clients": self.extra["population.kernel_clients"],
            "columnar_clients": self.extra["batch.columnar_clients"],
            "scalar_clients": self.nested[
                ("batch.run_fleet", "exec.execute_plan")
            ],
        }


def layer_metrics(trace: LayerTrace) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, by name, with its unit."""
    calls, busy, self_time = trace.calls, trace.busy, trace.self_time
    metrics: Dict[str, Tuple[float, str]] = {}

    def count(name: str, value) -> None:
        metrics[name] = (int(value), "count")

    def seconds(name: str, value) -> None:
        metrics[name] = (float(value), "s")

    def ratio(name: str, top, bottom) -> None:
        metrics[name] = (float(top) / bottom if bottom else 0.0, "ratio")

    count("workload.sample_calls", calls["workload.sample"])
    seconds("workload.sample_s", busy["workload.sample"])
    count("workload.to_physical_calls", calls["workload.to_physical"])
    seconds("workload.to_physical_s", busy["workload.to_physical"])

    count("core.builds", calls["core.build"])
    seconds("core.build_s", busy["core.build"])
    count("core.next_arrival_calls", calls["core.next_arrival"])
    seconds("core.next_arrival_s", busy["core.next_arrival"])
    count("core.next_arrival_batch_calls", calls["core.next_arrival_batch"])
    seconds("core.next_arrival_batch_s", busy["core.next_arrival_batch"])

    for name in SCALAR_POLICIES:
        key = f"cache.{name}"
        count(f"{key}.lookup_calls", calls[f"{key}.lookup"])
        seconds(f"{key}.lookup_s", busy[f"{key}.lookup"])
        count(f"{key}.admit_calls", calls[f"{key}.admit"])
        seconds(f"{key}.admit_s", busy[f"{key}.admit"])
        count(f"{key}.discard_calls", calls[f"{key}.discard"])
        ratio(f"{key}.hit_ratio", trace.extra[f"{key}.lookup.hits"],
              calls[f"{key}.lookup"])
    for name in BATCHED_POLICIES:
        key = f"cache.batched.{name}"
        seconds(f"{key}.lookup_s", busy[f"{key}.lookup"])
        seconds(f"{key}.admit_s", busy[f"{key}.admit"])
        count(f"{key}.steps", calls[f"{key}.lookup"])

    count("experiments.runs", calls["experiments.run_trace"])
    seconds("experiments.run_trace_s", busy["experiments.run_trace"])
    seconds("experiments.self_s", self_time["experiments.run_trace"])

    count("sim.stats_add_calls", calls["sim.stats_add"])
    seconds("sim.stats_add_s", busy["sim.stats_add"])

    plans = calls["exec.execute_plan"]
    count("exec.plans", plans)
    seconds("exec.execute_plan_s", busy["exec.execute_plan"])
    seconds("exec.self_s", self_time["exec.execute_plan"])
    lookups = calls["exec.layout_and_schedule"]
    builds = trace.nested[("exec.layout_and_schedule", "core.build")]
    ratio("exec.build_reuse_ratio", lookups - builds, lookups)

    boundary = trace.boundary_counts()
    updated_in = calls["updates.updated_in"]
    invalidations = boundary["invalidations"]
    seconds("updates.run_trace_s", busy["updates.run_trace"])
    seconds("updates.self_s", self_time["updates.run_trace"])
    count("updates.updated_in_calls", updated_in)
    seconds("updates.updated_in_s", busy["updates.updated_in"])
    count("updates.version_at_calls", calls["updates.version_at"])
    seconds("updates.version_at_s", busy["updates.version_at"])
    count("updates.reports", boundary["reports"])
    count("updates.invalidations", invalidations)
    ratio("updates.invalidation_yield", invalidations, updated_in)

    seconds("client.prefetch.run_trace_s", busy["client.prefetch.run_trace"])
    count("client.prefetch.requests", trace.extra["client.prefetch.requests"])

    kernel = boundary["kernel_clients"]
    columnar = boundary["columnar_clients"]
    scalar = boundary["scalar_clients"]
    seconds("batch.run_fleet_s", busy["batch.run_fleet"])
    seconds("batch.columnar_run_s", busy["batch.columnar_run"])
    count("batch.columnar_groups", calls["batch.columnar_run"])
    seconds("batch.self_s", self_time["batch.run_fleet"])
    ratio("batch.kernel_share", kernel, kernel + columnar + scalar)

    seconds("population.fold_s", busy["population.fold_result"]
            + busy["population.fold_block"])
    count("population.clients", trace.extra["population.clients"])
    return metrics
