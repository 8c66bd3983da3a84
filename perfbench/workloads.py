"""The benchmark's workloads: inputs from a seed, timed units, checks.

Every workload is a closed loop in simulated time (a client issues its
next request only after the previous one completes) and one batch job
on the host.  A workload is a list of *units*, each one call into the
program that the benchmark times, and each unit yields *operations*:
one sweep point, one engine run or one fleet segment.  An operation
fails when the call raises or when one of its output checks fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

import repro.batch.fleet as fleet_module
from repro.client.prefetch import PrefetchEngine
from repro.exec.executor import SerialExecutor
from repro.exec.plan import RunPlan
from repro.exec.run import _warmup_trace_allowance
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.experiments.runner import sweep_results
from repro.population.aggregate import PopulationAggregate
from repro.population.spec import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    client_config,
)
from repro.updates.engine import VolatileEngine
from repro.updates.process import PeriodicUpdateModel
from repro.workload.trace import generate_trace

DEFAULT_SEED = 42
HELD_OUT_SEED = 7
SCALES = ("full", "tiny")


@dataclass
class Op:
    """One operation's output, what its digest covers, and its checks."""

    name: str
    payload: Dict
    requests: int
    clients: int
    problems: List[str] = field(default_factory=list)
    #: Boundary counts the traced pass must observe for this operation.
    expect: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        text = json.dumps(self.payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass
class Unit:
    """One timed call into the program and how to read its output."""

    name: str
    #: Runs the call; ``tick()`` is invoked as each operation completes.
    run: Callable[[Callable[[], None]], object]
    ops: Callable[[object], List[Op]]
    #: The operation names, known before the call (for failed calls).
    op_names: Sequence[str]


def _locations_sum_to_one(op: Op, locations: Dict[str, float]) -> None:
    total = sum(locations.values())
    op.require(abs(total - 1.0) <= 1e-9,
               f"access locations sum to {total!r}, not 1")


def _measured(op: Op, measured: int, wanted: int) -> None:
    op.require(measured == wanted,
               f"measured_requests {measured} != num_requests {wanted}")


def _adaptive_warmup(op: Op, measured: int, warmup: int, wanted: int,
                     drawn: int) -> None:
    """A run without an explicit warm-up length draws ``num_requests``
    plus the warm-up allowance and warms up until its cache is full (and
    then for the steady-state shake-out); the rest of the trace is
    measured.  So every drawn request is either warm-up or measured, and
    a warm-up that fits its allowance leaves at least ``num_requests``.
    """
    op.require(measured + warmup == drawn,
               f"measured {measured} + warm-up {warmup} != {drawn} requests "
               f"drawn")
    op.require(measured >= wanted,
               f"warm-up outran its allowance: measured_requests "
               f"{measured} < num_requests {wanted}")


# ---------------------------------------------------------------------------
# paper_sweep: the paper's own evaluation through sweep_results
# ---------------------------------------------------------------------------

class PaperSweep:
    """Figure 5, the Experiment 3-5 cached grid and C=2/4 points."""

    name = "paper_sweep"
    #: ``reference_loop`` steps and array rounds: the scalar engines
    #: run pure-Python loops.
    REFERENCE = (300_000, 0)

    def __init__(self, seed: int, scale: str):
        requests = 15_000 if scale == "full" else 150
        deltas = (1, 3, 5, 7)

        def point(label, **fields):
            return ExperimentConfig(num_requests=requests, seed=seed,
                                    label=label, **fields)

        self.parts = {
            "fig5": [
                point(f"fig5 {preset} d{delta}",
                      disk_sizes=DISK_PRESETS[preset], delta=delta)
                for preset in ("D1", "D2", "D3", "D4", "D5")
                for delta in range(8)
            ],
            "cached": [
                point(f"cached {policy} d{delta}",
                      disk_sizes=DISK_PRESETS["D5"], delta=delta,
                      cache_size=500, offset=500, noise=0.30, policy=policy)
                for policy in ("LRU", "L", "LIX", "PIX", "P")
                for delta in deltas
            ],
            "channels": [
                point(f"channels C{channels} d{delta}",
                      disk_sizes=DISK_PRESETS["D5"], delta=delta,
                      channels=channels)
                for channels in (2, 4)
                for delta in deltas
            ],
        }

    def units(self) -> List[Unit]:
        return [
            Unit(name, self._runner(configs), self._ops,
                 [config.label for config in configs])
            for name, configs in self.parts.items()
        ]

    @staticmethod
    def _runner(configs):
        def run(tick):
            return sweep_results(configs, jobs=1,
                                 progress=lambda *_: tick())
        return run

    @staticmethod
    def _ops(results) -> List[Op]:
        ops = []
        for result in results:
            measured = result.measured_requests
            requests = measured + result.warmup_requests
            hits = round(result.hit_rate * measured)
            op = Op(
                name=result.config.label,
                payload={
                    "mean": result.mean_response_time,
                    "hit_rate": result.hit_rate,
                    "locations": result.access_locations,
                    "measured": measured,
                    "warmup": result.warmup_requests,
                    "retunes": result.retunes,
                },
                requests=requests,
                clients=1,
                expect={"lookups": requests, "hits": hits},
            )
            config = result.config
            _adaptive_warmup(
                op, measured, result.warmup_requests, config.num_requests,
                config.num_requests + _warmup_trace_allowance(config),
            )
            _locations_sum_to_one(op, result.access_locations)
            ops.append(op)
        return ops

    def cross_check(self, ops: Dict[str, Op]) -> None:
        """No checks span several sweep points."""

    def extra_checks(self, outputs: Dict[str, object],
                     ops: Dict[str, Op]) -> None:
        """Every check of a sweep point reads the point's own output."""

    def reset(self) -> None:
        """Sweeps build afresh: each ``sweep_results`` call owns its
        executor and so its own build cache."""


# ---------------------------------------------------------------------------
# volatile_prefetch: the update engine and the PT prefetcher
# ---------------------------------------------------------------------------

class VolatilePrefetch:
    """VolatileEngine at a rare and a frequent update interval, with and
    without invalidation reports, plus the PT prefetcher at Δ=3."""

    name = "volatile_prefetch"
    #: ``reference_loop`` steps and array rounds: the scalar engines
    #: run pure-Python loops.
    REFERENCE = (300_000, 0)
    INTERVALS = (3_000_000, 300_000)
    REPORT_INTERVAL = 1_000.0

    def __init__(self, seed: int, scale: str):
        self.volatile_requests = 500 if scale == "full" else 60
        self.prefetch_requests = 3_000 if scale == "full" else 60
        self.volatile_config = ExperimentConfig(
            disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=500,
            policy="LIX", offset=500,
            num_requests=self.volatile_requests, seed=seed,
        )
        self.prefetch_config = ExperimentConfig(
            disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=500,
            noise=0.30, offset=500,
            num_requests=self.prefetch_requests, seed=seed,
        )

    @staticmethod
    def _label(interval: int, reports: bool) -> str:
        return f"volatile {interval} {'reports' if reports else 'no-reports'}"

    def units(self) -> List[Unit]:
        units = [
            Unit(self._label(interval, reports),
                 self._volatile_runner(interval, reports),
                 self._volatile_ops(interval, reports),
                 [self._label(interval, reports)])
            for interval in self.INTERVALS
            for reports in (False, True)
        ]
        units.append(Unit("prefetch PT d3", self._prefetch_run,
                          self._prefetch_ops, ["prefetch PT d3"]))
        return units

    def _volatile_runner(self, interval: int, reports: bool):
        config = self.volatile_config
        requests = self.volatile_requests

        def run(tick):
            layout = config.build_layout()
            schedule = config.build_schedule(layout)
            streams = config.build_streams()
            mapping = config.build_mapping(layout, streams)
            distribution = config.build_distribution()
            cache = config.build_policy(schedule, mapping, distribution,
                                        layout)
            updates = PeriodicUpdateModel.uniform(
                interval, layout.total_pages, rng=streams.stream("updates")
            )
            engine = VolatileEngine(
                schedule=schedule, mapping=mapping, layout=layout,
                cache=cache, updates=updates,
                think_time=config.think_time,
                report_interval=self.REPORT_INTERVAL if reports else None,
            )
            trace = generate_trace(distribution, 2 * requests,
                                   streams.stream("requests"))
            outcome = engine.run_trace(trace, warmup_requests=requests)
            tick()
            return outcome, layout.num_disks
        return run

    def _volatile_ops(self, interval: int, reports: bool):
        requests = self.volatile_requests

        def ops(output) -> List[Op]:
            outcome, num_disks = output
            counters = outcome.counters
            locations = counters.access_locations(num_disks)
            op = Op(
                name=self._label(interval, reports),
                payload={
                    "mean": outcome.mean_response_time,
                    "hits": counters.hits,
                    "locations": locations,
                    "measured": outcome.measured_requests,
                    "stale_reads": outcome.stale_reads,
                    "invalidations": outcome.invalidations_applied,
                    "reports": outcome.reports_heard,
                },
                requests=2 * requests,
                clients=1,
                expect={
                    "lookups": 2 * requests,
                    "hits": counters.hits,
                    "reports": outcome.reports_heard,
                    "invalidations": outcome.invalidations_applied,
                },
            )
            _measured(op, outcome.measured_requests, requests)
            _locations_sum_to_one(op, locations)
            op.require(outcome.stale_reads <= counters.hits,
                       f"stale reads {outcome.stale_reads} > measured hits "
                       f"{counters.hits}")
            return [op]
        return ops

    def _prefetch_run(self, tick):
        config = self.prefetch_config
        layout = config.build_layout()
        schedule = config.build_schedule(layout)
        streams = config.build_streams()
        mapping = config.build_mapping(layout, streams)
        distribution = config.build_distribution()
        probabilities = distribution.probabilities()

        def probability(page: int) -> float:
            if 0 <= page < len(probabilities):
                return float(probabilities[page])
            return 0.0

        engine = PrefetchEngine(
            schedule=schedule, mapping=mapping, layout=layout,
            probability=probability, cache_capacity=config.cache_size,
            think_time=config.think_time,
        )
        trace = generate_trace(distribution, 2 * config.num_requests,
                               streams.stream("requests"))
        outcome = engine.run_trace(trace, warmup_requests=config.num_requests)
        tick()
        return outcome, layout.num_disks

    def _prefetch_ops(self, output) -> List[Op]:
        outcome, num_disks = output
        counters = outcome.counters
        locations = counters.access_locations(num_disks)
        requests = self.prefetch_requests
        op = Op(
            name="prefetch PT d3",
            payload={
                "mean": outcome.mean_response_time,
                "hits": counters.hits,
                "locations": locations,
                "measured": outcome.measured_requests,
            },
            requests=2 * requests,
            clients=1,
            expect={"lookups": 0, "hits": counters.hits},
        )
        _measured(op, outcome.measured_requests, requests)
        _locations_sum_to_one(op, locations)
        return [op]

    def cross_check(self, ops: Dict[str, Op]) -> None:
        """Reports may only lower the stale fraction."""
        for interval in self.INTERVALS:
            without = ops[self._label(interval, False)]
            with_reports = ops[self._label(interval, True)]
            stale_with = (with_reports.payload["stale_reads"]
                          / with_reports.payload["measured"])
            stale_without = (without.payload["stale_reads"]
                             / without.payload["measured"])
            with_reports.require(
                stale_with <= stale_without,
                f"stale fraction with reports {stale_with!r} > without "
                f"{stale_without!r}",
            )

    def extra_checks(self, outputs: Dict[str, object],
                     ops: Dict[str, Op]) -> None:
        """All checks read the engines' own outcomes."""

    def reset(self) -> None:
        """Each engine run builds its own schedule, cache and updates."""


# ---------------------------------------------------------------------------
# fleet: run_fleet on a cached C=1 fleet and a C=4 fleet
# ---------------------------------------------------------------------------

@contextmanager
def recording_folds(events: list):
    """Record what ``run_fleet`` folds, in order: one entry per client
    result (columnar or scalar) and one means array per kernel block.

    Fleets fold every client into its segment rollup and the overall
    one; the repeat is dropped.  This is how the replay check reads
    per-client fleet results, which ``run_fleet`` returns only folded.
    """
    add_result = PopulationAggregate.add_result
    add_mean_block = PopulationAggregate.add_mean_block

    def record(folded):
        if not events or events[-1] is not folded:
            events.append(folded)

    def recording_add_result(self, result):
        record(result)
        return add_result(self, result)

    def recording_add_mean_block(self, means, *args, **kwargs):
        record(means)
        return add_mean_block(self, means, *args, **kwargs)

    PopulationAggregate.add_result = recording_add_result
    PopulationAggregate.add_mean_block = recording_add_mean_block
    try:
        yield events
    finally:
        PopulationAggregate.add_result = add_result
        PopulationAggregate.add_mean_block = add_mean_block


def _per_segment(spec: PopulationSpec, events: list) -> Dict[str, object]:
    """Segment name -> list of per-client results, or the kernel block."""
    folded: Dict[str, object] = {}
    position = 0
    for segment, indices in spec.segment_ranges():
        if isinstance(events[position], np.ndarray):
            folded[segment.name] = events[position]
            position += 1
        else:
            folded[segment.name] = events[position:position + len(indices)]
            position += len(indices)
    return folded


def _snapshot(aggregate: PopulationAggregate) -> Dict:
    snapshot = aggregate.snapshot()
    snapshot.pop("total_wall_seconds")
    return snapshot


class Fleet:
    """A C=1 fleet with cached, sub-segmented and kernel segments, and a
    C=4 fleet of cached plus cache-less clients."""

    name = "fleet"
    #: ``reference_loop`` steps and array rounds: the columnar engine
    #: steps in Python over whole arrays.
    REFERENCE = (150_000, 2)
    KERNEL_SEGMENT = ("c1", "cacheless")
    REPLAYS = 8

    def __init__(self, seed: int, scale: str):
        full = scale == "full"
        self.seed = seed
        self.drawn: Dict[tuple, int] = {}
        requests = 600 if full else 60

        def base(channels: int) -> ExperimentConfig:
            return ExperimentConfig(
                disk_sizes=(50, 200, 250), delta=3, access_range=100,
                region_size=10, num_requests=requests, channels=channels,
            )

        sizes = (200, 200, 150, 8_000, 150, 8_000) if full else (
            3, 3, 4, 40, 3, 40)
        self.specs = [
            PopulationSpec(
                name="c1", base=base(1), seed=seed, engine="fast",
                segments=(
                    SegmentSpec("lix50", sizes[0], cache_size=50,
                                policy="LIX"),
                    SegmentSpec("lru50", sizes[1], cache_size=50,
                                policy="LRU"),
                    SegmentSpec("mixed", sizes[2],
                                cache_size=Choice((25, 50)),
                                policy=Choice(("LRU", "LIX"))),
                    SegmentSpec("cacheless", sizes[3]),
                ),
            ),
            PopulationSpec(
                name="c4", base=base(4), seed=seed + 1, engine="fast",
                segments=(
                    SegmentSpec("lix50", sizes[4], cache_size=50,
                                policy="LIX"),
                    SegmentSpec("cacheless", sizes[5]),
                ),
            ),
        ]

    def units(self) -> List[Unit]:
        return [
            Unit(spec.name, self._runner(spec), self._ops(spec),
                 [f"{spec.name}/{segment.name}"
                  for segment in spec.segments])
            for spec in self.specs
        ]

    @staticmethod
    def _runner(spec: PopulationSpec):
        def run(tick):
            with recording_folds([]) as events:
                result = fleet_module.run_fleet(spec)
            tick()
            return result, _per_segment(spec, events)
        return run

    def _drawn(self, spec: PopulationSpec, segment: SegmentSpec,
               indices) -> int:
        """Requests drawn for a segment's clients, warm-up included;
        worked out once per run, after the first pass's fleet."""
        key = (spec.name, segment.name)
        if key not in self.drawn:
            self.drawn[key] = sum(
                config.num_requests + _warmup_trace_allowance(config)
                for config in (client_config(spec, segment, index)
                               for index in indices)
            )
        return self.drawn[key]

    def _ops(self, spec: PopulationSpec):
        def ops(output) -> List[Op]:
            result, _folded = output
            made = []
            for segment, indices in spec.segment_ranges():
                aggregate = result.segments[segment.name]
                snapshot = _snapshot(aggregate)
                requests = (aggregate.measured_requests
                            + aggregate.warmup_requests)
                op = Op(
                    name=f"{spec.name}/{segment.name}",
                    payload=snapshot,
                    requests=requests,
                    clients=aggregate.clients,
                    expect={"clients": segment.clients},
                )
                op.require(aggregate.clients == segment.clients,
                           f"{aggregate.clients} clients folded, "
                           f"{segment.clients} specified")
                _adaptive_warmup(op, aggregate.measured_requests,
                                 aggregate.warmup_requests,
                                 segment.clients * spec.base.num_requests,
                                 self._drawn(spec, segment, indices))
                made.append(op)
            return made
        return ops

    def cross_check(self, ops: Dict[str, Op]) -> None:
        """Segments are checked one at a time."""

    def extra_checks(self, outputs: Dict[str, object],
                     ops: Dict[str, Op]) -> None:
        """Replay sampled cached clients one by one and hold the kernel
        segment against the exact columnar engine."""
        self._check_replays(outputs, ops)
        self._check_kernel(outputs, ops)

    def _check_replays(self, outputs, ops) -> None:
        candidates = [
            (spec, segment, position, index)
            for spec in self.specs
            for segment, indices in spec.segment_ranges()
            if segment.cache_size is not None
            for position, index in enumerate(indices)
        ]
        picks = random.Random(self.seed).sample(
            candidates, min(self.REPLAYS, len(candidates))
        )
        plans = [
            RunPlan(config=client_config(spec, segment, index),
                    engine="fast", collect_responses=False, index=index)
            for spec, segment, _position, index in picks
        ]
        replayed = SerialExecutor().run(plans)
        for (spec, segment, position, index), single in zip(picks, replayed):
            op = ops[f"{spec.name}/{segment.name}"]
            _result, folded = outputs[spec.name]
            clients = folded[segment.name]
            if isinstance(clients, np.ndarray):
                op.require(False, "cached segment folded as a kernel block")
                continue
            fleet = clients[position]
            fields = ("mean_response_time", "measured_requests",
                      "warmup_requests", "hit_rate")
            mine = [repr(getattr(fleet, name)) for name in fields]
            theirs = [repr(getattr(single, name)) for name in fields]
            op.require(mine == theirs,
                       f"client {index} replayed alone gives {theirs}, "
                       f"the fleet gave {mine}")

    def _check_kernel(self, outputs, ops) -> None:
        spec_name, segment_name = self.KERNEL_SEGMENT
        spec = next(s for s in self.specs if s.name == spec_name)
        segment = next(s for s in spec.segments if s.name == segment_name)
        op = ops[f"{spec_name}/{segment_name}"]
        result, folded = outputs[spec_name]
        if not isinstance(folded[segment_name], np.ndarray):
            op.require(False, "cache-less segment did not run on the kernel")
            return
        exact = fleet_module.run_fleet(
            PopulationSpec(name=spec.name, base=spec.base, seed=spec.seed,
                           engine="fast", segments=(segment,)),
            kernel="never",
        ).segments[segment_name].response_means
        kernel = result.segments[segment_name].response_means
        band = 4.0 * math.hypot(kernel.stderr, exact.stderr)
        op.require(
            abs(kernel.mean - exact.mean) <= band,
            f"kernel mean {kernel.mean!r} is more than 4 sigma ({band!r}) "
            f"from the exact engine's {exact.mean!r}",
        )

    def reset(self) -> None:
        """Drop the fleet's process-wide memo caches so every pass pays
        its own layout, schedule, phase-table and sampler builds."""
        fleet_module._build_cache.clear()
        fleet_module._table_cache.clear()
        fleet_module._sampler_cache.clear()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, VolatilePrefetch, Fleet)
}


def make(name: str, seed: int, scale: str):
    """The workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, scale)


def combined(ops: Sequence[Op]) -> Dict[str, int]:
    """The boundary counts a unit's operations require, summed."""
    total: Dict[str, int] = {}
    for op in ops:
        for key, value in op.expect.items():
            total[key] = total.get(key, 0) + value
    return total


def digests(ops: Sequence[Op]) -> Dict[str, str]:
    return {op.name: op.digest for op in ops}
