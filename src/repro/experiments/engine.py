"""The fast analytic-stepping simulation engine.

Because the §2.2 program gives every page a *fixed* inter-arrival time,
the wait a cache miss experiences is fully determined by the request
instant: ``next_completion(page, t) - t``.  The engine therefore
advances directly from request to request instead of ticking through
broadcast slots, which is what makes full paper-scale parameter sweeps
(48 design points x 15,000 measured requests each) practical in pure
Python.

The inner loop is written to be allocation-free (see
``docs/PERFORMANCE.md``):

* the trace is materialised once as a plain python list, so the loop
  never boxes ``np.int64`` scalars;
* every attribute lookup (cache protocol methods, stats accumulators,
  the schedule's tables) is hoisted to a local before the loop;
* the warm-up and measured phases run as two separate loops, so the
  per-request ``warming`` branching disappears entirely;
* everything a miss needs about a physical page — its §2.1
  fixed-gap pair (:meth:`repro.core.schedule.BroadcastSchedule.
  fixed_gap`), its channel and its disk — sits in one per-run dict
  entry, so a miss costs one dict probe and two integer ops, with a
  transparent fallback to ``next_arrival`` (bisection) for irregular
  pages;
* the loop is independent of the channel count: a single schedule is
  a one-row program whose pages all sit on channel 0, so its tuner
  never switches;
* tracing, profiling and the bisection reference arithmetic run in one
  separate *general loop* (:meth:`FastEngine._run_trace_general`), so
  the hot path carries no observer branches; the reference run
  (:meth:`FastEngine.run_trace_reference`) is that loop with
  :meth:`~repro.core.schedule.BroadcastSchedule.next_arrival_bisect`
  arithmetic, which the perf gate and the equivalence tests compare
  against.  The reference is not a registered engine: it is reachable
  as :data:`repro.experiments.engines.REFERENCE_ENGINE`, which the
  benchmark and smoke scripts register in their own process.

The engine is semantically identical to the process-oriented engine in
:mod:`repro.experiments.simengine` — the test suite feeds both the same
trace and asserts per-request equality — but is the default for all
figure reproductions.

Measurement protocol (§5): response times are recorded only once the
cache has filled ("the cache warm-up effects were eliminated by
beginning our measurements only after the cache was full"), after which
``num_requests`` requests are measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.base import CacheCounters, CachePolicy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.sim.stats import RunningStats
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class EngineOutcome:
    """Raw measurements from one engine run."""

    response: RunningStats
    counters: CacheCounters
    measured_requests: int
    warmup_requests: int
    final_time: float
    #: Per-request response times of the measured phase; populated only
    #: when the engine ran with ``collect_responses=True``.
    samples: Optional[list] = None
    #: Channel switches during the measured phase (always 0 on a
    #: single-channel schedule — there is nothing to switch to).
    retunes: int = 0

    @property
    def mean_response_time(self) -> float:
        """Mean response time over the measured phase, in broadcast units."""
        return self.response.mean


class FastEngine:
    """Request-to-request stepping over a periodic broadcast schedule.

    ``schedule`` is a single :class:`~repro.core.schedule.
    BroadcastSchedule` or a C-row :class:`~repro.core.schedule.
    BroadcastProgram`; both expose the same channel surface, and the
    client's single-frequency tuner (start on channel 0, pay
    ``retune_cost`` broadcast units per switch) runs for every C.
    """

    def __init__(
        self,
        schedule: BroadcastSchedule,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        cache: CachePolicy,
        think_time: float,
        tracer=None,
        profile=None,
        *,
        retune_cost: float = 1.0,
    ):
        if not (math.isfinite(think_time) and think_time >= 0):
            raise ConfigurationError(
                f"think_time must be finite and >= 0, got {think_time}"
            )
        if not (math.isfinite(retune_cost) and retune_cost >= 0):
            raise ConfigurationError(
                f"retune_cost must be finite and >= 0, got {retune_cost}"
            )
        self.schedule = schedule
        self.retune_cost = retune_cost
        self.mapping = mapping
        self.layout = layout
        self.cache = cache
        self.think_time = think_time
        self.now = 0.0
        #: Optional :class:`repro.obs.trace.Tracer` emitting the same
        #: ``client.*`` records as the process engine's client; ``None``
        #: (the default) adds nothing to the hot loop — the traced run
        #: takes the general loop instead.
        self.tracer = tracer
        #: Optional :class:`repro.obs.profile.Profiler`.  An enabled
        #: profiler routes :meth:`run_trace` through the general loop so
        #: every miss dispatches through ``schedule.next_arrival`` and is
        #: tier-attributed; the allocation-free hot path stays free of
        #: profiling branches entirely.
        self.profile = profile

    def run_trace(
        self,
        trace: RequestTrace,
        warmup_requests: Optional[int] = None,
        collect_responses: bool = False,
        extra_warmup: int = 0,
    ) -> EngineOutcome:
        """Run the full trace; measure once warm-up ends.

        The default warm-up rule is the paper's §5 protocol: wait until
        the cache is full, then (to measure *steady state*, not the
        cache-convergence transient) keep warming for ``extra_warmup``
        further requests.  ``warmup_requests`` overrides both with a
        fixed request count.  With ``collect_responses`` the per-request
        response times of the measured phase are retained on the outcome
        (``outcome.samples``) for engine cross-validation.
        """
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        profile = self.profile
        if tracer is not None or (profile is not None and profile.enabled):
            # Traced and profiled runs take the general loop: its misses
            # all dispatch through ``schedule.next_arrival`` and are
            # counted per timing tier, where the hot loop below inlines
            # the closed form and would under-attribute.  The
            # equivalence tests hold the two loops byte-identical, so
            # observing never changes measurements — only wall time.
            return self._run_trace_general(
                trace,
                warmup_requests=warmup_requests,
                collect_responses=collect_responses,
                extra_warmup=extra_warmup,
                tracer=tracer,
                next_arrival=self.schedule.next_arrival,
                name="fast",
            )

        cache = self.cache
        think = self.think_time
        retune_cost = self.retune_cost

        # Hoist every per-request attribute lookup out of the loops.
        cache_lookup = cache.lookup
        cache_admit = cache.admit
        to_physical = self.mapping.to_physical
        next_arrival = self.schedule.next_arrival
        page_info = self._page_info

        response = RunningStats()
        counters = CacheCounters()
        response_add = response.add
        record_hit = counters.record_hit
        record_miss = counters.record_miss
        samples: Optional[List[float]] = [] if collect_responses else None

        # One plain-python materialisation of the trace: list indexing
        # returns cached ints instead of boxing an np.int64 per request.
        pages = trace.pages.tolist()
        total = len(pages)
        now = self.now

        # Per-run cache of each physical page's (residue, gap, channel,
        # disk) — see :meth:`_page_info` — so a miss costs one dict
        # probe and two integer ops.
        info: Dict[int, Tuple[int, int, int, int]] = {}
        info_get = info.get
        current = 0  # tuned channel; every client starts on channel 0
        retunes = 0

        # ---- warm-up phase -------------------------------------------------
        # Measurement starts after ``warmup_requests`` requests when
        # given, else once the cache is full plus ``extra_warmup`` more.
        limit = total if warmup_requests is None else min(warmup_requests, total)
        extra_left = extra_warmup
        index = 0
        while index < limit:
            if warmup_requests is None and cache.is_full:
                if extra_left <= 0:
                    break
                extra_left -= 1
            page = pages[index]
            index += 1
            now += think
            if cache_lookup(page, now):
                continue
            physical = to_physical(page)
            entry = info_get(physical)
            if entry is None:
                entry = info[physical] = page_info(physical)
            residue, gap, channel, disk = entry
            listen = now
            if channel != current:
                current = channel
                listen = now + retune_cost
            if gap:
                base = int(listen) + 1
                now = float(base + (residue - base) % gap)
            else:
                now = next_arrival(physical, listen)
            cache_admit(page, now)
        warmup_seen = index

        # ---- measured phase ------------------------------------------------
        for index in range(warmup_seen, total):
            page = pages[index]
            now += think
            if cache_lookup(page, now):
                response_add(0.0)
                record_hit()
                if samples is not None:
                    samples.append(0.0)
                continue
            physical = to_physical(page)
            entry = info_get(physical)
            if entry is None:
                entry = info[physical] = page_info(physical)
            residue, gap, channel, disk = entry
            listen = now
            if channel != current:
                current = channel
                retunes += 1
                listen = now + retune_cost
            if gap:
                base = int(listen) + 1
                arrival = float(base + (residue - base) % gap)
            else:
                arrival = next_arrival(physical, listen)
            wait = arrival - now
            now = arrival
            cache_admit(page, now)
            response_add(wait)
            record_miss(disk)
            if samples is not None:
                samples.append(wait)

        self.now = now
        return EngineOutcome(
            response=response,
            counters=counters,
            measured_requests=response.count,
            warmup_requests=warmup_seen,
            final_time=now,
            samples=samples,
            retunes=retunes,
        )

    def _page_info(self, physical: int) -> Tuple[int, int, int, int]:
        """``(residue, gap, channel, disk)`` of one physical page.

        The §2.1 fixed-inter-arrival property in closed form: the next
        completion after ``t`` is ``base + (residue - base) % gap`` with
        ``base = floor(t) + 1``.  A gap of ``0`` marks an irregular page,
        which goes through ``schedule.next_arrival`` (bisection).  The
        channel drives the tuner and the disk the miss
        counters' attribution; neither changes over a run.
        """
        schedule = self.schedule
        entry = schedule.fixed_gap(physical)
        residue, gap = (0, 0) if entry is None else entry
        return (
            residue, gap, schedule.channel_of(physical),
            self.layout.disk_of_page(physical),
        )

    def run_trace_reference(
        self,
        trace: RequestTrace,
        warmup_requests: Optional[int] = None,
        collect_responses: bool = False,
        extra_warmup: int = 0,
    ) -> EngineOutcome:
        """The golden model: the general loop on bisection arithmetic.

        One request at a time through :meth:`_run_trace_general`, waits
        from :meth:`~repro.core.schedule.BroadcastSchedule.
        next_arrival_bisect`.  ``benchmarks/bench_engine.py`` and the
        equivalence tests run this against :meth:`run_trace` and demand
        byte-identical measurements; plan-level comparisons run it
        through the unregistered
        :data:`~repro.experiments.engines.REFERENCE_ENGINE` spec.
        """
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        return self._run_trace_general(
            trace,
            warmup_requests=warmup_requests,
            collect_responses=collect_responses,
            extra_warmup=extra_warmup,
            tracer=tracer,
            next_arrival=self.schedule.next_arrival_bisect,
            name="reference",
        )

    def _run_trace_general(
        self,
        trace: RequestTrace,
        *,
        warmup_requests: Optional[int],
        collect_responses: bool,
        extra_warmup: int,
        tracer,
        next_arrival: Callable[[int, float], float],
        name: str,
    ) -> EngineOutcome:
        """The general-purpose loop: one request at a time, with hooks.

        Same phase protocol and single-frequency tuner as the hot loop —
        the client listens to one channel at a time (channel 0
        initially), and a miss whose page lives on a different channel
        first retunes, moving the earliest usable completion from
        ``now`` to ``now + retune_cost`` — but the warm-up state is
        resolved per request, every miss dispatches through
        ``next_arrival`` (``schedule.next_arrival`` for traced and
        profiled runs, the bisection for the reference), and an enabled
        tracer receives the ``client.*`` records.  ``name`` keys the
        profile counters (``engine.<name>.*``).
        """
        schedule = self.schedule
        cache = self.cache
        think = self.think_time
        retune_cost = self.retune_cost

        cache_lookup = cache.lookup
        cache_admit = cache.admit
        to_physical = self.mapping.to_physical
        disk_of_physical = self.layout.disk_of_page
        channel_of = schedule.channel_of

        response = RunningStats()
        counters = CacheCounters()
        samples: Optional[List[float]] = [] if collect_responses else None

        warming = True
        warmup_seen = 0
        extra_left = extra_warmup
        now = self.now
        current = 0  # tuned channel; every client starts on channel 0
        retunes_measured = 0
        total_hits = 0
        total_misses = 0
        total_retunes = 0

        pages = trace.pages.tolist()
        for page in pages:
            now += think
            if warming:
                if warmup_requests is not None:
                    warming = warmup_seen < warmup_requests
                elif cache.is_full:
                    if extra_left <= 0:
                        warming = False
                    else:
                        extra_left -= 1
            measuring = not warming
            if warming:
                warmup_seen += 1
            if tracer is not None:
                tracer.emit(
                    "client.request", now, page=page,
                    phase="measured" if measuring else "warmup",
                )

            if cache_lookup(page, now):
                total_hits += 1
                if tracer is not None:
                    tracer.emit("client.hit", now, page=page)
                if measuring:
                    response.add(0.0)
                    counters.record_hit()
                    if samples is not None:
                        samples.append(0.0)
                continue

            total_misses += 1
            physical = to_physical(page)
            target = channel_of(physical)
            listen = now
            if tracer is not None:
                tracer.emit("client.miss", now, page=page,
                            physical=int(physical))
            if target != current:
                total_retunes += 1
                if measuring:
                    retunes_measured += 1
                if tracer is not None:
                    tracer.emit(
                        "client.retune", now, page=page,
                        physical=int(physical),
                        from_channel=current, to_channel=target,
                    )
                current = target
                listen = now + retune_cost
            arrival = next_arrival(physical, listen)
            wait = arrival - now
            if tracer is not None:
                tracer.emit("client.wait", arrival, page=page,
                            physical=int(physical), wait=wait)
            now = arrival
            cache_admit(page, now)
            if measuring:
                response.add(wait)
                counters.record_miss(disk_of_physical(physical))
                if samples is not None:
                    samples.append(wait)

        profile = self.profile
        if profile is not None and profile.enabled:
            profile.count(f"engine.{name}.loop_iterations", len(pages))
            profile.count(f"engine.{name}.hits", total_hits)
            profile.count(f"engine.{name}.misses", total_misses)
            if schedule.num_channels > 1:
                profile.count(f"engine.{name}.retunes", total_retunes)

        self.now = now
        return EngineOutcome(
            response=response,
            counters=counters,
            measured_requests=response.count,
            warmup_requests=warmup_seen,
            final_time=now,
            samples=samples,
            retunes=retunes_measured,
        )
