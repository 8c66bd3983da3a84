"""Fleet execution: expand homogeneous segments straight into batch runs.

:func:`run_fleet` is the batch engine's counterpart of
:func:`repro.population.run.run_population`: same spec in, same
:class:`~repro.population.run.PopulationResult` out, but homogeneous
segments (every distributed field a :class:`Constant`) with a batchable
policy skip plan expansion entirely — the whole segment becomes one
columnar engine run over a ``(steps, clients)`` trace matrix.
Multi-channel programs batch natively (the engine carries the
vectorized tuner).  Heterogeneous segments whose distributed fields all
have *finite support* (:class:`Constant` / :class:`Choice` /
:class:`UniformInt`) are **sub-segmented**: each client's parameter
draws are replayed through
:func:`~repro.population.spec.client_overrides` (preserving the
``derive_seed`` per-client identity exactly), clients with equal draws
bucket into one homogeneous sub-batch, and each bucket runs columnar.
Only continuous draws (:class:`Uniform`) or unbatchable sampled
policies still fall back to the scalar per-client path through
:func:`~repro.exec.run.execute_plan`.

Two execution regimes, two correctness contracts:

* **Columnar (exact)** — each client's trace is drawn from its own
  :func:`~repro.batch.rng.client_generator` stream (identical to the
  per-client ``RandomStreams`` draws), and the engine arithmetic is
  byte-identical to ``fast``; the folded aggregates match
  ``run_population`` exactly, modulo wall-clock fields.
* **Kernel (statistical)** — cache-less (capacity-1, always-admit
  policy) groups on an integer think time collapse further: the page →
  wait relation is a pure function of the request instant's phase in
  the broadcast period and the tuned channel, so the whole group steps
  through precomputed ``(C, lcm-period, pages+1)`` wait/next-state
  tables (one channel and the plain period for a single schedule),
  with requests drawn in bulk from one group-level stream through a
  guide-table sampler.  The flat state index encodes ``(channel,
  phase)`` and integral retune costs fold into the wait entries, so
  cache-less multi-channel groups keep the kernel speed.
  Per-client traces differ from the per-client path (group vs per-client
  streams), so the contract is the BENCH_population one: equal within
  sampling error.  This is the ≥100x path; force ``kernel="never"`` to
  stay exact.

Profiled, traced, or monitored runs always take the exact columnar
path, where every miss dispatches through
:meth:`~repro.core.schedule.BroadcastSchedule.next_arrival_batch` and
tier attribution reconciles (``tier_total`` == batch-engine misses).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.engine import batchable_policy_name, build_columnar_engine
from repro.batch.rng import client_generators, group_generator
from repro.core.chunks import lcm_many
from repro.errors import ConfigurationError, ScheduleError
from repro.exec.build import BuildCache, structural_key
from repro.exec.plan import RunPlan
from repro.exec.run import _warmup_trace_allowance, execute_plan
from repro.obs.clock import perf_counter
from repro.obs.manifest import write_manifest
from repro.obs.monitor import MonitorContext
from repro.obs.trace import Tracer
from repro.population.aggregate import DEFAULT_GAMMA, PopulationAggregate
from repro.population.run import (
    PopulationResult,
    _record_population_metrics,
    build_population_manifest,
)
from repro.population.spec import (
    _INT_FIELDS,
    Choice,
    Constant,
    PopulationSpec,
    SegmentSpec,
    UniformInt,
    client_config,
    client_overrides,
)
from repro.workload.mapping import LogicalPhysicalMapping

__all__ = ["run_fleet"]

#: Kernel phase tables are ``(C, period, access_range + 1)`` int32 pairs;
#: groups whose tables would exceed this many entries take the general
#: columnar path instead (the paper-scale D5 period of 11,500 slots
#: with a 1,000-page range is ~11.5M entries — above this cap).
KERNEL_TABLE_ENTRIES = 4_000_000

#: Guide-table bins for the bulk categorical sampler (2**12): small
#: enough to live in L1 yet wide enough that for paper-scale page
#: counts nearly every bin spans a single page and the refine loop
#: runs at most once or twice.
_GUIDE_BINS = 4096
_GUIDE_SHIFT = 32 - 12

#: Always-admit capacity-1 policies: the resident page is exactly the
#: previously-requested page, so hits are ``pages[t] == pages[t-1]``.
#: P/PIX can decline an admit and are excluded.
_KERNEL_POLICIES = frozenset({"lru", "lix", "l"})


class _KernelBlock:
    """A kernel group's per-client summaries, kept columnar.

    Folded into the aggregates via
    :meth:`~repro.population.aggregate.PopulationAggregate.add_mean_block`
    — materialising a Python object per client would cost more than the
    kernel run.
    """

    __slots__ = ("means", "hit_rates", "measured_each", "warmup_each")

    def __init__(self, means, hit_rates, measured_each, warmup_each):
        self.means = means
        self.hit_rates = hit_rates
        self.measured_each = measured_each
        self.warmup_each = warmup_each


class _FleetClientStats:
    """The slice of an ExperimentResult the population fold consumes."""

    __slots__ = (
        "mean_response_time", "measured_requests", "warmup_requests",
        "hit_rate", "wall_seconds",
    )

    def __init__(self, mean_response_time, measured_requests,
                 warmup_requests, hit_rate):
        self.mean_response_time = mean_response_time
        self.measured_requests = measured_requests
        self.warmup_requests = warmup_requests
        self.hit_rate = hit_rate
        self.wall_seconds = 0.0


def _group_config(spec: PopulationSpec, segment: SegmentSpec):
    """The shared config of a homogeneous segment, or None.

    A segment is homogeneous when every distributed field is a
    :class:`Constant`; the values are coerced exactly as
    :func:`~repro.population.spec.client_config` coerces sampled ones.
    """
    overrides: Dict[str, object] = {}
    for field_name, distribution in segment.distributions().items():
        if not isinstance(distribution, Constant):
            return None
        value = distribution.value
        if field_name in _INT_FIELDS:
            value = int(value)
        elif field_name != "policy":
            value = float(value)
        overrides[field_name] = value
    return spec.base.with_(
        label=f"{spec.name}/{segment.name}", **overrides
    )


#: Distributions with finite support: a heterogeneous segment drawing
#: only from these has a bounded set of distinct client identities and
#: can be sub-segmented into homogeneous buckets.
_FINITE_DISTRIBUTIONS = (Constant, Choice, UniformInt)


def _sub_segments(
    spec: PopulationSpec, segment: SegmentSpec, indices: range
) -> Optional[List[Tuple[object, List[int]]]]:
    """Deterministic sub-segmentation of a finite-support segment.

    Replays every client's parameter draws through
    :func:`~repro.population.spec.client_overrides` — the exact
    ``derive_seed``-rooted streams the per-client path consumes, so
    each client keeps its fleet-size-independent identity — and buckets
    clients with equal draws into ``(shared config, client indices)``
    groups, ordered by first appearance.  Returns ``None`` when any
    distributed field has continuous support (:class:`Uniform` draws
    are almost surely all distinct, so bucketing buys nothing).

    Bucket configs share the segment-level label (per-client labels and
    seeds are reattached by the columnar path's own per-client streams)
    and bucket clients need not be contiguous — the columnar group
    runner indexes clients individually.
    """
    distributions = segment.distributions().values()
    if not all(isinstance(d, _FINITE_DISTRIBUTIONS) for d in distributions):
        return None
    members: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    sampled: Dict[Tuple, Dict[str, object]] = {}
    for client in indices:
        overrides = client_overrides(spec, segment, client)
        key = tuple(sorted(overrides.items()))
        bucket = members.get(key)
        if bucket is None:
            members[key] = [client]
            sampled[key] = overrides
        else:
            bucket.append(client)
    return [
        (
            spec.base.with_(
                label=f"{spec.name}/{segment.name}", **sampled[key]
            ),
            clients,
        )
        for key, clients in members.items()
    ]


# ---------------------------------------------------------------------------
# The phase-table kernel
# ---------------------------------------------------------------------------

def _kernel_eligible(config) -> bool:
    """Whether a homogeneous group can take the phase-table kernel.

    Requires: no cache to model (capacity 1 with an always-admit
    policy, so residency is just the last request), integral client
    clocks (integer think time), a static workload (no drift), and one
    shared mapping (no noise) — plus the default warm-up protocol, so
    warm-up is exactly the first request.
    """
    if config.cache_size != 1:
        return False
    if batchable_policy_name(config.policy) not in _KERNEL_POLICIES:
        return False
    if config.warmup_requests is not None or config.extra_warmup:
        return False
    if config.drift_rotations or config.noise > 0.0:
        return False
    if config.channels > 1 and not float(config.retune_cost).is_integer():
        # The tuned-channel tables fold the retune penalty into integer
        # wait entries; fractional costs take the general columnar path.
        return False
    return float(config.think_time).is_integer()


def _phase_tables(schedule, physical: np.ndarray, think: int,
                  retune: int):
    """Wait and next-state tables over (tuned channel, request phase,
    requested page).

    For a request issued at integral time ``t`` on tuned channel ``c``,
    with phase ``s = t mod P`` (``P`` the lcm of the row periods), the
    wait for logical page ``l`` is ``Wt[c, s, l]`` and the client's next
    state, pre-multiplied by the table width for direct flat indexing,
    is ``Pt[c, s, l]``; the flat state index is ``(c * P + s) * width``
    and the initial state ``0`` is channel 0 at phase 0 — exactly the
    scalar tuner's starting point.  Column ``access_range`` is the
    dummy *hit* column: zero wait, phase advanced by think only, tuned
    channel kept.  The think time is folded into the tables, so the
    step loop is pure table lookups.

    A miss for a page on another channel pays the (integral) ``retune``
    cost before listening: its wait entry is ``r + 1 + (residue - s - r
    - 1) mod gap`` and its next state lands on the page's channel.
    Waits are measured from the request instant, matching the scalar
    loop's ``arrival - now``.  A single schedule is the one-row case:
    ``P`` is its period and no page ever pays the retune.  Exact for any
    periodic schedule — irregular pages take the owning row's
    occurrence search.
    """
    rows = schedule.channels
    num_channels = len(rows)
    period = lcm_many([row.period for row in rows])
    pages = len(physical)
    width = pages + 1
    slots = np.arange(period, dtype=np.int64)
    shifted = (slots + think) % period
    waits = np.empty((num_channels, period, width), dtype=np.int32)
    phases = np.empty((num_channels, period, width), dtype=np.int32)

    residue_all, gap_all = schedule.regular_timing()
    size = len(gap_all)
    clipped = np.clip(physical, 0, size - 1)
    gaps = gap_all[clipped]
    regular = (physical == clipped) & (physical >= 0) & (gaps > 0)
    page_channel = np.where(regular, schedule.channel_array()[clipped], 0)
    residue = residue_all[clipped]
    safe_gaps = np.where(regular, gaps, 1)

    # Irregular pages: the owning row's exact occurrence search, built
    # once per page as a wait-by-listen-phase lookup over the row
    # period.  A page absent from the schedule raises ScheduleError in
    # ``schedule_of``, which the kernel caller treats as "take the
    # general path".
    irregular = {}
    for logical in np.flatnonzero(~regular):
        page = int(physical[logical])
        row = schedule.schedule_of(page)
        page_channel[logical] = schedule.channel_of(page)
        occurrences = row.occurrences(page)
        bounds = np.concatenate([occurrences, occurrences[:1] + row.period])
        srange = np.arange(row.period, dtype=np.int64)
        irregular[int(logical)] = (
            1 + bounds[np.searchsorted(occurrences, srange, side="left")]
            - srange,
            row.period,
        )

    for channel in range(num_channels):
        cost = np.where(page_channel == channel, 0, retune)
        listen = shifted[:, None] + cost[None, :]
        wait = cost[None, :] + 1 + np.mod(
            residue[None, :] - listen - 1, safe_gaps[None, :]
        )
        for logical, (by_phase, row_period) in irregular.items():
            wait[:, logical] = cost[logical] + by_phase[
                (shifted + cost[logical]) % row_period
            ]
        waits[channel, :, :pages] = wait
        phases[channel, :, :pages] = (
            page_channel[None, :] * period + (shifted[:, None] + wait) % period
        ) * width
        waits[channel, :, pages] = 0
        phases[channel, :, pages] = (channel * period + shifted) * width
    return waits.ravel(), phases.ravel(), width


def _bulk_sampler(probabilities: np.ndarray):
    """A uint32 guide-table sampler exact to one part in 2**32.

    Thresholds are ``ceil(cdf * 2**32)``; a draw ``u`` maps to the
    first page whose threshold exceeds it.  The top threshold is
    exactly 2**32 — one past the uint32 range — so the comparison is
    phrased against ``threshold - 1`` (``u > thr-1`` ⟺ ``u >= thr``),
    which stays in uint32.  A 8192-bin guide table bounds the refine
    loop by the widest page span any bin crosses.
    """
    cdf = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    cdf[-1] = 1.0
    thresholds = np.ceil(cdf * float(2 ** 32)).astype(np.uint64)
    thresholds[-1] = 2 ** 32
    upper_inclusive = (thresholds - 1).astype(np.uint32)
    bin_starts = np.arange(_GUIDE_BINS, dtype=np.uint64) << _GUIDE_SHIFT
    # int16 pages: the kernel's table budget caps the page count far
    # below 2**15 (tables are at least pages**2 entries), and halving
    # the page matrix keeps the bulk passes in memory bandwidth.
    guide = np.searchsorted(thresholds, bin_starts, side="right").astype(
        np.int16
    )
    # Widest page range reachable from any bin's starting guess.
    ceilings = np.empty(_GUIDE_BINS, dtype=np.int16)
    ceilings[:-1] = guide[1:]
    ceilings[-1] = len(thresholds) - 1
    refine_steps = int((ceilings - guide).max())

    def sample(u32: np.ndarray) -> np.ndarray:
        candidate = guide.take(u32 >> np.uint32(_GUIDE_SHIFT))
        for _ in range(refine_steps):
            np.add(
                candidate,
                u32 > upper_inclusive.take(candidate),
                out=candidate,
                casting="unsafe",
            )
        return candidate

    return sample


#: Phase tables and samplers are pure functions of a handful of config
#: fields, so repeated runs over the same design point (benchmark arms,
#: validation sweeps) reuse them instead of rebuilding.  Entries are a
#: couple of MB each; a small LRU bounds the footprint.
_KERNEL_CACHE_ENTRIES = 8
_table_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_sampler_cache: "OrderedDict[Tuple, object]" = OrderedDict()

#: Layouts and schedules are immutable after construction, so fleet
#: runs share them process-wide rather than rebuilding per call — a
#: multi-channel program's conflict-aware channel assignment costs more
#: than the kernel run it feeds.  Same bounded-LRU discipline as the
#: table caches above.
_build_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()


def _layout_and_schedule(config):
    """Process-wide memoised ``(layout, schedule)`` for ``config``."""

    def build():
        layout = config.build_layout()
        return layout, config.build_schedule(layout)

    return _cached(_build_cache, structural_key(config), build)


def _cached(cache: OrderedDict, key: Tuple, build):
    entry = cache.get(key)
    if entry is None:
        entry = build()
        cache[key] = entry
        if len(cache) > _KERNEL_CACHE_ENTRIES:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return entry


def _run_group_kernel(
    spec, indices, config, schedule, layout,
) -> Optional[_KernelBlock]:
    """Run one cache-less homogeneous group through the phase tables.

    Returns ``None`` when the schedule disqualifies itself (a requested
    page absent from the broadcast, or tables over budget) — the caller
    then takes the general columnar path.
    """
    access_range = config.access_range
    states = schedule.num_channels * lcm_many(
        [row.period for row in schedule.channels]
    )
    retune = int(config.retune_cost)
    if states * (access_range + 1) > KERNEL_TABLE_ENTRIES:
        return None
    think = int(config.think_time)
    table_key = (structural_key(config), config.offset, access_range, think)

    def build_tables():
        physical = (
            config.build_mapping(layout).physical_array()[:access_range]
        )
        return _phase_tables(schedule, physical, think, retune)

    try:
        waits, phases, width = _cached(_table_cache, table_key, build_tables)
    except ScheduleError:
        return None

    clients = len(indices)
    steps = config.num_requests + _warmup_trace_allowance(config)
    generator = group_generator(spec.seed, indices.start, "requests")
    sample = _cached(
        _sampler_cache,
        (access_range, config.region_size, config.theta),
        lambda: _bulk_sampler(config.build_distribution().probabilities()),
    )
    # PCG64 emits 64 bits natively; one u64 draw split into two u32
    # halves costs half of what two u32 draws do.
    total_draws = steps * clients
    raw = generator.integers(0, 2 ** 64, size=(total_draws + 1) // 2,
                             dtype=np.uint64)
    draws = raw.view(np.uint32)[:total_draws].reshape(steps, clients)
    pages = sample(draws)

    # Capacity-1 always-admit residency: a request hits iff it repeats
    # the previous request.  Step 0 is the warm-up request (the cache
    # is empty, so it always misses and is never measured).
    hits = pages[1:] == pages[:-1]
    lookups = np.where(hits, np.int16(access_range), pages[1:])

    measured = steps - 1
    phase = np.zeros(clients, dtype=np.int32)
    index = np.empty(clients, dtype=np.int32)
    # Per-step waits land in rows of one matrix and fold in a single
    # bulk sum afterwards — three array ops per step, not four.
    wait_rows = np.empty((measured, clients), dtype=np.int32)

    np.add(phase, pages[0], out=index, casting="unsafe")
    phases.take(index, out=phase, mode="clip")
    for step, row in enumerate(lookups):
        np.add(phase, row, out=index, casting="unsafe")
        waits.take(index, out=wait_rows[step], mode="clip")
        phases.take(index, out=phase, mode="clip")
    wait_total = wait_rows.sum(axis=0, dtype=np.int64)

    means = wait_total / measured
    hit_rates = hits.sum(axis=0, dtype=np.int64) / measured
    return _KernelBlock(means, hit_rates, measured_each=measured,
                        warmup_each=1)


# ---------------------------------------------------------------------------
# The exact columnar group path
# ---------------------------------------------------------------------------

def _group_traces(spec, indices, config, total: int) -> np.ndarray:
    """Per-client trace columns, drawn from the per-client streams.

    Column ``c`` is byte-identical to the trace ``execute_plan`` would
    draw for client ``indices[c]``'s config — that is what makes the
    columnar path's results match ``run_population`` exactly.
    """
    pages = np.empty((total, len(indices)), dtype=np.int64)
    distribution = config.build_distribution()
    drift = config.build_drift(total) if config.drift_rotations else None
    generators = client_generators(spec.seed, indices, "requests")
    for column, generator in enumerate(generators):
        if drift is not None:
            pages[:, column] = drift.generate_trace(total, generator).pages
        else:
            pages[:, column] = distribution.sample(generator, total)
    return pages


def _group_physical(spec, indices, config, layout) -> np.ndarray:
    """Logical→physical rows: shared when noise-free, per-client else."""
    if config.noise <= 0.0:
        return config.build_mapping(layout).physical_array()[None, :]
    scope = None if config.noise_over_full_database else config.access_range
    physical = np.empty((len(indices), layout.total_pages), dtype=np.int64)
    generators = client_generators(spec.seed, indices, "noise")
    for column, generator in enumerate(generators):
        mapping = LogicalPhysicalMapping(
            layout=layout,
            offset=config.offset,
            noise=config.noise,
            rng=generator,
            noise_scope=scope,
        )
        physical[column] = mapping.physical_array()
    return physical


def _run_group_columnar(
    spec, segment, indices, config, schedule, layout, *,
    tracer=None, profile=None, monitors=None,
) -> List[_FleetClientStats]:
    """Run one homogeneous group through the exact columnar engine."""
    clients = len(indices)
    monitoring = monitors is not None and monitors.enabled
    effective_tracer = tracer
    attached_to_caller = False
    if monitoring:
        monitors.begin_run(MonitorContext(
            label=config.describe(),
            schedule=schedule,
            cache_capacity=config.cache_size if config.has_cache else None,
        ))
        if tracer is not None and tracer.enabled:
            tracer.add_sink(monitors)
            attached_to_caller = True
        else:
            effective_tracer = Tracer(monitors)

    labels: Optional[Sequence[str]] = None
    if (effective_tracer is not None and effective_tracer.enabled
            and clients > 1):
        labels = [
            f"{spec.name}/{segment.name}/client{client}"
            for client in indices
        ]

    engine = build_columnar_engine(
        config, schedule, layout,
        _group_physical(spec, indices, config, layout), clients,
    )
    if engine is None:  # pragma: no cover - callers pre-check the policy
        raise ConfigurationError(
            f"policy {config.policy!r} has no columnar formulation"
        )
    total = config.num_requests + _warmup_trace_allowance(config)
    pages = _group_traces(spec, indices, config, total)

    profiling = profile is not None and profile.enabled
    if profiling:
        schedule.enable_timing_counters()
        queries_before = schedule.timing_queries()
        profile.stop_phase("build")
        profile.start_phase("run")
    try:
        outcome = engine.run(
            pages,
            warmup_requests=config.warmup_requests,
            extra_warmup=config.extra_warmup,
            tracer=effective_tracer,
            profile=profile,
            client_labels=labels,
        )
    finally:
        if profiling:
            profile.stop_phase("run")
            profile.start_phase("build")
        if attached_to_caller:
            tracer.remove_sink(monitors)
    if profiling:
        queries_after = schedule.timing_queries()
        profile.add_tier_counts({
            tier: queries_after[tier] - queries_before[tier]
            for tier in queries_after
        })
        profile.count("requests.measured", int(outcome.count.sum()))
        profile.count("requests.warmup", int(outcome.warmup_seen.sum()))
    if monitoring:
        monitors.end_run()  # raises MonitorError in strict mode

    if not outcome.count.all():
        raise ConfigurationError(
            f"warm-up consumed the whole trace for {config.describe()}; "
            "increase num_requests or lower cache_size"
        )
    return [
        _FleetClientStats(
            mean_response_time=float(outcome.mean[column]),
            measured_requests=int(outcome.count[column]),
            warmup_requests=int(outcome.warmup_seen[column]),
            hit_rate=outcome.hit_rate(column),
        )
        for column in range(clients)
    ]


# ---------------------------------------------------------------------------
# The fleet entry point
# ---------------------------------------------------------------------------

def run_fleet(
    spec: PopulationSpec,
    *,
    gamma: float = DEFAULT_GAMMA,
    tracer=None,
    metrics=None,
    manifest: Optional[str] = None,
    profile=None,
    monitors=None,
    kernel: str = "auto",
) -> PopulationResult:
    """Simulate ``spec`` through the batch engine and return its rollup.

    Homogeneous segments with a batchable policy run as columnar
    groups (multi-channel programs included — the engine carries the
    vectorized tuner); heterogeneous segments with finite-support
    draws are sub-segmented into homogeneous buckets that run columnar
    too; everything else falls back to per-client ``fast`` plans (the
    results are identical either way, so mixed fleets stay
    consistent).  ``kernel`` selects the cache-less fast path:
    ``"auto"`` (default) uses it where eligible and no observability
    hook is enabled, ``"never"`` forces the exact columnar path
    everywhere — useful when a fleet must fold byte-identically to
    :func:`~repro.population.run.run_population`.
    """
    if kernel not in ("auto", "never"):
        raise ConfigurationError(
            f"kernel must be 'auto' or 'never', got {kernel!r}"
        )
    started = perf_counter()
    profiling = profile is not None and profile.enabled
    monitoring = monitors is not None and monitors.enabled
    tracing = tracer is not None and tracer.enabled
    builds = BuildCache()  # per-client plan fallbacks within this run
    client_stats: List[object] = [None] * spec.num_clients
    kernel_blocks: Dict[int, _KernelBlock] = {}

    def run_group(segment, clients, config, *, allow_kernel):
        """One homogeneous group (or bucket): kernel when allowed, else
        the exact columnar engine; results land in ``client_stats``."""
        if profiling:
            profile.start_phase("build")
        layout, schedule = _layout_and_schedule(config)
        block = None
        if (allow_kernel and kernel == "auto" and not profiling
                and not monitoring and not tracing
                and _kernel_eligible(config)):
            block = _run_group_kernel(
                spec, clients, config, schedule, layout
            )
        if block is None:
            stats = _run_group_columnar(
                spec, segment, clients, config, schedule, layout,
                tracer=tracer, profile=profile, monitors=monitors,
            )
            for client, per_client in zip(clients, stats):
                client_stats[client] = per_client
        if profiling:
            profile.stop_phase("build")
        return block

    def run_scalar(segment, clients):
        """The scalar per-client path.  ``fast`` rather than
        ``spec.engine`` — a single-client batch run is byte-identical
        to fast, only slower."""
        for client in clients:
            plan = RunPlan(
                config=client_config(spec, segment, client),
                engine="fast",
                collect_responses=False,
                index=client,
            )
            client_stats[client] = execute_plan(
                plan, tracer=tracer, builds=builds,
                profile=profile, monitors=monitors,
            )

    for position, (segment, indices) in enumerate(spec.segment_ranges()):
        config = _group_config(spec, segment)
        if config is not None and batchable_policy_name(config.policy):
            block = run_group(segment, indices, config, allow_kernel=True)
            if block is not None:
                kernel_blocks[position] = block
            continue
        buckets = None if config is not None else _sub_segments(
            spec, segment, indices
        )
        if buckets is not None:
            # Sub-segmented heterogeneous fleet: every bucket is
            # homogeneous by construction and always takes the *exact*
            # columnar path (never the kernel), so results stay
            # byte-identical to the per-client plan path.
            for bucket_config, bucket_clients in buckets:
                if batchable_policy_name(bucket_config.policy):
                    run_group(
                        segment, bucket_clients, bucket_config,
                        allow_kernel=False,
                    )
                else:
                    run_scalar(segment, bucket_clients)
            continue
        # Continuous draws or an unbatchable shared policy: the scalar
        # per-client path.
        run_scalar(segment, indices)

    if profiling:
        profile.start_phase("aggregate")
    # Same plan-order fold as ``fold_results``; kernel groups fold as
    # whole blocks, everything else client by client.
    overall = PopulationAggregate(gamma)
    per_segment: Dict[str, PopulationAggregate] = {}
    for position, (segment, indices) in enumerate(spec.segment_ranges()):
        aggregate = PopulationAggregate(gamma)
        block = kernel_blocks.get(position)
        if block is not None:
            for target in (aggregate, overall):
                target.add_mean_block(
                    block.means, block.hit_rates,
                    block.measured_each, block.warmup_each,
                )
        else:
            for client in indices:
                aggregate.add_result(client_stats[client])
                overall.add_result(client_stats[client])
        per_segment[segment.name] = aggregate
    population = PopulationResult(
        spec=spec,
        overall=overall,
        segments=per_segment,
        wall_seconds=perf_counter() - started,
    )
    if metrics is not None:
        _record_population_metrics(metrics, population)
    if manifest is not None:
        population.manifest = build_population_manifest(
            population, metrics=metrics, tracer=tracer,
            profile=profile, monitors=monitors,
        )
        write_manifest(population.manifest, manifest)
    if profiling:
        profile.stop_phase("aggregate")
    return population
