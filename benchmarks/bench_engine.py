"""Old-vs-new wall-clock benchmark for the fast engine's hot path.

Runs the full Figure-5 grid (five disk presets x Δ=0..7, 40 design
points) through two engines sharing one :class:`BuildCache`:

* ``fast-reference`` — the reference loop: the engine's general
  per-request loop, arrivals by bisection
  (:meth:`~repro.experiments.engine.FastEngine.run_trace_reference`);
* ``fast`` — the optimized loop of ``docs/PERFORMANCE.md``: two-phase
  allocation-free stepping over the schedule's precomputed timing
  structures.

**Equality is the gate, speedup is the report.**  The benchmark fails
unless every per-point ``mean_response_time`` and config hash is
identical between the two arms; the observed speedup is recorded to
``BENCH_engine.json`` and only enforced (>= ``MIN_SPEEDUP``) in the
standalone run, where the grid is big enough to measure honestly.

Runs standalone (writes ``BENCH_engine.json``) or under pytest (tiny
scale, no file output)::

    PYTHONPATH=src python benchmarks/bench_engine.py
    pytest benchmarks/bench_engine.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.exec import BuildCache, execute_plan, plan_sweep
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    ExperimentConfig,
)
from repro.experiments.engines import REFERENCE_ENGINE, register_engine
from repro.obs.clock import perf_counter
from repro.obs.manifest import config_hash

# The reference loop is not a registered engine; this script runs it
# by name, so it registers it in its own process.
register_engine(REFERENCE_ENGINE)

#: Acceptance target (ISSUE 5): the optimized loop must at least halve
#: the fig5-grid wall clock relative to the frozen reference loop.
#: CI sets ``REPRO_BENCH_MIN_SPEEDUP=0`` — shared runners are too noisy
#: for a fair ratio, so there the equality check alone is the gate and
#: the printed speedup is informational.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 2.0))

#: Measured requests per sweep point (reduced from the paper's 15_000
#: so both arms finish in seconds; per-request cost dominates either
#: way, so the speedup transfers to full scale).
REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", 2000))


def fig5_grid(num_requests: int = REQUESTS):
    """The Figure 5 grid: every preset x every Δ, uncached clients."""
    return [
        ExperimentConfig(
            disk_sizes=DISK_PRESETS[preset],
            delta=delta,
            cache_size=1,
            noise=0.0,
            offset=0,
            access_range=100,
            region_size=10,
            num_requests=num_requests,
            seed=42,
            label=f"{preset} Δ={delta}",
        )
        for preset in ("D1", "D2", "D3", "D4", "D5")
        for delta in DELTA_RANGE
    ]


def prebuild(configs):
    """One warm BuildCache covering the grid's broadcast structures.

    Both arms run against the same layouts and schedules, so the
    (identical, deterministic) construction cost is paid once outside
    the timed regions and the comparison isolates the engine loops.
    """
    builds = BuildCache()
    started = perf_counter()
    for config in configs:
        builds.layout_and_schedule(config)
    return builds, perf_counter() - started


def run_arm(configs, engine: str, builds):
    """Execute every config on ``engine`` against the shared builds."""
    plans = plan_sweep(configs, engine=engine)
    started = perf_counter()
    results = [execute_plan(plan, builds=builds) for plan in plans]
    seconds = perf_counter() - started
    return results, seconds


def check_identical(reference, optimized, configs):
    """Raise AssertionError on any per-point divergence between arms."""
    for config, ref, new in zip(configs, reference, optimized):
        assert config_hash(ref.config) == config_hash(new.config), (
            f"{config.label}: config hash diverged between arms"
        )
        assert ref.mean_response_time == new.mean_response_time, (
            f"{config.label}: mean_response_time diverged — "
            f"reference {ref.mean_response_time!r} "
            f"vs optimized {new.mean_response_time!r}"
        )
        assert ref.hit_rate == new.hit_rate, (
            f"{config.label}: hit rate diverged"
        )


def build_report(reference, reference_seconds, optimized, optimized_seconds,
                 configs, build_seconds):
    points = [
        {
            "label": config.label,
            "config_hash": config_hash(result.config),
            "mean_response_time": result.mean_response_time,
            "hit_rate": result.hit_rate,
        }
        for config, result in zip(configs, optimized)
    ]
    return {
        "schema": "repro.bench.engine/1",
        "benchmark": "fig5 grid, fast-reference vs fast (shared BuildCache)",
        "grid_points": len(configs),
        "num_requests": REQUESTS,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "shared_build_seconds": build_seconds,
        "arms": {
            "fast-reference": {"wall_seconds": reference_seconds},
            "fast": {"wall_seconds": optimized_seconds},
        },
        "speedup": reference_seconds / optimized_seconds,
        "min_speedup_target": MIN_SPEEDUP,
        "identical_per_point_results": True,
        "points": points,
    }


def test_engine_arms_identical_and_timed():
    """Pytest entry: tiny scale, equality gate only (no speedup gate)."""
    configs = fig5_grid(num_requests=150)[:8]
    builds, _ = prebuild(configs)
    reference, reference_seconds = run_arm(configs, "fast-reference", builds)
    optimized, optimized_seconds = run_arm(configs, "fast", builds)
    check_identical(reference, optimized, configs)
    assert reference_seconds > 0 and optimized_seconds > 0


def main() -> int:
    configs = fig5_grid()
    print(f"fig5 grid: {len(configs)} points x {REQUESTS} requests, "
          f"fast-reference vs fast")

    builds, build_seconds = prebuild(configs)
    reference, reference_seconds = run_arm(configs, "fast-reference", builds)
    optimized, optimized_seconds = run_arm(configs, "fast", builds)
    try:
        check_identical(reference, optimized, configs)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    speedup = reference_seconds / optimized_seconds
    print(f"  shared build   : {build_seconds:.3f}s (untimed, both arms)")
    print(f"  fast-reference : {reference_seconds:.3f}s")
    print(f"  fast           : {optimized_seconds:.3f}s")
    print(f"  speedup        : {speedup:.2f}x")
    print("  per-point results identical -- OK")

    report = build_report(
        reference, reference_seconds, optimized, optimized_seconds, configs,
        build_seconds,
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}")

    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x "
              "target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
