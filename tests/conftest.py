"""Shared fixtures for the test suite.

Scales: unit tests use tiny hand-checkable layouts; integration tests use
a "mini" configuration (database of 500 pages, access range 100) that
preserves the paper's proportions — AccessRange = DB/5, RegionSize =
AccessRange/20, CacheSize = AccessRange/2 — while running in milliseconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make `python -m pytest` work from the repo root without an installed
# package or a PYTHONPATH=src prefix (src-layout bootstrap).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.cache.base import TracedCache
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.exec.plan import RunPlan
from repro.exec.run import _warmup_trace_allowance
from repro.experiments.config import ExperimentConfig
from repro.experiments.engines import REFERENCE_ENGINE
from repro.obs.monitor import MonitorContext
from repro.obs.trace import Tracer
from repro.workload.trace import generate_trace
from repro.workload.zipf import ZipfRegionDistribution


@pytest.fixture
def rng():
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_layout():
    """Three disks of 2/4/8 pages at speeds 4:2:1 (the Figure 3 shape)."""
    return DiskLayout((2, 4, 8), (4, 2, 1))


@pytest.fixture
def tiny_schedule(tiny_layout):
    """The multidisk program of the tiny layout."""
    return multidisk_program(tiny_layout)


@pytest.fixture
def mini_distribution():
    """Zipf over 100 pages in 10 regions, paper's theta."""
    return ZipfRegionDistribution(access_range=100, region_size=10, theta=0.95)


@pytest.fixture
def mini_config():
    """A 1/10th-scale analogue of the paper's D5 design point."""
    return ExperimentConfig(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        noise=0.30,
        offset=50,
        access_range=100,
        region_size=10,
        num_requests=600,
        seed=7,
    )


def _build_run_inputs(config):
    """``(layout, schedule, mapping, cache, trace)`` as ``execute_plan``
    builds them for ``config``."""
    layout = config.build_layout()
    schedule = config.build_schedule(layout)
    streams = config.build_streams()
    mapping = config.build_mapping(layout, streams)
    distribution = config.build_distribution()
    cache = config.build_policy(schedule, mapping, distribution, layout)
    trace = generate_trace(
        distribution,
        config.num_requests + _warmup_trace_allowance(config),
        streams.stream("requests"),
    )
    return layout, schedule, mapping, cache, trace


@pytest.fixture
def run_inputs():
    """Builds one config's run components, as ``execute_plan`` does."""
    return _build_run_inputs


def _run_reference(config, *, monitors=None):
    """``config`` through the fast engine's reference loop.

    Calls the unregistered ``REFERENCE_ENGINE`` spec directly, so no
    test adds it to the shared engine registry.  ``monitors`` (a
    ``MonitorSuite``) observes the run's trace stream.  Returns the
    ``EngineOutcome``.
    """
    layout, schedule, mapping, cache, trace = _build_run_inputs(config)
    tracer = None
    if monitors is not None:
        monitors.begin_run(MonitorContext(
            label=config.describe(),
            schedule=schedule,
            cache_capacity=config.cache_size if config.has_cache else None,
        ))
        tracer = Tracer(monitors)
        cache = TracedCache(cache, tracer)
    outcome = REFERENCE_ENGINE.run_plan(
        RunPlan(config=config, collect_responses=True),
        config=config,
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        trace=trace,
        tracer=tracer,
        retune_cost=config.retune_cost,
    )
    if monitors is not None:
        monitors.end_run()
    return outcome


@pytest.fixture
def run_reference():
    """Runs a config through the unregistered reference engine."""
    return _run_reference
