"""The engine registry: one authoritative table of simulation engines.

Engine choice used to be a pair of magic strings (``"fast"`` /
``"process"``) compared in ``if`` chains scattered over the plan layer,
the runner, and the CLI.  This module replaces the strings with
registered :class:`EngineSpec` entries, so

* validation happens in one place and every rejection lists the valid
  names (``ConfigurationError``);
* the plan layer dispatches through the spec's ``run_plan`` callable
  instead of string-matching.

The three built-in plan engines (``batch``, ``fast``, ``process``)
register at import time; extensions call :func:`register_engine` with
their own spec.  :data:`REFERENCE_ENGINE` — the fast engine's reference
loop on bisection arithmetic, the oracle of the byte-identity perf
gate — is deliberately *not* registered: the benchmark and smoke
scripts that run it as a plan engine register it in their own process,
and tests call its ``run_plan`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EngineSpec:
    """One registered simulation engine.

    ``run_plan`` is the executor-side entry point: it receives the plan
    plus the pre-built components and returns an
    :class:`~repro.experiments.engine.EngineOutcome`.
    """

    name: str
    summary: str
    run_plan: Callable = field(compare=False)


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add ``spec`` to the registry; re-registering a name is an error."""
    if spec.name in _REGISTRY and _REGISTRY[spec.name] != spec:
        raise ConfigurationError(
            f"engine {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def engine_names() -> Tuple[str, ...]:
    """Every registered engine name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> EngineSpec:
    """The spec registered under ``name``; unknown names list the valid set."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; valid engines: "
            f"{', '.join(engine_names())}"
        )
    return spec


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------

def _run_plan_fast(plan, *, config, schedule, mapping, layout, cache, trace,
                   tracer=None, profile=None, retune_cost=1.0):
    """Drive the analytic-stepping engine for one plan.

    ``schedule`` is already the built single-channel schedule or C-row
    program; ``retune_cost`` arrives keyword-only from the plan
    executor and parameterises the engine's tuner.
    """
    from repro.experiments.engine import FastEngine

    fast = FastEngine(
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        think_time=config.think_time,
        tracer=tracer,
        profile=profile,
        retune_cost=retune_cost,
    )
    return fast.run_trace(
        trace,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
    )


def _run_plan_fast_reference(plan, *, config, schedule, mapping, layout,
                             cache, trace, tracer=None, profile=None,
                             retune_cost=1.0):
    """Drive the fast engine's reference loop for one plan.

    Same engine object as ``fast`` but through
    :meth:`~repro.experiments.engine.FastEngine.run_trace_reference`:
    the general per-request loop with bisection arithmetic.
    ``benchmarks/bench_engine.py`` runs it (as :data:`REFERENCE_ENGINE`)
    as the baseline arm of the byte-identity perf gate.
    """
    from repro.experiments.engine import FastEngine

    fast = FastEngine(
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        think_time=config.think_time,
        tracer=tracer,
        profile=profile,
        retune_cost=retune_cost,
    )
    return fast.run_trace_reference(
        trace,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
    )


def _run_plan_process(plan, *, config, schedule, mapping, layout, cache,
                      trace, tracer=None, profile=None,
                      retune_cost=1.0):
    """Drive the process-oriented engine for one plan."""
    from repro.experiments.engine import EngineOutcome
    from repro.experiments.simengine import run_single_client

    report = run_single_client(
        schedule=schedule,
        layout=layout,
        mapping=mapping,
        cache=cache,
        trace=trace,
        think_time=config.think_time,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
        tracer=tracer,
        profile=profile,
        retune_cost=retune_cost,
    )
    return EngineOutcome(
        response=report.response,
        counters=report.counters,
        measured_requests=report.response.count,
        warmup_requests=report.warmup_requests,
        final_time=report.final_time,
        samples=report.samples,
        retunes=report.retunes,
    )


def _run_plan_batch(plan, *, config, schedule, mapping, layout, cache,
                    trace, tracer=None, profile=None,
                    retune_cost=1.0):
    """Drive the columnar batch engine for a single plan (N == 1).

    Policies without a columnar formulation fall back to ``fast``; the
    single-client batch loop is byte-identical to it anyway (the
    vectorized tuner covers C-row programs too), so the choice never
    changes results, only the execution strategy.  The plan executor
    passes ``cache=None`` when it can predict the columnar path — the
    batch engine carries its own array-state policy — so the fallback
    rebuilds the scalar cache on demand.
    """
    from repro.batch.engine import build_columnar_engine

    engine = build_columnar_engine(
        config, schedule, layout, mapping.physical_array()[None, :], 1
    )
    if engine is None:
        if cache is None:
            from repro.cache.base import TracedCache

            cache = config.build_policy(
                schedule, mapping, config.build_distribution(), layout
            )
            if tracer is not None and tracer.enabled:
                cache = TracedCache(cache, tracer)
        return _run_plan_fast(
            plan, config=config, schedule=schedule, mapping=mapping,
            layout=layout, cache=cache, trace=trace, tracer=tracer,
            profile=profile, retune_cost=retune_cost,
        )
    outcome = engine.run(
        trace.pages[:, None],
        warmup_requests=config.warmup_requests,
        extra_warmup=config.extra_warmup,
        collect_responses=plan.collect_responses,
        tracer=tracer,
        profile=profile,
    )
    return outcome.to_engine_outcome(0)


register_engine(EngineSpec(
    name="fast",
    summary="analytic-stepping single-client engine (full-scale sweeps)",
    run_plan=_run_plan_fast,
))

register_engine(EngineSpec(
    name="process",
    summary="process-oriented discrete-event engine (CSIM substitute)",
    run_plan=_run_plan_process,
))

register_engine(EngineSpec(
    name="batch",
    summary="columnar lockstep engine (fleet-scale batches; "
            "single plans byte-match fast)",
    run_plan=_run_plan_batch,
))

#: The fast engine's reference loop as a plan engine — the oracle the
#: perf gate and the identity smokes compare ``fast`` against.  Not
#: registered: a process that wants it selectable by name (the
#: ``"fast-reference"`` arm of ``benchmarks/bench_engine.py``) calls
#: ``register_engine(REFERENCE_ENGINE)`` itself.
REFERENCE_ENGINE = EngineSpec(
    name="fast-reference",
    summary="general fast loop on bisection arithmetic (perf-gate oracle)",
    run_plan=_run_plan_fast_reference,
)
