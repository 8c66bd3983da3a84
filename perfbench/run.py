#!/usr/bin/env python3
"""The repository benchmark: end-to-end time of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 42 --seconds 30 --trace 0

Workloads (see ``perfbench/LAYERS.md``): ``paper_sweep``,
``volatile_prefetch`` and ``fleet``.  One process, serial execution
(``jobs=1``, numpy pinned to one thread).  The timed phase repeats cold
passes of the workload for ``--seconds``; every pass rebuilds its
schedules and tables.  Host seconds are scaled to the reference host
speed, sampled between the units throughout the run (``Reference``).
Output checks run outside the timed region.
``--trace 1`` adds one traced pass that times each layer from outside
(``perfbench/layers.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` regenerates ``perfbench/digests.json``, the
simulated outputs pinned for the default and the held-out seed.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_RUNS = 7
#: Seconds one ``reference_loop`` step and one array round take at the
#: benchmark's reference speed (an uncontended 2.1 GHz Xeon vCPU under
#: Python 3.11 and numpy 2).
STEP_SECONDS = 0.15 / 300_000
ROUND_SECONDS = 0.034

sys.path.insert(0, str(SOURCE))
try:
    import numpy
    import repro
except ImportError as error:
    sys.exit(f"perfbench: cannot import the simulator from {SOURCE}: {error}")
if not Path(repro.__file__).resolve().is_relative_to(SOURCE):
    sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
             f"not from {SOURCE}")

import layers  # noqa: E402  (needs the source path above)
import workloads  # noqa: E402

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' runs every workload in well under a "
                             "second (for the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads_per_library": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    """What one pass over a workload produced."""

    def __init__(self):
        #: Host seconds per operation; per unit where a unit reports
        #: completion only once (a fleet spec).
        self.seconds = {}
        self.outputs = {}
        self.ops = {}
        self.failures = {}  # op name -> reason
        self.unit_ops = {}  # unit name -> [Op]
        self.unit_counts = {}  # unit name -> traced boundary counts
        self.wall = 0.0
        self.cpu = 0.0
        #: The process's peak resident set size once the pass ended.
        self.peak_rss_mb = 0.0


def run_pass(workload, trace=None, reference=None) -> Pass:
    """One cold pass: every unit once, timed one by one.  A
    ``reference`` takes its host-speed samples after each unit."""
    workload.reset()
    gc.collect()
    result = Pass()
    started = clock()
    cpu_started = time.process_time()
    if trace is not None:
        root = trace.span(workload.name, started, started, None)
    for unit in workload.units():
        before = trace.boundary_counts() if trace is not None else None
        ticks = []
        start = clock()
        try:
            output = unit.run(lambda: ticks.append(clock()))
        except Exception:  # the benchmark records the failure and goes on
            reason = traceback.format_exc()
            print(reason, file=sys.stderr)
            for name in unit.op_names:
                result.failures[name] = "raised: " + reason.splitlines()[-1]
            continue
        elapsed = clock() - start
        if reference is not None:
            reference.keep_up(elapsed)
        result.outputs[unit.name] = output
        ops = unit.ops(output)
        result.unit_ops[unit.name] = ops
        intervals = _op_intervals(start, ticks, len(ops))
        per_op = len(ticks) == len(ops)
        for op, (begin, end) in zip(ops, intervals):
            result.ops[op.name] = op
            if per_op:
                result.seconds[op.name] = end - begin
        if not per_op:
            result.seconds[unit.name] = elapsed
        if trace is not None:
            after = trace.boundary_counts()
            result.unit_counts[unit.name] = {
                key: after[key] - before[key] for key in after
            }
            unit_span = trace.span(unit.name, start, ticks[-1], root)
            for op, (begin, end) in zip(ops, intervals):
                trace.span(op.name, begin, end, unit_span)
    result.wall = clock() - started
    result.cpu = time.process_time() - cpu_started
    result.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if trace is not None:
        trace.spans[root]["end"] = started + result.wall
    return result


def _op_intervals(start, ticks, count):
    """Each operation's (begin, end).  A unit that reports completion
    once (a fleet's segments) gives its operations the unit's interval."""
    if len(ticks) == count:
        return list(zip([start] + ticks[:-1], ticks))
    return [(start, ticks[-1])] * count


def reference_loop(steps: int, rounds: int) -> float:
    """Fixed work in the simulator's two idioms: ``steps`` of a
    pure-Python loop of dict probes, int/float arithmetic and a bounded
    FIFO (the scalar engines), then ``rounds`` of whole-array gathers,
    masks and scans over 1,000,000 floats (the columnar engine).  It
    belongs to the benchmark, so it is the same code on every commit."""
    gaps = {page: (page * 7919) % 997 + 1 for page in range(1000)}
    resident = {}
    now = 0.0
    for step in range(steps):
        page = (step * 2654435761) % 1000
        now += 2.0
        if page in resident:
            continue
        base = int(now) + 1
        now = float(base + (page - base) % gaps[page])
        resident[page] = now
        if len(resident) > 50:
            del resident[next(iter(resident))]
    if not rounds:
        return now
    size = 1_000_000
    values = (numpy.arange(size) * 0.6180339887) % 1.0
    order = (numpy.arange(size) * 7919) % size
    for _ in range(rounds):
        gathered = values[order]
        bins = numpy.floor(gathered * 97.0) % 13.0
        now += float(numpy.where(bins < 6.0, gathered, -gathered).sum())
        numpy.cumsum(bins, out=bins)
    return now


class Reference:
    """How fast the host runs, relative to the reference speed.

    The host's speed moves by tens of percent within seconds, so
    ``reference_loop`` samples are interleaved with the work and take a
    fixed share of its time.  The speed is reference seconds over the
    mean sample: work timed in the same window slows down with it.  One
    speed for the whole window, rather than one per pass, keeps the
    noise of a few short samples out of the result.  Contention slows
    pure-Python loops more than array code, so each workload samples
    the mix of the two idioms its own work has (``workload.REFERENCE``).
    """

    SHARE = 0.25

    def __init__(self, mix):
        self.steps, self.rounds = mix
        self.samples = []
        self.work = 0.0

    def sample(self) -> None:
        start = clock()
        reference_loop(self.steps, self.rounds)
        self.samples.append(clock() - start)

    def keep_up(self, work_seconds: float) -> None:
        """Sample until the samples hold their share of the work."""
        self.work += work_seconds
        self.sample()
        while sum(self.samples) < self.SHARE * self.work:
            self.sample()

    def speed(self) -> float:
        seconds = self.steps * STEP_SECONDS + self.rounds * ROUND_SECONDS
        return seconds / statistics.fmean(self.samples)


def timed_passes(workload, seconds: float):
    """Cold passes until the next one would overrun ``seconds``, and the
    host speed sampled alongside them."""
    passes = []
    reference = Reference(workload.REFERENCE)
    reference.sample()
    started = clock()
    while True:
        passes.append(run_pass(workload, reference=reference))
        elapsed = clock() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes, reference


def setup_seconds(args, mix) -> tuple:
    """Median host time of fresh set-ups (interpreter start, imports and
    input generation, each in its own process, timed from outside), and
    the host speed sampled between them."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale,
    ]
    reference = Reference(mix)
    reference.sample()
    times = []
    for _ in range(SETUP_RUNS):
        start = clock()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(clock() - start)
        reference.sample()
    return statistics.median(times), reference.speed()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def recorded_digests(workload_name: str, seed: int, scale: str):
    if scale != "full" or not DIGESTS.exists():
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload_name, {}).get(str(seed))


def fail(failures, name: str, reason: str) -> None:
    """Record one reason why operation ``name`` failed."""
    reasons = failures.setdefault(name, [])
    if reason not in reasons:
        reasons.append(reason)


def check(workload, passes, args, failures) -> None:
    """Fill ``failures`` (op name -> reasons) from every output check."""
    first = passes[0]
    for one in passes:
        for name, reason in one.failures.items():
            fail(failures, name, reason)
    try:
        workload.cross_check(first.ops)
        workload.extra_checks(first.outputs, first.ops)
    except Exception:  # a check that cannot run fails its workload
        reason = traceback.format_exc()
        print(reason, file=sys.stderr)
        for name in first.ops:
            fail(failures, name, "check raised: " + reason.splitlines()[-1])
    for name, op in first.ops.items():
        for problem in op.problems:
            fail(failures, name, problem)
    for one in passes[1:]:
        for name, op in one.ops.items():
            if name in first.ops and op.digest != first.ops[name].digest:
                fail(failures, name, "outputs differ between passes")
    pinned = recorded_digests(workload.name, args.seed, args.scale)
    if pinned is not None:
        for name, op in first.ops.items():
            if pinned.get(name) != op.digest:
                fail(failures, name,
                     f"digest {op.digest} != recorded {pinned.get(name)}")


def check_traced(traced: Pass, first: Pass, failures) -> list:
    """The traced pass must reproduce the untraced outputs, and its
    boundary counts must match the program's own counters.  Returns the
    count mismatches."""
    for name, op in traced.ops.items():
        reference = first.ops.get(name)
        if reference is not None and op.digest != reference.digest:
            fail(failures, name, "traced digest differs from untraced")
    mismatches = []
    for unit, ops in traced.unit_ops.items():
        counts = traced.unit_counts[unit]
        observed = {
            "lookups": counts["lookups"],
            "hits": counts["hits"],
            "reports": counts["reports"],
            "invalidations": counts["invalidations"],
            "clients": (counts["kernel_clients"] + counts["columnar_clients"]
                        + counts["scalar_clients"]),
        }
        for key, wanted in workloads.combined(ops).items():
            if observed[key] != wanted:
                message = f"traced {key} {observed[key]} != program's {wanted}"
                mismatches.append(f"{unit}: {message}")
                for op in ops:
                    fail(failures, op.name, message)
    return mismatches


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def record_digests() -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        recorded[name] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            one = run_pass(workloads.make(name, seed, "full"))
            if one.failures:
                print(f"{name} seed {seed}: {one.failures}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = workloads.digests(one.ops.values())
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.record_digests:
        return record_digests()
    workload = workloads.make(args.workload, args.seed, args.scale)
    if args.setup_only:
        workload.units()
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup_host, setup_speed = setup_seconds(args, workload.REFERENCE)
    passes, reference = timed_passes(workload, args.seconds)
    speed = reference.speed()
    # The first pass starts from the same process state on every run;
    # later passes can raise the peak through heap fragmentation.
    peak_rss_mb = passes[0].peak_rss_mb
    first = passes[0]

    failures = {}
    check(workload, passes, args, failures)

    op_names = [name for unit in workload.units() for name in unit.op_names]
    keys = {key: None for one in passes for key in one.seconds}
    wall_host = statistics.fmean(sum(p.seconds.values()) for p in passes)
    wall = wall_host * speed
    requests = sum(op.requests for op in first.ops.values())
    clients = sum(op.clients for op in first.ops.values())
    print(f"{args.workload}: {len(passes)} passes; host seconds "
          + ", ".join(f"{p.wall:.3f}" for p in passes) + "; cpu seconds "
          + ", ".join(f"{p.cpu:.3f}" for p in passes)
          + f"; host speed {speed:.3f} from {len(reference.samples)} "
          f"samples")
    print(f"host wall_s {wall_host:.4f}, host setup_s {setup_host:.4f} "
          f"(speed {setup_speed:.3f})")
    for key in keys:
        print(f"  {key}: " + ", ".join(
            f"{p.seconds[key]:.3f}" for p in passes if key in p.seconds))

    if args.trace:
        trace = layers.LayerTrace()
        trace.install()
        try:
            traced = run_pass(workload, trace)
        finally:
            trace.restore()
        for name, reason in traced.failures.items():
            fail(failures, name, reason)
        mismatches = check_traced(traced, first, failures)
        metrics = {
            name: metric(value, unit)
            for name, (value, unit) in layers.layer_metrics(trace).items()
        }
        metrics["trace.overhead_s"] = metric(traced.wall - wall_host, "s")
        metrics["host.wall_s"] = metric(wall_host, "s")
        metrics["host.setup_s"] = metric(setup_host, "s")
        metrics["host.speed"] = metric(speed, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.scale}.json"
        out.write_text(json.dumps({
            "env": env,
            "workload": args.workload,
            "seed": args.seed,
            "spans": trace.spans,
            "calls": dict(trace.calls),
            "busy_s": dict(trace.busy),
            "self_s": dict(trace.self_time),
            "metrics": metrics,
            "digests": {
                "untraced": workloads.digests(first.ops.values()),
                "traced": workloads.digests(traced.ops.values()),
            },
            "count_mismatches": mismatches,
        }, indent=1, sort_keys=True))
        print(f"trace written to {out}")
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "sim_requests_per_s": metric(requests / wall, "1/s"),
            "clients_per_s": metric(clients / wall, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(setup_host * setup_speed, "s"),
        }

    for name in op_names:
        if name in failures:
            print(f"FAIL {name}: " + "; ".join(failures[name]))
    failed = sum(1 for name in op_names if name in failures)
    print(f"failed_frac {failed / len(op_names):.4f} "
          f"({failed} of {len(op_names)} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(op_names),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
