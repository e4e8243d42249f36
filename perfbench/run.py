#!/usr/bin/env python3
"""One benchmark command for the DPOR model checker and the streaming monitor.

    python3 perfbench/run.py --workload explore-apps --seed 7 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped.  ``--trace 1`` runs one untraced reference
pass, then wraps the public functions of every layer module from outside
and reports per-layer self times, work counts and the tracing overhead.
Both modes check every output against ``expected.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
print every metric by name with its unit, the environment stamp, the work
counters and each failed operation.  A full record of the run (and, when
traced, the kept spans) is written under ``perfbench/out/``.

An operation is one program (explore workloads) or one stream (monitor
workloads).  It fails on a timeout, a wrong history count, a duplicate
history, a final verdict that differs from the expected one, or a stale
read.  ``correct`` is false only when the benchmark's own inputs or
expected answers cannot be trusted: a recorded log that differs from the
one the expected answers were taken for, or a batch verdict that differs
from the stored one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("explore-apps", "explore-apps-pool", "monitor-si-engine", "monitor-rc-fresh")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 21
#: Candidate tail percentiles; the tail is the highest with >= 10 samples beyond.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "histories_per_s": "1/s",
    "events_per_s": "1/s",
    "event_p50_us": "us",
    "event_tail_us": "us",
    "peak_live_txns": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(workers: int) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.dpor.pool import available_start_method
    from repro.dpor.explore import StepEngine
    from repro.apps.workloads import client_program
    from repro.isolation.base import get_level

    engine = StepEngine(client_program("twitter", 2, 1, 0), get_level("CC"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start_method": available_start_method(engine),
        "workers": workers,
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def percentile(pairs: List[Tuple[float, int]], pct: float) -> Tuple[float, int]:
    """Percentile of sorted (value, weight) pairs, and the weight beyond it.

    Each pair sits at the middle of the weight it covers, and the
    percentile is interpolated between the two pairs around its rank.  So
    it moves smoothly when noise reorders two units, which matters where
    one program carries a fifth of a pass's explore calls."""
    total = sum(w for _, w in pairs)
    rank = total * pct / 100.0
    seen = 0.0
    value = pairs[-1][0]
    previous = None
    for v, w in pairs:
        middle = seen + w / 2.0
        if middle >= rank:
            if previous is None:
                value = v
            else:
                pv, pm = previous
                value = pv + (v - pv) * (rank - pm) / (middle - pm)
            break
        previous = (v, middle)
        seen += w
    return value, sum(w for v, w in pairs if v > value)


def unit_costs(passes: List) -> List[Tuple[float, int]]:
    """(reference microseconds per event, events) of every unit of work,
    the median over the run's passes.

    A unit is one program of an explore pass (its time over its explore
    calls, standing for each of them) or one event of a monitor
    pass (decode plus ``feed``).  Every pass runs the same units in the
    same order.  Each sample is scaled to the reference CPU by the
    host speed sampled around and inside it (``speed.Speedometer``);
    traced passes are not calibrated and count at their wall time."""
    first = passes[0]
    weights = first.latency_weights or [1] * len(first.latencies_us)
    return [(statistics.median(p.latencies_us[i] for p in passes), weight)
            for i, weight in enumerate(weights)]


def latency_stats(
    units: List[Tuple[float, int]], tail_percentile: Optional[float] = None
) -> Tuple[float, float, float, int, int]:
    """(p50, tail, tail percentile, samples beyond the tail, samples).

    The tail is ``tail_percentile`` if given, else the highest percentile
    of ``TAIL_LADDER`` whose rank leaves at least ``TAIL_MIN_BEYOND``
    samples beyond it (else the median).  The choice depends only on the
    sample count of one pass, not on the measured values, so every run of a
    workload reports the same percentile."""
    pairs = sorted(units)
    total = sum(w for _, w in pairs)
    chosen = tail_percentile
    if chosen is None:
        chosen = next((pct for pct in reversed(TAIL_LADDER)
                       if total * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND), 50.0)
    p50, _ = percentile(pairs, 50.0)
    value, beyond = percentile(pairs, chosen)
    return p50, value, chosen, beyond, total


def measure(workload, seconds: float) -> List:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()  # each pass starts from the same heap, outside its timing
        passes.append(workload.run_pass(calibrate=True))
    return passes


def traced(workload, seconds: float):
    from layers import Instrumentation, PASS_SPAN, layer_metrics
    from spans import Tracer

    gc.collect()
    reference = workload.run_pass()
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    run_pass = tracer.wrap(workload.run_pass, PASS_SPAN)
    passes = []
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            tracer.pass_id = len(passes)
            gc.collect()
            passes.append(run_pass(tracer))
    finally:
        inst.restore()
    spread = [pair for p in passes for pair in p.worker_spread]
    obs = {
        "passes": len(passes),
        "counters": passes[0].counters,
        "workers": getattr(workload, "workers", 1),
        "worker_balance": (sum(lo for lo, _ in spread) / sum(hi for _, hi in spread)
                           if spread and sum(hi for _, hi in spread) else 0.0),
        "traced_pass_s": tracer.inclusive(PASS_SPAN) / len(passes),
        "untraced_pass_s": reference.wall_s,
    }
    return [reference] + passes, passes, tracer, layer_metrics(tracer, inst, obs)


def end_to_end(
    workload, passes: List, setup_times: List[float], rss_mb: float
) -> Tuple[Dict, Dict]:
    """The end-to-end metrics of the measured passes, in reference seconds:
    rates are one pass's work over the summed costs of its units (see
    ``unit_costs``)."""
    units = unit_costs(passes)
    ref_pass_s = sum(us * weight for us, weight in units) / 1e6
    p50, tail_value, tail_pct, beyond, samples = latency_stats(
        units, workload.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "histories_per_s": passes[0].histories / ref_pass_s,
        "events_per_s": passes[0].events / ref_pass_s,
        "event_p50_us": p50,
        "event_tail_us": tail_value,
        # The median: with a pool, the peak stack depends on scheduling.
        "peak_live_txns": statistics.median(workload.peak_live(p) for p in passes),
        "peak_rss_mb": rss_mb,
    }
    wall = sum(p.wall_s for p in passes)
    info = {"tail_percentile": tail_pct, "tail_beyond": beyond, "samples": samples,
            "passes": len(passes), "wall_s": wall, "ref_pass_s": ref_pass_s,
            "mean_pass_s": wall / len(passes)}
    return metrics, info


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"perfbench: expected-answer file {EXPECTED} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite
    from speed import Speedometer

    expected = json.loads(EXPECTED.read_text())
    workload = suite.make_workload(args.workload, args.seed, expected)
    env = env_stamp(getattr(workload, "workers", 1))

    setup_times = []
    for _ in range(SETUP_REPS):
        with Speedometer() as meter:
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
        setup_times.append(meter.reference_seconds(t0, t1))
    problems = workload.integrity_problems()

    layer = None
    tracer = None
    if args.trace:
        checked, passes, tracer, layer = traced(workload, args.seconds)
    else:
        passes = measure(workload, args.seconds)
        checked = passes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if hasattr(workload, "batch_verdict"):
        batch = workload.batch_verdict()
        if batch != workload.expected_verdict():
            problems.append(f"batch checker says {workload.level}={batch}, the expected-answer "
                            f"file says {workload.expected_verdict()}")

    metrics, info = end_to_end(workload, passes, setup_times, rss_mb)
    attempted = sum(p.operations for p in checked)
    failures = [f for p in checked for f in p.failures]
    counters = passes[0].counters
    repeat = all(workload.repeatable_counters(p) == workload.repeatable_counters(passes[0])
                 for p in passes)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input sha256={workload.input_fingerprint()[:16]} passes={info['passes']} "
          f"wall_s={info['wall_s']:.3f} ref_pass_s={info['ref_pass_s']:.3f} "
          f"mean_pass_s={info['mean_pass_s']:.3f} "
          f"setups_s={','.join(f'{s:.4f}' for s in setup_times)}")
    if layer is None:
        for name, unit in END_TO_END_UNITS.items():
            note = ""
            if name == "event_tail_us":
                note = (f"  (p{info['tail_percentile']:g}, {info['tail_beyond']} samples "
                        f"beyond, n={info['samples']})")
            print(f"{name:<18} {metrics[name]:>14.4f} {unit}{note}")
    failed = len(failures)
    print(f"{'failed_frac':<18} {failed / attempted:>14.4f} ({failed}/{attempted} operations)")
    print("counters " + " ".join(f"{k}={v}" for k, v in counters.items())
          + f" repeat_across_passes={repeat}")
    for line in sorted(set(failures)):
        print(f"FAILED {line}")
    for line in problems:
        print(f"PROBLEM {line}")
    if layer is not None:
        for name, (value, unit) in layer.items():
            print(f"{name:<42} {value:>16.6f} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "input_sha256": workload.input_fingerprint(),
        "setup_times_s": setup_times, "pass_walls_s": [p.wall_s for p in passes],
        "end_to_end": metrics, "info": info, "counters": counters,
        "counters_repeat": repeat, "attempted": attempted, "failures": failures,
        "problems": problems,
        "per_layer": None if layer is None else {k: v for k, (v, _) in layer.items()},
        "spans": None if tracer is None else sorted(
            ([name, tracer.calls[i], tracer.self_s[i], tracer.incl_s[i]]
             for i, name in enumerate(tracer.names)),
            key=lambda row: -row[2]),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")

    if layer is None:
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
