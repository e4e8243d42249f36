"""The four benchmark workloads: their inputs, one measured pass, its checks.

Every workload is a closed loop in one process: the next program or event
is handed over only when the previous one has been answered.  A *pass*
runs the whole input set once; a run repeats whole passes until its time
is up, so every pass of a workload does the same work and the run's rates
do not depend on where the clock stopped.

* ``explore-apps`` / ``explore-apps-pool`` — ``explore_ce_star(CC, SER)``
  over the paper's Fig. 14 suite (5 applications x 5 client programs,
  3 sessions x 3 transactions), serially or with a 2-worker pool.  The
  suite is fixed; the seed sets the order the 25 programs are run in.
* ``monitor-si-engine`` — the exact (``keep``) SI monitor over the commit
  log of the honest ``snapshot-isolation`` MVCC engine, recorded with the
  seeded lockstep scheduler.  The log is fixed: the seed-7 log of the
  3-session x 25-transaction ``hotkeys`` program.
* ``monitor-rc-fresh`` — the bounded (``assume-fresh``) RC monitor over a
  clean ``fuzz_stream`` on 16 variables generated from the seed.

``README.md`` next to this file says why the inputs are fixed where they
are.  Monitor streams are encoded to JSONL during set-up and decoded by
``repro.trace.stream`` inside the measured loop.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.workloads import APPLICATIONS, client_program
from repro.core.bitrel import RelationMatrix
from repro.dpor.algorithms import explore_ce_star
from repro.dpor.stats import ExplorationStats
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import get_engine_config
from repro.isolation.base import get_level
from repro.isolation.saturation import IncrementalSaturation
from repro.monitor.core import Monitor, MonitorConfig, MonitorStaleReadError
from repro.trace.format import Trace
from repro.trace.fuzz import fuzz_stream
from repro.trace.stream import stream_trace

from layers import DECODE_SPAN, WORK_COUNTERS
import speed
from speed import Speedometer

#: Per-program exploration budget; a program that needs longer fails.
PROGRAM_TIMEOUT_S = 120.0

#: The Fig. 14 suite shape.
SUITE = {"sessions": 3, "txns_per_session": 3, "programs_per_app": 5}
#: The engine log the SI monitor replays.
SI_LOG = {"workload": "hotkeys", "sessions": 3, "txns_per_session": 25, "seed": 7,
          "config": "snapshot-isolation"}
#: The RC stream shape: ``fuzz_stream`` defaults (8 sessions, staleness 4,
#: every read names the latest writer) on 16 variables, with transactions of
#: up to 8 operations.
RC_STREAM = {"events": 12000, "variables": 16, "max_ops": 8}

#: Seconds between host speed samples taken inside a measured pass.
SAMPLE_EVERY_S = 0.025


@dataclass
class PassResult:
    """What one pass did and what it got wrong."""

    wall_s: float
    operations: int
    failures: List[str]
    #: Output histories (explore) or complete streams decided (monitor).
    histories: int
    #: Explore calls (explore) or stream events fed (monitor).
    events: int
    #: Per-event latency samples in microseconds: one per event (decode +
    #: feed), or one per program (time / explore calls) standing for each of
    #: the program's explore calls.  Reference microseconds in a calibrated
    #: pass (see ``speed``), else wall-clock ones.
    latencies_us: List[float]
    counters: Dict[str, int]
    #: How many events each latency sample stands for (``None``: one each).
    latency_weights: Optional[List[int]] = None
    #: Pool only: (min, max) explore calls over the workers of each program.
    worker_spread: List[tuple] = field(default_factory=list)


def unit_seconds(t0: float, t1: float, meter: Optional[Speedometer]) -> float:
    """A unit of work timed from ``t0`` to ``t1``: reference seconds when
    the pass is calibrated, else wall seconds."""
    return meter.reference_seconds(t0, t1) if meter else t1 - t0


def _zero_counters() -> Dict[str, int]:
    return {name: 0 for name in WORK_COUNTERS}


def _sha256(lines: List[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ExploreWorkload:
    """``explore_ce_star(CC, SER)`` over the Fig. 14 application suite."""

    #: The latency samples are 25 per-program means, so the tail is fixed at
    #: p90, which leaves two to three programs beyond it.  Above it the tail
    #: is one program's time; with the pool that spread by 0.26 over seven
    #: seeds, against 0.04 at p90.
    tail_percentile: Optional[float] = 90.0

    def __init__(self, name: str, seed: int, expected: Dict, workers: int = 1,
                 sessions: int = SUITE["sessions"],
                 txns_per_session: int = SUITE["txns_per_session"],
                 programs_per_app: int = SUITE["programs_per_app"]):
        self.name = name
        self.seed = seed
        self.workers = workers
        self.shape = (sessions, txns_per_session, programs_per_app)
        self.expected_outputs: Dict[str, int] = expected.get("outputs", {})
        self.programs: List = []

    def setup(self) -> None:
        sessions, txns, per_app = self.shape
        programs = [
            client_program(app, sessions, txns, index)
            for app in APPLICATIONS
            for index in range(per_app)
        ]
        random.Random(self.seed).shuffle(programs)
        self.programs = programs
        # Warm-up: import-time caches, compiled executor code and, with a
        # pool, one pool start.
        explore_ce_star(client_program("courseware", 3, 2, 0), "CC", "SER",
                        workers=self.workers, timeout=PROGRAM_TIMEOUT_S)

    def input_fingerprint(self) -> str:
        return _sha256([p.name for p in self.programs])

    def integrity_problems(self) -> List[str]:
        missing = [p.name for p in self.programs if p.name not in self.expected_outputs]
        return [f"no expected output count for {name}" for name in missing]

    def run_pass(self, tracer=None, calibrate: bool = False) -> PassResult:
        """One pass over the suite.  With ``calibrate``, the host's speed is
        sampled every ``SAMPLE_EVERY_S``.  With a pool, a sample shares the
        two cores and their caches with the two workers, so it times only
        ``speed.table_loop``, whose small table the workers slow least."""
        failures: List[str] = []
        spans: List[tuple] = []
        weights: List[int] = []
        spread: List[tuple] = []
        total = ExplorationStats()
        meter = None
        if calibrate and self.workers == 1:
            meter = Speedometer(SAMPLE_EVERY_S)
        elif calibrate:
            meter = Speedometer(SAMPLE_EVERY_S, speed.table_loop, speed.REF_TABLE_S)
        with meter or nullcontext():
            for program in self.programs:
                t0 = time.perf_counter()
                result = explore_ce_star(program, "CC", "SER", workers=self.workers,
                                         timeout=PROGRAM_TIMEOUT_S)
                spans.append((t0, time.perf_counter()))
                stats = result.stats
                total = total.merge(stats)
                weights.append(max(stats.explore_calls, 1))
                want = self.expected_outputs.get(program.name)
                if stats.timed_out:
                    failures.append(f"{program.name}: timed out after "
                                    f"{spans[-1][1] - t0:.1f}s")
                elif stats.outputs != want:
                    failures.append(f"{program.name}: {stats.outputs} histories, expected {want}")
                elif result.histories.duplicates or len(result.histories) != stats.outputs:
                    failures.append(
                        f"{program.name}: {result.histories.duplicates} duplicate histories")
                if result.worker_stats:
                    calls = [s.explore_calls for pid, s in result.worker_stats.items() if pid != 0]
                    if calls:
                        spread.append((min(calls) if len(calls) == self.workers else 0,
                                       max(calls)))
        wall = sum(t1 - t0 - (meter.sampled(t0, t1) if meter else 0.0) for t0, t1 in spans)
        latencies = [unit_seconds(t0, t1, meter) / calls * 1e6
                     for (t0, t1), calls in zip(spans, weights)]
        counters = _zero_counters()
        for name in ("explore_calls", "end_states", "outputs", "consistency_checks",
                     "swap_candidates", "swaps_applied", "saturation_ticks",
                     "closure_word_ops", "executor_instructions", "peak_stack", "blocked"):
            counters[name] = getattr(total, name)
        return PassResult(wall, len(self.programs), failures, total.outputs,
                          total.explore_calls, latencies, counters, weights, spread)

    def peak_live(self, result: PassResult) -> int:
        return result.counters["peak_stack"]

    def repeatable_counters(self, result: PassResult) -> Dict[str, int]:
        """The counters that must repeat exactly for the same inputs.  With
        a pool, items that cross the wire lose their cached closure and
        saturation state, so word-ops, ticks and the peak stack depend on
        scheduling."""
        if self.workers == 1:
            return dict(result.counters)
        return {k: v for k, v in result.counters.items()
                if k not in ("saturation_ticks", "closure_word_ops", "peak_stack")}


class MonitorWorkload:
    """A ``Monitor`` fed a JSONL stream, one line at a time."""

    #: Chosen from the event count (see ``run.latency_stats``).
    tail_percentile: Optional[float] = None

    def __init__(self, name: str, seed: int, expected: Dict, config: MonitorConfig,
                 level: str):
        self.name = name
        self.seed = seed
        self.config = config
        self.level = level
        self.expected = expected
        self.lines: List[str] = []

    def record(self) -> Trace:
        raise NotImplementedError

    def setup(self) -> None:
        trace = self.record()
        self.lines = trace.dumps().splitlines()
        # Warm-up on a throwaway monitor.
        header, events = stream_trace(self.lines[:50])
        warm = Monitor(header, self.config)
        for event in events:
            warm.feed(event)

    def input_fingerprint(self) -> str:
        return _sha256(self.lines)

    def expected_verdict(self) -> Optional[bool]:
        return self.expected.get("verdict")

    def integrity_problems(self) -> List[str]:
        return []

    def batch_verdict(self) -> bool:
        """The batch checker's verdict on the whole recorded history."""
        return get_level(self.level).satisfies(Trace.loads("\n".join(self.lines)).to_history())

    def run_pass(self, tracer=None, calibrate: bool = False) -> PassResult:
        """One replay of the stream.  With ``calibrate``, the host's speed is
        sampled every ``SAMPLE_EVERY_S``."""
        spans: List[tuple] = []
        failures: List[str] = []
        paused = 0
        fed = 0
        clock = time.perf_counter
        ticks0 = IncrementalSaturation.premise_evals
        words0 = RelationMatrix.word_ops
        decode = next if tracer is None else tracer.wrap(next, DECODE_SPAN)
        meter = Speedometer(SAMPLE_EVERY_S) if calibrate else None
        with meter or nullcontext():
            start = clock()
            header, events = stream_trace(self.lines)
            monitor = Monitor(header, self.config)
            try:
                while True:
                    t0 = clock()
                    event = decode(events, None)
                    if event is None:
                        break
                    monitor.feed(event)
                    spans.append((t0, clock()))
                    fed += 1
                    if not monitor.ok:
                        paused += 1
            except MonitorStaleReadError as err:
                failures.append(f"{self.name}: stale read after {fed} events: {err}")
            report = monitor.report()
            end = clock()
        wall = end - start - (meter.sampled(start, end) if meter else 0.0)
        latencies = [unit_seconds(t0, t1, meter) * 1e6 for t0, t1 in spans]
        want = self.expected_verdict()
        if not failures and report.ok != want:
            where = report.first_violation.index if report.first_violation else None
            failures.append(
                f"{self.name}: monitor verdict {self.level}={report.ok} (first violation at "
                f"step {where}), expected {want} from the batch checker"
            )
        counters = _zero_counters()
        counters["events"] = fed
        counters["evicted"] = report.stats.evicted
        counters["collections"] = report.stats.collections
        counters["peak_live"] = report.peak_live
        counters["gc_paused_events"] = paused
        counters["saturation_ticks"] = IncrementalSaturation.premise_evals - ticks0
        counters["closure_word_ops"] = RelationMatrix.word_ops - words0
        return PassResult(wall, 1, failures, 1, fed, latencies, counters)

    def peak_live(self, result: PassResult) -> int:
        return result.counters["peak_live"]

    def repeatable_counters(self, result: PassResult) -> Dict[str, int]:
        return dict(result.counters)


class EngineLogWorkload(MonitorWorkload):
    """Exact SI monitor over a recorded MVCC engine log."""

    def __init__(self, name: str, seed: int, expected: Dict):
        super().__init__(name, seed, expected, MonitorConfig(isolation="SI", mode="keep"), "SI")

    def record(self) -> Trace:
        log = SI_LOG
        program = workload_program(log["workload"], log["sessions"], log["txns_per_session"],
                                   log["seed"])
        return run_program(program, get_engine_config(log["config"]), seed=log["seed"]).trace

    def integrity_problems(self) -> List[str]:
        want = self.expected.get("sha256")
        got = self.input_fingerprint()
        if want != got:
            return [f"{self.name}: recorded log {got[:12]} differs from the expected-answer "
                    f"file's {str(want)[:12]}"]
        return []


class FuzzStreamWorkload(MonitorWorkload):
    """Bounded RC monitor over a seeded clean fuzz stream."""

    def __init__(self, name: str, seed: int, expected: Dict, events: int = RC_STREAM["events"]):
        super().__init__(name, seed, expected,
                         MonitorConfig(isolation="RC", mode="assume-fresh"), "RC")
        self.events = events
        self.variables = tuple(f"v{i}" for i in range(RC_STREAM["variables"]))

    def record(self) -> Trace:
        header, events = fuzz_stream(self.seed, self.events, variables=self.variables,
                                     max_ops=RC_STREAM["max_ops"])
        return Trace(header, events)


def make_workload(name: str, seed: int, expected: Dict, **shape):
    """The named workload, its inputs drawn from ``seed``."""
    if name == "explore-apps":
        return ExploreWorkload(name, seed, expected["explore-apps"], workers=1, **shape)
    if name == "explore-apps-pool":
        return ExploreWorkload(name, seed, expected["explore-apps"], workers=2, **shape)
    if name == "monitor-si-engine":
        return EngineLogWorkload(name, seed, expected[name])
    if name == "monitor-rc-fresh":
        return FuzzStreamWorkload(name, seed, expected[name], **shape)
    raise KeyError(name)
