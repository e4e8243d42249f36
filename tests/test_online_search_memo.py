"""The online checker's per-event rules for the search levels.

``OnlineChecker`` decides SI, SER, PC, PSI and BS-3 per event by the
first rule that applies: keep the previous verdict when the event leaves
the search's input unchanged; keep ``False`` on everything but the abort
of a writer (prefix closure); otherwise search, trying the last witness
first.  These tests hold the rules to the batch checkers on every prefix,
pin the two abort cases where a verdict legitimately moves, show that no
hint can change a verdict, check every returned witness independently and
bound the work the rules save on the benchmark's engine log.
"""

import random

import pytest

from repro.checking.online import OnlineChecker
from repro.core.events import INIT_TXN, TxnId
from repro.engine import HONEST_CONFIGS, SEEDED_BUGS
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import get_engine_config
from repro.isolation import AXIOMS_BY_LEVEL, get_level
from repro.isolation.axioms import axioms_hold
from repro.isolation.serializability import satisfies_ser, ser_witness
from repro.isolation.snapshot import interval_witness, satisfies_pc, satisfies_si
from repro.isolation.summaries import SearchCounter
from repro.trace import Trace, fuzz_history

SEARCH_LEVELS = ("PC", "SI", "SER")
ENGINE_CONFIGS = sorted(HONEST_CONFIGS) + sorted(SEEDED_BUGS)
WORKLOADS = ("hotkeys", "increments", "gen-aborty", "twitter")


def engine_trace(config, workload, seed, sessions=3, txns=4):
    program = workload_program(workload, sessions, txns, seed)
    return run_program(program, get_engine_config(config), seed=seed).trace


def assert_online_equals_batch(trace, levels):
    """Every prefix: online verdicts == fresh batch ``satisfies``."""
    checker = OnlineChecker.from_trace(trace, levels=levels)
    for index, event in enumerate(trace.events):
        step = checker.feed(event)
        history = trace.prefix(index + 1).to_history(strict=False)
        expected = {name: get_level(name).satisfies(history) for name in checker.levels}
        assert step.verdicts == expected, (
            f"{trace.header.name}: prefix {index + 1} ({event}): "
            f"online {step.verdicts} != batch {expected}"
        )
    return checker


class TestBatchEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_engine_logs(self, config, workload):
        for seed in range(3):
            assert_online_equals_batch(engine_trace(config, workload, seed), SEARCH_LEVELS)

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_streams_at_psi_and_bs3(self, seed):
        """PSI and BS-3 get the carry rules without a witness search."""
        history = fuzz_history(200 + seed, sessions=3, txns_per_session=3, abort_rate=0.3)
        assert_online_equals_batch(Trace.from_history(history), ("PSI", "BS-3"))


def _feed_all(records, variables=("x",), levels=SEARCH_LEVELS):
    trace = Trace.from_records(records, variables=list(variables))
    checker = OnlineChecker.from_trace(trace, levels=levels)
    return trace, [checker.feed(event) for event in trace.events]


class TestAbortsMoveVerdicts:
    def test_dirty_read_from_a_writer_that_aborts(self):
        """A read from a pending writer is explained while the writer may
        still commit; its abort leaves the read without a source."""
        trace, steps = _feed_all(
            [
                {"type": "begin", "session": "w", "txn": 0},
                {"type": "write", "session": "w", "txn": 0, "var": "x", "value": 1},
                {"type": "begin", "session": "r", "txn": 0},
                {"type": "read", "session": "r", "txn": 0, "var": "x", "value": 1,
                 "from": ["w", 0]},
                {"type": "commit", "session": "r", "txn": 0},
                {"type": "abort", "session": "w", "txn": 0},
            ]
        )
        for level in ("SI", "SER"):
            assert [step.verdicts[level] for step in steps] == [True] * 5 + [False]
            assert steps[-1].newly_violated == ("PC", "SI", "SER")
        for index, step in enumerate(steps):
            history = trace.prefix(index + 1).to_history(strict=False)
            assert step.verdicts == {n: get_level(n).satisfies(history) for n in SEARCH_LEVELS}

    def test_first_committer_wins_violation_retracted_by_abort(self):
        """Two pending writers of x that read the same snapshot lose an
        update (SI and SER violated); aborting one of them undoes it."""
        trace, steps = _feed_all(
            [
                {"type": "begin", "session": "a", "txn": 0},
                {"type": "read", "session": "a", "txn": 0, "var": "x", "value": 0,
                 "from": ["__init__", 0]},
                {"type": "begin", "session": "b", "txn": 0},
                {"type": "read", "session": "b", "txn": 0, "var": "x", "value": 0,
                 "from": ["__init__", 0]},
                {"type": "write", "session": "a", "txn": 0, "var": "x", "value": 1},
                {"type": "write", "session": "b", "txn": 0, "var": "x", "value": 2},
                {"type": "commit", "session": "a", "txn": 0},
                {"type": "abort", "session": "b", "txn": 0},
            ]
        )
        for level in ("SI", "SER"):
            assert [step.verdicts[level] for step in steps] == (
                [True] * 5 + [False, False, True]
            )
        # PC allows the lost update throughout.
        assert all(step.verdicts["PC"] for step in steps)
        for index, step in enumerate(steps):
            history = trace.prefix(index + 1).to_history(strict=False)
            assert step.verdicts == {n: get_level(n).satisfies(history) for n in SEARCH_LEVELS}

    def test_carried_events_skip_the_search(self):
        """Begin, a local read, a repeated write and commit are carried."""
        trace = Trace.from_records(
            [
                {"type": "begin", "session": "a", "txn": 0},
                {"type": "write", "session": "a", "txn": 0, "var": "x", "value": 1},
                {"type": "read", "session": "a", "txn": 0, "var": "x", "value": 1,
                 "local": True},
                {"type": "write", "session": "a", "txn": 0, "var": "x", "value": 2},
                {"type": "commit", "session": "a", "txn": 0},
            ],
            variables=["x"],
        )
        checker = OnlineChecker.from_trace(trace, levels=("SER",))
        before = SearchCounter.search_states
        for event in trace.events:
            checker.feed(event)
        # Searched: the first event (nothing to carry) and the first write.
        assert checker.verdicts_carried == 3
        assert SearchCounter.search_states > before


def _fuzz_histories(count=40):
    for seed in range(count):
        yield fuzz_history(seed, sessions=3, txns_per_session=3, abort_rate=0.2)


def _bad_hints(history, rng):
    """Hints that are stale, shuffled, reversed or name unknown
    transactions, as TxnId orders."""
    tids = list(history.txns)
    shuffled = tids[:]
    rng.shuffle(shuffled)
    other = list(fuzz_history(rng.randrange(10**6), sessions=4, txns_per_session=3).txns)
    ghosts = [TxnId("ghost", 0), TxnId("s0", 99)]
    return [shuffled, tids[::-1], other, ghosts + shuffled, shuffled[: len(tids) // 2] * 2]


def _as_steps(order):
    return [(kind, tid) for tid in order for kind in ("start", "commit")]


class TestHintsNeverChangeVerdicts:
    def test_bad_hints(self):
        rng = random.Random(13)
        for history in _fuzz_histories():
            ser = satisfies_ser(history)
            si = satisfies_si(history)
            pc = satisfies_pc(history)
            for order in _bad_hints(history, rng):
                assert (ser_witness(history, order) is not None) == ser
                steps = _as_steps(order)
                interleaved = steps[:]
                rng.shuffle(interleaved)
                for hint in (steps, interleaved):
                    assert (interval_witness(history, True, hint) is not None) == si
                    assert (interval_witness(history, False, hint) is not None) == pc

    def test_witness_of_a_larger_history_as_hint(self):
        """A witness naming transactions a smaller history lacks (as after
        eviction) is a hint like any other."""
        rng = random.Random(5)
        for history in _fuzz_histories(20):
            trace = Trace.from_history(history)
            full_ser = ser_witness(history)
            full_si = interval_witness(history)
            cut = rng.randrange(1, len(trace.events))
            prefix = trace.prefix(cut).to_history(strict=False)
            if full_ser is not None:
                assert (ser_witness(prefix, full_ser) is not None) == satisfies_ser(prefix)
            if full_si is not None:
                assert (interval_witness(prefix, True, full_si) is not None) == (
                    satisfies_si(prefix)
                )


def replays_as_intervals(history, schedule, first_committer_wins):
    """Replay ``schedule`` under the interval rules, independently of the
    search: starts after every causal predecessor committed, snapshot
    reads, disjoint intervals for common writers, everything committed."""
    started = {INIT_TXN}
    committed = {INIT_TXN}
    last_writer = {var: INIT_TXN for var in history.log(INIT_TXN).writes()}
    for kind, tid in schedule:
        log = history.log(tid)
        if kind == "start":
            if tid in started or not history.causal_past(tid) <= committed:
                return False
            for read in log.reads():
                source = history.wr.get(read.eid)
                if source is not None and last_writer.get(read.var) != source:
                    return False
            if first_committer_wins:
                for other in started - committed:
                    if set(history.log(other).writes()) & set(log.writes()):
                        return False
            started.add(tid)
        else:
            if tid not in started or tid in committed:
                return False
            committed.add(tid)
            for var in log.writes():
                last_writer[var] = tid
    return committed == set(history.txns)


def _witness_corpus():
    yield from _fuzz_histories(30)
    for config in ENGINE_CONFIGS:
        yield engine_trace(config, "hotkeys", 1).to_history(strict=False)


class TestWitnesses:
    def test_ser_witnesses_satisfy_the_ser_axioms(self):
        found = 0
        for history in _witness_corpus():
            order = ser_witness(history)
            assert (order is not None) == satisfies_ser(history)
            if order is None:
                continue
            found += 1
            assert sorted(order) == sorted(history.txns)
            position = {tid: i for i, tid in enumerate(order)}
            for tid in history.txns:
                for before in history.causal_past(tid):
                    assert position[before] < position[tid]
            assert axioms_hold(history, order, AXIOMS_BY_LEVEL["SER"])
        assert found >= 10

    @pytest.mark.parametrize("first_committer_wins", [True, False], ids=["SI", "PC"])
    def test_interval_witnesses_replay(self, first_committer_wins):
        satisfies = satisfies_si if first_committer_wins else satisfies_pc
        found = 0
        for history in _witness_corpus():
            schedule = interval_witness(history, first_committer_wins)
            assert (schedule is not None) == satisfies(history)
            if schedule is not None:
                found += 1
                assert replays_as_intervals(history, schedule, first_committer_wins)
        assert found >= 10

    def test_replayer_rejects_a_broken_schedule(self):
        history = engine_trace("snapshot-isolation", "hotkeys", 1).to_history(strict=False)
        schedule = interval_witness(history)
        assert schedule is not None and replays_as_intervals(history, schedule, True)
        assert not replays_as_intervals(history, schedule[::-1], True)
        assert not replays_as_intervals(history, schedule[:-1], True)


def test_engine_log_search_work():
    """The benchmark's SI log (seed-7 ``hotkeys``, 3 sessions x 25
    transactions, 395 events): re-searching every event visited 342,010
    DFS states; the carry rules and the witness hint at least halve it."""
    trace = engine_trace("snapshot-isolation", "hotkeys", 7, sessions=3, txns=25)
    assert len(trace.events) == 395
    checker = OnlineChecker.from_trace(trace, levels=("SI",))
    before = SearchCounter.search_states
    for event in trace.events:
        checker.feed(event)
    assert SearchCounter.search_states - before <= 342_010 // 2
    assert checker.verdicts_carried >= 170
