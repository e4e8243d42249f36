"""The benchmark's own tests.

    python3 -m pytest -q perfbench/checks.py

This file is not named ``test_*.py``, so the repository's test run does
not collect it; pass it to pytest by path.  The tests cross-check the
expected answers against the brute-force baselines on reduced shapes,
check that work counters repeat exactly at one seed, with and without host
speed sampling, check the sampling and span accounting, and check the
command's output contract.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.apps.workloads import APPLICATIONS, client_program  # noqa: E402
from repro.dpor.algorithms import dfs_baseline, explore_ce_star  # noqa: E402
from repro.engine.harness import run_program, workload_program  # noqa: E402
from repro.engine.mvcc import get_engine_config  # noqa: E402
from repro.isolation.base import get_level  # noqa: E402
from repro.isolation.reference import satisfies_reference  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import suite  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_EXPLORE = {"sessions": 2, "txns_per_session": 2, "programs_per_app": 2}


def test_explore_counts_agree_with_dfs_on_reduced_shape():
    for app in APPLICATIONS:
        for index in range(2):
            program = client_program(app, 2, 2, index)
            dpor = explore_ce_star(program, "CC", "SER")
            dfs = dfs_baseline(program, "SER", timeout=120)
            assert not dfs.timed_out
            assert dpor.stats.outputs == dfs.distinct_histories, program.name
            assert dpor.histories.duplicates == 0, program.name


def test_batch_si_verdict_agrees_with_reference_on_reduced_logs():
    config = get_engine_config(suite.SI_LOG["config"])
    for seed in range(4):
        program = workload_program(suite.SI_LOG["workload"], 2, 3, seed)
        history = run_program(program, config, seed=seed).trace.to_history()
        assert get_level("SI").satisfies(history) == satisfies_reference(history, "SI"), seed


def test_expected_file_covers_the_generated_inputs():
    explore = suite.make_workload("explore-apps", 3, EXPECTED)
    explore.setup()
    assert explore.integrity_problems() == []
    assert sum(EXPECTED["explore-apps"]["outputs"].values()) == 1394
    si = suite.make_workload("monitor-si-engine", 3, EXPECTED)
    si.setup()
    assert si.integrity_problems() == []
    assert si.batch_verdict() is EXPECTED["monitor-si-engine"]["verdict"] is True


@pytest.mark.parametrize("name", ["explore-apps", "explore-apps-pool"])
def test_explore_counters_repeat_at_one_seed(name):
    runs = []
    for seed, calibrate in ((5, False), (5, True), (6, False)):
        workload = suite.make_workload(name, seed, EXPECTED, **SMALL_EXPLORE)
        workload.setup()
        result = workload.run_pass(calibrate=calibrate)
        runs.append((workload.input_fingerprint(), workload.repeatable_counters(result)))
    (fp_a, counters_a), (fp_b, counters_b), (fp_c, _) = runs
    assert fp_a == fp_b and counters_a == counters_b
    assert counters_a["explore_calls"] > 0
    assert fp_c != fp_a  # another seed runs the suite in another order


def test_monitor_counters_repeat_at_one_seed():
    runs = []
    for seed, calibrate in ((5, False), (5, True), (6, False)):
        workload = suite.make_workload("monitor-rc-fresh", seed, EXPECTED, events=3000)
        workload.setup()
        result = workload.run_pass(calibrate=calibrate)
        assert result.failures == []
        assert len(result.latencies_us) == 3000 and min(result.latencies_us) > 0
        runs.append((workload.input_fingerprint(), result.counters))
    assert runs[0] == runs[1]
    assert runs[0][1]["collections"] > 0 and runs[0][1]["evicted"] > 0
    assert runs[2][0] != runs[0][0]


def test_speedometer_takes_its_samples_out_of_the_timed_work():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(0.01) as meter:
        t0 = speed.clock()
        while speed.clock() - t0 < 0.1:
            sum(range(1000))
        t1 = speed.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    inside = meter.sampled(t0, t1)
    assert 0 < inside < t1 - t0
    assert meter.ends[0] < t0 and meter.ends[-1] > t1
    # Every sample is in the window: the entry one, those inside, the exit one.
    assert meter.reference_seconds(t0, t1) == pytest.approx(
        (t1 - t0 - inside) * speed.REF_LOOP_S * len(meter.loops) / sum(meter.loops))


def test_si_engine_surfaces_the_latched_monitor_verdict():
    workload = suite.make_workload("monitor-si-engine", 7, EXPECTED)
    workload.setup()
    result = workload.run_pass()
    assert len(result.failures) == 1 and "monitor verdict SI=False" in result.failures[0]
    assert result.counters["gc_paused_events"] > 300
    assert result.counters["peak_live"] > 64  # the bitrel closure crosses its numpy width


def test_traced_self_times_add_up_to_the_traced_wall_time():
    workload = suite.make_workload("monitor-rc-fresh", 1, EXPECTED, events=1500)
    workload.setup()
    from repro.core.history import History

    original = History.__dict__["causal_matrix"]
    tracer = Tracer()
    inst = layers.Instrumentation(tracer)
    inst.install()
    try:
        tracer.pass_id = 0
        result = tracer.wrap(workload.run_pass, layers.PASS_SPAN)(tracer)
    finally:
        inst.restore()
    assert History.__dict__["causal_matrix"] is original
    assert result.failures == []
    obs = {"passes": 1, "counters": result.counters, "workers": 1, "worker_balance": 0.0,
           "traced_pass_s": tracer.inclusive(layers.PASS_SPAN), "untraced_pass_s": 1.0}
    metrics = layers.layer_metrics(tracer, inst, obs)
    selfs = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(metrics["tracing.wall_s"][0], rel=1e-9, abs=1e-9)
    assert metrics["checking.online.feed_self_s"][0] > 0
    assert metrics["trace.stream.decode_s"][0] > 0
    assert len(tracer.r_name) == sum(tracer.calls) < tracer.raw_cap
    raw = tracer.raw_self_times()
    for i, name in enumerate(tracer.names):
        assert raw.get(name, 0.0) == pytest.approx(tracer.self_s[i], rel=1e-6, abs=1e-9), name


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    proc = _run(ROOT, "--workload", "monitor-si-engine", "--seed", "1", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "explore-apps", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
