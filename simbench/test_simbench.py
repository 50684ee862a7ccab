"""Tests of the benchmark itself: span arithmetic, wrapper coverage,
the correctness gate, seeds and determinism.

Run with ``PYTHONPATH=src python -m pytest simbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from simbench import layers
from simbench.tracer import Tracer
from simbench.worker import measure, trace
from simbench.workloads import WORKLOADS, evaluate, run_cell

HERE = Path(__file__).resolve().parent

#: Small cells: enough for every wrapped boundary to fire, fast to run.
SMALL = 150


class ScriptedClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_nested_spans_self_time_is_duration_minus_children():
    #            a [0, 10]
    #   b [1, 3]          c [4, 6]
    #                  d [4.5, 5]
    tracer = Tracer(clock=ScriptedClock([0, 1, 3, 4, 4.5, 5, 6, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.enter("c")
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    stats = tracer.stats
    assert stats["a"].total == 10 and stats["a"].self_time == 6
    assert stats["b"].total == 2 and stats["b"].self_time == 2
    assert stats["c"].total == 2 and stats["c"].self_time == 1.5
    assert stats["d"].total == 0.5 and stats["d"].self_time == 0.5
    assert tracer.spans == [
        ("a", 0, 10, -1),
        ("b", 1, 3, 0),
        ("c", 4, 6, 0),
        ("d", 4.5, 5, 2),
    ]
    assert sum(s.self_time for s in stats.values()) == stats["a"].total


def test_self_times_are_never_negative_and_sum_to_the_root():
    rng = random.Random(7)
    now = [0.0]

    def clock() -> float:
        now[0] += rng.choice((0.0, 1e-9, rng.random()))
        return now[0]

    tracer = Tracer(clock=clock, keep=10)

    def nest(depth: int) -> None:
        for _ in range(rng.randint(0, 3)):
            tracer.enter(f"n{rng.randint(0, 4)}")
            if depth < 5:
                nest(depth + 1)
            tracer.exit()

    tracer.enter("root")
    nest(0)
    tracer.exit()
    assert len(tracer.spans) == 10  # verbatim records stop at ``keep``
    assert all(s.self_time >= 0 for s in tracer.stats.values())
    total_self = sum(s.self_time for s in tracer.stats.values())
    assert total_self == pytest.approx(tracer.stats["root"].total)


def test_install_wraps_and_uninstall_restores():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.install(Layer, "work", name="layer.work")
    assert Layer().work(1) == 2
    assert tracer.count("layer") == 1
    tracer.uninstall()
    assert Layer.__dict__["work"] is original


# ----------------------------------------------------------------------
# wrappers and determinism, per workload
# ----------------------------------------------------------------------
#: Per-layer counts that must be nonzero on each workload.
WORKING = {
    "centralized": (
        "kernel.events",
        "cpu.jobs",
        "db.submit_calls",
        "db.lock_calls",
        "db.storage_calls",
        "db.sectors",
        "tpcc.next_transaction_calls",
    ),
    "replicated": (
        "csrt.real_jobs",
        "gcs.multicasts",
        "gcs.delivered",
        "net.route_calls",
        "dbsm.certify_calls",
        "db.apply_remote_calls",
        "protocols.client_submit_calls",
    ),
    "faults": (
        "monitors.probe_calls",
        "gcs.multicasts",
        "net.route_calls",
        "protocols.client_submit_calls",
        "runner.overhead_s",
        "runner.save_s",
        "dashboard.journal_s",
    ),
    "scale-out": (
        "placement.route_calls",
        "protocols.client_submit_calls",
        "dbsm.certify_calls",
        "db.lock_calls",
    ),
}

#: Replication layers that must do nothing without replication.
IDLE_ON_CENTRALIZED = (
    "csrt.real_jobs",
    "csrt.real_job_s.recv",
    "csrt.real_job_s.timer",
    "csrt.real_job_s.marshal",
    "gcs.self_s",
    "gcs.multicasts",
    "gcs.delivered",
    "net.route_calls",
    "net.packets_per_tx",
    "dbsm.certify_calls",
)


@pytest.mark.parametrize("name", sorted(WORKING))
def test_every_wrapper_fires_and_tracing_only_observes(name, tmp_path):
    workload = WORKLOADS[name]
    traced = trace(workload, 42, tmp_path / "traced", transactions=SMALL)
    plain = measure(workload, 42, 0.0, tmp_path / "plain", transactions=SMALL)
    values = traced["layers"]
    assert set(values) | {"trace.overhead_ratio"} == set(layers.PER_LAYER)
    for metric in WORKING[name]:
        assert values[metric] > 0, metric
    if name == "centralized":
        for metric in IDLE_ON_CENTRALIZED:
            assert values[metric] == 0, metric
    assert values["kernel.self_s"] >= 0
    assert values["kernel.self_s"] <= values["experiment.run_s"]
    # tracing is observe-only: identical simulated outputs and counters
    assert traced["digest"] == plain["digest"]
    assert traced["counters"] == plain["counters"]
    # wrapped classes are restored afterwards
    from repro.core.experiment import Scenario

    assert not hasattr(Scenario.run, "__wrapped__")


# ----------------------------------------------------------------------
# the gate and the seed
# ----------------------------------------------------------------------
def test_truncated_cell_is_counted_as_failed(tmp_path):
    workload = WORKLOADS["centralized"]
    label, config = workload.cells(42)[0]
    config = replace(config, max_sim_time=5.0)
    outcome = evaluate(label, config, *run_cell(workload, label, config, tmp_path))
    assert outcome.failed
    assert any(f.startswith("truncated") for f in outcome.failures)
    assert any("max_sim_time" in f for f in outcome.failures)


def test_raising_cell_is_counted_as_failed():
    outcome = evaluate("broken", WORKLOADS["centralized"].cells(42)[0][1], None, None, "Traceback\nValueError: boom")
    assert outcome.failures == ["raised: ValueError: boom"]


def test_second_seed_passes_the_gate_with_a_different_digest(tmp_path):
    workload = WORKLOADS["centralized"]
    first = measure(workload, 42, 0.0, tmp_path / "a")
    second = measure(workload, 4242, 0.0, tmp_path / "b")
    for report in (first, second):
        assert not [c for c in report["cells"] if c["failures"]]
        assert report["unrepeatable"] == []
    assert first["digest"] != second["digest"]


def test_runner_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "simbench")
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "centralized",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
