"""One benchmark process: ``setup``, ``measure`` or ``trace`` a workload.

``run.py`` starts each in a fresh single-threaded interpreter and reads
the JSON object this script prints as its last line.

* ``setup`` — import ``repro``, expand the workload and build its first
  Scenario, then report the process's host seconds so far (interpreter
  start included).
* ``measure`` — run the workload's cells in order, cycling, until
  ``--seconds`` have passed and every cell ran at least once.  The gate
  and the simulated outputs come from a cell's first execution; every
  later execution must reproduce its digest.
* ``trace`` — install the layer wrappers, run every cell once and report
  the per-layer aggregates.

Host seconds are *calibrated* CPU seconds of this process.  CPU seconds
(``time.process_time``) leave out time the single-threaded, CPU-bound
process spent descheduled, but a shared host still makes them drift by a
fifth or more within a minute, and up to twice as long between quiet and
busy hours.  So every timed stretch — each cell execution, each set-up — is
also timed against the *reference loop*, a fixed pure-Python loop that
uses none of the program, run right before and after it.  A stretch's
calibrated seconds are its CPU seconds times ``REFERENCE_SECONDS`` over
the loop's CPU seconds: the time it would take on a host where the loop
takes ``REFERENCE_SECONDS``.  That cancels most of the host's drift,
while a change to the program moves it as much as it moves the CPU
seconds.  Raw CPU seconds are reported alongside.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")

from simbench import layers  # noqa: E402
from simbench.tracer import Tracer  # noqa: E402
from simbench.workloads import (  # noqa: E402
    PINNED_TRANSACTIONS,
    WORKLOADS,
    evaluate,
    pooled_sim_metrics,
    run_cell,
    summed_counters,
    workload_digest,
)


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node):
        self.key = key
        self.value = value
        self.next = next_node


def reference_loop(steps: int = 20_000) -> float:
    """CPU seconds of one fixed loop of the interpreter work a
    discrete-event simulator does: a bounded event heap, small objects
    and dict counters (``REFERENCE_SECONDS`` on an uncontended core)."""
    begin = time.process_time()
    rng = random.Random(1)
    heap: list = []
    counts: dict = {}
    head = None
    for i in range(steps):
        heapq.heappush(heap, (rng.random(), i, head))
        head = _Node(i, i * 2, head)
        counts[i % 997] = counts.get(i % 997, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.process_time() - begin


#: The reference loop's CPU seconds on an uncontended core of the host
#: the benchmark was tuned on (a 2-vCPU Intel Xeon VM, Python 3.11);
#: calibrated seconds are CPU seconds rescaled to a host this fast.
REFERENCE_SECONDS = 0.020


class CellTimer:
    """Times cell executions in CPU seconds and calibrated seconds."""

    def __init__(self) -> None:
        self._last_reference = reference_loop()

    def __call__(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), cpu_seconds, calibrated_seconds)``."""
        begin = time.process_time()
        value = fn(*args, **kwargs)
        cpu = time.process_time() - begin
        after = reference_loop()
        reference = (self._last_reference + after) / 2
        self._last_reference = after
        return value, cpu, cpu * REFERENCE_SECONDS / reference


def _execute(timer, workload, label, config, artifacts: Path, **options):
    """Run one cell under ``timer`` and check it; its artifact directory
    is removed afterwards.  ``(outcome, cpu_seconds, calibrated_seconds)``."""
    ran, cpu, calibrated = timer(
        run_cell, workload, label, config, artifacts, **options
    )
    outcome = evaluate(label, config, *ran)
    shutil.rmtree(artifacts, ignore_errors=True)
    return outcome, cpu, calibrated


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, seed: int) -> dict:
    from repro.core.experiment import Scenario

    cells = workload.cells(seed)
    Scenario(cells[0][1])
    cpu = time.process_time()
    reference = statistics.median(reference_loop() for _ in range(3))
    return {"cpu_s": cpu, "calibrated_s": cpu * REFERENCE_SECONDS / reference}


def measure(
    workload, seed: int, seconds: float, workdir: Path,
    transactions: int = PINNED_TRANSACTIONS,
) -> dict:
    cells = workload.cells(seed, transactions)
    firsts = [None] * len(cells)
    cpu = [[] for _ in cells]
    calibrated = [[] for _ in cells]
    unrepeatable = []
    timer = CellTimer()
    started = time.perf_counter()
    executions = 0
    while executions < len(cells) or time.perf_counter() - started < seconds:
        index = executions % len(cells)
        label, config = cells[index]
        outcome, seconds_cpu, seconds_calibrated = _execute(
            timer, workload, label, config, workdir / f"{executions:05d}"
        )
        cpu[index].append(seconds_cpu)
        calibrated[index].append(seconds_calibrated)
        if firsts[index] is None:
            firsts[index] = outcome
        elif outcome.digest != firsts[index].digest and label not in unrepeatable:
            unrepeatable.append(label)
        executions += 1
    return {
        "wall_s": time.perf_counter() - started,
        "executions": executions,
        "peak_rss_mb": _peak_rss_mb(),
        "unrepeatable": unrepeatable,
        **_report(
            firsts,
            [statistics.median(c) for c in cpu],
            [statistics.median(c) for c in calibrated],
        ),
    }


def trace(
    workload, seed: int, workdir: Path, transactions: int = PINNED_TRANSACTIONS
) -> dict:
    tracer = Tracer()
    timer = CellTimer()
    layers.install(tracer)
    try:
        cells = tracer.span("campaigns.expand", workload.cells, seed, transactions)
        outcomes, cpu, calibrated = [], [], []
        for index, (label, config) in enumerate(cells):
            outcome, seconds_cpu, seconds_calibrated = _execute(
                timer,
                workload,
                label,
                config,
                workdir / f"{index:05d}",
                call=functools.partial(tracer.span, "runner.run_campaign"),
            )
            outcomes.append(outcome)
            cpu.append(seconds_cpu)
            calibrated.append(seconds_calibrated)
    finally:
        tracer.uninstall()
    report = _report(outcomes, cpu, calibrated)
    report["layers"] = layers.per_layer(tracer, report["counters"], report["sim"])
    report["units"] = layers.PER_LAYER
    report["spans"] = len(tracer.spans)
    return report


def _report(outcomes, cpu_seconds, calibrated_seconds) -> dict:
    return {
        "cells": [
            {
                "label": o.label,
                "records": o.finished,
                "cpu_s": seconds,
                "calibrated_s": calibrated,
                "failures": o.failures,
                "digest": o.digest,
            }
            for o, seconds, calibrated in zip(
                outcomes, cpu_seconds, calibrated_seconds
            )
        ],
        "digest": workload_digest(outcomes),
        "sim": pooled_sim_metrics(outcomes),
        "counters": summed_counters(outcomes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        report = setup(workload, args.seed)
    elif args.mode == "measure":
        report = measure(workload, args.seed, args.seconds, args.workdir)
    else:
        report = trace(workload, args.seed, args.workdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
