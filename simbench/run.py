"""The repository benchmark: one workload, end-to-end or traced.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every measurement runs in a fresh single-threaded worker process
(``worker.py``), cells in sequence.  ``--trace 0`` builds the workload
in ``SETUP_REPEATS`` set-up-only processes (``setup_s`` is their
median) and measures it in one more for ``--seconds``.  Host seconds
are calibrated CPU seconds (see ``worker.py``).  ``--trace 1``
runs every cell once untraced and once more with the layer wrappers
installed, for the per-layer metrics and the tracing overhead;
``--seconds`` does not apply to it.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A cell that fails the correctness gate makes ``correct``
false; a worker that cannot run at all (for example without the
program's sources next to this directory) makes the exit code non-zero
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("centralized", "replicated", "faults", "scale-out")

#: Set-up-only processes per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Wall seconds a whole run may take; a worker still running when they
#: are up is stopped and the run fails (a traced ``faults`` run, the
#: longest, takes about 40).
RUN_BUDGET = 170.0

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": "s",
    "sim_tx_per_host_s": "tx/s",
    "peak_rss_mb": "MB",
    "sim_tpm": "tx/min",
}


class WorkerError(RuntimeError):
    pass


def _worker(
    mode: str, args, workdir: Path, deadline: float, seconds: float = 0.0
) -> dict:
    """Run one worker process to completion; its last stdout line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [
        sys.executable,
        str(WORKER),
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(seconds),
        "--workdir",
        str(workdir),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 0.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def _failures(report: dict) -> Dict[str, List[str]]:
    failed = {c["label"]: list(c["failures"]) for c in report["cells"] if c["failures"]}
    for label in report.get("unrepeatable", ()):
        failed.setdefault(label, []).append("digest differs between executions")
    return failed


def _throughput(report: dict, cost: str) -> float:
    """Records finished per unit of ``cost`` over all cells (each cell's
    cost is the median over its executions)."""
    cells = report["cells"]
    return sum(c["records"] for c in cells) / sum(c[cost] for c in cells)


def run(args) -> dict:
    work = ROOT / ".simbench_work"
    tag = f"{os.getpid()}"
    # a traced run compares against one untraced pass, not a timed run
    seconds = 0.0 if args.trace else args.seconds
    deadline = time.monotonic() + RUN_BUDGET
    measured = _worker("measure", args, work / f"{tag}-measure", deadline, seconds)
    failed = _failures(measured)
    lines = [
        f"workload {args.workload}  seed {args.seed}  cells {len(measured['cells'])}"
        f"  executions {measured['executions']}  wall {measured['wall_s']:.1f}s",
        f"digest {measured['digest']}",
    ]
    if args.trace:
        traced = _worker("trace", args, work / f"{tag}-trace", deadline)
        for label, reasons in _failures(traced).items():
            failed.setdefault(label, []).extend(f"traced: {r}" for r in reasons)
        same = traced["digest"] == measured["digest"]
        if not same:
            failed.setdefault("(workload)", []).append(
                "traced digest differs from untraced digest"
            )
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = _throughput(
            measured, "calibrated_s"
        ) / _throughput(traced, "calibrated_s")
        lines.append(
            f"traced digest {'matches' if same else 'DIFFERS'}  "
            f"spans kept {traced['spans']}"
        )
        units = traced["units"]
    else:
        setups = [
            _worker("setup", args, work / f"{tag}-setup{i}", deadline)
            for i in range(SETUP_REPEATS)
        ]
        sim = measured["sim"]
        metrics = {
            "setup_s": statistics.median(s["calibrated_s"] for s in setups),
            "sim_tx_per_host_s": _throughput(measured, "calibrated_s"),
            "peak_rss_mb": measured["peak_rss_mb"],
            "sim_tpm": sim["sim_tpm"],
        }
        units = END_TO_END
        lines.append(
            "uncalibrated CPU: set-up "
            + " ".join(f"{s['cpu_s']:.3f}" for s in setups)
            + f" s, {_throughput(measured, 'cpu_s'):.3f} tx/s"
        )
        lines.append(
            f"simulated: latency p50 {sim['sim_latency_p50_ms']:.3f} ms  "
            f"p99 {sim['sim_latency_p99_ms']:.3f} ms  "
            f"({sim['sim_latency_samples']} committed)  "
            f"abort rate {sim['sim_abort_rate']:.5f}"
        )
    attempted = len(measured["cells"])
    lines.append(
        f"failed_share {len(failed) / attempted:.4f} ({len(failed)}/{attempted} cells)"
    )
    for label, reasons in failed.items():
        lines.extend(f"FAILED {label}: {reason}" for reason in reasons)
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:14.6f} {units[name]}")
    if work.exists() and not any(work.iterdir()):
        work.rmdir()
    return {
        "lines": lines,
        "result": {
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        outcome = run(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
