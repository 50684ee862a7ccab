"""The benchmark's workloads, its correctness gate and its exact outputs.

Every workload is a registered campaign spec with ``transactions`` and
``seed`` pinned; its cells are closed-loop simulated TPC-C terminals
with think time.  The seed is the benchmark's argument, so the program
receives only the generated configs.

For each executed cell this module records, outside the timed region,

* the *gate*: why the cell's outputs are wrong, if they are;
* the *simulated outputs* pooled into the ``sim_*`` metrics;
* the *exact counters* the program's modules expose after a run
  (kernel events, datagrams, certifications, sectors...), which repeat
  exactly for a given seed;
* a sha256 *digest* over the simulated outputs and exact counters.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns import CampaignSpec, get_campaign
from repro.core.experiment import Scenario, ScenarioConfig, ScenarioResult
from repro.core.safety import SafetyViolation
from repro.runner import run_campaign
from repro.runner import runner as runner_module

__all__ = [
    "PINNED_TRANSACTIONS",
    "WORKLOADS",
    "CellOutcome",
    "Workload",
    "evaluate",
    "exact_counters",
    "pooled_sim_metrics",
    "run_cell",
    "summed_counters",
    "workload_digest",
]

#: Per-cell transaction count of every workload (the perf harness's).
PINNED_TRANSACTIONS = 600


def _pinned(name: str, seed: int, transactions: int) -> CampaignSpec:
    return (
        get_campaign(name)
        .with_axis("transactions", (transactions,))
        .with_axis("seed", (seed,))
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which registered cells it runs and how."""

    name: str
    why: str
    spec: Callable[[int, int], CampaignSpec]
    keep: Callable[[ScenarioConfig], bool] = lambda config: True
    #: Run every cell through ``run_campaign`` with a fresh artifact
    #: directory and the journal on, instead of ``Scenario(config).run()``.
    through_runner: bool = False

    def cells(
        self, seed: int, transactions: int = PINNED_TRANSACTIONS
    ) -> List[Tuple[str, ScenarioConfig]]:
        return [
            (label, config)
            for label, config in self.spec(seed, transactions).expand()
            if self.keep(config)
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "centralized",
            "fig5 1/3/6-CPU cells: one site, no replication; db, kernel "
            "and tpcc do the work, gcs/net/dbsm/csrt do none",
            lambda seed, tx: _pinned("fig5", seed, tx),
            keep=lambda config: config.sites == 1,
        ),
        Workload(
            "replicated",
            "fig5 3/6-site dbsm cells, the paper's Fig. 5 curves; gcs, "
            "csrt, net and certification carry the time",
            lambda seed, tx: _pinned("fig5", seed, tx),
            keep=lambda config: config.sites > 1,
        ),
        Workload(
            "faults",
            "the monitored safety matrix under dbsm and primary-copy via "
            "run_campaign: view changes, NACKs, state transfer, monitors",
            lambda seed, tx: _pinned("safety-monitored", seed, tx).with_axis(
                "protocol", ("dbsm", "primary-copy")
            ),
            through_runner=True,
        ),
        Workload(
            "scale-out",
            "partial replication, 6 sites, 3000 clients, 1-3 fragments: "
            "placement routing, cross-fragment votes, heavy lock load",
            lambda seed, tx: _pinned("scale-out", seed, tx),
            # f1 round-robin simulates exactly the same run as f1 range
            keep=lambda config: not (
                config.fragments == 1 and config.placement == "round-robin"
            ),
        ),
    )
}


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """One execution of one cell."""

    label: str
    #: Why the outputs are wrong; empty when the cell passes the gate.
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Committed latencies (simulated seconds) and the pooling inputs.
    latencies: List[float] = field(default_factory=list)
    finished: int = 0
    aborted: int = 0
    window: float = 0.0
    digest: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class _RecordingScenario(Scenario):
    """A :class:`Scenario` that remembers itself, so the live counters of
    a cell run by ``run_campaign`` can be read after it returns."""

    built: List[Scenario] = []

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        _RecordingScenario.built.append(self)


def run_cell(
    workload: Workload,
    label: str,
    config: ScenarioConfig,
    artifacts: Path,
    call: Callable = lambda fn, *args, **kwargs: fn(*args, **kwargs),
) -> Tuple[Optional[Scenario], Optional[ScenarioResult], Optional[str]]:
    """Execute one cell; returns ``(scenario, result, error)``.

    Runner cells store their artifacts and journal in ``artifacts``,
    which must be fresh: a reused directory would resume the cell and
    time nothing.  ``call(fn, *args, **kwargs)`` invokes
    ``run_campaign`` (a tracer hooks its span in there).
    """
    if not workload.through_runner:
        try:
            scenario = Scenario(config)
            return scenario, scenario.run(), None
        except Exception:
            return None, None, traceback.format_exc()
    _RecordingScenario.built = []
    runner_module.Scenario = _RecordingScenario
    try:
        campaign = call(
            run_campaign,
            [(label, config)],
            workers=1,
            artifact_dir=artifacts,
            campaign=workload.name,
            journal=True,
        )
    finally:
        runner_module.Scenario = Scenario
    cell = campaign.cells[0]
    if cell.status != "ok":
        return None, None, cell.error or "failed"
    return _RecordingScenario.built[-1], cell.result, None


def evaluate(
    label: str,
    config: ScenarioConfig,
    scenario: Optional[Scenario],
    result: Optional[ScenarioResult],
    error: Optional[str],
) -> CellOutcome:
    """The gate, the simulated outputs and the digest of one execution."""
    outcome = CellOutcome(label)
    if error is not None or result is None or scenario is None:
        last = (error or "no result").strip().splitlines()[-1]
        outcome.failures.append(f"raised: {last}")
        outcome.digest = _sha({"label": label, "error": last})
        return outcome
    records = result.metrics.records
    if len(records) < config.transactions:
        outcome.failures.append(
            f"truncated: {len(records)} of {config.transactions} records"
        )
    if result.sim_time >= config.max_sim_time:
        outcome.failures.append(
            f"stopped at max_sim_time {config.max_sim_time:g}s"
        )
    try:
        result.check_safety()
    except SafetyViolation as exc:
        outcome.failures.append(f"safety: {exc}")
    if result.violations:
        outcome.failures.append(
            f"monitors: {len(result.violations)} violation(s), first "
            f"{result.violations[0].to_dict()}"
        )
    committed = [r for r in records if r.committed]
    outcome.latencies = [r.latency for r in committed]
    outcome.finished = len(records)
    outcome.aborted = len(records) - len(committed)
    if committed:
        outcome.window = max(r.end_time for r in records) - min(
            r.submit_time for r in records
        )
    outcome.counters = exact_counters(scenario, result)
    outcome.digest = _sha(
        {
            "label": label,
            "counters": outcome.counters,
            "records": [r.to_list() for r in records],
            "commit_logs": [list(log.sequence()) for log in result.commit_logs()],
            "failures": outcome.failures,
        }
    )
    return outcome


def exact_counters(scenario: Scenario, result: ScenarioResult) -> Dict[str, float]:
    """Work counters the program's modules expose after a run, summed
    over sites.  Each repeats exactly for a given config."""
    sites = scenario.sites
    runtimes = [s.runtime for s in sites if s.runtime is not None]
    stacks = [s.gcs for s in sites if s.gcs is not None]
    protocol = _sum_dicts(result.site_stats.values())
    hosts = scenario.network.hosts.values()
    storages = [s.storage.stats for s in sites]
    records = result.metrics.records
    return {
        "records": len(records),
        "sim_time": result.sim_time,
        "kernel.events": scenario.sim.events_executed,
        "csrt.real_jobs": sum(rt.stats["real_jobs"] for rt in runtimes),
        "csrt.datagrams_out": sum(rt.stats["datagrams_out"] for rt in runtimes),
        "csrt.drops_injected": sum(rt.stats["drops_injected"] for rt in runtimes),
        "gcs.multicasts": sum(g.stats["messages_multicast"] for g in stacks),
        "gcs.delivered": sum(g.stats["delivered"] for g in stacks),
        "gcs.nacks": sum(g.reliable.stats["nacks_sent"] for g in stacks),
        "gcs.retransmits": sum(
            g.reliable.stats["retransmits_served"] for g in stacks
        ),
        "gcs.flow_blocked_sim_s": sum(
            g.reliable.stats["blocked_time"] for g in stacks
        ),
        "gcs.rejoin_sim_s": sum(
            e.time_to_rejoin() for e in result.completed_rejoins()
        ),
        "net.packets": scenario.capture.total_packets,
        "net.bytes": scenario.capture.total_bytes,
        "net.drops": sum(
            h.egress.stats.packets_dropped + h.ingress.stats.packets_dropped
            for h in hosts
        ),
        "dbsm.certified": protocol.get("certified", 0),
        "dbsm.committed": protocol.get("committed", 0),
        "placement.single_fragment": protocol.get("single_fragment", 0),
        "placement.cross_fragment": protocol.get("cross_fragment", 0),
        "db.local_committed": sum(s.server.stats["local_committed"] for s in sites),
        "db.local_aborted": sum(s.server.stats["local_aborted"] for s in sites),
        "db.remote_applied": sum(s.server.stats["remote_applied"] for s in sites),
        "db.ww_aborts": sum(s.server.locks.stats["ww_aborts"] for s in sites),
        "db.sectors": sum(st.sectors_read + st.sectors_written for st in storages),
        "db.cache_hits": sum(st.cache_hits for st in storages),
        "monitors.violations": len(result.violations),
    }


def _sum_dicts(dicts) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def workload_digest(outcomes: Sequence[CellOutcome]) -> str:
    """sha256 over the cells' digests, in cell order."""
    return _sha([[o.label, o.digest] for o in outcomes])


def pooled_sim_metrics(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """The simulated-system metrics, pooled over cells.  Exact for a
    given seed: a change that only speeds up the simulator leaves them
    identical."""
    latencies = sorted(x for o in outcomes for x in o.latencies)
    finished = sum(o.finished for o in outcomes)
    window = sum(o.window for o in outcomes)
    if len(latencies) >= 2:
        p = statistics.quantiles(latencies, n=100, method="inclusive")
        p50, p99 = p[49], p[98]
    else:
        p50 = p99 = latencies[0] if latencies else 0.0
    return {
        "sim_tpm": len(latencies) * 60.0 / window if window > 0 else 0.0,
        "sim_latency_p50_ms": p50 * 1000.0,
        "sim_latency_p99_ms": p99 * 1000.0,
        "sim_abort_rate": (
            sum(o.aborted for o in outcomes) / finished if finished else 0.0
        ),
        "sim_latency_samples": len(latencies),
    }


def summed_counters(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    return _sum_dicts(o.counters for o in outcomes)
