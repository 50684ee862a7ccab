"""Layer-boundary wrappers and the per-layer metrics of the traced run.

``install(tracer)`` wraps, on their classes, the functions through which
one layer calls into the next.  Span names are ``<layer>.<operation>``;
the layer names are the program's module names.  ``per_layer(...)``
turns the tracer's aggregates and the cells' exact counters into the
benchmark's per-layer metrics.

Host-time metrics (``*_s``) are the self time of the layer's spans —
duration minus wrapped callees — except ``csrt.real_job_s.*``,
``experiment.*`` and ``campaigns.expand_s``, which are inclusive, and
``kernel.self_s``, the self time of ``experiment.run``: everything a
run does outside a wrapped layer (event dispatch, generator steps,
links, garbage collection).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.clock import CpuCostModel
from repro.core.cpu import CpuPool
from repro.core.csrt import SiteRuntime
from repro.core.experiment import Scenario
from repro.core.runtime_api import SimulatedProtocolRuntime
from repro.dashboard.journal import JournalWriter
from repro.db.lock import LockManager
from repro.db.server import DatabaseServer
from repro.db.storage import Storage
from repro.dbsm.certification import Certifier
from repro.dbsm.replica import Replica
from repro.gcs.stack import GroupCommunication
from repro.monitors.base import MonitorHub, SiteProbe
from repro.net.network import Network
from repro.placement.router import TransactionRouter
from repro.protocols.base import ReplicationProtocol
from repro.protocols.partial import PartialReplica
from repro.protocols.primary_copy import PrimaryCopyReplica
from repro.runner.store import ArtifactStore
from repro.tpcc.workload import TpccWorkload

from .tracer import Tracer

__all__ = ["PER_LAYER", "install", "per_layer"]

#: (class, function, span name): plain wrappers.
_BOUNDARIES: Tuple[Tuple[type, str, str], ...] = (
    (Scenario, "__init__", "experiment.build"),
    (Scenario, "run", "experiment.run"),
    (CpuPool, "submit", "cpu.submit"),
    (GroupCommunication, "multicast", "gcs.multicast"),
    # the stack's receiver, registered with the runtime at construction
    (GroupCommunication, "_on_wire", "gcs.receive"),
    (Network, "route", "net.route"),
    (Certifier, "certify", "dbsm.certify"),
    (Certifier, "would_commit", "dbsm.certify"),
    (ReplicationProtocol, "client_submit", "protocols.client_submit"),
    (PrimaryCopyReplica, "client_submit", "protocols.client_submit"),
    # the protocols' delivery upcalls, registered with the stack
    (Replica, "_on_deliver", "protocols.deliver"),
    (PrimaryCopyReplica, "_on_deliver", "protocols.deliver"),
    (PartialReplica, "_on_deliver", "protocols.deliver"),
    (TransactionRouter, "route", "placement.route"),
    (DatabaseServer, "submit", "db.submit"),
    (DatabaseServer, "apply_remote", "db.apply_remote"),
    (LockManager, "acquire", "db.lock"),
    (LockManager, "acquire_remote", "db.lock"),
    (LockManager, "release_commit", "db.lock"),
    (LockManager, "release_abort", "db.lock"),
    (Storage, "read", "db.storage.read"),
    (Storage, "write", "db.storage.write"),
    (Storage, "write_sectors", "db.storage.write"),
    (TpccWorkload, "next_transaction", "tpcc.next_transaction"),
    (SiteProbe, "commit", "monitors.probe"),
    (SiteProbe, "crash", "monitors.probe"),
    (SiteProbe, "rejoin", "monitors.probe"),
    (SiteProbe, "snapshot", "monitors.probe"),
    (SiteProbe, "deliver", "monitors.probe"),
    (SiteProbe, "ordered", "monitors.probe"),
    (SiteProbe, "view", "monitors.probe"),
    (MonitorHub, "finish", "monitors.finish"),
    (ArtifactStore, "save", "runner.save"),
    (JournalWriter, "emit", "dashboard.journal"),
)


def _layer_of(fn: Callable) -> str:
    """``repro.gcs.reliable`` -> ``gcs``."""
    parts = getattr(fn, "__module__", "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary.  Call before any Scenario is built."""
    for cls, attr, name in _BOUNDARIES:
        tracer.install(cls, attr, name=name)

    def traced_submit_real(original):
        # host time inside a real job, bracketed by its tag (§2.3)
        def submit_real(self, fn, tag=CpuCostModel.TIMER, *args, **kwargs):
            job = tracer.wrap(f"csrt.real_job.{tag}", fn)
            return original(self, job, tag, *args, **kwargs)

        return submit_real

    def traced_schedule(original):
        # protocol timers: the callback runs as a real job later
        def schedule(self, delay, fn, *args):
            return original(self, delay, tracer.wrap(f"{_layer_of(fn)}.timer", fn), *args)

        return schedule

    tracer.install(SiteRuntime, "submit_real", make=traced_submit_real)
    tracer.install(SimulatedProtocolRuntime, "schedule", make=traced_schedule)


#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "kernel.events": "count",
    "kernel.events_per_tx": "count/tx",
    "kernel.self_s": "s",
    "cpu.jobs": "count",
    "cpu.submit_s": "s",
    "csrt.real_jobs": "count",
    "csrt.real_job_s.recv": "s",
    "csrt.real_job_s.timer": "s",
    "csrt.real_job_s.marshal": "s",
    "csrt.datagrams_out_per_tx": "count/tx",
    "gcs.self_s": "s",
    "gcs.multicasts": "count",
    "gcs.delivered": "count",
    "gcs.nacks": "count",
    "gcs.retransmits": "count",
    "gcs.flow_blocked_sim_s": "sim_s",
    "gcs.rejoin_sim_s": "sim_s",
    "net.route_calls": "count",
    "net.route_s": "s",
    "net.packets_per_tx": "count/tx",
    "net.drops": "count",
    "dbsm.certify_calls": "count",
    "dbsm.certify_s": "s",
    "dbsm.commit_ratio": "ratio",
    "protocols.client_submit_calls": "count",
    "protocols.client_submit_s": "s",
    "protocols.deliver_s": "s",
    "placement.route_calls": "count",
    "placement.route_s": "s",
    "placement.cross_share": "ratio",
    "db.submit_calls": "count",
    "db.apply_remote_calls": "count",
    "db.lock_calls": "count",
    "db.lock_s": "s",
    "db.storage_calls": "count",
    "db.storage_s": "s",
    "db.sectors": "count",
    "db.cache_hit_ratio": "ratio",
    "tpcc.next_transaction_calls": "count",
    "tpcc.next_transaction_s": "s",
    "monitors.probe_calls": "count",
    "monitors.probe_s": "s",
    "monitors.violations": "count",
    "experiment.build_s": "s",
    "experiment.run_s": "s",
    "campaigns.expand_s": "s",
    "runner.overhead_s": "s",
    "runner.save_s": "s",
    "dashboard.journal_s": "s",
    # the simulated system's own outputs, exact for a given seed
    "sim.latency_p50_ms": "ms",
    "sim.latency_p99_ms": "ms",
    "sim.latency_samples": "count",
    "sim.abort_rate": "ratio",
    # traced / untraced cost of the same cells, in reference units
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer, counters: Dict[str, float], sim: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, all but
    ``trace.overhead_ratio`` (which needs the untraced run).
    ``counters`` are the cells' exact counters summed over the pass and
    ``sim`` their pooled simulated outputs."""
    t, c = tracer, counters
    records = c.get("records", 0)
    run_s = t.total("experiment.run")
    build_s = t.total("experiment.build")
    runner_s = t.total("runner.run_campaign")
    values = {
        "kernel.events": c.get("kernel.events", 0),
        "kernel.events_per_tx": _ratio(c.get("kernel.events", 0), records),
        "kernel.self_s": t.self_time("experiment.run"),
        "cpu.jobs": t.count("cpu.submit"),
        "cpu.submit_s": t.self_time("cpu.submit"),
        "csrt.real_jobs": c.get("csrt.real_jobs", 0),
        "csrt.real_job_s.recv": t.total("csrt.real_job.recv"),
        "csrt.real_job_s.timer": t.total("csrt.real_job.timer"),
        "csrt.real_job_s.marshal": t.total("csrt.real_job.marshal"),
        "csrt.datagrams_out_per_tx": _ratio(c.get("csrt.datagrams_out", 0), records),
        "gcs.self_s": t.self_time("gcs"),
        "gcs.multicasts": c.get("gcs.multicasts", 0),
        "gcs.delivered": c.get("gcs.delivered", 0),
        "gcs.nacks": c.get("gcs.nacks", 0),
        "gcs.retransmits": c.get("gcs.retransmits", 0),
        "gcs.flow_blocked_sim_s": c.get("gcs.flow_blocked_sim_s", 0.0),
        "gcs.rejoin_sim_s": c.get("gcs.rejoin_sim_s", 0.0),
        "net.route_calls": t.count("net.route"),
        "net.route_s": t.self_time("net.route"),
        "net.packets_per_tx": _ratio(c.get("net.packets", 0), records),
        "net.drops": c.get("net.drops", 0),
        "dbsm.certify_calls": t.count("dbsm.certify"),
        "dbsm.certify_s": t.self_time("dbsm.certify"),
        "dbsm.commit_ratio": _ratio(
            c.get("dbsm.committed", 0), c.get("dbsm.certified", 0)
        ),
        "protocols.client_submit_calls": t.count("protocols.client_submit"),
        "protocols.client_submit_s": t.self_time("protocols.client_submit"),
        "protocols.deliver_s": t.self_time("protocols.deliver"),
        "placement.route_calls": t.count("placement.route"),
        "placement.route_s": t.self_time("placement.route"),
        "placement.cross_share": _ratio(
            c.get("placement.cross_fragment", 0),
            c.get("placement.cross_fragment", 0)
            + c.get("placement.single_fragment", 0),
        ),
        "db.submit_calls": t.count("db.submit"),
        "db.apply_remote_calls": t.count("db.apply_remote"),
        "db.lock_calls": t.count("db.lock"),
        "db.lock_s": t.self_time("db.lock"),
        "db.storage_calls": t.count("db.storage"),
        "db.storage_s": t.self_time("db.storage"),
        "db.sectors": c.get("db.sectors", 0),
        "db.cache_hit_ratio": _ratio(
            c.get("db.cache_hits", 0), t.count("db.storage.read")
        ),
        "tpcc.next_transaction_calls": t.count("tpcc.next_transaction"),
        "tpcc.next_transaction_s": t.self_time("tpcc.next_transaction"),
        "monitors.probe_calls": t.count("monitors.probe"),
        "monitors.probe_s": t.self_time("monitors.probe"),
        "monitors.violations": c.get("monitors.violations", 0),
        "experiment.build_s": build_s,
        "experiment.run_s": run_s,
        "campaigns.expand_s": t.total("campaigns.expand"),
        "runner.overhead_s": runner_s - build_s - run_s if runner_s else 0.0,
        "runner.save_s": t.total("runner.save"),
        "dashboard.journal_s": t.total("dashboard.journal"),
        "sim.latency_p50_ms": sim["sim_latency_p50_ms"],
        "sim.latency_p99_ms": sim["sim_latency_p99_ms"],
        "sim.latency_samples": sim["sim_latency_samples"],
        "sim.abort_rate": sim["sim_abort_rate"],
    }
    return values
