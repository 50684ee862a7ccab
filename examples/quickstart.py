#!/usr/bin/env python
"""Quickstart: run a replicated database under realistic load.

Builds a 3-site Database State Machine cluster on a simulated 100 Mbit/s
Ethernet, drives it with 150 TPC-C clients, and prints the numbers the
paper reports — throughput, latency, per-class abort rates, resource
usage — via the :mod:`repro.analysis` metric registry (every number a
report derives has a registered name), then verifies the safety
condition (every replica committed the same sequence of transactions).

Next steps: pass ``protocol="primary-copy"`` to compare passive
replication (see examples/protocol_comparison.py or
``python -m repro.runner run fig5 --protocol all``), and add ``faults={...}`` with
crash / recover / partition / heal actions to exercise the fault model
(see examples/fault_injection_campaign.py and README "Fault model &
recovery").

Run:  python examples/quickstart.py
"""

from repro import Scenario, ScenarioConfig
from repro.analysis import ResultSet, class_abort_table, get_metric, render_text

HEADLINE = (
    "sim_time",
    "throughput_tpm",
    "mean_latency_ms",
    "abort_rate",
    "cpu_total",
    "cpu_protocol",
    "disk",
    "net_kbps",
)


def main() -> None:
    config = ScenarioConfig(
        sites=3,  # replicated database with 3 single-CPU sites
        cpus_per_site=1,
        clients=150,  # closed-loop TPC-C terminals, 12 s mean think time
        transactions=1500,  # stop after this many completions
        seed=2005,
    )
    print(f"running {config.sites} sites / {config.clients} clients ...\n")
    result = Scenario(config).run()

    for name in HEADLINE:
        metric = get_metric(name)
        print(f"{name:<16s} {metric.fmt.format(metric(result)):>10s} "
              f"{metric.unit:<8s} {metric.description}")

    rs = ResultSet.from_results([("quickstart", result, {})])
    print(render_text(
        class_abort_table(rs, "protocol"),
        title="abort rates by class (%)",
        col_names={"dbsm": "abort %"},
    ))

    counts = result.check_safety()
    print(f"\nsafety check passed: every site committed the same sequence "
          f"({counts})")


if __name__ == "__main__":
    main()
