"""The repository's benchmark: workloads, tracer and worker processes.

Run it with ``python3 simbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see README.md in this directory.
"""
