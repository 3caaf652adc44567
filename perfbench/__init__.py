"""The repository benchmark: three paper workloads measured on two clocks.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``perfbench/README.md``.
"""
