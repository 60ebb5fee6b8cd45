"""End-to-end benchmark of the HTTP serving tier, one workload per run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` generates the workload's inputs from the seed, sets the
service up, drives ``SearchHttpApp.dispatch`` with a closed loop of two
clients, checks a seeded sample of served answers against the brute-force
oracle and prints the metrics.  ``--trace 1`` adds a traced phase whose
spans give the per-layer numbers.  ``BENCHMARK.json`` at the repository
root lists the workloads and metrics.
"""
