"""Set-up probe for run.py's setup_s: a fresh interpreter imports hidden_ar
and builds the workload's ExperimentConfig, then prints "ready" at the point
where ``hidden-ar montecarlo`` would call run_monte_carlo.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import run

if __name__ == "__main__":
    run.build_config(run.workload_document(sys.argv[1]), int(sys.argv[2]))
    print("ready", flush=True)
