"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads mc_reference,mc_horizons --seeds 1-10 \
        --seconds 15 --trace 0 [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. With
--out it also writes the per-seed values, the summary and the machine
(nproc, CPU model, Python, numpy and scipy versions) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the values and summary to this JSON file")
    args = parser.parse_args()

    results: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        results[workload] = {
            name: {"unit": units[name], "values": vals, **summary(vals)} for name, vals in values.items()
        }
        for name, row in results[workload].items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(
                f"{workload:14s} {name:30s} median {row['median']:.6g} {row['unit']} "
                f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread} (n={len(row['values'])})"
            )
    if args.out:
        document = {
            "machine": machine(),
            "settings": {"seconds": args.seconds, "trace": args.trace, "seeds": parse_seeds(args.seeds)},
            "workloads": results,
        }
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
