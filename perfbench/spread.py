"""Run the benchmark on several seeds and record each metric's spread.

    python3 perfbench/spread.py --workload model-sweep --seeds 7-16 --out spread.json

Runs ``run.py`` once per seed, one run at a time, from the current
directory (the root of a spinorlab checkout), and writes the environment
(nproc, CPU model, Python and numpy versions, load average at start) and,
per metric, every value with its median, quartiles and spread = (q3 - q1)
/ median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
    }


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    ordered = sorted(values)
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "min": ordered[0],
        "max": ordered[-1],
        # the highest percentile with at least ten runs beyond it
        "p_high": ordered[len(values) - 11] if len(values) > 10 else None,
        "values": values,
    }


def parse_seeds(text):
    """'7-16' is an inclusive range; '7,15' a list."""
    if "," in text:
        return [int(x) for x in text.split(",")]
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="7-16", help="inclusive range, e.g. 7-16, or a list, e.g. 7,15")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]
    record = {"environment": environment(), "workload": args.workload,
              "seconds": seconds, "trace": args.trace, "runs": []}
    per_metric = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        raw = [json.loads(line) for line in out.stderr.splitlines() if line.startswith('{"reps"')]
        record["runs"].append({"seed": seed, **result, **(raw[-1] if raw else {})})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]),
            file=sys.stderr)
    record["metrics"] = {k: summarize(v) for k, v in per_metric.items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, s in record["metrics"].items():
        if args.trace == 0:
            print(f"{args.workload} {name}: median {s['median']:.4g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
