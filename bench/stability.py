"""Run bench/run.py once per seed, one run at a time, and report the spread.

    python3 bench/stability.py --workload host_cli --seeds 1-10 --seconds 20

For each metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
that median. With --json FILE that summary, the sample counts and every
run's values are written there as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a or a-b")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "iqr_over_median": spread}
        print(f"{name:34s} median={median:.6g} {first['unit']}  iqr/median={spread:.4f}")
    if args.json:
        report = {
            "workload": args.workload,
            "seconds": float(args.seconds),
            "runs": len(runs),
            "ops_attempted_per_run": [r["attempted"] for r in runs],
            "ops_failed_per_run": [r["failed"] for r in runs],
            "metrics": summary,
            "values": runs,
        }
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
