"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload unitarize --seeds 1-10 [--seconds S]

Runs the benchmark once per seed and prints, for every metric, the median
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json.  Also checks that the share of failed operations is the
same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(run)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in run["metrics"].items()),
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:16s} median {median:12.6g}  spread {spread:6.3f}  "
              f"bound {metric['bound']:.3f}  ({spread / metric['bound']:.2f} of bound)")
    return 0 if len(shares) == 1 and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
