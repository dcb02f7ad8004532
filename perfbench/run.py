"""Benchmark of opball: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload geometry|unitarize|fixpoint|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``
(through PYTHONPATH, not installed), with one BLAS thread and without
``OPBALL_SEED``.  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the
per-layer metrics; the line before it records the machine.  The full
result, with per-operation times, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("geometry", "unitarize", "fixpoint", "cli")
# set-up is measured in this many fresh processes: the measuring worker and
# SETUP_SAMPLES - 1 that stop where the first operation would start
SETUP_SAMPLES = 5
INTERPRETER_SAMPLES = 3
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OPBALL_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, env, deadline: float) -> dict:
    """Runs one worker in its own process group, so that on a timeout
    anything it started is stopped with it."""
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args[:4], repr(spawned_at),
         *args[4:]],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(setup: dict) -> float:
    """Process start to first timed operation, without the benchmark's own
    input generation."""
    return setup["ready"] - setup["spawned_at"] - setup["gen_s"]


def interpreter_ms(env) -> float:
    """Wall time of a bare ``python3 -c 'import numpy'``: the floor below
    which no import work in opball can bring a CLI command."""
    times = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "opball" / "__init__.py").is_file():
        print(f"no opball sources under {ROOT / 'src'}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    # the run's processes, which inherit this, stay on one CPU, so that the
    # reference kernel (calibration.py) times the core the operations ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()

    worker_args = [args.workload, str(args.seed), repr(args.seconds), str(args.trace)]
    probes = 0 if args.trace else SETUP_SAMPLES - 1

    def probe_setups(count):
        return [setup_seconds(run_worker(worker_args + ["--setup-only"], env,
                                         deadline)["setup"])
                for _ in range(count)]

    # half the probes before the measuring worker and half after it, so that
    # one slow phase of the machine cannot move the median
    setups = probe_setups(probes // 2)
    result = run_worker(worker_args, env, deadline)
    setups += [setup_seconds(result["setup"])] + probe_setups(probes - probes // 2)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["cli.interpreter_ms"] = interpreter_ms(env)
    else:
        # measured, not scaled like the other timings: loading code does
        # not follow the speed of the reference kernel (README.md)
        metrics["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result["metrics"] = metrics
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("# machine: " + json.dumps(result["machine"], sort_keys=True))
    if result["problems"] or result["failures"]:
        print("# problems: " + json.dumps(result["problems"] + list(result["failures"].items()))[:4000])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
