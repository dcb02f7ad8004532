"""One benchmark process: import, build the fixed operation set, time it in
interleaved passes, then check every output.  ``run.py`` starts it with the
environment pinned and reads the one JSON line it prints.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, shared by both
processes, so set-up time includes interpreter start.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# passes an untraced run makes at least.  A unitarize pass takes 4 to 6 s,
# and a fourth pass gives each operation's best time one more try; on
# fixpoint, whose work changes with the seed, a third frame of every case
# (workloads.py) steadies a run more than a third pass does
MIN_PASSES = {"unitarize": 4, "fixpoint": 2}


def import_program(workload: str) -> float:
    """Import what the workload's user imports; returns the seconds taken."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    if workload == "cli":
        import opball.cli  # noqa: F401
    else:
        import opball  # noqa: F401
    return time.perf_counter() - t0


def time_passes(ops, seconds: float, min_passes: int, rng, on_output,
                tracer=None, calibrator=None):
    """Runs whole passes over ``ops``, each in a fresh seeded order, until
    the next pass would end after ``seconds`` (at least ``min_passes``).
    Every op keeps its fastest time; with a tracer, also the counters of
    that fastest run.  With a calibrator, the reference kernel runs between
    operations.  Returns (best seconds, passes, failures, snapshots)."""
    n = len(ops)
    best = [math.inf] * n
    snaps = [None] * n
    failures = {}
    passes = 0
    t_begin = time.perf_counter()
    last = 0.0
    while passes < min_passes or time.perf_counter() - t_begin + last <= seconds:
        t_pass = time.perf_counter()
        for i in rng.permutation(n):
            op = ops[i]
            args = op.fresh_args()
            if tracer is not None:
                tracer.reset()
                tracer.op = int(i)
                tracer.active = True
            try:
                t0 = time.perf_counter()
                raw = op.call(*args)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                failures[op.label] = f"{type(exc).__name__}: {exc}"
                on_output(i, None)
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
                    tracer.stack.clear()
            if calibrator is not None:
                calibrator.pay(int(i), t0, dt)
            if dt < best[i]:
                best[i] = dt
                if tracer is not None:
                    snaps[i] = tracer.snapshot()
            on_output(i, raw)
        if tracer is not None:
            tracer.record = False
        passes += 1
        last = time.perf_counter() - t_pass
    return best, passes, failures, snaps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values) -> tuple:
    """The highest percentile with at least ten values beyond it, and that
    percentile; below 40 values, the mean of the slowest quarter and the
    percentile where that quarter starts (see README.md)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        k = max(1, n // 4)
        return statistics.fmean(ordered[-k:]), 100.0 * (n - k) / n
    return ordered[n - 11], 100.0 * (n - 10) / n


def timings(best) -> dict:
    """The timing metrics of best-of-passes times."""
    best = [b for b in best if math.isfinite(b)]
    return {
        "ops_per_s": len(best) / sum(best),
        "op_ms_p50": 1e3 * statistics.median(best),
        "op_ms_tail": 1e3 * tail(best)[0],
    }


def end_to_end(scaled, measured, errors) -> dict:
    """Timings of the scaled best times (calibration.py), and the accuracy;
    the details keep the measured timings."""
    worst = max(errors) if errors else 0.0
    return {**timings(scaled),
            "accuracy_digits": -math.log10(max(worst, 1e-17))}, {
        "op_ms_tail_percentile": tail([b for b in measured if math.isfinite(b)])[1],
        "measured": timings(measured)}


def per_layer(snapshots, import_s: float, overhead: float) -> dict:
    import tracer
    rows = [tracer.per_op_metrics(s) for s in snapshots]
    out = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    accepted = sum(s["counts"].get("accepted_steps", 0) for s in snapshots)
    evals = sum(s["counts"].get("fixedpoint.displacement", 0) for s in snapshots)
    out["fixedpoint.step_acceptance"] = accepted / evals if evals else 0.0
    out["cli.import_ms"] = 1e3 * import_s
    out["trace.overhead_pct"] = 100.0 * overhead
    return out


def main(argv) -> int:
    workload, seed, seconds, trace, spawned_at = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), bool(int(trace))
    import_s = import_program(workload)
    setup = {"ready": time.perf_counter(), "spawned_at": float(spawned_at),
             "import_s": import_s, "gen_s": 0.0}
    if "--setup-only" in argv:
        print(json.dumps({"setup": setup}))
        return 0

    import numpy as np

    t_gen = time.perf_counter()
    if workload == "cli":
        import cli_workload
        runner = cli_workload.CliRunner(seed)
        ops = runner.ops
    else:
        import workloads
        ops = workloads.BUILDERS[workload](seed)
    order_rng = np.random.default_rng([seed, 99])
    setup["gen_s"] = time.perf_counter() - t_gen
    setup["ready"] = time.perf_counter()

    first_outputs = [None] * len(ops)
    changed = []
    tally = {"attempted": 0, "failed": 0}

    def on_output(i, raw):
        tally["attempted"] += 1
        if raw is None:
            tally["failed"] += 1
            return
        out = raw if workload == "cli" else workloads.outputs(ops[i].kind, raw)
        if first_outputs[i] is None:
            first_outputs[i] = out
        elif not _same(first_outputs[i], out):
            changed.append((i, out))

    result = {"workload": workload, "seed": seed, "trace": trace, "ops": len(ops),
              "labels": [op.label for op in ops], "setup": setup}
    if trace:
        base, base_passes, failures, _ = time_passes(ops, seconds / 2, 2,
                                                     order_rng, on_output)
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        tr.record = True
        best, passes, more, snapshots = time_passes(ops, seconds / 2, 2,
                                                    order_rng, on_output, tr)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write_spans(os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl"))
        failures.update(more)
        result.update(untraced_passes=base_passes, untraced_best_s=base)
        ok = [i for i in range(len(ops)) if snapshots[i] is not None
              and math.isfinite(base[i])]
        result["metrics"] = per_layer(
            [snapshots[i] for i in ok], import_s,
            sum(best[i] for i in ok) / sum(base[i] for i in ok) - 1.0)
    else:
        import calibration
        calibrator = calibration.Calibrator()
        best, passes, failures, _ = time_passes(
            ops, seconds, MIN_PASSES.get(workload, 3), order_rng, on_output,
            calibrator=calibrator)
        result["calibration"] = calibrator.summary()
        result["scaled_best_s"] = calibrator.scaled_best(len(ops))
    result.update(peak_rss_mb=peak_rss_mb(),
                  passes=passes, best_s=best, failures=failures,
                  machine=machine(), **tally)

    # checks run after the timed passes, so a reference computation never
    # shares the CPU with a measurement
    t_check = time.perf_counter()
    import checks
    verify = runner.verify if workload == "cli" else checks.verify
    errors, problems = [], []
    if workload == "cli":
        for i, out in changed:
            try:
                cli_workload.same_stdout(ops[i].label, first_outputs[i], out)
            except checks.CheckFailed as exc:
                problems.append(str(exc))
        changed = []
    for i, out in list(enumerate(first_outputs)) + changed:
        if out is None:
            continue
        try:
            errors.extend(verify(ops[i], out))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    if workload == "cli":
        runner.close()
    result.update(check_s=time.perf_counter() - t_check, problems=problems,
                  outputs_differing_between_passes=len(changed),
                  correct=not problems)
    if not trace:
        result["metrics"], result["details"] = end_to_end(
            result["scaled_best_s"], best, errors)
        result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    print(json.dumps(result))
    return 0


def machine() -> dict:
    import numpy
    import scipy
    config = numpy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "opball": sys.modules["opball"].__file__,
    }


def _same(a, b) -> bool:
    import numpy as np
    if isinstance(a, bytes):
        return a == b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
