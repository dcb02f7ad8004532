"""Reference figures: the single-call timings of the ROADMAP's "Measured
baseline", taken the same way (median of repeated ``perf_counter`` calls
on the program's own test representations, at seed 7 as in the README's
library example; at seed 0 the Q8 representation acts as a group of order
2 only), next to the figures recorded there.  They are not part of the
benchmark's metrics.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/baseline.py
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import opball as ob

RECORDED_MS = {
    "distance 3x2": 0.14,
    "convex_combination 3x2": 0.68,
    "group_closure Q8 (5,2)": 55.0,
    "chebyshev-iterate Q8 (5,2) cond 50": 1340.0,
    "unitarize C12 (6,3) cond 50": 58.0,
    "import opball.cli": 800.0,
}


def median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def import_ms(repeat: int = 5) -> float:
    code = ("import time; t = time.perf_counter(); import opball.cli; "
            "print(time.perf_counter() - t)")
    return 1e3 * statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE, text=True).stdout)
        for _ in range(repeat))


def main() -> int:
    rng = np.random.default_rng(0)
    a = ob.sampling.random_ball_point(rng, 3, 2)
    b = ob.sampling.random_ball_point(rng, 3, 2)
    q8 = ob.make_test_representation("Q8", ob.PontryaginSignature(5, 2), 50.0, seed=7)
    autos = [ob.BallAutomorphism(m, 5, 2) for m in q8.images]
    group = ob.group_closure(autos)
    c12 = ob.make_test_representation("C12", ob.PontryaginSignature(6, 3), 50.0, seed=7)
    today = {
        "distance 3x2": median_ms(lambda: ob.distance(a, b), 2000),
        "convex_combination 3x2": median_ms(lambda: ob.convex_combination(a, b, 0.3), 500),
        "group_closure Q8 (5,2)": median_ms(lambda: ob.group_closure(autos), 7),
        "chebyshev-iterate Q8 (5,2) cond 50": median_ms(
            lambda: ob.find_fixed_point(group, mode="chebyshev-iterate"), 3),
        "unitarize C12 (6,3) cond 50": median_ms(lambda: ob.unitarize(c12), 7),
        "import opball.cli": import_ms(),
    }
    print(f"{'figure':38s} {'ROADMAP ms':>11s} {'today ms':>10s}")
    for name, recorded in RECORDED_MS.items():
        print(f"{name:38s} {recorded:11.2f} {today[name]:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
