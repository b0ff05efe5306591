#!/usr/bin/env python3
"""Benchmark the greedy-selection kernel.

Runs the full greedy loop (alpha=1, keep half the nodes) through
`find_subset` on random second-moment matrices of growing width and reports
the best of --repeats wall times. For widths up to 128 it also runs the naive
reference path (O(m) Cholesky solves per step) and checks that both select
the same subset.

Set the BLAS thread count before starting, e.g. OPENBLAS_NUM_THREADS=1.

Usage:
  python benchmarks/bench_greedy.py [--sizes 64 128 256 512 1024] [--repeats 3]
"""

import argparse
import time

import numpy as np

from specprune import spectral as sp

NAIVE_MAX_WIDTH = 128


def run(sigma, keep, strategy="incremental"):
    """Time one full greedy run; returns (seconds, plan)."""
    t0 = time.perf_counter()
    plan = sp.find_subset(sigma, sp.GreedyConfig(alpha=1.0, max_cardinality=keep),
                          strategy=strategy)
    return time.perf_counter() - t0, plan


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[64, 128, 256, 512, 1024])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'m':>6} {'keep':>6} {'time (ms)':>12}  naive agrees")
    rng = np.random.default_rng(0)
    for m in args.sizes:
        a = rng.normal(size=(4 * m, m))
        sigma = a.T @ a / (4 * m)
        keep = m // 2
        t, plan = min((run(sigma, keep) for _ in range(args.repeats)),
                      key=lambda r: r[0])
        agrees = "-"
        if m <= NAIVE_MAX_WIDTH:
            naive = run(sigma, keep, strategy="naive")[1]
            assert naive.selected == plan.selected, "incremental and naive paths disagree"
            agrees = "yes"
        print(f"{m:>6} {keep:>6} {t * 1e3:>12.2f}  {agrees}")


if __name__ == "__main__":
    main()
