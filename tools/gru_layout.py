#!/usr/bin/env python3
"""Times the GRU recurrent product through the U.T view and a row-major copy.

    PYTHONPATH=src python3 tools/gru_layout.py --hidden 128

For each batch width B = 1..MAX_ROWS it steps the product of
`GruTagger._gru_layer`, `(B, h) @ (h, 3h)` once per direction into a
step-major buffer, through `U.T` (a transposed view) and through
`np.ascontiguousarray(U.T)`, and prints per B:
- the microseconds per step pair (both directions), view against copy,
  each the minimum over --repeats timings of --steps steps;
- whether the two layouts give the same bytes, over --draws random
  weight and state draws.
It then prints the cost of the two transposing copies that a layer call
makes, and the smallest B from which the copy is both byte-identical and
faster at every width up to MAX_ROWS. That B is what
`rucca.tagger.U_COPY_MIN_ROWS` should be on this BLAS build; the script
prints the constant too. BLAS runs on one thread, as in the benchmark.
"""

import argparse
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from rucca.tagger import U_COPY_MIN_ROWS  # noqa: E402


def step_pairs(hs, uts, rec):
    """One product per step and direction, as _gru_layer makes them."""
    for t in range(hs.shape[0]):
        for d in (0, 1):
            np.matmul(hs[t, d], uts[d], out=rec[t, d])


def time_layout(hs, uts, rec, repeats):
    """-> µs per step pair, the minimum over repeats."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step_pairs(hs, uts, rec)
        best = min(best, time.perf_counter() - start)
    return best / hs.shape[0] * 1e6


def same_bytes(rng, rows, hidden, draws):
    """Whether view and copy give the same bytes on every draw."""
    for _ in range(draws):
        u = rng.uniform(-0.1, 0.1, (3 * hidden, hidden))
        hs = rng.uniform(-1.0, 1.0, (1, 2, rows, hidden))
        out = [np.empty((1, 2, rows, 3 * hidden)) for _ in range(2)]
        step_pairs(hs, (u.T, u.T), out[0])
        copy = np.ascontiguousarray(u.T)
        step_pairs(hs, (copy, copy), out[1])
        if out[0].tobytes() != out[1].tobytes():
            return False
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--max-rows", type=int, default=16)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--draws", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if min(args.hidden, args.max_rows, args.steps, args.repeats,
           args.draws) < 1:
        ap.error("every count must be >= 1")
    rng = np.random.default_rng(args.seed)
    h = args.hidden
    us = [rng.uniform(-0.1, 0.1, (3 * h, h)) for _ in (0, 1)]
    views = [u.T for u in us]
    copies = [np.ascontiguousarray(v) for v in views]
    print("hidden %d, %d steps x %d repeats, numpy %s"
          % (h, args.steps, args.repeats, np.__version__))
    print("%4s %10s %10s %6s  %s" % ("B", "view_us", "copy_us", "ratio",
                                      "bytes"))
    good = []  # B at which the copy is identical and faster
    for rows in range(1, args.max_rows + 1):
        hs = rng.uniform(-1.0, 1.0, (args.steps, 2, rows, h))
        rec = np.empty((args.steps, 2, rows, 3 * h))
        view_us = time_layout(hs, views, rec, args.repeats)
        copy_us = time_layout(hs, copies, rec, args.repeats)
        same = same_bytes(rng, rows, h, args.draws)
        print("%4d %10.1f %10.1f %6.2f  %s" % (
            rows, view_us, copy_us, copy_us / view_us,
            "identical" if same else "differ"), flush=True)
        good.append(same and copy_us < view_us)
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        for v in views:
            np.ascontiguousarray(v)
        best = min(best, time.perf_counter() - start)
    print("two transposing copies per layer call: %.1f us" % (best * 1e6))
    start = next((rows for rows in range(args.max_rows, 0, -1)
                  if not good[rows - 1]), 0) + 1
    if start > args.max_rows:
        print("copy from: never up to B = %d" % args.max_rows)
    else:
        print("copy from: B = %d" % start)
    print("rucca.tagger.U_COPY_MIN_ROWS = %d" % U_COPY_MIN_ROWS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
