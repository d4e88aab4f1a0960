#!/usr/bin/env python3
"""Digests of every file one benchmark workload's flow writes.

    PYTHONPATH=src python3 tools/flow_digests.py --workload gru-pipeline \\
        --seed 1 --dir /tmp/flow > after.txt

writes the workload's inputs into DIR with perfbench's `bench.Inputs`,
runs its commands once through `rucca.cli.main` (expand, train for a
trained workload, tune, parse with `--trace`, eval), keeps each command's
stdout as `<command>.stdout`, and prints one `sha256  file` line per file
in DIR. A checkpoint (`.ckpt`) gets one more line, `sha256  <file>:body`,
over its bytes after the header, so that a change to the header alone
shows as one changed line next to an unchanged body line. After each
command it prints `seconds <command> <s>`, the command's wall time, and
`peak_rss_mb <command> <MB>`, the process's peak resident set so far
(`ru_maxrss`, as the benchmark reads it), to stderr, so one run checks
byte identity on stdout and time and memory on stderr. Each time is one unrepeated run, so compare several runs before
reading a difference into it. `rucca` is imported from PYTHONPATH, so
the same script runs against another checkout:

    PYTHONPATH=../other/src python3 tools/flow_digests.py ... > before.txt
    diff before.txt after.txt

Use the same DIR (emptied in between) for both runs: configs, stdout and
traces name their files by absolute path. DIR must be empty or absent.
BLAS runs on one thread, as in the benchmark.
"""

import argparse
import contextlib
import hashlib
import io
import os
import resource
import struct
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench  # noqa: E402
import rucca  # noqa: E402
from rucca import cli  # noqa: E402
from rucca.tagger import MAGIC  # noqa: E402


def run_flow(workload, seed, directory):
    """Writes the inputs and runs every command once; returns 0, or the
    exit code of the first command that failed."""
    inputs = bench.Inputs(bench.WORKLOADS[workload], seed, directory)
    inputs.write()
    for step in inputs.steps():
        argv = list(step.argv)
        if step.name == "parse":
            argv += ["--trace", inputs.path("parse.trace")]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        with open(inputs.path(step.name + ".stdout"), "w",
                  encoding="utf-8") as f:
            f.write(out.getvalue())
        print("seconds %s %.4f" % (step.name, seconds), file=sys.stderr)
        print("peak_rss_mb %s %.1f" % (
            step.name,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            file=sys.stderr)
        if rc != 0:
            print("%s exited with %d" % (step.name, rc), file=sys.stderr)
            return rc
    return 0


def body_digest(path):
    """The sha256 of a checkpoint's bytes after its header."""
    with open(path, "rb") as f:
        f.seek(len(MAGIC))
        (size,) = struct.unpack("<Q", f.read(8))
        f.seek(size, os.SEEK_CUR)
        return hashlib.sha256(f.read()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    if os.listdir(args.dir):
        ap.error("%s is not empty" % args.dir)
    print("rucca from %s" % os.path.dirname(rucca.__file__), file=sys.stderr)
    rc = run_flow(args.workload, args.seed, os.path.abspath(args.dir))
    for name in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, name)
        with open(path, "rb") as f:
            print("%s  %s" % (hashlib.sha256(f.read()).hexdigest(), name))
        if name.endswith(".ckpt"):
            print("%s  %s:body" % (body_digest(path), name))
    return rc


if __name__ == "__main__":
    sys.exit(main())
