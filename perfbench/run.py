#!/usr/bin/env python3
"""Benchmark of the rucca command line.

Run from the repository root:

    python3 perfbench/run.py --workload gru-pipeline --seed 1 \\
        --seconds 30 --trace 0

`--workload all` runs every workload in turn, each in a process of its
own, so that each reports its own peak memory. Each workload prints a line
recording the environment, then one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0
when every correctness gate held, 1 when one failed, and 2 when the rucca
sources are missing.
Inputs are written under .perfbench_run/ and removed afterwards; a traced
run leaves its spans there.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
# BLAS threads, pinned for every run. At hidden=128 the matrices are too
# small for a second thread to pay (see README.md).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("gru-pipeline", "oracle-long")


def git_commit(root):
    """Commit of a git checkout at `root`, read from .git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "commit": git_commit(ROOT)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "rucca", "cli.py")):
        print("error: rucca sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    # numpy reads the thread settings when it is first imported.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # rucca lets RUCCA_<KEY> variables override its config file.
    for var in [v for v in os.environ if v.startswith("RUCCA_")]:
        del os.environ[var]
    sys.path.insert(0, SRC)
    import bench

    os.makedirs(WORK, exist_ok=True)
    name = args.workload
    directory = tempfile.mkdtemp(prefix="%s-%d-" % (name, args.seed),
                                 dir=WORK)
    spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (name, args.seed))
    try:
        result = bench.run_workload(
            bench.WORKLOADS[name], args.seed, args.seconds,
            bool(args.trace), directory, spans if args.trace else None)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("environment " + json.dumps(environment(args, name),
                                      sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in a child process, one after another; returns the
    first non-zero exit code, or 0."""
    codes = []
    for name in WORKLOADS:
        sys.stdout.flush()
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
