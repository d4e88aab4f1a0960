#!/usr/bin/env python3
"""Digests of every file one benchmark workload's flow writes.

    PYTHONPATH=src python3 tools/flow_digests.py --workload gru-pipeline \\
        --seed 1,2,3 --dir /tmp/flow > after.txt

runs the flow once per seed, each in its own process under DIR/seed<N>,
and prints a `## seed N` line, on stdout and on stderr, before that
seed's output. A flow writes the workload's inputs with perfbench's
`bench.Inputs`, runs its commands once through `rucca.cli.main`
(expand, train for a trained workload, tune, parse with `--trace`,
eval), and keeps each command's stdout as `<command>.stdout`; its
listing is one `sha256  file` line per file it wrote. A checkpoint
(`.ckpt`) gets one more line, `sha256  <file>:body`, over its bytes
after the header, so that a change to the header alone shows as one
changed line next to an unchanged body line. After each command the
flow prints `seconds <command> <s>`, the command's wall time, and
`peak_rss_mb <command> <MB>`, its process's peak resident set so far
(`ru_maxrss`, as the benchmark reads it), to stderr, so one run checks
byte identity on stdout and time and memory on stderr. Each seed's
process starts fresh, so its peak belongs to that seed alone. Each time
is one unrepeated run, so compare several runs before reading a
difference into it. `rucca` is imported from PYTHONPATH, so the same
script runs against another checkout:

    PYTHONPATH=../other/src python3 tools/flow_digests.py ... > before.txt
    diff before.txt after.txt

Use the same DIR (emptied in between) for both runs: configs, stdout and
traces name their files by absolute path. DIR must be empty or absent.
BLAS runs on one thread, as in the benchmark.

    PYTHONPATH=src python3 tools/flow_digests.py --workload oracle-long \
        --seed 1,2 --dir /tmp/flow --parent ../other/src

does both runs per seed: the flow under SRC's `rucca`, then, in the same
emptied DIR/seed<N>, under this checkout's src. After each `## seed N`
line it prints the listing lines that differ, `- ` for SRC's and `+ `
for this checkout's, or `identical`; the exit code is 1 when a seed
differs.

    PYTHONPATH=src python3 tools/flow_digests.py --golden \
        tests/golden_listing.txt --dir /tmp/flow

runs a tiny flow of each workload (TINY: few passages, a small model,
few epochs) at GOLDEN_SEED in this process and writes their golden
listing to the given file: per workload, one `sha256  <workload>/<file>`
line for each file of GOLDEN_FILES and the tuned config's
`remote_threshold` line. Those files name no absolute path, so the
listing does not depend on DIR; it leaves out the checkpoint, whose
bytes depend on the numpy and BLAS build. Its first line records the
numpy version. tests/test_golden_listing.py reruns it and names every
file whose digest differs from the committed listing.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import resource
import shutil
import struct
import subprocess
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import bench  # noqa: E402
import numpy  # noqa: E402
import rucca  # noqa: E402
from rucca import cli  # noqa: E402
from rucca.tagger import MAGIC  # noqa: E402

_GRU = bench.WORKLOADS["gru-pipeline"]
# each workload's flow shrunk to a few seconds
TINY = {
    # trained enough that its parse recurses and fires the MWE constraint
    "gru-pipeline": dataclasses.replace(
        _GRU, sets={"train": 6, "dev": 2, "test": 8},
        config={**_GRU.config, "epochs": "6", "hidden": "16",
                "learning_rate": "0.02"}),
    "oracle-long": dataclasses.replace(bench.WORKLOADS["oracle-long"],
                                       sets={"gold": 3}),
}
GOLDEN_SEED = 1
GOLDEN_FILES = ("eval.stdout", "expanded.jsonl", "parse.trace",
                "predictions.jsonl", "report.json", "train.log")


def run_flow(workload, seed, directory):
    """Writes a Workload's inputs and runs every command once; returns 0,
    or the exit code of the first command that failed."""
    inputs = bench.Inputs(workload, seed, directory)
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


def listing(directory):
    """Prints the `sha256  file` lines of every file in directory."""
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as f:
            print("%s  %s" % (hashlib.sha256(f.read()).hexdigest(), name))
        if name.endswith(".ckpt"):
            print("%s  %s:body" % (body_digest(path), name))


def golden(out, directory):
    """Runs the TINY flows and writes their golden listing to out;
    returns 0, or the exit code of the first command that failed."""
    lines = ["# numpy %s" % numpy.__version__]
    for name, workload in sorted(TINY.items()):
        flow = os.path.join(directory, name)
        os.makedirs(flow)
        rc = run_flow(workload, GOLDEN_SEED, flow)
        if rc != 0:
            return rc
        for file in GOLDEN_FILES:
            path = os.path.join(flow, file)
            if os.path.exists(path):
                with open(path, "rb") as f:
                    lines.append("%s  %s/%s" % (
                        hashlib.sha256(f.read()).hexdigest(), name, file))
        with open(os.path.join(flow, "tuned.cfg"), encoding="utf-8") as f:
            lines.extend("%s  %s/tuned.cfg" % (line.strip(), name)
                         for line in f if line.startswith("remote_threshold"))
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def one_command(workload, seed, directory):
    """The command that runs one seed's flow under DIR/seed<N>."""
    return [sys.executable, os.path.abspath(__file__), "--one",
            "--workload", workload, "--seed", str(seed),
            "--dir", os.path.join(directory, "seed%d" % seed)]


def compare(workload, seeds, directory, parent):
    """Runs each seed's flow under parent's rucca, then under this
    checkout's in the same emptied directory, and prints the listing
    lines that differ, or `identical`; returns 1 when a seed differs, or
    the exit code of the first flow that failed."""
    differ = False
    for seed in seeds:
        for stream in (sys.stdout, sys.stderr):
            print("## seed %d" % seed, file=stream, flush=True)
        command = one_command(workload, seed, directory)
        listings = []
        for src in (os.path.abspath(parent), os.path.join(ROOT, "src")):
            shutil.rmtree(command[-1], ignore_errors=True)
            print("rucca from %s" % src, file=sys.stderr, flush=True)
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
            if run.returncode != 0:
                return run.returncode
            listings.append(run.stdout.splitlines())
        before, after = listings
        lines = (["- " + line for line in before if line not in after]
                 + ["+ " + line for line in after if line not in before])
        print("\n".join(lines) or "identical", flush=True)
        differ = differ or bool(lines)
    return 1 if differ else 0


def seed_list(text):
    return [int(seed) for seed in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=seed_list,
                    help="a seed, or seeds separated by commas")
    ap.add_argument("--golden", metavar="OUT",
                    help="write the TINY flows' golden listing to OUT "
                    "instead")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--parent", metavar="SRC",
                    help="run each seed under SRC and under this checkout's "
                    "src, and print the listing lines that differ")
    # one seed's flow and listing in this process, straight into DIR
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.golden and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required without --golden")
    if args.golden and args.parent:
        ap.error("--parent compares flows, not golden listings")
    directory = os.path.abspath(args.dir)
    os.makedirs(directory, exist_ok=True)
    if os.listdir(directory):
        ap.error("%s is not empty" % args.dir)
    if args.golden:
        return golden(args.golden, directory)
    if args.one:
        rc = run_flow(bench.WORKLOADS[args.workload], args.seed[0],
                      directory)
        listing(directory)
        return rc
    if args.parent:
        return compare(args.workload, args.seed, directory, args.parent)
    print("rucca from %s" % os.path.dirname(rucca.__file__), file=sys.stderr)
    for seed in args.seed:
        for stream in (sys.stdout, sys.stderr):
            print("## seed %d" % seed, file=stream, flush=True)
        rc = subprocess.call(one_command(args.workload, seed, directory))
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
