"""Workloads, measurement loop and metrics of the rucca benchmark.

Each workload is one user flow of the `rucca` command line, driven
in-process through `rucca.cli.main` on a corpus generated from the seed
(corpusgen.py). One caller runs the commands in a closed loop:

1. Set-up: generate the corpus and write its files and config.
2. Warm-up pass: every command of the flow once, in order. It trains the
   model and fills caches, and is not timed into any metric.
3. For `seconds` after the warm-up: run again the repeatable command with
   the fewest measured runs, up to MIN_RUNS, then the one with the least
   measured time so far, if its last run fits in the time left, and
   repeat the set-up SETUP_REPEATS times in all, spread over the window.
   Figures are medians over the runs in the window, and every set-up
   must write the same bytes.

Each measured time is scaled to the machine's speed while it was taken
(Stopwatch): a fixed reference work that does not use rucca
(reference_s) is timed before, after and every PROBE_INTERVAL seconds
during the command, and the time is multiplied by REFERENCE_S over their
mean. On a shared machine the speed of one CPU changes by as much as
1.6x from one minute to the next; the scaling takes most of that out, so
that the figures of two runs differ by what the program did, not by when
they ran. The unscaled medians are printed too.

Every run of a command must exit 0 and write the same bytes as its first
run. The traced run (`trace=True`) makes one traced pass, set-up
included, that gives the per-layer figures (layertrace.py), and then
untraced and traced runs of each command in turn that give the tracing
overhead.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy

import corpusgen
import layertrace
from rucca import cli

SETUP_REPEATS = 21
# Runs of each command taken in turn before the window is shared by
# measured time.
MIN_RUNS = 3
# Median of reference_s() on the machine of baseline.json, so that scaled
# times read as seconds on that machine.
REFERENCE_S = 0.004
# Seconds between two timings of the reference work inside a command.
PROBE_INTERVAL = 0.25
# The trained model must recurse: at least this share of the gold
# non-terminals per sentence must come back as predicted ones.
MIN_RECURSION = 0.5


def reference_s():
    """Wall time of a fixed work that does not use rucca, made of what
    rucca's own work is made of: Python dict, tuple and sort work, and
    small numpy products. The best of two, so that a pause counts less."""
    matrix, vectors = numpy.ones((128, 384)), numpy.ones((384, 12))
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {("k", i): str(i) for i in range(6000)}
        sorted(table.values())
        for _ in range(40):
            numpy.tanh(matrix @ vectors)
        best = min(best, time.perf_counter() - start)
    return best


class Stopwatch:
    """Wall time of a block and, with `probe`, the machine's speed over it.

    With `probe`, reference_s() runs before the block, after it, and from
    a timer signal every PROBE_INTERVAL seconds inside it; `reference` is
    the mean of these timings and `elapsed` leaves out the time they took.
    """

    def __init__(self, probe=True):
        self.probe = probe
        self.probes = []
        self.spent = 0.0  # in reference work inside the block
        self.elapsed = self.reference = None

    def _probe(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.probe:
            self._probe()
            self.spent = 0.0
            self._handler = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL,
                             PROBE_INTERVAL)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
            self.elapsed = end - self.start - self.spent
            self._probe()
            self.reference = statistics.mean(self.probes)
        else:
            self.elapsed = end - self.start


def scaled(elapsed, reference):
    """`elapsed` in seconds at the speed where reference_s() is
    REFERENCE_S, given its mean time while `elapsed` was taken."""
    return elapsed * REFERENCE_S / reference


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: bool  # parse with the oracle tagger instead of a trained one
    scenes: tuple  # (min, max) scenes per passage
    sets: dict  # passage set name -> passage count
    train_set: str  # input of expand (and train)
    dev_set: str  # input of tune
    test_set: str  # input of parse and gold side of eval
    config: dict = field(default_factory=dict)  # extra rucca config keys


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gru-pipeline",
        oracle=False, scenes=(1, 5),
        sets={"train": 8, "dev": 4, "test": 16},
        train_set="train", dev_set="dev", test_set="test",
        # Enough updates that the model recurses about as deep as gold.
        # Gold trees are at most 3 deep; the depth cap keeps a rare chain
        # of one-child nodes from dominating a run's parse time.
        config={"epochs": "12", "learning_rate": "0.005",
                "batch_size": "4", "hidden": "128", "seed": "13",
                "max_depth": "8"}),
    Workload(
        name="oracle-long",
        oracle=True, scenes=(3, 7), sets={"gold": 10},
        train_set="gold", dev_set="gold", test_set="gold"),
)}


@dataclass
class Step:
    name: str  # rucca command
    argv: list
    sentences: int  # sentences or passages the command receives
    output: str  # file the command writes
    repeat: bool = True  # may run again after the first pass


def _file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f
                if line.strip() and not line.startswith("#")]


class Inputs:
    """The generated corpus of one seed and the config that points at it."""

    def __init__(self, workload, seed, directory):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.config = self.path("run.cfg")
        self.tuned = self.path("tuned.cfg")
        self.corpus = None

    def path(self, name):
        return os.path.join(self.directory, name)

    def write(self):
        """Generate and write every input file; returns their digests."""
        w = self.workload
        self.corpus = corpusgen.write_corpus(self.directory, self.seed,
                                             w.scenes, w.sets)
        values = {
            "train_passages": self.path(w.train_set + ".jsonl"),
            "expanded": self.path("expanded.jsonl"),
            "expanded_out": self.path("expanded.jsonl"),
            "model": self.path("model.ckpt"),
            "train_log": self.path("train.log"),
            "predictions_out": self.path("predictions.jsonl"),
            "report_out": self.path("report.json"),
            "lexicon": self.path("mwe.txt"),
            "action_nouns": self.path("action_nouns.txt"),
        }
        values.update(w.config)
        corpusgen.write_lines(["%s=%s" % kv for kv in sorted(values.items())],
                              self.config)
        files = [name + ext for name in w.sets for ext in (".jsonl", ".conll")]
        return {f: _file_digest(self.path(f))
                for f in files + ["mwe.txt", "action_nouns.txt", "run.cfg"]}

    def steps(self):
        w = self.workload
        oracle = ["--oracle"] if w.oracle else []
        base = ["--config", self.config]
        tuned = ["--config", self.tuned]
        n_train = len(self.corpus[w.train_set])
        n_test = len(self.corpus[w.test_set])
        test_input = self.path(w.test_set + (".jsonl" if w.oracle
                                             else ".conll"))
        steps = [Step("expand", base + ["expand"], n_train,
                      self.path("expanded.jsonl"))]
        if not w.oracle:
            steps.append(Step("train", base + ["train"], n_train,
                              self.path("model.ckpt"), repeat=False))
        steps += [
            Step("tune", base + ["tune"] + oracle
                 + ["--dev", self.path(w.dev_set + ".jsonl"),
                    "--out", self.tuned],
                 len(self.corpus[w.dev_set]), self.tuned),
            Step("parse", tuned + ["parse"] + oracle
                 + ["--input", test_input],
                 n_test, self.path("predictions.jsonl")),
            Step("eval", tuned + ["eval", self.path("predictions.jsonl"),
                                  self.path(w.test_set + ".jsonl")],
                 n_test, self.path("report.json")),
        ]
        return steps


class Run:
    """Runs commands, keeps their timings and checks every gate."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.tracer = None  # a layertrace.Tracer during a traced pass
        self.measuring = False  # keep timings (off during the warm-up)
        # Measured runs of each command and of "setup": (wall time,
        # mean reference_s() over it).
        self.times = defaultdict(list)
        self.last = {}  # latest wall time of each command
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.facts = {}  # figures read from the first run's outputs

    def command(self, step):
        """Run one command; returns its wall time, or None if it failed."""
        out = io.StringIO()
        self.attempted += step.sentences
        try:
            with Stopwatch(self.measuring) as watch, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                if self.tracer is None:
                    rc = cli.main(step.argv)
                else:
                    with self.tracer.span("cli." + step.name):
                        rc = cli.main(step.argv)
        except Exception:  # a crash fails the command, not the benchmark
            rc = "exception"
            out.write(traceback.format_exc())
        if rc != 0:
            self.failed += step.sentences
            self.errors.append("%s exited with %s: %s"
                               % (step.name, rc,
                                  out.getvalue().strip()[-2000:]))
            return None
        digest = _file_digest(step.output)
        if self.digests.setdefault(step.name, digest) != digest:
            self.errors.append("%s wrote different bytes on a rerun"
                               % step.name)
            return None
        if step.name not in self.facts:
            self.facts[step.name] = self._check(step)
        self.last[step.name] = watch.elapsed
        if self.measuring:
            self.times[step.name].append((watch.elapsed, watch.reference))
        return watch.elapsed

    def _check(self, step):
        """Gates on the first output of a command; returns its figures."""
        w = self.inputs.workload
        if step.name == "expand":
            examples = _records(step.output)
            gold = sum(corpusgen.non_terminal_count(p)
                       for p in self.inputs.corpus[w.train_set])
            if len(examples) != gold:
                self.errors.append("expand wrote %d examples for %d gold "
                                   "non-terminals" % (len(examples), gold))
            return {"examples": len(examples),
                    "usable": sum(ex["representable"] for ex in examples)}
        if step.name == "tune":
            with open(step.output, encoding="utf-8") as f:
                if "remote_threshold=" not in f.read():
                    self.errors.append("tune wrote no remote_threshold")
        if step.name == "parse":
            predicted = _records(step.output)
            gold = self.inputs.corpus[w.test_set]
            if len(predicted) != len(gold):
                self.errors.append("parse returned %d passages for %d "
                                   "sentences" % (len(predicted), len(gold)))
            nonterminals = sum(n["kind"] == "nonterminal"
                               for p in predicted for n in p["nodes"])
            gold_nonterminals = sum(corpusgen.non_terminal_count(p)
                                    for p in gold)
            if nonterminals < MIN_RECURSION * gold_nonterminals:
                self.errors.append(
                    "parse predicted %d non-terminals for %d gold ones: the "
                    "tagger does not recurse" % (nonterminals,
                                                 gold_nonterminals))
        if step.name == "eval":
            with open(step.output, encoding="utf-8") as f:
                f1 = json.load(f)["overall"]["labeled"]["avg"]["f1"]
            if w.oracle and f1 != 1.0:
                self.errors.append("oracle labeled F1 is %r, not 1.0" % f1)
            return {"labeled_f1": f1}
        return {}

    def setup(self):
        """Write the inputs once; every write must give the same bytes."""
        with Stopwatch(self.measuring) as watch:
            digests = self.inputs.write()
        if self.measuring:
            self.times["setup"].append((watch.elapsed, watch.reference))
        if self.digests.setdefault("setup", digests) != digests:
            self.errors.append("corpus generation wrote different bytes")

    def one_pass(self, steps):
        """Every command once, in order; False when one failed."""
        return all(self.command(step) is not None for step in steps)

    def traced_pass(self, steps, tracer, setup=False):
        """One pass (after a set-up, if asked) traced by `tracer`; False
        when a command failed."""
        self.tracer = tracer
        tracer.install()
        try:
            if setup:
                with tracer.span("bench.setup"):
                    self.setup()
            return self.one_pass(steps)
        finally:
            tracer.uninstall()
            self.tracer = None

    def repeat_until(self, steps, start, deadline):
        """Rerun commands, and the set-up, until `deadline`. Set-ups are
        spread over the window so that their median sees the same
        machine as the commands do."""
        self.measuring = True
        while True:
            now = time.perf_counter()
            if len(self.times["setup"]) < SETUP_REPEATS * min(
                    1.0, (now - start) / max(deadline - start, 1e-9)):
                self.setup()
                continue
            # A command not yet measured runs even if it overruns.
            fits = [s for s in steps if s.repeat and (
                not self.times[s.name]
                or self.last[s.name] <= deadline - now)]
            if not fits:
                return
            # Up to MIN_RUNS runs of each command, in turn, so that the
            # longest one (tune) gets more than one; then the command
            # with the least measured time, so that short ones fill the
            # rest of the window.
            step = min(fits, key=lambda s: (
                min(len(self.times[s.name]), MIN_RUNS),
                sum(t[0] for t in self.times[s.name])))
            if self.command(step) is None:
                return


def end_to_end(run, scale=True):
    """End-to-end figures from the medians of the measured runs, scaled
    (or not) to the reference speed. Peak RSS is that of the process, so
    a process measures one workload."""
    w = run.inputs.workload
    test = run.inputs.corpus[w.test_set]
    tokens = sum(len(p.tokens) for p in test)
    median = {name: statistics.median(
        scaled(*t) if scale else t[0] for t in runs)
        for name, runs in run.times.items()}
    return {
        "setup_s": (median["setup"], "s"),
        "expand_examples_per_s": (run.facts["expand"]["examples"]
                                  / median["expand"], "examples/s"),
        "tune_s": (median["tune"], "s"),
        "parse_sentences_per_s": (len(test) / median["parse"],
                                  "sentences/s"),
        "parse_tokens_per_s": (tokens / median["parse"], "tokens/s"),
        "eval_sentences_per_s": (len(test) / median["eval"], "sentences/s"),
        "labeled_f1": (run.facts["eval"]["labeled_f1"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def gold_nonterminals_per_parse(inputs):
    """Gold non-terminals per sentence over the parses of one pass: every
    dev sentence once per tune threshold, then every test sentence."""
    w = inputs.workload
    parsed = [inputs.corpus[w.dev_set]] * len(cli.THRESHOLD_SWEEP) \
        + [inputs.corpus[w.test_set]]
    return (sum(corpusgen.non_terminal_count(p)
                for group in parsed for p in group)
            / sum(len(group) for group in parsed))


# Layers reported by call count, by self time, and by calls per sentence
# (or passage) received by the commands that made the calls.
CALLS = ("tagger.gradients", "tagger.forward", "features.featurize",
         "lexicon.match", "bio.encode", "graph.all_yields", "parser.parse",
         "evaluator.score")
SELF_MS = ("tagger.gradients", "tagger.train", "tagger.clip_gradients",
           "tagger.forward", "tagger.checkpoint", "tagger.oracle",
           "features.featurize", "features.fit_vocabularies",
           "lexicon.match", "bio.encode", "bio.decode_probs",
           "graph.all_yields", "graph.validate", "corpus.expand",
           "corpus.io", "parser.parse", "parser.apply_constraints",
           "evaluator.score", "cli.expand", "cli.train", "cli.tune",
           "cli.parse", "cli.eval")
PER_INPUT = (("features.featurize", "calls_per_sentence"),
             ("lexicon.match", "calls_per_sentence"),
             ("graph.all_yields", "calls_per_passage"))
PARSE_COUNTS = tuple("firings." + kind
                     for kind, _ in layertrace.FIRING_KINDS) \
    + ("depth_max", "depth_caps", "remotes_dropped", "remotes_duplicate")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(run, tracer, overhead_ratio):
    """Per-layer figures of one traced pass."""
    calls = tracer.calls()
    self_s = defaultdict(float, layertrace.self_times(tracer.spans))
    counts = tracer.counts
    received = {"cli." + s.name: s.sentences for s in run.inputs.steps()}
    figures = {name + ".calls": (calls[name], "count") for name in CALLS}
    figures.update({name + ".self_ms": (1e3 * self_s[name], "ms")
                    for name in SELF_MS})
    for name, suffix in PER_INPUT:
        by_command = tracer.calls_by_root(name)
        figures["%s.%s" % (name, suffix)] = (_ratio(
            sum(by_command.values()),
            sum(received.get(c, 0) for c in by_command)), "ratio")
    figures.update({"parser." + key: (counts["parser." + key], "count")
                    for key in PARSE_COUNTS})
    train_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "tagger.train")
    epochs = int(run.inputs.workload.config.get("epochs", 0))
    figures.update({
        "tagger.train.examples_per_s": (_ratio(
            run.facts["expand"]["usable"] * epochs, train_s), "examples/s"),
        "tagger.forward.tokens": (counts["tagger.forward.tokens"], "count"),
        "tagger.forward.us_per_token": (_ratio(
            1e6 * self_s["tagger.forward"], counts["tagger.forward.tokens"]),
            "us"),
        "corpus.representable_ratio": (_ratio(
            counts["corpus.representable"], counts["corpus.examples"]),
            "ratio"),
        "parser.tagger_calls_per_sentence": (_ratio(
            counts["parser.tagger_calls"], calls["parser.parse"]), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return figures


def overhead_ratio(run, steps, seconds):
    """Traced ÷ untraced scaled time of the repeatable commands. Each
    command runs untraced, traced, traced and untraced in a row, so that a
    steady drift of the machine's speed cancels; rounds of this go on for
    `seconds`, at least one. None when a command failed."""
    steps = [s for s in steps if s.repeat]
    totals = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    while True:
        for step in steps:
            for traced in (False, True, True, False):
                with Stopwatch() as watch:
                    passed = run.traced_pass([step], layertrace.Tracer()) \
                        if traced else run.one_pass([step])
                if not passed:
                    return None
                totals[traced] += scaled(watch.elapsed, watch.reference)
        if time.perf_counter() >= deadline:
            return totals[True] / totals[False]


def traced_figures(run, seconds, spans_path):
    """Per-layer figures of the first pass, traced with its set-up (so
    they include first-call costs, which training dwarfs), then the
    tracing overhead on warm passes; {} when a gate failed."""
    inputs = run.inputs
    tracer = layertrace.Tracer()
    run.setup()  # steps() reads the corpus; the traced set-up rewrites it
    if not run.traced_pass(inputs.steps(), tracer, setup=True):
        return {}
    if spans_path:
        tracer.write(spans_path)
    ratio = overhead_ratio(run, inputs.steps(), seconds)
    if ratio is None:
        return {}
    figures = per_layer(run, tracer, ratio)
    calls = figures["parser.tagger_calls_per_sentence"][0]
    gold = gold_nonterminals_per_parse(inputs)
    if calls < MIN_RECURSION * gold:
        run.errors.append("%.2f tagger calls per sentence for %.2f gold "
                          "non-terminals" % (calls, gold))
    return figures


def run_workload(workload, seed, seconds, trace, directory, spans_path=None):
    """Measure one workload with its inputs written under `directory`;
    returns the result object to print. A traced run writes its spans to
    `spans_path` when given."""
    inputs = Inputs(workload, seed, directory)
    run = Run(inputs)
    figures = {}
    if trace:
        figures = traced_figures(run, seconds, spans_path)
    else:
        run.setup()
        steps = inputs.steps()
        if run.one_pass(steps):  # the warm-up
            start = time.perf_counter()
            run.repeat_until(steps, start, start + seconds)
            if not run.errors:
                figures = end_to_end(run)
                refs = [r for runs in run.times.values() for _, r in runs]
                unscaled = {name: value for name, (value, _)
                            in end_to_end(run, scale=False).items()}
                print("unscaled " + json.dumps(dict(
                    unscaled, reference_s=statistics.median(refs),
                    runs={name: len(t) for name, t in run.times.items()})))
    for error in run.errors:
        print("gate failed: %s" % error, file=sys.stderr)
    if run.failed or run.errors:
        figures = {}
    return {"correct": not run.errors and not run.failed,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in figures.items()}}
