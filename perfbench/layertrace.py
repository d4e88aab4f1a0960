"""Span tracing of rucca's layers from outside the program.

The tracer replaces public functions and methods of the `rucca` modules
with wrappers that record one span per call: name, start, end, the span
that was open when the call began (its parent) and the outermost span of
the same command (its root). A function imported by name into another
module (`from .lexicon import match`) is replaced there too, so calls
made through either name are seen. Spans stay in memory until `write`.

A layer's self time is its spans' durations minus the part of each that
child spans cover (`self_times`). Counts that only the return value
carries, such as tokens per forward pass or the contents of a ParseTrace,
are collected by per-target hooks.
"""

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) for every wrapped callable. Dotted attributes
# are methods. Several attributes may share one layer name.
TARGETS = (
    ("tagger.forward", "rucca.tagger", "GruTagger.forward"),
    ("tagger.gradients", "rucca.tagger", "GruTagger.gradients"),
    ("tagger.train", "rucca.tagger", "train"),
    ("tagger.clip_gradients", "rucca.tagger", "clip_gradients"),
    ("tagger.checkpoint", "rucca.tagger", "save_checkpoint"),
    ("tagger.checkpoint", "rucca.tagger", "load_checkpoint"),
    ("tagger.oracle", "rucca.tagger", "OracleTagger.predict"),
    ("features.featurize", "rucca.features", "featurize"),
    ("features.fit_vocabularies", "rucca.features", "fit_vocabularies"),
    ("lexicon.match", "rucca.lexicon", "match"),
    ("bio.encode", "rucca.bio", "encode"),
    ("bio.decode_probs", "rucca.bio", "decode_probs"),
    ("graph.all_yields", "rucca.graph", "all_yields"),
    ("graph.validate", "rucca.graph", "validate"),
    ("corpus.expand", "rucca.corpus", "expand"),
    ("corpus.io", "rucca.corpus", "load_passages"),
    ("corpus.io", "rucca.corpus", "save_passages"),
    ("corpus.io", "rucca.corpus", "load_examples"),
    ("corpus.io", "rucca.corpus", "save_examples"),
    ("corpus.io", "rucca.corpus", "load_conll_tokens"),
    ("parser.parse", "rucca.parser", "parse"),
    ("parser.apply_constraints", "rucca.parser", "apply_constraints"),
    ("evaluator.score", "rucca.evaluator", "score"),
)

# ParseTrace firing messages by the prefix that names their kind.
FIRING_KINDS = (("scene-merge", "scene-merge"),
                ("force-single-SP", "force-single-SP"),
                ("mwe-merge", "mwe-merge"), ("mwe-extend", "mwe-extend"),
                ("drop", "drop out-of-focus"), ("clip", "clip span"))


def _count_tokens(counts, args, result):
    counts["tagger.forward.tokens"] += args[1].length


def _count_representable(counts, args, result):
    counts["corpus.examples"] += len(result)
    counts["corpus.representable"] += sum(ex.representable for ex in result)


def _count_parse(counts, args, result):
    trace = result[1]
    counts["parser.tagger_calls"] += len(trace.steps)
    counts["parser.depth_max"] = max(
        [counts["parser.depth_max"]] + [s.depth for s in trace.steps])
    for step in trace.steps:
        for firing in step.firings:
            for kind, prefix in FIRING_KINDS:
                if firing.startswith(prefix):
                    counts["parser.firings." + kind] += 1
    for note in trace.notes:
        for key, prefix in (("depth_caps", "depth cap"),
                            ("remotes_dropped", "dropped remote"),
                            ("remotes_duplicate", "duplicate remote")):
            if note.startswith(prefix):
                counts["parser." + key] += 1


HOOKS = {"tagger.forward": _count_tokens,
         "corpus.expand": _count_representable,
         "parser.parse": _count_parse}


def self_times(spans):
    """{name: seconds} of each span's duration not covered by its children.

    `spans` is a list of (name, start, end, parent index or None, ...).
    Children may overlap one another or reach outside their parent; only
    the union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    totals = defaultdict(float)
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Records spans around rucca's layers while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent, root]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent][4] if parent is not None else index
        self.spans.append([name, self.clock(), None, parent, root])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block, e.g. around a command."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at its definition and at every rucca module
        that imported it by name."""
        for name, module_name, attribute in TARGETS:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                self._patch(cls, method, self.wrap(name,
                                                   getattr(cls, method)))
                continue
            original = getattr(owner, attribute)
            wrapped = self.wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "rucca" or mod_name.startswith("rucca.")) \
                        and getattr(module, attribute, None) is original:
                    self._patch(module, attribute, wrapped)

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def calls(self):
        """{name: number of spans} for every span name."""
        return Counter(span[0] for span in self.spans)

    def calls_by_root(self, name):
        """{root span name: number of `name` spans under it}."""
        return Counter(self.spans[span[4]][0] for span in self.spans
                       if span[0] == name)

    def write(self, path):
        """One JSON array per span: name, start, end, parent, root."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
