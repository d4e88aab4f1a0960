"""Shared fixtures: hand-built passages, a random passage generator that
only produces valid, BIO-representable, constraint-compatible graphs, and
simple tagger doubles."""

import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from rucca import bio, features, parser
from rucca.corpus import (_EDGE_TYPES, _NODE_TYPES, _PASSAGE_TYPES,
                          _TOKEN_KEYS, _TOKEN_TYPES, PASSAGE_FIELDS,
                          TOKEN_FIELDS, CorpusError, MaskedExample,
                          _check_types, _objects, _type_error, expand)
from rucca.evaluator import (Counts, CorpusReport, EvalError,
                             count_scene_edges, signatures)
from rucca.features import (EMPTY_EMBEDDINGS, FeaturizerContext,
                            fit_vocabularies)
from rucca.graph import (CATEGORIES, CATEGORY_SET, OUTSIDE, ROOT_MASK, Edge,
                         Node, Passage, TokenRow, all_yields, is_contiguous,
                         make_token)
from rucca.lexicon import EMPTY_LEXICON, match
from rucca.tagger import Tagger


def single_token_passage(pid="single", form="Go", upos="VERB"):
    return Passage(
        passage_id=pid, language="en",
        tokens=(make_token(form, upos),),
        nodes=(Node("n0", "nonterminal"), Node("t0", "terminal", 0)),
        edges=(Edge("n0", "t0", "H"),),
        root="n0")


def fig1_passage(pid="fig1"):
    """Two parallel scenes joined by a link, with one remote participant:
    [She plays guitar]_H [and]_L [she sings loudly]_H."""
    tokens = (
        make_token("She", "PRON", deprel="nsubj",
                   morph={"Number": "Sing"}),
        make_token("plays", "VERB", deprel="root",
                   morph={"Number": "Sing"}),
        make_token("guitar", "NOUN", deprel="obj"),
        make_token("and", "CCONJ", deprel="cc"),
        make_token("she", "PRON", deprel="nsubj"),
        make_token("sings", "VERB", deprel="conj"),
        make_token("loudly", "ADV", deprel="advmod"),
    )
    nodes = (
        Node("n0", "nonterminal"),
        Node("n1", "nonterminal"),
        Node("n2", "nonterminal"),
    ) + tuple(Node("t%d" % i, "terminal", i) for i in range(7))
    edges = (
        Edge("n0", "n1", "H"),
        Edge("n0", "t3", "L"),
        Edge("n0", "n2", "H"),
        Edge("n1", "t0", "A"),
        Edge("n1", "t1", "P"),
        Edge("n1", "t2", "A"),
        Edge("n2", "t4", "A"),
        Edge("n2", "t5", "P"),
        Edge("n2", "t6", "D"),
        Edge("n2", "t0", "A", remote=True),
    )
    return Passage(passage_id=pid, language="en", tokens=tokens,
                   nodes=nodes, edges=edges, root="n0")


def two_scene_5tok_passage(pid="mini"):
    """5-token variant: [Dogs bark]_H [and]_L [cats meow]_H."""
    tokens = (
        make_token("Dogs", "NOUN", deprel="nsubj"),
        make_token("bark", "VERB", deprel="root"),
        make_token("and", "CCONJ", deprel="cc"),
        make_token("cats", "NOUN", deprel="nsubj"),
        make_token("meow", "VERB", deprel="conj"),
    )
    nodes = (
        Node("n0", "nonterminal"),
        Node("n1", "nonterminal"),
        Node("n2", "nonterminal"),
    ) + tuple(Node("t%d" % i, "terminal", i) for i in range(5))
    edges = (
        Edge("n0", "n1", "H"),
        Edge("n0", "t2", "L"),
        Edge("n0", "n2", "H"),
        Edge("n1", "t0", "A"),
        Edge("n1", "t1", "P"),
        Edge("n2", "t3", "A"),
        Edge("n2", "t4", "P"),
    )
    return Passage(passage_id=pid, language="en", tokens=tokens,
                   nodes=nodes, edges=edges, root="n0")


def nonrepresentable_passage():
    """Root whose non-terminal child has a discontinuous yield."""
    tokens = tuple(make_token(f, u) for f, u in
                   (("doors", "NOUN"), ("are", "AUX"), ("open", "ADJ")))
    return Passage(
        passage_id="gap", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"), Node("n1", "nonterminal"),
               Node("t0", "terminal", 0), Node("t1", "terminal", 1),
               Node("t2", "terminal", 2)),
        edges=(Edge("n0", "n1", "A"), Edge("n0", "t1", "P"),
               Edge("n1", "t0", "C"), Edge("n1", "t2", "C")),
        root="n0")


# ---------------------------------------------------------------------------
# Random passage generator

_NOUNS = ("guitar", "dog", "house", "tree", "book", "river", "song")
_VERBS = ("runs", "sings", "plays", "sees", "takes", "builds")
_PRONS = ("she", "he", "they", "it")
_ADJS = ("big", "red", "old", "quiet")
_ADVS = ("loudly", "today", "slowly")
_DETS = ("the", "a")
_DEPRELS = ("nsubj", "obj", "det", "amod", "advmod", "root")


def unary_chain_passage(depth, pid="chain"):
    """A valid passage whose non-terminals n0 .. n<depth-1> form one unary
    chain, its arcs alternately H and A, over the two tokens of the last."""
    last = "n%d" % (depth - 1)
    return Passage(
        passage_id=pid, language="en",
        tokens=(make_token("She", "PRON"), make_token("sings", "VERB")),
        nodes=tuple(Node("n%d" % i, "nonterminal") for i in range(depth))
        + (Node("t0", "terminal", 0), Node("t1", "terminal", 1)),
        edges=tuple(Edge("n%d" % i, "n%d" % (i + 1), "HA"[i % 2])
                    for i in range(depth - 1))
        + (Edge(last, "t0", "A"), Edge(last, "t1", "P")),
        root="n0")


class _RandomBuilder:
    def __init__(self, rng, language):
        self.rng = rng
        self.language = language
        self.tokens = []
        self.nodes = []
        self.edges = []
        self._next = 0

    def nonterminal(self):
        nid = "n%d" % self._next
        self._next += 1
        self.nodes.append(Node(nid, "nonterminal"))
        return nid

    def token(self, form, upos, morph=None):
        pos = len(self.tokens)
        self.tokens.append(make_token(
            form, upos, morph=morph,
            deprel=str(self.rng.choice(_DEPRELS)),
            language=self.language))
        tid = "t%d" % pos
        self.nodes.append(Node(tid, "terminal", pos))
        return tid

    def edge(self, parent, child, category, remote=False):
        self.edges.append(Edge(parent, child, category, remote))

    def pick(self, options):
        return str(self.rng.choice(options))

    def noun_phrase(self, parent, category):
        """1-3 token NP child; returns the child node id."""
        size = int(self.rng.integers(1, 4))
        if size == 1:
            tid = self.token(self.pick(_PRONS + _NOUNS), "NOUN"
                             if self.rng.random() < 0.7 else "PRON")
            self.edge(parent, tid, category)
            return tid
        node = self.nonterminal()
        self.edge(parent, node, category)
        if size == 3:
            self.edge(node, self.token(self.pick(_DETS), "DET"), "F")
            self.edge(node, self.token(self.pick(_ADJS), "ADJ"), "E")
        else:
            self.edge(node, self.token(self.pick(_ADJS), "ADJ"), "E")
        self.edge(node, self.token(self.pick(_NOUNS), "NOUN",
                                   morph={"Number": "Sing"}), "C")
        return node

    def scene_children(self, scene_node):
        """Exactly one P (a verb) plus participants; returns nodes usable
        as remote targets."""
        targets = []
        targets.append(self.noun_phrase(scene_node, "A"))
        self.edge(scene_node,
                  self.token(self.pick(_VERBS), "VERB",
                             morph={"Voice": "Act"}), "P")
        if self.rng.random() < 0.7:
            targets.append(self.noun_phrase(scene_node, "A"))
        if self.rng.random() < 0.4:
            self.edge(scene_node,
                      self.token(self.pick(_ADVS), "ADV"), "D")
        return targets


def random_passage(rng, pid, language="en"):
    b = _RandomBuilder(rng, language)
    root = b.nonterminal()
    n_scenes = int(rng.integers(1, 4))
    if n_scenes == 1:
        b.scene_children(root)
    else:
        scene_targets = []
        scene_nodes = []
        for si in range(n_scenes):
            if si > 0:
                b.edge(root, b.token("and", "CCONJ"), "L")
            scene = b.nonterminal()
            b.edge(root, scene, "H")
            scene_targets.append(b.scene_children(scene))
            scene_nodes.append(scene)
        if rng.random() < 0.5:
            i = int(rng.integers(0, n_scenes))
            j = (i + 1 + int(rng.integers(0, n_scenes - 1))) % n_scenes
            target = scene_targets[j][int(rng.integers(
                0, len(scene_targets[j])))]
            b.edge(scene_nodes[i], target, "A", remote=True)
    return Passage(passage_id=pid, language=language,
                   tokens=tuple(b.tokens), nodes=tuple(b.nodes),
                   edges=tuple(b.edges), root=root)


def random_corpus(seed, count, language="en"):
    rng = np.random.default_rng(seed)
    return [random_passage(rng, "rand%03d" % i, language)
            for i in range(count)]


def fixture_corpus(seed=13, n_random=50):
    """Hand-built passages plus randomly generated ones."""
    return [single_token_passage(), fig1_passage(),
            two_scene_5tok_passage()] + random_corpus(seed, n_random)


def brute_force_yield(passage, node_id):
    """Terminal positions reachable from node_id over primary edges, by a
    plain search of passage.nodes and passage.edges: a reference for the
    passage index."""
    nodes = {n.id: n for n in passage.nodes}
    positions = set()
    stack = [node_id]
    seen = set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if nodes[nid].is_terminal():
            positions.add(nodes[nid].position)
        else:
            stack.extend(e.child for e in passage.edges
                         if e.parent == nid and not e.remote)
    return frozenset(positions)


def assert_same_features(a, b):
    """Two FeaturizedExamples hold equal arrays of equal dtype and shape."""
    assert a.length == b.length
    assert list(a.categorical) == list(b.categorical)
    pairs = [(a.word_vectors, b.word_vectors), (a.mwe, b.mwe)] + \
        [(a.categorical[k], b.categorical[k]) for k in a.categorical]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


def refuse_featurize(monkeypatch):
    """Makes every featurize call fail the test: for taggers that read no
    features, such as the oracle."""
    def refused(*args):
        raise AssertionError("featurize called")
    monkeypatch.setattr(features, "featurize", refused)


def context_for(passages, lexicon=EMPTY_LEXICON, embeddings=None):
    examples = [ex for p in passages for ex in expand(p)]
    return FeaturizerContext(
        vocab=fit_vocabularies(examples),
        embeddings=embeddings or EMPTY_EMBEDDINGS,
        lexicon=lexicon)


def token_accuracy(tagger, ctx, examples):
    """TASK1 per-token argmax accuracy over examples with targets."""
    correct = total = 0
    for ex in examples:
        if ex.target_bio is None:
            continue
        dist, _ = tagger.forward(ctx.featurize(ex))
        y1, _ = tagger.target_ids(ex)
        correct += int(np.sum(np.argmax(dist.task1, axis=1) == y1))
        total += len(y1)
    return correct / total if total else 0.0


def reference_split_label(label):
    """-> (tag, category, remote) with tag in {B, I, O}."""
    if label == "O":
        return "O", None, False
    parts = label.split("-")
    if len(parts) == 2:
        return parts[0], parts[1], False
    return parts[0], parts[2], True


def reference_decode_labels(labels):
    """bio.decode_labels as a loop that splits each label string, the
    reference for the decoder's per-id table."""
    spans = []
    open_span = None  # [start, category, remote]

    def close(end):
        nonlocal open_span
        if open_span is not None:
            spans.append(bio.ChildSpan(open_span[0], end, open_span[1],
                                       open_span[2]))
            open_span = None

    for i, label in enumerate(labels):
        tag, category, remote = reference_split_label(label)
        if tag == "O":
            close(i)
        elif tag == "B":
            close(i)
            open_span = [i, category, remote]
        else:  # I
            if open_span is not None and open_span[1] == category \
                    and open_span[2] == remote:
                continue
            close(i)
            open_span = [i, category, remote]
    close(len(labels))
    return spans


def reference_check(t1):
    """TagDistribution.check's two conditions as first written: -> the
    ValueError message it raises, or None."""
    if not np.all(t1 >= -1e-6):
        return "negative or NaN probability in task1 rows"
    if np.any(np.abs(t1.sum(axis=1) - 1.0) > 1e-6):
        return "task1 rows do not sum to 1"
    return None


def reference_decode_remote(rows, remote_threshold):
    """bio.decode_remote over the (T, 26) REM columns themselves, each
    token's maximum taken at every call: the reference for the decoder's
    kept summary."""
    above = rows.max(axis=1) > remote_threshold
    if not above.any():
        return []
    ids = np.where(above, bio.REMOTE_LABEL_IDS[np.argmax(rows, axis=1)],
                   bio.BIO_INDEX[OUTSIDE])
    return bio._decode_ids(ids.tolist())


class FixedTagger(Tagger):
    """Emits a pre-set distribution for every call."""

    def __init__(self, dist):
        self.dist = dist

    def predict(self, example, feats):
        return self.dist


class RandomTagger(Tagger):
    """Deterministic stream of random (but valid) tag distributions."""

    def __init__(self, seed, n_aux=5, concentration=0.25):
        self.rng = np.random.default_rng(seed)
        self.n_aux = n_aux
        self.concentration = concentration
        self.calls = 0

    def predict(self, example, feats):
        self.calls += 1
        n = len(example.tokens)
        t1 = self.rng.gamma(self.concentration, 1.0, (n, bio.N_BIO))
        t1 = t1 / t1.sum(axis=1, keepdims=True)
        return bio.TagDistribution(task1=t1)


class KeyedRandomTagger(RandomTagger):
    """RandomTagger whose distribution for an example depends only on the
    seed, the example's focus node and its mask, never on the order of the
    calls: taggers that visit a parse's nodes in different orders give
    each node the same rows. A share `unary` of the examples instead get
    one-hot rows that make their whole focus one child of a random
    category, so that unary chains form."""

    def __init__(self, seed, unary=0.0, **kwargs):
        super().__init__(seed, **kwargs)
        self.seed = seed
        self.unary = unary

    def predict(self, example, feats):
        key = "%s|%s" % (example.focus_node, " ".join(example.mask))
        self.rng = np.random.default_rng(
            [self.seed, zlib.crc32(key.encode("utf-8"))])
        dist = super().predict(example, feats)
        if self.rng.random() >= self.unary:
            return dist
        category = str(self.rng.choice(CATEGORIES))
        labels = [OUTSIDE if sym == OUTSIDE else "I-" + category
                  for sym in example.mask]
        labels[labels.index("I-" + category)] = "B-" + category
        return bio.TagDistribution(task1=bio.one_hot(labels))


def reference_merge_scene_spans(spans, tokens, action_flags, firings):
    """parser._merge_scene_spans as a rescan, the reference for its one
    pass: after each merge, look again for the first H span with no
    verb/action noun. It is merged into the nearest preceding qualifying
    H span (else the nearest following one), absorbing every span in
    between."""
    spans = sorted(spans, key=lambda s: s.start)
    if all(s.category != "H" for s in spans):  # most calls: no scene
        return spans
    scene = [t.upos == parser.VERB_UPOS or a
             for t, a in zip(tokens, action_flags)]
    while True:
        h_spans = [s for s in spans if s.category == "H"]
        qualifying = [s for s in h_spans if any(scene[s.start:s.end])]
        weak = [s for s in h_spans if s not in qualifying]
        if not weak or not qualifying:
            return spans
        # The spans are disjoint, so a qualifying one lies on a side of w.
        w = weak[0]
        before = [q for q in qualifying if q.start < w.start]
        if before:
            left, right = before[-1], w
            firings.append("scene-merge backward %s<-%s"
                           % ((left.start, left.end), (w.start, w.end)))
        else:
            left, right = w, qualifying[0]
            firings.append("scene-merge forward %s->%s"
                           % ((w.start, w.end), (right.start, right.end)))
        merged = bio.ChildSpan(left.start, right.end, "H", False)
        spans = [s for s in spans
                 if s.end <= merged.start or s.start >= merged.end]
        spans.append(merged)
        spans.sort(key=lambda s: s.start)


def reference_mwe_integrity(spans, mwe_spans, focus, firings):
    """parser._mwe_integrity as a rescan, the reference for its one pass:
    after each fix, look again from the first span for the first H/A span
    with a boundary strictly inside an MWE span, its start checked
    first. A neighbour sharing that boundary is merged with it (left
    category wins); otherwise the span is extended to the MWE edge,
    clipped to the focus, absorbing every span it overlaps (leftmost
    category wins)."""
    start_f, end_f = focus
    # boundary strictly inside an MWE -> the first such MWE's span
    inside_mwe = {}
    for ms, me in mwe_spans:
        for boundary in range(ms + 1, me):
            inside_mwe.setdefault(boundary, (ms, me))
    spans = sorted(spans, key=lambda s: s.start)
    for _ in range(10 * (len(spans) + len(mwe_spans)) + 10):
        violation = None
        for s in spans:
            if s.category not in ("H", "A"):
                continue
            for boundary, is_start in ((s.start, True), (s.end, False)):
                if boundary in (start_f, end_f):
                    continue
                mwe = inside_mwe.get(boundary)
                if mwe is not None:
                    violation = (s, boundary, is_start, mwe)
                    break
            if violation:
                break
        if violation is None:
            return spans
        s, boundary, is_start, mwe = violation
        neighbor = None
        for q in spans:
            if q is s:
                continue
            if (is_start and q.end == boundary) or \
                    (not is_start and q.start == boundary):
                neighbor = q
                break
        if neighbor is not None:
            left, right = (neighbor, s) if is_start else (s, neighbor)
            merged = bio.ChildSpan(left.start, right.end, left.category,
                                   False)
            firings.append("mwe-merge (%d,%d)+(%d,%d)"
                           % (left.start, left.end, right.start, right.end))
            spans = [t for t in spans if t is not s and t is not neighbor]
        else:
            new_start = max(mwe[0], start_f) if is_start else s.start
            new_end = min(mwe[1], end_f) if not is_start else s.end
            involved = [t for t in spans
                        if t.start < new_end and t.end > new_start]
            new_start = min([new_start] + [t.start for t in involved])
            new_end = max([new_end] + [t.end for t in involved])
            category = min(involved, key=lambda t: t.start).category \
                if involved else s.category
            merged = bio.ChildSpan(new_start, new_end, category, False)
            firings.append("mwe-extend (%d,%d)->(%d,%d)"
                           % (s.start, s.end, new_start, new_end))
            spans = [t for t in spans if t not in involved]
        spans = [t for t in spans
                 if t.end <= merged.start or t.start >= merged.end]
        spans.append(merged)
        spans.sort(key=lambda s: s.start)
    return spans


def reference_parse(tokens, tagger, ctx, cfg, passage_id="s0",
                    language=None):
    """parser.parse as a plain recursion, the reference for its tagging by
    depth and its assembly by stack: one predict call per node, with a
    fresh feature source, which featurizes the node's own example if read,
    and node ids given as the recursion reaches each node, depth first,
    children in span order."""
    tokens = tuple(tokens)
    action_flags = match(cfg.action_noun_lexicon, tokens).flags
    mwe_mask = match(ctx.lexicon, tokens)
    nonterminals, edges = [], []
    trace = parser.ParseTrace()

    def visit(span, arc, depth, parent):
        nid = "n%d" % len(nonterminals)
        nonterminals.append(Node(nid, "nonterminal"))
        trace.deepest[span] = nid
        if parent is not None:
            edges.append(Edge(parent, nid, arc))
        start, end = span
        if depth >= cfg.max_depth:
            trace.notes.append("depth cap at node %s span %s" % (nid, span))
            verbs = [i for i in range(start, end)
                     if tokens[i].upos == "VERB"]
            p = (verbs + [start])[0] if arc == "H" else None
            for i in range(start, end):
                edges.append(Edge(nid, "t%d" % i, "P" if i == p else
                                  parser._fallback_category(tokens[i])))
            return
        example = MaskedExample(
            passage_id=passage_id, tokens=tokens,
            mask=tuple(arc if start <= i < end else OUTSIDE
                       for i in range(len(tokens))),
            focus_node="depth %d" % depth)
        dist = tagger.predict(example, ctx.sentence(mwe_mask.flags))
        dist.check()
        step = parser._expand(span, arc, depth, example.mask, dist, tokens,
                              mwe_mask, action_flags)
        step.node = nid
        trace.steps.append(step)
        for s in step.constrained:
            if s.end - s.start == 1:
                edges.append(Edge(nid, "t%d" % s.start, s.category))
            else:
                visit((s.start, s.end), s.category, depth + 1, nid)

    visit((0, len(tokens)), ROOT_MASK, 1, None)
    trace.tree_notes = len(trace.notes)
    # A one-token span no non-terminal has names its token's terminal.
    for i in range(len(tokens)):
        trace.deepest.setdefault((i, i + 1), "t%d" % i)
    passage = Passage(
        passage_id=passage_id, language=language or tokens[0].language,
        tokens=tokens, nodes=tuple(nonterminals) + tuple(
            Node("t%d" % i, "terminal", i) for i in range(len(tokens))),
        edges=tuple(edges), root="n0")
    return parser.resolve_remotes(passage, trace, cfg.remote_threshold)


@dataclass
class ReferenceReport:
    """evaluator.EvalReport as three dicts of Counts, the reference for
    its tally: what reference_score and reference_score_corpus return."""
    labeled: dict = field(default_factory=dict)    # avg/primary/remote
    unlabeled: dict = field(default_factory=dict)  # avg/primary/remote
    per_category: dict = field(default_factory=dict)
    sentences: int = 0

    @staticmethod
    def empty():
        zero = Counts()
        return ReferenceReport(
            labeled={"avg": zero, "primary": zero, "remote": zero},
            unlabeled={"avg": zero, "primary": zero, "remote": zero},
            per_category={c: zero for c in CATEGORIES},
            sentences=0)

    def __add__(self, other):
        out = ReferenceReport.empty()
        for mode in ("labeled", "unlabeled"):
            for cell in ("avg", "primary", "remote"):
                getattr(out, mode)[cell] = (getattr(self, mode)[cell]
                                            + getattr(other, mode)[cell])
        for c in CATEGORIES:
            out.per_category[c] = self.per_category[c] \
                + other.per_category[c]
        out.sentences = self.sentences + other.sentences
        return out


def _add(pred, gold, *cells):  # one key's matched, predicted, gold counts
    for cell in cells:
        cell[0] += min(pred, gold)
        cell[1] += pred
        cell[2] += gold


def reference_score(pred: Passage, gold: Passage) -> ReferenceReport:
    """evaluator.score with a list of counts per cell, the reference for
    its tally: one pass over the union of the signatures fills the
    labeled cells and sums the unlabeled (yield, remote) keys that fill
    the others."""
    if tuple(t.form for t in pred.tokens) != \
            tuple(t.form for t in gold.tokens):
        raise EvalError("token mismatch between %s and %s"
                        % (pred.passage_id, gold.passage_id))
    ps = signatures(pred)
    gs = signatures(gold)
    cells = ("avg", "primary", "remote")
    labeled = {cell: [0, 0, 0] for cell in cells}
    unlabeled = {cell: [0, 0, 0] for cell in cells}
    per_category = {c: [0, 0, 0] for c in CATEGORIES}
    keys = defaultdict(lambda: [0, 0])  # (yield, remote) -> [pred, gold]
    for sig in ps.keys() | gs.keys():
        y, category, remote = sig
        p, g = ps[sig], gs[sig]
        cell = "remote" if remote else "primary"
        _add(p, g, labeled["avg"], labeled[cell], per_category[category])
        key = keys[(y, remote)]
        key[0] += p
        key[1] += g
    for (_, remote), (p, g) in keys.items():
        cell = "remote" if remote else "primary"
        _add(p, g, unlabeled["avg"], unlabeled[cell])
    return ReferenceReport(
        labeled={k: Counts(*v) for k, v in labeled.items()},
        unlabeled={k: Counts(*v) for k, v in unlabeled.items()},
        per_category={k: Counts(*v) for k, v in per_category.items()},
        sentences=1)


def reference_score_corpus(pairs) -> CorpusReport:
    """evaluator.score_corpus over reference_score."""
    overall = ReferenceReport.empty()
    mono = ReferenceReport.empty()
    multi = ReferenceReport.empty()
    for pred, gold in pairs:
        report = reference_score(pred, gold)
        overall = overall + report
        if count_scene_edges(gold) <= 1:
            mono = mono + report
        else:
            multi = multi + report
    return CorpusReport(overall=overall, mono_scene=mono, multi_scene=multi)


def complex_step_check(tagger, feats, y1, y2, step=1e-20):
    """Per parameter tensor, the largest error of gradients() against
    complex-step derivatives of loss(), over the tensor's largest
    derivative (absolute when all are 0). Im loss(w + i*step) / step
    subtracts nothing, so it is exact to rounding for any small step
    (Squire and Trapp, SIAM Review 40(1), 1998). The tagger's parameters
    are swapped for complex copies while it runs."""
    _, grads = tagger.gradients(feats, y1, y2)
    real = tagger.params
    tagger.params = {name: p.astype(complex) for name, p in real.items()}
    worst = {}
    try:
        for name in sorted(real):
            flat = tagger.params[name].reshape(-1)
            numeric = np.empty(flat.size)
            for i in range(flat.size):
                flat[i] += 1j * step
                numeric[i] = tagger.loss(feats, y1, y2)[0].imag / step
                flat[i] = flat[i].real
            diff = np.abs(grads[name].reshape(-1) - numeric)
            scale = np.max(np.abs(numeric), initial=0.0)
            worst[name] = np.max(diff, initial=0.0) / scale if scale \
                else np.max(diff, initial=0.0)
    finally:
        tagger.params = real
    return worst


def directional_complex_step_check(tagger, feats, y1, y2, seed=0,
                                   step=1e-20):
    """Per parameter tensor, the error of gradients() along one seeded
    random direction v, grads[name] . v, against the complex-step
    derivative of loss() along v, Im loss(w + i*step*v) / step, over
    that derivative's size (absolute when it is 0). One complex forward
    per tensor checks a random combination of all its entries, so a
    full-size model costs one forward per tensor where
    complex_step_check costs one per scalar. The tagger's parameters
    are swapped for complex copies while it runs."""
    _, grads = tagger.gradients(feats, y1, y2)
    rng = np.random.default_rng(seed)
    real = tagger.params
    tagger.params = {name: p.astype(complex) for name, p in real.items()}
    worst = {}
    try:
        for name in sorted(real):
            v = rng.standard_normal(real[name].shape)
            tagger.params[name].imag = step * v
            numeric = tagger.loss(feats, y1, y2)[0].imag / step
            tagger.params[name].imag = 0.0
            diff = abs(float(np.sum(grads[name] * v)) - numeric)
            worst[name] = diff / abs(numeric) if numeric else diff
    finally:
        tagger.params = real
    return worst


# ---------------------------------------------------------------------------
# The passage reader and validate with every field tested on its own

def reference_token_from_record(rec, where):
    """corpus._token_from_record testing each field in turn."""
    if rec.keys() != _TOKEN_KEYS:
        raise CorpusError("%s: token fields %s, expected %s"
                          % (where, sorted(rec), sorted(TOKEN_FIELDS)))
    _check_types(rec, _TOKEN_TYPES, where, "token ")
    morph = rec["morph"]
    if not isinstance(morph, dict) or \
            not all(isinstance(v, str) for v in morph.values()):
        raise _type_error(where, "token morph", morph, "an object of strings")
    head = rec["head"]
    if head is not None and head != "root" and type(head) is not int:
        raise CorpusError("%s: bad head %r" % (where, head))
    return TokenRow(form=rec["form"], upos=rec["upos"], xpos=rec["xpos"],
                    morph=tuple(sorted(morph.items())),
                    head=head, deprel=rec["deprel"],
                    language=rec["language"])


def reference_passage_from_record(rec, where="record"):
    """corpus.passage_from_record testing each field in turn."""
    if set(rec) != set(PASSAGE_FIELDS):
        raise CorpusError("%s: passage fields %s, expected %s"
                          % (where, sorted(rec), sorted(PASSAGE_FIELDS)))
    _check_types(rec, _PASSAGE_TYPES, where)
    tokens = tuple(reference_token_from_record(t, where)
                   for t in _objects(rec["tokens"], where, "tokens"))
    nodes = []
    for n in _objects(rec["nodes"], where, "nodes"):
        if set(n) != {"id", "kind", "position"}:
            raise CorpusError("%s: bad node record %s" % (where, n))
        _check_types(n, _NODE_TYPES, where, "node ")
        if n["kind"] not in ("terminal", "nonterminal"):
            raise CorpusError("%s: bad node kind %r" % (where, n["kind"]))
        nodes.append(Node(id=n["id"], kind=n["kind"], position=n["position"]))
    edges = []
    for e in _objects(rec["edges"], where, "edges"):
        if set(e) != {"parent", "child", "category", "remote"}:
            raise CorpusError("%s: bad edge record %s" % (where, e))
        _check_types(e, _EDGE_TYPES, where, "edge ")
        if e["category"] not in CATEGORY_SET:
            raise CorpusError("%s: unknown category %r on edge %s->%s"
                              % (where, e["category"], e["parent"],
                                 e["child"]))
        edges.append(Edge(parent=e["parent"], child=e["child"],
                          category=e["category"], remote=e["remote"]))
    return Passage(passage_id=rec["passage_id"], language=rec["language"],
                   tokens=tokens, nodes=tuple(nodes), edges=tuple(edges),
                   root=rec["root"])


def reference_validate(passage, require_contiguous=False):
    """graph.validate as one loop per check, each over all nodes or all
    edges."""
    violations = []
    ids = [n.id for n in passage.nodes]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append("duplicate node ids: %s" % ", ".join(dupes))
        return violations
    index = passage._index
    by_id = index.by_id

    if passage.root not in by_id:
        violations.append("root %s not among nodes" % passage.root)
        return violations
    if by_id[passage.root].is_terminal():
        violations.append("root %s is a terminal" % passage.root)

    for n in passage.nodes:
        if n.is_terminal():
            if n.position is None:
                violations.append("terminal without position: node %s" % n.id)
        elif n.position is not None:
            violations.append("non-terminal with position: node %s" % n.id)

    for e in passage.edges:
        if e.parent == e.child:
            violations.append("self-loop: node %s" % e.parent)
        if e.parent not in by_id:
            violations.append("edge from unknown node %s" % e.parent)
        elif by_id[e.parent].is_terminal():
            violations.append("terminal with children: node %s" % e.parent)
        if e.child not in by_id:
            violations.append("edge to unknown node %s" % e.child)
        if e.category not in CATEGORY_SET:
            violations.append("unknown category %s on edge %s->%s"
                              % (e.category, e.parent, e.child))
    if violations:
        return violations

    if passage.root in index.incoming:
        violations.append("root has incoming primary edge: node %s"
                          % passage.root)
    for n in passage.nodes:
        if n.id == passage.root:
            continue
        parents = len(index.incoming.get(n.id, ()))
        if parents == 0:
            violations.append("no primary parent: node %s" % n.id)
        elif parents > 1:
            violations.append("multiple primary parents: node %s" % n.id)

    reached = set()
    stack = [passage.root]
    while stack:
        nid = stack.pop()
        if nid in reached:
            continue
        reached.add(nid)
        stack.extend(c for _, c in index.primary.get(nid, ()))
    for n in passage.nodes:
        if n.id not in reached:
            violations.append("unreachable from root: node %s" % n.id)

    for e in passage.edges:
        if e.remote and e.child == passage.root:
            violations.append("remote edge into root: %s->%s"
                              % (e.parent, e.child))

    if not passage.tokens:
        violations.append("no tokens")
    positions = [n.position for n in passage.nodes if n.is_terminal()]
    expected = list(range(len(passage.tokens)))
    if sorted(positions) != expected:
        violations.append("token coverage mismatch: terminals cover %s, "
                          "expected %s" % (sorted(positions), expected))

    if require_contiguous and not violations:
        yields = all_yields(passage)
        for n in passage.nodes:
            if not is_contiguous(yields[n.id]):
                violations.append("discontiguous yield: node %s" % n.id)
    return violations
