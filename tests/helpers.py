"""Shared fixtures: hand-built passages, a random passage generator that
only produces valid, BIO-representable, constraint-compatible graphs, and
simple tagger doubles."""

import numpy as np

from rucca import bio
from rucca.corpus import MaskedExample, expand
from rucca.features import (EMPTY_EMBEDDINGS, FeaturizerContext,
                            fit_vocabularies)
from rucca.graph import Edge, Node, Passage, make_token
from rucca.lexicon import EMPTY_LEXICON
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
    assert a.mwe_mask == b.mwe_mask
    assert list(a.categorical) == list(b.categorical)
    pairs = [(a.word_vectors, b.word_vectors), (a.mwe, b.mwe)] + \
        [(a.categorical[k], b.categorical[k]) for k in a.categorical]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


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
