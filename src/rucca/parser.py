"""Inference: tag, decode, constrain, recurse.

Each step tags the whole sentence with a mask describing the focus node,
decodes BIO probabilities into child spans (a TagDistribution checks and
decodes itself once, however often it is parsed), applies the structural
constraints, then recurses into every multi-token child with an updated
mask until terminal nodes are reached. A node's tags depend only on its
mask, so the focus nodes of one depth are tagged in one batch, with the
sentence's feature source, which featurizes only if the tagger reads it.
The tree, its node ids and its trace are then assembled in one
depth-first pass off an explicit stack, so max_depth alone bounds a
parse's depth. The primary tree does not depend on the remote threshold:
the trace keeps each tagged node's remote probability rows, and
resolve_remotes turns them into remote edges of the finished tree at any
threshold. parse_sentences is the one parse loop; score_parses scores it.
"""

import bisect
import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import bio, evaluator
from .corpus import MaskedExample
from .graph import (OUTSIDE, ROOT_MASK, Edge, Node, Passage, validate)
from .lexicon import EMPTY_LEXICON, ExpressionLexicon, match

# the upos tag of a verb, which makes its span a scene
VERB_UPOS = "VERB"
# upos tags whose uncovered tokens fall back to Function instead of Center
FUNCTION_UPOS = frozenset({"ADP", "DET", "AUX", "CCONJ", "SCONJ", "PART"})

_SP_LABEL_IDS = tuple(bio.BIO_INDEX[lb]
                      for lb in ("B-S", "I-S", "B-P", "I-P"))
_S_LABEL_IDS = tuple(bio.BIO_INDEX[lb] for lb in ("B-S", "I-S"))


@dataclass(frozen=True)
class DecoderConfig:
    remote_threshold: float = 0.3
    max_depth: int = 20
    action_noun_lexicon: ExpressionLexicon = EMPTY_LEXICON

    def __post_init__(self):
        if not 0.0 <= self.remote_threshold <= 1.0:
            raise ValueError("remote_threshold must be in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass
class TraceStep:
    depth: int
    focus: tuple  # (start, end)
    arc: str
    mask: tuple
    decoded_primary: tuple
    constrained: tuple
    firings: tuple
    node: str  # the focus node's id
    # the tagger output's TagDistribution.remote_summary (shared)
    remote_summary: bio.RemoteSummary = field(repr=False, compare=False)

    def render(self, remote_threshold):
        return ("depth=%d focus=%s arc=%s decoded=%s remote=%s "
                "constrained=%s firings=%s"
                % (self.depth, self.focus, self.arc,
                   [(s.start, s.end, s.category)
                    for s in self.decoded_primary],
                   [(s.start, s.end, s.category) for s in bio.decode_remote(
                       self.remote_summary, remote_threshold)],
                   [(s.start, s.end, s.category) for s in self.constrained],
                   list(self.firings)))


@dataclass
class ParseTrace:
    steps: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # span -> id of the deepest node with that span: a one-token span's
    # terminal unless a non-terminal has it, depth-capped ones included
    deepest: dict = field(default_factory=dict)
    tree_notes: int = 0  # leading notes written while building the tree
    # the threshold of the remote edges; inf, no remote, until resolved
    remote_threshold: float = math.inf

    def render(self):
        lines = [s.render(self.remote_threshold) for s in self.steps]
        lines.extend("note: %s" % n for n in self.notes)
        return "\n".join(lines)


class ParseError(RuntimeError):
    pass


def _merge_scene_spans(spans, tokens, action_flags, firings):
    """Constraint 1: an H span with no verb/action noun is merged into the
    nearest preceding qualifying H span (else the nearest following one).
    Spans swallowed by the merged interval are absorbed. One pass in start
    order: a merge ends at the span that triggers it, so every span
    already passed is final."""
    out = []
    last = weak = None  # indices in out: last qualifying H, first weak H
    for s in spans:
        if s.category != "H":
            out.append(s)
        elif any(tokens[i].upos == VERB_UPOS or action_flags[i]
                 for i in range(s.start, s.end)):
            if last is None and weak is not None:
                w = out[weak]
                firings.append("scene-merge forward %s->%s"
                               % ((w.start, w.end), (s.start, s.end)))
                out[weak:] = [bio.ChildSpan(w.start, s.end, "H", False)]
            else:
                out.append(s)
            last = len(out) - 1
        elif last is not None:
            q = out[last]
            firings.append("scene-merge backward %s<-%s"
                           % ((q.start, q.end), (s.start, s.end)))
            out[last:] = [bio.ChildSpan(q.start, s.end, "H", False)]
        else:
            if weak is None:
                weak = len(out)
            out.append(s)
    return out


def _force_single_state_process(spans, dist, focus, firings):
    """Constraint 2: exactly one S/P child within a scene, chosen by the
    token with the highest S/P probability."""
    sp = [s for s in spans if s.category in ("S", "P")]
    if len(sp) == 1:
        return spans
    start, end = focus
    sub = dist.task1[start:end][:, _SP_LABEL_IDS]
    flat = int(np.argmax(sub))
    token = start + flat // len(_SP_LABEL_IDS)
    label_id = _SP_LABEL_IDS[flat % len(_SP_LABEL_IDS)]
    winner_cat = "S" if label_id in _S_LABEL_IDS else "P"
    out = []
    placed = False
    for s in spans:
        if s.start <= token < s.end:
            out.append(bio.ChildSpan(s.start, s.end, winner_cat, False))
            placed = True
        elif s.category in ("S", "P"):
            out.append(bio.ChildSpan(s.start, s.end, "C", False))
        else:
            out.append(s)
    if not placed:
        bisect.insort(out, bio.ChildSpan(token, token + 1, winner_cat, False),
                      key=lambda s: s.start)
    firings.append("force-single-SP token=%d category=%s"
                   % (token, winner_cat))
    return out


def _mwe_integrity(spans, mwe_spans, focus, firings):
    """Constraint 3: no H/A span boundary may fall strictly inside an MWE
    span. Adjacent spans sharing such a boundary are merged (left category
    wins); otherwise the span is extended to the MWE edge, absorbing any
    overlap. One pass in start order: a fix changes only the current span
    and the spans next to it, so every span already passed is final."""
    # boundary strictly inside an MWE -> the first such MWE's span
    inside_mwe = {}
    for ms, me in mwe_spans:
        for boundary in range(ms + 1, me):
            inside_mwe.setdefault(boundary, (ms, me))
    todo = list(reversed(spans))
    out = []
    while todo:
        s = todo.pop()
        while s.category in ("H", "A"):
            bad = [(b, b == s.start) for b in (s.start, s.end)
                   if b not in focus and b in inside_mwe]
            if not bad:
                break
            boundary, is_start = bad[0]
            if is_start and out and out[-1].end == boundary:
                left, right = out.pop(), s
            elif not is_start and todo and todo[-1].start == boundary:
                left, right = s, todo.pop()
            else:
                # Each fix moves the boundary out to the MWE edge or
                # absorbs a span, so the loop ends.
                ms, me = inside_mwe[boundary]
                first, start, end = s, s.start, s.end
                if is_start:
                    start = max(ms, focus[0])
                    while out and out[-1].end > start:
                        first = out.pop()
                    start = min(start, first.start)
                else:
                    end = min(me, focus[1])
                    while todo and todo[-1].start < end:
                        end = max(end, todo.pop().end)
                firings.append("mwe-extend (%d,%d)->(%d,%d)"
                               % (s.start, s.end, start, end))
                s = bio.ChildSpan(start, end, first.category, False)
                continue
            firings.append("mwe-merge (%d,%d)+(%d,%d)"
                           % (left.start, left.end, right.start, right.end))
            s = bio.ChildSpan(left.start, right.end, left.category, False)
        out.append(s)
    return out


def apply_constraints(spans, tokens, dist, mwe_mask, action_flags,
                      at_scene_level, focus=None, firings=None):
    """The three decoding constraints, in order: disjoint spans in start
    order in, disjoint spans in start order out. action_flags are the
    flags of the sentence's match against the action-noun lexicon."""
    if firings is None:
        firings = []
    if focus is None:
        focus = (0, len(tokens))
    spans = _merge_scene_spans(spans, tokens, action_flags, firings)
    if at_scene_level:
        spans = _force_single_state_process(spans, dist, focus, firings)
    spans = _mwe_integrity(spans, mwe_mask.spans, focus, firings)
    # MWE merging may have removed the scene's only S/P span; restore it.
    if at_scene_level and \
            len([s for s in spans if s.category in ("S", "P")]) != 1:
        spans = _force_single_state_process(spans, dist, focus, firings)
    return spans


def _fallback_category(token):
    return "F" if token.upos in FUNCTION_UPOS else "C"


def _assemble(steps, tokens, passage_id, language):
    """-> (Passage, ParseTrace) of a parse's TraceSteps, keyed (depth,
    span), primary edges only. Numbers its non-terminals depth first,
    children in span order, off an explicit stack, so no depth meets
    Python's recursion limit. A one-token child is a terminal; a span
    with no step is at the depth cap and takes every token of its span as
    a child: an H node's P is its first verb, or else its first token."""
    nonterminals, edges = [], []
    trace = ParseTrace(deepest={(i, i + 1): "t%d" % i
                                for i in range(len(tokens))})
    # (parent id, the child's ChildSpan, its depth)
    stack = [(None, bio.ChildSpan(0, len(tokens), ROOT_MASK), 1)]
    while stack:
        parent, child, depth = stack.pop()
        if parent is not None and child.end - child.start == 1:
            edges.append(Edge(parent, "t%d" % child.start, child.category))
            continue
        span = (child.start, child.end)
        node_id = "n%d" % len(nonterminals)
        nonterminals.append(Node(id=node_id, kind="nonterminal"))
        # Ids are given depth first, so a later id with a span lies deeper
        # on the same unary chain.
        trace.deepest[span] = node_id
        if parent is not None:
            edges.append(Edge(parent, node_id, child.category))
        step = steps.get((depth, span))
        if step is None:
            trace.notes.append("depth cap at node %s span %s"
                               % (node_id, span))
            positions = range(*span)
            p_pos = next((i for i in positions if tokens[i].upos == VERB_UPOS),
                         positions[0]) if child.category == "H" else None
            edges.extend(Edge(node_id, "t%d" % i, "P" if i == p_pos
                              else _fallback_category(tokens[i]))
                         for i in positions)
            continue
        step.node = node_id
        trace.steps.append(step)
        stack.extend((node_id, s, depth + 1)
                     for s in reversed(step.constrained))
    trace.tree_notes = len(trace.notes)
    return Passage(passage_id=passage_id, language=language, tokens=tokens,
                   nodes=tuple(nonterminals) + _terminals(len(tokens)),
                   edges=tuple(edges), root="n0"), trace


@cache
def _terminals(n):
    """The terminal nodes t0..t(n-1): one immutable tuple per sentence
    length, shared by every parse of that length."""
    return tuple(Node(id="t%d" % i, kind="terminal", position=i)
                 for i in range(n))


def _expand(span, arc, depth, mask, dist, tokens, mwe_mask, action_flags):
    """-> the TraceStep of the focus node (span, arc) at depth, from its
    tagger output: decodes, clips and constrains the child spans and
    covers every focus token. _assemble sets the step's node id."""
    start, end = span
    primary = dist.primary_spans
    firings = []

    kept = []
    for s in primary:
        if s.end <= start or s.start >= end:
            firings.append("drop out-of-focus span (%d,%d)"
                           % (s.start, s.end))
            continue
        if s.start < start or s.end > end:
            firings.append("clip span (%d,%d) to focus"
                           % (s.start, s.end))
            s = bio.ChildSpan(max(s.start, start), min(s.end, end),
                              s.category, False)
        kept.append(s)

    scene_level = arc == "H" or (
        arc == ROOT_MASK and not any(s.category == "H" for s in kept))
    spans = apply_constraints(kept, tokens, dist, mwe_mask, action_flags,
                              scene_level, focus=span, firings=firings)

    # Cover focus tokens missed by every child span, in one walk.
    children, covered = [], start
    for s in spans + [bio.ChildSpan(end, end, None)]:  # a sentinel at end
        children.extend(bio.ChildSpan(i, i + 1, _fallback_category(tokens[i]))
                        for i in range(covered, s.start))
        children.append(s)
        covered = s.end
    children.pop()

    return TraceStep(
        depth=depth, focus=span, arc=arc, mask=mask,
        decoded_primary=primary, constrained=tuple(children),
        firings=tuple(firings), node=None,
        remote_summary=dist.remote_summary)


def parse(tokens, tagger, ctx, cfg: DecoderConfig, passage_id="s0",
          language=None):
    """-> (Passage, ParseTrace) with remotes resolved at
    cfg.remote_threshold. The returned passage always validates and every
    node yield is contiguous. Raises ValueError when a tagger output is
    not one probability row over the BIO labels per token."""
    if not tokens:
        raise ParseError("empty token sequence")
    tokens = tuple(tokens)
    language = language or tokens[0].language
    action_flags = match(cfg.action_noun_lexicon, tokens).flags
    mwe_mask = match(ctx.lexicon, tokens)
    features = ctx.sentence(mwe_mask.flags)
    # (depth, span) -> its node's TraceStep. One batch per depth; the nodes
    # at the depth cap stay untagged. Ids are given after tagging, so an
    # example names its node by depth: the nodes of one depth have
    # disjoint spans, so depth and span tell every node of the parse
    # apart, a unary chain's too.
    steps = {}
    level, depth = [((0, len(tokens)), ROOT_MASK)], 1
    while level and depth < cfg.max_depth:
        examples = [MaskedExample(
            passage_id=passage_id, tokens=tokens,
            mask=tuple(arc if span[0] <= i < span[1] else OUTSIDE
                       for i in range(len(tokens))),
            focus_node="depth %d" % depth) for span, arc in level]
        dists = tagger.predict_batch(examples, features)
        for (span, arc), example, dist in zip(level, examples, dists):
            dist.check()
            steps[depth, span] = _expand(span, arc, depth, example.mask, dist,
                                         tokens, mwe_mask, action_flags)
        level = [((s.start, s.end), s.category) for span, _ in level
                 for s in steps[depth, span].constrained
                 if s.end - s.start > 1]
        depth += 1

    return resolve_remotes(*_assemble(steps, tokens, passage_id, language),
                           cfg.remote_threshold)


def resolve_remotes(passage, trace, remote_threshold):
    """-> (Passage, ParseTrace): a parse's primary tree with the remote
    edges its trace's REM summaries give at remote_threshold. Each remote
    span is attached to the deepest node whose primary yield equals it.
    The new trace shares every step with the input trace, which is left
    as it was."""
    edges = [e for e in passage.edges if not e.remote]
    existing = {(e.parent, e.child, e.category) for e in edges}
    notes = trace.notes[:trace.tree_notes]
    for step in trace.steps:
        parent = step.node
        for s in bio.decode_remote(step.remote_summary, remote_threshold):
            span = (s.start, s.end)
            target = trace.deepest.get(span)
            if target is None or target == parent or target == passage.root:
                notes.append("dropped remote %s %s from %s"
                             % (s.category, span, parent))
                continue
            key = (parent, target, s.category)
            if key in existing:
                notes.append("duplicate remote %s %s from %s"
                             % (s.category, span, parent))
                continue
            existing.add(key)
            edges.append(Edge(parent=parent, child=target,
                              category=s.category, remote=True))

    resolved = replace(passage, edges=tuple(edges))
    violations = validate(resolved, require_contiguous=True)
    if violations:
        raise ParseError("parser produced invalid passage: %s"
                         % "; ".join(violations))
    return resolved, replace(trace, notes=notes,
                             remote_threshold=remote_threshold)


def parse_sentences(sentences, tagger, ctx, cfg):
    """The parse loop: (passage_id, tokens, language) triples ->
    [(Passage, ParseTrace)], in input order."""
    return [parse(tokens, tagger, ctx, cfg, passage_id=pid,
                  language=language)
            for pid, tokens, language in sentences]


class _Replay:
    """One sentence's tagger: the wrapped one tags each focus node once,
    and a parse under another decoder setting replays its outputs. In one
    sentence a focus node and mask name one node: the nodes of a depth
    have disjoint spans, and a unary chain's nodes differ by depth."""

    def __init__(self, tagger):
        self.tagger = tagger
        self.memo = {}  # (focus_node, mask) -> TagDistribution

    def predict_batch(self, examples, features):
        """Only the examples not seen before are tagged, in one batch."""
        keys = [(ex.focus_node, ex.mask) for ex in examples]
        misses = [i for i, key in enumerate(keys) if key not in self.memo]
        self.memo.update(zip([keys[i] for i in misses],
                             self.tagger.predict_batch(
                                 [examples[i] for i in misses], features)))
        return [self.memo[key] for key in keys]


def score_parses(gold, tagger, ctx, cfgs):
    """-> [EvalReport]: for each DecoderConfig of cfgs in order, the
    overall report of parsing the gold passages' sentences under it. Each
    sentence is parsed under every config in turn through its own _Replay,
    so it is tagged once, and scored again only when its passage differs
    from its passage under the previous config."""
    totals = [evaluator.EvalReport() for _ in cfgs]
    for g in gold:
        replay, last = _Replay(tagger), None
        for i, cfg in enumerate(cfgs):
            passage, _ = parse(g.tokens, replay, ctx, cfg,
                               passage_id=g.passage_id, language=g.language)
            if passage != last:
                last, report = passage, evaluator.score(passage, g)
            totals[i] += report
    return totals
