"""Edge-based F1 scoring of predicted passages against gold.

Edges are matched by the child's primary terminal yield, the category
(labeled mode only) and the remote flag. Reports follow the usual
Labeled/Unlabeled x Avg/Prim/Rem cell layout plus a per-category
breakdown and mono-/multi-scene corpus splits.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import add
from types import MappingProxyType

from .graph import CATEGORIES, Passage


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Counts:
    matched: int = 0
    predicted: int = 0
    gold: int = 0

    def __add__(self, other):
        return Counts(self.matched + other.matched,
                      self.predicted + other.predicted,
                      self.gold + other.gold)

    @property
    def precision(self):
        return self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self):
        return self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


# EvalReport.tally layout: (matched, predicted, gold) per cell, cells in
# the order labeled primary, labeled remote, unlabeled primary, unlabeled
# remote, then one per category. An Avg cell is its mode's primary plus
# remote cell.
_LABELED, _UNLABELED = 0, 6  # a mode's primary cell; its remote cell is +3
_CATEGORY_AT = {c: 12 + 3 * i for i, c in enumerate(CATEGORIES)}
_ZERO_TALLY = (0,) * (12 + 3 * len(CATEGORIES))


@dataclass(frozen=True)
class EvalReport:
    """Counts of one or more scored sentences, held as one integer tally
    (see _ZERO_TALLY), so adding two reports adds two tuples. labeled,
    unlabeled (cell -> Counts for avg/primary/remote) and per_category
    (category -> labeled Counts) are read-only views of it, each built on
    first read."""
    tally: tuple = _ZERO_TALLY
    sentences: int = 0

    def __add__(self, other):
        return EvalReport(tuple(map(add, self.tally, other.tally)),
                          self.sentences + other.sentences)

    def _counts(self, at):  # the Counts whose matched count is tally[at]
        return Counts(*self.tally[at:at + 3])

    def _mode(self, at):
        primary, remote = self._counts(at), self._counts(at + 3)
        return MappingProxyType({"avg": primary + remote,
                                 "primary": primary, "remote": remote})

    @cached_property
    def labeled(self):
        return self._mode(_LABELED)

    @cached_property
    def unlabeled(self):
        return self._mode(_UNLABELED)

    @cached_property
    def per_category(self):
        return MappingProxyType({c: self._counts(at)
                                 for c, at in _CATEGORY_AT.items()})


@dataclass
class CorpusReport:
    overall: EvalReport
    mono_scene: EvalReport
    multi_scene: EvalReport


def signatures(passage: Passage):
    """Read-only multiset of (yield, category, remote) edge signatures,
    built once per passage and shared by all callers; a key not in it
    counts 0."""
    return passage._index.signatures


def score(pred: Passage, gold: Passage) -> EvalReport:
    """One pass over the two signature multisets fills the labeled cells
    and sums the unlabeled (yield, remote) keys that fill the others.

    Both passages must be valid (graph.validate), as load_passages and
    parse leave them: scoring does not check them again."""
    if tuple(t.form for t in pred.tokens) != \
            tuple(t.form for t in gold.tokens):
        raise EvalError("token mismatch between %s and %s"
                        % (pred.passage_id, gold.passage_id))
    ps = signatures(pred)
    gs = signatures(gold)
    tally = list(_ZERO_TALLY)
    keys = {}  # (yield, remote) -> [pred, gold]
    for sig in ps.keys() | gs.keys():
        p, g = ps.get(sig, 0), gs.get(sig, 0)
        y, category, remote = sig
        m = p if p < g else g
        at = _LABELED + 3 * remote
        tally[at] += m
        tally[at + 1] += p
        tally[at + 2] += g
        at = _CATEGORY_AT[category]
        tally[at] += m
        tally[at + 1] += p
        tally[at + 2] += g
        key = keys.setdefault((y, remote), [0, 0])
        key[0] += p
        key[1] += g
    for (_, remote), (p, g) in keys.items():
        at = _UNLABELED + 3 * remote
        tally[at] += min(p, g)
        tally[at + 1] += p
        tally[at + 2] += g
    return EvalReport(tuple(tally), sentences=1)


def count_scene_edges(passage: Passage) -> int:
    return sum(1 for e in passage.edges if e.category == "H")


def score_corpus(pairs) -> CorpusReport:
    """Micro-averaged corpus report with mono/multi-scene splits.

    A sentence is mono-scene iff its gold graph has at most one H edge.
    """
    overall = EvalReport()
    mono = EvalReport()
    multi = EvalReport()
    for pred, gold in pairs:
        report = score(pred, gold)
        overall = overall + report
        if count_scene_edges(gold) <= 1:
            mono = mono + report
        else:
            multi = multi + report
    return CorpusReport(overall=overall, mono_scene=mono, multi_scene=multi)


# ---------------------------------------------------------------------------
# Rendering

def _row(label, cells):
    values = []
    for c in cells:
        values.extend([c.precision, c.recall, c.f1])
    return ("%-10s" % label) + "".join("%8.4f" % v for v in values)


def render_text(report: EvalReport, title="Evaluation") -> str:
    """Aligned table: rows Labeled/Unlabeled, cells Avg/Prim/Rem.

    The Avg cell micro-averages primary and remote edges jointly.
    """
    lines = ["%s (%d sentences; Avg = primary+remote micro-average)"
             % (title, report.sentences)]
    header = "%-10s" % "" + "".join(
        "%8s" % h for cell in ("Avg", "Prim", "Rem")
        for h in (cell + " P", cell + " R", cell + " F1"))
    lines.append(header)
    for mode in ("Labeled", "Unlabeled"):
        cells = getattr(report, mode.lower())
        lines.append(_row(mode, [cells["avg"], cells["primary"],
                                 cells["remote"]]))
    lines.append("Per-category labeled F1:")
    lines.append("  " + "  ".join(
        "%s=%.4f" % (c, report.per_category[c].f1) for c in CATEGORIES))
    return "\n".join(lines)


def render_corpus_text(corpus: CorpusReport) -> str:
    parts = [render_text(corpus.overall, "Overall")]
    if corpus.mono_scene.sentences:
        parts.append(render_text(corpus.mono_scene, "Mono-scene"))
    if corpus.multi_scene.sentences:
        parts.append(render_text(corpus.multi_scene, "Multi-scene"))
    return "\n\n".join(parts)


def _counts_record(c: Counts):
    return {"matched": c.matched, "predicted": c.predicted, "gold": c.gold,
            "precision": c.precision, "recall": c.recall, "f1": c.f1}


def report_record(report: EvalReport) -> dict:
    return {
        "sentences": report.sentences,
        "labeled": {cell: _counts_record(report.labeled[cell])
                    for cell in ("avg", "primary", "remote")},
        "unlabeled": {cell: _counts_record(report.unlabeled[cell])
                      for cell in ("avg", "primary", "remote")},
        "per_category": {c: _counts_record(report.per_category[c])
                         for c in CATEGORIES},
    }


def corpus_record(corpus: CorpusReport) -> dict:
    return {"overall": report_record(corpus.overall),
            "mono_scene": report_record(corpus.mono_scene),
            "multi_scene": report_record(corpus.multi_scene)}
