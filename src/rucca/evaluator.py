"""Edge-based F1 scoring of predicted passages against gold.

Edges are matched by the child's primary terminal yield, the category
(labeled mode only) and the remote flag. Reports follow the usual
Labeled/Unlabeled x Avg/Prim/Rem cell layout plus a per-category
breakdown and mono-/multi-scene corpus splits.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .graph import CATEGORIES, Passage, all_yields


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


@dataclass
class EvalReport:
    labeled: dict = field(default_factory=dict)    # avg/primary/remote
    unlabeled: dict = field(default_factory=dict)  # avg/primary/remote
    per_category: dict = field(default_factory=dict)
    sentences: int = 0

    @staticmethod
    def empty():
        zero = Counts()
        return EvalReport(
            labeled={"avg": zero, "primary": zero, "remote": zero},
            unlabeled={"avg": zero, "primary": zero, "remote": zero},
            per_category={c: zero for c in CATEGORIES},
            sentences=0)

    def __add__(self, other):
        out = EvalReport.empty()
        for mode in ("labeled", "unlabeled"):
            for cell in ("avg", "primary", "remote"):
                getattr(out, mode)[cell] = (getattr(self, mode)[cell]
                                            + getattr(other, mode)[cell])
        for c in CATEGORIES:
            out.per_category[c] = self.per_category[c] \
                + other.per_category[c]
        out.sentences = self.sentences + other.sentences
        return out


@dataclass
class CorpusReport:
    overall: EvalReport
    mono_scene: EvalReport
    multi_scene: EvalReport


def signatures(passage: Passage) -> Counter:
    """Multiset of (yield, category, remote) edge signatures."""
    yields = all_yields(passage)
    sigs = Counter()
    for e in passage.edges:
        y = tuple(sorted(yields[e.child]))
        sigs[(y, e.category, e.remote)] += 1
    return sigs


def _add(pred, gold, *cells):  # one key's matched, predicted, gold counts
    for cell in cells:
        cell[0] += min(pred, gold)
        cell[1] += pred
        cell[2] += gold


def score(pred: Passage, gold: Passage) -> EvalReport:
    """One pass over the union of the signatures fills the labeled cells
    and sums the unlabeled (yield, remote) keys that fill the others.

    Both passages must be valid (graph.validate), as load_passages and
    parse leave them: scoring does not check them again."""
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
    return EvalReport(
        labeled={k: Counts(*v) for k, v in labeled.items()},
        unlabeled={k: Counts(*v) for k, v in unlabeled.items()},
        per_category={k: Counts(*v) for k, v in per_category.items()},
        sentences=1)


def count_scene_edges(passage: Passage) -> int:
    return sum(1 for e in passage.edges if e.category == "H")


def score_corpus(pairs) -> CorpusReport:
    """Micro-averaged corpus report with mono/multi-scene splits.

    A sentence is mono-scene iff its gold graph has at most one H edge.
    """
    overall = EvalReport.empty()
    mono = EvalReport.empty()
    multi = EvalReport.empty()
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
