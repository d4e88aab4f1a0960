"""BIO label codec for node children, including remote-edge variants.

Labels: "O", "B-X"/"I-X" per category X, plus "B-REM-X"/"I-REM-X" for
children attached by remote edges (tagged over their own primary yield,
possibly outside the focus node's span).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import CATEGORIES, OUTSIDE, Passage, all_yields, is_contiguous

# Fixed label vocabulary: O + B/I per category + B/I-REM per category = 53.
BIO_LABELS = ([OUTSIDE]
              + ["%s-%s" % (b, c) for c in CATEGORIES for b in ("B", "I")]
              + ["%s-REM-%s" % (b, c) for c in CATEGORIES for b in ("B", "I")])
BIO_INDEX = {label: i for i, label in enumerate(BIO_LABELS)}
N_BIO = len(BIO_LABELS)

PRIMARY_LABEL_IDS = np.array([i for i, lb in enumerate(BIO_LABELS)
                              if "REM" not in lb])
REMOTE_LABEL_IDS = np.array([i for i, lb in enumerate(BIO_LABELS)
                             if "REM" in lb])
# label id -> (opens a span, (category, remote) or None for O)
_DECODE = tuple((lb.startswith("B-"), None if lb == OUTSIDE
                 else (lb.rsplit("-", 1)[1], "-REM-" in lb))
                for lb in BIO_LABELS)
_ATOL = 1e-6  # TagDistribution.check's tolerance


class NotRepresentable(Exception):
    """The node's children layout cannot be expressed as one BIO sequence."""


class ChildSpan(NamedTuple):
    start: int
    end: int  # exclusive
    category: str
    remote: bool = False


@dataclass(frozen=True)
class RemoteSummary:
    """A tagger output's REM columns with each token's highest REM
    probability and the sentence's highest: a token takes a remote label
    at a threshold only if its highest exceeds it, so decode_remote finds
    no remote span, without reading a row, at a threshold the sentence's
    highest does not exceed."""

    rows: np.ndarray  # (T, 26), REMOTE_LABEL_IDS order
    token_max: np.ndarray  # (T,)
    highest: float  # -inf when T = 0


@dataclass(frozen=True)
class TagDistribution:
    """Per-token probability rows over the BIO vocabulary (TASK1) and,
    optionally, the auxiliary vocabulary (TASK2). A passed check, the
    primary spans and the REM summary are kept on first use, so a tagger
    output parsed again costs lookups; a failed check raises every time."""

    task1: np.ndarray  # (T, 53)
    task2: object = None  # (T, n_aux) or None

    def check(self):
        self._checked  # raises ValueError on rows that are no distribution

    @cached_property
    def _checked(self):
        t1 = self.task1
        if t1.ndim != 2 or t1.shape[1] != N_BIO:
            raise ValueError("task1 distribution has shape %s" % (t1.shape,))
        if not t1.min(initial=np.inf) >= -_ATOL:  # NaN too
            raise ValueError("negative or NaN probability in task1 rows")
        if np.abs(t1.sum(axis=1) - 1.0).max(initial=0.0) > _ATOL:
            raise ValueError("task1 rows do not sum to 1")

    @cached_property
    def primary_spans(self):  # decode_probs of the rows, as a tuple
        return tuple(decode_probs(self))

    @cached_property
    def remote_summary(self):  # the REM columns' RemoteSummary
        rows = self.task1[:, REMOTE_LABEL_IDS]
        token_max = rows.max(axis=1)
        return RemoteSummary(rows, token_max,
                             float(token_max.max(initial=-np.inf)))


def encode(passage: Passage, node_id: str) -> list:
    """Children of node_id as one BIO sequence over the whole sentence.

    Raises NotRepresentable when a child yield is empty, discontinuous or
    overlaps another child's; callers treat that as a skip. Otherwise each
    child's labels open with its own B-, so with valid categories (as
    graph.validate ensures) the labels decode to exactly the children's
    spans.
    """
    node = passage.node(node_id)
    if node.is_terminal():
        raise ValueError("cannot encode children of terminal %s" % node_id)
    yields = all_yields(passage)
    labels = [OUTSIDE] * len(passage.tokens)
    children = ([(e, c, False) for e, c in passage.primary_children(node_id)]
                + [(e, c, True) for e, c in passage.remote_children(node_id)])
    for e, child, remote in children:
        span = yields[child]
        if not span:
            raise NotRepresentable("empty child yield")
        if not is_contiguous(span):
            raise NotRepresentable("discontinuous child yield")
        start = min(span)
        tag = ("REM-" if remote else "") + e.category
        for pos in sorted(span):
            if labels[pos] != OUTSIDE:
                raise NotRepresentable("overlapping children at token %d"
                                       % pos)
            labels[pos] = ("B-" if pos == start else "I-") + tag
    return labels


def decode_labels(labels) -> list:
    """Total decoding of a BIO sequence into disjoint child spans.

    Repair rules: a dangling I- opens a new span; an I- of a different
    category closes the open span and opens a new one; O closes.
    """
    return _decode_ids([BIO_INDEX[label] for label in labels])


def _decode_ids(ids) -> list:
    """decode_labels over label ids."""
    spans = []
    start, open_key = 0, None
    for i, label_id in enumerate(ids):
        begins, key = _DECODE[label_id]
        if key == open_key and not begins:  # an I- that continues, or O
            continue
        if open_key is not None:
            spans.append(ChildSpan(start, i, *open_key))
        start, open_key = i, key
    if open_key is not None:
        spans.append(ChildSpan(start, len(ids), *open_key))
    return spans


def decode_probs(dist: TagDistribution) -> list:
    """Primary spans: per-token argmax over O + primary labels. The
    caller checks dist; dist.primary_spans keeps the result, and
    decode_remote decodes dist.remote_summary."""
    t1 = dist.task1
    primary = PRIMARY_LABEL_IDS[np.argmax(t1[:, PRIMARY_LABEL_IDS], axis=1)]
    return _decode_ids(primary.tolist())


def decode_remote(summary: RemoteSummary, remote_threshold: float) -> list:
    """Remote spans of a tagger output's REM summary: a token takes its
    argmax remote label only when that label's probability strictly
    exceeds the threshold, which DecoderConfig keeps in [0, 1]."""
    if summary.highest <= remote_threshold:
        return []
    ids = np.where(summary.token_max > remote_threshold,
                   REMOTE_LABEL_IDS[np.argmax(summary.rows, axis=1)],
                   BIO_INDEX[OUTSIDE])
    return _decode_ids(ids.tolist())


def one_hot(labels) -> np.ndarray:
    """(T, 53) one-hot rows for a gold label sequence."""
    out = np.zeros((len(labels), N_BIO))
    out[np.arange(len(labels)),
        np.array([BIO_INDEX[label] for label in labels], dtype=np.intp)] = 1.0
    return out
