"""Multiword-expression lexicons and greedy leftmost-longest span matching."""

from dataclasses import dataclass
from functools import cached_property

from .corpus import text_lines


@dataclass(frozen=True)
class ExpressionLexicon:
    expressions: frozenset  # of token tuples, lowercased

    @cached_property
    def max_length(self) -> int:
        return max((len(e) for e in self.expressions), default=0)


@dataclass(frozen=True)
class MweMask:
    flags: tuple  # one boolean per token
    spans: tuple  # of (start, end) intervals, end exclusive


EMPTY_LEXICON = ExpressionLexicon(expressions=frozenset())


def load_lexicon(path) -> ExpressionLexicon:
    """One expression per line, tokens space-separated; '#' lines are
    comments. Duplicates are dropped."""
    expressions = set()
    for _, line in text_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            expressions.add(tuple(line.lower().split()))
    return ExpressionLexicon(expressions=frozenset(expressions))


def match(lexicon: ExpressionLexicon, tokens) -> MweMask:
    """Greedy leftmost-longest matching over lowercased surface forms."""
    forms = [t.form.lower() for t in tokens]
    n = len(forms)
    max_len = min(lexicon.max_length, n)
    spans = []
    i = 0
    while i < n:
        hit = None
        for length in range(max_len, 0, -1):
            if i + length <= n and tuple(forms[i:i + length]) \
                    in lexicon.expressions:
                hit = (i, i + length)
                break
        if hit is not None:
            spans.append(hit)
            i = hit[1]
        else:
            i += 1
    flags = [False] * n
    for start, end in spans:
        for j in range(start, end):
            flags[j] = True
    return MweMask(flags=tuple(flags), spans=tuple(spans))
