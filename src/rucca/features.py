"""Token featurization: word vectors plus categorical surface features.

Per token the tagger sees: a frozen 300-dim word vector, one trainable
embedding index per categorical table (POS, dependency relation, morph
values, affixes, capitalization, length bucket, language, mask symbol),
and a boolean MWE flag.
"""

from dataclasses import dataclass, replace

import numpy as np

from .corpus import MASK_SYMBOLS, CorpusError, MaskedExample, text_lines
from .lexicon import ExpressionLexicon, match

PAD = "<pad>"
OOV = "<oov>"
NONE = "<none>"
SHORT = "<short>"

CAPS_CLASSES = ("all-lower", "initial-cap", "all-caps", "mixed", "non-alpha")
LENGTH_BUCKETS = ("1", "2", "3", "4-6", "7-10", "11+")

WORD_DIM = 300

# one vocabulary table each; the vocabulary adds mask and morph:<key> ones
TOKEN_FEATURES = ("deprel", "upos", "xpos", "caps", "length", "prefix2",
                  "prefix3", "suffix2", "suffix3", "language")


class EmbeddingError(CorpusError):
    pass


def caps_class(form: str) -> str:
    alpha = [c for c in form if c.isalpha()]
    if not alpha:
        return "non-alpha"
    if all(c.islower() for c in alpha):
        return "all-lower"
    if all(c.isupper() for c in alpha):
        return "all-caps"
    if form[0].isupper() and all(c.islower() for c in alpha[1:]):
        return "initial-cap"
    return "mixed"


def length_bucket(form: str) -> str:
    n = len(form)
    if n <= 3:
        return str(n) if n >= 1 else "1"
    if n <= 6:
        return "4-6"
    if n <= 10:
        return "7-10"
    return "11+"


def affix(form: str, size: int, suffix: bool) -> str:
    low = form.lower()
    if len(low) < size:
        return SHORT
    return low[-size:] if suffix else low[:size]


def _token_symbols(token):
    """Categorical feature symbols for one token (morph handled apart)."""
    form = token.form
    return {"deprel": token.deprel if token.deprel is not None else NONE,
            "upos": token.upos,
            "xpos": token.xpos if token.xpos is not None else NONE,
            "language": token.language, "caps": caps_class(form),
            "length": length_bucket(form),
            "prefix2": affix(form, 2, suffix=False),
            "prefix3": affix(form, 3, suffix=False),
            "suffix2": affix(form, 2, suffix=True),
            "suffix3": affix(form, 3, suffix=True)}


def _make_table(symbols) -> dict:
    table = {PAD: 0, OOV: 1}
    for sym in sorted(set(symbols)):
        if sym not in table:
            table[sym] = len(table)
    return table


def fit_vocabularies(corpus) -> dict:
    """Deterministic tables over every symbol seen in the corpus: examples
    or passages, whose tokens are all that is read -> the vocabulary,
    {feature name: {symbol: index}}. Index 0 is PAD and index 1 is OOV in
    every table; the tagger lays its input out in sorted-name order."""
    if not corpus:
        raise CorpusError("cannot fit vocabularies on an empty corpus")
    seen = {name: set() for name in TOKEN_FEATURES}
    morph_values = {}
    for ex in corpus:
        for tok in ex.tokens:
            for name, sym in _token_symbols(tok).items():
                seen[name].add(sym)
            for key, value in tok.morph:
                morph_values.setdefault(key, set()).add(value)
    tables = {name: _make_table(symbols) for name, symbols in seen.items()}
    # Closed-set features always carry their full inventory.
    tables["caps"] = _make_table(CAPS_CLASSES)
    tables["length"] = _make_table(LENGTH_BUCKETS)
    tables["mask"] = _make_table(MASK_SYMBOLS)
    for key in sorted(morph_values):
        tables["morph:" + key] = _make_table(morph_values[key] | {NONE})
    return tables


@dataclass(frozen=True)
class WordEmbeddingTable:
    vectors: dict  # word -> np.ndarray of WORD_DIM values

    def lookup(self, form: str) -> np.ndarray:
        vec = self.vectors.get(form)
        if vec is None:
            vec = self.vectors.get(form.lower())
        if vec is None:
            return np.zeros(WORD_DIM)
        return vec


EMPTY_EMBEDDINGS = WordEmbeddingTable(vectors={})


def load_embeddings(path) -> WordEmbeddingTable:
    """Text format: one "word v1 ... v<WORD_DIM>" row per line. Rows with
    another number of values are skipped; a value that is not a finite
    number is an EmbeddingError."""
    vectors = {}
    for lineno, line in text_lines(path):
        parts = line.rstrip("\n").split(" ")
        word, values = parts[0], parts[1:]
        if len(values) != WORD_DIM:
            continue
        try:
            vectors[word] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise EmbeddingError("%s:%d: %s" % (path, lineno, exc)) \
                from None
        if not np.all(np.isfinite(vectors[word])):
            raise EmbeddingError("%s:%d: non-finite value for %r"
                                 % (path, lineno, word))
    if not vectors:
        raise EmbeddingError("no valid embedding rows in %s" % path)
    return WordEmbeddingTable(vectors=vectors)


@dataclass(frozen=True)
class FeaturizedExample:
    length: int
    word_vectors: np.ndarray  # (T, WORD_DIM), frozen
    categorical: dict  # feature name -> int array (T,)
    mwe: np.ndarray  # (T,) float 0/1: is the token in a lexicon MWE?


@dataclass(frozen=True)
class FeaturizerContext:
    """Everything needed to turn a MaskedExample into tagger input."""

    vocab: dict  # fit_vocabularies' {feature name: {symbol: index}}
    embeddings: WordEmbeddingTable
    lexicon: ExpressionLexicon

    def featurize(self, example: MaskedExample) -> "FeaturizedExample":
        return featurize(example, self.vocab, self.embeddings,
                         match(self.lexicon, example.tokens).flags)

    def sentence(self, mwe_flags):
        """-> features(example), the FeaturizedExample of an example of one
        sentence whose lexicon match has mwe_flags, built when read: the
        first call featurizes, and every call gives those features under
        its own example's mask, sharing every array but the mask ids."""
        first = None

        def features(example):
            nonlocal first
            if first is None:
                first = featurize(example, self.vocab, self.embeddings,
                                  mwe_flags)
            return replace(first, categorical={
                **first.categorical,
                "mask": _mask_ids(self.vocab, example.mask)})
        return features


def _mask_ids(vocab, mask) -> np.ndarray:
    table = vocab["mask"]
    return np.array([table.get(sym, 1) for sym in mask], dtype=np.int64)


def featurize(example: MaskedExample, vocab: dict,
              embeddings: WordEmbeddingTable, mwe_flags) -> FeaturizedExample:
    """mwe_flags is the lexicon match of example's tokens (MweMask.flags)."""
    tokens = example.tokens
    n = len(tokens)
    word_vectors = np.zeros((n, WORD_DIM))
    for i, t in enumerate(tokens):
        word_vectors[i] = embeddings.lookup(t.form)
    symbols = [_token_symbols(t) for t in tokens]
    morphs = [dict(t.morph) for t in tokens]
    categorical = {}
    for name in sorted(vocab):
        if name == "mask":
            categorical[name] = _mask_ids(vocab, example.mask)
            continue
        if name.startswith("morph:"):
            key = name[len("morph:"):]
            column = [m.get(key, NONE) for m in morphs]
        else:
            column = [s[name] for s in symbols]
        table = vocab[name]
        categorical[name] = np.array([table.get(sym, 1) for sym in column],
                                     dtype=np.int64)
    return FeaturizedExample(length=n, word_vectors=word_vectors,
                             categorical=categorical,
                             mwe=np.array(mwe_flags, dtype=float))
