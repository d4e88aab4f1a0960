"""Token featurization: word vectors plus categorical surface features.

Per token the tagger sees: a frozen 300-dim word vector, one trainable
embedding index per categorical table (POS, dependency relation, morph
values, affixes, capitalization, length bucket, language, mask symbol),
and a boolean MWE flag.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import MASK_SYMBOLS, CorpusError, MaskedExample, text_lines
from .lexicon import ExpressionLexicon, MweMask, match

PAD = "<pad>"
OOV = "<oov>"
NONE = "<none>"
SHORT = "<short>"

CAPS_CLASSES = ("all-lower", "initial-cap", "all-caps", "mixed", "non-alpha")
LENGTH_BUCKETS = ("1", "2", "3", "4-6", "7-10", "11+")

WORD_DIM = 300


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


def _form_symbols(form):
    """The six categorical symbols that depend on the form alone."""
    return {"caps": caps_class(form), "length": length_bucket(form),
            "prefix2": affix(form, 2, suffix=False),
            "prefix3": affix(form, 3, suffix=False),
            "suffix2": affix(form, 2, suffix=True),
            "suffix3": affix(form, 3, suffix=True)}


def _token_symbols(token, form_symbols=None):
    """Categorical feature symbols for one token (morph handled apart);
    form_symbols, when given, is _form_symbols(token.form)."""
    if form_symbols is None:
        form_symbols = _form_symbols(token.form)
    return {"deprel": token.deprel if token.deprel is not None else NONE,
            "upos": token.upos,
            "xpos": token.xpos if token.xpos is not None else NONE,
            "language": token.language, **form_symbols}


@dataclass(frozen=True)
class FeatureVocabularies:
    """Frozen symbol tables, one per categorical feature.

    Index 0 is PAD and index 1 is OOV in every table. Feature names are
    sorted so the tagger's input layout is deterministic.
    """

    tables: dict  # feature name -> {symbol: index}
    morph_keys: tuple

    def feature_names(self) -> list:
        return sorted(self.tables)

    def size(self, name: str) -> int:
        return len(self.tables[name])

    def index(self, name: str, symbol: str) -> int:
        return self.tables[name].get(symbol, 1)

    def inverse(self, name: str) -> dict:
        return {i: s for s, i in self.tables[name].items()}


def _make_table(symbols) -> dict:
    table = {PAD: 0, OOV: 1}
    for sym in sorted(set(symbols)):
        if sym not in table:
            table[sym] = len(table)
    return table


def fit_vocabularies(corpus) -> FeatureVocabularies:
    """Deterministic tables over every symbol seen in the corpus: examples
    or passages, whose tokens are all that is read."""
    if not corpus:
        raise CorpusError("cannot fit vocabularies on an empty corpus")
    seen = {name: set() for name in
            ("deprel", "upos", "xpos", "caps", "length", "prefix2",
             "prefix3", "suffix2", "suffix3", "language")}
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
    morph_keys = tuple(sorted(morph_values))
    for key in morph_keys:
        tables["morph:" + key] = _make_table(morph_values[key] | {NONE})
    return FeatureVocabularies(tables=tables, morph_keys=morph_keys)


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
        if len(parts) < 2:
            continue
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
    mwe: np.ndarray  # (T,) float 0/1, the flags of mwe_mask
    mwe_mask: MweMask


@dataclass(frozen=True)
class FeaturizerContext:
    """Everything needed to turn a MaskedExample into tagger input."""

    vocab: FeatureVocabularies
    embeddings: WordEmbeddingTable
    lexicon: ExpressionLexicon
    # form -> _form_symbols(form), filled by featurize
    forms: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def featurize(self, example: MaskedExample) -> "FeaturizedExample":
        return featurize(example, self.vocab, self.embeddings, self.lexicon,
                         self.forms)

    def remask(self, feats: FeaturizedExample, mask) -> FeaturizedExample:
        """The features of feats' sentence under another mask: only the
        mask ids are new, every other field is feats' own."""
        categorical = dict(feats.categorical)
        if "mask" in categorical:
            categorical["mask"] = _mask_ids(self.vocab, mask)
        return replace(feats, categorical=categorical)


def _mask_ids(vocab: FeatureVocabularies, mask) -> np.ndarray:
    table = vocab.tables["mask"]
    return np.array([table.get(sym, 1) for sym in mask], dtype=np.int64)


def featurize(example: MaskedExample, vocab: FeatureVocabularies,
              embeddings: WordEmbeddingTable, lex: ExpressionLexicon,
              forms=None) -> FeaturizedExample:
    """forms, form -> _form_symbols(form), is read and filled when given."""
    tokens = example.tokens
    n = len(tokens)
    forms = {} if forms is None else forms
    word_vectors = np.zeros((n, WORD_DIM))
    symbols = []
    for i, t in enumerate(tokens):
        word_vectors[i] = embeddings.lookup(t.form)
        if t.form not in forms:
            forms[t.form] = _form_symbols(t.form)
        symbols.append(_token_symbols(t, forms[t.form]))
    morphs = [dict(t.morph) for t in tokens]
    categorical = {}
    for name in vocab.feature_names():
        if name == "mask":
            categorical[name] = _mask_ids(vocab, example.mask)
            continue
        if name.startswith("morph:"):
            key = name[len("morph:"):]
            column = [m.get(key, NONE) for m in morphs]
        else:
            column = [s[name] for s in symbols]
        table = vocab.tables[name]
        categorical[name] = np.array([table.get(sym, 1) for sym in column],
                                     dtype=np.int64)
    mwe_mask = match(lex, tokens)
    return FeaturizedExample(length=n, word_vectors=word_vectors,
                             categorical=categorical,
                             mwe=np.array(mwe_mask.flags, dtype=float),
                             mwe_mask=mwe_mask)
