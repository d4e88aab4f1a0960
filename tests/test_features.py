import numpy as np
import pytest
from hypothesis import given, strategies as st

from rucca.corpus import MASK_SYMBOLS, MaskedExample, expand
from rucca.features import (EMPTY_EMBEDDINGS, NONE, WORD_DIM, EmbeddingError,
                            FeaturizedExample, FeaturizerContext,
                            WordEmbeddingTable, _token_symbols, affix,
                            caps_class, featurize, fit_vocabularies,
                            length_bucket, load_embeddings)
from rucca.graph import make_token
from rucca.lexicon import EMPTY_LEXICON, ExpressionLexicon, match

from helpers import assert_same_features, fig1_passage, single_token_passage


def _example(tokens, mask=None):
    mask = mask or tuple("O" for _ in tokens)
    return MaskedExample(passage_id="x", tokens=tuple(tokens), mask=mask,
                         focus_node="n0")


def _inverse(table):
    return {i: s for s, i in table.items()}


def test_caps_classes():
    assert caps_class("paris") == "all-lower"
    assert caps_class("Paris") == "initial-cap"
    assert caps_class("NASA") == "all-caps"
    assert caps_class("iPhone") == "mixed"
    assert caps_class("1234") == "non-alpha"


def test_length_buckets():
    assert length_bucket("a") == "1"
    assert length_bucket("ab") == "2"
    assert length_bucket("abc") == "3"
    assert length_bucket("Paris") == "4-6"
    assert length_bucket("absolute") == "7-10"
    assert length_bucket("extraordinary") == "11+"


def test_affixes_and_short_words():
    assert affix("Paris", 2, suffix=False) == "pa"
    assert affix("Paris", 3, suffix=True) == "ris"
    assert affix("de", 3, suffix=False) == "<short>"
    assert affix("de", 2, suffix=True) == "de"


def test_fit_vocabularies_sizes_and_determinism():
    corpus = [_example([make_token("dog", "NOUN"),
                        make_token("runs", "VERB")])]
    vocab1 = fit_vocabularies(corpus)
    vocab2 = fit_vocabularies(corpus)
    assert vocab1 == vocab2
    # PAD + OOV + NOUN + VERB
    assert len(vocab1["upos"]) == 4
    assert vocab1["upos"]["NOUN"] >= 2
    assert vocab1["upos"]["<oov>"] == 1 and "UNSEEN" not in vocab1["upos"]


def test_fit_vocabularies_multilingual():
    corpus = [_example([make_token("chien", "NOUN", language="fr"),
                        make_token("dog", "NOUN", language="en")])]
    vocab = fit_vocabularies(corpus)
    assert vocab["language"]["fr"] >= 2
    assert vocab["language"]["en"] >= 2


def test_fit_vocabularies_empty_corpus():
    with pytest.raises(ValueError):
        fit_vocabularies([])


def test_featurize_basic_symbols():
    tokens = [make_token("Paris", "PROPN"), make_token("de", "ADP")]
    corpus = [_example(tokens)]
    vocab = fit_vocabularies(corpus)
    feats = featurize(_example(tokens), vocab, EMPTY_EMBEDDINGS,
                      (False, False))
    inv_caps = _inverse(vocab["caps"])
    assert inv_caps[feats.categorical["caps"][0]] == "initial-cap"
    inv_len = _inverse(vocab["length"])
    assert inv_len[feats.categorical["length"][0]] == "4-6"
    inv_p2 = _inverse(vocab["prefix2"])
    assert inv_p2[feats.categorical["prefix2"][0]] == "pa"
    inv_s3 = _inverse(vocab["suffix3"])
    assert inv_s3[feats.categorical["suffix3"][0]] == "ris"
    # mask O maps through the fixed mask table
    inv_mask = _inverse(vocab["mask"])
    assert inv_mask[feats.categorical["mask"][1]] == "O"


def test_featurize_mask_roundtrip_on_fig1():
    p = fig1_passage()
    examples = expand(p)
    vocab = fit_vocabularies(examples)
    inv = _inverse(vocab["mask"])
    for ex in examples:
        feats = featurize(ex, vocab, EMPTY_EMBEDDINGS,
                          (False,) * len(ex.tokens))
        decoded = tuple(inv[i] for i in feats.categorical["mask"])
        assert decoded == ex.mask


def test_featurize_is_total_on_unseen_symbols():
    vocab = fit_vocabularies([_example([make_token("a", "X")])])
    weird = _example([make_token("Zzz@#", "WEIRD", xpos="??",
                                 morph={"Strange": "Yes"},
                                 language="xx")])
    feats = featurize(weird, vocab, EMPTY_EMBEDDINGS, (False,))
    assert feats.categorical["upos"][0] == 1  # OOV
    assert feats.categorical["language"][0] == 1


def test_featurize_mwe_flag():
    tokens = [make_token("in", "ADP"), make_token("front", "NOUN"),
              make_token("of", "ADP")]
    lex = ExpressionLexicon(expressions=frozenset({("in", "front", "of")}))
    vocab = fit_vocabularies([_example(tokens)])
    feats = FeaturizerContext(vocab=vocab, embeddings=EMPTY_EMBEDDINGS,
                              lexicon=lex).featurize(_example(tokens))
    assert feats.mwe.tolist() == [1.0, 1.0, 1.0]


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    dim = 300
    row = " ".join(["0.5"] * dim)
    short = " ".join(["0.1"] * (dim - 1))
    path.write_text("dog %s\ncat %s\nbad %s\nlone\n\n" % (row, row, short))
    table = load_embeddings(path)
    assert len(table.vectors) == 2  # the short and one-field rows are skipped
    assert table.lookup("dog").shape == (300,)
    assert np.all(table.lookup("missing") == 0.0)


def test_load_embeddings_all_invalid(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 1 2 3\n")
    with pytest.raises(EmbeddingError):
        load_embeddings(path)


def test_load_embeddings_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_embeddings(tmp_path / "absent.txt")


def test_context_featurize_matches_direct_call():
    p = single_token_passage()
    examples = expand(p)
    vocab = fit_vocabularies(examples)
    ctx = FeaturizerContext(vocab=vocab, embeddings=EMPTY_EMBEDDINGS,
                            lexicon=EMPTY_LEXICON)
    a = ctx.featurize(examples[0])
    b = featurize(examples[0], vocab, EMPTY_EMBEDDINGS, (False,))
    assert np.array_equal(a.categorical["upos"], b.categorical["upos"])


def test_load_embeddings_rejects_non_finite_values(tmp_path):
    path = tmp_path / "vec.txt"
    row = " ".join(["0.5"] * 300)
    for bad in ("nan", "inf", "-Infinity"):
        path.write_text("dog %s\ncat %s %s\n" % (row, bad, row[4:]))
        with pytest.raises(EmbeddingError, match=r"vec\.txt:2: non-finite"):
            load_embeddings(path)


def _featurize_per_table(example, vocab, embeddings, lex):
    """featurize as one pass over the tokens per feature table: the
    reference for the single pass over the tokens."""
    tokens = example.tokens
    n = len(tokens)
    word_vectors = np.stack([embeddings.lookup(t.form) for t in tokens]) \
        if n else np.zeros((0, WORD_DIM))
    categorical = {}
    for name in sorted(vocab):
        if name == "mask":
            idx = [vocab["mask"].get(sym, 1) for sym in example.mask]
        elif name.startswith("morph:"):
            key = name[len("morph:"):]
            idx = [vocab[name].get(dict(t.morph).get(key, NONE), 1)
                   for t in tokens]
        else:
            idx = [vocab[name].get(_token_symbols(t)[name], 1)
                   for t in tokens]
        categorical[name] = np.array(idx, dtype=np.int64)
    mwe = np.array(match(lex, tokens).flags, dtype=float) if n \
        else np.zeros(0)
    return FeaturizedExample(length=n, word_vectors=word_vectors,
                             categorical=categorical, mwe=mwe)


_FORMS = ("in", "front", "of", "Paris", "DOG", "x", "iPhone", "42", "de")

_token = st.builds(
    make_token,
    form=st.sampled_from(_FORMS),
    upos=st.sampled_from(("NOUN", "VERB", "ADP", "WEIRD")),
    xpos=st.none() | st.sampled_from(("NN", "VB")),
    morph=st.dictionaries(st.sampled_from(("Number", "Tense", "Case")),
                          st.sampled_from(("Sing", "Plur", "Past")),
                          max_size=3),
    deprel=st.none() | st.sampled_from(("nsubj", "obj")),
    language=st.sampled_from(("en", "fr")))


@st.composite
def _featurizer_case(draw):
    """A context whose vocabularies were fit on some tokens, an example of
    other tokens (so unseen symbols occur) and a second mask."""
    seen = draw(st.lists(_token, min_size=1, max_size=6))
    tokens = tuple(draw(st.lists(_token, max_size=8)))
    masks = st.lists(st.sampled_from(MASK_SYMBOLS), min_size=len(tokens),
                     max_size=len(tokens)).map(tuple)
    example = MaskedExample(passage_id="x", tokens=tokens, mask=draw(masks),
                            focus_node="n0")
    lexicon = ExpressionLexicon(expressions=frozenset(
        {("in", "front", "of"), ("paris",), ("dog", "x")}))
    embeddings = WordEmbeddingTable(
        vectors={"in": np.arange(WORD_DIM, dtype=float),
                 "paris": -np.ones(WORD_DIM)})
    ctx = FeaturizerContext(vocab=fit_vocabularies([_example(seen)]),
                            embeddings=embeddings, lexicon=lexicon)
    return ctx, example, draw(masks)


@given(_featurizer_case())
def test_featurize_matches_per_table_reference(case):
    ctx, example, _ = case
    assert_same_features(
        ctx.featurize(example),
        _featurize_per_table(example, ctx.vocab, ctx.embeddings,
                             ctx.lexicon))


@given(_featurizer_case())
def test_remask_equals_featurize_under_the_new_mask(case):
    """A sentence's feature source featurizes its first example and gives
    that result under the next example's mask."""
    ctx, example, mask = case
    source = ctx.sentence(match(ctx.lexicon, example.tokens).flags)
    feats = source(example)
    remasked = source(example._replace(mask=mask))
    assert_same_features(feats, ctx.featurize(example))
    assert_same_features(remasked,
                         ctx.featurize(example._replace(mask=mask)))
    # Only the mask ids are new; the sentence's arrays are shared.
    assert remasked.word_vectors is feats.word_vectors
    assert remasked.mwe is feats.mwe
    for name, ids in feats.categorical.items():
        assert (remasked.categorical[name] is ids) == (name != "mask")
