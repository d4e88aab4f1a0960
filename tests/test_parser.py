import gc
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rucca import bio, cli, evaluator, features, parser
from rucca.corpus import AUX_OUTSIDE, passage_to_record
from rucca.evaluator import score, score_corpus
from rucca.features import WORD_DIM, WordEmbeddingTable
from rucca.graph import Edge, TokenRow, all_yields, make_token, validate
from rucca.lexicon import ExpressionLexicon
from rucca.parser import (DecoderConfig, ParseError, apply_constraints,
                          parse, resolve_remotes)
from rucca.lexicon import MweMask, match
from rucca.tagger import GruTagger, OracleTagger, Tagger, TaggerConfig

from helpers import (FixedTagger, KeyedRandomTagger, RandomTagger,
                     assert_same_features, context_for, fig1_passage,
                     fixture_corpus, random_corpus,
                     reference_decode_remote, reference_merge_scene_spans,
                     reference_mwe_integrity,
                     reference_parse, refuse_featurize, single_token_passage,
                     two_scene_5tok_passage)

NO_MWE = MweMask(flags=(), spans=())
NO_ACTION_NOUNS = (False,)


def _uniformish(n):
    t1 = np.full((n, bio.N_BIO), 1.0 / bio.N_BIO)
    return bio.TagDistribution(task1=t1)


def _spans(*triples):
    return [bio.ChildSpan(s, e, c, False) for s, e, c in triples]


def _tokens(*pairs):
    return tuple(make_token(f, u) for f, u in pairs)


def test_constraint_scene_merge_backward():
    tokens = _tokens(("she", "PRON"), ("sings", "VERB"), ("well", "ADV"),
                     ("today", "ADV"))
    spans = _spans((0, 2, "H"), (2, 4, "H"))  # second scene has no verb
    out = apply_constraints(spans, tokens, _uniformish(4), NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == _spans((0, 4, "H"))


def test_constraint_scene_merge_takes_the_nearest_preceding_scene():
    # [she sings] [he plays] [well]: the weak third scene joins the second.
    tokens = _tokens(("she", "PRON"), ("sings", "VERB"), ("he", "PRON"),
                     ("plays", "VERB"), ("well", "ADV"))
    spans = _spans((0, 2, "H"), (2, 4, "H"), (4, 5, "H"))
    out = apply_constraints(spans, tokens, _uniformish(5), NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == _spans((0, 2, "H"), (2, 5, "H"))


def test_constraint_scene_merge_forward_fallback():
    tokens = _tokens(("today", "ADV"), ("quiet", "ADJ"),
                     ("she", "PRON"), ("sings", "VERB"))
    spans = _spans((0, 2, "H"), (2, 4, "H"))  # first scene has no verb
    out = apply_constraints(spans, tokens, _uniformish(4), NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == _spans((0, 4, "H"))


def test_constraint_scene_merge_action_noun_qualifies():
    lex = ExpressionLexicon(expressions=frozenset({("meeting",)}))
    tokens = _tokens(("the", "DET"), ("meeting", "NOUN"),
                     ("she", "PRON"), ("sings", "VERB"))
    spans = _spans((0, 2, "H"), (2, 4, "H"))
    cfg = DecoderConfig(action_noun_lexicon=lex)
    out = apply_constraints(spans, tokens, _uniformish(4), NO_MWE,
                            match(cfg.action_noun_lexicon, tokens).flags,
                            at_scene_level=False)
    assert out == spans  # both scenes qualify, nothing merges


def test_constraint_no_qualifying_scene_leaves_spans():
    tokens = _tokens(("red", "ADJ"), ("blue", "ADJ"))
    spans = _spans((0, 1, "H"), (1, 2, "H"))
    out = apply_constraints(spans, tokens, _uniformish(2), NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == spans


def test_constraint_single_state_process_dedup():
    tokens = _tokens(("she", "PRON"), ("sings", "VERB"), ("plays", "VERB"))
    t1 = np.zeros((3, bio.N_BIO))
    t1[:, bio.BIO_INDEX["O"]] = 1.0
    # token 2 has the highest P probability
    t1[1, bio.BIO_INDEX["O"]] = 0.6
    t1[1, bio.BIO_INDEX["B-P"]] = 0.4
    t1[2, bio.BIO_INDEX["O"]] = 0.3
    t1[2, bio.BIO_INDEX["B-P"]] = 0.7
    dist = bio.TagDistribution(task1=t1)
    spans = _spans((0, 1, "A"), (1, 2, "P"), (2, 3, "P"))
    out = apply_constraints(spans, tokens, dist, NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=True)
    assert out == _spans((0, 1, "A"), (1, 2, "C"), (2, 3, "P"))


def test_constraint_single_state_process_inserts_when_missing():
    tokens = _tokens(("she", "PRON"), ("sings", "VERB"))
    t1 = np.zeros((2, bio.N_BIO))
    t1[:, bio.BIO_INDEX["O"]] = 1.0
    t1[1, bio.BIO_INDEX["O"]] = 0.9
    t1[1, bio.BIO_INDEX["B-S"]] = 0.1
    dist = bio.TagDistribution(task1=t1)
    out = apply_constraints([], tokens, dist, NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=True)
    assert out == [bio.ChildSpan(1, 2, "S", False)]


def test_constraint_mwe_merges_adjacent_spans():
    tokens = _tokens(("she", "PRON"), ("stood", "VERB"), ("in", "ADP"),
                     ("front", "NOUN"), ("of", "ADP"), ("him", "PRON"))
    mwe = match(ExpressionLexicon(
        expressions=frozenset({("in", "front", "of")})),
        tokens)
    # boundary at 3 falls inside the MWE span (2, 5)
    spans = _spans((0, 3, "A"), (3, 6, "A"))
    out = apply_constraints(spans, tokens, _uniformish(6), mwe,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == _spans((0, 6, "A"))


def test_constraint_mwe_ignores_non_ha_spans():
    tokens = _tokens(("in", "ADP"), ("front", "NOUN"), ("of", "ADP"),
                     ("him", "PRON"))
    mwe = match(ExpressionLexicon(
        expressions=frozenset({("in", "front", "of")})),
        tokens)
    spans = _spans((0, 2, "C"), (2, 4, "E"))
    out = apply_constraints(spans, tokens, _uniformish(4), mwe,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=False)
    assert out == spans


def _mwe_extend(spans, focus, n=6, mwe_spans=((1, 4),)):
    """apply_constraints over n verbless tokens with the given MWE spans;
    -> (spans, firings)."""
    tokens = _tokens(*[("w%d" % i, "NOUN") for i in range(n)])
    firings = []
    out = apply_constraints(spans, tokens, _uniformish(n),
                            MweMask(flags=(), spans=mwe_spans),
                            NO_ACTION_NOUNS * n, at_scene_level=False,
                            focus=focus, firings=firings)
    return out, firings


def test_constraint_mwe_extends_a_start_inside_an_mwe():
    # nothing ends at 2, inside the MWE (1, 4): the span extends to 1
    out, firings = _mwe_extend(_spans((2, 5, "A")), (0, 6))
    assert out == _spans((1, 5, "A"))
    assert firings == ["mwe-extend (2,5)->(1,5)"]


def test_constraint_mwe_extends_an_end_inside_an_mwe():
    out, firings = _mwe_extend(_spans((0, 2, "H")), (0, 6))
    assert out == _spans((0, 4, "H"))
    assert firings == ["mwe-extend (0,2)->(0,4)"]


def test_constraint_mwe_extension_stops_at_the_focus_edge():
    # the MWE (1, 4) starts left of the focus (2, 6)
    out, firings = _mwe_extend(_spans((3, 6, "A")), (2, 6))
    assert out == _spans((2, 6, "A"))
    assert firings == ["mwe-extend (3,6)->(2,6)"]


def test_constraint_mwe_extension_absorbs_overlapped_spans():
    # extending (3, 6) to 1 overlaps (0, 2): the merged span starts at 0
    # and takes the category of the leftmost span it absorbs
    out, firings = _mwe_extend(_spans((0, 2, "C"), (3, 6, "A")), (0, 6))
    assert out == _spans((0, 6, "C"))
    assert firings == ["mwe-extend (3,6)->(0,6)"]


def test_constraint_restores_the_sp_span_an_mwe_merge_took():
    # (0, 2) ends inside the MWE (1, 3) and merges with the P span; the
    # scene then has no S/P span, and the best P token takes the merge
    tokens = _tokens(("she", "PRON"), ("sang", "VERB"), ("at", "ADP"),
                     ("least", "ADJ"))
    t1 = np.full((4, bio.N_BIO), 0.01)
    t1[2, bio.BIO_INDEX["B-P"]] = 0.9
    firings = []
    out = apply_constraints(_spans((0, 2, "A"), (2, 4, "P")), tokens,
                            bio.TagDistribution(task1=t1),
                            MweMask(flags=(), spans=((1, 3),)),
                            NO_ACTION_NOUNS * 4, at_scene_level=True,
                            firings=firings)
    assert out == _spans((0, 4, "P"))
    assert firings == ["mwe-merge (0,2)+(2,4)",
                       "force-single-SP token=2 category=P"]


@st.composite
def _constraint_inputs(draw, categories="HHAASPCDEF", keep=st.booleans(),
                       upos=("VERB", "NOUN"), action=st.booleans(),
                       whole=False):
    """Random disjoint spans inside a random focus, with random per-token
    upos tags and action flags, disjoint MWE spans and tag probabilities.
    A span's category is drawn from categories, a token's upos from upos,
    action draws a token's action flag, and keep draws whether a span or
    an MWE span is kept. whole makes the focus the whole sentence. Only
    the S/P columns of the focus rows are drawn, as constraint 2 reads no
    other probability."""
    n = draw(st.integers(1, 12))
    start = 0 if whole else draw(st.integers(0, n - 1))
    end = n if whole else draw(st.integers(start + 1, n))
    cuts = sorted(draw(st.sets(st.integers(start, end), min_size=2)))
    spans = [bio.ChildSpan(a, b, draw(st.sampled_from(categories)), False)
             for a, b in zip(cuts, cuts[1:]) if draw(keep)]
    mwe_cuts = sorted(draw(st.sets(st.integers(0, n))))
    mwe_spans = tuple((a, b) for a, b in zip(mwe_cuts, mwe_cuts[1:])
                      if b - a > 1 and draw(keep))
    tokens = _tokens(*[("w%d" % i, draw(st.sampled_from(upos)))
                       for i in range(n)])
    action_flags = tuple(draw(st.lists(action, min_size=n, max_size=n)))
    sp_ids = list(parser._SP_LABEL_IDS)
    size = (end - start) * len(sp_ids)
    task1 = np.full((n, bio.N_BIO), 0.5)
    task1[start:end, sp_ids] = np.reshape(draw(st.lists(
        st.floats(0.01, 1.0), min_size=size, max_size=size)),
        (-1, len(sp_ids)))
    return (spans, tokens, bio.TagDistribution(task1=task1),
            MweMask(flags=(), spans=mwe_spans), action_flags, (start, end))


@settings(max_examples=200, deadline=None)
# The defaults draw short foci that mostly hold at most one span; whole
# sentences with every span kept hold several.
@given(st.one_of(_constraint_inputs(),
                 _constraint_inputs(keep=st.just(True), whole=True)),
       st.booleans())
def test_constraints_keep_their_invariants(inputs, at_scene_level):
    spans, tokens, dist, mwe, action_flags, focus = inputs
    out = apply_constraints(spans, tokens, dist, mwe, action_flags,
                            at_scene_level, focus=focus)
    assert all(focus[0] <= s.start < s.end <= focus[1] for s in out)
    assert all(a.end <= b.start for a, b in zip(out, out[1:]))
    for s in out:
        if s.category in ("H", "A"):
            assert not any(ms < b < me for b in (s.start, s.end)
                           if b not in focus for ms, me in mwe.spans)
    if at_scene_level:
        assert len([s for s in out if s.category in ("S", "P")]) == 1


@settings(max_examples=200, deadline=None)
@given(_constraint_inputs(categories="HHHAAACP",
                          keep=st.sampled_from((True, True, True, False))))
# an extended end absorbs the spans after it, a C span among them
@example(inputs=(_spans((0, 2, "H"), (3, 4, "C"), (4, 5, "A")), None, None,
                 MweMask(flags=(), spans=((1, 5),)), None, (0, 6)))
# both boundaries lie inside an MWE: the start is fixed first
@example(inputs=(_spans((0, 1, "C"), (2, 5, "A"), (6, 8, "C")), None, None,
                 MweMask(flags=(), spans=((1, 3), (4, 7))), None, (0, 8)))
def test_mwe_integrity_matches_the_rescanning_reference(inputs):
    spans, _, _, mwe, _, focus = inputs
    firings, expected_firings = [], []
    out = parser._mwe_integrity(spans, mwe.spans, focus, firings)
    assert out == reference_mwe_integrity(spans, mwe.spans, focus,
                                          expected_firings)
    assert firings == expected_firings


@settings(max_examples=200, deadline=None)
# Every span kept over the whole sentence, mostly H, with one verb or
# action noun in about 3 tokens: about 2 in 5 examples fire a merge (1 in
# 100 with the defaults, where most foci are one token).
@given(_constraint_inputs(categories="HHHHA", keep=st.just(True),
                          upos=("VERB", "NOUN", "NOUN"),
                          action=st.sampled_from((False,) * 7 + (True,)),
                          whole=True))
# a forward merge absorbs a C span and a second weak H span
@example(inputs=(_spans((0, 1, "H"), (1, 2, "C"), (2, 3, "H"), (3, 4, "H")),
                 _tokens(("a", "NOUN"), ("b", "NOUN"), ("c", "NOUN"),
                         ("d", "VERB")),
                 None, None, NO_ACTION_NOUNS * 4, None))
# a backward merge onto the span a forward merge made
@example(inputs=(_spans((0, 1, "H"), (1, 2, "H"), (2, 3, "A"), (3, 4, "H")),
                 _tokens(("a", "NOUN"), ("b", "VERB"), ("c", "NOUN"),
                         ("d", "NOUN")),
                 None, None, NO_ACTION_NOUNS * 4, None))
# weak H spans and no qualifying one: nothing merges
@example(inputs=(_spans((0, 1, "H"), (1, 2, "C"), (2, 3, "H")),
                 _tokens(("a", "NOUN"), ("b", "VERB"), ("c", "NOUN")),
                 None, None, NO_ACTION_NOUNS * 3, None))
def test_merge_scene_spans_matches_the_rescanning_reference(inputs):
    spans, tokens, _, _, action_flags, _ = inputs
    firings, expected_firings = [], []
    out = parser._merge_scene_spans(spans, tokens, action_flags, firings)
    assert out == reference_merge_scene_spans(spans, tokens, action_flags,
                                              expected_firings)
    assert firings == expected_firings


def test_constraint_fixpoint_on_compatible_spans():
    tokens = _tokens(("she", "PRON"), ("sings", "VERB"), ("well", "ADV"))
    spans = _spans((0, 1, "A"), (1, 2, "P"), (2, 3, "D"))
    out = apply_constraints(spans, tokens, _uniformish(3), NO_MWE,
                            NO_ACTION_NOUNS * len(tokens),
                            at_scene_level=True)
    assert out == spans


def test_parse_single_token():
    p = single_token_passage()
    ctx = context_for([p])
    oracle = OracleTagger([p])
    predicted, trace = parse(p.tokens, oracle, ctx, DecoderConfig(),
                             passage_id=p.passage_id)
    assert validate(predicted, require_contiguous=True) == []
    assert len(trace.steps) == 1
    assert trace.steps[0].depth == 1
    assert score(predicted, p).labeled["avg"].f1 == 1.0


def test_parse_oracle_roundtrip_fig1():
    gold = fig1_passage()
    ctx = context_for([gold])
    oracle = OracleTagger([gold])
    predicted, _ = parse(gold.tokens, oracle, ctx, DecoderConfig(),
                         passage_id=gold.passage_id)
    report = score(predicted, gold)
    assert report.labeled["avg"].f1 == 1.0
    assert report.labeled["remote"].f1 == 1.0


def test_parse_oracle_roundtrip_random_corpus():
    corpus = fixture_corpus(seed=17, n_random=25)
    ctx = context_for(corpus)
    oracle = OracleTagger(corpus)
    for gold in corpus:
        predicted, _ = parse(gold.tokens, oracle, ctx, DecoderConfig(),
                             passage_id=gold.passage_id)
        assert score(predicted, gold).labeled["avg"].f1 == 1.0, \
            gold.passage_id


def test_parse_all_o_fallback():
    gold = two_scene_5tok_passage()
    ctx = context_for([gold])
    n = len(gold.tokens)
    t1 = np.zeros((n, bio.N_BIO))
    t1[:, bio.BIO_INDEX["O"]] = 1.0
    tagger = FixedTagger(bio.TagDistribution(task1=t1))
    predicted, trace = parse(gold.tokens, tagger, ctx, DecoderConfig())
    assert validate(predicted, require_contiguous=True) == []
    # no H spans decoded -> root treated as a single scene: exactly one
    # S/P child, every other token flat with C (F for function words)
    root_edges = [e for e in predicted.edges if e.parent == predicted.root]
    assert len(root_edges) == n
    sp = [e for e in root_edges if e.category in ("S", "P")]
    assert len(sp) == 1
    cats = sorted(e.category for e in root_edges)
    assert "F" in cats  # the CCONJ token
    assert "C" in cats


def test_parse_mask_correctness_in_trace():
    gold = fig1_passage()
    ctx = context_for([gold])
    oracle = OracleTagger([gold])
    _, trace = parse(gold.tokens, oracle, ctx, DecoderConfig())
    for step in trace.steps:
        start, end = step.focus
        for i, sym in enumerate(step.mask):
            if start <= i < end:
                assert sym == step.arc
            else:
                assert sym == "O"


def test_parse_depth_cap_terminates():
    gold = two_scene_5tok_passage()
    ctx = context_for([gold])
    n = len(gold.tokens)
    # always predict one H child spanning the whole focus: infinite
    # recursion without the depth cap
    t1 = np.zeros((n, bio.N_BIO))
    t1[0, bio.BIO_INDEX["B-H"]] = 1.0
    t1[1:, bio.BIO_INDEX["I-H"]] = 1.0
    tagger = FixedTagger(bio.TagDistribution(task1=t1))
    cfg = DecoderConfig(max_depth=5)
    predicted, trace = parse(gold.tokens, tagger, ctx, cfg)
    assert validate(predicted, require_contiguous=True) == []
    assert max(s.depth for s in trace.steps) <= 5


@pytest.mark.parametrize("pairs, categories", [
    pytest.param((("dogs", "NOUN"), ("bark", "VERB"), ("and", "CCONJ"),
                  ("howl", "VERB")), ["C", "P", "F", "C"], id="two-verbs"),
    pytest.param((("the", "DET"), ("dogs", "NOUN")), ["P", "C"],
                 id="no-verb"),
])
def test_depth_capped_scene_gets_its_p_on_the_first_verb(pairs, categories):
    """A scene at the depth cap takes its tokens as children: its first
    verb, or its first token when it has none, is its P; the others fall
    back to C, or F for a function word."""
    tokens = _tokens(*pairs)
    tagger = FixedTagger(bio.TagDistribution(task1=bio.one_hot(
        ["B-H"] + ["I-H"] * (len(tokens) - 1))))
    predicted, trace = parse(tokens, tagger,
                             context_for([two_scene_5tok_passage()]),
                             DecoderConfig(max_depth=2))
    (scene,) = [e.child for e in predicted.edges if e.category == "H"]
    assert [(e.child, e.category) for e in predicted.edges
            if e.parent == scene] == [
        ("t%d" % i, c) for i, c in enumerate(categories)]
    assert trace.notes == ["depth cap at node %s span (0, %d)"
                           % (scene, len(tokens))]


@given(seed=st.integers(0, 2 ** 32 - 1), unary=st.sampled_from([0.0, 0.3]),
       max_depth=st.sampled_from([2, 3, 20]))
@settings(max_examples=60, deadline=None)
def test_parse_matches_the_recursive_reference(seed, unary, max_depth):
    """parse, which tags one depth per batch and assembles the tree with a
    stack, gives the passage and trace of a plain recursion that tags one
    node per call, unary chains and depth caps included. parse keys each
    step by its depth and focus span: no two of the reference's steps
    share both, and the focus spans of one depth are pairwise disjoint."""
    corpus = random_corpus(seed, 2)
    ctx = context_for(corpus)
    cfg = DecoderConfig(max_depth=max_depth)
    for gold in corpus:
        got, got_trace = parse(gold.tokens, KeyedRandomTagger(seed, unary),
                               ctx, cfg, passage_id=gold.passage_id)
        expected, expected_trace = reference_parse(
            gold.tokens, KeyedRandomTagger(seed, unary), ctx, cfg,
            passage_id=gold.passage_id)
        assert passage_to_record(got) == passage_to_record(expected)
        assert got_trace.render() == expected_trace.render()
        assert got_trace.notes == expected_trace.notes
        assert got_trace.deepest == expected_trace.deepest
        keys = [(s.depth, s.focus) for s in expected_trace.steps]
        assert len(set(keys)) == len(keys)
        for depth in {d for d, _ in keys}:
            spans = sorted(f for d, f in keys if d == depth)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_parse_rejects_rows_that_do_not_sum_to_one():
    # parse checks each tagger output; a NaN row sums to no number. The
    # same distribution, parsed again, raises again: a failed check is
    # never remembered.
    gold = two_scene_5tok_passage()
    for value, message in ((0.5, "do not sum to 1"), (np.nan, "NaN")):
        tagger = FixedTagger(bio.TagDistribution(
            task1=np.full((len(gold.tokens), bio.N_BIO), value)))
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                parse(gold.tokens, tagger, context_for([gold]),
                      DecoderConfig())


def test_parse_empty_input_rejected():
    ctx = context_for([single_token_passage()])
    with pytest.raises(ParseError):
        parse((), OracleTagger([]), ctx, DecoderConfig())


def test_parse_sentences_keeps_input_order():
    """Each sentence gets, in input order, the parse that a plain parse
    call gives it, also when two sentences share a passage id."""
    corpus = random_corpus(seed=51, count=3)
    ctx = context_for(corpus)
    oracle = OracleTagger(corpus)
    sentences = [(p.passage_id, p.tokens, p.language)
                 for p in reversed(corpus)]
    parsed = parser.parse_sentences(sentences, oracle, ctx, DecoderConfig())
    assert [p.passage_id for p, _ in parsed] == \
        [pid for pid, _, _ in sentences]
    for (predicted, trace), gold in zip(parsed, reversed(corpus)):
        assert predicted.tokens == gold.tokens
        assert score(predicted, gold).labeled["avg"].f1 == 1.0
        assert trace.steps
    assert parser.parse_sentences([], oracle, ctx, DecoderConfig()) == []
    # Twins: one passage id, different tokens, and a tagger that reads
    # their features.
    model = GruTagger(TaggerConfig(hidden=4, cat_dim=2), ctx.vocab,
                      (AUX_OUTSIDE,))
    twins = [("twin", p.tokens, p.language) for p in corpus[:2]]
    assert twins[0][1] != twins[1][1]
    assert parser.parse_sentences(twins, model, ctx, DecoderConfig()) == [
        parse(tokens, model, ctx, DecoderConfig(), passage_id=pid,
              language=language) for pid, tokens, language in twins]


@pytest.mark.parametrize("max_depth", [20, 2])
def test_score_parses_matches_a_fresh_parse_and_score_per_config(
        max_depth, monkeypatch):
    """score_parses gives, for each config in order, the overall report of
    a fresh parse and score of the set under it. The tagger tags each node
    of one parse of the set once. A sentence is scored under the first
    config, and again only under a config whose parse of it differs from
    the previous config's."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    sentences = [(p.passage_id, p.tokens, p.language) for p in corpus]
    cfgs = [DecoderConfig(remote_threshold=theta, max_depth=max_depth)
            for theta in (0.3, 0.3, 0.05, 0.1, 0.2, 0.4, 0.95, 0.4, 0.15)]
    fresh = [parser.parse_sentences(sentences, KeyedRandomTagger(7, 0.3),
                                    ctx, cfg) for cfg in cfgs]
    expected = [score_corpus([(p, g) for (p, _), g in zip(parsed, corpus)])
                .overall for parsed in fresh]
    passages = [[p for p, _ in parsed] for parsed in fresh]
    changed = sum(a != b for before, after in zip(passages, passages[1:])
                  for a, b in zip(before, after))
    steps = [s for _, trace in fresh[0] for s in trace.steps]
    notes = [n for _, trace in fresh[0] for n in trace.notes]
    # The random rows give remotes, changed by some thresholds, and unary
    # chains; the shallow cap gives depth caps.
    assert any(e.remote for parsed in passages for p in parsed
               for e in p.edges)
    assert 0 < changed < len(corpus) * (len(cfgs) - 1)
    assert any(len(s.constrained) == 1 for s in steps)
    assert any(n.startswith("depth cap") for n in notes) == (max_depth == 2)

    scored = []
    score_one = evaluator.score

    def counted(pred, gold):
        scored.append(pred)
        return score_one(pred, gold)

    monkeypatch.setattr(evaluator, "score", counted)
    inner = KeyedRandomTagger(7, 0.3)
    got = parser.score_parses(corpus, inner, ctx, cfgs)
    assert got == expected
    assert inner.calls == len(steps)
    assert len(scored) == len(corpus) + changed


def test_parse_remote_threshold_one_drops_remotes():
    gold = fig1_passage()
    ctx = context_for([gold])
    oracle = OracleTagger([gold])
    predicted, _ = parse(gold.tokens, oracle, ctx,
                         DecoderConfig(remote_threshold=1.0))
    assert not any(e.remote for e in predicted.edges)


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(remote_threshold=1.5)
    with pytest.raises(ValueError):
        DecoderConfig(max_depth=0)


def test_parse_scene_invariant_with_oracle():
    corpus = fixture_corpus(seed=61, n_random=20)
    ctx = context_for(corpus)
    oracle = OracleTagger(corpus)
    for gold in corpus:
        predicted, _ = parse(gold.tokens, oracle, ctx, DecoderConfig(),
                             passage_id=gold.passage_id)
        for e in predicted.edges:
            if e.category != "H" or e.remote:
                continue
            child = predicted.node(e.child)
            if child.is_terminal():
                continue
            sp = [c for c, _ in predicted.primary_children(e.child)
                  if c.category in ("S", "P")]
            assert len(sp) == 1


@pytest.mark.parametrize("max_depth", [20, 2])
def test_resolve_remotes_matches_parse_at_every_threshold(max_depth):
    """Tagging once and re-resolving the remotes at a threshold gives the
    passage and trace of a parse at that threshold. Resolving shares
    every step of its input trace and leaves that trace as it was; the
    new trace renders each step's remote spans at that threshold."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    cfg = DecoderConfig(max_depth=max_depth)
    remotes, notes = 0, set()
    for seed, gold in enumerate(corpus):
        tree = parse(gold.tokens, RandomTagger(seed), ctx, cfg,
                     passage_id=gold.passage_id)
        _, trace = tree
        steps, notes_before = list(trace.steps), list(trace.notes)
        rendered = trace.render()
        for theta in cli.THRESHOLD_SWEEP:
            expected, expected_trace = parse(
                gold.tokens, RandomTagger(seed), ctx,
                replace(cfg, remote_threshold=theta),
                passage_id=gold.passage_id)
            got, got_trace = resolve_remotes(*tree, theta)
            assert got == expected, (gold.passage_id, theta)
            assert got_trace.render() == expected_trace.render()
            assert len(got_trace.steps) == len(steps)
            assert all(a is b for a, b in zip(got_trace.steps, steps))
            for step, line in zip(steps, got_trace.render().splitlines()):
                remote = [(s.start, s.end, s.category) for s in
                          reference_decode_remote(step.remote_summary.rows,
                                                  theta)]
                assert " remote=%s " % remote in line
            assert all(a is b for a, b in zip(trace.steps, steps))
            assert len(trace.steps) == len(steps)
            assert trace.notes == notes_before
            assert trace.render() == rendered
            remotes += sum(e.remote for e in got.edges)
            notes.update(n.split()[0] for n in got_trace.notes)
        # Re-resolving at the parse's own threshold still gives its parse.
        assert resolve_remotes(*tree, cfg.remote_threshold) == tree
    # The random rows give remotes, dropped and duplicate ones, and the
    # shallow cap adds depth-cap notes written before resolution.
    assert remotes > 0
    assert notes == {"dropped", "duplicate"} | (
        {"depth"} if max_depth == 2 else set())


def _recorded_parses(monkeypatch):
    """Every (Passage, rendered trace) parser.parse returns from now on."""
    parsed = []
    parse_one = parser.parse

    def recorded(*args, **kwargs):
        passage, trace = parse_one(*args, **kwargs)
        parsed.append((passage, trace.render()))
        return passage, trace

    monkeypatch.setattr(parser, "parse", recorded)
    return parsed


def test_replayed_predictions_give_a_fresh_parse_at_every_threshold():
    """Parsing a sentence again through its _Replay at another threshold
    tags no node twice and gives that threshold's parse."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    for seed, gold in enumerate(corpus):
        inner = RandomTagger(seed)
        replay = parser._Replay(inner)
        for theta in cli.THRESHOLD_SWEEP:
            cfg = DecoderConfig(remote_threshold=theta)
            got, got_trace = parse(gold.tokens, replay, ctx, cfg,
                                   passage_id=gold.passage_id)
            expected, expected_trace = parse(
                gold.tokens, RandomTagger(seed), ctx, cfg,
                passage_id=gold.passage_id)
            assert got == expected, (gold.passage_id, theta)
            assert got_trace.render() == expected_trace.render()
        assert inner.calls == len(got_trace.steps)


def test_replayed_parse_hashes_no_token(monkeypatch):
    """score_parses finds a sentence's replayed predictions by focus node
    and mask, so parsing a set under several thresholds hashes no
    TokenRow, and each parse is a fresh parse's."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    cfgs = [DecoderConfig(remote_threshold=theta) for theta in (0.3, 0.1)]
    expected = [parse(p.tokens, KeyedRandomTagger(5), ctx, cfg,
                      passage_id=p.passage_id)[0]
                for p in corpus for cfg in cfgs]
    parsed = _recorded_parses(monkeypatch)
    hashes = []
    token_hash = TokenRow.__hash__

    def counted(self):
        hashes.append(self)
        return token_hash(self)

    monkeypatch.setattr(TokenRow, "__hash__", counted)
    parser.score_parses(corpus, KeyedRandomTagger(5), ctx, cfgs)
    assert hashes == []
    assert [p for p, _ in parsed] == expected


def test_replay_never_mixes_up_two_sentences_of_one_passage_id(monkeypatch):
    """Two sentences with one passage id and length but other tokens,
    scored in turn at two thresholds by score_parses, each get a fresh
    parse's result: their masks and focus nodes agree, and only the
    tokens tell their predictions apart."""
    one = two_scene_5tok_passage()
    forms = ("They", "ran", "and", "we", "laughed")
    other = replace(one, tokens=tuple(t._replace(form=f)
                                      for t, f in zip(one.tokens, forms)))
    ctx = context_for([one, other])

    class FormKeyedTagger(KeyedRandomTagger):
        """KeyedRandomTagger whose rows also depend on the token forms."""

        def predict(self, example, feats):
            self.seed = zlib.crc32(" ".join(
                t.form for t in example.tokens).encode("utf-8"))
            return super().predict(example, feats)

    golds = [replace(p, passage_id="same") for p in (one, other, one, other)]
    cfgs = [DecoderConfig(remote_threshold=theta) for theta in (0.1, 0.6)]
    fresh = [[parse(gold.tokens, FormKeyedTagger(0), ctx, cfg,
                    passage_id="same") for cfg in cfgs] for gold in golds]
    parsed = _recorded_parses(monkeypatch)
    got = parser.score_parses(golds, FormKeyedTagger(0), ctx, cfgs)
    assert parsed == [(p, trace.render()) for row in fresh for p, trace in row]
    assert got == [sum((score(row[i][0], gold)
                        for gold, row in zip(golds, fresh)),
                       evaluator.EvalReport()) for i in range(len(cfgs))]
    assert fresh[0][0][1].render() != fresh[1][0][1].render()


def test_replay_tags_every_node_of_a_unary_chain():
    """The nodes of a unary chain share their span and mask; a _Replay
    still tags each of them once, as a parse does."""
    gold = two_scene_5tok_passage()
    ctx = context_for([gold])
    n = len(gold.tokens)
    t1 = np.zeros((n, bio.N_BIO))
    t1[0, bio.BIO_INDEX["B-H"]] = 1.0
    t1[1:, bio.BIO_INDEX["I-H"]] = 1.0
    dist = bio.TagDistribution(task1=t1)

    class Counting(FixedTagger):
        rows = 0

        def predict(self, example, feats):
            self.rows += 1
            return super().predict(example, feats)

    inner = Counting(dist)
    cfg = DecoderConfig(max_depth=5)
    got, got_trace = parse(gold.tokens, parser._Replay(inner), ctx, cfg)
    expected, expected_trace = parse(gold.tokens, FixedTagger(dist), ctx,
                                     cfg)
    masks = [s.mask for s in got_trace.steps]
    assert len(set(masks)) < len(masks)
    assert inner.rows == len(masks)
    assert got == expected
    assert got_trace.render() == expected_trace.render()


def test_parse_featurizes_each_sentence_once(monkeypatch):
    """A tagger that reads its feature source gets, for every tagged node,
    the features a fresh featurize of the node's own example gives, from
    one featurize call per sentence."""
    corpus = fixture_corpus()
    bigrams = sorted({(a.form.lower(), b.form.lower()) for p in corpus
                      for a, b in zip(p.tokens, p.tokens[1:])})
    lexicon = ExpressionLexicon(expressions=frozenset(bigrams[::7]))
    forms = sorted({t.form for p in corpus for t in p.tokens})
    rng = np.random.default_rng(5)
    embeddings = WordEmbeddingTable(
        vectors={f: rng.normal(size=WORD_DIM) for f in forms[::2]})
    ctx = context_for(corpus, lexicon=lexicon, embeddings=embeddings)
    featurize = features.featurize
    featurized = []

    def counted(example, *args):
        featurized.append(example.tokens)
        return featurize(example, *args)

    tagged = []

    class Recording(OracleTagger):
        def predict(self, example, source):
            tagged.append((example, source(example)))
            return super().predict(example, source)

    monkeypatch.setattr(features, "featurize", counted)
    parsed = parser.parse_sentences(
        [(p.passage_id, p.tokens, p.language) for p in corpus],
        Recording(corpus), ctx, DecoderConfig())
    assert featurized == [p.tokens for p in corpus]
    assert len(tagged) == sum(len(t.steps) for _, t in parsed) \
        > 2 * len(corpus)
    for example, feats in tagged:
        assert_same_features(feats, featurize(
            example, ctx.vocab, ctx.embeddings,
            match(ctx.lexicon, example.tokens).flags))
    assert any(feats.mwe.any() for _, feats in tagged)
    assert any(feats.word_vectors.any() for _, feats in tagged)


def test_parse_matches_each_lexicon_once(monkeypatch):
    """A parse matches each lexicon once, and the MWE constraint and the
    features read the parse's own match: a tagger that reads its feature
    source makes no second match, and through the oracle, which reads no
    features, the parse never featurizes."""
    gold = fig1_passage()
    mwe = ExpressionLexicon(expressions=frozenset({("she", "sings")}))
    action = ExpressionLexicon(expressions=frozenset({("guitar",)}))
    ctx = context_for([gold], lexicon=mwe)
    dcfg = DecoderConfig(action_noun_lexicon=action)
    matched, read = [], []

    def counted(lexicon, tokens):
        matched.append(lexicon)
        return match(lexicon, tokens)

    class Reading(OracleTagger):
        def predict(self, example, source):
            read.append(source(example).mwe)
            return super().predict(example, source)

    monkeypatch.setattr(features, "match", counted)
    monkeypatch.setattr(parser, "match", counted)
    parse(gold.tokens, Reading([gold]), ctx, dcfg,
          passage_id=gold.passage_id)
    assert len(matched) == 2 and mwe in matched and action in matched
    assert len(read) > 1 and all(
        flags.tolist() == [float(f) for f in match(mwe, gold.tokens).flags]
        for flags in read)
    matched.clear()
    refuse_featurize(monkeypatch)
    _, trace = parse(gold.tokens, OracleTagger([gold]), ctx, dcfg,
                     passage_id=gold.passage_id)
    assert len(matched) == 2 and mwe in matched and action in matched
    assert any(f.startswith("mwe-merge") for step in trace.steps
               for f in step.firings)


def test_parse_frees_its_features_on_return():
    """Neither a sentence's feature source nor any tagged node's features
    outlive the parse waiting for the cycle collector."""
    gold = fig1_passage()
    refs = []

    class Recording(OracleTagger):
        def predict(self, example, source):
            refs.extend((weakref.ref(source), weakref.ref(source(example))))
            return super().predict(example, source)

    gc.disable()
    try:
        parse(gold.tokens, Recording([gold]), context_for([gold]),
              DecoderConfig(), passage_id=gold.passage_id)
        assert len(refs) == 6 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


class _BatchRecording(OracleTagger):
    """The oracle, recording the masks of each predict_batch call."""

    def __init__(self, passages):
        super().__init__(passages)
        self.batches = []

    def predict_batch(self, examples, source):
        self.batches.append(sorted(ex.mask for ex in examples))
        return super().predict_batch(examples, source)


def _preorder(passage):
    """Non-terminal ids of passage, depth first, children in edge order."""
    order, stack = [], [passage.root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(reversed([c for _, c in passage.primary_children(nid)
                               if not passage.node(c).is_terminal()]))
    return order


@pytest.mark.parametrize("max_depth", [20, 2])
def test_parse_tags_each_depth_in_one_batch(max_depth):
    """One predict_batch call per depth, holding exactly that depth's
    trace steps; depth-capped nodes are never tagged; ids and steps follow
    a depth-first walk of the parsed tree."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    cfg = DecoderConfig(max_depth=max_depth)
    capped, widest = 0, 0
    for gold in corpus:
        tagger = _BatchRecording([gold])
        predicted, trace = parse(gold.tokens, tagger, ctx, cfg,
                                 passage_id=gold.passage_id)
        depths = sorted({s.depth for s in trace.steps})
        assert depths == list(range(1, len(depths) + 1)) and \
            depths[-1] < max_depth
        assert tagger.batches == [
            sorted(s.mask for s in trace.steps if s.depth == d)
            for d in depths]
        order = _preorder(predicted)
        assert order == ["n%d" % i for i in range(len(order))]
        capped_ids = [n.split()[4] for n in trace.notes
                      if n.startswith("depth cap")]
        assert [s.node for s in trace.steps] == \
            [n for n in order if n not in capped_ids]
        assert capped_ids == [n for n in order if n in capped_ids]
        capped += len(capped_ids)
        widest = max([widest] + [len(b) for b in tagger.batches])
    # Only the root is tagged under a cap at 2.
    assert (capped > 0, widest > 1) == (max_depth == 2, max_depth > 2)


class _ScriptedTagger(Tagger):
    """One-hot labels by the mask's symbol and span."""

    def __init__(self, labels):
        self.labels = labels  # (symbol, (start, end)) -> BIO labels

    def predict(self, example, feats):
        inside = [i for i, sym in enumerate(example.mask) if sym != "O"]
        key = (example.mask[inside[0]], (inside[0], inside[-1] + 1))
        return bio.TagDistribution(task1=bio.one_hot(self.labels[key]))


@pytest.mark.parametrize("max_depth", [20, 4])
def test_remote_to_a_unary_chain_span_attaches_to_its_deepest_node(
        max_depth):
    """[Dogs bark] is a unary chain H > S > C; the scene [cats meow] has
    a remote A over its span, which attaches to the chain's deepest node,
    also when the depth cap leaves that node untagged."""
    gold = two_scene_5tok_passage()
    tagger = _ScriptedTagger({
        ("ROOT", (0, 5)): ["B-H", "I-H", "B-L", "B-H", "I-H"],
        ("H", (0, 2)): ["B-C", "I-C", "O", "O", "O"],  # forced to S
        ("S", (0, 2)): ["B-C", "I-C", "O", "O", "O"],
        ("C", (0, 2)): ["B-C", "B-C", "O", "O", "O"],
        ("H", (3, 5)): ["B-REM-A", "I-REM-A", "O", "B-A", "B-P"],
    })
    predicted, trace = parse(gold.tokens, tagger, context_for([gold]),
                             DecoderConfig(max_depth=max_depth))
    yields = all_yields(predicted)
    chain = [n.id for n in predicted.nodes
             if not n.is_terminal() and yields[n.id] == {0, 1}]
    (scene,) = [nid for nid, y in yields.items() if y == {3, 4}]
    assert [predicted.incoming_primary(nid)[0].category
            for nid in chain] == ["H", "S", "C"]
    assert [e for e in predicted.edges if e.remote] == [
        Edge(scene, chain[-1], "A", remote=True)]
    capped = ["depth cap at node %s span (0, 2)" % chain[-1]]
    assert trace.notes == (capped if max_depth == 4 else [])
