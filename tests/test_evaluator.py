from dataclasses import replace

import pytest

from rucca.evaluator import (Counts, EvalError, count_scene_edges,
                             render_corpus_text, render_text,
                             report_record, score, score_corpus,
                             signatures)
from rucca.graph import CATEGORIES, Edge, Node, Passage, make_token
from rucca.parser import DecoderConfig, parse, resolve_remotes

from helpers import (RandomTagger, context_for, fig1_passage,
                     fixture_corpus, reference_score_corpus,
                     single_token_passage)


def test_counts_f1_zero_over_zero():
    assert Counts().f1 == 0.0
    assert Counts(matched=2, predicted=4, gold=2).f1 == pytest.approx(2/3)


def test_signatures_single_token():
    sigs = signatures(single_token_passage())
    assert dict(sigs) == {((0,), "H", False): 1}


def test_signatures_fig1_hand_enumeration():
    sigs = signatures(fig1_passage())
    expected = {
        ((0, 1, 2), "H", False): 1,
        ((3,), "L", False): 1,
        ((4, 5, 6), "H", False): 1,
        ((0,), "A", False): 1,
        ((1,), "P", False): 1,
        ((2,), "A", False): 1,
        ((4,), "A", False): 1,
        ((5,), "P", False): 1,
        ((6,), "D", False): 1,
        ((0,), "A", True): 1,
    }
    assert dict(sigs) == expected


def test_signatures_counts_remote_flag():
    sigs = signatures(fig1_passage())
    assert sum(c for (_, _, remote), c in sigs.items() if remote) == 1


def test_signatures_are_built_once_and_read_only():
    p = fig1_passage()
    sigs = signatures(p)
    assert signatures(p) is sigs
    key = ((0,), "A", True)
    with pytest.raises(TypeError):
        sigs[key] = 5
    with pytest.raises(AttributeError):
        sigs.update({key: 5})
    assert sigs[key] == 1 and sigs[((0,), "Z", True)] == 0
    assert dict(signatures(fig1_passage())) == dict(sigs)


def test_scoring_a_gold_passage_again_matches_fresh_copies():
    """A gold passage scored twice, and against other predictions, gives
    the reports of fresh copies of both passages, whose signatures are
    built anew."""
    corpus = fixture_corpus(n_random=12)
    ctx = context_for(corpus)
    for i, gold in enumerate(corpus):
        preds = [gold] + [parse(gold.tokens, RandomTagger(seed), ctx,
                                DecoderConfig(), passage_id="p%d" % seed)[0]
                          for seed in (i, i + 100)]
        for pred in preds + preds:
            assert score(pred, gold) == score(replace(pred), replace(gold))
            assert score(gold, pred) == score(replace(gold), replace(pred))


@pytest.mark.parametrize("seed", [0, 1])
def test_tally_matches_the_reference_scorer(seed):
    """Every Counts of score_corpus's three reports equals the reference
    scorer's, over random parses of the fixture corpus, and gold against
    them, at several remote thresholds."""
    corpus = fixture_corpus()
    ctx = context_for(corpus)
    trees = [parse(gold.tokens, RandomTagger(seed * 1000 + i), ctx,
                   DecoderConfig(), passage_id=gold.passage_id)
             for i, gold in enumerate(corpus)]
    reports = []
    for theta in (0.05, 0.3, 0.6, 0.95):
        preds = [resolve_remotes(*tree, theta)[0] for tree in trees]
        pairs = list(zip(preds, corpus)) + list(zip(corpus, preds)) \
            + list(zip(corpus, corpus))
        got, expected = score_corpus(pairs), reference_score_corpus(pairs)
        for split in ("overall", "mono_scene", "multi_scene"):
            report, ref = getattr(got, split), getattr(expected, split)
            assert report.sentences == ref.sentences
            for mode in ("labeled", "unlabeled", "per_category"):
                assert dict(getattr(report, mode)) == getattr(ref, mode), \
                    (theta, split, mode)
        reports.append(got.overall)
    # The pairs fill the remote cells, and give unlabeled matches that
    # labeled scoring does not count.
    assert all(r.labeled["remote"].matched > 0 for r in reports[:2])
    assert all(r.unlabeled["primary"].matched > r.labeled["primary"].matched
               for r in reports)


def test_score_identity():
    p = fig1_passage()
    report = score(p, p)
    for mode in (report.labeled, report.unlabeled):
        for cell in mode.values():
            assert cell.f1 == 1.0 or cell.gold == 0
    for c in CATEGORIES:
        cell = report.per_category[c]
        assert cell.f1 == 1.0 or cell.gold == 0


def test_score_token_mismatch_rejected():
    with pytest.raises(EvalError):
        score(single_token_passage(), fig1_passage())


def _counted_pair():
    """pred/gold pair with labeled avg counts 4 matched / 5 pred / 6 gold."""
    tokens = tuple(make_token(f, u) for f, u in
                   (("she", "PRON"), ("sings", "VERB"),
                    ("too", "ADV"), ("loud", "ADJ")))
    gold = Passage(
        passage_id="g", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"), Node("n1", "nonterminal"))
        + tuple(Node("t%d" % i, "terminal", i) for i in range(4)),
        edges=(Edge("n0", "t0", "A"), Edge("n0", "t1", "P"),
               Edge("n0", "n1", "C"),
               Edge("n1", "t2", "E"), Edge("n1", "t3", "F"),
               Edge("n0", "t0", "A", remote=True)),
        root="n0")
    pred = Passage(
        passage_id="p", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"),)
        + tuple(Node("t%d" % i, "terminal", i) for i in range(4)),
        edges=(Edge("n0", "t0", "A"), Edge("n0", "t1", "P"),
               Edge("n0", "t2", "E"), Edge("n0", "t3", "C"),
               Edge("n0", "t0", "A", remote=True)),
        root="n0")
    # matched: A{0}, P{1}, E{2}, remote A{0}  -> 4 / 5 / 6
    return pred, gold


def test_score_hand_counted_fixture():
    pred, gold = _counted_pair()
    cell = score(pred, gold).labeled["avg"]
    assert cell == Counts(matched=4, predicted=5, gold=6)
    assert cell.precision == pytest.approx(0.8, abs=1e-9)
    assert cell.recall == pytest.approx(2 / 3, abs=1e-9)
    assert cell.f1 == pytest.approx(8 / 11, abs=1e-9)


def _counted_pair_small():
    """counts 2 matched / 3 pred / 4 gold."""
    tokens = tuple(make_token(f, u) for f, u in
                   (("he", "PRON"), ("runs", "VERB"), ("far", "ADV")))
    gold = Passage(
        passage_id="g2", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"), Node("n1", "nonterminal"))
        + tuple(Node("t%d" % i, "terminal", i) for i in range(3)),
        edges=(Edge("n0", "t0", "A"), Edge("n0", "n1", "C"),
               Edge("n1", "t1", "P"), Edge("n1", "t2", "D")),
        root="n0")
    pred = Passage(
        passage_id="p2", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"),)
        + tuple(Node("t%d" % i, "terminal", i) for i in range(3)),
        edges=(Edge("n0", "t0", "A"), Edge("n0", "t1", "P"),
               Edge("n0", "t2", "E")),
        root="n0")
    return pred, gold


def test_score_corpus_micro_average():
    pairs = [_counted_pair(), _counted_pair_small()]
    report = score_corpus(pairs).overall
    cell = report.labeled["avg"]
    assert cell == Counts(matched=6, predicted=8, gold=10)
    assert cell.precision == pytest.approx(0.75)
    assert cell.recall == pytest.approx(0.6)
    assert cell.f1 == pytest.approx(2 / 3, abs=1e-4)


def test_score_corpus_of_one_equals_score():
    p = fig1_passage()
    corpus = score_corpus([(p, p)])
    single = score(p, p)
    assert corpus.overall.labeled["avg"] == single.labeled["avg"]
    assert corpus.overall.sentences == 1


def test_mono_multi_scene_split():
    fig1 = fig1_passage()
    single = single_token_passage()
    corpus = score_corpus([(fig1, fig1), (single, single)])
    assert count_scene_edges(fig1) == 2
    assert corpus.multi_scene.sentences == 1
    assert corpus.mono_scene.sentences == 1


def test_unlabeled_at_least_labeled():
    pred, gold = _counted_pair()
    report = score(pred, gold)
    for cell in ("avg", "primary", "remote"):
        assert report.unlabeled[cell].f1 >= report.labeled[cell].f1
    for p in fixture_corpus(seed=71, n_random=10):
        r = score(p, p)
        for cell in ("avg", "primary", "remote"):
            assert r.unlabeled[cell].f1 >= r.labeled[cell].f1


def test_swapping_pred_gold_swaps_precision_recall():
    pred, gold = _counted_pair()
    a = score(pred, gold).labeled["avg"]
    b = score(gold, pred).labeled["avg"]
    assert a.precision == b.recall
    assert a.recall == b.precision


def test_avg_counts_are_primary_plus_remote():
    pred, gold = _counted_pair()
    report = score(pred, gold)
    for mode in (report.labeled, report.unlabeled):
        assert mode["avg"] == mode["primary"] + mode["remote"]


def test_render_text_table_structure():
    pred, gold = _counted_pair()
    text = render_text(score(pred, gold))
    assert "Labeled" in text and "Unlabeled" in text
    for cell in ("Avg", "Prim", "Rem"):
        assert cell + " F1" in text
    for c in CATEGORIES:
        assert "%s=" % c in text


def test_report_record_roundtrips_counts():
    pred, gold = _counted_pair()
    rec = report_record(score(pred, gold))
    assert rec["labeled"]["avg"]["matched"] == 4
    assert rec["labeled"]["avg"]["precision"] == pytest.approx(0.8)
    assert set(rec["per_category"]) == set(CATEGORIES)


def test_render_corpus_text_includes_splits():
    fig1 = fig1_passage()
    single = single_token_passage()
    text = render_corpus_text(score_corpus([(fig1, fig1),
                                            (single, single)]))
    assert "Mono-scene" in text and "Multi-scene" in text
