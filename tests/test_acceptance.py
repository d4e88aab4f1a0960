"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; a failed
assertion marks the criterion FAIL.
"""

import itertools
import time

import numpy as np

from rucca import bio, cli
from rucca.corpus import expand, save_passages
from rucca.evaluator import render_text, score, score_corpus
from rucca.features import FeaturizerContext, fit_vocabularies
from rucca.graph import all_yields, validate
from rucca.lexicon import ExpressionLexicon, match
from rucca.parser import DecoderConfig, parse
from rucca.tagger import (GruTagger, OracleTagger, TaggerConfig,
                          TrainConfig, build_aux_vocab, train)

from helpers import (RandomTagger, context_for, fixture_corpus,
                     random_corpus, token_accuracy)
from test_evaluator import _counted_pair, _counted_pair_small


def _ok(criterion, detail=""):
    suffix = (" (%s)" % detail) if detail else ""
    print("PASS %s%s" % (criterion, suffix))


def test_report_format_matches_expected_cells():
    pred, gold = _counted_pair()
    text = render_text(score(pred, gold))
    assert "Labeled" in text
    assert "Unlabeled" in text
    for cell in ("Avg", "Prim", "Rem"):
        assert cell + " P" in text
        assert cell + " R" in text
        assert cell + " F1" in text
    _ok("report format", "Labeled/Unlabeled x Avg/Prim/Rem cells present")


def test_oracle_roundtrip_f1_is_exactly_one():
    started = time.monotonic()
    corpus = fixture_corpus(seed=13, n_random=50)
    assert len(corpus) >= 50
    ctx = context_for(corpus)
    oracle = OracleTagger(corpus)
    pairs = []
    for gold in corpus:
        predicted, _ = parse(gold.tokens, oracle, ctx, DecoderConfig(),
                             passage_id=gold.passage_id)
        pairs.append((predicted, gold))
    f1 = score_corpus(pairs).overall.labeled["avg"].f1
    elapsed = time.monotonic() - started
    assert f1 == 1.0
    assert elapsed < 10.0
    _ok("oracle round-trip",
        "%d passages, labeled Avg F1 = 1.0, %.1fs" % (len(corpus), elapsed))


def test_bio_codec_roundtrip_and_totality():
    corpus = fixture_corpus(seed=13, n_random=50)
    checked = 0
    for passage in corpus:
        yields = all_yields(passage)
        for node in passage.nodes:
            if node.is_terminal():
                continue
            try:
                labels = bio.encode(passage, node.id)
            except bio.NotRepresentable:
                continue
            expected = set()
            for e, child in passage.primary_children(node.id):
                pos = yields[child]
                expected.add(bio.ChildSpan(min(pos), max(pos) + 1,
                                           e.category, False))
            for e, child in passage.remote_children(node.id):
                pos = yields[child]
                expected.add(bio.ChildSpan(min(pos), max(pos) + 1,
                                           e.category, True))
            assert set(bio.decode_labels(labels)) == expected, node.id
            checked += 1
    assert checked > 0

    alphabet = ["O"]
    for c in ("A", "P"):
        alphabet += ["B-%s" % c, "I-%s" % c,
                     "B-REM-%s" % c, "I-REM-%s" % c]
    assert len(alphabet) == 9
    sequences = 0
    violations = 0
    for n in range(1, 5):
        for labels in itertools.product(alphabet, repeat=n):
            sequences += 1
            spans = bio.decode_labels(list(labels))
            covered = set()
            for s in spans:
                if not (0 <= s.start < s.end <= n):
                    violations += 1
                if s.category not in ("A", "P"):
                    violations += 1
                positions = set(range(s.start, s.end))
                if positions & covered:
                    violations += 1
                covered |= positions
    assert sequences == 7380
    assert violations == 0
    _ok("BIO codec", "%d node round-trips, %d sequences decoded total"
        % (checked, sequences))


def test_gradient_check_under_tolerance():
    from test_tagger import gradient_check
    from rucca.corpus import MaskedExample
    from rucca.graph import make_token

    started = time.monotonic()
    tokens = tuple(make_token(f, u) for f, u in
                   (("dogs", "NOUN"), ("bark", "VERB"), ("now", "ADV")))
    example = MaskedExample(passage_id="g", tokens=tokens,
                            mask=("ROOT", "ROOT", "ROOT"),
                            focus_node="n0",
                            target_bio=("B-A", "B-P", "B-D"),
                            target_aux=("A", "P", "D"))
    from rucca.features import EMPTY_EMBEDDINGS
    from rucca.lexicon import EMPTY_LEXICON
    vocab = fit_vocabularies([example])
    ctx = FeaturizerContext(vocab=vocab, embeddings=EMPTY_EMBEDDINGS,
                            lexicon=EMPTY_LEXICON)
    tagger = GruTagger(TaggerConfig(hidden=4, cat_dim=2, lambda_aux=0.5,
                                    seed=11),
                       vocab, ("A", "D", "O", "P"))
    feats = ctx.featurize(example)
    y1, y2 = tagger.target_ids(example)
    worst = gradient_check(tagger, feats, y1, y2, eps=1e-4)
    elapsed = time.monotonic() - started
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, bad
    assert elapsed < 30.0
    _ok("gradient check", "max rel err %.2e over %d tensors, %.1fs"
        % (max(worst.values()), len(worst), elapsed))


def test_overfit_toy_corpus():
    started = time.monotonic()
    corpus = random_corpus(seed=29, count=10)
    ctx = context_for(corpus)
    examples = [ex for p in corpus for ex in expand(p)
                if ex.representable]
    accuracy = 0.0
    epochs_used = 0
    while epochs_used < 200:
        model, _ = train(examples, ctx, TrainConfig(
            epochs=epochs_used + 25, batch_size=8,
            tagger=TaggerConfig(hidden=32, cat_dim=8, seed=13)))
        epochs_used += 25
        accuracy = token_accuracy(model, ctx, examples)
        if accuracy >= 0.95:
            break
    elapsed = time.monotonic() - started
    assert accuracy >= 0.95
    assert elapsed < 300.0
    _ok("overfit sanity", "%.1f%% TASK1 accuracy after %d epochs, %.0fs"
        % (100.0 * accuracy, epochs_used, elapsed))


def test_expansion_count_matches_nonterminal_count():
    for passage in fixture_corpus(seed=13, n_random=50):
        examples = expand(passage)
        nonterminals = sum(1 for n in passage.nodes if not n.is_terminal())
        assert len(examples) == nonterminals, passage.passage_id
    _ok("expansion count", "emitted + skipped == non-terminal nodes")


def test_evaluator_exactness():
    pred, gold = _counted_pair()
    cell = score(pred, gold).labeled["avg"]
    assert cell.matched == 4 and cell.predicted == 5 and cell.gold == 6
    assert abs(cell.precision - 0.8) < 1e-9
    assert abs(cell.recall - 2.0 / 3.0) < 1e-9
    assert abs(cell.f1 - 8.0 / 11.0) < 1e-9
    pooled = score_corpus([_counted_pair(), _counted_pair_small()])
    micro = pooled.overall.labeled["avg"]
    assert micro.matched == 6 and micro.predicted == 8 and micro.gold == 10
    assert abs(micro.f1 - 0.6667) < 1e-4
    _ok("evaluator exactness",
        "4/5/6 within 1e-9, pooled micro F1 0.6667 within 1e-4")


def test_decoding_constraint_invariants_randomized():
    from rucca.graph import make_token

    lexicon = ExpressionLexicon(
        expressions=frozenset({("in", "front", "of"), ("at", "least")}))
    pool = [("she", "PRON"), ("sings", "VERB"), ("dogs", "NOUN"),
            ("bark", "VERB"), ("in", "ADP"), ("front", "NOUN"),
            ("of", "ADP"), ("at", "ADP"), ("least", "ADJ"),
            ("loud", "ADJ"), ("and", "CCONJ"), ("the", "DET")]
    rng = np.random.default_rng(97)
    seed_corpus = fixture_corpus(seed=13, n_random=5)
    ctx = context_for(seed_corpus, lexicon=lexicon)
    tagger = RandomTagger(seed=101)
    cfg = DecoderConfig(max_depth=6)
    cfg_strict = DecoderConfig(max_depth=6, remote_threshold=1.0)
    sentences = 0
    while tagger.calls < 1000:
        n = int(rng.integers(2, 10))
        tokens = tuple(make_token(*pool[i])
                       for i in rng.integers(0, len(pool), n))
        mwe = match(lexicon, tokens)
        predicted, trace = parse(tokens, tagger, ctx, cfg,
                                 passage_id="r%d" % sentences)
        sentences += 1
        assert validate(predicted, require_contiguous=True) == []

        # every non-terminal H child carries exactly one S/P child
        for e in predicted.edges:
            if e.remote or e.category != "H":
                continue
            if predicted.node(e.child).is_terminal():
                continue
            sp = [c for c, _ in predicted.primary_children(e.child)
                  if c.category in ("S", "P")]
            assert len(sp) == 1, predicted.passage_id

        # no H/A span boundary strictly inside an MWE span, except at
        # the focus endpoints inherited from the parent decode
        for step in trace.steps:
            fstart, fend = step.focus
            for span in step.constrained:
                if span.category not in ("H", "A"):
                    continue
                for b in (span.start, span.end):
                    if b in (fstart, fend):
                        continue
                    for (ms, me) in mwe.spans:
                        assert not (ms < b < me), \
                            (step.focus, span, (ms, me))

        strict, _ = parse(tokens, tagger, ctx, cfg_strict)
        assert not any(e.remote for e in strict.edges)
    _ok("decoding constraints",
        "%d tag distributions over %d sentences, all invariants hold"
        % (tagger.calls, sentences))


def _run_pipeline(workdir):
    corpus = fixture_corpus(seed=13, n_random=7)
    gold = workdir / "gold.jsonl"
    save_passages(corpus, gold)
    conll = workdir / "input.conll"
    with open(conll, "w", encoding="utf-8") as f:
        for p in corpus:
            for i, tok in enumerate(p.tokens, 1):
                f.write("%d\t%s\t%s\t_\t_\t_\t_\n" % (i, tok.form,
                                                      tok.upos))
            f.write("\n")
    expanded = workdir / "expanded.jsonl"
    model = workdir / "model.ckpt"
    pred = workdir / "pred.jsonl"
    report = workdir / "report.json"
    config = workdir / "run.cfg"
    with open(config, "w", encoding="utf-8") as f:
        for k, v in (("train_passages", gold), ("expanded", expanded),
                     ("expanded_out", expanded), ("model", model),
                     ("train_log", workdir / "train.log"),
                     ("test_tokens", conll), ("predictions_out", pred),
                     ("report_out", report), ("epochs", 2),
                     ("hidden", 4), ("cat_dim", 2), ("batch_size", 8),
                     ("seed", 13)):
            f.write("%s=%s\n" % (k, v))
    argv = ["--config", str(config)]
    assert cli.main(argv + ["expand"]) == cli.EXIT_OK
    assert cli.main(argv + ["train"]) == cli.EXIT_OK
    assert cli.main(argv + ["parse"]) == cli.EXIT_OK
    assert cli.main(argv + ["eval", str(pred), str(gold)]) == cli.EXIT_OK
    return (model.read_bytes(), pred.read_bytes(), report.read_bytes())


def test_pipeline_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _run_pipeline(a)
    second = _run_pipeline(b)
    assert first[0] == second[0], "checkpoint bytes differ"
    assert first[1] == second[1], "prediction bytes differ"
    assert first[2] == second[2], "report bytes differ"
    _ok("determinism",
        "checkpoint, predictions and report byte-identical across runs")
