import hashlib
import json
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rucca import bio
from rucca.corpus import MASK_SYMBOLS, MaskedExample, expand
from rucca.features import FeaturizerContext, fit_vocabularies
from rucca.graph import Edge, Node, Passage, make_token
from rucca.lexicon import match
from rucca.tagger import (MAGIC, N_LAYERS, GruTagger, NumericError,
                          OracleTagger, Params, TaggerConfig, TrainConfig,
                          _Adam, build_aux_vocab, clip_gradients,
                          load_checkpoint, save_checkpoint, train)

from helpers import (complex_step_check, context_for,
                     directional_complex_step_check, fig1_passage,
                     fixture_corpus, nonrepresentable_passage,
                     random_corpus, single_token_passage,
                     two_scene_5tok_passage)


def _tiny_setup(hidden=4, cat_dim=2, lambda_aux=1.0, seed=7):
    passages = [fig1_passage()]
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)]
    cfg = TaggerConfig(hidden=hidden, cat_dim=cat_dim, lambda_aux=lambda_aux,
                       seed=seed)
    tagger = GruTagger(cfg, ctx.vocab, build_aux_vocab(examples))
    return tagger, ctx, examples


def test_forward_rows_normalized():
    tagger, ctx, examples = _tiny_setup()
    dist, _ = tagger.forward(ctx.featurize(examples[0]))
    np.testing.assert_allclose(dist.task1.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(dist.task2.sum(axis=1), 1.0, atol=1e-6)
    assert dist.task1.shape == (7, bio.N_BIO)


def test_forward_length_one():
    passages = [single_token_passage()]
    ctx = context_for(passages)
    examples = expand(passages[0])
    tagger = GruTagger(TaggerConfig(hidden=4, cat_dim=2), ctx.vocab,
                       build_aux_vocab(examples))
    dist, _ = tagger.forward(ctx.featurize(examples[0]))
    assert dist.task1.shape[0] == 1
    assert dist.task2.shape[0] == 1


def test_forward_deterministic_under_seed():
    a, ctx, examples = _tiny_setup(seed=99)
    b, _, _ = _tiny_setup(seed=99)
    feats = ctx.featurize(examples[1])
    da, _ = a.forward(feats)
    db, _ = b.forward(feats)
    assert np.array_equal(da.task1, db.task1)
    assert np.array_equal(da.task2, db.task2)


def test_forward_is_a_batch_of_one():
    tagger, ctx, examples = _tiny_setup(hidden=5)
    for ex in examples:
        feats = ctx.featurize(ex)
        dist, cache = tagger.forward(feats)
        dists, batch_cache = tagger.forward_batch([feats])
        assert dist.task1.tobytes() == dists[0].task1.tobytes()
        assert dist.task2.tobytes() == dists[0].task2.tobytes()
        assert cache.keys() == batch_cache.keys()
        for k in ("f", "top", "logits1", "logits2"):
            assert cache[k].shape[0] == 1
            assert cache[k].tobytes() == batch_cache[k].tobytes()


def _foci(min_size, max_size):
    return st.lists(st.tuples(st.integers(0, 6), st.integers(1, 7),
                              st.sampled_from(MASK_SYMBOLS[1:])),
                    min_size=min_size, max_size=max_size)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.tuples(st.just(6), _foci(1, 6)),
                 st.tuples(st.just(32), _foci(4, 8))))
def test_predict_batch_rows_match_single_forwards(case):
    """Each row of a batch is its example's own forward, up to the
    rounding of one (B, h) @ (h, 3h) product per step."""
    hidden, foci = case
    tagger, ctx, examples = _tiny_setup(hidden=hidden)
    root = examples[0]
    batch = []
    for start, length, symbol in foci:
        end = min(start + length, len(root.tokens))
        mask = tuple(symbol if start <= i < end else "O"
                     for i in range(len(root.tokens)))
        batch.append(root._replace(mask=mask, focus_node=None))
    feats = [ctx.featurize(ex) for ex in batch]
    dists = tagger.predict_batch(
        batch, ctx.sentence(match(ctx.lexicon, root.tokens).flags))
    assert len(dists) == len(batch)
    for dist, f in zip(dists, feats):
        alone, _ = tagger.forward(f)
        np.testing.assert_allclose(dist.task1, alone.task1, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(dist.task2, alone.task2, rtol=0,
                                   atol=1e-12)


def test_forward_batch_rejects_mixed_lengths():
    tagger, ctx, examples = _tiny_setup()
    short = MaskedExample(
        passage_id="s", tokens=examples[0].tokens[:3], mask=("ROOT",) * 3,
        focus_node=None)
    with pytest.raises(ValueError):
        tagger.forward_batch([ctx.featurize(examples[0]),
                              ctx.featurize(short)])
    with pytest.raises(ValueError):
        tagger.predict_batch([examples[0], short], ctx.featurize)


def test_target_ids_refuses_an_example_without_a_bio_target():
    tagger, _, examples = _tiny_setup()
    example = examples[0]._replace(target_bio=None, target_aux=None,
                                   representable=False)
    with pytest.raises(ValueError, match="has no BIO target"):
        tagger.target_ids(example)


def test_loss_uniform_analytic_value():
    # With TASK1-only loss and uniform predictions, loss = ln 53.
    tagger, ctx, examples = _tiny_setup(lambda_aux=0.0)
    for key in ("out1/W", "out1/b"):
        tagger.params[key][:] = 0.0
    # zero the top layer so logits are exactly constant
    feats = ctx.featurize(examples[0])
    y1, y2 = tagger.target_ids(examples[0])
    value, _ = tagger.loss(feats, y1, y2)
    assert abs(value - np.log(bio.N_BIO)) < 1e-12


def test_loss_matches_independent_cross_entropy():
    tagger, ctx, examples = _tiny_setup()
    feats = ctx.featurize(examples[2])
    y1, y2 = tagger.target_ids(examples[2])
    value, cache = tagger.loss(feats, y1, y2)
    dist, _ = tagger.forward(feats)
    # independent recomputation from the probability rows
    n = feats.length
    expected = -np.mean(np.log(dist.task1[np.arange(n), y1]))
    expected += -np.mean(np.log(dist.task2[np.arange(n), y2]))
    assert abs(value - expected) < 1e-8


def test_loss_near_zero_for_confident_correct_model():
    tagger, ctx, examples = _tiny_setup()
    feats = ctx.featurize(examples[0])
    y1, y2 = tagger.target_ids(examples[0])
    _, cache = tagger.forward(feats)
    # push the correct logits far up: softmax ~ one-hot on the target
    n = feats.length
    cache["logits1"] = np.zeros_like(cache["logits1"])
    cache["logits1"][0, np.arange(n), y1] = 50.0
    cache["logits2"] = np.zeros_like(cache["logits2"])
    cache["logits2"][0, np.arange(n), y2] = 50.0
    value, _ = tagger.loss(feats, y1, y2, cache)
    assert value < 1e-6


def _max_rel_err(analytic, numeric):
    """The largest entry error relative to the tensor's own largest entry,
    so a tensor of small gradients is held to the same bound."""
    diff = np.max(np.abs(analytic - numeric))
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)))
    return diff / scale


def gradient_check(tagger, feats, y1, y2, eps=1e-4):
    """Central finite differences over every parameter tensor."""
    _, grads = tagger.gradients(feats, y1, y2)
    worst = {}
    for name in sorted(tagger.params):
        p = tagger.params[name]
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = tagger.loss(feats, y1, y2)
            flat[i] = orig - eps
            lm, _ = tagger.loss(feats, y1, y2)
            flat[i] = orig
            nflat[i] = (lp - lm) / (2.0 * eps)
        worst[name] = _max_rel_err(grads[name], numeric)
    return worst


def test_gradient_check_tiny_model():
    # 3-token sentence, h=4, both heads active.
    passages = [two_scene_5tok_passage()]
    tokens = passages[0].tokens[:3]
    example = MaskedExample(passage_id="t", tokens=tokens,
                            mask=("ROOT", "ROOT", "ROOT"),
                            focus_node="n0",
                            target_bio=("B-H", "I-H", "B-L"),
                            target_aux=("H", "H", "L"))
    ctx = context_for(passages)
    tagger = GruTagger(TaggerConfig(hidden=4, cat_dim=2, lambda_aux=0.7,
                                    seed=3),
                       ctx.vocab, ("H", "L", "O"))
    feats = ctx.featurize(example)
    y1, y2 = tagger.target_ids(example)
    worst = gradient_check(tagger, feats, y1, y2)
    for name, err in sorted(worst.items()):
        assert err < 1e-4, "%s: rel err %.3g" % (name, err)


def test_complex_step_check_tiny_model():
    # The model of test_gradient_check_tiny_model, to rounding error.
    passages = [two_scene_5tok_passage()]
    example = MaskedExample(passage_id="t", tokens=passages[0].tokens[:3],
                            mask=("ROOT", "ROOT", "ROOT"),
                            focus_node="n0",
                            target_bio=("B-H", "I-H", "B-L"),
                            target_aux=("H", "H", "L"))
    ctx = context_for(passages)
    tagger = GruTagger(TaggerConfig(hidden=4, cat_dim=2, lambda_aux=0.7,
                                    seed=3),
                       ctx.vocab, ("H", "L", "O"))
    flat = tagger.params.flat.copy()
    worst = complex_step_check(tagger, ctx.featurize(example),
                               *tagger.target_ids(example))
    assert sorted(worst) == sorted(tagger.params)
    for name, err in sorted(worst.items()):
        assert err <= 1e-10, "%s: rel err %.3g" % (name, err)
    assert np.array_equal(tagger.params.flat, flat)


def test_directional_complex_step_check_default_size():
    # The model that trains and parses (TaggerConfig defaults: hidden 128)
    # on a fixture-corpus vocabulary, one short example, both heads.
    passages = fixture_corpus()
    examples = [ex for p in passages for ex in expand(p)]
    ctx = context_for(passages)
    tagger = GruTagger(TaggerConfig(), ctx.vocab, build_aux_vocab(examples))
    example = expand(two_scene_5tok_passage())[0]
    flat = tagger.params.flat.copy()
    worst = directional_complex_step_check(
        tagger, ctx.featurize(example), *tagger.target_ids(example))
    assert sorted(worst) == sorted(tagger.params)
    for name, err in sorted(worst.items()):
        assert err <= 1e-10, "%s: rel err %.3g" % (name, err)
    assert np.array_equal(tagger.params.flat, flat)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _per_gate_gru(x, W, U, b, order):
    """Hidden states of a plain GRU visiting the rows of x in order, with
    W and U given (out, in) and each gate's tensors sliced out of their
    fused z, r, n blocks."""
    h = U.shape[1]
    Wz, Wr, Wn = W[:h], W[h:2 * h], W[2 * h:]
    Uz, Ur, Un = U[:h], U[h:2 * h], U[2 * h:]
    bz, br, bn = b[:h], b[h:2 * h], b[2 * h:]
    H = np.zeros((x.shape[0], h))
    hprev = np.zeros(h)
    for t in order:
        z = _sigmoid(Wz @ x[t] + Uz @ hprev + bz)
        r = _sigmoid(Wr @ x[t] + Ur @ hprev + br)
        n = np.tanh(Wn @ x[t] + r * (Un @ hprev) + bn)
        hprev = (1.0 - z) * n + z * hprev
        H[t] = hprev
    return H


def test_gru_matches_per_gate_reference():
    # Both directions of every layer, on random (not zero) biases.
    tagger, ctx, examples = _tiny_setup(hidden=3)
    rng = np.random.default_rng(0)
    for name, p in tagger.params.items():
        if name.endswith(("/f/b", "/b/b")):
            p[:] = rng.normal(0.0, 0.5, p.shape)
    _, cache = tagger.forward(ctx.featurize(examples[0]))
    h = tagger.config.hidden
    for layer, lc in enumerate(cache["layers"]):
        x = lc["x"][0]
        T = x.shape[0]
        for d, cols, order in (("f", slice(0, h), range(T)),
                               ("b", slice(h, 2 * h), range(T - 1, -1, -1))):
            base = "l%d/%s/" % (layer, d)
            W, U, b = (tagger.params[base + k] for k in "WUb")
            expected = _per_gate_gru(x, W.T, U.T, b, order)
            np.testing.assert_allclose(lc["y"][0, :, cols], expected,
                                       rtol=0, atol=1e-12)


def test_gradients_zero_for_aux_head_when_lambda_zero():
    tagger, ctx, examples = _tiny_setup(lambda_aux=0.0)
    feats = ctx.featurize(examples[0])
    y1, y2 = tagger.target_ids(examples[0])
    _, grads = tagger.gradients(feats, y1, y2)
    assert np.all(grads["out2/W"] == 0.0)
    assert np.all(grads["out2/b"] == 0.0)


def test_gradients_vanish_at_zero_loss():
    # saturate the output biases toward the gold labels: loss ~ 0
    sub_example = expand(single_token_passage())[0]
    ctx1 = context_for([single_token_passage()])
    tagger1 = GruTagger(TaggerConfig(hidden=4, cat_dim=2, seed=5),
                        ctx1.vocab, build_aux_vocab([sub_example]))
    y1, y2 = tagger1.target_ids(sub_example)
    tagger1.params["out1/W"][:] = 0.0
    tagger1.params["out2/W"][:] = 0.0
    tagger1.params["out1/b"][:] = -60.0
    tagger1.params["out1/b"][y1[0]] = 60.0
    tagger1.params["out2/b"][:] = -60.0
    tagger1.params["out2/b"][y2[0]] = 60.0
    feats1 = ctx1.featurize(sub_example)
    value, grads = tagger1.gradients(feats1, y1, y2)
    assert value < 1e-6
    assert max(np.max(np.abs(g)) for g in grads.values()) < 1e-6


def test_batch_gradient_matches_per_example_reference():
    """gradients(..., acc, n) adds each example's gradient over n into
    acc, bit for bit as a fresh gradient per example, divided by n and
    added in turn."""
    passages = random_corpus(seed=5, count=3)
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)
                if ex.representable and ex.target_bio is not None]
    batch = [examples[0], examples[6], examples[10]]
    assert len({len(ex.tokens) for ex in batch}) == 3
    tagger = GruTagger(TaggerConfig(hidden=4, cat_dim=2, seed=3),
                       ctx.vocab, build_aux_vocab(examples))
    n = len(batch)
    expected = np.zeros_like(tagger.params.flat)
    acc = Params(tagger.params)
    acc.flat.fill(0.0)
    for ex in batch:
        feats, (y1, y2) = ctx.featurize(ex), tagger.target_ids(ex)
        value, grads = tagger.gradients(feats, y1, y2)
        expected += np.divide(grads.flat, n, out=grads.flat)
        summed_value, summed = tagger.gradients(feats, y1, y2, acc, n)
        assert summed is acc and summed_value == value
    assert np.any(expected != 0.0)
    assert acc.flat.tobytes() == expected.tobytes()


def test_nonfinite_forward_reported():
    tagger, ctx, examples = _tiny_setup()
    tagger.params["out1/W"][0, 0] = np.nan
    with pytest.raises(NumericError):
        tagger.forward(ctx.featurize(examples[0]))


def test_train_logs_one_line_per_epoch():
    passages = [two_scene_5tok_passage()]
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)]
    tiny = TaggerConfig(hidden=4, cat_dim=2, seed=1)
    _, log = train(examples, ctx, TrainConfig(epochs=1, batch_size=4,
                                              tagger=tiny))
    assert len(log) == 1
    _, log = train(examples, ctx, TrainConfig(epochs=3, batch_size=4,
                                              tagger=tiny))
    assert [r["epoch"] for r in log] == [1, 2, 3]


def test_train_same_seed_identical_params():
    passages = random_corpus(seed=41, count=3)
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)]
    cfg = TrainConfig(epochs=2, batch_size=4,
                      tagger=TaggerConfig(hidden=4, cat_dim=2, seed=13))
    a, _ = train(examples, ctx, cfg)
    b, _ = train(examples, ctx, cfg)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k]), k


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for bad in ({"learning_rate": np.nan}, {"learning_rate": np.inf},
                {"grad_clip": np.nan}, {"grad_clip": -1.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    TrainConfig(grad_clip=0.0)
    for bad in ({"hidden": 0}, {"cat_dim": -1},
                {"lambda_aux": np.nan}, {"lambda_aux": np.inf},
                {"lambda_aux": -1.0}, {"seed": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TaggerConfig(**bad)
    TaggerConfig(cat_dim=0, lambda_aux=0.0, seed=0)


def _gold_one_hot(passage, nid):
    return bio.one_hot(bio.encode(passage, nid))


def _oracle_task1(passage, nid):
    """The oracle's task1 rows for the expanded example of passage's node
    nid."""
    (example,) = [ex for ex in expand(passage) if ex.focus_node == nid]
    return OracleTagger([passage]).predict(example, None).task1


def test_oracle_predict_single_token():
    p = single_token_passage()
    task1 = _oracle_task1(p, "n0")
    assert task1[0, bio.BIO_INDEX["B-H"]] == 1.0
    assert np.array_equal(task1, _gold_one_hot(p, "n0"))


def test_oracle_predict_fig1_root():
    p = fig1_passage()
    task1 = _oracle_task1(p, "n0")
    labels = ["B-H", "I-H", "I-H", "B-L", "B-H", "I-H", "I-H"]
    assert np.array_equal(task1, bio.one_hot(labels))
    assert np.array_equal(task1, _gold_one_hot(p, "n0"))


def test_oracle_predict_remote_rows():
    p = fig1_passage()
    task1 = _oracle_task1(p, "n2")
    assert task1[0, bio.BIO_INDEX["B-REM-A"]] == 1.0
    assert task1[4, bio.BIO_INDEX["B-A"]] == 1.0
    assert np.array_equal(task1, _gold_one_hot(p, "n2"))


def test_oracle_tagger_resolves_focus_from_mask():
    p = fig1_passage()
    oracle = OracleTagger([p])
    ctx = context_for([p])
    for ex in expand(p):
        dist = oracle.predict(ex, ctx.featurize(ex))
        assert np.array_equal(dist.task1, _gold_one_hot(p, ex.focus_node))
        assert dist.task2 is None


def _all_o(example):
    return bio.one_hot(["O"] * len(example.tokens))


def test_oracle_gives_every_expanded_target_over_the_fixture_corpus():
    """Each expanded example of the fixture corpus gets its one-hot
    target; a non-representable node, a mask that names no gold node
    and an unknown passage id get all O."""
    corpus = fixture_corpus()
    oracle = OracleTagger(corpus)
    examples = [ex for p in corpus for ex in expand(p)]
    for ex in examples:
        assert np.array_equal(oracle.predict(ex, None).task1,
                              bio.one_hot(ex.target_bio))
    p = fig1_passage()
    root = expand(p)[0]
    # Another arc over the root's span names no gold node.
    for ex in (root._replace(mask=("A",) * len(root.tokens)),
               root._replace(passage_id="unknown")):
        assert np.array_equal(OracleTagger([p]).predict(ex, None).task1,
                              _all_o(ex))
    gap = nonrepresentable_passage()
    skipped = [ex for ex in expand(gap) if not ex.representable]
    assert skipped
    for ex in skipped:
        assert np.array_equal(OracleTagger([gap]).predict(ex, None).task1,
                              _all_o(ex))


def _chain_passage():
    """n0 -H-> n1 -H-> n2 over two tokens: n1 and n2 share a mask."""
    tokens = (make_token("Go", "VERB"), make_token("now", "ADV"))
    return Passage(
        passage_id="chain", language="en", tokens=tokens,
        nodes=(Node("n0", "nonterminal"), Node("n1", "nonterminal"),
               Node("n2", "nonterminal"), Node("t0", "terminal", 0),
               Node("t1", "terminal", 1)),
        edges=(Edge("n0", "n1", "H"), Edge("n1", "n2", "H"),
               Edge("n2", "t0", "P"), Edge("n2", "t1", "D")),
        root="n0")


def test_expand_gives_a_shared_mask_one_target():
    """Of a unary chain's nodes sharing a mask only the first gets a
    target, so training sees one target per input."""
    p = _chain_passage()
    _, n1, n2 = expand(p)
    assert n1.mask == n2.mask
    assert (n1.target_bio, n1.representable) == (("B-H", "I-H"), True)
    assert (n2.target_bio, n2.representable) == (None, False)


def test_oracle_gives_a_shared_mask_its_first_nodes_target():
    """n1 and n2 form a unary chain of H arcs, so they share a mask; the
    mask gives n1's target, as corpus.expand lists n1 first."""
    p = _chain_passage()
    examples = expand(p)
    assert examples[1].mask == examples[2].mask == ("H", "H")
    oracle = OracleTagger([p])
    for ex in examples[1:]:
        assert np.array_equal(oracle.predict(ex, None).task1,
                              _gold_one_hot(p, "n1"))


def test_oracle_keeps_the_last_passage_of_an_id():
    first, second = fig1_passage(pid="same"), two_scene_5tok_passage("same")
    oracle = OracleTagger([first, second])
    for ex in expand(second):
        assert np.array_equal(oracle.predict(ex, None).task1,
                              bio.one_hot(ex.target_bio))
    root = expand(first)[0]
    assert np.array_equal(oracle.predict(root, None).task1, _all_o(root))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    tagger, ctx, examples = _tiny_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(tagger, path)
    loaded = load_checkpoint(path)
    assert loaded.config == tagger.config
    assert loaded.aux_vocab == tagger.aux_vocab
    assert loaded.vocab == tagger.vocab
    for k in tagger.params:
        assert np.array_equal(loaded.params[k], tagger.params[k]), k
    # byte-identical re-serialization
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_header_holds_each_fact_once(tmp_path):
    tagger, _, _ = _tiny_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(tagger, path)
    blob = path.read_bytes()
    (size,) = struct.unpack("<Q", blob[len(MAGIC):len(MAGIC) + 8])
    body = len(MAGIC) + 8 + size
    header = json.loads(blob[len(MAGIC) + 8:body])
    assert sorted(header) == ["aux_vocab", "blas", "config", "numpy",
                              "sha256", "tensors", "version", "vocab"]
    assert header["version"] == 4
    assert header["config"] == {"hidden": 4, "cat_dim": 2,
                                "lambda_aux": 1.0, "seed": 7}
    assert header["vocab"] == tagger.vocab
    assert header["numpy"] == np.__version__
    # The digest covers every other field but the builds, then the body.
    fields = {k: v for k, v in header.items()
              if k not in ("sha256", "numpy", "blas")}
    assert header["sha256"] == hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode() + blob[body:]).hexdigest()
    # The builds that wrote the file are recorded, not compared.
    header.update(numpy="0.0", blas="other 0.0")
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text
                     + blob[body:])
    loaded = load_checkpoint(path)
    assert loaded.params.flat.tobytes() == tagger.params.flat.tobytes()


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    tagger, _, _ = _tiny_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(tagger, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_checkpoint(path)
    assert loaded.params.flat.tobytes() == tagger.params.flat.tobytes()
    assert list(loaded.params) == list(tagger.params)
    save_checkpoint(loaded, tmp_path / "m2.ckpt")
    assert (tmp_path / "m2.ckpt").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# Parameter layout: one vector, viewed tensor by tensor

def _reference_params(tagger):
    """name -> array in draw order: the seeded initialisation drawn into
    separate arrays, each weight (out, in) (reference for the layout
    tests, which read the stored (in, out) weights through .T)."""
    cfg = tagger.config
    rng = np.random.default_rng(cfg.seed)
    h, m = cfg.hidden, 2 * cfg.hidden
    ref = {}

    def linear(name, rows, cols):
        ref[name + "/W"] = rng.normal(0.0, np.sqrt(1.0 / cols), (rows, cols))
        ref[name + "/b"] = np.zeros(rows)

    for name in tagger.feature_names:
        ref["emb/" + name] = rng.normal(
            0.0, 0.1, (len(tagger.vocab[name]), cfg.cat_dim))
    linear("in", m, tagger.input_dim)
    for layer in range(N_LAYERS):
        for d in "fb":
            gates = [(rng.normal(0.0, np.sqrt(1.0 / m), (h, m)),
                      rng.normal(0.0, np.sqrt(1.0 / h), (h, h)))
                     for _ in "zrn"]
            base = "l%d/%s/" % (layer, d)
            ref[base + "W"] = np.concatenate([w for w, _ in gates])
            ref[base + "U"] = np.concatenate([u for _, u in gates])
            ref[base + "b"] = np.zeros(3 * h)
        linear("l%d/hw" % layer, m, m)
    linear("out1", bio.N_BIO, m)
    linear("out2", len(tagger.aux_vocab), m)
    return ref


def assert_tiles_flat(params):
    """The views lie in params.flat in sorted-name order, without a gap or
    an overlap, and share its memory."""
    start = params.flat.__array_interface__["data"][0]
    offset = 0
    for name in sorted(params):
        view = params[name]
        assert view.flags.c_contiguous, name
        assert view.__array_interface__["data"][0] == start + 8 * offset, name
        assert view.size == 0 or np.shares_memory(view, params.flat), name
        offset += view.size
    assert offset == params.flat.size


_LAYOUT_VOCAB = context_for([fig1_passage()]).vocab


@settings(max_examples=30, deadline=None)
@given(hidden=st.integers(1, 4), cat_dim=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16))
def test_params_are_views_of_one_vector_in_checkpoint_order(
        hidden, cat_dim, seed):
    cfg = TaggerConfig(hidden=hidden, cat_dim=cat_dim, seed=seed)
    tagger = GruTagger(cfg, _LAYOUT_VOCAB, ("H", "O"))
    reference = _reference_params(tagger)
    assert list(tagger.params) == list(reference)  # draw order
    for name, expected in reference.items():
        stored = tagger.params[name]
        if name.endswith(("/W", "/U")):
            stored = stored.T
        assert np.array_equal(stored, expected), name
    assert_tiles_flat(tagger.params)
    with tempfile.TemporaryDirectory() as d:
        path = d + "/m.ckpt"
        save_checkpoint(tagger, path)
        with open(path, "rb") as f:
            blob = f.read()
    (size,) = struct.unpack("<Q", blob[len(MAGIC):len(MAGIC) + 8])
    assert blob[len(MAGIC) + 8 + size:] == tagger.params.flat.tobytes()


def test_restored_and_loaded_params_stay_views(tmp_path):
    passages = [two_scene_5tok_passage()]
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)]
    scores = iter([0.2, 0.9, 0.5])
    seen = []

    def dev_score(tagger):
        seen.append(tagger.params.flat.copy())
        return next(scores)

    tagger, _ = train(examples, ctx, TrainConfig(
        epochs=3, batch_size=4, tagger=TaggerConfig(hidden=3, cat_dim=2)),
        dev_score=dev_score)
    assert not np.array_equal(seen[1], seen[2])
    assert np.array_equal(tagger.params.flat, seen[1])  # epoch 2 restored
    assert_tiles_flat(tagger.params)
    save_checkpoint(tagger, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert np.array_equal(loaded.params.flat, seen[1])
    assert_tiles_flat(loaded.params)


def _adam_reference(params, grads, m, v, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step tensor by tensor (reference for _Adam.step)."""
    b1t = 1.0 - b1 ** t
    b2t = 1.0 - b2 ** t
    for k in sorted(params):
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * g * g
        mhat = m[k] / b1t
        vhat = v[k] / b2t
        params[k] -= lr * mhat / (np.sqrt(vhat) + eps)


def _clip_reference(grads, max_norm):
    """clip_gradients tensor by tensor (reference)."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for k in grads:
            grads[k] *= scale
    return total


def test_clip_gradients_scales_a_larger_norm_down_to_max_norm():
    grads = Params({"a": np.array([0.9, 0.0]), "b": np.array([[1.2]])})
    assert clip_gradients(grads, 2.0) == pytest.approx(1.5)
    assert np.array_equal(grads.flat, [0.9, 0.0, 1.2])  # below max_norm
    assert clip_gradients(grads, 1.0) == pytest.approx(1.5)
    assert np.allclose(grads.flat, [0.6, 0.0, 0.8])


def test_vector_adam_and_clip_match_per_tensor_reference():
    tagger, _, _ = _tiny_setup(cat_dim=0)  # zero-size embedding tables
    params = tagger.params
    ref = {k: a.copy() for k, a in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    optimizer = _Adam(params.flat.size, 0.01)
    rng = np.random.default_rng(5)
    for t in range(1, 6):
        grads = Params(params)
        grads.flat[:] = rng.normal(0.0, 1.0, grads.flat.size)
        ref_grads = {k: g.copy() for k, g in grads.items()}
        norm = clip_gradients(grads, 0.5)
        assert norm == _clip_reference(ref_grads, 0.5) > 0.5
        for k in ref_grads:
            assert np.array_equal(grads[k], ref_grads[k]), k
        optimizer.step(params.flat, grads.flat)
        _adam_reference(ref, ref_grads, m, v, 0.01, t)
        for k in ref:
            assert np.array_equal(params[k], ref[k]), (t, k)
        assert np.array_equal(
            optimizer.m, np.concatenate([m[k].ravel() for k in sorted(m)]))
        assert np.array_equal(
            optimizer.v, np.concatenate([v[k].ravel() for k in sorted(v)]))


def test_adam_steps_in_chunks_as_one_vector_step():
    """Across several chunks, a step gives what the same operations give
    over the whole vector at once."""
    size = 3 * _Adam.CHUNK + 123
    rng = np.random.default_rng(8)
    params = rng.normal(0.0, 1.0, size)
    ref, m, v = params.copy(), np.zeros(size), np.zeros(size)
    optimizer = _Adam(size, 0.01)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 4):
        grads = rng.normal(0.0, 1.0, size)
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        denom = np.sqrt(v / (1.0 - b2 ** t)) + eps
        ref -= m / (1.0 - b1 ** t) * lr / denom
        optimizer.step(params, grads)
        assert np.array_equal(params, ref), t
        assert np.array_equal(optimizer.m, m), t
        assert np.array_equal(optimizer.v, v), t


@pytest.mark.parametrize("scored, bound", [(False, 5), (True, 6)])
def test_train_holds_four_parameter_vectors(scored, bound):
    """Training holds the weights, one batch gradient and Adam's two
    moments, plus one best-parameters copy when a dev score is given;
    everything else stays well under one more parameter vector."""
    passages = random_corpus(seed=3, count=2)
    ctx = context_for(passages)
    examples = [ex for p in passages for ex in expand(p)]
    scores = iter([0.1, 0.2])  # improves every epoch
    tracemalloc.start()
    try:
        tagger, _ = train(examples, ctx, TrainConfig(
            epochs=2, batch_size=4, tagger=TaggerConfig(hidden=128)),
            dev_score=(lambda tagger: next(scores)) if scored else None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = peak / tagger.params.flat.nbytes
    assert vectors < bound, "%.2f parameter vectors" % vectors
