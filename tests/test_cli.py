import json
import os
import struct
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from rucca import bio, cli, evaluator, features
from rucca.corpus import expand, load_passages, save_examples, save_passages
from rucca.evaluator import score
from rucca.features import fit_vocabularies
from rucca.graph import Edge, Node, Passage, make_token, non_terminals
from rucca.parser import DecoderConfig
from rucca.tagger import (MAGIC, GruTagger, TaggerConfig, TrainConfig,
                          load_checkpoint, save_checkpoint)

from helpers import (fig1_passage, nonrepresentable_passage, random_corpus,
                     refuse_featurize, single_token_passage,
                     two_scene_5tok_passage, unary_chain_passage)


def _write_config(path, **values):
    with open(path, "w", encoding="utf-8") as f:
        for k, v in values.items():
            f.write("%s=%s\n" % (k, v))
    return str(path)


def _gold_corpus():
    return [single_token_passage(), fig1_passage(),
            two_scene_5tok_passage()]


def test_expand_counts(tmp_path, capsys):
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    out = tmp_path / "expanded.jsonl"
    config = _write_config(tmp_path / "c.cfg", train_passages=gold,
                           expanded_out=out)
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    expected = sum(len(non_terminals(p)) for p in passages)
    text = capsys.readouterr().out
    assert "into %d examples" % expected in text
    assert "(0 skipped" in text
    lines = [l for l in out.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == expected


def test_expand_counts_single_token(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    save_passages([single_token_passage()], gold)
    config = _write_config(tmp_path / "c.cfg", train_passages=gold,
                           expanded_out=tmp_path / "e.jsonl")
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert "into 1 examples" in capsys.readouterr().out


def test_expand_reports_nonrepresentable(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    save_passages([nonrepresentable_passage()], gold)
    config = _write_config(tmp_path / "c.cfg", train_passages=gold,
                           expanded_out=tmp_path / "e.jsonl")
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "into 2 examples" in text
    assert "(1 skipped" in text


def test_deep_unary_chain_expands_and_scores(tmp_path, capsys):
    # Deeper than Python's recursion limit: yields and the traversal of
    # the tree keep stacks of their own.
    gold = tmp_path / "gold.jsonl"
    save_passages([unary_chain_passage(5000)], gold)
    config = _write_config(tmp_path / "c.cfg", train_passages=gold,
                           expanded_out=tmp_path / "e.jsonl")
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert "into 5000 examples (4997 skipped" in capsys.readouterr().out
    assert cli.main(["eval", str(gold), str(gold)]) == cli.EXIT_OK
    assert "Labeled     1.0000  1.0000  1.0000" in capsys.readouterr().out


def test_parse_oracle_deeper_than_the_recursion_limit(tmp_path):
    """The chain H > P > C > C over "She sings" repeats its C mask, so
    the oracle answers each later C node with one C child over both
    tokens: the parse runs to a depth cap past Python's recursion limit."""
    gold = tmp_path / "gold.jsonl"
    save_passages([Passage(
        passage_id="chain", language="en",
        tokens=(make_token("She", "PRON"), make_token("sings", "VERB")),
        nodes=tuple(Node("n%d" % i, "nonterminal") for i in range(5))
        + (Node("t0", "terminal", 0), Node("t1", "terminal", 1)),
        edges=tuple(Edge("n%d" % i, "n%d" % (i + 1), c)
                    for i, c in enumerate("HPCC"))
        + (Edge("n4", "t0", "C"), Edge("n4", "t1", "C")),
        root="n0")], gold)
    max_depth = sys.getrecursionlimit() + 100
    pred, trace = tmp_path / "pred.jsonl", tmp_path / "trace.log"
    config = _write_config(tmp_path / "c.cfg", predictions_out=pred,
                           max_depth=max_depth)
    assert cli.main(["--config", config, "parse", "--oracle", "--input",
                     str(gold), "--trace", str(trace)]) == cli.EXIT_OK
    (predicted,) = load_passages(pred)  # which validates it
    assert len(non_terminals(predicted)) == max_depth
    assert [line for line in trace.read_text().splitlines()
            if line.startswith("note:")] == [
        "note: depth cap at node n%d span (0, 2)" % (max_depth - 1)]


def _expand_then_train(tmp_path, seed=13, epochs=2):
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    expanded = tmp_path / "expanded.jsonl"
    model = tmp_path / "model.ckpt"
    log = tmp_path / "train.log"
    config = _write_config(
        tmp_path / "c.cfg", train_passages=gold, expanded=expanded,
        expanded_out=expanded, model=model, train_log=log,
        predictions_out=tmp_path / "predictions.jsonl",
        epochs=epochs, hidden=4, cat_dim=2, batch_size=4, seed=seed)
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert cli.main(["--config", config, "train"]) == cli.EXIT_OK
    return config, gold, model, log


def test_train_writes_log_and_checkpoint(tmp_path):
    _, _, model, log = _expand_then_train(tmp_path, epochs=2)
    assert model.exists()
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("epoch 1 loss ")
    assert lines[1].startswith("epoch 2 loss ")


def test_train_with_dev_keeps_best_epoch(tmp_path, capsys):
    """Every epoch logs its dev F1, and the checkpoint holds the model of
    the first epoch with the best dev F1: the same bytes as a run without
    dev passages that stops at that epoch."""
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    dev = tmp_path / "dev.jsonl"
    save_passages(passages, gold)
    save_passages(random_corpus(seed=3, count=4), dev)
    values = dict(train_passages=gold, expanded=tmp_path / "e.jsonl",
                  expanded_out=tmp_path / "e.jsonl",
                  train_log=tmp_path / "log", hidden=4, cat_dim=2,
                  batch_size=4, learning_rate=0.05, seed=13)
    with_dev = _write_config(tmp_path / "dev.cfg", dev_passages=dev,
                             epochs=6, model=tmp_path / "dev.ckpt", **values)
    assert cli.main(["--config", with_dev, "expand"]) == cli.EXIT_OK
    assert cli.main(["--config", with_dev, "train"]) == cli.EXIT_OK
    lines = (tmp_path / "log").read_text().splitlines()
    assert len(lines) == 6
    f1s = []
    for epoch, line in enumerate(lines, 1):
        words = line.split()
        assert words[:2] == ["epoch", str(epoch)]
        assert words[-2] == "dev_avg_labeled_f1"
        f1s.append(float(words[-1]))
    best = f1s.index(max(f1s)) + 1
    # At this seed the best F1 first comes at epoch 4 and recurs later, so
    # both keeping the best epoch and keeping the earlier of a tie count.
    assert best == 4 and f1s.count(max(f1s)) > 1
    stopped = _write_config(tmp_path / "stop.cfg", epochs=best,
                            model=tmp_path / "stop.ckpt", **values)
    assert cli.main(["--config", stopped, "train"]) == cli.EXIT_OK
    assert (tmp_path / "dev.ckpt").read_bytes() == \
        (tmp_path / "stop.ckpt").read_bytes()


def test_train_same_seed_identical_checkpoints(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _, _, model_a, _ = _expand_then_train(a, seed=13)
    _, _, model_b, _ = _expand_then_train(b, seed=13)
    assert model_a.read_bytes() == model_b.read_bytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def test_train_checkpoint_does_not_depend_on_blas_threads(tmp_path):
    """`rucca` runs BLAS on one thread unless told otherwise: a run with
    the thread variables unset writes the bytes of a run with them set to
    1. At hidden=256 these checkpoints differ under 1 and 2 threads."""
    gold = tmp_path / "gold.jsonl"
    save_passages(_gold_corpus(), gold)
    config = _write_config(
        tmp_path / "c.cfg", train_passages=gold,
        expanded=tmp_path / "e.jsonl", expanded_out=tmp_path / "e.jsonl",
        train_log=tmp_path / "log", epochs=1, hidden=256, batch_size=4)
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for name, threads in (("unset.ckpt", {}),
                          ("one.ckpt", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        subprocess.run([sys.executable, "-m", "rucca.cli", "--config",
                        config, "train"], check=True, capture_output=True,
                       env={**env, **threads,
                            "RUCCA_MODEL": str(tmp_path / name)})
    assert (tmp_path / "unset.ckpt").read_bytes() == \
        (tmp_path / "one.ckpt").read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's threads in Linux's /proc")
def test_tests_run_blas_on_one_thread():
    """The root conftest.py pins BLAS to one thread before any test module
    imports numpy, so this process has one thread after a product."""
    if any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS):
        pytest.skip("the caller chose its own BLAS threads")
    square = np.ones((256, 256))
    assert (square @ square)[0, 0] == 256.0
    assert len(os.listdir("/proc/self/task")) == 1


def test_parse_oracle_roundtrip(tmp_path, monkeypatch, capsys):
    refuse_featurize(monkeypatch)
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    pred_path = tmp_path / "pred.jsonl"
    config = _write_config(tmp_path / "c.cfg",
                           predictions_out=pred_path)
    rc = cli.main(["--config", config, "parse", "--oracle",
                   "--input", str(gold)])
    assert rc == cli.EXIT_OK
    assert "parsed 3 sentences" in capsys.readouterr().out
    predicted = load_passages(pred_path)
    assert len(predicted) == 3
    for pred, ref in zip(predicted, passages):
        assert score(pred, ref).labeled["avg"].f1 == 1.0


def test_parse_from_checkpoint_with_conll_input(tmp_path, capsys):
    config, _, model, _ = _expand_then_train(tmp_path)
    conll = tmp_path / "in.conll"
    conll.write_text(
        "1\tShe\tPRON\t_\t_\t2\tnsubj\n"
        "2\tsings\tVERB\t_\t_\t0\troot\n"
        "\n"
        "1\tDogs\tNOUN\t_\t_\t2\tnsubj\n"
        "2\tbark\tVERB\t_\t_\t0\troot\n"
        "3\tloudly\tADV\t_\t_\t2\tadvmod\n"
        "\n")
    rc = cli.main(["--config", config, "parse", "--input", str(conll)])
    assert rc == cli.EXIT_OK
    assert "parsed 2 sentences" in capsys.readouterr().out
    predicted = load_passages(tmp_path / "predictions.jsonl")
    assert len(predicted) == 2
    assert [len(p.tokens) for p in predicted] == [2, 3]


def test_parse_with_saturated_highway_gates_writes_nothing_to_stderr(
        tmp_path):
    """A highway bias of -1e5 overflows exp in the gate's sigmoid, which
    saturates to 0: the parse succeeds and numpy prints no warning."""
    config, _, model, _ = _expand_then_train(tmp_path)
    tagger = load_checkpoint(model)
    tagger.params["l0/hw/b"][:] = -1e5
    save_checkpoint(tagger, model)
    conll = tmp_path / "in.conll"
    conll.write_text("1\tDogs\tNOUN\t_\t_\t2\tnsubj\n"
                     "2\tbark\tVERB\t_\t_\t0\troot\n\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-m", "rucca.cli", "--config",
                          config, "parse", "--input", str(conll)],
                         capture_output=True, env=env)
    assert (run.returncode, run.stderr) == (cli.EXIT_OK, b"")
    assert len(load_passages(tmp_path / "predictions.jsonl")) == 1


def test_parse_trace_output(tmp_path):
    gold = tmp_path / "gold.jsonl"
    save_passages([fig1_passage()], gold)
    pred_path = tmp_path / "pred.jsonl"
    trace_path = tmp_path / "trace.log"
    config = _write_config(tmp_path / "c.cfg",
                           predictions_out=pred_path)
    rc = cli.main(["--config", config, "parse", "--oracle",
                   "--input", str(gold), "--trace", str(trace_path)])
    assert rc == cli.EXIT_OK
    text = trace_path.read_text()
    assert "## fig1" in text
    assert "depth" in text


def test_eval_gold_against_itself(tmp_path, capsys):
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    report = tmp_path / "report.json"
    config = _write_config(tmp_path / "c.cfg", report_out=report)
    rc = cli.main(["--config", config, "eval", str(gold), str(gold)])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "Labeled" in text and "Unlabeled" in text
    record = json.loads(report.read_text())
    cell = record["overall"]["labeled"]["avg"]
    assert cell["f1"] == 1.0
    assert cell["matched"] == cell["gold"] == cell["predicted"]


def test_eval_length_mismatch_is_data_error(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    save_passages(_gold_corpus(), a)
    save_passages(_gold_corpus()[:2], b)
    rc = cli.main(["eval", str(a), str(b)])
    assert rc == cli.EXIT_DATA


def _add_second_primary_parent(record):
    record["edges"].append({"parent": record["root"], "child": "t0",
                            "category": "A", "remote": False})


def test_eval_of_an_invalid_prediction_names_its_line(tmp_path, capsys):
    """Scoring trusts its passages: eval's reader is the check."""
    gold = tmp_path / "gold.jsonl"
    save_passages(_gold_corpus(), gold)
    pred = tmp_path / "pred.jsonl"
    pred.write_bytes(_edit_last_record(_add_second_primary_parent)(
        gold.read_bytes()))
    assert cli.main(["eval", str(pred), str(gold)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: %s:4: invalid passage mini: " % pred)
    assert "multiple primary parents: node t0" in err
    assert len(err.splitlines()) == 1


def test_train_names_the_batch_of_a_non_finite_gradient(
        tmp_path, monkeypatch, capsys):
    """The mean gradient of each batch is checked once, before clipping;
    the fifth example is the first of batch 1 (batches of 4)."""
    config, _, _, _ = _expand_then_train(tmp_path)
    gradients = GruTagger.gradients
    calls = []

    def poisoned(self, feats, y1, y2, out=None, n=1):
        value, grads = gradients(self, feats, y1, y2, out, n)
        calls.append(value)
        if len(calls) == 5:
            grads.flat[0] = float("nan")
        return value, grads

    monkeypatch.setattr(GruTagger, "gradients", poisoned)
    capsys.readouterr()
    assert cli.main(["--config", config, "train"]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric error: epoch 1 batch 1: "
                                       "non-finite values in backward pass\n")
    assert len(calls) > 5  # the rest of the batch ran before the check


def test_tune_oracle_prefers_smallest_threshold(tmp_path, monkeypatch,
                                               capsys):
    refuse_featurize(monkeypatch)
    passages = [fig1_passage()] + random_corpus(seed=23, count=5)
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    out = tmp_path / "tuned.cfg"
    config = _write_config(tmp_path / "c.cfg", dev_passages=gold)
    rc = cli.main(["--config", config, "tune", "--oracle",
                   "--dev", str(gold), "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    # one row per sweep value plus header and summary
    rows = [l for l in text.splitlines()
            if l.strip().startswith("0.")]
    assert len(rows) == len(cli.THRESHOLD_SWEEP) == 19
    # the oracle is perfect at every threshold; ties keep the smallest
    assert "best remote_threshold=0.05" in text
    assert "remote_threshold=0.05" in out.read_text()


def test_tune_tags_once_and_matches_a_parse_per_threshold(
        tmp_path, monkeypatch, capsys):
    """tune prints the table of a full parse and score at every threshold,
    while the tagger tags only as many rows as one parse of the dev set."""
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    dev = tmp_path / "dev.jsonl"
    save_passages(passages, gold)
    dev_passages = passages + random_corpus(seed=3, count=4)
    save_passages(dev_passages, dev)
    config = _write_config(
        tmp_path / "c.cfg", train_passages=gold, expanded=tmp_path / "e",
        expanded_out=tmp_path / "e", model=tmp_path / "m.ckpt",
        train_log=tmp_path / "log", dev_passages=dev, epochs=20, hidden=8,
        cat_dim=2, batch_size=4, learning_rate=0.05, seed=13)
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert cli.main(["--config", config, "train"]) == cli.EXIT_OK
    capsys.readouterr()

    loaded = cli.load_config(config)
    model, ctx = cli._tagger_and_context(loaded)
    dcfg = cli._decoder_config(loaded)
    rows = []
    for theta in cli.THRESHOLD_SWEEP:
        report = cli.score_parses(dev_passages, model, ctx,
                                  replace(dcfg, remote_threshold=theta))
        rows.append("%8.2f %12.4f %12.4f" % (
            theta, report.labeled["remote"].f1, report.labeled["avg"].f1))
    # A trained model, unlike the oracle, scores differently by threshold.
    assert len({row.split(None, 1)[1] for row in rows}) > 1
    one_pass = sum(len(trace.steps) for _, trace in cli.parse_sentences(
        cli._sentences(dev_passages), model, ctx, dcfg))

    rows_tagged = []
    predict_batch = GruTagger.predict_batch

    def counted(self, examples, source):
        rows_tagged.extend(examples)
        return predict_batch(self, examples, source)

    # Each dev sentence is featurized once, by the first parse that tags it.
    featurized = []
    featurize = features.featurize

    def counted_featurize(example, *args):
        featurized.append(example.tokens)
        return featurize(example, *args)

    # Each tagger output is decoded once, however many thresholds parse it.
    decoded = []
    decode_probs = bio.decode_probs

    def counted_decode(dist):
        decoded.append(dist)
        return decode_probs(dist)

    monkeypatch.setattr(GruTagger, "predict_batch", counted)
    monkeypatch.setattr(bio, "decode_probs", counted_decode)
    monkeypatch.setattr(features, "featurize", counted_featurize)
    assert cli.main(["--config", config, "tune",
                     "--out", str(tmp_path / "tuned.cfg")]) == cli.EXIT_OK
    table = capsys.readouterr().out.splitlines()[1:-1]
    assert table == rows
    assert len(rows_tagged) == one_pass
    assert len(decoded) == one_pass
    assert featurized == [p.tokens for p in dev_passages]


def test_tune_scores_each_sentence_once_per_distinct_parse(
        tmp_path, monkeypatch, capsys):
    """tune scores a dev sentence at the first threshold and again only at
    a threshold whose parse differs from the previous threshold's; under
    the oracle every threshold gives one parse."""
    gold = tmp_path / "gold.jsonl"
    save_passages(_gold_corpus(), gold)
    dev_passages = _gold_corpus() + random_corpus(seed=3, count=4)
    dev = tmp_path / "dev.jsonl"
    save_passages(dev_passages, dev)
    config = _write_config(
        tmp_path / "c.cfg", train_passages=gold, expanded=tmp_path / "e",
        expanded_out=tmp_path / "e", model=tmp_path / "m.ckpt",
        train_log=tmp_path / "log", epochs=20, hidden=8, cat_dim=2,
        batch_size=4, learning_rate=0.05, seed=13)
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert cli.main(["--config", config, "train"]) == cli.EXIT_OK

    loaded = cli.load_config(config)
    model, ctx = cli._tagger_and_context(loaded)
    dcfg = cli._decoder_config(loaded)
    sentences = cli._sentences(dev_passages)
    sweep = [[passage for passage, _ in cli.parse_sentences(
        sentences, model, ctx, replace(dcfg, remote_threshold=theta))]
        for theta in cli.THRESHOLD_SWEEP]
    expected = len(dev_passages) + sum(
        a != b for before, after in zip(sweep, sweep[1:])
        for a, b in zip(before, after))
    # Some parses change with the threshold, and most do not.
    assert len(dev_passages) < expected < 2 * len(dev_passages)

    scored = []  # the (predicted, gold) pair of each evaluator.score call

    def counted(pred, gold):
        scored.append((pred, gold))
        return score(pred, gold)

    monkeypatch.setattr(evaluator, "score", counted)
    out = str(tmp_path / "tuned.cfg")
    assert cli.main(["--config", config, "tune", "--dev", str(dev),
                     "--out", out]) == cli.EXIT_OK
    assert len(scored) == expected
    scored.clear()
    assert cli.main(["--config", config, "tune", "--oracle", "--dev",
                     str(dev), "--out", out]) == cli.EXIT_OK
    assert [gold for _, gold in scored] == dev_passages


def test_tune_without_config_or_out_writes_tuned_config(
        tmp_path, monkeypatch, capsys):
    dev = tmp_path / "dev.jsonl"
    save_passages(_gold_corpus(), dev)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["tune", "--oracle", "--dev", str(dev)]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith(" -> tuned.config\n")
    assert cli.load_config(str(tmp_path / "tuned.config")).values == {
        "remote_threshold": "0.05"}


def test_empty_gold_file_is_a_data_error(tmp_path, capsys):
    """A gold passage file with no passage, where one is needed, ends in
    one data error naming it: tune with a trained tagger or the oracle,
    train with it as dev_passages, parse --oracle, and eval."""
    config, _, model, _ = _expand_then_train(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("# rucca passages v1\n")
    with_dev = _write_config(tmp_path / "dev.cfg",
                             **cli.load_config(config).values,
                             dev_passages=empty)
    trained = model.read_bytes()
    capsys.readouterr()
    for argv in (["--config", config, "tune", "--dev", str(empty)],
                 ["--config", config, "tune", "--oracle", "--dev",
                  str(empty)],
                 ["--config", with_dev, "train"],
                 ["--config", config, "parse", "--oracle", "--input",
                  str(empty)],
                 ["--config", config, "eval", str(empty), str(empty)]):
        assert cli.main(argv) == cli.EXIT_DATA, argv
        captured = capsys.readouterr()
        assert captured.err == "data error: %s: no passages\n" % empty
    assert not (tmp_path / "c.cfg.tuned").exists()
    assert model.read_bytes() == trained


def test_missing_required_key_is_usage_error(tmp_path, capsys):
    config = _write_config(tmp_path / "c.cfg")
    rc = cli.main(["--config", config, "expand"])
    assert rc == cli.EXIT_USAGE
    assert "train_passages" in capsys.readouterr().err


def test_corrupt_passage_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("# rucca passages v1\n{\"nonsense\": true}\n")
    config = _write_config(tmp_path / "c.cfg", train_passages=bad)
    rc = cli.main(["--config", config, "expand"])
    assert rc == cli.EXIT_DATA


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("this line has no equals sign\n")
    rc = cli.main(["--config", str(path), "expand"])
    assert rc == cli.EXIT_USAGE


def test_env_variable_overrides_config(tmp_path, monkeypatch, capsys):
    gold = tmp_path / "gold.jsonl"
    save_passages([single_token_passage()], gold)
    configured = tmp_path / "from_config.jsonl"
    overridden = tmp_path / "from_env.jsonl"
    config = _write_config(tmp_path / "c.cfg", train_passages=gold,
                           expanded_out=configured)
    monkeypatch.setenv("RUCCA_EXPANDED_OUT", str(overridden))
    assert cli.main(["--config", config, "expand"]) == cli.EXIT_OK
    assert overridden.exists()
    assert not configured.exists()


def test_seed_flag_overrides_config(tmp_path, monkeypatch):
    """--seed beats a competing seed from the config file, and one from
    RUCCA_SEED, which itself beats the config file."""
    a = tmp_path / "a"
    a.mkdir()
    config_a, _, model_a, _ = _expand_then_train(a, seed=13)
    for competitor in ("config", "env"):
        b = tmp_path / competitor
        b.mkdir()
        with monkeypatch.context() as m:
            if competitor == "env":
                m.setenv("RUCCA_SEED", "14")
            config_b, _, model_b, _ = _expand_then_train(
                b, seed=14 if competitor == "config" else 13)
            assert model_a.read_bytes() != model_b.read_bytes()
            # retrain b with --seed 13: now identical to a
            assert cli.main(["--config", config_b, "--seed", "13",
                             "train"]) == cli.EXIT_OK
            assert model_a.read_bytes() == model_b.read_bytes()


@pytest.fixture
def no_rucca_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(key)


def test_an_empty_config_gives_the_dataclass_defaults(no_rucca_env):
    config = cli.Config()
    assert cli._train_config(config) == TrainConfig()
    assert cli._decoder_config(config) == DecoderConfig()


@pytest.mark.parametrize("config_language, env_language, expected", [
    pytest.param("fr", None, "fr", id="own-key"),
    pytest.param("en", None, "shared", id="fallback"),
    pytest.param("en", "fr", "fr", id="env-language"),
])
def test_the_language_picks_its_own_lexicon(tmp_path, no_rucca_env,
                                            monkeypatch, config_language,
                                            env_language, expected):
    """lexicon_<language> beats lexicon when the language has one, and
    RUCCA_LANGUAGE beats the config's language."""
    (tmp_path / "fr.txt").write_text("pomme de terre\n")
    (tmp_path / "shared.txt").write_text("in front of\n")
    config = _write_config(tmp_path / "c.cfg", language=config_language,
                           lexicon=tmp_path / "shared.txt",
                           lexicon_fr=tmp_path / "fr.txt")
    if env_language is not None:
        monkeypatch.setenv("RUCCA_LANGUAGE", env_language)
    expressions = {"fr": {("pomme", "de", "terre")},
                   "shared": {("in", "front", "of")}}
    assert cli._lexicon(cli.load_config(config)).expressions == \
        expressions[expected]


# Per settings dataclass: the command's builder, and the object it should
# build from one field's value.
_BUILDERS = {
    TrainConfig: (cli._train_config, TrainConfig),
    TaggerConfig: (cli._train_config,
                   lambda **kw: TrainConfig(tagger=TaggerConfig(**kw))),
    DecoderConfig: (cli._decoder_config, DecoderConfig),
}


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in _BUILDERS for f in fields(cls)
    if type(f.default) in (int, float)])
def test_each_numeric_field_reads_its_env_variable(no_rucca_env, monkeypatch,
                                                   cls, name):
    default = getattr(cls(), name)
    value = default + 1 if type(default) is int else default / 2
    assert value != default
    monkeypatch.setenv("RUCCA_" + name.upper(), str(value))
    build, expected = _BUILDERS[cls]
    built = build(cli.Config())
    assert built == expected(**{name: value})
    settings = built.tagger if cls is TaggerConfig else built
    assert type(getattr(settings, name)) is type(default)


@pytest.mark.parametrize("env, message", [
    # Every key is read before any value is checked: epochs is read first.
    pytest.param({"RUCCA_EPOCHS": "abc", "RUCCA_HIDDEN": "0"},
                 "config key epochs: bad int value 'abc'", id="not-an-int"),
    # TrainConfig's own keys are read before the tagger's.
    pytest.param({"RUCCA_EPOCHS": "abc", "RUCCA_HIDDEN": "x"},
                 "config key epochs: bad int value 'abc'",
                 id="both-not-ints"),
    # The tagger's values are checked before TrainConfig's.
    pytest.param({"RUCCA_EPOCHS": "0", "RUCCA_HIDDEN": "0"},
                 "hidden must be >= 1", id="out-of-range"),
])
def test_two_bad_keys_name_the_first_in_reading_order(no_rucca_env,
                                                      monkeypatch, env,
                                                      message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(cli.ConfigError) as exc:
        cli._train_config(cli.Config())
    assert str(exc.value) == message


@pytest.mark.parametrize("command, key, setting", [
    pytest.param(["train"], "expanded", {"max_depth": 0}, id="train"),
    pytest.param(["train"], "expanded", {"epochs": 0}, id="train-epochs"),
    pytest.param(["tune", "--oracle"], "dev_passages", {"max_depth": 0},
                 id="tune"),
    pytest.param(["parse", "--oracle"], "test_passages", {"max_depth": 0},
                 id="parse"),
    pytest.param(["parse", "--oracle"], "action_nouns", {"max_depth": 0},
                 id="parse-action-nouns"),
])
def test_settings_are_checked_before_any_input_file(tmp_path, capsys,
                                                    command, key, setting):
    """A bad setting and a malformed input file: the setting is named,
    with exit 1, whichever command reads the file."""
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff{not json\n")  # neither UTF-8 nor JSON
    config = _write_config(tmp_path / "c.cfg", **{key: bad}, **setting)
    assert cli.main(["--config", config] + command) == cli.EXIT_USAGE
    (name,) = setting
    assert capsys.readouterr().err \
        == "config error: %s must be >= 1\n" % name


def test_config_file_save_load_roundtrip(tmp_path):
    cfg = cli.Config(values={"b": "2", "a": "x y"})
    path = tmp_path / "c.cfg"
    cli.save_config(cfg, path)
    loaded = cli.load_config(str(path))
    assert loaded.values == cfg.values
    # blank lines and # comments are skipped
    path.write_text("# a comment\n\n   \n" + path.read_text() + "\n# end\n")
    assert cli.load_config(str(path)).values == cfg.values


def _edit_header(blob, change):
    """The checkpoint with change applied to its header's dict, tensors
    kept."""
    start = len(MAGIC) + 8
    (size,) = struct.unpack("<Q", blob[len(MAGIC):start])
    header = json.loads(blob[start:start + size])
    change(header)
    text = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(text)) + text + blob[start + size:]


def _reheader(blob, version=None, vocab=None, **config):
    """The checkpoint with its header's version, config or vocabulary
    tables (name -> {symbol: index} to set) changed, tensors kept."""
    def change(header):
        if version is not None:
            header["version"] = version
        header["config"].update(config)
        for name, entries in (vocab or {}).items():
            header["vocab"][name].update(entries)
    return _edit_header(blob, change)


def _rename_table(blob, old, new):
    """The checkpoint with its vocabulary table old, and that table's
    embedding tensor, renamed to new, tensors kept."""
    def change(header):
        header["vocab"][new] = header["vocab"].pop(old)
        header["tensors"] = sorted(
            ["emb/" + new if name == "emb/" + old else name, shape]
            for name, shape in header["tensors"])
    return _edit_header(blob, change)


def _edit_last_record(change):
    """A rewrite that applies change to the last record of a JSON-lines
    file."""
    def rewrite(blob):
        lines = blob.decode("utf-8").splitlines()
        record = json.loads(lines[-1])
        change(record)
        lines[-1] = json.dumps(record)
        return ("\n".join(lines) + "\n").encode("utf-8")
    return rewrite


def _drop_mask(record):
    del record["mask"]


def _unknown_mask_symbol(record):
    record["mask"] = ["XYZ"] * len(record["tokens"])


def _unknown_label(record):
    record["target_bio"] = ["B-XYZ"] * len(record["tokens"])


def _drop_aux_target(record):
    record["target_aux"] = None


def _mask_not_a_list(record):
    record["mask"] = 5


def _morph_not_an_object(record):
    record["tokens"][0]["morph"] = []


def _node_position_string(record):
    node = next(n for n in record["nodes"] if n["position"] is not None)
    node["position"] = str(node["position"])


def _edge_category_list(record):
    record["edges"][0]["category"] = [record["edges"][0]["category"]]


def _edge_remote_string(record):
    record["edges"][0]["remote"] = "no"


def _representable_string(record):
    record["representable"] = "no"


def _no_tokens_passage(record):
    record.update(tokens=[], edges=[], nodes=[
        {"id": record["root"], "kind": "nonterminal", "position": None}])


def _no_tokens_example(record):
    record.update(tokens=[], mask=[], target_bio=[], target_aux=[],
                  representable=True)


def _none_representable(blob):
    header, *lines = blob.decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        record["representable"] = False
    return ("\n".join([header] + [json.dumps(r) for r in records])
            + "\n").encode("utf-8")


def _not_utf8(blob):
    return b"\xff\xfe" + blob


def _flip_last_byte(blob):
    """The last byte lies in the checkpoint body, the tensor data."""
    return blob[:-1] + bytes([blob[-1] ^ 1])


def _sing_to_song(blob):
    """The checkpoint with its one "Sing", a morph:Number symbol, spelled
    "Song": the header alone is damaged, and every check but the digest
    still holds."""
    assert blob.count(b'"morph:Number"') == blob.count(b'"Sing"') == 1
    return blob.replace(b'"Sing"', b'"Song"')


# Every malformed input exits with its documented code and one line that
# names what is wrong. `rewrite` maps a config key (or "config", the
# config file itself) to a function that turns the valid file at that key
# into the malformed one.
@pytest.mark.parametrize("command, values, env, rewrite, code, named", [
    pytest.param(["train"], {}, {"RUCCA_EPOCHS": "abc"}, {},
                 cli.EXIT_USAGE, "epochs", id="epochs-not-an-int"),
    pytest.param(["train"], {"epochs": 0}, {}, {},
                 cli.EXIT_USAGE, "epochs", id="epochs-zero"),
    pytest.param(["parse", "--oracle"], {"remote_threshold": 1.5}, {}, {},
                 cli.EXIT_USAGE, "remote_threshold",
                 id="remote-threshold-above-one"),
    pytest.param(["parse", "--oracle"], {"max_depth": 0}, {}, {},
                 cli.EXIT_USAGE, "max_depth", id="max-depth-zero"),
    pytest.param(["parse", "--oracle", "--bogus", "8"], {}, {}, {},
                 cli.EXIT_USAGE, "--bogus", id="unknown-flag"),
    pytest.param(["parse"], {}, {}, {"model": lambda b: b"hello\n"},
                 cli.EXIT_DATA, "not a rucca checkpoint",
                 id="not-a-checkpoint"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: b[:len(MAGIC) + 20]},
                 cli.EXIT_DATA, "header", id="checkpoint-header-truncated"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: MAGIC + struct.pack("<Q", 1 << 62)
                  + b[len(MAGIC) + 8:]},
                 cli.EXIT_DATA, "header size", id="checkpoint-header-size"),
    pytest.param(["parse"], {}, {}, {"model": lambda b: b[:-8]},
                 cli.EXIT_DATA, "truncated tensor",
                 id="checkpoint-tensors-truncated"),
    pytest.param(["parse"], {}, {}, {"model": lambda b: b + b"\0"},
                 cli.EXIT_DATA, "trailing bytes",
                 id="checkpoint-trailing-bytes"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(b, hidden=3)},
                 cli.EXIT_DATA, "do not match the config",
                 id="checkpoint-shape-disagrees"),
    pytest.param(["train"], {}, {},
                 {"expanded": lambda b: b + b"{not json\n"},
                 cli.EXIT_DATA, "expanded.jsonl:", id="example-bad-json"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_drop_mask)},
                 cli.EXIT_DATA, "expanded.jsonl:", id="example-missing-key"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_unknown_mask_symbol)},
                 cli.EXIT_DATA, "expanded.jsonl:", id="example-unknown-mask"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_unknown_label)},
                 cli.EXIT_DATA, "expanded.jsonl:", id="example-unknown-label"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_drop_aux_target)},
                 cli.EXIT_DATA, "expanded.jsonl:",
                 id="example-bio-target-without-aux"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_mask_not_a_list)},
                 cli.EXIT_DATA, "expanded.jsonl:",
                 id="example-mask-not-a-list"),
    pytest.param(["train"], {}, {}, {"expanded": _none_representable},
                 cli.EXIT_DATA, "data error: no trainable examples\n",
                 id="examples-none-trainable"),
    pytest.param(["expand"], {}, {},
                 {"train_passages": _edit_last_record(_morph_not_an_object)},
                 cli.EXIT_DATA, "gold.jsonl:",
                 id="passage-morph-not-an-object"),
    pytest.param(["expand"], {}, {}, {"train_passages": _not_utf8},
                 cli.EXIT_DATA, "gold.jsonl", id="passages-not-utf8"),
    pytest.param(["expand"], {}, {}, {"config": _not_utf8},
                 cli.EXIT_USAGE, "c.cfg", id="config-not-utf8"),
    pytest.param(["parse"], {}, {},
                 {"test_tokens": lambda b: b.replace(b"\t2\t", b"\tx\t")},
                 cli.EXIT_DATA, "tokens.conll:1", id="conll-head-not-int"),
    pytest.param(["train"], {}, {},
                 {"embeddings": lambda b: b"word 1.0 2.0\n"},
                 cli.EXIT_DATA, "embeddings.txt", id="embeddings-no-valid-row"),
    pytest.param(["train"], {}, {},
                 {"embeddings": lambda b: b.replace(b" 0.5", b" x", 1)},
                 cli.EXIT_DATA, "embeddings.txt:1",
                 id="embeddings-not-a-number"),
    pytest.param(["parse"], {}, {},
                 {"embeddings": lambda b: b.replace(b" 0.5", b" nan", 1)},
                 cli.EXIT_DATA, "embeddings.txt:1", id="embeddings-nan"),
    pytest.param(["train"], {"hidden": 0}, {}, {},
                 cli.EXIT_USAGE, "hidden", id="hidden-zero"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(b, version=1)},
                 cli.EXIT_DATA, "version 1", id="checkpoint-version-1"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(b, version=2)},
                 cli.EXIT_DATA, "version 2", id="checkpoint-version-2"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(b, version=3)},
                 cli.EXIT_DATA, "version 3", id="checkpoint-version-3"),
    pytest.param(["parse"], {}, {}, {"model": _flip_last_byte},
                 cli.EXIT_DATA,
                 "model.ckpt: tensor data does not match its sha256",
                 id="checkpoint-body-flipped"),
    pytest.param(["parse"], {}, {}, {"model": _sing_to_song},
                 cli.EXIT_DATA, "model.ckpt: tensor data does not match "
                 "its sha256, or a header field it covers changed",
                 id="checkpoint-header-symbol-flipped"),
    pytest.param(["train"], {}, {"RUCCA_LEARNING_RATE": "nan"}, {},
                 cli.EXIT_USAGE, "learning_rate", id="learning-rate-nan"),
    pytest.param(["train"], {}, {"RUCCA_GRAD_CLIP": "nan"}, {},
                 cli.EXIT_USAGE, "grad_clip", id="grad-clip-nan"),
    pytest.param(["train"], {"lambda_aux": -1}, {}, {},
                 cli.EXIT_USAGE, "lambda_aux", id="lambda-aux-negative"),
    pytest.param(["expand"], {}, {},
                 {"train_passages": _edit_last_record(_node_position_string)},
                 cli.EXIT_DATA, "node position is a string",
                 id="node-position-string"),
    pytest.param(["expand"], {}, {},
                 {"train_passages": _edit_last_record(_edge_category_list)},
                 cli.EXIT_DATA, "edge category is a list",
                 id="edge-category-list"),
    pytest.param(["expand"], {}, {},
                 {"train_passages": _edit_last_record(_edge_remote_string)},
                 cli.EXIT_DATA, "edge remote is a string",
                 id="edge-remote-string"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_representable_string)},
                 cli.EXIT_DATA, "representable is a string",
                 id="example-representable-string"),
    pytest.param(["--seed", "-1", "train"], {}, {}, {},
                 cli.EXIT_USAGE, "seed", id="seed-flag-negative"),
    pytest.param(["train"], {"seed": -1}, {}, {},
                 cli.EXIT_USAGE, "seed", id="seed-negative"),
    pytest.param(["train"], {}, {"RUCCA_SEED": "-1"}, {},
                 cli.EXIT_USAGE, "seed", id="seed-env-negative"),
    pytest.param(["expand"], {}, {},
                 {"train_passages": _edit_last_record(_no_tokens_passage)},
                 cli.EXIT_DATA, "gold.jsonl:", id="passage-no-tokens"),
    pytest.param(["train"], {}, {},
                 {"expanded": _edit_last_record(_no_tokens_example)},
                 cli.EXIT_DATA, "expanded.jsonl:", id="example-no-tokens"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(
                     b, vocab={"upos": {"VERB": 14}})},
                 cli.EXIT_DATA, "model.ckpt",
                 id="checkpoint-index-past-table"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _reheader(
                     b, vocab={"upos": {"VERB": "x"}})},
                 cli.EXIT_DATA, "model.ckpt", id="checkpoint-index-string"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _rename_table(b, "upos", "zzz")},
                 cli.EXIT_DATA, "vocabulary tables",
                 id="checkpoint-vocab-unknown-table"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _rename_table(b, "mask", "morph:Zz")},
                 cli.EXIT_DATA, "vocabulary tables",
                 id="checkpoint-vocab-without-mask"),
    pytest.param(["parse"], {}, {},
                 {"model": lambda b: _rename_table(b, "upos", "morph:Aaa")},
                 cli.EXIT_DATA, "vocabulary tables",
                 id="checkpoint-vocab-without-upos"),
])
def test_malformed_input_exits_with_one_line(tmp_path, monkeypatch, capsys,
                                             command, values, env, rewrite,
                                             code, named):
    passages = _gold_corpus()
    gold = tmp_path / "gold.jsonl"
    save_passages(passages, gold)
    expanded = tmp_path / "expanded.jsonl"
    save_examples([ex for p in passages for ex in expand(p)], expanded)
    model = tmp_path / "model.ckpt"
    save_checkpoint(GruTagger(TaggerConfig(hidden=2, cat_dim=2),
                              fit_vocabularies(passages), ["O"]), model)
    tokens = tmp_path / "tokens.conll"
    tokens.write_text("1\tShe\tPRON\t_\t_\t2\tnsubj\n"
                      "2\tsings\tVERB\t_\t_\t0\troot\n")
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("sings" + " 0.5" * 300 + "\n")
    files = {"train_passages": gold, "expanded": expanded, "model": model,
             "test_tokens": tokens, "embeddings": embeddings}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    config = _write_config(tmp_path / "c.cfg", **{
        "test_passages": gold, "expanded_out": tmp_path / "out.jsonl",
        "epochs": 1, "hidden": 2, "cat_dim": 2,
        "predictions_out": tmp_path / "pred.jsonl",
        "train_log": tmp_path / "log", **files, **values})
    files["config"] = tmp_path / "c.cfg"
    for key, change in rewrite.items():
        files[key].write_bytes(change(files[key].read_bytes()))
    assert cli.main(["--config", config] + command) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    prefix = "config error: " if code == cli.EXIT_USAGE else "data error: "
    assert err.startswith(prefix) and named in err, err


@pytest.mark.parametrize("head, equal", [(2, 2.0), (1, True)])
def test_train_checks_the_heads_of_a_repeated_token_list(tmp_path, capsys,
                                                         head, equal):
    # The second record's token list equals the first's under ==, which
    # load_examples reuses, but its head is a float or a boolean.
    expanded = tmp_path / "expanded.jsonl"
    save_examples(expand(fig1_passage())[:2], expanded)
    header, *lines = expanded.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    records[0]["tokens"][0]["head"] = head
    records[1]["tokens"][0]["head"] = equal
    assert records[0]["tokens"] == records[1]["tokens"]
    expanded.write_text("\n".join([header] + [json.dumps(r)
                                              for r in records]) + "\n")
    config = _write_config(tmp_path / "c.cfg", expanded=expanded,
                           model=tmp_path / "model.ckpt",
                           train_log=tmp_path / "train.log",
                           epochs=1, hidden=2, cat_dim=2)
    assert cli.main(["--config", config, "train"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == "data error: %s:3: bad head %r\n" % (expanded, equal)
