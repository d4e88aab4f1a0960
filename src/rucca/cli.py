"""Command-line entry point: expand, train, parse, eval, tune.

Configuration is one flat key=value file; every key can be overridden by
an environment variable with the RUCCA_ prefix (key uppercased), and by
command-line flags, in that precedence order (flags win).
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import corpus, evaluator, features, tagger as tagger_mod
from .graph import DEFAULT_LANGUAGE
from .lexicon import EMPTY_LEXICON, load_lexicon
# parse stays bound, unused: the benchmark checks its tracer wraps it here
from .parser import (DecoderConfig, ParseError, parse,  # noqa: F401
                     parse_sentences, score_parses)
from .tagger import CheckpointError, NumericError, TaggerConfig, TrainConfig

ENV_PREFIX = "RUCCA_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

THRESHOLD_SWEEP = [round(0.05 * i, 2) for i in range(1, 20)]


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        env = os.environ.get(ENV_PREFIX + key.upper().replace(".", "_"))
        if env is not None:
            return env
        return self.values.get(key, default)

    def path(self, key, required=False):
        value = self.get(key)
        if value is None:
            if required:
                raise ConfigError("missing required config key: %s" % key)
            return None
        if not os.path.exists(value):
            raise ConfigError("config key %s points to missing path: %s"
                              % (key, value))
        return value


def load_config(path=None) -> Config:
    values = {}
    if path:
        try:
            lines = list(corpus.text_lines(path))
        except corpus.CorpusError as exc:
            raise ConfigError(exc) from None
        for lineno, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value"
                                  % (path, lineno))
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return Config(values=values)


def save_config(config: Config, path):
    with open(path, "w", encoding="utf-8") as f:
        for key in sorted(config.values):
            f.write("%s=%s\n" % (key, config.values[key]))


def _settings(config, cls, **given):
    """Keyword arguments for the dataclass cls: those given, and each other
    field whose config key (its name) is set, as its default's type."""
    for f in fields(cls):
        value = None if f.name in given else config.get(f.name)
        if value is not None:
            kind = type(f.default)
            try:
                given[f.name] = kind(value)
            except ValueError:
                raise ConfigError("config key %s: bad %s value %r"
                                  % (f.name, kind.__name__, value)) from None
    return given


def _checked(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(exc) from None


def _train_config(config, seed=None) -> TrainConfig:
    """Own keys read before the tagger's; a seed given beats the config."""
    own = _settings(config, TrainConfig, tagger=None)
    model = _settings(config, TaggerConfig,
                      **({} if seed is None else {"seed": seed}))
    own["tagger"] = _checked(TaggerConfig, **model)
    return _checked(TrainConfig, **own)


def _decoder_config(config) -> DecoderConfig:
    """The numbers are checked before the action-noun lexicon is read."""
    dcfg = _checked(DecoderConfig, **_settings(
        config, DecoderConfig, action_noun_lexicon=EMPTY_LEXICON))
    path = config.path("action_nouns")
    return replace(dcfg, action_noun_lexicon=load_lexicon(path)) if path \
        else dcfg


def _language(config):
    return config.get("language", DEFAULT_LANGUAGE)


def _lexicon(config):
    path = config.path("lexicon_%s" % _language(config)) or \
        config.path("lexicon")
    return load_lexicon(path) if path else EMPTY_LEXICON


def _embeddings(config):
    path = config.path("embeddings")
    return features.load_embeddings(path) if path \
        else features.EMPTY_EMBEDDINGS


def _tagger_and_context(config, oracle_gold=None):
    """The tagger and its featurizer context: an oracle over oracle_gold
    when given, else the configured checkpoint."""
    lexicon = _lexicon(config)
    if oracle_gold is not None:
        return tagger_mod.OracleTagger(oracle_gold), \
            features.FeaturizerContext(
                vocab={}, embeddings=features.EMPTY_EMBEDDINGS,
                lexicon=lexicon)
    model = tagger_mod.load_checkpoint(config.path("model", required=True))
    return model, features.FeaturizerContext(
        vocab=model.vocab, embeddings=_embeddings(config), lexicon=lexicon)


def _gold_passages(path):
    """The passages of a gold file, which must hold at least one."""
    passages = corpus.load_passages(path)
    if not passages:
        raise corpus.CorpusError("%s: no passages" % path)
    return passages


def cmd_expand(config, args):
    passages = corpus.load_passages(config.path("train_passages",
                                                required=True))
    out = config.get("expanded_out", "expanded.jsonl")
    examples = [ex for p in passages for ex in corpus.expand(p)]
    skipped = sum(not ex.representable for ex in examples)
    corpus.save_examples(examples, out)
    print("expanded %d passages into %d examples (%d skipped as "
          "non-representable) -> %s"
          % (len(passages), len(examples), skipped, out))
    return EXIT_OK


def cmd_train(config, args):
    tcfg = _train_config(config, args.seed)
    dcfg = _decoder_config(config)
    examples = corpus.load_examples(config.path("expanded", required=True))
    dev_path = config.path("dev_passages")
    dev = _gold_passages(dev_path) if dev_path else []
    ctx = features.FeaturizerContext(
        vocab=features.fit_vocabularies(examples),
        embeddings=_embeddings(config),
        lexicon=_lexicon(config))
    log_path = config.get("train_log", "train.log")
    log_lines = []

    def hook(record):
        line = "epoch %d loss %.6f" % (record["epoch"], record["loss"])
        if "dev_f1" in record:
            line += " dev_avg_labeled_f1 %.4f" % record["dev_f1"]
        log_lines.append(line)
        print(line)

    def dev_score(model):
        return next(score_parses(dev, model, ctx, [dcfg])).labeled["avg"].f1

    model, _ = tagger_mod.train(examples, ctx, tcfg,
                                dev_score=dev_score if dev else None,
                                log_hook=hook)
    with open(log_path, "w", encoding="utf-8") as f:
        f.write("\n".join(log_lines) + "\n")
    out = config.get("model", "model.ckpt")
    tagger_mod.save_checkpoint(model, out)
    print("saved checkpoint -> %s" % out)
    return EXIT_OK


def cmd_parse(config, args):
    dcfg = _decoder_config(config)
    out = config.get("predictions_out", "predictions.jsonl")
    if args.oracle:
        gold = _gold_passages(
            args.input or config.path("test_passages", required=True))
        model, ctx = _tagger_and_context(config, oracle_gold=gold)
        sentences = [(p.passage_id, p.tokens, p.language) for p in gold]
    else:
        model, ctx = _tagger_and_context(config)
        language = _language(config)
        input_path = args.input or config.path("test_tokens", required=True)
        conll = corpus.load_conll_tokens(input_path, language)
        sentences = [("s%d" % i, toks, language)
                     for i, toks in enumerate(conll)]
    parsed = parse_sentences(sentences, model, ctx, dcfg)
    corpus.save_passages([passage for passage, _ in parsed], out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for passage, trace in parsed:
                f.write("## %s\n%s\n" % (passage.passage_id, trace.render()))
    print("parsed %d sentences -> %s" % (len(parsed), out))
    return EXIT_OK


def cmd_eval(config, args):
    pred = corpus.load_passages(args.pred)
    gold = _gold_passages(args.gold)
    if len(pred) != len(gold):
        raise evaluator.EvalError("%d predicted vs %d gold passages"
                                  % (len(pred), len(gold)))
    corpus_report = evaluator.score_corpus(list(zip(pred, gold)))
    text = evaluator.render_corpus_text(corpus_report)
    print(text)
    report_out = config.get("report_out")
    if report_out:
        with open(report_out, "w", encoding="utf-8") as f:
            json.dump(evaluator.corpus_record(corpus_report), f,
                      sort_keys=True, indent=2)
            f.write("\n")
    return EXIT_OK


def cmd_tune(config, args):
    dcfg = _decoder_config(config)
    gold = _gold_passages(
        args.dev or config.path("dev_passages", required=True))
    model, ctx = _tagger_and_context(
        config, oracle_gold=gold if args.oracle else None)
    best = None
    print("%8s %12s %12s" % ("theta", "remote F1", "avg labeled F1"))
    # The threshold reaches only the remotes, so every threshold tags the
    # same focus nodes: the first parse of the dev set tags them, and the
    # others replay its predictions.
    reports = score_parses(gold, tagger_mod.ReplayTagger(model), ctx, [
        replace(dcfg, remote_threshold=theta) for theta in THRESHOLD_SWEEP])
    for theta, report in zip(THRESHOLD_SWEEP, reports):
        avg = report.labeled["avg"].f1
        rem = report.labeled["remote"].f1
        print("%8.2f %12.4f %12.4f" % (theta, rem, avg))
        if best is None or avg > best[1]:  # ties keep the smaller theta
            best = (theta, avg)
    config.values["remote_threshold"] = "%g" % best[0]
    out = args.out or ((args.config + ".tuned") if args.config
                       else "tuned.config")
    save_config(config, out)
    print("best remote_threshold=%g (avg labeled F1 %.4f) -> %s"
          % (best[0], best[1], out))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a config error (exit 1); argparse's
    own exit code, 2, is the data-error code here."""

    def error(self, message):
        raise ConfigError("command line: %s" % message)


def build_argparser():
    ap = _ArgumentParser(
        prog="rucca",
        description="Recursive masked sequence-tagging semantic parser.")
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--seed", type=int, help="override the config seed")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("expand", help="build the masked training corpus")
    sub.add_parser("train", help="train the tagger")

    p = sub.add_parser("parse", help="parse sentences into passages")
    p.add_argument("--input", help="token file (CoNLL) or gold passages "
                                   "with --oracle")
    p.add_argument("--oracle", action="store_true",
                   help="use the gold-derived oracle tagger")
    p.add_argument("--trace", help="write a parse trace log here")

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("pred")
    p.add_argument("gold")

    p = sub.add_parser("tune", help="sweep the remote detection threshold")
    p.add_argument("--dev", help="gold dev passages")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--out", help="where to write the updated config")
    return ap


COMMANDS = {"expand": cmd_expand, "train": cmd_train, "parse": cmd_parse,
            "eval": cmd_eval, "tune": cmd_tune}


def main(argv=None):
    try:
        args = build_argparser().parse_args(argv)
        config = load_config(args.config)
        if args.seed is not None:
            config.values["seed"] = str(args.seed)
        return COMMANDS[args.command](config, args)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (corpus.CorpusError, evaluator.EvalError, ParseError,
            CheckpointError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
