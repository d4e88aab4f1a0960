"""Every reader holds against flipped and cut bytes, and against
well-formed values out of the program's range: the checks of the program
run where data enters, so a damaged input file ends `rucca` with exit 0
or with its documented code (1 usage/config, 2 data, 3 numeric) and one
line on stderr, never with a traceback."""

import contextlib
import io
import json
import os
import struct
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from rucca import cli
from rucca.corpus import expand, save_examples, save_passages
from rucca.features import fit_vocabularies
from rucca.tagger import MAGIC, GruTagger, TaggerConfig, save_checkpoint

from helpers import (fig1_passage, single_token_passage,
                     two_scene_5tok_passage, unary_chain_passage)

PREFIXES = {cli.EXIT_USAGE: "config error: ", cli.EXIT_DATA: "data error: ",
            cli.EXIT_NUMERIC: "numeric error: "}

# Each command reads only relative paths, so that a damaged config cannot
# name a file outside the working directory the test makes.
CONFIGS = {
    "expand.cfg": "train_passages=gold.jsonl\n"
                  "expanded_out=expanded.jsonl\n",
    "train.cfg": "expanded=expanded.jsonl\nepochs=1\nhidden=2\ncat_dim=2\n"
                 "model=trained.ckpt\ntrain_log=train.log\n",
    "parse.cfg": "model=model.ckpt\ntest_tokens=tokens.conll\n"
                 "embeddings=embeddings.txt\nlexicon=lexicon.txt\n"
                 "predictions_out=pred.jsonl\n",
    "tune.cfg": "remote_threshold=0.3\nmax_depth=20\nlexicon=lexicon.txt\n"
                "action_nouns=lexicon.txt\n",
}
EXPAND = ["--config", "expand.cfg", "expand"]
TRAIN = ["--config", "train.cfg", "train"]
TUNE = ["--config", "tune.cfg", "tune", "--oracle", "--dev", "gold.jsonl",
        "--out", "tuned.cfg"]
PARSE = ["--config", "parse.cfg", "parse"]
# (file to damage, the command lines downstream of it, run in turn: expand
# writes the expanded.jsonl that train reads)
READERS = (
    ("gold.jsonl", (EXPAND, TRAIN, TUNE)),
    ("expanded.jsonl", (TRAIN,)),
    ("tokens.conll", (PARSE,)),
    ("tune.cfg", (TUNE,)),
    ("lexicon.txt", (TUNE,)),
    ("embeddings.txt", (PARSE,)),
    ("model.ckpt", (PARSE,)),
)


def _write_inputs():
    """The valid inputs in the working directory -> {name: bytes}."""
    passages = [single_token_passage(), fig1_passage(),
                two_scene_5tok_passage()]
    save_passages(passages, "gold.jsonl")
    save_examples([ex for p in passages for ex in expand(p)],
                  "expanded.jsonl")
    save_checkpoint(GruTagger(TaggerConfig(hidden=2, cat_dim=2),
                              fit_vocabularies(passages), ["O"]),
                    "model.ckpt")
    files = {
        "tokens.conll": "1\tShe\tPRON\t_\tNumber=Sing\t2\tnsubj\n"
                        "2\tsings\tVERB\t_\t_\t0\troot\n\n"
                        "1\tDogs\tNOUN\t_\t_\t2\tnsubj\n"
                        "2\tbark\tVERB\t_\t_\t0\troot\n",
        "lexicon.txt": "# expressions\nplays guitar\nsings loudly\n",
        "embeddings.txt": "sings" + " 0.5" * 300 + "\nDogs" + " -1" * 300
                          + "\n",
        **CONFIGS}
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as f:
            f.write(text)
    names = [name for name, _ in READERS] + ["train.cfg"]
    return {name: open(name, "rb").read() for name in names}


def _run(originals, name, blob, argvs):
    """Writes the inputs with name's content replaced by blob and runs the
    command lines in turn up to the first that fails -> (code, stderr)."""
    for other, content in originals.items():
        with open(other, "wb") as f:
            f.write(blob if other == name else content)
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            break
    return code, err.getvalue()


def _assert_documented(code, err):
    if code != cli.EXIT_OK:
        assert code in PREFIXES, (code, err)
        assert len(err.splitlines()) == 1, err
        assert err.startswith(PREFIXES[code]), err


def test_damaged_inputs_end_in_a_documented_exit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = _write_inputs()

    model = originals["model.ckpt"]
    (size,) = struct.unpack("<Q", model[len(MAGIC):len(MAGIC) + 8])
    body = len(MAGIC) + 8 + size  # where the tensor data starts

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reader=st.sampled_from(READERS), data=st.data())
    def damaged_input_exits_cleanly(reader, data):
        name, argvs = reader
        blob = bytearray(originals[name])
        if data.draw(st.booleans(), label="cut"):
            del blob[data.draw(st.integers(0, len(blob) - 1),
                               label="cut at"):]
        if blob:
            for pos, mask in data.draw(st.lists(st.tuples(
                    st.integers(0, len(blob) - 1), st.integers(1, 255)),
                    max_size=3), label="flips"):
                blob[pos] ^= mask
        code, err = _run(originals, name, blob, argvs)
        _assert_documented(code, err)
        # A checkpoint whose tensor data alone changed fails its digest.
        if name == "model.ckpt" and len(blob) == len(model) \
                and blob[:body] == model[:body] and blob != model:
            assert code == cli.EXIT_DATA, err

    damaged_input_exits_cleanly()


def _edit_record(blob, index, change):
    """blob, a JSON-lines file, with change applied to its record at index
    (modulo the number of records)."""
    lines = blob.decode("utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    row = rows[index % len(rows)]
    record = json.loads(lines[row])
    change(record)
    lines[row] = json.dumps(record)
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def _no_tokens(draw, originals):
    """A passage or an expanded example whose token list is empty."""
    index = draw(st.integers(0, 10), label="record")
    if draw(st.booleans(), label="passage"):
        def change(rec):
            rec.update(tokens=[], edges=[], nodes=[
                {"id": rec["root"], "kind": "nonterminal", "position": None}])
        name = "gold.jsonl"
    else:
        def change(rec):
            rec.update(tokens=[], mask=[], target_bio=[], target_aux=[],
                       representable=True)
        name = "expanded.jsonl"
    return (name, _edit_record(originals[name], index, change),
            dict(READERS)[name], {}, cli.EXIT_DATA)


@st.composite
def _negative_seed(draw, originals):
    """A seed below 0 from the config file, the environment or the flag."""
    seed = str(draw(st.integers(max_value=-1), label="seed"))
    where = draw(st.sampled_from(("config", "env", "flag")), label="where")
    blob, argv, env = originals["train.cfg"], TRAIN, {}
    if where == "config":
        blob += b"seed=" + seed.encode() + b"\n"
    elif where == "env":
        env = {"RUCCA_SEED": seed}
    else:
        argv = ["--config", "train.cfg", "--seed", seed, "train"]
    return "train.cfg", blob, (argv,), env, cli.EXIT_USAGE


@st.composite
def _bad_vocabulary_index(draw, originals):
    """A checkpoint whose vocabulary maps a symbol past its table, to a
    negative index, to another symbol's index or to a non-integer."""
    blob = originals["model.ckpt"]
    start = len(MAGIC) + 8
    (size,) = struct.unpack("<Q", blob[len(MAGIC):start])
    header = json.loads(blob[start:start + size])
    tables = header["vocab"]
    table = tables[draw(st.sampled_from(sorted(tables)), label="table")]
    symbol = draw(st.sampled_from(sorted(table)), label="symbol")
    n = len(table)
    table[symbol] = draw(st.one_of(
        st.integers(min_value=n), st.integers(max_value=-1),
        st.integers(0, n - 1).filter(lambda i: i != table[symbol]),
        st.integers(0, n - 1).map(float), st.booleans(), st.none(),
        st.text(max_size=3)), label="index")
    text = json.dumps(header).encode("utf-8")
    return ("model.ckpt", MAGIC + struct.pack("<Q", len(text)) + text
            + blob[start + size:], (PARSE,), {}, cli.EXIT_DATA)


def test_out_of_range_values_end_in_their_documented_exit(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = _write_inputs()

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def out_of_range_value_is_refused(data):
        kind = data.draw(st.sampled_from(
            (_no_tokens, _negative_seed, _bad_vocabulary_index)))
        name, blob, argvs, env, expected = data.draw(kind(originals))
        with mock.patch.dict(os.environ, env):
            code, err = _run(originals, name, blob, argvs)
        _assert_documented(code, err)
        assert code == expected, err

    out_of_range_value_is_refused()


def test_deep_chain_runs_through_every_command(tmp_path, monkeypatch):
    # Deeper than Python's recursion limit.
    monkeypatch.chdir(tmp_path)
    originals = _write_inputs()
    gold = originals["gold.jsonl"]
    save_passages([unary_chain_passage(2000)], "chain.jsonl")
    with open("chain.jsonl", "rb") as f:
        gold += f.read().split(b"\n", 1)[1]  # without its comment line
    assert _run(originals, "gold.jsonl", gold, dict(READERS)["gold.jsonl"]) \
        == (cli.EXIT_OK, "")
