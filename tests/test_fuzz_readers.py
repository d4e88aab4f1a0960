"""Every reader holds against flipped and cut bytes: the checks of the
program run where data enters, so a damaged input file ends `rucca` with
exit 0 or with its documented code (1 usage/config, 2 data, 3 numeric)
and one line on stderr, never with a traceback."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from rucca import cli
from rucca.corpus import expand, save_examples, save_passages
from rucca.features import fit_vocabularies
from rucca.tagger import GruTagger, TaggerConfig, save_checkpoint

from helpers import fig1_passage, single_token_passage, two_scene_5tok_passage

PREFIXES = {cli.EXIT_USAGE: "config error: ", cli.EXIT_DATA: "data error: ",
            cli.EXIT_NUMERIC: "numeric error: "}

# Each command reads only relative paths, so that a damaged config cannot
# name a file outside the working directory the test makes.
CONFIGS = {
    "expand.cfg": "train_passages=gold.jsonl\nexpanded_out=out.jsonl\n",
    "train.cfg": "expanded=expanded.jsonl\nepochs=1\nhidden=2\ncat_dim=2\n"
                 "model=trained.ckpt\ntrain_log=train.log\n",
    "parse.cfg": "model=model.ckpt\ntest_tokens=tokens.conll\n"
                 "embeddings=embeddings.txt\nlexicon=lexicon.txt\n"
                 "predictions_out=pred.jsonl\n",
    "tune.cfg": "remote_threshold=0.3\nmax_depth=20\nlexicon=lexicon.txt\n"
                "action_nouns=lexicon.txt\n",
}
TUNE = ["--config", "tune.cfg", "tune", "--oracle", "--dev", "gold.jsonl",
        "--out", "tuned.cfg"]
PARSE = ["--config", "parse.cfg", "parse"]
# (file to damage, the command line that reads it)
READERS = (
    ("gold.jsonl", ["--config", "expand.cfg", "expand"]),
    ("expanded.jsonl", ["--config", "train.cfg", "train"]),
    ("tokens.conll", PARSE),
    ("tune.cfg", TUNE),
    ("lexicon.txt", TUNE),
    ("embeddings.txt", PARSE),
    ("model.ckpt", PARSE),
)


def _write_inputs():
    """The valid inputs in the working directory -> {name: bytes}."""
    passages = [single_token_passage(), fig1_passage(),
                two_scene_5tok_passage()]
    save_passages(passages, "gold.jsonl")
    save_examples([ex for p in passages for ex in expand(p)],
                  "expanded.jsonl")
    save_checkpoint(GruTagger(TaggerConfig(hidden=2, cat_dim=2, n_layers=1),
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
    names = [name for name, _ in READERS]
    return {name: open(name, "rb").read() for name in names}


def test_damaged_inputs_end_in_a_documented_exit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = _write_inputs()

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reader=st.sampled_from(READERS), data=st.data())
    def damaged_input_exits_cleanly(reader, data):
        name, argv = reader
        blob = bytearray(originals[name])
        if data.draw(st.booleans(), label="cut"):
            del blob[data.draw(st.integers(0, len(blob) - 1),
                               label="cut at"):]
        if blob:
            for pos, mask in data.draw(st.lists(st.tuples(
                    st.integers(0, len(blob) - 1), st.integers(1, 255)),
                    max_size=3), label="flips"):
                blob[pos] ^= mask
        for other, content in originals.items():
            with open(other, "wb") as f:
                f.write(blob if other == name else content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            assert code in PREFIXES, (code, err.getvalue())
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert err.getvalue().startswith(PREFIXES[code]), err.getvalue()

    damaged_input_exits_cleanly()
