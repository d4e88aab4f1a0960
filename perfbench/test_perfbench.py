"""Tests of the benchmark itself: self-time arithmetic, corpus
determinism, and tiny runs of each workload through every gate."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import corpusgen
import layertrace
import run
from rucca import bio, cli, parser, tagger
from rucca.corpus import load_conll_tokens, load_passages

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _names(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return {m["name"]: m.get("unit") for m in json.load(f)[kind]}


def _tiny(name, **config):
    """The workload at a size that runs in seconds. The tagger keeps its
    full width: narrower ones trained this briefly predict flat trees,
    which the recursion gate rejects."""
    w = bench.WORKLOADS[name]
    if w.oracle:
        return dataclasses.replace(w, sets={"gold": 3})
    return dataclasses.replace(
        w, scenes=(1, 3), sets={"train": 3, "dev": 1, "test": 3},
        config={**w.config, "epochs": "10", **config})


def test_workload_names_agree():
    assert set(_names("workloads")) == set(bench.WORKLOADS) \
        == set(run.WORKLOADS)


def test_self_times_subtract_covered_child_intervals():
    spans = [
        ("cmd", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        # Overlapping children of one parent count once; the part of a
        # child outside its parent does not count.
        ("c", 7.0, 9.0, 0),
        ("d", 8.0, 11.0, 0),
    ]
    got = layertrace.self_times(spans)
    assert got["cmd"] == pytest.approx(10.0 - 3.0 - 1.0 - 3.0)
    assert got["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["b"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(2.0)
    assert got["d"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores_functions():
    ticks = iter(range(100))
    tracer = layertrace.Tracer(clock=lambda: float(next(ticks)))
    original_parse = parser.parse
    tracer.install()
    try:
        assert cli.parse is parser.parse is not original_parse
        with tracer.span("cli.test"):
            bio.decode_labels(["B-A", "I-A", "O"])
            tracer.wrap("outer", lambda: bio.decode_labels(["O"]))()
    finally:
        tracer.uninstall()
    assert cli.parse is parser.parse is original_parse
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.test", "outer"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 0
    assert tracer.calls_by_root("outer") == {"cli.test": 1}


def test_corpus_is_byte_identical_per_seed(tmp_path):
    files, totals = [], []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / name
        directory.mkdir()
        corpus = corpusgen.write_corpus(str(directory), seed, (1, 6),
                                        {"train": 5, "test": 4})
        files.append({f: (directory / f).read_bytes()
                      for f in sorted(os.listdir(directory))})
        passages = corpus["train"] + corpus["test"]
        totals.append((sum(len(p.tokens) for p in passages),
                       sum(map(corpusgen.non_terminal_count, passages))))
    assert files[0] == files[1]
    assert files[0] != files[2]
    # Another seed rearranges structures but keeps the set's totals.
    assert totals[0] == totals[2]
    gold = load_passages(str(tmp_path / "a" / "test.jsonl"))
    conll = load_conll_tokens(str(tmp_path / "a" / "test.conll"))
    assert conll == [p.tokens for p in gold]


@pytest.mark.parametrize("name", ["gru-pipeline", "oracle-long"])
def test_tiny_run_passes_every_gate(name, tmp_path):
    result = bench.run_workload(_tiny(name), seed=3, seconds=0.5,
                                trace=False, directory=str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = _names("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "oracle-long":
        assert result["metrics"]["labeled_f1"]["value"] == 1.0


@pytest.mark.parametrize("name", ["gru-pipeline", "oracle-long"])
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    work = tmp_path / "work"
    work.mkdir()
    result = bench.run_workload(_tiny(name), seed=3, seconds=0.5,
                                trace=True, directory=str(work),
                                spans_path=str(spans))
    assert result["correct"], result
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _names("per_layer")
    tuned, parsed = (1, 3) if name == "gru-pipeline" else (3, 3)
    assert metrics["parser.parse.calls"]["value"] == \
        len(cli.THRESHOLD_SWEEP) * tuned + parsed
    uses_gru = name == "gru-pipeline"
    assert (metrics["tagger.forward.calls"]["value"] > 0) == uses_gru
    assert (metrics["tagger.gradients.calls"]["value"] > 0) == uses_gru
    assert (metrics["tagger.oracle.self_ms"]["value"] > 0) != uses_gru
    # Tracing adds work, so traced passes are not faster beyond the noise
    # of passes this small (about 0.1).
    assert metrics["trace.overhead_ratio"]["value"] > 0.85
    assert spans.read_text().count("\n") > 100


def test_wrong_oracle_output_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tagger.OracleTagger, "predict",
        lambda self, example, feats: bio.TagDistribution(
            task1=bio.one_hot(["O"] * len(example.tokens))))
    result = bench.run_workload(_tiny("oracle-long"), seed=3, seconds=0,
                                trace=False, directory=str(tmp_path))
    assert not result["correct"]
    assert result["metrics"] == {}


def test_failing_command_counts_its_sentences(tmp_path):
    result = bench.run_workload(_tiny("gru-pipeline", epochs="0"), seed=3,
                                seconds=0, trace=False,
                                directory=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 3  # the train set of the failed train


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode not in (0, None)
    assert "correct" not in done.stdout


def test_all_reports_each_workload_own_peak_memory():
    # `all` runs each workload in a process of its own. Run in one
    # process, oracle-long would report gru-pipeline's peak RSS.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert [r["correct"] for r in results] == [True, True]
    gru, oracle = (r["metrics"]["peak_rss_mb"]["value"] for r in results)
    assert oracle < 0.8 * gru
