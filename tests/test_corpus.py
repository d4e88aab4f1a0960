import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rucca import bio
from rucca.corpus import (CorpusError, aux_labels, build_mask, expand,
                          load_conll_tokens, load_examples, load_passages,
                          passage_from_record, passage_to_record,
                          save_examples, save_passages)
from rucca.graph import non_terminals

from helpers import (fig1_passage, fixture_corpus, nonrepresentable_passage,
                     random_corpus, random_passage,
                     reference_passage_from_record, single_token_passage)


def test_save_load_roundtrip_single(tmp_path):
    path = tmp_path / "p.jsonl"
    original = [fig1_passage()]
    save_passages(original, path)
    assert load_passages(path) == original


def test_save_empty_writes_header(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_passages([], path)
    assert path.read_text().startswith("#")
    assert load_passages(path) == []


def test_roundtrip_random_corpus(tmp_path):
    path = tmp_path / "r.jsonl"
    passages = random_corpus(seed=3, count=50)
    save_passages(passages, path)
    assert load_passages(path) == passages


def test_load_rejects_unknown_category(tmp_path):
    rec = passage_to_record(single_token_passage())
    rec["edges"][0]["category"] = "X"
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="unknown category"):
        load_passages(path)


def test_load_rejects_unknown_fields(tmp_path):
    rec = passage_to_record(single_token_passage())
    rec["extra"] = 1
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="passage fields"):
        load_passages(path)


def _first(key):
    """An edit of the first item of a record's list `key`."""
    return lambda rec, **kv: rec[key][0].update(kv)


def _terminal(rec, **kv):
    next(n for n in rec["nodes"] if n["position"] is not None).update(kv)


# (edit, keyword arguments, message) of passage records
@pytest.mark.parametrize("edit, values, message", [
    (dict.update, {"passage_id": 1}, "passage_id is a number"),
    (dict.update, {"language": None}, "language is null"),
    (dict.update, {"root": ["n0"]}, "root is a list"),
    (_first("nodes"), {"id": ["n0"]}, "node id is a list"),
    (_terminal, {"position": "0"}, "node position is a string"),
    (_terminal, {"position": False}, "node position is a boolean"),
    (_terminal, {"position": 0.0}, "node position is a number"),
    (_first("edges"), {"parent": ["n0"]}, "edge parent is a list"),
    (_first("edges"), {"child": 1}, "edge child is a number"),
    (_first("edges"), {"category": ["H"]}, "edge category is a list"),
    (_first("edges"), {"remote": "no"}, "edge remote is a string"),
    (_first("tokens"), {"head": True}, "bad head True"),
    (_first("tokens"), {"form": 1},
     "token form is a number, expected a string$"),
    (_first("tokens"), {"upos": None},
     "token upos is null, expected a string$"),
    (_first("tokens"), {"language": ["en"]},
     "token language is a list, expected a string$"),
    (_first("tokens"), {"xpos": 1},
     "token xpos is a number, expected a string or null$"),
    (_first("tokens"), {"deprel": False},
     "token deprel is a boolean, expected a string or null$"),
    (_first("tokens"), {"morph": {"Number": 1}},
     "token morph is an object, expected an object of strings$"),
    (_first("tokens"), {"morph": ["Number=Sing"]},
     "token morph is a list, expected an object of strings$"),
    (_first("nodes"), {"kind": "leaf"}, "bad node kind 'leaf'$"),
    (_first("nodes"), {"kind": None}, "bad node kind None$"),
])
def test_load_passages_rejects_wrong_field_types(tmp_path, edit, values,
                                                 message):
    rec = passage_to_record(fig1_passage())
    edit(rec, **values)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="bad.jsonl:1: " + message):
        load_passages(path)


# a value of each JSON type, with the strings, lists and objects that
# the reader tells apart
_JSON_VALUES = (None, True, False, 0, 2, -1, 0.0, 1.5, "", "n0", "t0",
                "root", "terminal", "nonterminal", "leaf", "H", "X", "en",
                [], ["n0"], [{}], [{"id": "n0"}], {}, {"Number": "Sing"},
                {"Number": 1})


_DROP = object()  # an edit that drops the key


def _read(reader, rec):
    """-> the passage a reader gives (with its repr, which tells 1 from
    True and 1.0) or its CorpusError's text."""
    try:
        passage = reader(rec, "p.jsonl:1")
    except CorpusError as exc:
        return "CorpusError: %s" % exc
    return passage, repr(passage)


def _records_of(rec, kind):
    return {"passage": [rec], "token": rec["tokens"],
            "morph": [t["morph"] for t in rec["tokens"]],
            "node": rec["nodes"], "edge": rec["edges"]}[kind]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["passage", "token", "morph", "node", "edge"]))
def test_passage_reader_matches_the_field_by_field_reference(data, seed,
                                                             kind):
    """One field of a record (the passage's, a token's, its morph, a
    node's or an edge's) set to a value of each JSON type, dropped, or
    added: the reader gives the reference's passage or its message."""
    rec = passage_to_record(random_passage(np.random.default_rng(seed), "p"))
    i = data.draw(st.integers(0, len(_records_of(rec, kind)) - 1))
    key = data.draw(st.sampled_from(sorted(_records_of(rec, kind)[i])
                                    + ["extra"]))
    for value in _JSON_VALUES + (_DROP,):
        edited = copy.deepcopy(rec)
        target = _records_of(edited, kind)[i]
        if value is _DROP:
            target.pop(key, None)
        else:
            target[key] = value
        assert _read(passage_from_record, edited) == \
            _read(reference_passage_from_record, edited), value


@pytest.mark.parametrize("values, message", [
    ({"passage_id": None}, "passage_id is null"),
    ({"focus_node": 0}, "focus_node is a number"),
    ({"representable": "no"}, "representable is a string"),
    ({"representable": 1}, "representable is a number"),
])
def test_load_examples_rejects_wrong_field_types(tmp_path, values, message):
    path = tmp_path / "ex.jsonl"
    save_examples(expand(fig1_passage())[:1], path)
    header, line = path.read_text().splitlines()
    rec = json.loads(line)
    rec.update(values)
    path.write_text(header + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="ex.jsonl:2: " + message):
        load_examples(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CorpusError, match=":1"):
        load_passages(path)


@pytest.mark.parametrize("load", [load_passages, load_examples])
@pytest.mark.parametrize("line", ["[1, 2]", '"n0"', "null", "3"])
def test_a_record_that_is_no_object_names_its_line(tmp_path, load, line):
    path = tmp_path / "bad.jsonl"
    path.write_text("# rucca passages v1\n\n%s\n" % line)
    with pytest.raises(CorpusError,
                       match=r"bad\.jsonl:3: expected a JSON object$"):
        load(path)


def test_fifteen_passage_file(tmp_path):
    # Mirrors the tiny French training partition size.
    path = tmp_path / "fr.jsonl"
    passages = random_corpus(seed=20, count=15, language="fr")
    save_passages(passages, path)
    assert len(load_passages(path)) == 15


def test_expand_single_token_passage():
    examples = expand(single_token_passage())
    assert len(examples) == 1
    assert examples[0].mask == ("ROOT",)
    assert examples[0].target_bio == ("B-H",)


def test_expand_count_equals_non_terminals():
    for p in fixture_corpus(seed=11, n_random=15):
        examples = expand(p)
        assert len(examples) == len(non_terminals(p))


def test_expand_fig1_scene_mask():
    examples = {ex.focus_node: ex for ex in expand(fig1_passage())}
    scene = examples["n1"]
    assert scene.mask == ("H", "H", "H", "O", "O", "O", "O")
    assert scene.target_bio == ("B-A", "B-P", "B-A", "O", "O", "O", "O")


def test_expand_targets_decode_to_gold_children():
    from rucca.graph import all_yields
    for p in fixture_corpus(seed=23, n_random=15):
        yields = all_yields(p)
        for ex in expand(p):
            if not ex.representable:
                continue
            spans = bio.decode_labels(list(ex.target_bio))
            expected = set()
            for e, child in p.primary_children(ex.focus_node):
                y = yields[child]
                expected.add(bio.ChildSpan(min(y), max(y) + 1,
                                           e.category, False))
            for e, child in p.remote_children(ex.focus_node):
                y = yields[child]
                expected.add(bio.ChildSpan(min(y), max(y) + 1,
                                           e.category, True))
            assert set(spans) == expected


def test_expand_mask_matches_yield():
    from rucca.graph import all_yields
    for p in fixture_corpus(seed=29, n_random=10):
        yields = all_yields(p)
        for ex in expand(p):
            marked = {i for i, s in enumerate(ex.mask) if s != "O"}
            assert marked == set(yields[ex.focus_node])


def test_aux_labels_identical_across_examples():
    p = fig1_passage()
    examples = expand(p)
    assert len({ex.target_aux for ex in examples}) == 1
    # highest-attaching edges: H for scene tokens, L for the link
    assert examples[0].target_aux == ("H", "H", "H", "L", "H", "H", "H")


def test_build_mask_root_symbol():
    p = single_token_passage()
    assert build_mask(p, "n0") == ("ROOT",)


def _first(value):
    return lambda labels: [value] + labels[1:]


def _drop_last(labels):
    return labels[:-1]


@pytest.mark.parametrize("edits, message", [
    ({"mask": _drop_last}, "mask/token length mismatch"),
    ({"target_bio": _drop_last}, "target/token length mismatch"),
    ({"target_aux": _drop_last}, "target/token length mismatch"),
    ({"target_aux": lambda _: None}, "BIO target without aux target"),
    ({"mask": _first("X")}, "unknown mask symbol 'X'"),
    ({"target_bio": _first("B-Q")}, "unknown BIO label 'B-Q'"),
    # two faults: the first check that fails names the record
    ({"target_bio": _first("B-Q"), "mask": _drop_last},
     "mask/token length mismatch"),
], ids=["mask-length", "bio-length", "aux-length", "bio-without-aux",
        "mask-symbol", "bio-label", "two-faults"])
def test_load_examples_rejects_malformed_examples(tmp_path, edits, message):
    path = tmp_path / "ex.jsonl"
    save_examples(expand(fig1_passage())[:2], path)
    header, good, line = path.read_text().splitlines()
    rec = json.loads(line)
    for key, edit in edits.items():
        rec[key] = edit(rec[key])
    path.write_text("\n".join([header, good, json.dumps(rec)]) + "\n")
    with pytest.raises(CorpusError) as exc:
        load_examples(path)
    assert str(exc.value) == "%s:3: %s" % (path, message)


def test_examples_file_roundtrip(tmp_path):
    examples = [ex for p in fixture_corpus(seed=31, n_random=5)
                for ex in expand(p)]
    path = tmp_path / "ex.jsonl"
    save_examples(examples, path)
    loaded = load_examples(path)
    assert loaded == examples
    # the examples of one passage share one tokens tuple, as expand's do
    for a, b in zip(loaded, loaded[1:]):
        assert (a.tokens is b.tokens) == (a.passage_id == b.passage_id)


def _reference_line(ex):
    """An example's line as one json.dumps of its whole record."""
    rec = {"passage_id": ex.passage_id,
           "tokens": [{"form": t.form, "upos": t.upos, "xpos": t.xpos,
                       "morph": dict(t.morph), "head": t.head,
                       "deprel": t.deprel, "language": t.language}
                      for t in ex.tokens],
           "mask": list(ex.mask),
           "focus_node": ex.focus_node,
           "target_bio": list(ex.target_bio)
           if ex.target_bio is not None else None,
           "target_aux": list(ex.target_aux)
           if ex.target_aux is not None else None,
           "representable": ex.representable}
    return json.dumps(rec, ensure_ascii=False)


_TOKEN_EDITS = st.fixed_dictionaries({
    "form": st.sampled_from(["é", "日本", "plain", 'a "b"', "c\\d"]),
    "xpos": st.sampled_from([None, "NN", "名詞"]),
    "deprel": st.sampled_from([None, "nsubj", "obj"]),
    "morph": st.dictionaries(
        st.sampled_from(["Case", "Number", "Voice"]),
        st.sampled_from(["Sing", "Plur", "Gén"]),
        max_size=2).map(lambda m: tuple(sorted(m.items()))),
    "head": st.sampled_from([None, "root", 0, 3]),
})


@settings(max_examples=50, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_save_examples_writes_one_json_dumps_per_record(tmp_path_factory,
                                                        data, seed):
    rng = np.random.default_rng(seed)
    passages = [random_passage(rng, pid) for pid in ("a", "b")]
    passages = [replace(p, tokens=tuple(
        t._replace(**data.draw(_TOKEN_EDITS)) for t in p.tokens))
        for p in passages] + [nonrepresentable_passage()]
    examples = [ex for p in passages for ex in expand(p)]
    # examples of several passages interleaved (A1 B1 A2)
    examples = data.draw(st.permutations(examples))
    # equal tuples that are distinct objects, and an example without aux
    copies = data.draw(st.lists(st.booleans(), min_size=len(examples),
                                max_size=len(examples)))
    examples = [ex._replace(tokens=tuple(list(ex.tokens)),
                            target_aux=tuple(list(ex.target_aux)))
                if copy else ex for ex, copy in zip(examples, copies)]
    examples.append(examples[0]._replace(target_bio=None, target_aux=None,
                                         representable=False))
    path = tmp_path_factory.mktemp("ex") / "ex.jsonl"
    save_examples(examples, path)
    assert path.read_text(encoding="utf-8").splitlines() == \
        ["# rucca masked examples v1"] + [_reference_line(ex)
                                          for ex in examples]
    assert load_examples(path) == examples


def test_load_conll_tokens(tmp_path):
    path = tmp_path / "t.conll"
    path.write_text(
        "# sent_id = 1\n"
        "1\tShe\tPRON\t_\tNumber=Sing\t2\tnsubj\n"
        "# a comment line inside a sentence\n"
        "2\tsings\tVERB\tVBZ\t_\t0\troot\n"
        "\n"
        "# text = Go\n"
        "1\tGo\tVERB\t_\t_\t0\troot\n")
    sentences = load_conll_tokens(path, language="en")
    assert len(sentences) == 2
    first = sentences[0]
    assert first[0].form == "She"
    assert first[0].morph == (("Number", "Sing"),)
    assert first[0].head == 1
    assert first[1].head == "root"
    assert first[1].xpos == "VBZ"
    assert sentences[1][0].deprel == "root"


def test_load_conll_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("1\tonly\tthree\n")
    with pytest.raises(CorpusError, match="7 columns"):
        load_conll_tokens(path)
