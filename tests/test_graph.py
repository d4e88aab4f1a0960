from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rucca.bio import ChildSpan
from rucca.corpus import MaskedExample
from rucca.graph import (CATEGORIES, CATEGORY_SET, Edge, Node, Passage,
                         TokenRow, all_yields, is_contiguous, make_token,
                         non_terminals, validate)

from helpers import (brute_force_yield, fig1_passage, fixture_corpus,
                     random_corpus, random_passage, reference_validate,
                     single_token_passage)


def test_category_vocabulary_is_closed():
    assert len(CATEGORIES) == 13
    assert CATEGORY_SET == set(CATEGORIES)
    assert "X" not in CATEGORY_SET and "h" not in CATEGORY_SET


_TOKEN = dict(form="dog", upos="NOUN", xpos="NN", morph=(("Number", "Sing"),),
              head="root", deprel=None, language="en")
_TOKEN_REPR = ("TokenRow(form='dog', upos='NOUN', xpos='NN', "
               "morph=(('Number', 'Sing'),), head='root', deprel=None, "
               "language='en')")
# (type, field values in order, one field to change, its new value, repr)
_RECORDS = [
    (TokenRow, _TOKEN, "head", 0, _TOKEN_REPR),
    (Node, dict(id="t0", kind="terminal", position=0), "position", 1,
     "Node(id='t0', kind='terminal', position=0)"),
    (Edge, dict(parent="n0", child="t0", category="A", remote=False),
     "remote", True,
     "Edge(parent='n0', child='t0', category='A', remote=False)"),
    (ChildSpan, dict(start=0, end=2, category="P", remote=False), "end", 1,
     "ChildSpan(start=0, end=2, category='P', remote=False)"),
    (MaskedExample, dict(passage_id="p", tokens=(TokenRow(**_TOKEN),),
                         mask=("ROOT",), focus_node="n0",
                         target_bio=("B-P",), target_aux=("P",),
                         representable=True), "focus_node", "n1",
     "MaskedExample(passage_id='p', tokens=(%s,), mask=('ROOT',), "
     "focus_node='n0', target_bio=('B-P',), target_aux=('P',), "
     "representable=True)" % _TOKEN_REPR),
]


@pytest.mark.parametrize("cls,values,name,other,text", _RECORDS,
                         ids=[r[0].__name__ for r in _RECORDS])
def test_records_are_immutable_values_with_a_fixed_repr(cls, values, name,
                                                        other, text):
    """The records that messages and traces print: their repr, that a
    field cannot be set, and equality and hashing by field values."""
    record = cls(**values)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, name, other)
    same = cls(*values.values())
    assert same == record and hash(same) == hash(record)
    assert hash(record) == hash(tuple(values.values()))
    changed = cls(**{**values, name: other})
    assert changed != record and getattr(changed, name) == other


def test_is_contiguous():
    assert is_contiguous({3}) and is_contiguous([2, 0, 1])
    assert not is_contiguous([0, 2])
    assert not is_contiguous(())  # an empty yield is not contiguous


def test_validate_minimal_passage():
    assert validate(single_token_passage()) == []


def test_validate_reports_multiple_primary_parents():
    p = single_token_passage()
    bad = Passage(
        passage_id="bad", language="en",
        tokens=(make_token("a", "DET"), make_token("dog", "NOUN")),
        nodes=(Node("n0", "nonterminal"), Node("n3", "nonterminal"),
               Node("t0", "terminal", 0), Node("t1", "terminal", 1)),
        edges=(Edge("n0", "n3", "H"), Edge("n0", "t0", "F"),
               Edge("n3", "t0", "F"), Edge("n3", "t1", "C")),
        root="n0")
    violations = validate(bad)
    assert any("multiple primary parents: node t0" in v for v in violations)
    assert validate(p) == []


def test_validate_fig1_fixture():
    assert validate(fig1_passage()) == []


def test_validate_rejects_remote_only_node():
    p = Passage(
        passage_id="x", language="en",
        tokens=(make_token("hi", "INTJ"),),
        nodes=(Node("n0", "nonterminal"), Node("n1", "nonterminal"),
               Node("t0", "terminal", 0)),
        edges=(Edge("n0", "t0", "H"), Edge("n0", "n1", "A", remote=True)),
        root="n0")
    violations = validate(p)
    assert any("no primary parent: node n1" in v for v in violations)


def test_all_yields_terminal_and_root():
    yields = all_yields(fig1_passage())
    assert yields["t3"] == frozenset({3})
    assert yields["n0"] == frozenset(range(7))


def test_all_yields_scene_node():
    yields = all_yields(fig1_passage())
    assert yields["n1"] == frozenset({0, 1, 2})
    # The remote edge into t0 must not leak into n2's primary yield.
    assert yields["n2"] == frozenset({4, 5, 6})


def test_all_yields_unknown_node():
    p = fig1_passage()
    with pytest.raises(KeyError):
        all_yields(p)["nope"]
    with pytest.raises(KeyError):
        p.node("nope")


def _assert_index_matches_scans(p):
    yields = all_yields(p)
    assert set(yields) == {n.id for n in p.nodes}
    for n in p.nodes:
        assert p.node(n.id) == n
        assert yields[n.id] == brute_force_yield(p, n.id)
        assert p.primary_children(n.id) == [
            (e, e.child) for e in p.edges
            if e.parent == n.id and not e.remote]
        assert p.remote_children(n.id) == [
            (e, e.child) for e in p.edges if e.parent == n.id and e.remote]
        assert p.incoming_primary(n.id) == [
            e for e in p.edges if e.child == n.id and not e.remote]


def test_index_matches_scans_on_fixture_corpus():
    for p in fixture_corpus(seed=13, n_random=50):
        _assert_index_matches_scans(p)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_index_matches_scans_on_random_corpus(seed):
    for p in random_corpus(seed, 4):
        _assert_index_matches_scans(p)


def test_non_terminals_single_token():
    assert non_terminals(single_token_passage()) == ["n0"]


def test_non_terminals_preorder_leftmost_first():
    assert non_terminals(fig1_passage()) == ["n0", "n1", "n2"]


def test_tree_edge_count_property():
    for p in fixture_corpus(seed=5, n_random=20):
        primary = [e for e in p.edges if not e.remote]
        assert len(primary) == len(p.nodes) - 1
        assert validate(p) == []


def test_root_yield_covers_all_tokens_and_siblings_disjoint():
    for p in fixture_corpus(seed=7, n_random=20):
        yields = all_yields(p)
        assert yields[p.root] == frozenset(range(len(p.tokens)))
        for n in p.nodes:
            kids = [c for _, c in p.primary_children(n.id)]
            seen = set()
            for c in kids:
                assert not (yields[c] & seen)
                seen |= yields[c]


def test_validate_is_pure():
    p = fig1_passage()
    assert validate(p) == validate(p) == []


_CORRUPTIONS = ("none", "duplicate id", "drop edge", "add edge",
                "unknown category", "position none", "move position",
                "remote into root", "unknown node", "cycle", "discontiguous",
                "root", "no tokens")


def _corrupt(p, kind, draw):
    """p with one corruption of the given kind, its choices drawn."""
    nodes, edges = list(p.nodes), list(p.edges)
    ids = [n.id for n in nodes]
    terminals = [i for i, n in enumerate(nodes) if n.kind == "terminal"]

    def index(seq):
        return draw(st.integers(0, len(seq) - 1))

    def edge(parent, child, remote=None):
        return Edge(parent, child, draw(st.sampled_from(CATEGORIES)),
                    draw(st.booleans()) if remote is None else remote)

    if kind == "duplicate id":
        a, b = index(nodes), index(nodes)
        if a == b:
            nodes.insert(index(nodes), nodes[a])
        else:
            nodes[b] = nodes[b]._replace(id=nodes[a].id)
    elif kind == "drop edge":
        del edges[index(edges)]
    elif kind == "add edge":
        edges.insert(index(edges), edge(draw(st.sampled_from(ids)),
                                        draw(st.sampled_from(ids))))
    elif kind == "unknown category":
        i = index(edges)
        edges[i] = edges[i]._replace(
            category=draw(st.sampled_from(["X", "h", ""])))
    elif kind == "position none":
        i = draw(st.sampled_from(terminals))
        nodes[i] = nodes[i]._replace(position=None)
    elif kind == "move position":  # a non-terminal's too
        i = index(nodes)
        nodes[i] = nodes[i]._replace(position=draw(
            st.integers(-1, len(p.tokens))))
    elif kind == "remote into root":
        edges.append(edge(draw(st.sampled_from(
            [n.id for n in nodes if n.kind == "nonterminal"])), p.root,
            remote=True))
    elif kind == "unknown node":
        known = draw(st.sampled_from(ids))
        edges.append(edge(*draw(st.sampled_from([(known, "zz"),
                                                 ("zz", known)]))))
    elif kind == "cycle":
        # a primary edge back from a non-terminal child to its parent,
        # added or in place of the edge down
        i = draw(st.sampled_from([
            i for i, e in enumerate(edges) if not e.remote
            and p.node(e.child).kind == "nonterminal"] or [0]))
        back = edge(edges[i].child, edges[i].parent, remote=False)
        if draw(st.booleans()):
            edges[i] = back
        else:
            edges.append(back)
    elif kind == "discontiguous":  # two terminals' positions swapped
        a, b = draw(st.lists(st.sampled_from(terminals), min_size=2,
                             max_size=2, unique=True)
                    if len(terminals) > 1 else st.just(terminals * 2))
        nodes[a], nodes[b] = (nodes[a]._replace(position=nodes[b].position),
                              nodes[b]._replace(position=nodes[a].position))
    elif kind == "root":
        return replace(p, nodes=tuple(nodes), edges=tuple(edges),
                       root=draw(st.sampled_from(ids + ["zz"])))
    elif kind == "no tokens":
        return replace(p, tokens=())
    return replace(p, nodes=tuple(nodes), edges=tuple(edges))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(_CORRUPTIONS))
def test_validate_matches_the_check_by_check_reference(data, seed, kind):
    """One corruption of a valid passage: validate's one walk over the
    nodes and one over the edges find the violations, in the order, that
    one loop per check finds, with contiguity required or not."""
    p = _corrupt(random_passage(np.random.default_rng(seed), "p"), kind,
                 data.draw)
    for require_contiguous in (False, True):
        assert validate(p, require_contiguous) == \
            reference_validate(p, require_contiguous)
