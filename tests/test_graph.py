import pytest
from hypothesis import given, settings, strategies as st

from rucca.graph import (CATEGORIES, CATEGORY_SET, Edge, Node, Passage,
                         all_yields, make_token, non_terminals, validate)

from helpers import (brute_force_yield, fig1_passage, fixture_corpus,
                     random_corpus, single_token_passage)


def test_category_vocabulary_is_closed():
    assert len(CATEGORIES) == 13
    assert CATEGORY_SET == set(CATEGORIES)
    assert "X" not in CATEGORY_SET and "h" not in CATEGORY_SET


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
