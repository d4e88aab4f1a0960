import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rucca import bio
from rucca.graph import Edge, Node, Passage, make_token, non_terminals

from helpers import (brute_force_yield, fig1_passage, fixture_corpus,
                     nonrepresentable_passage, random_passage,
                     reference_check, reference_decode_labels)


def test_label_vocabulary_size():
    assert bio.N_BIO == 1 + 2 * 13 + 2 * 13 == 53
    assert len(set(bio.BIO_LABELS)) == 53
    assert bio.BIO_LABELS[0] == "O"
    assert len(bio.PRIMARY_LABEL_IDS) == 27
    assert len(bio.REMOTE_LABEL_IDS) == 26


def _flat_passage(n, child_spans, remote_spans=()):
    """root with one non-terminal child per multi-token span."""
    tokens = tuple(make_token("w%d" % i, "NOUN") for i in range(n))
    nodes = [Node("n0", "nonterminal")]
    edges = []
    covered = set()
    k = 1
    span_node = {}
    for start, end, cat in child_spans:
        if end - start == 1:
            edges.append(Edge("n0", "t%d" % start, cat))
            span_node[(start, end)] = "t%d" % start
        else:
            nid = "n%d" % k
            k += 1
            nodes.append(Node(nid, "nonterminal"))
            edges.append(Edge("n0", nid, cat))
            for i in range(start, end):
                edges.append(Edge(nid, "t%d" % i, "C"))
            span_node[(start, end)] = nid
        covered.update(range(start, end))
    for i in range(n):
        if i not in covered:
            edges.append(Edge("n0", "t%d" % i, "F"))
    nodes.extend(Node("t%d" % i, "terminal", i) for i in range(n))
    for parent_span, target_span, cat in remote_spans:
        edges.append(Edge(span_node[parent_span], span_node[target_span],
                          cat, remote=True))
    return Passage(passage_id="flat", language="en", tokens=tokens,
                   nodes=tuple(nodes), edges=tuple(edges), root="n0")


def test_encode_single_child_span():
    # n1 (yield 2-4) has one A child; everything outside its yield is O.
    tokens = tuple(make_token("w%d" % i, "NOUN") for i in range(6))
    nodes = (Node("n0", "nonterminal"), Node("n1", "nonterminal"),
             Node("n2", "nonterminal")) + tuple(
        Node("t%d" % i, "terminal", i) for i in range(6))
    edges = (Edge("n0", "t0", "F"), Edge("n0", "t1", "F"),
             Edge("n0", "n1", "D"), Edge("n0", "t5", "F"),
             Edge("n1", "n2", "A"),
             Edge("n2", "t2", "C"), Edge("n2", "t3", "C"),
             Edge("n2", "t4", "C"))
    p = Passage(passage_id="one", language="en", tokens=tokens,
                nodes=nodes, edges=edges, root="n0")
    labels = bio.encode(p, "n1")
    assert labels == ["O", "O", "B-A", "I-A", "I-A", "O"]


def test_encode_fig1_root():
    labels = bio.encode(fig1_passage(), "n0")
    assert labels == ["B-H", "I-H", "I-H", "B-L", "B-H", "I-H", "I-H"]


def test_encode_remote_child():
    # n1 spans tokens 0-4 with an A child at 2-3; n2 at 5-6 references it
    # remotely over its own primary yield.
    p = _flat_passage(7, [(0, 5, "H"), (5, 7, "H")])
    # rebuild with internal structure: n1 has A child over 2-3
    tokens = p.tokens
    nodes = (Node("n0", "nonterminal"), Node("n1", "nonterminal"),
             Node("n2", "nonterminal"), Node("n3", "nonterminal")) + tuple(
        Node("t%d" % i, "terminal", i) for i in range(7))
    edges = (
        Edge("n0", "n1", "H"), Edge("n0", "n2", "H"),
        Edge("n1", "t0", "C"), Edge("n1", "t1", "C"),
        Edge("n1", "n3", "A"), Edge("n1", "t4", "C"),
        Edge("n3", "t2", "C"), Edge("n3", "t3", "C"),
        Edge("n2", "t5", "C"), Edge("n2", "t6", "C"),
        Edge("n2", "n3", "A", remote=True),
    )
    p = Passage(passage_id="rem", language="en", tokens=tokens,
                nodes=nodes, edges=edges, root="n0")
    labels = bio.encode(p, "n2")
    assert labels[2:4] == ["B-REM-A", "I-REM-A"]
    assert labels[5:7] == ["B-C", "B-C"]  # two separate terminal children
    spans = bio.decode_labels(labels)
    assert bio.ChildSpan(2, 4, "A", True) in spans


def test_encode_interleaved_children_not_representable():
    # Child A has yield {0, 2}, child C has yield {1}: discontinuous.
    tokens = tuple(make_token("w%d" % i, "NOUN") for i in range(3))
    nodes = (Node("n0", "nonterminal"), Node("n1", "nonterminal")) + tuple(
        Node("t%d" % i, "terminal", i) for i in range(3))
    edges = (Edge("n0", "n1", "A"), Edge("n0", "t1", "C"),
             Edge("n1", "t0", "C"), Edge("n1", "t2", "C"))
    p = Passage(passage_id="disc", language="en", tokens=tokens,
                nodes=nodes, edges=edges, root="n0")
    with pytest.raises(bio.NotRepresentable):
        bio.encode(p, "n0")


def _check_encode(passage):
    """encode accepts a node exactly when its primary and remote child
    yields are non-empty, contiguous and disjoint, and its labels then
    decode to exactly those yields' spans. Returns the numbers of nodes
    accepted and refused."""
    counts = [0, 0]
    for node_id in non_terminals(passage):
        children = (
            [(e, c, False) for e, c in passage.primary_children(node_id)]
            + [(e, c, True) for e, c in passage.remote_children(node_id)])
        yields = [sorted(brute_force_yield(passage, c))
                  for _, c, _ in children]
        covered = [i for y in yields for i in y]
        representable = (
            all(y and y[-1] - y[0] + 1 == len(y) for y in yields)
            and len(covered) == len(set(covered)))
        try:
            labels = bio.encode(passage, node_id)
        except bio.NotRepresentable:
            assert not representable, node_id
            counts[1] += 1
            continue
        assert representable, node_id
        assert len(labels) == len(passage.tokens)
        assert sorted(bio.decode_labels(labels), key=lambda s: s.start) == \
            sorted((bio.ChildSpan(y[0], y[-1] + 1, e.category, remote)
                    for (e, _, remote), y in zip(children, yields)),
                   key=lambda s: s.start)
        counts[0] += 1
    return counts


def test_encode_decodes_to_the_children_on_fixtures():
    counts = [0, 0]
    for passage in fixture_corpus() + [nonrepresentable_passage()]:
        for i, n in enumerate(_check_encode(passage)):
            counts[i] += n
    assert counts[0] > 100 and counts[1] >= 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), moves=st.lists(
    st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
              st.booleans()), max_size=3))
def test_encode_decodes_to_the_children_or_refuses(seed, moves):
    """Random passages, rewired: each move either hangs a terminal under
    another non-terminal (a discontiguous or empty yield) or adds a remote
    edge (possibly overlapping a primary child)."""
    passage = random_passage(np.random.default_rng(seed), "p")
    inner = [n.id for n in passage.nodes if not n.is_terminal()]
    for a, b, remote in moves:
        parent = inner[a % len(inner)]
        edges = list(passage.edges)
        if remote:
            child = passage.nodes[b % len(passage.nodes)].id
            if child in (parent, passage.root):
                continue
            edges.append(Edge(parent, child, "A", remote=True))
        else:
            k = b % len(edges)
            if edges[k].remote or not edges[k].child.startswith("t"):
                continue
            edges[k] = replace(edges[k], parent=parent)
        passage = replace(passage, edges=tuple(edges))
    _check_encode(passage)


def test_encode_refuses_an_empty_child_yield():
    tokens = (make_token("w0", "NOUN"),)
    nodes = (Node("n0", "nonterminal"), Node("n1", "nonterminal"),
             Node("t0", "terminal", 0))
    edges = (Edge("n0", "t0", "C"), Edge("n0", "n1", "E"))
    p = Passage(passage_id="empty", language="en", tokens=tokens,
                nodes=nodes, edges=edges, root="n0")
    with pytest.raises(bio.NotRepresentable, match="empty"):
        bio.encode(p, "n0")


def test_decode_labels_simple():
    spans = bio.decode_labels(["O", "O", "B-A", "I-A", "O"])
    assert spans == [bio.ChildSpan(2, 4, "A", False)]


def test_decode_labels_leading_inside_repaired():
    assert bio.decode_labels(["I-A", "I-A"]) == \
        [bio.ChildSpan(0, 2, "A", False)]


def test_decode_labels_category_switch():
    assert bio.decode_labels(["B-H", "I-H", "B-L", "B-H"]) == [
        bio.ChildSpan(0, 2, "H", False),
        bio.ChildSpan(2, 3, "L", False),
        bio.ChildSpan(3, 4, "H", False)]


def test_decode_labels_repair_table_length2_bruteforce():
    # Independent oracle: enumerate all length-2 sequences over {O, B-A,
    # I-A} against hand-derived repair expectations.
    expectations = {
        ("O", "O"): [],
        ("O", "B-A"): [(1, 2)],
        ("O", "I-A"): [(1, 2)],
        ("B-A", "O"): [(0, 1)],
        ("B-A", "B-A"): [(0, 1), (1, 2)],
        ("B-A", "I-A"): [(0, 2)],
        ("I-A", "O"): [(0, 1)],
        ("I-A", "B-A"): [(0, 1), (1, 2)],
        ("I-A", "I-A"): [(0, 2)],
    }
    for seq, expected in expectations.items():
        got = [(s.start, s.end) for s in bio.decode_labels(list(seq))]
        assert got == expected, seq


@given(st.lists(st.sampled_from(bio.BIO_LABELS), max_size=12))
def test_decode_labels_total_and_disjoint(labels):
    spans = bio.decode_labels(labels)
    last_end = 0
    for s in sorted(spans, key=lambda s: s.start):
        assert 0 <= s.start < s.end <= len(labels)
        assert s.start >= last_end
        last_end = s.end
        assert s.category in set("DCNEFGLHAPURS")


def _remote_rows(t1):
    return t1[:, bio.REMOTE_LABEL_IDS]


# dangling I-, REM labels and category switches, each drawn often
_LABEL_RUNS = st.lists(st.sampled_from(
    ["O", "B-A", "I-A", "I-H", "B-REM-A", "I-REM-A", "I-REM-H"]
    + bio.BIO_LABELS), max_size=16)


@settings(max_examples=300)
@given(_LABEL_RUNS)
def test_decode_labels_matches_the_string_splitting_loop(labels):
    assert bio.decode_labels(labels) == reference_decode_labels(labels)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(0, 12),
       concentration=st.sampled_from([0.05, 0.3, 3.0]))
def test_decode_probs_and_remote_match_the_string_splitting_loop(
        seed, length, concentration):
    """Random rows: primary spans from each token's argmax over the
    primary columns, remote spans from its argmax over the REM columns
    where that probability exceeds the threshold."""
    rng = np.random.default_rng(seed)
    t1 = rng.gamma(concentration, 1.0, (length, bio.N_BIO))
    t1 /= np.maximum(t1.sum(axis=1, keepdims=True), 1e-300)
    primary = [bio.BIO_LABELS[max(bio.PRIMARY_LABEL_IDS,
                                  key=lambda i: (row[i], -i))]
               for row in t1]
    assert bio.decode_probs(bio.TagDistribution(task1=t1)) == \
        reference_decode_labels(primary)
    rows = _remote_rows(t1)
    for threshold in (0.0, 0.3, 1.0):
        remote = [bio.BIO_LABELS[bio.REMOTE_LABEL_IDS[int(np.argmax(r))]]
                  if r.max() > threshold else "O" for r in rows]
        assert bio.decode_remote(rows, threshold) == \
            reference_decode_labels(remote)


def _check_message(t1):
    try:
        bio.TagDistribution(task1=t1).check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(0, 6),
       poison=st.lists(st.tuples(
           st.integers(0, 10 ** 6), st.integers(0, bio.N_BIO - 1),
           st.sampled_from([np.nan, np.inf, -np.inf, -0.999e-6, -1.001e-6,
                            0.999e-6, 1.001e-6, -0.5]),
           st.booleans()), max_size=3))
@example(seed=0, length=0, poison=[])  # T = 0 passes
def test_check_raises_exactly_as_the_two_condition_formula(seed, length,
                                                           poison):
    """Valid rows with a few cells set to NaN, +-inf or values just
    inside and outside the tolerance, or shifted by the small ones."""
    rng = np.random.default_rng(seed)
    t1 = rng.dirichlet(np.ones(bio.N_BIO), size=length)
    for row, col, value, shift in poison:
        if length and shift and np.isfinite(value):
            t1[row % length, col] += value
        elif length:
            t1[row % length, col] = value
    assert _check_message(t1) == reference_check(t1)



def test_decode_probs_one_hot_matches_labels():
    labels = ["B-H", "I-H", "B-L", "O", "B-REM-A"]
    dist = bio.TagDistribution(task1=bio.one_hot(labels))
    assert bio.decode_probs(dist) == [bio.ChildSpan(0, 2, "H", False),
                                      bio.ChildSpan(2, 3, "L", False)]
    assert bio.decode_remote(_remote_rows(dist.task1), 0.5) == \
        [bio.ChildSpan(4, 5, "A", True)]


def test_decode_probs_threshold_one_never_remote():
    labels = ["B-REM-A", "I-REM-A"]
    rows = _remote_rows(bio.one_hot(labels))
    assert bio.decode_remote(rows, 1.0) == []


def test_decode_probs_threshold_boundary():
    t1 = np.full((1, bio.N_BIO), 0.0)
    t1[0, bio.BIO_INDEX["O"]] = 0.6
    t1[0, bio.BIO_INDEX["B-REM-A"]] = 0.4
    rows = _remote_rows(t1)
    assert bio.decode_remote(rows, 0.3) == [bio.ChildSpan(0, 1, "A", True)]
    assert bio.decode_remote(rows, 0.5) == []
    # strict inequality at the boundary
    assert bio.decode_remote(rows, 0.4) == []


def test_roundtrip_on_flat_passages():
    p = _flat_passage(8, [(0, 3, "H"), (3, 4, "L"), (4, 8, "H")])
    labels = bio.encode(p, "n0")
    spans = set(bio.decode_labels(labels))
    assert spans == {bio.ChildSpan(0, 3, "H", False),
                     bio.ChildSpan(3, 4, "L", False),
                     bio.ChildSpan(4, 8, "H", False)}


def test_exhaustive_short_sequences_two_categories():
    labels = ["O", "B-A", "I-A", "B-C", "I-C",
              "B-REM-A", "I-REM-A", "B-REM-C", "I-REM-C"]
    checked = 0
    for length in range(1, 5):
        for seq in itertools.product(labels, repeat=length):
            spans = bio.decode_labels(list(seq))
            occupied = set()
            for s in spans:
                assert 0 <= s.start < s.end <= length
                positions = set(s.positions())
                assert not positions & occupied
                occupied |= positions
            checked += 1
    assert checked == 9 + 81 + 729 + 6561
