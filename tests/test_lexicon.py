from hypothesis import given, strategies as st

from rucca.graph import make_token
from rucca.lexicon import ExpressionLexicon, load_lexicon, match


def _tokens(*forms):
    return [make_token(f, "X") for f in forms]


def _lex(*patterns):
    return ExpressionLexicon(
        expressions=frozenset(tuple(p.split()) for p in patterns))


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("at least\nin front of\n# a comment\n\n")
    lex = load_lexicon(path)
    assert lex.expressions == {("at", "least"), ("in", "front", "of")}


def test_load_lexicon_empty_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("")
    lex = load_lexicon(path)
    assert lex.expressions == frozenset()
    mask = match(lex, _tokens("a", "b"))
    assert mask.flags == (False, False)
    assert mask.spans == ()


def test_load_lexicon_drops_duplicates(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("at least\nAt Least\n")
    lex = load_lexicon(path)
    assert len(lex.expressions) == 1


def test_match_simple():
    mask = match(_lex("in front of"),
                 _tokens("She", "stood", "in", "front", "of", "him"))
    assert mask.flags == (False, False, True, True, True, False)
    assert mask.spans == ((2, 5),)


def test_match_case_insensitive():
    mask = match(_lex("in front of"), _tokens("In", "Front", "OF"))
    assert mask.spans == ((0, 3),)


def test_match_longest_wins():
    mask = match(_lex("in front", "in front of"),
                 _tokens("in", "front", "of"))
    assert mask.spans == ((0, 3),)


def test_match_leftmost_wins():
    # "b c" would match at 1, but the leftmost match "a b" claims b first.
    mask = match(_lex("a b", "b c"), _tokens("a", "b", "c"))
    assert mask.spans == ((0, 2),)


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=12))
def test_match_spans_disjoint_and_consistent(forms):
    lex = _lex("a b", "b c d", "c", "a b c")
    mask = match(lex, _tokens(*forms))
    covered = set()
    for start, end in mask.spans:
        positions = set(range(start, end))
        assert not positions & covered
        covered |= positions
    for i, flag in enumerate(mask.flags):
        assert flag == (i in covered)


def test_match_order_independence():
    tokens = _tokens("in", "front", "of", "the", "door")
    a = match(_lex("in front of", "the door"), tokens)
    b = match(_lex("the door", "in front of"), tokens)
    assert a == b


def _match_reference(expressions, forms):
    """Greedy leftmost-longest matching by trying every expression at every
    position, with no length bound: the reference for match."""
    forms = [f.lower() for f in forms]
    spans = []
    i = 0
    while i < len(forms):
        lengths = [len(e) for e in expressions
                   if tuple(forms[i:i + len(e)]) == e]
        if lengths:
            spans.append((i, i + max(lengths)))
            i += max(lengths)
        else:
            i += 1
    return tuple(spans)


@given(st.frozensets(st.lists(st.sampled_from("abc"), min_size=1,
                              max_size=5).map(tuple), max_size=8),
       st.lists(st.sampled_from("abcABd"), max_size=14))
def test_match_equals_brute_force_reference(expressions, forms):
    lex = ExpressionLexicon(expressions=expressions)
    assert lex.max_length == max(map(len, expressions), default=0)
    mask = match(lex, _tokens(*forms))
    assert mask.spans == _match_reference(expressions, forms)
    covered = {j for start, end in mask.spans for j in range(start, end)}
    assert mask.flags == tuple(j in covered for j in range(len(forms)))
