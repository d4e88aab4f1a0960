"""Passage serialization, CoNLL ingestion, and masked-corpus expansion.

Passages are stored one JSON record per line. The expansion step turns a
gold passage into one training example per non-terminal node, each with a
per-token mask feature carrying the node's span and arc category.
"""

import json
from operator import itemgetter
from typing import NamedTuple, Optional

from . import bio
from .graph import (CATEGORY_SET, DEFAULT_LANGUAGE, OUTSIDE, ROOT_MASK, Edge,
                    Node, Passage, TokenRow, all_yields, make_token,
                    non_terminals, validate)

MASK_SYMBOLS = (OUTSIDE,) + tuple(sorted(CATEGORY_SET)) + (ROOT_MASK,)
AUX_OUTSIDE = "O"

TOKEN_FIELDS = ("form", "upos", "xpos", "morph", "head", "deprel", "language")
_TOKEN_KEYS = frozenset(TOKEN_FIELDS)
_NODE_FIELDS = ("id", "kind", "position")
_NODE_KEYS = frozenset(_NODE_FIELDS)
_NODE_KINDS = ("terminal", "nonterminal")
_EDGE_FIELDS = ("parent", "child", "category", "remote")
_EDGE_KEYS = frozenset(_EDGE_FIELDS)
# (accepted JSON types, expected) of a record field; a type must match
# exactly, so a boolean is not an integer
_STR = ((str,), "a string")
_STR_OR_NULL = ((str, type(None)), "a string or null")
_BOOL = ((bool,), "a boolean")
# (field, type) of the scalar fields of each kind of record
_TOKEN_TYPES = (("form", _STR), ("upos", _STR), ("language", _STR),
                ("xpos", _STR_OR_NULL), ("deprel", _STR_OR_NULL))
_NODE_TYPES = (("id", _STR),
               ("position", ((int, type(None)), "an integer or null")))
_EDGE_TYPES = (("parent", _STR), ("child", _STR), ("category", _STR),
               ("remote", _BOOL))
_PASSAGE_TYPES = (("passage_id", _STR), ("language", _STR), ("root", _STR))
_EXAMPLE_TYPES = (("passage_id", _STR), ("focus_node", _STR),
                  ("representable", _BOOL))
PASSAGE_FIELDS = ("passage_id", "language", "tokens", "nodes", "edges", "root")
_PASSAGE_KEYS = frozenset(PASSAGE_FIELDS)
# a record's values in the order of its fields
_token_values = itemgetter(*TOKEN_FIELDS)
_node_values = itemgetter(*_NODE_FIELDS)
_edge_values = itemgetter(*_EDGE_FIELDS)
_passage_values = itemgetter(*PASSAGE_FIELDS)
EXAMPLE_FIELDS = ("passage_id", "tokens", "mask", "focus_node", "target_bio",
                  "target_aux", "representable")
_EXAMPLE_KEYS = frozenset(EXAMPLE_FIELDS)


class CorpusError(ValueError):
    """Malformed passage or example record."""


class MaskedExample(NamedTuple):
    """One masked training/inference instance for a single focus node."""

    passage_id: str
    tokens: tuple  # of TokenRow
    mask: tuple  # of mask symbols, one per token
    focus_node: str
    target_bio: Optional[tuple] = None
    target_aux: Optional[tuple] = None
    representable: bool = True


# ---------------------------------------------------------------------------
# Record value types

_JSON_TYPES = ((bool, "a boolean"), (dict, "an object"), (list, "a list"),
               (str, "a string"), ((int, float), "a number"),
               (type(None), "null"))


def _type_error(where, name, value, expected):
    kind = next(n for t, n in _JSON_TYPES if isinstance(value, t))
    return CorpusError("%s: %s is %s, expected %s"
                       % (where, name, kind, expected))


def _check_types(rec, types, where, prefix=""):
    for key, (kinds, expected) in types:
        if type(rec[key]) not in kinds:
            raise _type_error(where, prefix + key, rec[key], expected)


def _objects(value, where, name):
    if not isinstance(value, list) or \
            not all(isinstance(v, dict) for v in value):
        raise _type_error(where, name, value, "a list of objects")
    return value


def _strings(value, where, name, nullable=False):
    if value is None and nullable:
        return None
    if not isinstance(value, list) or \
            not all(isinstance(v, str) for v in value):
        raise _type_error(where, name, value, "a list of strings"
                          + (" or null" if nullable else ""))
    return tuple(value)


# ---------------------------------------------------------------------------
# Passage files (JSON lines)

def _token_to_record(tok: TokenRow) -> dict:
    return {"form": tok.form, "upos": tok.upos, "xpos": tok.xpos,
            "morph": dict(tok.morph), "head": tok.head,
            "deprel": tok.deprel, "language": tok.language}


def _token_from_record(rec: dict, where: str) -> TokenRow:
    if rec.keys() != _TOKEN_KEYS:
        raise CorpusError("%s: token fields %s, expected %s"
                          % (where, sorted(rec), sorted(TOKEN_FIELDS)))
    form, upos, xpos, morph, head, deprel, language = _token_values(rec)
    if not (type(form) is type(upos) is type(language) is str
            and (xpos is None or type(xpos) is str)
            and (deprel is None or type(deprel) is str)
            and type(morph) is dict
            and (not morph or all(type(v) is str for v in morph.values()))
            and (head is None or type(head) is int or head == "root")):
        _check_token(rec, where)
    pairs = tuple(sorted(morph.items())) if morph else ()
    return TokenRow(form, upos, xpos, pairs, head, deprel, language)


def _check_token(rec, where):
    """A token record's fields one by one: raises for the first that
    fails."""
    _check_types(rec, _TOKEN_TYPES, where, "token ")
    morph = rec["morph"]
    if not isinstance(morph, dict) or \
            not all(isinstance(v, str) for v in morph.values()):
        raise _type_error(where, "token morph", morph, "an object of strings")
    head = rec["head"]
    if head is not None and head != "root" and type(head) is not int:
        raise CorpusError("%s: bad head %r" % (where, head))


def passage_to_record(passage: Passage) -> dict:
    return {
        "passage_id": passage.passage_id,
        "language": passage.language,
        "tokens": [_token_to_record(t) for t in passage.tokens],
        "nodes": [{"id": n.id, "kind": n.kind, "position": n.position}
                  for n in passage.nodes],
        "edges": [{"parent": e.parent, "child": e.child,
                   "category": e.category, "remote": e.remote}
                  for e in passage.edges],
        "root": passage.root,
    }


def passage_from_record(rec: dict, where: str = "record") -> Passage:
    """A passage record's Passage. Each record's field types are tested in
    one expression, and one by one only when that fails, to name the
    first bad field."""
    if rec.keys() != _PASSAGE_KEYS:
        raise CorpusError("%s: passage fields %s, expected %s"
                          % (where, sorted(rec), sorted(PASSAGE_FIELDS)))
    passage_id, language, token_recs, node_recs, edge_recs, root = \
        _passage_values(rec)
    if not (type(passage_id) is type(language) is type(root) is str):
        _check_types(rec, _PASSAGE_TYPES, where)
    tokens = tuple(_token_from_record(t, where)
                   for t in _objects(token_recs, where, "tokens"))
    nodes = []
    for n in _objects(node_recs, where, "nodes"):
        if n.keys() != _NODE_KEYS:
            raise CorpusError("%s: bad node record %s" % (where, n))
        nid, kind, position = _node_values(n)
        if not (type(nid) is str
                and (position is None or type(position) is int)
                and kind in _NODE_KINDS):
            _check_types(n, _NODE_TYPES, where, "node ")
            raise CorpusError("%s: bad node kind %r" % (where, kind))
        nodes.append(Node(nid, kind, position))
    edges = []
    for e in _objects(edge_recs, where, "edges"):
        if e.keys() != _EDGE_KEYS:
            raise CorpusError("%s: bad edge record %s" % (where, e))
        parent, child, category, remote = _edge_values(e)
        if not (type(parent) is type(child) is type(category) is str
                and type(remote) is bool and category in CATEGORY_SET):
            _check_types(e, _EDGE_TYPES, where, "edge ")
            raise CorpusError("%s: unknown category %r on edge %s->%s"
                              % (where, category, parent, child))
        edges.append(Edge(parent, child, category, remote))
    return Passage(passage_id, language, tokens, tuple(nodes), tuple(edges),
                   root)


def text_lines(path):
    """(line number, line) for each line of a UTF-8 text file; a file
    that is not UTF-8 is a CorpusError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as exc:
            raise CorpusError("%s: not UTF-8 text: %s" % (path, exc.reason)) \
                from None


def _records(path):
    """(where, record) for each object line of a JSON-lines file; blank
    lines and # comments are skipped."""
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = "%s:%d" % (path, lineno)
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError("%s: bad JSON: %s" % (where, exc))
        if not isinstance(rec, dict):
            raise CorpusError("%s: expected a JSON object" % where)
        yield where, rec


def load_passages(path) -> list:
    """Read a JSON-lines passage file; every passage must validate."""
    passages = []
    for where, rec in _records(path):
        passage = passage_from_record(rec, where)
        violations = validate(passage)
        if violations:
            raise CorpusError("%s: invalid passage %s: %s"
                              % (where, passage.passage_id,
                                 "; ".join(violations)))
        passages.append(passage)
    return passages


def save_passages(passages, path):
    """Write passages as JSON lines; round-trips exactly via load_passages."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# rucca passages v1\n")
        for p in passages:
            f.write(json.dumps(passage_to_record(p), ensure_ascii=False,
                               sort_keys=False))
            f.write("\n")


# ---------------------------------------------------------------------------
# CoNLL-like token ingestion (ID FORM UPOS XPOS FEATS HEAD DEPREL)

def load_conll_tokens(path, language=DEFAULT_LANGUAGE) -> list:
    """-> list of token tuples, one per sentence."""
    sentences = []
    current = []
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 7:
            raise CorpusError("%s:%d: expected 7 columns, got %d"
                              % (path, lineno, len(cols)))
        _, form, upos, xpos, feats, head, deprel = cols
        morph = {}
        if feats not in ("_", ""):
            for item in feats.split("|"):
                k, _, v = item.partition("=")
                morph[k] = v
        if head in ("_", ""):
            head_val = None
        elif head == "0":
            head_val = "root"
        else:
            try:
                head_val = int(head) - 1
            except ValueError:
                raise CorpusError("%s:%d: HEAD %r is not an integer"
                                  % (path, lineno, head)) from None
        current.append(make_token(
            form, upos, xpos=None if xpos == "_" else xpos, morph=morph,
            head=head_val, deprel=None if deprel == "_" else deprel,
            language=language))
    if current:
        sentences.append(tuple(current))
    return sentences


# ---------------------------------------------------------------------------
# Auxiliary (TASK2) labels and corpus expansion

def aux_labels(passage: Passage) -> tuple:
    """Per-token label: category of the token's highest-attaching edge,
    i.e. of the root's primary child whose yield holds the token."""
    yields = all_yields(passage)
    labels = [AUX_OUTSIDE] * len(passage.tokens)
    for edge, child in passage.primary_children(passage.root):
        for i in yields[child]:
            labels[i] = edge.category
    return tuple(labels)


def build_mask(passage: Passage, node_id: str) -> tuple:
    """Mask sequence for one focus node: arc category (ROOT for the root)
    inside the node's yield, O outside."""
    if node_id == passage.root:
        symbol = ROOT_MASK
    else:
        symbol = passage.incoming_primary(node_id)[0].category
    span = all_yields(passage)[node_id]
    return tuple(symbol if i in span else OUTSIDE
                 for i in range(len(passage.tokens)))


def expand(passage: Passage) -> list:
    """One MaskedExample per non-terminal node, in traversal order.

    Nodes whose children are not BIO-representable, and nodes whose mask
    an earlier node has (a unary chain of arcs sharing a category), are
    emitted with representable=False and no BIO target: one input gets one
    target. Callers skip them for training.
    """
    aux = aux_labels(passage)
    examples = []
    seen = set()
    for node_id in non_terminals(passage):
        mask = build_mask(passage, node_id)
        target = None
        if mask not in seen:
            seen.add(mask)
            try:
                target = tuple(bio.encode(passage, node_id))
            except bio.NotRepresentable:
                pass
        examples.append(MaskedExample(
            passage_id=passage.passage_id, tokens=passage.tokens,
            mask=mask, focus_node=node_id, target_bio=target,
            target_aux=aux, representable=target is not None))
    return examples


# ---------------------------------------------------------------------------
# Masked-example files (JSON lines), written by the expand command

def save_examples(examples, path):
    """Write each example's record as json.dumps would. The tokens and aux
    tuples that expand shares across a passage's examples are encoded
    once, while consecutive examples hold the same object."""
    dumps = json.JSONEncoder(ensure_ascii=False).encode
    line = "{%s}\n" % ", ".join('"%s": %%s' % k for k in EXAMPLE_FIELDS)
    tokens, aux, aux_json = None, None, "null"
    with open(path, "w", encoding="utf-8") as f:
        f.write("# rucca masked examples v1\n")
        for ex in examples:
            if ex.tokens is not tokens:
                tokens = ex.tokens
                tokens_json = dumps([_token_to_record(t) for t in tokens])
            if ex.target_aux is not aux:
                aux = ex.target_aux
                aux_json = dumps(aux)
            f.write(line % (
                dumps(ex.passage_id), tokens_json, dumps(ex.mask),
                dumps(ex.focus_node), dumps(ex.target_bio), aux_json,
                dumps(ex.representable)))


def load_examples(path) -> list:
    """Read a masked-example file, checking each example's mask and
    targets against its tokens and the label sets; a MaskedExample holds
    no checks of its own. A record whose token list equals the previous
    record's shares its tokens tuple, as a passage's do."""
    examples = []
    token_recs = tokens = None
    for where, rec in _records(path):
        if rec.keys() != _EXAMPLE_KEYS:
            raise CorpusError("%s: example fields %s, expected %s"
                              % (where, sorted(rec), sorted(EXAMPLE_FIELDS)))
        _check_types(rec, _EXAMPLE_TYPES, where)
        # == holds for 2, 2.0 and true alike, so a record shares the
        # previous one's tokens only if its heads' types match too
        if token_recs is None or rec["tokens"] != token_recs or any(
                type(a["head"]) is not type(b["head"])
                for a, b in zip(rec["tokens"], token_recs)):
            token_recs = _objects(rec["tokens"], where, "tokens")
            if not token_recs:
                raise CorpusError("%s: no tokens" % where)
            tokens = tuple(_token_from_record(t, where) for t in token_recs)
        mask = _strings(rec["mask"], where, "mask")
        target_bio, target_aux = (
            _strings(rec[key], where, key, nullable=True)
            for key in ("target_bio", "target_aux"))
        if len(mask) != len(tokens):
            raise CorpusError("%s: mask/token length mismatch" % where)
        for t in (target_bio, target_aux):
            if t is not None and len(t) != len(tokens):
                raise CorpusError("%s: target/token length mismatch" % where)
        if target_bio is not None and target_aux is None:
            raise CorpusError("%s: BIO target without aux target" % where)
        for sym in mask:
            if sym not in MASK_SYMBOLS:
                raise CorpusError("%s: unknown mask symbol %r" % (where, sym))
        for label in target_bio or ():
            if label not in bio.BIO_INDEX:
                raise CorpusError("%s: unknown BIO label %r" % (where, label))
        examples.append(MaskedExample(
            passage_id=rec["passage_id"], tokens=tokens, mask=mask,
            focus_node=rec["focus_node"], target_bio=target_bio,
            target_aux=target_aux, representable=rec["representable"]))
    return examples
