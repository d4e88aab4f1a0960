"""UCCA-style DAG data model: passages, nodes, labeled edges, validity checks.

A passage is a rooted tree over primary edges (terminals = tokens,
non-terminals = semantic units) plus optional remote edges that turn the
tree into a DAG.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional

# The 13 edge categories, in the conventional reporting order.
CATEGORIES = ("D", "C", "N", "E", "F", "G", "L", "H", "A", "P", "U", "R", "S")
CATEGORY_SET = frozenset(CATEGORIES)

# Mask symbol used for the whole-sentence (root) inference step.
ROOT_MASK = "ROOT"
OUTSIDE = "O"
# The language of a token, a CoNLL file or a config that names none.
DEFAULT_LANGUAGE = "en"


class TokenRow(NamedTuple):
    """One token with its lexical/morphological/syntactic annotations."""

    form: str
    upos: str
    xpos: Optional[str] = None
    morph: tuple = ()  # sorted (key, value) pairs
    head: Optional[object] = None  # token index, "root", or None
    deprel: Optional[str] = None
    language: str = DEFAULT_LANGUAGE


def make_token(form, upos, xpos=None, morph=None, head=None, deprel=None,
               language=DEFAULT_LANGUAGE):
    pairs = tuple(sorted((morph or {}).items()))
    return TokenRow(form=form, upos=upos, xpos=xpos, morph=pairs,
                    head=head, deprel=deprel, language=language)


class Node(NamedTuple):
    id: str
    kind: str  # "terminal" | "nonterminal"
    position: Optional[int] = None  # terminals only, 0-based

    def is_terminal(self) -> bool:
        return self.kind == "terminal"


class Edge(NamedTuple):
    parent: str
    child: str
    category: str
    remote: bool = False


@dataclass(frozen=True)
class Passage:
    passage_id: str
    language: str
    tokens: tuple  # of TokenRow
    nodes: tuple  # of Node
    edges: tuple  # of Edge
    root: str

    @cached_property
    def _index(self):
        return _Index(self.nodes, self.edges, self.root)

    def node(self, node_id: str) -> Node:
        try:
            return self._index.by_id[node_id]
        except KeyError:
            raise KeyError("unknown node id: %r" % (node_id,)) from None

    def primary_children(self, node_id: str):
        """(edge, child_id) pairs over non-remote edges, input order."""
        return list(self._index.primary.get(node_id, ()))

    def remote_children(self, node_id: str):
        return list(self._index.remote.get(node_id, ()))

    def incoming_primary(self, node_id: str):
        return list(self._index.incoming.get(node_id, ()))


class _Index:
    """Lookups over a passage's nodes and edges. A Passage is immutable,
    so it builds its index once, on first use."""

    def __init__(self, nodes, edges, root):
        self.edges = edges
        self.root = root
        self.by_id = {}
        for n in nodes:
            self.by_id.setdefault(n.id, n)  # the first of duplicate ids
        self.primary, self.remote, self.incoming = {}, {}, {}
        for e in edges:
            children = self.remote if e.remote else self.primary
            children.setdefault(e.parent, []).append((e, e.child))
            if not e.remote:
                self.incoming.setdefault(e.child, []).append(e)

    @cached_property
    def order(self):
        """The nodes reached from the root over primary edges, each once
        and after its parent, walked with a stack of its own, so a deep
        chain needs no deep recursion and a cycle ends."""
        order, stack, reached = [], [self.root], {self.root}
        while stack:
            nid = stack.pop()
            order.append(nid)
            for _, c in self.primary.get(nid, ()):
                if c not in reached:
                    reached.add(c)
                    stack.append(c)
        return order

    @cached_property
    def yields(self):
        """Read-only map node id -> primary yield, computed bottom-up over
        the root walk; the primary edges must form one tree, as in a valid
        passage."""
        yields = {}
        for nid in reversed(self.order):
            n = self.by_id[nid]
            if n.is_terminal():
                yields[nid] = frozenset([n.position])
            else:
                yields[nid] = frozenset().union(
                    *[yields[c] for _, c in self.primary.get(nid, ())])
        return MappingProxyType(yields)

    @cached_property
    def signatures(self):
        """Read-only multiset (sorted yield, category, remote) -> count
        over the edges, the keys evaluator.score matches on."""
        sigs = Counter((tuple(sorted(self.yields[e.child])), e.category,
                        e.remote) for e in self.edges)
        return MappingProxyType(sigs)


def all_yields(passage: Passage):
    """node id -> primary yield (a read-only map, shared by all callers)."""
    return passage._index.yields


def is_contiguous(positions) -> bool:
    """True iff the positions form one unbroken run; an empty set, such
    as the yield of a node with no terminal below it, is not one."""
    if not positions:
        return False
    return max(positions) - min(positions) + 1 == len(positions)


def non_terminals(passage: Passage) -> list:
    """Non-terminal ids in pre-order over a valid passage's primary tree.

    Children are visited left to right by smallest yield position, which
    makes corpus expansion deterministic.
    """
    yields = all_yields(passage)
    order = []
    stack = [passage.root]
    while stack:
        nid = stack.pop()
        if not passage.node(nid).is_terminal():
            order.append(nid)
            # pushed right to left, so visited left to right
            stack.extend(sorted((c for _, c in passage.primary_children(nid)),
                                key=lambda c: (min(yields[c], default=-1), c),
                                reverse=True))
    return order


def validate(passage: Passage, require_contiguous=False) -> list:
    """Return a list of invariant violations; empty means valid.

    Contiguity of yields is only enforced on decoder output
    (require_contiguous=True); gold corpora may be discontinuous. One walk
    over the nodes and one over the edges gather every check of the
    passage's own records; the graph checks read the index.
    """
    index = passage._index
    by_id = index.by_id
    if len(by_id) != len(passage.nodes):
        ids = [n.id for n in passage.nodes]
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        return ["duplicate node ids: %s" % ", ".join(dupes)]

    root = passage.root
    if root not in by_id:
        return ["root %s not among nodes" % root]
    violations = []
    if by_id[root].kind == "terminal":
        violations.append("root %s is a terminal" % root)

    incoming = index.incoming
    parent_violations, positions = [], []
    for n in passage.nodes:
        if n.kind == "terminal":
            if n.position is None:
                violations.append("terminal without position: node %s" % n.id)
            positions.append(n.position)
        elif n.position is not None:
            violations.append("non-terminal with position: node %s" % n.id)
        if n.id != root:
            parents = len(incoming.get(n.id, ()))
            if parents == 0:
                parent_violations.append("no primary parent: node %s" % n.id)
            elif parents > 1:
                parent_violations.append("multiple primary parents: node %s"
                                         % n.id)

    remote_violations = []
    for e in passage.edges:
        parent, child = e.parent, e.child
        if parent == child:
            violations.append("self-loop: node %s" % parent)
        if parent not in by_id:
            violations.append("edge from unknown node %s" % parent)
        elif by_id[parent].kind == "terminal":
            violations.append("terminal with children: node %s" % parent)
        if child not in by_id:
            violations.append("edge to unknown node %s" % child)
        if e.category not in CATEGORY_SET:
            violations.append("unknown category %s on edge %s->%s"
                              % (e.category, parent, child))
        if e.remote and child == root:
            remote_violations.append("remote edge into root: %s->%s"
                                     % (parent, child))
    if violations:
        return violations

    if root in incoming:
        violations.append("root has incoming primary edge: node %s" % root)
    violations += parent_violations

    # Connectivity / acyclicity of the primary subgraph.
    # Cycles surface as either a multiple-parent violation (above) or as
    # nodes unreachable from the root.
    if len(index.order) != len(by_id):  # every edge's nodes are known
        reached = set(index.order)
        violations.extend("unreachable from root: node %s" % n.id
                          for n in passage.nodes if n.id not in reached)
    violations += remote_violations

    if not passage.tokens:
        violations.append("no tokens")
    # Token coverage: each position covered by exactly one terminal.
    positions.sort()
    expected = list(range(len(passage.tokens)))
    if positions != expected:
        violations.append("token coverage mismatch: terminals cover %s, "
                          "expected %s" % (positions, expected))

    if require_contiguous and not violations:
        yields = all_yields(passage)
        for n in passage.nodes:
            if not is_contiguous(yields[n.id]):
                violations.append("discontiguous yield: node %s" % n.id)
    return violations
