"""Deterministic synthetic corpus for the benchmark.

Every passage is a UCCA-style graph that the oracle tagger reproduces
exactly under rucca's three decoding constraints:

- every scene (H unit) has a verb or an action noun as its one P child,
  so scene merging never fires once the action-noun lexicon is loaded;
- every multiword expression sits inside one participant (A unit), so
  no H/A boundary falls inside an MWE;
- remote edges point at a participant of another scene, whose yield is
  contiguous and owned by a single node.

The same seed gives the same passages and byte-identical files. A seed
chooses words and the order of structures; the numbers of participants,
tokens and nodes of a passage depend only on its scene count (see _deck),
and the scene counts of a set only on its size, so the benchmark's
figures compare across seeds.
"""

import os
import random

from rucca.corpus import save_passages
from rucca.graph import Edge, Node, Passage, make_token

DETERMINERS = (("the", "DT"), ("a", "DT"), ("this", "DT"), ("every", "DT"))
ADJECTIVES = ("big", "red", "old", "quiet", "small", "bright", "green",
              "heavy", "strange", "young", "warm", "narrow")
NOUNS = ("guitar", "dog", "house", "tree", "book", "river", "song", "teacher",
         "garden", "letter", "window", "farmer", "bridge", "market", "child",
         "painter", "boat", "village", "lamp", "doctor", "horse", "camera",
         "student", "kitchen", "forest", "engine", "poem", "island")
PROPER = ("Anna", "Boris", "Chen", "Dara", "Emil", "Farah")
PRONOUNS = ("she", "he", "they", "it", "we")
VERBS = (("runs", "ran"), ("sings", "sang"), ("plays", "played"),
         ("sees", "saw"), ("takes", "took"), ("builds", "built"),
         ("reads", "read"), ("paints", "painted"), ("finds", "found"),
         ("carries", "carried"), ("opens", "opened"),
         ("watches", "watched"), ("writes", "wrote"),
         ("crosses", "crossed"), ("visits", "visited"),
         ("repairs", "repaired"), ("follows", "followed"),
         ("sells", "sold"))
AUXILIARIES = ("will", "can", "must", "may")
ADVERBS = ("loudly", "today", "slowly", "often", "carefully", "again",
           "quickly", "there")
LINKERS = (("and", "CCONJ", "CC"), ("but", "CCONJ", "CC"),
           ("because", "SCONJ", "IN"), ("so", "CCONJ", "CC"),
           ("then", "ADV", "RB"), ("while", "SCONJ", "IN"))
# Nouns that head a scene; listed in the action-noun lexicon.
ACTION_NOUNS = ("arrival", "decision", "meeting", "departure", "discussion",
                "performance", "celebration", "journey", "protest",
                "rehearsal")
# Multiword expressions used in the passages. Their words appear nowhere
# else, so the matcher never joins words of two different units.
MWES = (("ice", "cream"), ("post", "office"), ("real", "estate"),
        ("living", "room"), ("swimming", "pool"), ("credit", "card"),
        ("high", "school"), ("fire", "station"), ("city", "hall"),
        ("peanut", "butter", "jar"), ("washing", "machine", "repair"),
        ("board", "game", "night"))
# Lexicon entries that never occur in a passage, so the matcher also tries
# prefixes that fail. The size is an arbitrary choice, not taken from a
# real lexicon: lexicon.match scans every entry on each call, so its cost
# grows with this number and its figures hold for this size only.
FILLER_WORDS = ("alder", "basalt", "cinder", "dapple", "ember", "fennel",
                "gravel", "hollow", "indigo", "juniper", "kestrel", "lichen",
                "marrow", "nettle", "ochre", "pewter", "quartz", "russet",
                "sorrel", "tallow")
FILLER_LEXICON_SIZE = 300


def _deck(rng, shares, n):
    """n choices in seeded order whose multiset depends only on n.

    Each option appears round(n * share) times (largest remainders take
    the leftover draws), so a passage of a given scene count always has
    the same mix of structures and only their order and words vary.
    """
    counts = {k: int(n * share) for k, share in shares.items()}
    by_remainder = sorted(shares, key=lambda k: counts[k] - n * shares[k])
    for k in by_remainder[:n - sum(counts.values())]:
        counts[k] += 1
    items = [k for k in shares for _ in range(counts[k])]
    rng.shuffle(items)
    return items


def _yes(share):
    return {True: share, False: 1.0 - share}


class _Plan:
    """Structural choices for every scene and participant of a passage."""

    def __init__(self, rng, n_scenes):
        self.aux = _deck(rng, _yes(0.25), n_scenes)
        self.action = _deck(rng, _yes(0.25), n_scenes)
        self.object = _deck(rng, _yes(0.7), n_scenes)
        self.adverb = _deck(rng, _yes(0.4), n_scenes)
        self.np_kind = _deck(rng, {"adj": 0.55, "single": 0.25, "mwe": 0.2},
                             n_scenes + self.object.count(True))
        self.determiner = _deck(rng, _yes(0.6), self.np_kind.count("adj"))
        self.mwe_length = _deck(rng, {2: 0.75, 3: 0.25},
                                self.np_kind.count("mwe"))


class _Builder:
    """Accumulates one passage's tokens, nodes and edges."""

    def __init__(self, rng, plan):
        self.rng = rng
        self.plan = plan
        self.tokens = []  # [form, upos, xpos, morph, head, deprel]
        self.nodes = []
        self.edges = []
        self._next = 0

    def nonterminal(self):
        nid = "n%d" % self._next
        self._next += 1
        self.nodes.append(Node(nid, "nonterminal"))
        return nid

    def token(self, parent, category, form, upos, xpos, deprel, morph=None):
        position = len(self.tokens)
        self.tokens.append([form, upos, xpos, morph or {}, None, deprel])
        tid = "t%d" % position
        self.nodes.append(Node(tid, "terminal", position))
        self.edges.append(Edge(parent, tid, category))
        return position

    def noun_phrase(self, parent, category, deprel):
        """A participant; returns (child node id, head token position)."""
        rng = self.rng
        kind = self.plan.np_kind.pop()
        if kind == "single":
            if rng.random() < 0.5:
                form, upos, xpos = rng.choice(PRONOUNS), "PRON", "PRP"
            else:
                form, upos, xpos = rng.choice(PROPER), "PROPN", "NNP"
            pos = self.token(parent, category, form, upos, xpos, deprel)
            return "t%d" % pos, pos
        node = self.nonterminal()
        self.edges.append(Edge(parent, node, category))
        first = len(self.tokens)
        if kind == "mwe":  # determiner + multiword noun
            form, xpos = rng.choice(DETERMINERS)
            self.token(node, "F", form, "DET", xpos, "det")
            length = self.plan.mwe_length.pop()
            words = rng.choice([m for m in MWES if len(m) == length])
            for word in words[:-1]:
                self.token(node, "E", word, "NOUN", "NN", "compound")
            head = self.token(node, "C", words[-1], "NOUN", "NN", deprel,
                              {"Number": "Sing"})
        else:
            if self.plan.determiner.pop():
                form, xpos = rng.choice(DETERMINERS)
                self.token(node, "F", form, "DET", xpos, "det")
            self.token(node, "E", rng.choice(ADJECTIVES), "ADJ", "JJ",
                       "amod")
            plural = rng.random() < 0.3
            noun = rng.choice(NOUNS)
            head = self.token(node, "C", noun + "s" if plural else noun,
                              "NOUN", "NNS" if plural else "NN", deprel,
                              {"Number": "Plur" if plural else "Sing"})
        for i in range(first, len(self.tokens)):
            if i != head:
                self.tokens[i][4] = head
        return node, head

    def scene(self, parent):
        """Scene children: A, optional F, one P, optional A and D.
        Returns (participant ids usable as remote targets, P position)."""
        rng, plan = self.rng, self.plan
        targets = []
        dependents = []
        target, head = self.noun_phrase(parent, "A", "nsubj")
        targets.append(target)
        dependents.append(head)
        if plan.aux.pop():
            dependents.append(self.token(parent, "F", rng.choice(AUXILIARIES),
                                         "AUX", "MD", "aux"))
        if plan.action.pop():
            predicate = self.token(parent, "P", rng.choice(ACTION_NOUNS),
                                   "NOUN", "NN", "root", {"Number": "Sing"})
        else:
            past = rng.random() < 0.3
            present, past_form = rng.choice(VERBS)
            predicate = self.token(
                parent, "P", past_form if past else present, "VERB",
                "VBD" if past else "VBZ", "root",
                {"Tense": "Past" if past else "Pres"})
        if plan.object.pop():
            target, head = self.noun_phrase(parent, "A", "obj")
            targets.append(target)
            dependents.append(head)
        if plan.adverb.pop():
            dependents.append(self.token(parent, "D", rng.choice(ADVERBS),
                                         "ADV", "RB", "advmod"))
        for i in dependents:
            self.tokens[i][4] = predicate
        return targets, predicate

    def passage(self, pid, n_scenes, language="en"):
        rng = self.rng
        root = self.nonterminal()
        if n_scenes == 1:
            _, predicate = self.scene(root)
            predicates = [predicate]
        else:
            scene_targets, scene_nodes, predicates = [], [], []
            linkers = []
            for si in range(n_scenes):
                if si > 0:
                    form, upos, xpos = rng.choice(LINKERS)
                    linkers.append(self.token(root, "L", form, upos, xpos,
                                              "cc"))
                scene = self.nonterminal()
                self.edges.append(Edge(root, scene, "H"))
                targets, predicate = self.scene(scene)
                scene_targets.append(targets)
                scene_nodes.append(scene)
                predicates.append(predicate)
            for i, linker in enumerate(linkers):
                self.tokens[linker][4] = predicates[i + 1]
            # One remote participant per multi-scene passage.
            i = rng.randrange(n_scenes)
            j = (i + 1 + rng.randrange(n_scenes - 1)) % n_scenes
            self.edges.append(Edge(scene_nodes[i],
                                   rng.choice(scene_targets[j]), "A",
                                   remote=True))
        self.tokens[predicates[0]][4] = "root"
        for p in predicates[1:]:
            self.tokens[p][4] = predicates[0]
            self.tokens[p][5] = "conj"
        self.tokens[0][0] = self.tokens[0][0][:1].upper() \
            + self.tokens[0][0][1:]
        tokens = tuple(make_token(form, upos, xpos=xpos, morph=morph,
                                  head=head, deprel=deprel,
                                  language=language)
                       for form, upos, xpos, morph, head, deprel
                       in self.tokens)
        return Passage(passage_id=pid, language=language, tokens=tokens,
                       nodes=tuple(self.nodes), edges=tuple(self.edges),
                       root=root)


def generate(rng, count, scenes, prefix):
    """`count` passages whose scene counts spread evenly over `scenes` =
    (min, max), both ends included when count > 1."""
    lo, hi = scenes
    scene_counts = [lo + round(i * (hi - lo) / max(count - 1, 1))
                    for i in range(count)]
    rng.shuffle(scene_counts)
    return [_Builder(rng, _Plan(rng, n)).passage("%s%04d" % (prefix, i), n)
            for i, n in enumerate(scene_counts)]


def mwe_lexicon_lines(rng):
    filler = set()
    while len(filler) < FILLER_LEXICON_SIZE:
        size = rng.choice((2, 2, 3))
        filler.add(" ".join(rng.choice(FILLER_WORDS) for _ in range(size)))
    # Prefixes of real expressions extended by a word that never follows.
    extended = {" ".join(m + ("cone",)) for m in MWES}
    return sorted({" ".join(m) for m in MWES} | filler | extended)


def non_terminal_count(passage):
    return sum(1 for n in passage.nodes if not n.is_terminal())


def write_conll(passages, path):
    """7-column CoNLL: ID FORM UPOS XPOS FEATS HEAD DEPREL."""
    with open(path, "w", encoding="utf-8") as f:
        for p in passages:
            for i, tok in enumerate(p.tokens, 1):
                head = "0" if tok.head == "root" else str(tok.head + 1)
                feats = "|".join("%s=%s" % kv for kv in tok.morph) or "_"
                f.write("\t".join((str(i), tok.form, tok.upos, tok.xpos,
                                   feats, head, tok.deprel)) + "\n")
            f.write("\n")


def write_lines(lines, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def write_corpus(directory, seed, scenes, sets):
    """Write the benchmark inputs for one seed into `directory`.

    `sets` maps a set name to its passage count, e.g. {"train": 6,
    "dev": 6, "test": 12}. Each set is written as <name>.jsonl (gold
    passages) and <name>.conll (its tokens); mwe.txt and action_nouns.txt
    are the lexicons. Returns {name: passages}.
    """
    rng = random.Random(seed)
    corpus = {}
    for name, count in sets.items():
        corpus[name] = generate(rng, count, scenes, name)
        save_passages(corpus[name], os.path.join(directory, name + ".jsonl"))
        write_conll(corpus[name], os.path.join(directory, name + ".conll"))
    write_lines(mwe_lexicon_lines(rng), os.path.join(directory, "mwe.txt"))
    write_lines(ACTION_NOUNS, os.path.join(directory, "action_nouns.txt"))
    return corpus
