"""Minimal separating DFA from observation-table samples.

The sample words live over the doubled alphabet extended with one fresh
"operation" letter per distinct action vector.  For every table word w:
its encoding is a positive or negative sample according to membership;
the encoding followed by w's own action-vector letter is positive; and
the encoding followed by any dissimilar action-vector letter is
negative.  A minimal complete DFA consistent with the samples therefore
(1) decides membership of encoded table words and (2) never merges two
table words with dissimilar action vectors -- precisely what hypothesis
construction needs.

Identification is exact: build the prefix-tree acceptor, encode
"n states suffice" as a graph-coloring CNF, and grow n until the SAT
backend finds a model.  n starts at the larger of two lower bounds: the
size of the previous hypothesis of a learning session, and a clique of
pairwise incompatible prefix-tree nodes (Heule & Verwer, "Exact DFA
identification using SAT solvers", ICGI 2010), which need distinct
states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, doubled_alphabet
from .errors import InvalidInput, SampleConflict, SolverError
from .sat import CnfInstance, sat_solve
from .table import ActionsVector


@dataclass(frozen=True)
class SampleSet:
    """Positive/negative words over the doubled alphabet plus op letters.

    ``pos`` and ``neg`` are stored as deduplicated tuples in build order
    so downstream construction is deterministic.  Operation letters are
    the interned action vectors themselves and only ever occur as the
    final symbol of a word.
    """

    pos: tuple[tuple, ...]
    neg: tuple[tuple, ...]
    ops: tuple[ActionsVector, ...]
    base_alphabet: tuple[str, ...]

    @property
    def alphabet(self) -> tuple:
        return self.base_alphabet + self.ops


def build_samples(table) -> SampleSet:
    """Assemble the sample set of an observation table; its reads ask
    the teacher for every cell not yet cached."""
    words = table.words()
    ops_in_order = {}
    for w in words:
        ops_in_order.setdefault(table.actions(w), None)
    ops = tuple(ops_in_order)
    pos: dict[tuple, None] = {}
    neg: dict[tuple, None] = {}
    for w in words:
        enc = table.enc(w)
        vector = table.actions(w)
        if table.membership(w):
            pos[enc] = None
        else:
            neg[enc] = None
        pos[enc + (vector,)] = None
        for op in ops:
            if not vector.similar(op):
                neg[enc + (op,)] = None
    return SampleSet(pos=tuple(pos), neg=tuple(neg), ops=ops,
                     base_alphabet=doubled_alphabet(table.alphabet))


class Apta:
    """Prefix-tree acceptor: one node per distinct sample prefix."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.children: list[dict] = [{}]
        self.parent_edges: list[tuple[int, object] | None] = [None]
        self.labels: list[bool | None] = [None]

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    def insert(self, word, label: bool) -> None:
        node = 0
        for sym in word:
            nxt = self.children[node].get(sym)
            if nxt is None:
                nxt = len(self.children)
                self.children[node][sym] = nxt
                self.children.append({})
                self.parent_edges.append((node, sym))
                self.labels.append(None)
            node = nxt
        if self.labels[node] is not None and self.labels[node] != label:
            raise SampleConflict("".join(map(str, word)))
        self.labels[node] = label


def build_apta(samples: SampleSet) -> Apta:
    apta = Apta(samples.alphabet)
    for word in samples.pos:
        apta.insert(word, True)
    for word in samples.neg:
        apta.insert(word, False)
    return apta


def clique_bound(apta: Apta) -> int:
    """A lower bound on the size of any DFA consistent with the labels.

    Two nodes are incompatible when some common suffix leads them to
    opposite labels; no DFA may give them one state, so a set of pairwise
    incompatible nodes needs as many states.  Nodes with equal labelled
    subtrees are interchangeable and never incompatible, so the nodes are
    hash-consed into subtree classes, children first: a class's children
    are numbered before it, and the incompatibility of any two earlier
    classes is known when it is numbered.  The clique is picked greedily
    among the classes, in order of descending degree.
    """
    class_of = [0] * apta.num_nodes
    classes: dict[tuple, int] = {}
    labels: list[bool | None] = []
    edges: list[dict] = []              # symbol -> child class
    conflicts: list[int] = []           # bitmask of the classes each one clashes with
    for v in reversed(range(apta.num_nodes)):   # a child is numbered after its parent
        label = apta.labels[v]
        out = {sym: class_of[child] for sym, child in apta.children[v].items()}
        key = (label, frozenset(out.items()))
        if key not in classes:
            c = classes[key] = len(labels)
            mask = 0
            for d in range(c):
                if {label, labels[d]} == {True, False} or any(
                        sym in edges[d] and conflicts[child] >> edges[d][sym] & 1
                        for sym, child in out.items()):
                    mask |= 1 << d
                    conflicts[d] |= 1 << c
            labels.append(label)
            edges.append(out)
            conflicts.append(mask)
        class_of[v] = classes[key]
    clique = 0
    for c in sorted(range(len(labels)), key=lambda c: -conflicts[c].bit_count()):
        if clique & ~conflicts[c] == 0:
            clique |= 1 << c
    return clique.bit_count()


def _variables(apta: Apta, n: int):
    """The variables of :func:`encode_size_n`, numbered by formula:
    color(v,i) = v·n + i + 1, then accepting(i), then trans(a,i,j) by the
    index of symbol a.  Returns the three by index, and their count."""
    nodes = apta.num_nodes
    color = [[v * n + i + 1 for i in range(n)] for v in range(nodes)]
    accepting = [nodes * n + i + 1 for i in range(n)]
    first = (nodes + 1) * n + 1
    trans = {sym: [[first + (a * n + i) * n + j for j in range(n)] for i in range(n)]
             for a, sym in enumerate(apta.alphabet)}
    return color, accepting, trans, first - 1 + len(apta.alphabet) * n * n


def encode_size_n(apta: Apta, n: int) -> CnfInstance:
    """CNF satisfiable iff some complete n-state DFA matches every label.

    Variables: color(v,i) assigns node v to state i, accepting(i) marks
    state i final, and trans(a,i,j) fixes the successor of state i on
    symbol a, numbered in that order by :func:`_variables`, which
    :func:`decode_dfa` shares.  The root's color is pinned to 0 as
    symmetry breaking.
    """
    cnf = CnfInstance()
    color, accepting, trans, cnf.num_vars = _variables(apta, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    negated = [[-x for x in row] for row in color]
    rejecting = [-x for x in accepting]
    negated_trans = {sym: [[-x for x in row] for row in rows] for sym, rows in trans.items()}
    clauses = cnf.clauses
    clauses.append((color[0][0],))
    for v in range(apta.num_nodes):
        not_v = negated[v]
        clauses.append(tuple(color[v]))
        clauses.extend([(not_v[i], not_v[j]) for i, j in pairs])
        if apta.labels[v] is True:
            clauses.extend(zip(not_v, accepting))
        elif apta.labels[v] is False:
            clauses.extend(zip(not_v, rejecting))
    for sym in apta.alphabet:
        for row, not_row in zip(trans[sym], negated_trans[sym]):
            clauses.append(tuple(row))
            clauses.extend([(not_row[j], not_row[j2]) for j, j2 in pairs])
    for v in range(1, apta.num_nodes):
        parent, sym = apta.parent_edges[v]
        clauses.extend([(not_p, not_t, c)
                        for not_p, not_row in zip(negated[parent], negated_trans[sym])
                        for not_t, c in zip(not_row, color[v])])
    return cnf


def decode_dfa(apta: Apta, assignment: dict[int, bool], n: int) -> Dfa:
    """The n-state DFA of a model of ``encode_size_n(apta, n)``."""
    _, accepting, trans, _ = _variables(apta, n)
    finals = frozenset(i for i in range(n) if assignment[accepting[i]])
    transition = {(i, sym): j for sym, rows in trans.items()
                  for i in range(n) for j in range(n) if assignment[rows[i][j]]}
    return Dfa(states=tuple(range(n)), alphabet=apta.alphabet, initial=0,
               transition=transition, finals=finals)


def find_min_sep_dfa(samples: SampleSet, solve=sat_solve, at_least: int = 1) -> Dfa:
    """Smallest complete DFA accepting every positive and rejecting every
    negative sample, found by growing the state count from the larger of
    ``at_least`` and :func:`clique_bound`.  ``solve`` maps a
    :class:`CnfInstance` to a model or None.

    Both must be lower bounds on the minimal size: then every skipped rung
    is unsatisfiable, and the first satisfiable rung, its CNF and so its
    model are those of the search from 1.  The clique bound is one, as no
    DFA gives two incompatible nodes one state.  Within a learning
    session the size of the previous hypothesis is one too: the table
    never loses a word and its query caches hold fixed answers, so every
    sample set contains the previous one (and its op letters), and any
    DFA separating the new samples, restricted to the old alphabet,
    separates the old ones too: the minimal size never drops.
    """
    if at_least < 1:
        raise InvalidInput(f"at_least must be at least 1, got {at_least!r}")
    apta = build_apta(samples)
    start = max(at_least, clique_bound(apta))
    for n in range(start, apta.num_nodes + 2):
        cnf = encode_size_n(apta, n)
        assignment = solve(cnf)
        if assignment is not None:
            dfa = decode_dfa(apta, assignment, n)
            _check_separates(dfa, samples)
            return dfa
    raise SolverError(f"no separating DFA of {start} to {apta.num_nodes + 1} "
                      "states; the backend is unsound or the lower bound too high")


def _check_separates(dfa: Dfa, samples: SampleSet) -> None:
    for word in samples.pos:
        if not dfa.accepts(word):
            raise SolverError(f"decoded DFA rejects positive sample {word!r}")
    for word in samples.neg:
        if dfa.accepts(word):
            raise SolverError(f"decoded DFA accepts negative sample {word!r}")
