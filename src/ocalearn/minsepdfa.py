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
"n states suffice" as a graph-coloring CNF, and grow n from a known
lower bound (1, or the size of the previous hypothesis of a learning
session) until the SAT backend finds a model.
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
    """Assemble the sample set of a filled observation table."""
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
    conflict = set(samples.pos) & set(samples.neg)
    if conflict:
        raise SampleConflict("".join(map(str, sorted(conflict, key=_word_sort_key)[0])))
    apta = Apta(samples.alphabet)
    for word in samples.pos:
        apta.insert(word, True)
    for word in samples.neg:
        apta.insert(word, False)
    return apta


def _word_sort_key(word):
    return (len(word), tuple(str(sym) for sym in word))


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

    cnf.add(color[0][0])
    for v in range(apta.num_nodes):
        cnf.add(*color[v])
        for i in range(n):
            for j in range(i + 1, n):
                cnf.add(-color[v][i], -color[v][j])
        if apta.labels[v] is True:
            for i in range(n):
                cnf.add(-color[v][i], accepting[i])
        elif apta.labels[v] is False:
            for i in range(n):
                cnf.add(-color[v][i], -accepting[i])
    for sym in apta.alphabet:
        rows = trans[sym]
        for i in range(n):
            cnf.add(*rows[i])
            for j in range(n):
                for j2 in range(j + 1, n):
                    cnf.add(-rows[i][j], -rows[i][j2])
    for v in range(1, apta.num_nodes):
        parent, sym = apta.parent_edges[v]
        rows = trans[sym]
        for i in range(n):
            for j in range(n):
                cnf.add(-color[parent][i], -rows[i][j], color[v][j])
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
    negative sample, found by growing the state count from ``at_least``.
    ``solve`` maps a :class:`CnfInstance` to a model or None.

    ``at_least`` must not exceed the minimal size; then the first
    satisfiable rung, its CNF and its model are those of the search from
    1.  Within a learning session the size of the previous hypothesis is
    such a bound: the table never loses a word and its query caches hold
    fixed answers, so every sample set contains the previous one (and
    its op letters), and any DFA separating the new samples, restricted
    to the old alphabet, separates the old ones too: the minimal size
    never drops.
    """
    if at_least < 1:
        raise InvalidInput(f"at_least must be at least 1, got {at_least!r}")
    apta = build_apta(samples)
    for n in range(at_least, apta.num_nodes + 2):
        cnf = encode_size_n(apta, n)
        assignment = solve(cnf)
        if assignment is not None:
            dfa = decode_dfa(apta, assignment, n)
            _check_separates(dfa, samples)
            return dfa
    raise SolverError(f"no separating DFA of {at_least} to {apta.num_nodes + 1} "
                      "states; the backend is unsound or the lower bound too high")


def strip_operations(dfa: Dfa, ops) -> Dfa:
    """Restrict a DFA to the doubled alphabet, dropping op-letter edges."""
    op_set = set(ops)
    alphabet = tuple(sym for sym in dfa.alphabet if sym not in op_set)
    transition = {(q, sym): t for (q, sym), t in dfa.transition.items()
                  if sym not in op_set}
    return Dfa(states=dfa.states, alphabet=alphabet, initial=dfa.initial,
               transition=transition, finals=dfa.finals)


def _check_separates(dfa: Dfa, samples: SampleSet) -> None:
    for word in samples.pos:
        if not dfa.accepts(word):
            raise SolverError(f"decoded DFA rejects positive sample {word!r}")
    for word in samples.neg:
        if dfa.accepts(word):
            raise SolverError(f"decoded DFA accepts negative sample {word!r}")
