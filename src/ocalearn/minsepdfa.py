"""Minimal separating DFA from observation-table samples.

The sample words live over the doubled alphabet.  Every table word w
gives one sample: its encoding, positive or negative according to
membership, with w's action vector as its output.  A minimal complete
DFA that matches every label and gives each state at most one output
per counter sign therefore (1) decides membership of encoded table words
and (2) never merges two table words with dissimilar action vectors --
precisely what hypothesis construction needs.  This is Moore-machine
identification (Giantamidis & Tripakis, FM 2016).

Identification is exact: build the prefix-tree acceptor, encode
"n states suffice" as a graph-coloring CNF, and grow n until the SAT
backend finds a model.  n starts at the larger of two lower bounds: the
size of the previous hypothesis of a learning session, and a clique of
pairwise incompatible prefix-tree nodes (Heule & Verwer, "Exact DFA
identification using SAT solvers", ICGI 2010), which need distinct
states.  The clique also breaks the symmetry of the colouring: its k-th
node is pinned to colour k, and every node incompatible with it loses
colour k, so each node's clauses range over the colours left to it.
:mod:`ocalearn.colouring` encodes each rung, keeping only what unit
propagation of the pins leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, doubled_alphabet
from .colouring import decode_dfa, encode_size_n
from .errors import InvalidInput, SampleConflict, SolverError, check_deadline
from .sat import sat_solve
from .table import ActionsVector

_CLIQUE_CHECK_EVERY = 32       # subtree classes between two deadline checks


@dataclass(frozen=True)
class SampleSet:
    """Positive/negative words over the doubled alphabet, and outputs.

    ``pos`` and ``neg`` are stored as deduplicated tuples in build order
    so downstream construction is deterministic.  ``outputs`` pairs each
    encoded table word with its action vector, in build order; plain
    identification leaves it empty.
    """

    pos: tuple[tuple, ...]
    neg: tuple[tuple, ...]
    alphabet: tuple[str, ...]
    outputs: tuple[tuple[tuple, ActionsVector], ...] = ()

    @property
    def ops(self) -> tuple[ActionsVector, ...]:
        """The distinct action vectors, in build order."""
        return tuple(dict.fromkeys(vector for _, vector in self.outputs))


def build_samples(table) -> SampleSet:
    """Assemble the sample set of an observation table; its reads ask
    the teacher for every cell not yet cached."""
    pos, neg, outputs = [], [], []
    for w in table.words():     # distinct words, so distinct encodings
        enc = table.enc(w)
        (pos if table.membership(w) else neg).append(enc)
        outputs.append((enc, table.actions(w)))
    return SampleSet(pos=tuple(pos), neg=tuple(neg),
                     alphabet=doubled_alphabet(table.alphabet), outputs=tuple(outputs))


class Apta:
    """Prefix-tree acceptor: one node per distinct sample prefix.  A
    node's output is a counter sign and the index of its vector among
    that sign's distinct vectors, ``vectors[sign]``.  Inserting a symbol
    outside ``alphabet`` raises :class:`InvalidInput`."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.children: list[dict] = [{}]
        self.parent_edges: list[tuple[int, object] | None] = [None]
        self.labels: list[bool | None] = [None]
        self.outputs: list[tuple[int, int] | None] = [None]
        self.vectors: tuple[dict, dict] = ({}, {})     # vector -> index, per sign
        self._domains = None

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    def domains(self, deadline: float | None = None) -> tuple[int, list[int]]:
        """Clique pre-colouring (Heule & Verwer, ICGI 2010) of the
        finished tree, worked out on the first call: the size of
        :func:`clique_bound`'s clique, and per node a bitmask of the
        colours it may not take.  The k-th clique node may take colour k
        alone, and every node incompatible with it loses colour k.
        ``deadline`` is passed to :func:`clique_bound`."""
        if self._domains is None:
            clique = clique_bound(self, deadline)
            excluded = [0] * self.num_nodes
            for k, (node, clashes) in enumerate(clique):
                for v in clashes:
                    excluded[v] |= 1 << k
                excluded[node] = ~(1 << k)
            self._domains = len(clique), excluded
        return self._domains

    def insert(self, word, label: bool | None, output: tuple[int, int] | None) -> None:
        node = 0
        for sym in word:
            nxt = self.children[node].get(sym)
            if nxt is None:
                if sym not in self.alphabet:
                    raise InvalidInput(f"symbol {sym!r} is not in the sample alphabet")
                nxt = len(self.children)
                self.children[node][sym] = nxt
                self.children.append({})
                self.parent_edges.append((node, sym))
                self.labels.append(None)
                self.outputs.append(None)
            node = nxt
        for values, value in ((self.labels, label), (self.outputs, output)):
            if value is not None:
                if values[node] not in (None, value):
                    raise SampleConflict("".join(map(str, word)))
                values[node] = value

    def word(self, node: int) -> tuple:
        """The sample prefix that leads to ``node``."""
        word = ()
        while (edge := self.parent_edges[node]) is not None:
            node, word = edge[0], (edge[1],) + word
        return word


def build_apta(samples: SampleSet) -> Apta:
    """The prefix tree of the samples, each word inserted once with its
    label and output; each sign's vectors numbered in ``samples.ops`` order."""
    apta = Apta(samples.alphabet)
    outputs = {}    # word -> (sign, index of its vector among that sign's)
    for word, vector in samples.outputs:
        index = apta.vectors[vector.sign]
        output = (vector.sign, index.setdefault(vector, len(index)))
        if outputs.setdefault(word, output) != output:
            raise SampleConflict("".join(map(str, word)))
    for words, label in ((samples.pos, True), (samples.neg, False)):
        for word in words:
            apta.insert(word, label, outputs.pop(word, None))
    for word, output in outputs.items():    # words with an output alone
        apta.insert(word, None, output)
    return apta


def clique_bound(apta: Apta, deadline: float | None = None) -> list[tuple[int, list[int]]]:
    """A clique of pairwise incompatible prefix-tree nodes, as pairs of
    one node and the nodes incompatible with it; its size is a lower
    bound on the size of any DFA consistent with the labels and outputs.

    Two nodes are incompatible when some common suffix leads them to
    opposite labels or to differing outputs of one sign; no DFA may give
    them one state, so a set of pairwise incompatible nodes needs as many
    states.  Nodes with equal labelled subtrees are interchangeable and
    never incompatible, so the nodes are hash-consed into subtree classes,
    children first: a class's children are numbered before it, and the
    incompatibility of any two earlier classes is known when it is
    numbered.  The clique is picked greedily among the classes, in order
    of descending degree, and each class is represented by its first
    node.  ``deadline``, a :func:`time.monotonic` instant, is read once
    every few dozen classes; past it the search raises
    :class:`SolverTimeout`.
    """
    class_of = [0] * apta.num_nodes
    classes: dict[tuple, int] = {}
    labels: list[bool | None] = []
    outputs: list[tuple[int, int] | None] = []
    edges: list[dict] = []              # symbol -> child class
    conflicts: list[int] = []           # bitmask of the classes each one clashes with
    for v in reversed(range(apta.num_nodes)):   # a child is numbered after its parent
        label, output = apta.labels[v], apta.outputs[v]
        out = {sym: class_of[child] for sym, child in apta.children[v].items()}
        key = (label, output, frozenset(out.items()))
        if key not in classes:
            c = classes[key] = len(labels)
            if not c % _CLIQUE_CHECK_EVERY:
                check_deadline(deadline)
            mask = 0
            for d in range(c):
                if {label, labels[d]} == {True, False} or (
                        output is not None and outputs[d] is not None
                        and output[0] == outputs[d][0] and output != outputs[d]) or any(
                        sym in edges[d] and conflicts[child] >> edges[d][sym] & 1
                        for sym, child in out.items()):
                    mask |= 1 << d
                    conflicts[d] |= 1 << c
            labels.append(label)
            outputs.append(output)
            edges.append(out)
            conflicts.append(mask)
        class_of[v] = classes[key]
    clique = []
    members = 0
    for c in sorted(range(len(labels)), key=lambda c: -conflicts[c].bit_count()):
        if members & ~conflicts[c] == 0:
            members |= 1 << c
            clique.append(c)
    return [(class_of.index(c), [v for v, d in enumerate(class_of) if conflicts[c] >> d & 1])
            for c in clique]


def find_min_sep_dfa(samples: SampleSet, solve=sat_solve, at_least: int = 1,
                     deadline: float | None = None) -> Dfa:
    """Smallest complete DFA accepting every positive and rejecting every
    negative sample, whose states each reach words of one sign with equal
    vectors only, found by growing the state count from the larger of
    ``at_least`` and :func:`clique_bound`.  ``solve`` maps a
    :class:`CnfInstance` to a model or None.

    Both must be lower bounds on the minimal size: then every skipped rung
    is unsatisfiable, and the first satisfiable rung, its CNF and so its
    model are those of the search from 1.  The clique bound is one, as no
    DFA gives two incompatible nodes one state.  Within a learning
    session the size of the previous hypothesis is one too: the table
    never loses a word and its query caches hold fixed answers, so every
    sample set contains the previous one, labels and outputs alike, and
    any DFA that fits the new samples fits the old ones: the minimal size
    never drops.

    ``deadline``, a :func:`time.monotonic` instant, is read at entry,
    while the clique bound is built (see :func:`clique_bound`), before
    each rung's encoding and throughout it (see :func:`encode_size_n`);
    past it the search raises :class:`SolverTimeout`.
    """
    if at_least < 1:
        raise InvalidInput(f"at_least must be at least 1, got {at_least!r}")
    check_deadline(deadline)
    apta = build_apta(samples)
    start = max(at_least, apta.domains(deadline)[0])
    for n in range(start, apta.num_nodes + 2):
        check_deadline(deadline)
        cnf = encode_size_n(apta, n, deadline)
        assignment = solve(cnf)
        if assignment is not None:
            dfa = decode_dfa(cnf, assignment)
            _check_separates(dfa, apta)
            return dfa
    raise SolverError(f"no separating DFA of {start} to {apta.num_nodes + 1} "
                      "states; the backend is unsound or the lower bound too high")


def _check_separates(dfa: Dfa, apta: Apta) -> None:
    states, held = [], {}   # the state of each node: each sample prefix is stepped once
    for v, (edge, label, output) in enumerate(zip(apta.parent_edges, apta.labels, apta.outputs)):
        state = dfa.initial if edge is None else dfa.transition[(states[edge[0]], edge[1])]
        states.append(state)
        if label is not None and (state in dfa.finals) != label:
            raise SolverError(f"decoded DFA mislabels sample {apta.word(v)!r}")
        if output is not None and held.setdefault((state, output[0]), output) != output:
            raise SolverError(f"decoded DFA merges two vectors of sign {output[0]} at "
                              f"state {state}, one of them at sample {apta.word(v)!r}")
