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

from .automata import Dfa, _bits, doubled_alphabet
from .colouring import decode_dfa, encode_size_n
from .errors import InvalidInput, SampleConflict, SolverError, check_deadline, check_type
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
    """Assemble the sample set of an observation table from its caches of
    encodings, membership bits and action vectors; a word missing from one
    goes through ``enc``, ``membership`` or ``actions``, which may ask the teacher."""
    pos, neg, outputs = [], [], []
    codes, memb, vector_of = table._codes, table.memb, table._vector_of
    for w in table.words():     # distinct words, so distinct encodings
        enc, bit, vector = codes.get(w), memb.get(w), vector_of.get(w)
        if enc is None:
            enc = table.enc(w)
        (pos if (table.membership(w) if bit is None else bit) else neg).append(enc)
        outputs.append((enc, table.actions(w) if vector is None else vector))
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
        finished tree, worked out on the first call: the size of the
        clique of :func:`_class_clique`, which reads ``deadline``, and per
        node a bitmask of the colours it may not take.  The first node of
        the k-th clique class may take colour k alone, and every node
        incompatible with it loses colour k; the masks are worked out per
        subtree class, as a node clashes with what its class clashes with."""
        if self._domains is None:
            class_of, conflicts, clique = _class_clique(self, deadline)
            class_excluded = [0] * len(conflicts)
            for k, c in enumerate(clique):
                for other in _bits(conflicts[c]):
                    class_excluded[other] |= 1 << k
            excluded = [class_excluded[c] for c in class_of]
            for k, c in enumerate(clique):
                excluded[class_of.index(c)] = ~(1 << k)
            self._domains = len(clique), excluded
        return self._domains

    def insert(self, word, label: bool | None, output: tuple[int, int] | None) -> None:
        node, children = 0, self.children
        for sym in word:
            nxt = children[node].get(sym)
            if nxt is None:
                if sym not in self.alphabet:
                    raise InvalidInput(f"symbol {sym!r} is not in the sample alphabet")
                nxt = len(children)
                children[node][sym] = nxt
                children.append({})
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


def _class_clique(apta: Apta, deadline: float | None) -> tuple[list[int], list[int], list[int]]:
    """A clique of pairwise incompatible prefix-tree nodes, a lower bound
    on the size of any DFA consistent with the labels and outputs: the
    subtree class of each node, each class's conflicts and the clique's classes.

    Two nodes are incompatible when some common suffix leads them to
    opposite labels or to differing outputs of one sign; no DFA may give
    them one state, so a set of pairwise incompatible nodes needs as many
    states.  Nodes with equal labelled subtrees are interchangeable and
    never incompatible, so the nodes are hash-consed into subtree classes,
    children first, and a class's children are numbered before it.  A
    class is keyed by its label, its output and its (symbol, child class)
    edges sorted by symbol, so the order in which the children were
    inserted does not matter.

    Each class's conflicts, a bitmask over all classes, are then worked
    out in that order from OR-ed bitmasks, with no pairwise scan: the
    classes of the opposite label, those with another output of the same
    sign, and, per child on a symbol, the classes whose child on that
    symbol clashes with it.  That last mask is kept per (symbol, child
    class); it is the OR of the parent masks on that symbol of the
    child's conflicts, which are complete, as the child is numbered
    first.  Its loop peels the set bits off in place: a :func:`_bits`
    generator per mask cost a 7-state round about 1%.  The clique's
    classes are picked greedily, in order of descending degree.
    ``deadline``, a :func:`time.monotonic` instant, is read once every 32
    classes of the second pass; past it the search raises
    :class:`SolverTimeout`.
    """
    class_of = [0] * apta.num_nodes
    classes: dict[tuple, int] = {}
    kinds: list[tuple] = []                 # (label, output, edges) of each class
    labelled = {True: 0, False: 0}          # bitmasks of the classes of each label
    signed = [0, 0]                         # ... with an output of each sign
    same_output: dict[tuple[int, int], int] = {}    # ... with each output
    parents: dict = {sym: {} for sym in apta.alphabet}  # sym -> class -> classes with it as sym-child
    is_child = dict.fromkeys(apta.alphabet, 0)          # sym -> classes that are a sym-child
    for v in reversed(range(apta.num_nodes)):   # a child is numbered after its parent
        label, output, children = apta.labels[v], apta.outputs[v], apta.children[v]
        if not children:
            out = ()
        elif len(children) == 1:
            [(sym, child)] = children.items()
            out = ((sym, class_of[child]),)
        else:
            out = tuple(sorted([(sym, class_of[child]) for sym, child in children.items()]))
        key = (label, output, out)
        c = classes.get(key)
        if c is None:
            c = classes[key] = len(kinds)
            kinds.append(key)
            bit = 1 << c
            if label is not None:
                labelled[label] |= bit
            if output is not None:
                signed[output[0]] |= bit
                same_output[output] = same_output.get(output, 0) | bit
            for sym, child in out:
                parents[sym][child] = parents[sym].get(child, 0) | bit
                is_child[sym] |= 1 << child
        class_of[v] = c
    conflicts: list[int] = []           # bitmask of the classes each one clashes with
    clashing: dict[tuple, int] = {}     # (sym, class) -> classes whose sym-child clashes with it
    for c, (label, output, out) in enumerate(kinds):
        if not c % _CLIQUE_CHECK_EVERY:
            check_deadline(deadline)
        mask = 0 if label is None else labelled[not label]
        if output is not None:
            mask |= signed[output[0]] & ~same_output[output]
        for edge in out:
            m = clashing.get(edge)
            if m is None:
                sym, child = edge
                of = parents[sym]
                m = 0
                rest = conflicts[child] & is_child[sym]
                while rest:
                    low = rest & -rest
                    m |= of[low.bit_length() - 1]
                    rest ^= low
                clashing[edge] = m
            mask |= m
        conflicts.append(mask)
    clique = []
    members = 0
    for c in sorted(range(len(kinds)), key=[-mask.bit_count() for mask in conflicts].__getitem__):
        if members & ~conflicts[c] == 0:
            members |= 1 << c
            clique.append(c)
    return class_of, conflicts, clique


class SeparatingDfa(Dfa):
    """A DFA of :func:`find_min_sep_dfa`, with the prefix tree it
    separates, the state of each tree node, and the output that each
    state holds per counter sign, keyed by (state, sign).  These three
    are plain attributes, not dataclass fields, so they take no part in
    equality; they and the DFA's fields are set in one ``__dict__`` update."""

    def __init__(self, dfa: Dfa, apta: Apta, node_states: list, outputs: dict):
        self.__dict__.update(vars(dfa), apta=apta, node_states=node_states, outputs=outputs)


def find_min_sep_dfa(samples: SampleSet, solve=sat_solve, at_least: int = 1,
                     deadline: float | None = None) -> SeparatingDfa:
    """Smallest complete DFA accepting every positive and rejecting every
    negative sample, whose states each reach words of one sign with equal
    vectors only, found by growing the state count from the larger of
    ``at_least`` and the clique of :meth:`Apta.domains`.  ``solve`` maps a
    :class:`CnfInstance` to a model or None.  The DFA comes with the
    prefix tree, the state of each node and each state's outputs, from
    the one run over the tree that checks the model.

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
    while the clique bound is built (see :func:`_class_clique`), before
    each rung's encoding and throughout it (see :func:`encode_size_n`);
    past it the search raises :class:`SolverTimeout`.
    """
    check_type("at_least", at_least, int)
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
            states, outputs = _check_separates(dfa, apta)
            return SeparatingDfa(dfa, apta, states, outputs)
    raise SolverError(f"no separating DFA of {start} to {apta.num_nodes + 1} "
                      "states; the backend is unsound or the lower bound too high")


def _check_separates(dfa: Dfa, apta: Apta) -> tuple[list, dict]:
    """The state of each node, each sample prefix stepped once, and the
    output each state holds per sign; a node that the DFA mislabels or
    whose vector it merges with another raises :class:`SolverError`."""
    states, held, transition, finals = [], {}, dfa.transition, dfa.finals
    for v, (edge, label, output) in enumerate(zip(apta.parent_edges, apta.labels, apta.outputs)):
        state = dfa.initial if edge is None else transition[(states[edge[0]], edge[1])]
        states.append(state)
        if label is not None and (state in finals) != label:
            raise SolverError(f"decoded DFA mislabels sample {apta.word(v)!r}")
        if output is not None and held.setdefault((state, output[0]), output) != output:
            raise SolverError(f"decoded DFA merges two vectors of sign {output[0]} at "
                              f"state {state}, one of them at sample {apta.word(v)!r}")
    return states, held
