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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import Dfa, doubled_alphabet
from .errors import InvalidInput, SampleConflict, SolverError
from .sat import CnfInstance, check_deadline, sat_solve
from .table import ActionsVector

_ENCODE_CHECK_EVERY = 32       # prefix-tree nodes between two deadline checks


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

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    @cached_property
    def domains(self) -> tuple[int, list[int]]:
        """Clique pre-colouring (Heule & Verwer, ICGI 2010) of the
        finished tree: the size of :func:`clique_bound`'s clique, and
        per node a bitmask of the colours it may not take.  The k-th
        clique node may take colour k alone, and every node incompatible
        with it loses colour k."""
        clique = clique_bound(self)
        excluded = [0] * self.num_nodes
        for k, (node, clashes) in enumerate(clique):
            for v in clashes:
                excluded[v] |= 1 << k
            excluded[node] = ~(1 << k)
        return len(clique), excluded

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


def clique_bound(apta: Apta) -> list[tuple[int, list[int]]]:
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
    node.
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


def _variables(apta: Apta, n: int):
    """The variables of :func:`encode_size_n`, numbered by formula:
    color(v,i) = v·n + i + 1, then accepting(i), then trans(a,i,j) by the
    index of symbol a, then out(i,s,k) for each sign s with more than one
    vector (``out[s][i]`` is empty otherwise).  Returns the four by
    index, and their count."""
    nodes = apta.num_nodes
    color = [[v * n + i + 1 for i in range(n)] for v in range(nodes)]
    accepting = [nodes * n + i + 1 for i in range(n)]
    first = (nodes + 1) * n + 1
    trans = {sym: [[first + (a * n + i) * n + j for j in range(n)] for i in range(n)]
             for a, sym in enumerate(apta.alphabet)}
    first += len(apta.alphabet) * n * n
    out = []
    for vectors in apta.vectors:
        k = len(vectors) if len(vectors) > 1 else 0
        out.append([[first + i * k + j for j in range(k)] for i in range(n)])
        first += n * k
    return color, accepting, trans, out, first - 1


def encode_size_n(apta: Apta, n: int, deadline: float | None = None) -> CnfInstance:
    """CNF satisfiable iff some complete n-state DFA matches every label
    and holds at most one output per state and sign.

    Variables: color(v,i) assigns node v to state i, accepting(i) marks
    state i final, trans(a,i,j) fixes the successor of state i on symbol
    a, and out(i,s,k) gives state i the k-th vector of sign s, numbered
    in that order by :func:`_variables`, which :func:`decode_dfa` shares.
    A sign with one vector needs no out variables.

    Symmetry breaking by clique pre-colouring (:attr:`Apta.domains`):
    each node may take only the colours of its domain, and a unit clause
    removes every other.  The clauses of a node then range over its
    domain alone, since each clause dropped with a removed colour
    follows from its unit; a transition into a removed child colour j
    keeps the two-literal clause (¬color(p,i), ¬trans(a,i,j)).  A pinned
    node whose colour is not below n has an empty domain, which makes
    rungs below the clique size unsatisfiable.

    Each clause is a list of its own, of distinct, non-complementary,
    declared literals, so the builtin SAT backend watches it without a
    check or a copy (see :func:`~ocalearn.sat.sat_solve`); solving may
    reorder the literals inside it.

    ``deadline``, a :func:`time.monotonic` instant, is read every few
    dozen nodes of both node passes and once per state and symbol of
    the transition clauses; past it the encoder raises
    :class:`SolverTimeout`.
    """
    cnf = CnfInstance()
    cnf._well_formed = True
    color, accepting, trans, out, cnf.num_vars = _variables(apta, n)
    excluded = apta.domains[1]
    domains = [[i for i in range(n) if not mask >> i & 1] for mask in excluded]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    negated = [[-x for x in row] for row in color]
    rejecting = [-x for x in accepting]
    negated_trans = {sym: [[-x for x in row] for row in rows] for sym, rows in trans.items()}
    clauses = cnf.clauses
    for v, domain in enumerate(domains):
        if not v % _ENCODE_CHECK_EVERY:
            check_deadline(deadline)
        not_v = negated[v]
        clauses.extend([[not_v[i]] for i in range(n) if excluded[v] >> i & 1])
        clauses.append([color[v][i] for i in domain])
        clauses.extend([[not_v[i], not_v[j]] for k, i in enumerate(domain) for j in domain[k + 1:]])
        if apta.labels[v] is not None:
            finals = accepting if apta.labels[v] else rejecting
            clauses.extend([[not_v[i], finals[i]] for i in domain])
        if apta.outputs[v] is not None and out[apta.outputs[v][0]][0]:
            sign, k = apta.outputs[v]
            clauses.extend([[not_v[i], out[sign][i][k]] for i in domain])
    for row in out[0] + out[1]:
        clauses.extend([[-x, -y] for k, x in enumerate(row) for y in row[k + 1:]])
    for sym in apta.alphabet:
        for row, not_row in zip(trans[sym], negated_trans[sym]):
            check_deadline(deadline)
            clauses.append(list(row))
            clauses.extend([[not_row[j], not_row[j2]] for j, j2 in pairs])
    for v in range(1, apta.num_nodes):
        if not v % _ENCODE_CHECK_EVERY:
            check_deadline(deadline)
        parent, sym = apta.parent_edges[v]
        child = [None if excluded[v] >> j & 1 else c for j, c in enumerate(color[v])]
        for i in domains[parent]:
            not_p = negated[parent][i]
            clauses.extend([[not_p, not_t] if c is None else [not_p, not_t, c]
                            for not_t, c in zip(negated_trans[sym][i], child)])
    return cnf


def decode_dfa(apta: Apta, assignment: dict[int, bool], n: int) -> Dfa:
    """The n-state DFA of a model of ``encode_size_n(apta, n)``; its
    initial state is the root's colour.  A model that gives the root no
    colour, or some state no successor on some symbol, raises
    :class:`SolverError`."""
    color, accepting, trans, _, _ = _variables(apta, n)
    finals = frozenset(i for i in range(n) if assignment[accepting[i]])
    transition = {(i, sym): j for sym, rows in trans.items()
                  for i in range(n) for j in range(n) if assignment[rows[i][j]]}
    initial = next((i for i in range(n) if assignment[color[0][i]]), None)
    if initial is None:
        raise SolverError("the model gives the prefix-tree root no colour")
    if len(transition) < n * len(apta.alphabet):
        raise SolverError("the model leaves some state without a successor")
    return Dfa(states=tuple(range(n)), alphabet=apta.alphabet, initial=initial,
               transition=transition, finals=finals)


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
    once the prefix tree and its clique bound are built, before each
    rung's encoding and throughout it (see :func:`encode_size_n`); past
    it the search raises :class:`SolverTimeout`.
    """
    if at_least < 1:
        raise InvalidInput(f"at_least must be at least 1, got {at_least!r}")
    check_deadline(deadline)
    apta = build_apta(samples)
    start = max(at_least, apta.domains[0])
    for n in range(start, apta.num_nodes + 2):
        check_deadline(deadline)
        cnf = encode_size_n(apta, n, deadline)
        assignment = solve(cnf)
        if assignment is not None:
            dfa = decode_dfa(apta, assignment, n)
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
