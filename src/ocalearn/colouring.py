"""The n-state colouring CNF of a prefix tree, and its decoder.

Whether n states suffice is a graph-colouring question over the prefix
tree (Heule & Verwer, "Exact DFA identification using SAT solvers",
ICGI 2010, with the output variables of Moore-machine identification).
The clique pins of :meth:`~ocalearn.minsepdfa.Apta.domains` decide most
of that CNF: unit propagation of its clauses, run on the tree itself,
colours most nodes, fixes most transitions and refutes most rungs that
cannot be coloured.  The builtin solver's first descent, run on the tree
as well, answers most other rungs without a clause: 240 of the 258 of a
``learn-random`` benchmark round, 10 of its 16 on ``learn-frontier``.
:func:`encode_size_n` numbers only the variables that propagation
leaves open and builds exactly the clauses it leaves, each at-most-one
row as one group, only when they are read; :func:`decode_dfa` reads a
model through the fixed values.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from .automata import Dfa
from .errors import SolverError, check_deadline
from .sat import AtMostOne, CnfInstance

if TYPE_CHECKING:
    from .minsepdfa import Apta

_CHECK_EVERY = 32       # propagation steps or nodes between two deadline checks


class ColouringCnf(CnfInstance):
    """The CNF of :func:`encode_size_n` over its free variables, with the
    values that unit propagation fixed.  ``color[v][i]``,
    ``accepting[i]``, ``trans[a][i][j]`` and ``out[s][i][k]`` follow the
    variables of the full encoding; each entry is a fixed value, a bool,
    or the number of a free variable, an int.  ``model`` is the builtin
    solver's model where the encoder's descent found it, else None.
    ``clauses``, given as a list or as the function that builds it, is
    built on its first read.  A refuted instance holds the empty clause
    alone, and no entries."""

    def __init__(self, clauses):
        self.num_vars = 0
        self._well_formed = True
        self._clauses = clauses
        self.model: dict[int, bool] | None = None
        self.color: list = []
        self.accepting: list = []
        self.trans: dict = {}
        self.out: list = []

    @property
    def clauses(self) -> list:
        if callable(self._clauses):
            self._clauses = self._clauses()
        return self._clauses


class _Refuted(Exception):
    """Unit propagation derived the empty clause."""


def _propagate(apta: Apta, n: int, excluded: list[int], deadline: float | None):
    """Level-0 unit propagation of the full encoding, on the prefix tree,
    then the builtin solver's descent up to its first conflict.

    Returns the values at level 0 and those after the descent, None where
    it met a conflict: each node's colour domain and, per symbol and
    state, the set of possible successors, as bitmasks, then per state
    its fixed acceptance and per sign its fixed vector index (None where
    free).  A node or successor set left with one element has its
    variable true; left with none at level 0, it raises
    :class:`_Refuted`.  The rules are
    the unit steps of the clauses: a coloured labelled node fixes its
    state's acceptance, and a fixed acceptance removes that colour from
    every node with the other label; a coloured node with an output of a
    sign with several vectors fixes its state's vector, and every node
    with another vector of that sign loses the colour; a parent coloured
    i narrows its (symbol, i) successor set to its child's colours; and
    a successor set {j} colours with j the child of every parent
    coloured i, and removes colour i from every parent whose child lacks
    j.  At n = 1 every successor set starts as a single state.

    With every activity at 0, the solver decides the lowest free
    variable with the phase False, and the colours come first, by node
    and colour.  So the descent removes the lowest colour of the lowest
    open node and propagates again, until every node is coloured.  Both
    read ``deadline`` every 32 steps, on one count."""
    full = (1 << n) - 1
    dom = [~mask & full for mask in excluded]
    succ = {sym: [full] * n for sym in apta.alphabet}
    accepting: list[bool | None] = [None] * n
    held: list[list[int | None]] = [[None] * n, [None] * n]
    split = [len(vectors) > 1 for vectors in apta.vectors]
    labelled: tuple[list, list] = ([], [])        # nodes by label
    carriers: tuple[dict, dict] = ({}, {})        # per sign: vector index -> nodes
    edges = {sym: [] for sym in apta.alphabet}    # (parent, child) per symbol
    for v, (label, output, edge) in enumerate(zip(apta.labels, apta.outputs,
                                                  apta.parent_edges)):
        if label is not None:
            labelled[label].append(v)
        if output is not None:
            carriers[output[0]].setdefault(output[1], []).append(v)
        if edge is not None:
            edges[edge[1]].append((edge[0], v))
    if 0 in dom:
        raise _Refuted
    pending = [v for v, d in enumerate(dom) if not d & (d - 1)]   # domains that shrank
    singles = [(sym, 0) for sym in apta.alphabet] if n == 1 else []
    decided = {sym: int(n == 1) for sym in apta.alphabet}  # states with one successor
    coloured = bytearray(len(dom))

    def restrict(v, mask):
        d = dom[v]
        if d & mask != d:
            d &= mask
            if not d:
                raise _Refuted
            dom[v] = d
            pending.append(v)

    def narrow(sym, i, mask):
        row = succ[sym]
        s = row[i]
        if s & mask != s:
            s &= mask
            if not s:
                raise _Refuted
            row[i] = s
            if not s & (s - 1):
                decided[sym] |= 1 << i
                singles.append((sym, i))
        return s

    steps = 0

    def run():
        nonlocal steps
        while pending or singles:
            if not steps % _CHECK_EVERY:
                check_deadline(deadline)
            steps += 1
            if singles:
                # trans(sym, i, j) is true: a parent coloured i colours its
                # child j, and a parent whose child lacks j loses colour i
                sym, i = singles.pop()
                s, bit = succ[sym][i], 1 << i
                for p, w in edges[sym]:
                    if dom[p] == bit and dom[w] != s:
                        restrict(w, s)
                    elif dom[p] & bit and not dom[w] & s:
                        restrict(p, ~bit)
                continue
            v = pending.pop()
            d = dom[v]
            if (edge := apta.parent_edges[v]) is not None:
                p, sym = edge
                dp, row = dom[p], succ[sym]
                if not dp & (dp - 1):       # the parent's successor is among v's colours
                    narrow(sym, dp.bit_length() - 1, d)
                elif dp & decided[sym]:
                    for i in range(n):      # a parent colour whose one successor v lacks
                        s = row[i]
                        if dp >> i & 1 and not s & (s - 1) and not s & d:
                            restrict(p, ~(1 << i))
            if d & (d - 1) or coloured[v]:
                continue
            coloured[v] = 1
            i = d.bit_length() - 1
            label, output = apta.labels[v], apta.outputs[v]
            if label is not None and accepting[i] is None:
                accepting[i] = label
                for w in labelled[not label]:
                    if dom[w] & d:
                        restrict(w, ~d)
            if output is not None and split[output[0]] and held[output[0]][i] is None:
                held[output[0]][i] = output[1]
                for k, nodes in carriers[output[0]].items():
                    if k != output[1]:
                        for w in nodes:
                            if dom[w] & d:
                                restrict(w, ~d)
            for sym, w in apta.children[v].items():
                s = narrow(sym, i, dom[w])
                if not s & (s - 1) and dom[w] != s:
                    restrict(w, s)
    run()
    level0 = (dom[:], {sym: row[:] for sym, row in succ.items()}, accepting[:],
              [row[:] for row in held])
    try:
        for v in range(len(dom)):
            while dom[v] & (dom[v] - 1):    # decide color(v, i) false for v's lowest colour i
                restrict(v, ~(dom[v] & -dom[v]))
                run()
    except _Refuted:
        return level0, None
    return level0, (dom, succ, accepting, held)


def encode_size_n(apta: Apta, n: int, deadline: float | None = None) -> ColouringCnf:
    """CNF satisfiable iff some complete n-state DFA matches every label
    and holds at most one output per state and sign.

    The full encoding has the variables color(v,i), node v in state i;
    accepting(i), state i final; trans(a,i,j), the successor of state i
    on symbol a is j; and out(i,s,k), state i gives the k-th vector of
    sign s, for each sign with more than one vector.  Each node takes
    exactly one colour and each state exactly one successor per symbol;
    a coloured node fixes its state's acceptance by its label and its
    state's vector by its output; a state holds one vector per sign; and
    color(p,i) ∧ trans(a,i,j) → color(v,j) for every edge p -a-> v.  The
    "at most one" of each colour, successor and output row is its
    pairwise clauses, here one :class:`~ocalearn.sat.AtMostOne` group.

    Symmetry breaking by clique pre-colouring (:meth:`Apta.domains`)
    removes colours up front, and unit propagation of the clauses on
    the prefix tree (:func:`_propagate`) decides most of the rest before
    any solver runs.  The instance numbers only the variables left free,
    in the order above (colours by node then colour, acceptance,
    transitions by symbol, state and successor, outputs), and holds only
    the clauses that the fixed values leave unsatisfied, in the full
    encoding's order, without their false literals: exactly the formula
    the builtin solver would have after its own level-0 propagation.  A
    refuted rung, among them every rung below the clique size, is the
    empty clause alone.  :func:`decode_dfa` reads a model through the
    fixed values.

    The propagation goes on with the builtin solver's own descent, which
    meets its first conflict where the descent of :func:`_propagate`
    empties a domain: the rules are the unit steps of these clauses.
    Where it empties none, the solver meets no conflict, so the instance
    carries its model (``model``): the colours of the descent, each free
    acceptance and vector False unless fixed, and each free successor
    row at its last open successor.  Its clauses are then built on their
    first read, which the builtin backend skips; where the descent met
    a conflict they are built at once, from the level-0 values.

    Each clause is a list of its own, of distinct, non-complementary,
    declared literals, and each group one of at least two distinct
    variables, so the builtin SAT backend watches them without a check
    or a copy (see :func:`~ocalearn.sat.sat_solve`); solving may reorder
    the literals inside a clause.

    ``deadline``, a :func:`time.monotonic` instant, is read while the
    clique is built and every 32 steps of the propagation and its
    descent; the clause passes, when the clauses are built, read it
    every 32 nodes of both passes over the nodes and once per state and
    symbol of the transition clauses.  Past it the encoder, or the first
    read of ``clauses``, raises :class:`SolverTimeout`.
    """
    try:
        (dom, succ, accepting, held), settled = _propagate(apta, n, apta.domains(deadline)[1],
                                                           deadline)
    except _Refuted:
        return ColouringCnf([[]])
    unit = _one_hot(n)
    count = 0
    model = {}      # the descent's values, kept only where it met no conflict
    doms, successors, accepts, holds = settled or (dom, succ, accepting, held)

    def numbered(mask, hot, width=n):
        """A row of ``width`` entries: a new variable at each bit of
        ``mask``, in order, and False elsewhere; ``model`` gets each new
        variable, true at index ``hot`` alone.  It is a list, and a row
        fixed in full is a tuple."""
        nonlocal count
        row = [False] * width
        for i in range(width):
            if mask >> i & 1:
                count += 1
                row[i] = count
                model[count] = i == hot
        return row

    color = [numbered(d, e.bit_length() - 1) if d & (d - 1) else unit[d.bit_length() - 1]
             for d, e in zip(dom, doms)]
    accepting_var = [numbered(1, 0 if accept else None, 1)[0] if value is None else value
                     for value, accept in zip(accepting, accepts)]
    trans = {sym: [numbered(s, t.bit_length() - 1) if s & (s - 1) else unit[s.bit_length() - 1]
                   for s, t in zip(rows, successors[sym])] for sym, rows in succ.items()}
    out = []
    for vectors, fixed, hot in zip(apta.vectors, held, holds):
        k = len(vectors) if len(vectors) > 1 else 0
        out.append([() if not k else numbered((1 << k) - 1, h, k) if index is None
                    else _one_hot(k)[index] for index, h in zip(fixed, hot)])

    def passes():
        """The clauses that the level-0 values leave unsatisfied."""
        clauses = []
        free = [[x for x in row if x] if d & (d - 1) else None for row, d in zip(color, dom)]
        for v, lits in enumerate(free):
            if not v % _CHECK_EVERY:
                check_deadline(deadline)
            if lits is None:
                continue
            clauses.append(lits)
            clauses.append(AtMostOne(lits))
            row, label, output = color[v], apta.labels[v], apta.outputs[v]
            if label is not None:
                clauses.extend([[-x, accepting_var[i] if label else -accepting_var[i]]
                                for i, x in enumerate(row) if x and accepting[i] is None])
            if output is not None and out[output[0]][0]:
                sign, k = output
                clauses.extend([[-x, out[sign][i][k]]
                                for i, x in enumerate(row) if x and held[sign][i] is None])
        for rows in out:
            clauses.extend([AtMostOne(row) for row in rows if type(row) is list])
        for rows in trans.values():
            for row in rows:
                check_deadline(deadline)
                if type(row) is list:
                    lits = [x for x in row if x]
                    clauses.append(lits)
                    clauses.append(AtMostOne(lits))
        for v in range(1, apta.num_nodes):
            if not v % _CHECK_EVERY:
                check_deadline(deadline)
            parent, sym = apta.parent_edges[v]
            if free[v] is None and free[parent] is None:
                continue        # both coloured: the successor is fixed to the child's colour
            d, lits, rows = dom[v], color[v], trans[sym]
            for i, x in enumerate(color[parent]):
                if x is False:
                    continue
                head = () if x is True else (-x,)   # a coloured parent's literal is false
                s = succ[sym][i]
                if not s & (s - 1):         # trans(sym,i,j) is true, and j one of v's colours
                    if free[v] is not None:
                        clauses.append([*head, lits[s.bit_length() - 1]])
                elif free[v] is not None:
                    clauses.extend([[*head, -t, lits[j]] if d >> j & 1 else [*head, -t]
                                    for j, t in enumerate(rows[i]) if t])
                else:
                    clauses.extend([[*head, -t] for j, t in enumerate(rows[i]) if t and not d >> j & 1])
        return clauses

    cnf = ColouringCnf(passes if settled else passes())
    cnf.num_vars = count
    cnf.color, cnf.accepting, cnf.trans, cnf.out = color, accepting_var, trans, out
    if settled:
        cnf.model = model
    return cnf


@cache
def _one_hot(n: int) -> tuple[tuple[bool, ...], ...]:
    """The n fixed rows of width n with one true entry, shared by every rung."""
    return tuple(tuple(j == i for j in range(n)) for i in range(n))


def decode_dfa(cnf: ColouringCnf, assignment: dict[int, bool]) -> Dfa:
    """The DFA of a model of an :func:`encode_size_n` instance, read
    through its fixed values; its initial state is the root's colour.  A
    model of a refuted instance raises :class:`SolverError`, as does one
    that leaves out a variable read here (named), gives the root no
    colour or gives some state no successor on some symbol."""
    if not cnf.color:
        raise SolverError("the backend satisfied the empty clause")
    n = len(cnf.accepting)
    try:    # an entry is a fixed bool or a variable of the model, a positive int
        finals = frozenset(i for i, x in enumerate(cnf.accepting)
                           if x is True or x and assignment[x])
        transition = {(i, sym): j for sym, rows in cnf.trans.items() for i, row in enumerate(rows)
                      for j, x in enumerate(row) if x is True or x and assignment[x]}
        initial = next((i for i, x in enumerate(cnf.color[0]) if x is True or x and assignment[x]),
                       None)
    except KeyError as missing:
        raise SolverError(f"the model leaves out variable {missing.args[0]}") from None
    if initial is None:
        raise SolverError("the model gives the prefix-tree root no colour")
    if len(transition) < n * len(cnf.trans):
        raise SolverError("the model leaves some state without a successor")
    return Dfa(states=tuple(range(n)), alphabet=tuple(cnf.trans), initial=initial,
               transition=transition, finals=finals)
