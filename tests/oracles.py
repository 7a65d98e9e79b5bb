"""Independent oracles used only by the tests.

The minimal-DFA oracle performs an exhaustive backtracking search over
colorings of the sample prefixes and shares no code with the SAT route:
it builds its own prefix tree and decides n-colorability by branching on
node colors with forced-transition propagation.  A complete DFA with n
states consistent with the samples exists iff the prefix tree is
n-colorable, since unconstrained transitions and acceptance bits can be
filled arbitrarily.

Words may also carry outputs, action vectors; a state may then hold
words of one counter sign only if their vectors are equal.

The search prunes with the conflict graph of Heule & Verwer, "Exact DFA
identification using SAT solvers" (ICGI 2010): two nodes are
incompatible when some common suffix leads them to opposite labels or
to dissimilar outputs, so no coloring may give them one color.  A color
holding a node incompatible with the one being placed is skipped, and a
node whose transition is fixed is colored as soon as it is fixed, not
when its turn in breadth-first order comes, so a clash shows before the
next branch.  Both only cut colorings that cannot be completed, so the
search stays exact; with outputs the skip is also what keeps dissimilar
outputs apart, since the nodes that carry them are incompatible.

The encoding oracle is the n-state colouring CNF in full, before any
unit propagation: every variable numbered by formula, the clique pins
as unit clauses, and every clause over the colours the pins leave.  Its
generic unit propagation, clause by clause to a fixpoint, gives the
residual formula that the encoder must emit.

The pairwise clique oracle is the subtree-class clique search that
compared each new class with every earlier class, one pair at a time:
opposite labels, another output of one sign, or a common symbol whose
children already clash.  The replay oracle builds a hypothesis the way
the learner did before it walked the prefix tree: every encoded table
word stepped through the skeleton from its longest prefix already
stepped, the table words fixing their vectors, and the steps from
prefixes outside the table checked in the order the replay meets them.

The table oracle closes an observation table the slow way: promote the
first unclosed row, then rescan P from its start.  The row oracle works
a row out from scratch on the hidden machine, as pairs of membership and
action vector, and the witness oracle searches for an inconsistency
over those rows, column by column.

The enumeration oracle runs every word up to a length on both machines
in length-lex order and reports the first disagreement.  The capped
equivalence oracle is the length-lex product search that
decided equivalence before the return-summary decision: it stops at
counter (|A||B|)^2 + 1 and length 2K^5, or at the paper's VOCA bounds
2(K+K^2) + 1 and 4K(K+K^2) when both machines are VOCAs with one action
map, and calls a pair equivalent when no violation lies within them.

The reachability oracle is the generator's count before its sign
bound: breadth-first search over (state, counter) pairs with the
counter capped at |A|^2, stopping only once every state has been seen.

The column oracle reads a machine's (letter, sign) -> action map off
``delta0`` and ``delta1`` themselves, one column of states at a time.

The row observer counts what criterion 6a checks, from outside
``learn``: for each counterexample, the distinct row values at or below
its height when it arrives and after the repair that follows it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ocalearn import learning
from ocalearn.automata import Configuration, Droca, doubled, extend_known, sgn
from ocalearn.errors import check_deadline
from ocalearn.equivalence import (ACCEPT_MISMATCH, COUNTER_DESYNC, EQUIVALENT,
                                  Counterexample, Verdict)
from ocalearn.learning import PrefixConflict, SimulatedTeacher, learn
from ocalearn.sat import CnfInstance
from ocalearn.table import ActionsVector, ObservationTable


def _build_trie(pos, neg, outputs):
    children = [{}]
    parent = [None]
    labels = [None]
    node_outputs = [None]

    def node_of(word):
        node = 0
        for sym in word:
            nxt = children[node].get(sym)
            if nxt is None:
                nxt = len(children)
                children[node][sym] = nxt
                children.append({})
                parent.append((node, sym))
                labels.append(None)
                node_outputs.append(None)
            node = nxt
        return node

    for words, label in ((pos, True), (neg, False)):
        for word in words:
            node = node_of(word)
            if labels[node] is not None and labels[node] != label:
                raise ValueError(f"conflicting sample {word!r}")
            labels[node] = label
    for word, vector in outputs.items():
        node_outputs[node_of(word)] = vector
    return children, parent, labels, node_outputs


def min_sep_dfa_size(pos, neg, max_states=12, outputs=None):
    """Size of the smallest complete DFA accepting all of ``pos`` and
    rejecting all of ``neg``, by exhaustive coloring search.  ``outputs``
    maps words to action vectors; no state may reach two words whose
    vectors are dissimilar."""
    children, parent, labels, node_outputs = _build_trie(pos, neg, outputs or {})
    order = _bfs_order(children)
    conflicts = _conflicts(children, labels, node_outputs)
    for n in range(1, max_states + 1):
        if _colorable(order, children, parent, conflicts, n):
            return n
    raise ValueError(f"no separating DFA with up to {max_states} states")


def _bfs_order(children):
    order = [0]
    for node in order:
        order.extend(children[node].values())
    return order


def _conflicts(children, labels, outputs):
    """Bitmask per node of the nodes incompatible with it."""
    memo = {}

    def incompatible(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in memo:
            memo[key] = (labels[u] is not None and labels[v] is not None
                         and labels[u] != labels[v]) or (
                outputs[u] is not None and outputs[v] is not None
                and outputs[u].sign == outputs[v].sign and outputs[u] != outputs[v]) or any(
                sym in children[v] and incompatible(child, children[v][sym])
                for sym, child in children[u].items())
        return memo[key]

    nodes = range(len(children))
    return [sum(1 << v for v in nodes if incompatible(u, v)) for u in nodes]


def _colorable(order, children, parent, conflicts, n):
    color = [None] * len(order)
    members = [0] * n                   # bitmask of the nodes of each color
    by_color = [[] for _ in range(n)]   # the same nodes, in coloring order
    trans: dict[tuple[int, object], int] = {}
    trail = []                          # colored nodes and fixed transitions

    def assign(node, c):
        """Color ``node`` with ``c``, and every node whose color that
        forces; False on a clash.  Each change goes on the trail for
        ``undo``."""
        stack = [(node, c)]
        while stack:
            v, c = stack.pop()
            if color[v] is not None:
                if color[v] != c:
                    return False
                continue
            if conflicts[v] & members[c]:
                return False
            color[v] = c
            members[c] |= 1 << v
            by_color[c].append(v)
            trail.append(v)
            if v != 0:
                p, sym = parent[v]
                edge = (color[p], sym)
                target = trans.get(edge)
                if target is None:
                    trans[edge] = c
                    trail.append(edge)
                    for w in by_color[edge[0]]:
                        child = children[w].get(sym)
                        if child is not None:
                            stack.append((child, c))
                elif target != c:
                    return False
            for sym, child in children[v].items():
                target = trans.get((c, sym))
                if target is not None:
                    stack.append((child, target))
        return True

    def undo(mark):
        while len(trail) > mark:
            item = trail.pop()
            if isinstance(item, tuple):
                del trans[item]
            else:
                c = color[item]
                members[c] &= ~(1 << item)
                by_color[c].pop()
                color[item] = None

    def search(index):
        # every uncolored node has a colored parent whose transition on
        # its symbol is still free, or ``assign`` would have colored it;
        # a new color is only ever the next unused one
        while index < len(order) and color[order[index]] is not None:
            index += 1
        if index == len(order):
            return True
        used = sum(1 for m in members if m)
        for c in range(min(used + 1, n)):
            mark = len(trail)
            if assign(order[index], c) and search(index + 1):
                return True
            undo(mark)
        return False

    return assign(0, 0) and search(1)


def full_variables(apta, n):
    """The variables of :func:`full_encoding`, numbered by formula:
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


def full_encoding(apta, n):
    """Every clause of the n-state encoding over every variable of
    :func:`full_variables`, in the order that ``encode_size_n`` keeps:
    per node, a unit clause for each colour the clique pins remove, then
    exactly one colour among the rest, the label and the output clauses;
    one vector per state and sign; exactly one successor per state and
    symbol; and color(p,i) ∧ trans(a,i,j) → color(v,j) per edge, as the
    two-literal clause (¬color(p,i), ¬trans(a,i,j)) where colour j is
    removed from v."""
    cnf = CnfInstance()
    color, accepting, trans, out, cnf.num_vars = full_variables(apta, n)
    excluded = apta.domains()[1]
    domains = [[i for i in range(n) if not mask >> i & 1] for mask in excluded]
    clauses = cnf.clauses
    for v, domain in enumerate(domains):
        clauses.extend([[-color[v][i]] for i in range(n) if excluded[v] >> i & 1])
        clauses.append([color[v][i] for i in domain])
        clauses.extend([[-color[v][i], -color[v][j]]
                        for k, i in enumerate(domain) for j in domain[k + 1:]])
        if apta.labels[v] is not None:
            sign = 1 if apta.labels[v] else -1
            clauses.extend([[-color[v][i], sign * accepting[i]] for i in domain])
        if apta.outputs[v] is not None and out[apta.outputs[v][0]][0]:
            s, k = apta.outputs[v]
            clauses.extend([[-color[v][i], out[s][i][k]] for i in domain])
    for row in out[0] + out[1]:
        clauses.extend([[-x, -y] for k, x in enumerate(row) for y in row[k + 1:]])
    for sym in apta.alphabet:
        for row in trans[sym]:
            clauses.append(list(row))
            clauses.extend([[-x, -y] for k, x in enumerate(row) for y in row[k + 1:]])
    for v in range(1, apta.num_nodes):
        parent, sym = apta.parent_edges[v]
        for i in domains[parent]:
            clauses.extend([[-color[parent][i], -t] if excluded[v] >> j & 1
                            else [-color[parent][i], -t, color[v][j]]
                            for j, t in enumerate(trans[sym][i])])
    return cnf


def pairwise_clique_bound(apta, deadline=None):
    """The clique of :meth:`ocalearn.minsepdfa.Apta.domains` by pairwise
    class scans: the same classes and clique, read at the same classes,
    as pairs of each clique class's first node and the nodes that clash
    with it."""
    class_of = [0] * apta.num_nodes
    classes = {}
    labels, outputs, edges, conflicts = [], [], [], []
    for v in reversed(range(apta.num_nodes)):
        label, output = apta.labels[v], apta.outputs[v]
        out = {sym: class_of[child] for sym, child in apta.children[v].items()}
        key = (label, output, frozenset(out.items()))
        if key not in classes:
            c = classes[key] = len(labels)
            if not c % 32:
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


def clique_domains(clique, num_nodes):
    """:meth:`ocalearn.minsepdfa.Apta.domains` from the clash lists of
    :func:`pairwise_clique_bound`, node by node: the k-th clique node
    may take colour k alone, and every node in its clash list loses
    colour k."""
    excluded = [0] * num_nodes
    for k, (node, clashes) in enumerate(clique):
        for v in clashes:
            excluded[v] |= 1 << k
        excluded[node] = ~(1 << k)
    return len(clique), excluded


def replay_construct_droca(table, skeleton, samples):
    """The hypothesis of ``table`` over ``skeleton``, a DFA separating
    ``samples``, by replaying each encoded table word; a clash at a step
    from a prefix outside the table raises :class:`PrefixConflict`."""
    names = {q: f"s{q}" for q in skeleton.states}
    actions, outside = {}, []
    table_words = {code for code, _ in samples.outputs}
    states = {(): skeleton.initial}

    def replay(state, code, j):
        if code[:j] not in table_words:
            letter, sign = code[j][:-1], int(code[j][-1])
            prefix = "".join(sym[:-1] for sym in code[:j])
            delta = table.counter_value(prefix + letter) - table.counter_value(prefix)
            outside.append(((state, sign, letter), delta, prefix))
        return skeleton.transition[(state, code[j])]
    for code, vector in samples.outputs:
        state = extend_known(states, code, replay)
        for letter, delta in zip(table.alphabet, vector.deltas):
            actions[(state, vector.sign, letter)] = delta
    for key, delta, prefix in outside:
        if actions.setdefault(key, delta) != delta:
            raise PrefixConflict(prefix)
    defaults = table.action_map or {}
    delta0, delta1 = {}, {}
    for q in skeleton.states:
        for a in table.alphabet:
            for sign, delta in ((0, delta0), (1, delta1)):
                target = skeleton.transition[(q, doubled(a, sign))]
                delta[(names[q], a)] = (names[target],
                                        actions.get((q, sign, a), defaults.get((a, sign), 0)))
    return Droca(states=[names[q] for q in skeleton.states], alphabet=table.alphabet,
                 initial=names[skeleton.initial], delta0=delta0, delta1=delta1,
                 finals=[names[q] for q in skeleton.finals])


def propagate_units(clauses):
    """Level-0 unit propagation of a CNF, clause by clause to a fixpoint:
    None if it derives the empty clause, else the fixed values by
    variable and the clauses they leave unsatisfied, in order, without
    their false literals."""
    fixed = {}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(fixed.get(abs(lit)) == (lit > 0) for lit in clause):
                continue
            open_lits = [lit for lit in clause if abs(lit) not in fixed]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                fixed[abs(open_lits[0])] = open_lits[0] > 0
                changed = True
    residual = [[lit for lit in clause if abs(lit) not in fixed] for clause in clauses
                if not any(fixed.get(abs(lit)) == (lit > 0) for lit in clause)]
    return fixed, residual


def _unclosed_pairs(table, d):
    p_rows = {table.row(p) for p in table.prefixes}
    for p in table.prefixes:
        for a in table.alphabet:
            w = p + a
            if table.counter_value(w) <= d and table.row(w) not in p_rows:
                yield p, a


def unclosed(table, d):
    """Every (p, a), in P-insertion then alphabet order, with
    cv(pa) <= d whose row matches no row of P; empty when d-closed."""
    return list(_unclosed_pairs(table, d))


def restart_repair(table, d):
    """Make ``table`` d-closed and d-consistent by promoting the first
    unclosed row and rescanning from the start after each promotion;
    inconsistency witnesses extend S as in ``ObservationTable.repair``."""
    while True:
        first = next(_unclosed_pairs(table, d), None)
        if first is not None:
            table.add_prefix(first[0] + first[1])
            continue
        witness = table.find_inconsistent(d)
        if witness is None:
            return table
        table.add_suffix(witness[2] + witness[3])


def oracle_row(hidden, table, label):
    """The row of ``label`` under the table's S, from runs of ``hidden``:
    its counter-value, then per suffix s the membership and the action
    vector of label + s."""
    def actions(word):
        base = hidden.counter_effect(word)
        return ActionsVector(sgn(base), tuple(hidden.counter_effect(word + a) - base
                                              for a in hidden.alphabet))

    return (hidden.counter_effect(label),
            tuple((hidden.accepts(label + s), actions(label + s)) for s in table.suffixes))


def oracle_inconsistency(hidden, table, d):
    """The first (p, q, a, s) with equal oracle rows at counter-value at
    most d, where s is the first column on which pa and qa differ.
    Prefixes are grouped by oracle row in P order, groups are taken in
    the order of their first members, and q runs over each group after
    its first member p.  None when there is none."""
    groups = {}
    for q in table.prefixes:
        if hidden.counter_effect(q) <= d:
            groups.setdefault(oracle_row(hidden, table, q), []).append(q)
    for p, *others in groups.values():
        for q in others:
            for a in table.alphabet:
                mine, theirs = oracle_row(hidden, table, p + a), oracle_row(hidden, table, q + a)
                for s, x, y in zip(table.suffixes, mine[1], theirs[1]):
                    if x != y:
                        return p, q, a, s
    return None


def brute_force_equiv(a, b, max_len):
    """The first word of length at most ``max_len``, in length-lex order,
    on which the counter effects or the acceptance of the machines
    differ, as a ``Verdict``; ``EQUIVALENT`` when there is none."""
    if a.alphabet != b.alphabet:
        raise ValueError("machines over different alphabets")
    frontier = deque([("", Configuration(a.initial, 0), Configuration(b.initial, 0))])
    while frontier:
        word, ca, cb = frontier.popleft()
        if ca.counter != cb.counter:
            return Verdict(False, Counterexample(word, COUNTER_DESYNC))
        if (ca.state in a.finals) != (cb.state in b.finals):
            return Verdict(False, Counterexample(word, ACCEPT_MISMATCH))
        if len(word) < max_len:
            for letter in a.alphabet:
                frontier.append((word + letter, a.step(ca, letter), b.step(cb, letter)))
    return EQUIVALENT


def capped_equiv(a, b):
    """``(equivalent, word, kind)`` from the capped product search; the
    kinds are the strings of ``ocalearn.equivalence``."""
    k = max(a.size, b.size)
    if a.is_voca() and b.is_voca() and a.voca_action_map() == b.voca_action_map():
        counter_cap, length_cap = 2 * (k + k * k) + 1, 4 * k * (k + k * k)
    else:
        counter_cap, length_cap = (a.size * b.size) ** 2 + 1, 2 * k ** 5
    d0a, d1a, fin_a, init_a = a.indexed_tables()
    d0b, d1b, fin_b, init_b = b.indexed_tables()
    if fin_a[init_a] != fin_b[init_b]:
        return False, "", "accept-mismatch"
    start = (init_a, init_b, 0)
    words = {start: ""}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        word = words[node]
        if len(word) >= length_cap:
            continue
        pa, pb, n = node
        row_a = d0a[pa] if n == 0 else d1a[pa]
        row_b = d0b[pb] if n == 0 else d1b[pb]
        for letter, (ta, ea), (tb, eb) in zip(a.alphabet, row_a, row_b):
            if ea != eb:
                return False, word + letter, "counter-desync"
            child = (ta, tb, n + ea)
            if child[2] > counter_cap or child in words:
                continue
            words[child] = word + letter
            if fin_a[ta] != fin_b[tb]:
                return False, word + letter, "accept-mismatch"
            queue.append(child)
    return True, None, None


def reachable_count(automaton):
    """Distinct states visited by BFS over configurations with counter
    at most ``|A|**2``, starting from the initial configuration; the
    search stops once every state has been seen."""
    d0, d1, _, init = automaton.indexed_tables()
    cap = automaton.size ** 2
    seen = {(init, 0)}
    states = {init}
    queue = deque(seen)
    while queue and len(states) < automaton.size:
        q, n = queue.popleft()
        for t, e in (d0[q] if n == 0 else d1[q]):
            child = (t, n + e)
            if child[1] <= cap and child not in seen:
                seen.add(child)
                states.add(t)
                queue.append(child)
    return len(states)


def action_map_by_columns(m):
    """The (letter, sign) -> action map of ``m``, letters in alphabet
    order and sign 0 first, or None when some letter's column of
    actions in one counter mode holds two values."""
    actions = {}
    for a in m.alphabet:
        for sign, delta in enumerate((m.delta0, m.delta1)):
            column = {delta[(q, a)][1] for q in m.states}
            if len(column) != 1:
                return None
            actions[(a, sign)] = column.pop()
    return actions


def distinct_rows(table, level):
    """Number of distinct row values among the labels of P and P.Sigma
    whose counter-value is at most ``level``."""
    return len({table.row(r) for r in table.boundary()
                if table.counter_value(r) <= level})


@dataclass
class RowCount:
    """Distinct rows at or below one counterexample's height: when it
    arrives, and once the table that holds it is repaired."""

    word: str
    height: int
    rows_before: int
    rows_after: int | None = None


class _RowCountingTeacher(SimulatedTeacher):
    """Counts the session table's rows whenever a query refutes the
    hypothesis, before ``learn`` adds the counterexample to the table."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.table = None
        self.records: list[RowCount] = []

    def seq(self, hypothesis, deadline=None):
        ce = super().seq(hypothesis, deadline)
        if ce is not None:
            height = self.hidden.run(ce.word).height
            self.records.append(RowCount(ce.word, height,
                                         distinct_rows(self.table, height)))
        return ce


def learn_counting_rows(target, config=None):
    """``learn`` on a simulated teacher for ``target`` that also returns
    one :class:`RowCount` per counterexample, in session order.

    The session's table is a subclass that counts rows after each
    repair; it stands in for ``learning.ObservationTable`` only while
    the call runs.  Counting reads cells the next repair reads anyway,
    so the session asks exactly the queries of a plain ``learn``.
    """
    teacher = _RowCountingTeacher(target)

    class CountingTable(ObservationTable):
        def __init__(self, view, action_map=None):
            super().__init__(view, action_map)
            teacher.table = self

        def repair(self, d):
            super().repair(d)
            last = teacher.records[-1] if teacher.records else None
            if last is not None and last.rows_after is None:
                last.rows_after = distinct_rows(self, last.height)
            return self

    saved = learning.ObservationTable
    learning.ObservationTable = CountingTable
    try:
        hypothesis, stats = learn(teacher, config)
    finally:
        learning.ObservationTable = saved
    return hypothesis, stats, teacher.records
