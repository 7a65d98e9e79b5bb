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

The table oracle closes an observation table the slow way: promote the
first unclosed row, then rescan P from its start.
"""

from __future__ import annotations


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
                and not outputs[u].similar(outputs[v])) or any(
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
