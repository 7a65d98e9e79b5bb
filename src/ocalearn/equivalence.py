"""Equivalence of counter-synchronous automata with minimal witnesses.

Two machines are counter-synchronous when every word reaches the same
counter-value in both.  ``check_sync_equiv`` decides "counter-synchronous
and equivalent" and otherwise produces the length-lex-minimal violating
word; a bounded breadth-first search over the synchronized product
suffices because a minimal witness for machines of at most K states has
height at most K^4 and length at most 2*K^5.  For visibly one-counter
automata ``voca_check_equiv`` runs the same search under the much
smaller caps height 2(K+K^2) and length 4K(K+K^2).  The search checks
each word where it generates it, which is length-lex order, and reads
the witness back from its parent map with the helper that
``reach_witness`` uses.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .automata import Configuration, Droca
from .errors import EquivalenceTimeout, InvalidInput

COUNTER_DESYNC = "counter-desync"
ACCEPT_MISMATCH = "accept-mismatch"
_DEADLINE_CHECK_EVERY = 4096    # dequeued nodes between two deadline checks


@dataclass(frozen=True)
class Counterexample:
    """A violating word.

    ``counter-desync``: counter effects differ on the word but agree on
    every proper prefix.  ``accept-mismatch``: exactly one machine
    accepts the word while counter effects agree on it and all prefixes.
    """

    word: str
    kind: str


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    counterexample: Counterexample | None = None


EQUIVALENT = Verdict(True)


def check_sync_equiv(a: Droca, b: Droca, deadline: float | None = None) -> Verdict:
    """Are the machines counter-synchronous and language-equivalent?

    On failure returns the length-lex-minimal counterexample (letters
    ordered by the shared alphabet order).  The search walks the product
    of configurations with one shared counter and stops at the first
    counter-action disagreement, which is sound because every word it
    extends is fully synchronized.  Past ``deadline``, a
    :func:`time.monotonic` instant read every few thousand nodes, it
    raises :class:`EquivalenceTimeout`.
    """
    _require_same_alphabet(a, b)
    k = max(a.size, b.size)
    counter_cap = (a.size * b.size) ** 2 + 1
    length_cap = 2 * k ** 5
    return _bounded_product_search(a, b, counter_cap, length_cap, deadline)


def voca_check_equiv(a: Droca, b: Droca, deadline: float | None = None) -> Verdict:
    """Equivalence of two visibly one-counter automata.

    Machines with the same (letter, sign) -> action map are
    counter-synchronous by construction, so only acceptance can differ,
    and a minimal acceptance witness has height at most 2(K+K^2) and
    length at most 4K(K+K^2).  The decision is one product search under
    those caps, returning the length-lex-minimal counterexample.
    Machines with different action maps fall back to the general
    synchronous check, which reports the counter desynchronization.
    ``deadline`` is as in :func:`check_sync_equiv`.
    """
    a_map, b_map = a.voca_action_map(), b.voca_action_map()  # InvalidInput unless VOCAs
    _require_same_alphabet(a, b)
    if a_map != b_map:
        return check_sync_equiv(a, b, deadline)
    k = max(a.size, b.size)
    height_cap = 2 * (k + k * k)
    return _bounded_product_search(a, b, height_cap + 1, 4 * k * (k + k * k), deadline)


def brute_force_equiv(a: Droca, b: Droca, max_len: int) -> Verdict:
    """Test oracle: enumerate all words of length <= max_len in
    length-lex order and return the first counter-effect or acceptance
    disagreement."""
    _require_same_alphabet(a, b)
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


def reachable_configurations(a: Droca, parents: dict):
    """Configurations ``(state index, counter)`` reachable from the
    initial one with counter at most ``|a|**2``, yielded in breadth-first
    order, letters in alphabet order.  ``parents`` receives each
    configuration's (parent, letter index), which :func:`_words_back`
    reads.
    """
    d0, d1, _, init = a.indexed_tables()
    cap = a.size ** 2
    parents[(init, 0)] = (None, -1)
    queue = deque([(init, 0)])
    while queue:
        node = queue.popleft()
        yield node
        q, n = node
        for ai, (t, e) in enumerate(d0[q] if n == 0 else d1[q]):
            child = (t, n + e)
            if child[1] <= cap and child not in parents:
                parents[child] = (node, ai)
                queue.append(child)


def reach_witness(a: Droca, state: str) -> tuple[str, int] | None:
    """A short word reaching ``state``, by BFS over configurations with
    counter at most ``|a|**2``.

    Returns the shortest witness arriving with counter zero when the
    state is reachable at counter zero; otherwise the shortest witness
    arriving below ``|a|`` when one exists, else the shortest witness
    with the smallest arrival counter, which is never above ``|a|``.
    Returns ``None`` when the state is unreachable at all (reachability
    never needs heights beyond ``|a|**2``).
    """
    if state not in set(a.states):
        raise InvalidInput(f"unknown state {state!r}")
    target = a.states.index(state)
    parents = {}
    hits = []
    for node in reachable_configurations(a, parents):
        if node[0] == target:
            if node[1] == 0:
                return _words_back(parents, node, a.alphabet), 0
            hits.append(node)
    if not hits:
        return None
    low = [node for node in hits if node[1] < a.size]
    node = low[0] if low else min(hits, key=lambda node: node[1])
    return _words_back(parents, node, a.alphabet), node[1]


def _words_back(parents, node, alphabet):
    letters = []
    while True:
        parent, ai = parents[node]
        if parent is None:
            break
        letters.append(alphabet[ai])
        node = parent
    return "".join(reversed(letters))


def _require_same_alphabet(a: Droca, b: Droca) -> None:
    if a.alphabet != b.alphabet:
        raise InvalidInput(
            f"alphabet mismatch: {a.alphabet!r} vs {b.alphabet!r}")


def _bounded_product_search(a: Droca, b: Droca, counter_cap: int,
                            length_cap: int, deadline: float | None) -> Verdict:
    """BFS over (state_a, state_b, shared counter) in length-lex order.

    Expanding nodes breadth-first, letters in alphabet order, generates
    words in length-lex order, so each word is checked where it is
    generated: a letter on which the counter actions differ is a counter
    desync, and a new node whose acceptance bits differ is an acceptance
    mismatch.  A node already in ``parents`` was checked under a smaller
    word, so the first violation found is the length-lex-minimal one
    within the caps.  The deadline is read at the first node and then
    every few thousand, and never when it is None.
    """
    d0a, d1a, fin_a, init_a = a.indexed_tables()
    d0b, d1b, fin_b, init_b = b.indexed_tables()
    alphabet = a.alphabet
    if fin_a[init_a] != fin_b[init_b]:
        return Verdict(False, Counterexample("", ACCEPT_MISMATCH))
    start = (init_a, init_b, 0)
    parents = {start: (None, -1)}
    queue = deque([(start, 0)])
    budget = 1      # dequeued nodes until the next deadline check
    while queue:
        node, depth = queue.popleft()
        if deadline is not None:
            budget -= 1
            if not budget:
                budget = _DEADLINE_CHECK_EVERY
                if time.monotonic() > deadline:
                    raise EquivalenceTimeout("equivalence query ran past its deadline")
        if depth >= length_cap:
            continue
        pa, pb, n = node
        row_a = d0a[pa] if n == 0 else d1a[pa]
        row_b = d0b[pb] if n == 0 else d1b[pb]
        for ai in range(len(alphabet)):
            ta, ea = row_a[ai]
            tb, eb = row_b[ai]
            if ea != eb:
                word = _words_back(parents, node, alphabet) + alphabet[ai]
                return Verdict(False, Counterexample(word, COUNTER_DESYNC))
            child = (ta, tb, n + ea)
            if child[2] > counter_cap or child in parents:
                continue
            parents[child] = (node, ai)
            if fin_a[ta] != fin_b[tb]:
                word = _words_back(parents, child, alphabet)
                return Verdict(False, Counterexample(word, ACCEPT_MISMATCH))
            queue.append((child, depth + 1))
    return EQUIVALENT
