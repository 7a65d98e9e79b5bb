"""Equivalence of counter-synchronous automata with minimal witnesses.

Two machines are counter-synchronous when every word reaches the same
counter-value in both.  ``check_sync_equiv`` decides "counter-synchronous
and equivalent" and otherwise produces the length-lex-minimal violating
word; ``voca_check_equiv`` is the same check restricted to visibly
one-counter automata.

In the synchronized product a configuration is bad when its acceptance
bits differ or some letter's two counter actions differ, and both depend
only on the state pair and the sign of the shared counter.  So
equivalence is control-state reachability in a one-counter system,
decided exactly by summarising the runs that return to their starting
counter (pushdown saturation with one stack symbol, Bouajjani, Esparza
& Maler, CONCUR 1997).  A length-lex breadth-first search over the
product finds the witness: it runs first, for at most |A|·|B| nodes,
and resumes after the decision only on pairs the decision refutes, so it
needs no counter or length caps.  The paper's witness bounds, height
K^4 and length 2*K^5 in general and 2(K+K^2) and 4K(K+K^2) for VOCAs
with one action map, are theorems the tests check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Droca
from .errors import EquivalenceTimeout, InvalidInput, check_deadline

COUNTER_DESYNC = "counter-desync"
ACCEPT_MISMATCH = "accept-mismatch"
_DEADLINE_CHECK_EVERY = 4096    # nodes, pairs or steps between two deadline checks


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A violating word.

    ``counter-desync``: counter effects differ on the word but agree on
    every proper prefix.  ``accept-mismatch``: exactly one machine
    accepts the word while counter effects agree on it and all prefixes.
    """

    word: str
    kind: str


@dataclass(frozen=True, slots=True)
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
    :func:`time.monotonic` instant, it raises
    :class:`EquivalenceTimeout`.
    """
    _require_same_alphabet(a, b)
    return _product_search(a, b, deadline)


def voca_check_equiv(a: Droca, b: Droca, deadline: float | None = None) -> Verdict:
    """Equivalence of two visibly one-counter automata.

    Raises :class:`InvalidInput` unless both machines are VOCAs, and
    otherwise answers as :func:`check_sync_equiv`.  When the machines
    share their (letter, sign) -> action map, only acceptance can differ,
    and the minimal witness has height at most 2(K+K^2) and length at
    most 4K(K+K^2), the paper's bounds, which the tests check.
    """
    if not (a.is_voca() and b.is_voca()):
        raise InvalidInput("automaton is not visibly one-counter")
    _require_same_alphabet(a, b)
    return _product_search(a, b, deadline)


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


def _product_search(a: Droca, b: Droca, deadline: float | None) -> Verdict:
    """The length-lex-minimal violation, or ``EQUIVALENT``.

    A length-lex search over the product first dequeues at most
    ``|a|·|b|`` nodes, which refutes most inequivalent pairs.  If it has
    neither found a violation nor run out of nodes, the summary decision
    settles the pair, and the search resumes from the same queue and
    parent map only when the decision found a violation, so it ends.
    """
    d0a, d1a, fin_a, init_a = a.indexed_tables()
    d0b, d1b, fin_b, init_b = b.indexed_tables()
    if fin_a[init_a] != fin_b[init_b]:
        return Verdict(False, Counterexample("", ACCEPT_MISMATCH))
    start = (init_a, init_b, 0)
    parents = {start: (None, -1)}
    queue = deque([start])
    witness = _length_lex_search(a, b, queue, parents, a.size * b.size, deadline)
    if witness is None and queue:
        if _decide_by_summaries(a, b, deadline):
            return EQUIVALENT
        witness = _length_lex_search(a, b, queue, parents, None, deadline)
    return EQUIVALENT if witness is None else Verdict(False, witness)


def _length_lex_search(a: Droca, b: Droca, queue: deque, parents: dict,
                       limit: int | None, deadline: float | None) -> Counterexample | None:
    """BFS over (state_a, state_b, shared counter) in length-lex order,
    dequeuing at most ``limit`` nodes (all when it is None).

    Expanding nodes breadth-first, letters in alphabet order, generates
    words in length-lex order, so each word is checked where it is
    generated: a letter on which the counter actions differ is a counter
    desync, and a new node whose acceptance bits differ is an acceptance
    mismatch.  A node already in ``parents`` was checked under a smaller
    word, so the first violation found is the length-lex-minimal one.
    The deadline is read at the first node and then every few thousand.
    """
    d0a, d1a, fin_a, _ = a.indexed_tables()
    d0b, d1b, fin_b, _ = b.indexed_tables()
    alphabet = a.alphabet
    dequeued = 0
    while queue and dequeued != limit:
        if not dequeued % _DEADLINE_CHECK_EVERY:
            check_deadline(deadline, EquivalenceTimeout)
        dequeued += 1
        node = queue.popleft()
        pa, pb, n = node
        row_a = d0a[pa] if n == 0 else d1a[pa]
        row_b = d0b[pb] if n == 0 else d1b[pb]
        for ai in range(len(alphabet)):
            ta, ea = row_a[ai]
            tb, eb = row_b[ai]
            if ea != eb:
                word = _words_back(parents, node, alphabet) + alphabet[ai]
                return Counterexample(word, COUNTER_DESYNC)
            child = (ta, tb, n + ea)
            if child in parents:
                continue
            parents[child] = (node, ai)
            if fin_a[ta] != fin_b[tb]:
                return Counterexample(_words_back(parents, child, alphabet), ACCEPT_MISMATCH)
            queue.append(child)
    return None


def _decide_by_summaries(a: Droca, b: Droca, deadline: float | None) -> bool:
    """Is no bad product configuration reachable?

    A state pair is bad at counter zero, or at a positive counter, when
    its acceptance bits differ or some letter's two actions differ in
    that mode; bad pairs get no steps.  ``ret[i]`` is the bitmask of the
    pairs q for which pair i at a positive counter c reaches (q, c-1)
    while staying at c or above until that last step.  It is the least
    relation closed under a -1 step, a 0 step followed by a return, and
    a +1 step followed by two returns, computed by sweeping all pairs
    until nothing changes.  The pairs reachable at counter zero and at a
    positive counter then follow by 0 steps, +1 steps and "+1 then a
    return"; every -1 step of a run from counter zero lies inside a
    return.  The deadline is read every few thousand pairs of the
    product, rows and return bits of the sweeps, and reachability steps.
    """
    d0a, d1a, fin_a, init_a = a.indexed_tables()
    d0b, d1b, fin_b, init_b = b.indexed_tables()
    index = {(init_a, init_b): 0}
    pairs = [(init_a, init_b)]
    steps = ([], [])    # steps[mode][i]: (target pair, action) per letter
    bad = [0, 0]        # bad[mode]: bitmask of the pairs bad in that mode
    for i, (pa, pb) in enumerate(pairs):    # grows with the counter-blind product
        if not i % _DEADLINE_CHECK_EVERY:
            check_deadline(deadline, EquivalenceTimeout)
        for mode, (da, db) in enumerate(((d0a, d0b), (d1a, d1b))):
            moves = list(zip(da[pa], db[pb]))
            if fin_a[pa] != fin_b[pb] or any(ea != eb for (_, ea), (_, eb) in moves):
                bad[mode] |= 1 << i
                moves = []
            row = []
            for (ta, e), (tb, _) in moves:
                t = index.setdefault((ta, tb), len(pairs))
                if t == len(pairs):
                    pairs.append((ta, tb))
                row.append((t, e))
            steps[mode].append(row)
    ret = [0] * len(pairs)
    cost = 0    # rows and return bits read since the last deadline read
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(steps[1]):
            if cost >= _DEADLINE_CHECK_EVERY:
                cost = 0
                check_deadline(deadline, EquivalenceTimeout)
            cost += 1
            new = ret[i]
            for t, e in row:
                if e < 0:
                    new |= 1 << t
                elif e == 0:
                    new |= ret[t]
                else:
                    mask = ret[t]
                    cost += mask.bit_count()
                    while mask:
                        low = mask & -mask
                        new |= ret[low.bit_length() - 1]
                        mask ^= low
            if new != ret[i]:
                ret[i] = new
                changed = True
    seen = [1, 0]       # seen[mode]: bitmask of the pairs reached in that mode
    work = [(0, 0)]
    popped = 0
    while work:
        popped += 1
        if not popped % _DEADLINE_CHECK_EVERY:
            check_deadline(deadline, EquivalenceTimeout)
        i, mode = work.pop()
        for t, e in steps[mode][i]:
            if e < 0:
                continue
            arrivals = [(1 << t, 1), (ret[t], mode)] if e else [(1 << t, mode)]
            for mask, m in arrivals:
                fresh = mask & ~seen[m]
                seen[m] |= fresh
                work.extend((r, m) for r in _bits(fresh))
    return not (seen[0] & bad[0] or seen[1] & bad[1])


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
