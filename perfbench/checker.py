"""Independent correctness checks for benchmark outputs.

Everything here simulates machines from their public ``delta0`` /
``delta1`` / ``finals`` tables with its own code; it never calls
``Droca.run``, ``accepts`` or ``brute_force_equiv``.  The only program
calls are the verdicts under test themselves and, for learnt machines,
``check_sync_equiv`` as one more required property.

A *witness* for a pair of machines is a word on which either the counter
values first differ (``counter-desync``: they agree on every proper
prefix) or exactly one machine accepts while the counters agree on the
word and all its prefixes (``accept-mismatch``).
"""

from __future__ import annotations

from collections import deque
from itertools import product

from ocalearn import ACCEPT_MISMATCH, COUNTER_DESYNC, check_sync_equiv

SEARCH_LEN = 64           # own search depth for pairs that must be equivalent
ENUM_MAX_LEN = 14         # literal enumeration of smaller words up to here


def step(m, state, counter, letter):
    target, action = (m.delta0 if counter == 0 else m.delta1)[(state, letter)]
    return target, counter + action


def classify(a, b, word: str) -> str | None:
    """The witness kind of ``word`` for the pair, or None."""
    qa, ca, qb, cb = a.initial, 0, b.initial, 0
    for i, letter in enumerate(word):
        qa, ca = step(a, qa, ca, letter)
        qb, cb = step(b, qb, cb, letter)
        if ca != cb:
            return COUNTER_DESYNC if i == len(word) - 1 else None
    return ACCEPT_MISMATCH if (qa in a.finals) != (qb in b.finals) else None


def first_witness(a, b, max_len: int) -> tuple[str, str] | None:
    """Length-lex-least witness of length at most ``max_len``, as
    ``(word, kind)``.

    Breadth-first over synchronized configuration pairs, children in
    alphabet order, so words are generated in length-lex order.  A pair
    of configurations reached again is skipped: the earlier word reaching
    it has the same extensions and comes first.
    """
    if (a.initial in a.finals) != (b.initial in b.finals):
        return "", ACCEPT_MISMATCH
    start = (a.initial, b.initial, 0)
    seen = {start}
    queue = deque([(start, "")])
    while queue:
        (qa, qb, counter), word = queue.popleft()
        if len(word) >= max_len:
            continue
        for letter in a.alphabet:
            ta, ca = step(a, qa, counter, letter)
            tb, cb = step(b, qb, counter, letter)
            child_word = word + letter
            if ca != cb:
                return child_word, COUNTER_DESYNC
            if (ta in a.finals) != (tb in b.finals):
                return child_word, ACCEPT_MISMATCH
            child = (ta, tb, ca)
            if child not in seen:
                seen.add(child)
                queue.append((child, child_word))
    return None


def smaller_witness_by_enumeration(a, b, word: str) -> str | None:
    """Literally enumerate every word length-lex smaller than ``word``
    and return the first that is a witness, or None."""
    for length in range(len(word) + 1):
        for letters in product(a.alphabet, repeat=length):
            candidate = "".join(letters)
            if length == len(word) and candidate >= word:
                break
            if classify(a, b, candidate) is not None:
                return candidate
    return None


def check_learnt(target, learnt, reference_size: int | None) -> list[str]:
    """Problems with a learnt machine; empty when it is correct."""
    problems = []
    if learnt.size > target.size:
        problems.append(f"learnt {learnt.size} states for a {target.size}-state target")
    if reference_size is not None and learnt.size != reference_size:
        problems.append(f"learnt {learnt.size} states, reference says {reference_size}")
    if not check_sync_equiv(learnt, target).equivalent:
        problems.append("check_sync_equiv refutes the learnt machine")
    witness = first_witness(learnt, target, SEARCH_LEN)
    if witness is not None:
        problems.append(f"learnt machine differs from the target on {witness[0]!r} ({witness[1]})")
    return problems


def check_verdict(pair, verdict) -> list[str]:
    """Problems with an equivalence verdict on a benchmark pair.

    Split pairs must be equivalent, and the own search must find no
    witness up to ``SEARCH_LEN`` letters.  A refutation must name the
    length-lex-least witness, of its true kind: every smaller word is
    enumerated where that is feasible, and the own search must agree in
    any case.
    """
    a, b = pair.a, pair.b
    if verdict.equivalent:
        if not pair.split:
            return [f"mutated pair ({pair.variant}) reported equivalent"]
        found = first_witness(a, b, SEARCH_LEN)
        return [] if found is None else [f"split pair has witness {found[0]!r}"]
    if pair.split:
        return [f"split pair refuted with {verdict.counterexample.word!r}"]
    word, kind = verdict.counterexample.word, verdict.counterexample.kind
    actual = classify(a, b, word)
    if actual != kind:
        return [f"witness {word!r} is {actual or 'no witness'}, reported {kind}"]
    if len(word) <= ENUM_MAX_LEN:
        smaller = smaller_witness_by_enumeration(a, b, word)
        if smaller is not None:
            return [f"witness {word!r} is not minimal: {smaller!r} comes first"]
    if first_witness(a, b, len(word)) != (word, kind):
        return [f"witness {word!r} is not the length-lex-least"]
    return []
