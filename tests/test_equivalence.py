import itertools
import random
import time
from types import SimpleNamespace

import pytest

from ocalearn import (ACCEPT_MISMATCH, COUNTER_DESYNC, Droca, EquivalenceTimeout,
                      InvalidInput, check_sync_equiv, derive_seed, equivalence, errors,
                      validate, voca_check_equiv)
from conftest import random_machine, random_voca, split_copy
from oracles import brute_force_equiv, capped_equiv


def test_reflexive(anbna):
    assert check_sync_equiv(anbna, anbna).equivalent


def test_changed_action_gives_desync_a(anbna):
    delta0 = dict(anbna.delta0)
    delta0[("q0", "a")] = ("q0", 0)
    other = Droca(anbna.states, anbna.alphabet, anbna.initial,
                  delta0, anbna.delta1, anbna.finals)
    verdict = check_sync_equiv(anbna, other)
    assert not verdict.equivalent
    assert verdict.counterexample.word == "a"
    assert verdict.counterexample.kind == COUNTER_DESYNC


def test_removed_final_gives_mismatch_aba(anbna):
    other = Droca(anbna.states, anbna.alphabet, anbna.initial,
                  anbna.delta0, anbna.delta1, finals=[])
    verdict = check_sync_equiv(anbna, other)
    assert not verdict.equivalent
    assert verdict.counterexample.word == "aba"
    assert verdict.counterexample.kind == ACCEPT_MISMATCH
    # shortest accepted word of the golden machine really is aba
    accepted = [w for n in range(6)
                for w in map("".join, itertools.product("ab", repeat=n))
                if anbna.accepts(w)]
    assert accepted[0] == "aba"


def test_alphabet_mismatch_raises(anbna):
    other = Droca(states=["s"], alphabet=["a"], initial="s",
                  delta0={("s", "a"): ("s", 0)}, delta1={("s", "a"): ("s", 0)},
                  finals=[])
    with pytest.raises(InvalidInput):
        check_sync_equiv(anbna, other)


def test_epsilon_counterexample():
    yes = Droca(states=["s"], alphabet=["a"], initial="s",
                delta0={("s", "a"): ("s", 0)}, delta1={("s", "a"): ("s", 0)},
                finals=["s"])
    no = Droca(states=["s"], alphabet=["a"], initial="s",
               delta0={("s", "a"): ("s", 0)}, delta1={("s", "a"): ("s", 0)},
               finals=[])
    verdict = check_sync_equiv(yes, no)
    assert verdict.counterexample.word == ""
    assert verdict.counterexample.kind == ACCEPT_MISMATCH
    assert not brute_force_equiv(yes, no, 0).equivalent


def test_brute_force_examples(anbna):
    assert brute_force_equiv(anbna, anbna, 6).equivalent
    flipped = Droca(anbna.states, anbna.alphabet, anbna.initial,
                    anbna.delta0, anbna.delta1,
                    finals=set(anbna.states) - anbna.finals)
    verdict = brute_force_equiv(anbna, flipped, 0)
    assert verdict.counterexample.word == ""
    assert verdict.counterexample.kind == ACCEPT_MISMATCH


def _same_length_pair(desync, mismatch):
    """A one-state machine that keeps the counter at zero and rejects
    everything, and a machine that differs from it first on two words of
    length two: its counter moves on the last letter of ``desync`` and it
    accepts ``mismatch``.  The states ``a`` and ``b`` are reached by the
    letters of the same name."""
    states = ("i", "a", "b", "f", "s")
    delta0 = {(q, x): ("s", 0) for q in states for x in "ab"}
    delta0[("i", "a")] = ("a", 0)
    delta0[("i", "b")] = ("b", 0)
    delta0[(desync[0], desync[1])] = ("s", 1)
    delta0[(mismatch[0], mismatch[1])] = ("f", 0)
    delta1 = {key: ("s", 0) for key in delta0}
    other = Droca(states, ("a", "b"), "i", delta0, delta1, ["f"])
    flat = {("p", x): ("p", 0) for x in "ab"}
    return Droca(["p"], ("a", "b"), "p", flat, flat, []), other


def test_cross_validation_random_pairs():
    # hand-built pairs first: a counter desync and an acceptance mismatch
    # first appear at the same length, one at ab and the other at ba, so
    # only the length-lex order of the two decides the witness
    ab_mismatch = _same_length_pair(desync="ba", mismatch="ab")
    ab_desync = _same_length_pair(desync="ab", mismatch="ba")
    for (a, b), kind in ((ab_mismatch, ACCEPT_MISMATCH), (ab_desync, COUNTER_DESYNC)):
        for left, right in ((a, b), (b, a)):
            slow = brute_force_equiv(left, right, 2).counterexample
            assert (slow.word, slow.kind) == ("ab", kind)
            assert check_sync_equiv(left, right).counterexample == slow
    agree = 0
    for i in range(150):
        a = random_machine(derive_seed(900, i, 0), max_states=5)
        b = random_machine(derive_seed(900, i, 1), max_states=5)
        fast = check_sync_equiv(a, b)
        slow = brute_force_equiv(a, b, 12)
        if slow.equivalent:
            assert fast.equivalent or len(fast.counterexample.word) > 12
        else:
            assert not fast.equivalent
            assert fast.counterexample == slow.counterexample
            agree += 1
    assert agree > 100  # random pairs are almost never equivalent


def test_counterexample_bounds_random_pairs():
    for i in range(60):
        a = random_machine(derive_seed(901, i, 0), max_states=5)
        b = random_machine(derive_seed(901, i, 1), max_states=5)
        verdict = check_sync_equiv(a, b)
        if verdict.equivalent:
            continue
        word = verdict.counterexample.word
        k = max(a.size, b.size)
        assert len(word) <= 2 * k ** 5
        assert a.run(word).height <= k ** 4 and b.run(word).height <= k ** 4
        if verdict.counterexample.kind == COUNTER_DESYNC:
            assert a.counter_effect(word) != b.counter_effect(word)
            for j in range(len(word)):
                assert a.counter_effect(word[:j]) == b.counter_effect(word[:j])
        else:
            assert a.accepts(word) != b.accepts(word)
            for j in range(len(word) + 1):
                assert a.counter_effect(word[:j]) == b.counter_effect(word[:j])


def test_voca_self_equivalence():
    for i in range(10):
        voca = random_voca(i)
        assert voca_check_equiv(voca, voca).equivalent


def test_voca_one_state_final_vs_not():
    base = dict(states=["s"], alphabet=["a"], initial="s",
                delta0={("s", "a"): ("s", 1)}, delta1={("s", "a"): ("s", 1)})
    yes = Droca(finals=["s"], **base)
    no = Droca(finals=[], **base)
    verdict = voca_check_equiv(yes, no)
    assert verdict.counterexample.word == ""
    assert verdict.counterexample.kind == ACCEPT_MISMATCH


def test_voca_rejects_non_voca(anbna):
    with pytest.raises(InvalidInput):
        voca_check_equiv(anbna, anbna)


def test_voca_cross_validation():
    import random
    for i in range(60):
        rng = random.Random(derive_seed(77, i))
        shared = {}
        for a in "ab":
            shared[(a, 0)] = rng.randrange(2)
            shared[(a, 1)] = rng.randrange(3) - 1
        a = random_voca(derive_seed(77, i, 0), action_map=shared)
        b = random_voca(derive_seed(77, i, 1),
                        action_map=None if i % 4 == 0 else shared)
        # state-split copies are larger and equivalent by construction
        split = split_copy(split_copy(a, rng), rng)
        assert validate(split) == [] and split.size == a.size + 2
        for left, right in ((a, b), (split, a)):
            fast = voca_check_equiv(left, right)
            sync = check_sync_equiv(left, right)
            assert fast.equivalent == sync.equivalent
            if left is split:
                assert fast.equivalent
            if not fast.equivalent:
                assert fast.counterexample == sync.counterexample
                k = max(left.size, right.size)
                assert len(fast.counterexample.word) <= 4 * k * (k + k * k)
                assert left.run(fast.counterexample.word).height <= 2 * (k + k * k)


def _mutants(m, rng):
    """Copies of ``m`` with one final state flipped, one transition
    retargeted, and one counter action changed."""
    yield Droca(m.states, m.alphabet, m.initial, m.delta0, m.delta1,
                set(m.finals) ^ {rng.choice(m.states)})
    for field in ("target", "action"):
        deltas = [dict(m.delta0), dict(m.delta1)]
        sign = rng.randrange(2)
        key = rng.choice(sorted(deltas[sign]))
        target, action = deltas[sign][key]
        if field == "target":
            target = rng.choice(m.states)
        else:
            action = rng.choice([e for e in ((0, 1), (-1, 0, 1))[sign] if e != action])
        deltas[sign][key] = (target, action)
        yield Droca(m.states, m.alphabet, m.initial, *deltas, m.finals)


def test_decision_matches_the_capped_search():
    # verdicts and witnesses equal those of the capped search that decided
    # equivalence before, and the brute-force oracle's; the summary
    # decision alone agrees with the capped search on every pair, also on
    # those the length-lex search refutes within its first |A||B| nodes
    equivalent = refuted = 0
    for i in range(120):
        rng = random.Random(derive_seed(902, i))
        letters = 1 + i % 3
        if i % 2:
            shared = {(x, sign): rng.randrange(2 + sign) - sign for x in "abc" for sign in (0, 1)}
            a = random_voca(derive_seed(902, i, 0), max_states=4, alphabet_size=letters,
                            action_map=shared)
            other = random_voca(derive_seed(902, i, 1), max_states=4, alphabet_size=letters,
                                action_map=shared if i % 4 == 1 else None)
        else:
            a, other = (random_machine(derive_seed(902, i, j), max_states=4,
                                       alphabet_size=letters, restricted=i % 4 == 0)
                        for j in (0, 1))
        split = split_copy(a, rng)
        max_len = 12 if letters < 3 else 7
        for left, right in ((a, split), (split, a), (a, other), *((a, m) for m in _mutants(a, rng))):
            expected = capped_equiv(left, right)
            assert equivalence._decide_by_summaries(left, right, None) == expected[0]
            checks = [check_sync_equiv]
            if left.is_voca() and right.is_voca():
                checks.append(voca_check_equiv)
            for check in checks:
                verdict = check(left, right)
                ce = verdict.counterexample
                assert (verdict.equivalent, ce and ce.word, ce and ce.kind) == expected
            slow = brute_force_equiv(left, right, max_len)
            if slow.equivalent:
                assert verdict.equivalent or len(ce.word) > max_len
            else:
                assert verdict == slow
            equivalent += verdict.equivalent
            refuted += not verdict.equivalent
    assert equivalent > 300 and refuted > 300


def _nested(depth, mode=None):
    """``a`` counts up along a chain of states and ``b`` counts down at a
    positive counter, so ``a^depth b^depth`` is the only way to reach
    the chain's last state, and it arrives at counter zero; every other
    move leads to a sink.  With ``mode`` set, the last state's ``b``
    counts up instead in that counter mode."""
    states = [f"s{i}" for i in range(2 * depth + 1)] + ["sink"]
    delta0 = {(q, x): ("sink", int(x == "a")) for q in states for x in "ab"}
    delta1 = {(q, x): ("sink", 1 if x == "a" else -1) for q in states for x in "ab"}
    for i in range(2 * depth):
        if i < depth:
            delta0[(states[i], "a")] = delta1[(states[i], "a")] = (states[i + 1], 1)
        else:
            delta1[(states[i], "b")] = (states[i + 1], -1)
    if mode is not None:
        (delta0, delta1)[mode][(states[-2], "b")] = ("sink", 1)
    return Droca(states, "ab", "s0", delta0, delta1, [])


def test_decision_follows_nested_returns():
    # the last state is reached at counter zero only through nested
    # returns, so a changed zero-mode action is found after a^d b^d and a
    # changed positive-mode one is never read
    for depth in range(1, 5):
        base = _nested(depth)
        for mode, expected in ((0, (False, "a" * depth + "b" * (depth + 1), COUNTER_DESYNC)),
                               (1, (True, None, None))):
            other = _nested(depth, mode)
            assert capped_equiv(base, other) == expected
            assert equivalence._decide_by_summaries(base, other, None) == expected[0]
            verdict = check_sync_equiv(base, other)
            ce = verdict.counterexample
            assert (verdict.equivalent, ce and ce.word, ce and ce.kind) == expected


def _ring(n):
    """An n-state machine whose equivalence decision has dense returns:
    ``a`` counts up to the next state, ``b`` jumps to state 7i+3 and
    counts down at a positive counter."""
    states = [f"q{i}" for i in range(n)]
    delta0, delta1 = {}, {}
    for i, q in enumerate(states):
        delta0[(q, "a")] = delta1[(q, "a")] = (states[(i + 1) % n], 1)
        delta0[(q, "b")] = (states[(7 * i + 3) % n], 0)
        delta1[(q, "b")] = (states[(7 * i + 3) % n], -1)
    return Droca(states, "ab", states[0], delta0, delta1,
                 [q for i, q in enumerate(states) if i % 3 == 0])


def _with_letter_count(m, size):
    """``m`` times a count of the letters read modulo ``size``: equivalent
    to ``m`` and ``size`` times larger, so its product with ``m`` has
    ``size`` times as many state pairs."""
    name = {(q, j): f"{q}_{j}" for q in m.states for j in range(size)}
    delta0, delta1 = {}, {}
    for (q, j), state in name.items():
        for source, delta in ((m.delta0, delta0), (m.delta1, delta1)):
            for x in m.alphabet:
                target, action = source[(q, x)]
                delta[(state, x)] = (name[(target, (j + 1) % size)], action)
    return Droca(list(name.values()), m.alphabet, name[(m.initial, 0)], delta0, delta1,
                 [state for (q, _), state in name.items() if q in m.finals])


def test_deadline_cuts_a_long_equivalent_search():
    # a 1000-state machine and its split copy spend the deadline in the
    # length-lex search's |A||B| nodes; the 8-state ring against its
    # 2400-state letter-counting copy passes that search in milliseconds
    # and spends it in the decision's sweeps, about half a second in all
    # on a shared 2-core host
    big, small = _ring(1000), _ring(8)
    for a, b, seconds in ((big, split_copy(big, random.Random(1)), 0.2),
                          (small, _with_letter_count(small, 300), 0.15)):
        start = time.monotonic()
        with pytest.raises(EquivalenceTimeout):
            check_sync_equiv(a, b, deadline=start + seconds)
        assert time.monotonic() - start <= seconds + 0.25


def test_decision_reads_the_clock_inside_its_sweeps(monkeypatch):
    # the ring against its letter-counting copy takes about ten sweeps
    # whose rows read thousands of return bits; the clock is read every
    # few thousand of them, and a deadline that passes at some read
    # raises there
    a, b = _ring(8), _with_letter_count(_ring(8), 300)
    reads = []

    def clock(limit):
        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) < limit else 2.0
        return SimpleNamespace(monotonic=monotonic)

    monkeypatch.setattr(errors, "time", clock(float("inf")))
    assert equivalence._decide_by_summaries(a, b, 1.0)
    total = len(reads)
    assert total > 100
    reads.clear()
    monkeypatch.setattr(errors, "time", clock(total // 2))
    with pytest.raises(EquivalenceTimeout):
        equivalence._decide_by_summaries(a, b, 1.0)
    assert len(reads) == total // 2
    reads.clear()
    monkeypatch.setattr(errors, "time", clock(float("inf")))
    assert equivalence._decide_by_summaries(a, b, None)
    assert reads == []


def test_passed_deadline_raises_and_no_deadline_reads_no_clock(monkeypatch):
    a = random_voca(5, max_states=5)
    b = split_copy(a, random.Random(5))
    passed = time.monotonic() - 1
    for check in (check_sync_equiv, voca_check_equiv):
        with pytest.raises(EquivalenceTimeout):
            check(a, b, passed)

    def no_clock():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=no_clock))
    for check in (check_sync_equiv, voca_check_equiv):
        assert check(a, b).equivalent
