import itertools
import random
import time
from types import SimpleNamespace

import pytest

from ocalearn import (ACCEPT_MISMATCH, COUNTER_DESYNC, Droca, EquivalenceTimeout,
                      GenConfig, InvalidInput, brute_force_equiv, check_sync_equiv,
                      derive_seed, equivalence, generate_droca, reach_witness,
                      reachable_count, voca_check_equiv)
from conftest import random_machine, random_voca, split_copy


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


def test_deadline_cuts_a_long_equivalent_search():
    # a 30-state target and an equivalent split copy: the product search
    # runs past 20 s without a deadline
    target = generate_droca(GenConfig(n_states=30, alphabet_size=2,
                                      seed=derive_seed(555, 30, 0)))
    copy = split_copy(target, random.Random(1))
    start = time.monotonic()
    with pytest.raises(EquivalenceTimeout):
        check_sync_equiv(target, copy, deadline=start + 0.2)
    assert time.monotonic() - start <= 0.2 + 0.25


def test_passed_deadline_raises_and_no_deadline_reads_no_clock(monkeypatch):
    a = random_voca(5, max_states=5)
    b = split_copy(a, random.Random(5))
    passed = time.monotonic() - 1
    for check in (check_sync_equiv, voca_check_equiv):
        with pytest.raises(EquivalenceTimeout):
            check(a, b, passed)

    def no_clock():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(equivalence, "time", SimpleNamespace(monotonic=no_clock))
    for check in (check_sync_equiv, voca_check_equiv):
        assert check(a, b).equivalent


def test_reach_witness_examples(anbna):
    assert reach_witness(anbna, "q0") == ("", 0)
    assert reach_witness(anbna, "q2") == ("aba", 0)
    with pytest.raises(InvalidInput):
        reach_witness(anbna, "nope")


def test_reach_witness_unreachable():
    machine = Droca(states=["p", "q"], alphabet=["a"], initial="p",
                    delta0={("p", "a"): ("p", 0), ("q", "a"): ("q", 0)},
                    delta1={("p", "a"): ("p", 0), ("q", "a"): ("q", 0)},
                    finals=["q"])
    assert reach_witness(machine, "q") is None


def test_reach_witness_bounds_random():
    from collections import deque
    for i in range(100):
        machine = random_machine(derive_seed(321, i), max_states=6)
        d0, d1, _, init = machine.indexed_tables()
        cap = 4 * machine.size ** 2
        seen = {(init, 0)}
        reachable = {init}
        min_arrival = {init: 0}
        queue = deque([(init, 0)])
        while queue:
            q, n = queue.popleft()
            row = d0[q] if n == 0 else d1[q]
            for state, action in row:
                child = (state, n + action)
                if child[1] <= cap and child not in seen:
                    seen.add(child)
                    reachable.add(state)
                    min_arrival[state] = min(min_arrival.get(state, child[1]), child[1])
                    queue.append(child)
        assert reachable_count(machine) == len(reachable)
        for idx, state in enumerate(machine.states):
            witness = reach_witness(machine, state)
            assert (witness is not None) == (idx in reachable)
            if witness is not None:
                word, counter = witness
                trace = machine.run(word)
                assert trace.configs[-1].state == state
                assert trace.configs[-1].counter == counter
                # arrival below |A| whenever any word achieves it; never
                # above |A| (zero-counter reachability always preferred)
                assert counter <= machine.size
                if min_arrival[idx] < machine.size:
                    assert counter < machine.size
                if min_arrival[idx] == 0:
                    assert counter == 0
                assert trace.height <= machine.size ** 2
