from collections import deque

import pytest

from ocalearn import (GenConfig, InvalidInput, derive_seed, generate_droca,
                      reachable_count, splitmix64, store, validate)
from conftest import random_machine


def test_reachable_count_golden(anbna):
    assert reachable_count(anbna) == 4


def test_reachable_count_small():
    from ocalearn import Droca
    single = Droca(states=["s"], alphabet=["a"], initial="s",
                   delta0={("s", "a"): ("s", 1)}, delta1={("s", "a"): ("s", 1)},
                   finals=["s"])
    assert reachable_count(single) == 1
    island = Droca(states=["s", "t"], alphabet=["a"], initial="s",
                   delta0={("s", "a"): ("s", 1), ("t", "a"): ("t", 0)},
                   delta1={("s", "a"): ("s", 1), ("t", "a"): ("t", 0)},
                   finals=["t"])
    assert reachable_count(island) == 1


def test_reachable_count_matches_a_wider_search():
    # a search with the counter capped at 4·|A|² reaches no state that
    # the generator's count, capped at |A|², misses
    for i in range(100):
        machine = random_machine(derive_seed(321, i), max_states=6)
        d0, d1, _, init = machine.indexed_tables()
        cap = 4 * machine.size ** 2
        seen = {(init, 0)}
        reachable = {init}
        queue = deque([(init, 0)])
        while queue:
            q, n = queue.popleft()
            row = d0[q] if n == 0 else d1[q]
            for state, action in row:
                child = (state, n + action)
                if child[1] <= cap and child not in seen:
                    seen.add(child)
                    reachable.add(state)
                    queue.append(child)
        assert reachable_count(machine) == len(reachable)


def test_generation_basic_shape():
    machine = generate_droca(GenConfig(n_states=5, alphabet_size=2, seed=42))
    assert reachable_count(machine) == 5
    assert 0 < len(machine.finals) < len(machine.states)
    assert validate(machine) == []


def test_generation_deterministic():
    config = GenConfig(n_states=4, alphabet_size=2, seed=7)
    assert store(generate_droca(config)) == store(generate_droca(config))


def test_generation_distinct_seeds_differ():
    a = generate_droca(GenConfig(n_states=4, alphabet_size=2, seed=1))
    b = generate_droca(GenConfig(n_states=4, alphabet_size=2, seed=2))
    assert a != b


def test_generation_reachability_sweep():
    for i in range(500):
        n = 2 + i % 5
        k = 1 + i % 3
        machine = generate_droca(GenConfig(n_states=n, alphabet_size=k,
                                           seed=derive_seed(600, i)))
        assert reachable_count(machine) == n
        assert 0 < len(machine.finals) < len(machine.states)
        assert validate(machine) == []


def test_restricted_generation_syntactic_condition():
    for i in range(60):
        n = 2 + i % 5
        machine = generate_droca(GenConfig(n_states=n, alphabet_size=2,
                                           seed=derive_seed(601, i),
                                           restricted=True))
        assert reachable_count(machine) == n
        for target, _ in machine.delta1.values():
            assert target not in machine.finals
        for target, action in machine.delta0.values():
            if target in machine.finals:
                assert action == 0


def test_restricted_acceptance_semantics():
    # with the restriction, acceptance by final state equals acceptance
    # by final state plus zero counter
    import itertools
    machine = generate_droca(GenConfig(n_states=4, alphabet_size=2,
                                       seed=912, restricted=True))
    for n in range(7):
        for word in map("".join, itertools.product(machine.alphabet, repeat=n)):
            trace = machine.run(word)
            if trace.accepted:
                assert trace.counter_effect == 0


def test_config_validation():
    with pytest.raises(InvalidInput):
        GenConfig(n_states=1, alphabet_size=2, seed=0)
    with pytest.raises(InvalidInput):
        GenConfig(n_states=3, alphabet_size=0, seed=0)


def test_splitmix_and_derive_are_stable():
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
    assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)


def test_reachable_count_reaches_a_state_first_seen_at_counter_twelve():
    # u0 u1 u2 add 1 on a, and b leaves u0 for d0 only at a positive
    # counter, which is then a multiple of 3; d0..d3 subtract 1 on a, and
    # a at counter zero reaches t only from d0, so the counter must have
    # been a multiple of 4 too: t is first reached from counter 12, which
    # a cap of |A| = 9 cuts off
    from ocalearn import Droca

    up, down = ["u0", "u1", "u2"], ["d0", "d1", "d2", "d3"]
    states = up + down + ["t", "s"]
    delta0 = {(q, a): ("s", 0) for q in states for a in "ab"}
    delta1 = dict(delta0)
    for i, q in enumerate(up):
        delta0[(q, "a")] = delta1[(q, "a")] = (up[(i + 1) % 3], 1)
    delta1[("u0", "b")] = ("d0", 0)
    for i, q in enumerate(down):
        delta1[(q, "a")] = (down[(i + 1) % 4], -1)
    delta0[("d0", "a")] = ("t", 0)
    machine = Droca(states=states, alphabet="ab", initial="u0",
                    delta0=delta0, delta1=delta1, finals=["t"])
    assert validate(machine) == []
    assert machine.accepts("a" * 12 + "b" + "a" * 13)
    assert reachable_count(machine) == 9
