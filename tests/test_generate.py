import hashlib
import random
import tracemalloc
from collections import deque

import pytest

from ocalearn import (Droca, GenConfig, InvalidInput, derive_seed, generate, generate_droca,
                      reachable_count, splitmix64, store, validate)
from conftest import random_machine, ring_machine
import oracles


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


def _sparse_machine(seed):
    """A machine of 2-20 states over 1-3 letters from any initial state,
    whose zero-counter steps keep the counter at zero four times in five,
    so that many states are reached only through counter moves, or not
    at all."""
    rng = random.Random(seed)
    n = rng.randrange(2, 21)
    letters = "abc"[:rng.randrange(1, 4)]
    states = [f"q{i}" for i in range(n)]
    delta0 = {(q, a): (rng.choice(states), int(rng.random() < 0.2))
              for q in states for a in letters}
    delta1 = {(q, a): (rng.choice(states), rng.randrange(3) - 1)
              for q in states for a in letters}
    return Droca(states, letters, rng.choice(states), delta0, delta1, states[:1])


def test_reachable_count_equals_the_exhaustive_count():
    # the sign bound's early stop changes no count: on 2,000 machines,
    # hundreds with states no capped run reaches although the bound holds
    # them, the count equals the search that stops only at every state
    loose = unreachable = 0
    for i in range(2000):
        machine = _sparse_machine(derive_seed(808, i))
        count = reachable_count(machine)
        assert count == oracles.reachable_count(machine), i
        d0, d1, _, init = machine.indexed_tables()
        loose += generate._sign_bound(d0, d1, init) > count
        unreachable += count < machine.size
    assert loose >= 100 and unreachable >= 500


def test_reachable_count_of_a_large_machine_stays_small_in_memory():
    # no table over all |A|·(|A|²+1) configurations: a 1000-state machine
    # would need a gigabyte for it
    machine = ring_machine(1000)
    machine.indexed_tables()
    tracemalloc.start()
    try:
        assert reachable_count(machine) == 1000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# sha-256 of store(generate_droca(...)) as recorded before the count's
# sign bound: a change in the draws the generator makes, or in the
# machines it accepts, fails here first
_GRID_DIGEST = "12615f1355cde43bf32f5635ddc5fdb2f6a9e2d6d667e9b34c70de1f297b2828"
_FRONTIER_DIGESTS = {(20, 0): "165d641be5171cab", (20, 1): "54c8fa1ed7f71fb0",
                     (20, 2): "45667df8e4dfe681", (30, 0): "c94957bd9349c67c",
                     (30, 1): "0d44390ce09338ac", (30, 2): "9ce02d352b383815",
                     (50, 0): "1aa13c118f42143a", (50, 1): "b75211fbab99fd84",
                     (50, 2): "c478ef37e7b4f06d"}


def test_generation_is_pinned_by_digest():
    grid = hashlib.sha256()
    for n in range(2, 9):
        for k in range(1, 4):
            for restricted in (False, True):
                machine = generate_droca(GenConfig(
                    n_states=n, alphabet_size=k, seed=derive_seed(700, n, k, int(restricted)),
                    restricted=restricted))
                grid.update(store(machine).encode())
    assert grid.hexdigest() == _GRID_DIGEST
    frontier = {}
    for n, i in _FRONTIER_DIGESTS:
        machine = generate_droca(GenConfig(n_states=n, alphabet_size=2,
                                           seed=derive_seed(555, n, i)))
        frontier[n, i] = hashlib.sha256(store(machine).encode()).hexdigest()[:16]
    assert frontier == _FRONTIER_DIGESTS


def test_generation_basic_shape():
    machine = generate_droca(GenConfig(n_states=5, alphabet_size=2, seed=42))
    assert reachable_count(machine) == 5
    assert 0 < len(machine.finals) < len(machine.states)
    assert validate(machine) == []


def test_generation_builds_only_the_accepted_machine(monkeypatch):
    # a rejected draw is counted on its rows and never named or built:
    # one call that rejects draws on their count constructs one Droca
    counts, built = [], []
    count_rows = generate._reachable

    def counted(*rows):
        counts.append(count_rows(*rows))
        return counts[-1]

    class CountedDroca(Droca):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(generate, "_reachable", counted)
    monkeypatch.setattr(generate, "Droca", CountedDroca)
    machine = generate_droca(GenConfig(n_states=6, alphabet_size=1, seed=0))
    assert len(counts) > 1 and counts[-1] == 6 > max(counts[:-1])
    assert built == [machine]


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
