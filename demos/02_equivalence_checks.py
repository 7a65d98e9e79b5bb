"""Walkthrough: synchronous equivalence with minimal counterexamples.

Two machines are counter-synchronous when every word reaches the same
counter value in both.  The checker decides "counter-synchronous and
equivalent" exactly, by summarising the synchronized product's runs
that return to their starting counter, and on failure reports the
length-lex smallest witness: either the first word where the counters
diverge or the first word only one machine accepts.
"""

from ocalearn import Droca, GenConfig, check_sync_equiv, generate_droca, voca_check_equiv

base = Droca(
    states=["q0", "q1", "q2", "q3"],
    alphabet=["a", "b"],
    initial="q0",
    delta0={("q0", "a"): ("q0", 1), ("q0", "b"): ("q3", 1),
            ("q1", "a"): ("q2", 0), ("q1", "b"): ("q3", 1),
            ("q2", "a"): ("q3", 1), ("q2", "b"): ("q3", 1),
            ("q3", "a"): ("q3", 1), ("q3", "b"): ("q3", 1)},
    delta1={("q0", "a"): ("q0", 1), ("q0", "b"): ("q1", -1),
            ("q1", "a"): ("q3", 1), ("q1", "b"): ("q1", -1),
            ("q2", "a"): ("q3", 1), ("q2", "b"): ("q3", 1),
            ("q3", "a"): ("q3", 1), ("q3", "b"): ("q3", 1)},
    finals=["q2"])

print("self comparison:", check_sync_equiv(base, base))

slower = Droca(base.states, base.alphabet, base.initial,
               {**base.delta0, ("q0", "a"): ("q0", 0)}, base.delta1, base.finals)
print("initial a no longer increments:", check_sync_equiv(base, slower))

unforgiving = Droca(base.states, base.alphabet, base.initial,
                    base.delta0, base.delta1, finals=[])
print("no finals at all:", check_sync_equiv(base, unforgiving))

print()
print("visibly one-counter machines share their action map, so only")
print("acceptance can differ, and a witness stays within the paper's")
print("height 2(K+K^2) and length 4K(K+K^2):")
ping = Droca(states=["p", "q"], alphabet=["a"], initial="p",
             delta0={("p", "a"): ("q", 1), ("q", "a"): ("p", 1)},
             delta1={("p", "a"): ("q", 1), ("q", "a"): ("p", 1)},
             finals=["p"])
pong = Droca(states=["p", "q"], alphabet=["a"], initial="p",
             delta0={("p", "a"): ("q", 1), ("q", "a"): ("p", 1)},
             delta1={("p", "a"): ("q", 1), ("q", "a"): ("p", 1)},
             finals=["q"])
print("  parity flip:", voca_check_equiv(ping, pong))

print()
print("random machines are almost never equivalent; witnesses stay short:")
for seed in range(4):
    a = generate_droca(GenConfig(n_states=4, alphabet_size=2, seed=seed))
    b = generate_droca(GenConfig(n_states=4, alphabet_size=2, seed=seed + 100))
    print(f"  seed {seed}: {check_sync_equiv(a, b)}")
