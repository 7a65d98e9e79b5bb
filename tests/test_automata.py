import itertools

import pytest
from hypothesis import given, strategies as st

from ocalearn import (Configuration, Droca, InvalidInput, SimulatedTeacher,
                      check_sync_equiv, doubled_alphabet, learn, pretty_encoded,
                      reachable_count, validate, voca_check_equiv)
from conftest import make_anbna, random_machine


def test_step_examples(anbna):
    assert anbna.step(Configuration("q0", 0), "a") == Configuration("q0", 1)
    assert anbna.step(Configuration("q0", 2), "b") == Configuration("q1", 1)
    # action-0 self loop keeps the configuration
    assert anbna.step(Configuration("q1", 0), "a") == Configuration("q2", 0)


def test_step_rejects_unknown_inputs(anbna):
    with pytest.raises(InvalidInput):
        anbna.step(Configuration("nope", 0), "a")
    with pytest.raises(InvalidInput):
        anbna.step(Configuration("q0", 0), "z")


def test_run_examples(anbna):
    aba = anbna.run("aba")
    assert aba.accepted and aba.configs[-1] == Configuration("q2", 0)
    ab = anbna.run("ab")
    assert not ab.accepted and ab.counter_effect == 0
    empty = anbna.run("")
    assert not empty.accepted and empty.configs == (Configuration("q0", 0),)
    aab = anbna.run("aab")
    assert aab.counter_effect == 1 and aab.height == 2


def test_run_rejects_unknown_letter(anbna):
    with pytest.raises(InvalidInput):
        anbna.run("abc")


def test_counters_never_negative(anbna):
    for length in range(7):
        for word in map("".join, itertools.product("ab", repeat=length)):
            assert all(c.counter >= 0 for c in anbna.run(word).configs)


def test_encode_examples(anbna):
    assert anbna.encode("") == ()
    assert anbna.encode("aba") == ("a0", "b1", "a0")
    assert anbna.encode("ab") == ("a0", "b1")
    assert pretty_encoded(anbna.encode("aba")) == "a⁰b¹a⁰"
    assert pretty_encoded(()) == "ε"


def test_encode_injective(anbna):
    words = ["".join(w) for n in range(6) for w in itertools.product("ab", repeat=n)]
    encodings = {anbna.encode(w) for w in words}
    assert len(encodings) == len(words)
    for w in words:
        assert "".join(sym[:-1] for sym in anbna.encode(w)) == w


def test_characteristic_dfa_golden(anbna):
    dfa = anbna.characteristic_dfa()
    assert dfa.states == anbna.states
    assert dfa.initial == "q0"
    assert dfa.finals == frozenset({"q2"})
    assert dfa.size == anbna.size
    expected = {
        ("q0", "a0"): "q0", ("q0", "a1"): "q0", ("q0", "b0"): "q3", ("q0", "b1"): "q1",
        ("q1", "a0"): "q2", ("q1", "a1"): "q3", ("q1", "b0"): "q3", ("q1", "b1"): "q1",
        ("q2", "a0"): "q3", ("q2", "a1"): "q3", ("q2", "b0"): "q3", ("q2", "b1"): "q3",
        ("q3", "a0"): "q3", ("q3", "a1"): "q3", ("q3", "b0"): "q3", ("q3", "b1"): "q3",
    }
    assert dfa.transition == expected


def test_characteristic_dfa_single_state():
    loop = Droca(states=["s"], alphabet=["a", "b"], initial="s",
                 delta0={("s", "a"): ("s", 0), ("s", "b"): ("s", 0)},
                 delta1={("s", "a"): ("s", 0), ("s", "b"): ("s", 0)},
                 finals=["s"])
    dfa = loop.characteristic_dfa()
    assert dfa.size == 1 and len(dfa.transition) == 4
    assert all(t == "s" for t in dfa.transition.values())


def test_characteristic_dfa_sound_exhaustive():
    # every word of length up to 8 over up to 3 letters
    machines = [make_anbna()] + [random_machine(seed, max_states=4, alphabet_size=3)
                                 for seed in range(3)]
    for machine in machines:
        dfa = machine.characteristic_dfa()
        for length in range(9):
            for word in map("".join, itertools.product(machine.alphabet, repeat=length)):
                assert dfa.accepts(machine.encode(word)) == machine.accepts(word)


def test_run_deterministic(anbna):
    assert anbna.run("aabba") == anbna.run("aabba")


def test_is_voca():
    one = Droca(states=["s"], alphabet=["a"], initial="s",
                delta0={("s", "a"): ("s", 1)}, delta1={("s", "a"): ("s", -1)},
                finals=["s"])
    assert one.is_voca()
    assert one.voca_action_map() == {("a", 0): 1, ("a", 1): -1}
    two = Droca(states=["p", "q"], alphabet=["a"], initial="p",
                delta0={("p", "a"): ("q", 0), ("q", "a"): ("p", 0)},
                delta1={("p", "a"): ("p", 1), ("q", "a"): ("q", 0)},
                finals=["p"])
    assert not two.is_voca()
    with pytest.raises(InvalidInput):
        two.voca_action_map()


def test_anbna_machine_mixes_actions_per_state(anbna):
    # zero-mode a is +1 from q0 but 0 from q1, so the golden machine is
    # not visibly one-counter
    assert not anbna.is_voca()


def test_validate_golden_ok(anbna):
    assert validate(anbna) == []


def test_validate_catches_missing_entry(anbna):
    delta1 = dict(anbna.delta1)
    del delta1[("q1", "b")]
    broken = Droca(anbna.states, anbna.alphabet, anbna.initial,
                   anbna.delta0, delta1, anbna.finals)
    assert any("incomplete transition table" in v for v in validate(broken))


def test_malformed_machines_raise_named_errors(anbna):
    # a machine missing a reachable transition, and one that repeats a
    # state id, through every call that reads the dense tables or steps
    delta1 = dict(anbna.delta1)
    del delta1[("q1", "b")]
    incomplete = Droca(anbna.states, anbna.alphabet, anbna.initial,
                       anbna.delta0, delta1, anbna.finals)
    repeated = Droca(anbna.states + ("q2",), anbna.alphabet, anbna.initial,
                     anbna.delta0, anbna.delta1, anbna.finals)
    calls = (lambda m: check_sync_equiv(m, anbna), lambda m: check_sync_equiv(anbna, m),
             reachable_count, lambda m: m.is_voca(), lambda m: voca_check_equiv(m, m),
             lambda m: learn(SimulatedTeacher(m)))
    missing = "no transition from state 'q1' on 'b' at counter positive"
    for machine, message in ((incomplete, missing), (repeated, "repeated state id 'q2'")):
        for call in calls:
            with pytest.raises(InvalidInput, match=message):
                call(machine)
    with pytest.raises(InvalidInput, match=missing):     # stepped, not tabled
        incomplete.run("aabb")


def test_validate_catches_decrement_at_zero(anbna):
    delta0 = dict(anbna.delta0)
    delta0[("q0", "a")] = ("q0", -1)
    broken = Droca(anbna.states, anbna.alphabet, anbna.initial,
                   delta0, anbna.delta1, anbna.finals)
    assert any("decrement at zero" in v for v in validate(broken))


def test_doubled_alphabet_order():
    assert doubled_alphabet(("a", "b")) == ("a0", "a1", "b0", "b1")


@given(st.integers(min_value=0, max_value=10**6))
def test_counter_effect_matches_trace(n):
    machine = make_anbna()
    word = "a" * (n % 5) + "b" * (n % 3)
    trace = machine.run(word)
    assert machine.counter_effect(word) == trace.configs[-1].counter
    assert trace.height == max(c.counter for c in trace.configs)
