import itertools

import pytest
from hypothesis import given, strategies as st

from ocalearn import (Configuration, Droca, InvalidInput, SimulatedTeacher, automata,
                      check_sync_equiv, doubled_alphabet, learn, pretty_encoded,
                      reachable_count, store, validate, voca_check_equiv)
from conftest import make_anbna, make_five_state_a_plus, random_machine, random_voca
from oracles import action_map_by_columns


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


def test_action_map_matches_the_column_oracle():
    # random DROCAs, random VOCAs, VOCAs with one action changed in one
    # state, and the golden machines
    machines = [make_anbna(), make_five_state_a_plus()]
    for seed in range(60):
        machines.append(random_machine(seed, max_states=5, alphabet_size=1 + seed % 3,
                                       restricted=seed % 2 == 0))
        voca = random_voca(seed, max_states=5, alphabet_size=1 + seed % 3)
        deltas = [dict(voca.delta0), dict(voca.delta1)]
        sign = seed % 2
        key = sorted(deltas[sign])[seed % len(deltas[sign])]
        target, action = deltas[sign][key]
        deltas[sign][key] = (target, (action + 1) % 2 if sign == 0 else (action + 2) % 3 - 1)
        machines += [voca, Droca(voca.states, voca.alphabet, voca.initial, *deltas, voca.finals)]
    kinds = set()
    for machine in machines:
        expected = action_map_by_columns(machine)
        kinds.add(expected is None)
        assert machine.is_voca() == (expected is not None)
        if expected is None:
            with pytest.raises(InvalidInput, match="not visibly one-counter"):
                machine.voca_action_map()
        else:
            assert list(machine.voca_action_map().items()) == list(expected.items())
    assert kinds == {True, False}


def test_action_map_is_kept_with_the_tables(monkeypatch):
    # a table build works out no map; the first VOCA question works it out
    # from the tables, every later one reads it, and drop_tables frees it
    # with the tables
    machine = random_voca(4, max_states=5)
    machine.indexed_tables()
    assert machine._actions is automata._UNKNOWN
    reads = []
    indexed_tables = Droca.indexed_tables

    def counted(m):
        reads.append(m)
        return indexed_tables(m)

    monkeypatch.setattr(Droca, "indexed_tables", counted)
    assert machine.is_voca()
    kept = machine._actions
    assert reads == [machine]
    for _ in range(3):
        assert machine.is_voca()
        assert machine.voca_action_map() == kept
        assert machine.voca_action_map() is not kept
    assert machine._actions is kept and reads == [machine]
    machine.drop_tables()
    assert machine._indexed is None and machine._actions is automata._UNKNOWN
    assert machine.voca_action_map() == kept
    assert machine._actions is not kept and reads == [machine, machine]


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
    # a machine missing a reachable transition, one that repeats a state
    # id, one with a transition to an unknown state, one with an unknown
    # initial state, one that decrements at zero, one with a
    # positive-mode action of 2, one with a final state that is not a
    # state, one with a transition on a letter outside the alphabet, one
    # with an unhashable state id, one with an unhashable action, values
    # that are no (target, action) tuple (an int, a triple, a list), keys
    # that are no (state, letter) tuple (one that does not unpack into
    # two, and a string that does, on a machine whose state and letter it
    # spells), a bool action, which equals 1, no states, a repeated
    # letter, a letter of two characters, the letter ',', an empty state
    # id, a state id with ',' and a transition from an unknown state,
    # through every call that reads the dense tables, steps, runs or
    # stores; and a symbol outside the alphabet of a DFA
    def changed(delta0=anbna.delta0, delta1=anbna.delta1, **fields):
        machine = dict(states=anbna.states, alphabet=anbna.alphabet, initial=anbna.initial,
                       delta0=delta0, delta1=delta1, finals=anbna.finals)
        return Droca(**{**machine, **fields})

    delta1 = dict(anbna.delta1)
    del delta1[("q1", "b")]
    missing = "no transition from state 'q1' on 'b' at counter positive"
    machines = (
        (changed(delta1=delta1), missing),
        (changed(states=anbna.states + ("q2",)), "repeated state id 'q2'"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): ("zz", 1)}), "unknown state 'zz'"),
        (changed(initial="nope"), "unknown state 'nope'"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): ("q0", -1)}),
         r"decrement at zero: delta0\[q0,a\]"),
        (changed(delta1={**anbna.delta1, ("q0", "a"): ("q0", 2)}),
         r"delta1\[q0,a\] has invalid action 2"),
        (changed(finals=anbna.finals | {"zz"}), "final state 'zz' is not a state"),
        (changed(delta0={**anbna.delta0, ("q0", "c"): ("q0", 0)}),
         "on the unknown letter 'c'"),
        (changed(states=["q", ["r"]]), r"state id \['r'\] is unhashable"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): ("q", [1])}),
         r"delta0\[q0,a\] has the unhashable action \[1\]"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): 5}),
         r"delta0\[q0,a\] is 5, not a \(target, action\) tuple"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): ("q0", 0, 1)}),
         r"delta0\[q0,a\] is \('q0', 0, 1\), not a \(target, action\) tuple"),
        (changed(delta0={**anbna.delta0, "q0a": ("q0", 0)}),
         r"delta0 key 'q0a' is not a \(state, letter\) tuple"),
        (changed(delta1={**anbna.delta1, ("q0", "a"): ["q0", 1]}),
         r"delta1\[q0,a\] is \['q0', 1\], not a \(target, action\) tuple"),
        (Droca(["q"], ["a", "b"], "q", {"qa": ("q", 0), ("q", "b"): ("q", 0)},
               {("q", "a"): ("q", 0), ("q", "b"): ("q", 0)}, []),
         r"delta0 key 'qa' is not a \(state, letter\) tuple"),
        (changed(delta0={**anbna.delta0, ("q0", "a"): ("q0", True)}),
         r"delta0\[q0,a\] has invalid action True"),
        (changed(states=()), "no states"),
        (changed(alphabet="aba"), "repeated letter 'a'"),
        (changed(alphabet=("a", "bc")), "letter 'bc' is not a single character"),
        (changed(alphabet="ab,"), "letter ',' clashes with the transition key format"),
        (changed(states=anbna.states + ("",)), "state id '' is not a nonempty string"),
        (changed(states=anbna.states + ("q,4",)), "state id 'q,4' contains ','"),
        (changed(delta0={**anbna.delta0, ("zz", "a"): ("q0", 0)}),
         r"delta0\[zz,a\] is from the unknown state 'zz'"),
    )
    calls = (lambda m: check_sync_equiv(m, anbna), lambda m: check_sync_equiv(anbna, m),
             reachable_count, lambda m: m.is_voca(), lambda m: m.voca_action_map(),
             lambda m: voca_check_equiv(m, m), lambda m: learn(SimulatedTeacher(m)),
             lambda m: m.step(Configuration("q0", 0), "a"), lambda m: m.run("aabb"),
             lambda m: m.characteristic_dfa(), store)
    for machine, message in machines:
        for call in calls:
            with pytest.raises(InvalidInput, match=message):
                call(machine)
    with pytest.raises(InvalidInput, match="symbol 'c0' not in DFA alphabet"):
        anbna.characteristic_dfa().accepts(("a0", "c0"))


def test_validate_names_every_unhashable_part(anbna):
    # an entry that is not a pair, the value 5, adds no violation
    broken = Droca(["q0", ["r"]], ["a", ["b"]], ["q0"],
                   {("q0", "a"): (["q0"], 1), ("q0", "b"): 5}, {("q0", "a"): ("q0", {0})}, [])
    assert validate(broken) == [
        "state id ['r'] is unhashable", "letter ['b'] is unhashable",
        "initial state ['q0'] is unhashable", "delta0[q0,a] targets the unhashable ['q0']",
        "delta1[q0,a] has the unhashable action {0}"]


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
