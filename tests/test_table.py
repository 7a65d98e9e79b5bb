import gc
import random
import weakref

import pytest

from ocalearn import (ActionsVector, InvalidInput, ObservationTable,
                      SimulatedTeacher, build_samples)
from conftest import make_anbna, random_machine, random_voca
from oracles import (distinct_rows, oracle_inconsistency, oracle_row, restart_repair,
                     unclosed)


def golden_table(machine):
    """The walkthrough table of the a^n b^n a machine: P grown to
    {ε, a, ab, aba, b}, S = {ε, a}."""
    teacher = SimulatedTeacher(machine)
    table = ObservationTable(teacher)
    for p in ("a", "ab", "aba", "b"):
        table.add_prefix(p)
    table.add_suffix("a")
    return table, teacher


def test_actions_vector_examples(anbna):
    teacher = SimulatedTeacher(anbna)
    table = ObservationTable(teacher)
    table.add_prefix("ab")
    assert table.actions("") == ActionsVector(0, (1, 1))
    assert table.actions("ab") == ActionsVector(0, (0, 1))
    assert table.actions("a") == ActionsVector(1, (1, -1))


def test_actions_vector_invariants():
    with pytest.raises(InvalidInput):
        ActionsVector(0, (-1, 0))
    with pytest.raises(InvalidInput):
        ActionsVector(2, (0, 0))
    with pytest.raises(InvalidInput):
        ActionsVector(1, (2,))


def test_golden_table_values(anbna):
    table, _ = golden_table(anbna)
    assert table.boundary() == ["", "a", "ab", "aba", "b",
                                "aa", "abb", "abaa", "abab", "ba", "bb"]
    cv = {r: table.counter_value(r) for r in table.boundary()}
    assert cv == {"": 0, "a": 1, "ab": 0, "aba": 0, "b": 1,
                  "aa": 2, "abb": 1, "abaa": 1, "abab": 1, "ba": 2, "bb": 2}
    assert table.membership("aba") == 1
    assert table.membership("ab") == 0
    assert table.actions("") == ActionsVector(0, (1, 1))
    assert table.actions("a") == ActionsVector(1, (1, -1))
    assert table.actions("ab") == ActionsVector(0, (0, 1))
    assert table.actions("b") == ActionsVector(1, (1, 1))


def test_golden_table_closedness(anbna):
    table, _ = golden_table(anbna)
    assert unclosed(table, 1) == []
    assert unclosed(table, 2)[0] == ("a", "a")
    assert table.find_inconsistent(1) is None


def test_fresh_table_zero_closed(anbna):
    table = ObservationTable(SimulatedTeacher(anbna))
    # both one-letter extensions leave counter zero, so level 0 is vacuous
    assert unclosed(table, 0) == []


def test_repair_adds_aa_at_level_two(anbna):
    table, _ = golden_table(anbna)
    table.repair(2)
    assert "aa" in table.prefixes
    assert unclosed(table, 2) == []
    assert table.find_inconsistent(2) is None


def test_repair_sweep_matches_the_restart_loop():
    # one sweep per column set promotes the same prefixes, adds the same
    # suffixes and asks the same words in the same order as promoting the
    # first unclosed row and rescanning P from its start
    targets = [make_anbna()] + [random_machine(seed, max_states=6, alphabet_size=k)
                                for seed in range(30) for k in (1, 2, 3)]
    targets += [random_voca(seed, max_states=6, alphabet_size=k)
                for seed in range(30) for k in (1, 2)]
    rng = random.Random(2024)
    for target in targets:
        swept = ObservationTable(SimulatedTeacher(target))
        twin = ObservationTable(SimulatedTeacher(target))
        for d in range(rng.randrange(1, 4)):
            for _ in range(rng.randrange(3)):
                word = "".join(rng.choices(target.alphabet, k=rng.randrange(6)))
                swept.add_prefix(word)
                twin.add_prefix(word)
            if rng.random() < 0.5:
                word = "".join(rng.choices(target.alphabet, k=rng.randrange(1, 4)))
                swept.add_suffix(word)
                twin.add_suffix(word)
            swept.repair(d)
            restart_repair(twin, d)
            assert list(swept.prefixes) == list(twin.prefixes)
            assert list(swept.suffixes) == list(twin.suffixes)
            assert list(swept.memb) == list(twin.memb)
            assert list(swept.cv) == list(twin.cv)
            assert unclosed(swept, d) == []
            assert swept.find_inconsistent(d) is None


def test_repair_is_fixpoint_without_new_queries(anbna):
    table, teacher = golden_table(anbna)
    table.repair(1)
    before = (teacher.stats.n_mq, teacher.stats.n_cv)
    table.repair(1)
    assert (teacher.stats.n_mq, teacher.stats.n_cv) == before


def test_repair_row_bound(anbna):
    for d in range(5):
        table = ObservationTable(SimulatedTeacher(anbna))
        table.repair(d)
        assert distinct_rows(table, d) <= (d + 1) * anbna.size


def test_inconsistency_witness():
    # two-state parity machine: after one 'a' membership flips, so the
    # a-successors of the equal-looking rows '' and 'aa' stay equal, but
    # dropping the distinguishing suffix exposes an inconsistency once
    # P holds both labels
    from ocalearn import Droca
    machine = Droca(states=["e", "o"], alphabet=["a"], initial="e",
                    delta0={("e", "a"): ("o", 0), ("o", "a"): ("e", 0)},
                    delta1={("e", "a"): ("o", 0), ("o", "a"): ("e", 0)},
                    finals=["o"])
    table = ObservationTable(SimulatedTeacher(machine))
    table.add_prefix("a")   # P = {'', 'a'}; rows differ on membership
    assert table.find_inconsistent(0) is None
    # force equal rows with different extensions via a bigger machine
    machine2 = Droca(states=["s0", "s1", "s2"], alphabet=["a"], initial="s0",
                     delta0={("s0", "a"): ("s1", 0), ("s1", "a"): ("s2", 0),
                             ("s2", "a"): ("s2", 0)},
                     delta1={("s0", "a"): ("s1", 0), ("s1", "a"): ("s2", 0),
                             ("s2", "a"): ("s2", 0)},
                     finals=["s2"])
    table2 = ObservationTable(SimulatedTeacher(machine2))
    table2.add_prefix("aa")
    # rows '' and 'a' agree on the empty suffix (both rejected, same
    # actions) yet their a-successors differ in membership
    witness = table2.find_inconsistent(0)
    assert witness is not None
    p, q, a, s = witness
    assert (p, q, a, s) == ("", "a", "a", "")
    assert table2.membership(p + a + s) != table2.membership(q + a + s)
    table2.repair(0)
    assert table2.find_inconsistent(0) is None
    assert "a" in table2.suffixes


def test_find_inconsistent_matches_the_witness_oracle():
    # the witness read off interned cells is the one a search over rows
    # worked out from scratch on the hidden machine finds
    rng = random.Random(5)
    witnesses = 0
    for seed in range(12):
        target = random_machine(seed, alphabet_size=2)
        table = ObservationTable(SimulatedTeacher(target))
        for _ in range(4):
            table.add_prefix("".join(rng.choice("ab") for _ in range(rng.randrange(1, 6))))
        for d in range(4):
            expected = oracle_inconsistency(target, table, d)
            assert table.find_inconsistent(d) == expected
            witnesses += expected is not None
    assert witnesses > 0


def test_rows_partition_the_labels_as_the_oracle_rows_do():
    # rows extended a cell at a time as S grows, over interned cells, tell
    # two labels apart exactly when their rows worked out from scratch do
    rng = random.Random(11)
    targets = [random_machine(seed, max_states=6, alphabet_size=k)
               for seed in range(20) for k in (1, 2, 3)]
    targets += [random_voca(seed, max_states=6, alphabet_size=2) for seed in range(20)]
    for target in targets:
        table = ObservationTable(SimulatedTeacher(target))
        for _ in range(rng.randrange(2, 7)):
            step = rng.randrange(3)
            word = "".join(rng.choices(target.alphabet, k=rng.randrange(1, 5)))
            if step == 0:
                table.add_prefix(word)
            elif step == 1:
                table.add_suffix(word)
            else:
                table.repair(rng.randrange(3))
            labels = table.boundary()
            rows = [table.row(label) for label in labels]
            oracle = [oracle_row(target, table, label) for label in labels]
            for i in range(len(labels)):
                for j in range(i):
                    assert (rows[i] == rows[j]) == (oracle[i] == oracle[j])


def test_enc_reads_cache(anbna):
    table, _ = golden_table(anbna)
    assert table.enc("aba") == ("a0", "b1", "a0")
    assert table.enc("ab") == ("a0", "b1")
    assert table.enc("") == ()


def test_enc_matches_the_hidden_encoding():
    # encodings derived from the parent's, in any order of words, are the
    # hidden machine's own
    rng = random.Random(3)
    for seed in range(30):
        target = random_machine(seed, max_states=6, alphabet_size=2)
        table = ObservationTable(SimulatedTeacher(target))
        words = ["".join(rng.choices(target.alphabet, k=rng.randrange(8))) for _ in range(40)]
        words += [w[:i] for w in words for i in range(len(w))]
        rng.shuffle(words)
        for word in words:
            assert table.enc(word) == target.encode(word)


def test_counter_values_derived_from_the_action_map():
    # given the action map, the table derives every counter-value from
    # its longest cached prefix, words in any order and prefixes asked
    # before and after, and asks the teacher for none; one word is far
    # longer than a derivation through the parent could recurse
    rng = random.Random(5)
    for seed in range(30):
        target = random_voca(seed, max_states=6, alphabet_size=1 + seed % 3)
        teacher = SimulatedTeacher(target)
        table = ObservationTable(teacher, target.voca_action_map())
        words = ["".join(rng.choices(target.alphabet, k=rng.randrange(12))) for _ in range(40)]
        words += [w[:i] for w in words for i in range(len(w))]
        rng.shuffle(words)
        if seed == 7:     # a: +1 at zero, -1 above; b: +1
            long = "".join(rng.choices(target.alphabet, k=1500))
            words = [long[:300], long, long[:1100], long + target.alphabet[0]] + words
        for word in words:
            assert table.counter_value(word) == target.counter_effect(word)
        assert teacher.stats.n_cv == 0



@pytest.mark.parametrize("voca", [False, True], ids=["queried", "derived"])
def test_an_unknown_letter_is_named_in_both_modes(voca):
    # a counter-value the teacher answers and one derived from the action
    # map refuse a letter outside the alphabet with one named error, as
    # does an encoding; the table answers on afterwards
    machine = random_voca(3, 5)
    table = ObservationTable(SimulatedTeacher(machine),
                             machine.voca_action_map() if voca else None)
    for read in (table.counter_value, table.enc):
        with pytest.raises(InvalidInput, match="letter 'z' not in alphabet"):
            read("az")
    assert table.counter_value("ab") == machine.counter_effect("ab")
    assert table.enc("ab") == machine.encode("ab")


def test_samples_read_exactly_the_table_closure(anbna):
    # the teacher is asked for the membership of every table word and the
    # counter-value of every prefix and one-letter extension of one: the
    # words a hypothesis is built from, and no others
    table, _ = golden_table(anbna)
    table.repair(2)
    build_samples(table)
    words = table.words()
    assert set(table.memb) == set(words)
    assert set(table.cv) == ({w[:i] for w in words for i in range(len(w) + 1)}
                             | {w + a for w in words for a in table.alphabet})


@pytest.mark.parametrize("voca", [False, True], ids=["queried", "derived"])
def test_a_dropped_table_is_freed_without_the_cycle_collector(voca):
    # the table's per-word steps are methods, bound at call time, so a
    # table holds no reference to itself and plain reference counting
    # frees it, and its teacher, once the last reference goes
    machine = random_voca(3) if voca else make_anbna()
    teacher = SimulatedTeacher(machine)
    table = ObservationTable(teacher, machine.voca_action_map() if voca else None)
    gc.disable()
    try:
        table.repair(2)
        build_samples(table)
        dead_table, dead_teacher = weakref.ref(table), weakref.ref(teacher)
        del table, teacher
        assert dead_table() is None and dead_teacher() is None
    finally:
        gc.enable()
