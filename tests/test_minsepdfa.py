import sys

import pytest

from ocalearn import (ActionsVector, InvalidInput, ObservationTable,
                      SampleConflict, SampleSet, SimulatedTeacher, build_apta,
                      build_samples, encode_size_n, find_min_sep_dfa,
                      sat_solve, strip_operations)
from ocalearn.minsepdfa import decode_dfa
from conftest import make_anbna, random_machine
from test_table import golden_table
from oracles import min_sep_dfa_size


def test_build_samples_golden(anbna):
    table, _ = golden_table(anbna)
    samples = build_samples(table)
    assert ("a0", "b1", "a0") in samples.pos
    assert ("a0", "b1") in samples.neg
    # Actions(ab) = (0,0,+1) is dissimilar to (0,+1,+1), so the op-tagged
    # word lands in the negatives
    op = ActionsVector(0, (1, 1))
    assert op in samples.ops
    assert ("a0", "b1", op) in samples.neg
    assert ("a0", "b1", ActionsVector(0, (0, 1))) in samples.pos
    assert not set(samples.pos) & set(samples.neg)
    for word in samples.pos + samples.neg:
        for sym in word[:-1]:
            assert isinstance(sym, str)


def test_ops_bounded_by_rows(anbna):
    table, _ = golden_table(anbna)
    samples = build_samples(table)
    rows = {table.row(r) for r in table.boundary()}
    assert len(samples.ops) <= 2 * len(rows)


def test_build_apta_shapes():
    apta = build_apta(SampleSet(pos=((),), neg=(), ops=(), base_alphabet=("a0",)))
    assert apta.num_nodes == 1 and apta.labels[0] is True

    apta = build_apta(SampleSet(pos=(("a0", "b1"),), neg=(("a0",),),
                                ops=(), base_alphabet=("a0", "b1")))
    assert apta.num_nodes == 3
    assert apta.labels == [None, False, True]

    with pytest.raises(SampleConflict):
        build_apta(SampleSet(pos=(("a0",),), neg=(("a0",),),
                             ops=(), base_alphabet=("a0",)))


def test_encode_size_examples():
    apta = build_apta(SampleSet(pos=((),), neg=(("a0",),),
                                ops=(), base_alphabet=("a0",)))
    assert sat_solve(encode_size_n(apta, 1)) is None
    cnf = encode_size_n(apta, 2)
    model = sat_solve(cnf)
    assert model is not None
    dfa = decode_dfa(apta, model, 2)
    assert dfa.accepts(()) and not dfa.accepts(("a0",))

    apta_pos_only = build_apta(SampleSet(pos=((),), neg=(),
                                         ops=(), base_alphabet=("a0",)))
    assert sat_solve(encode_size_n(apta_pos_only, 1)) is not None


def test_find_min_sep_dfa_trivial():
    one = find_min_sep_dfa(SampleSet(pos=((),), neg=(), ops=(), base_alphabet=("a0",)))
    assert one.size == 1 and one.accepts(())
    two = find_min_sep_dfa(SampleSet(pos=(("a0",),), neg=((),),
                                     ops=(), base_alphabet=("a0",)))
    assert two.size == 2


def test_min_dfa_size_matches_oracle_on_golden_table(anbna):
    table, teacher = golden_table(anbna)
    table.repair(2, teacher)
    samples = build_samples(table)
    dfa = find_min_sep_dfa(samples)
    assert dfa.size <= 4
    assert dfa.size == min_sep_dfa_size(samples.pos, samples.neg, max_states=5)


def test_separation_and_merging_semantics(anbna):
    table, teacher = golden_table(anbna)
    table.repair(2, teacher)
    samples = build_samples(table)
    full = find_min_sep_dfa(samples)
    for word in samples.pos:
        assert full.accepts(word)
    for word in samples.neg:
        assert not full.accepts(word)
    stripped = strip_operations(full, samples.ops)
    assert set(stripped.alphabet) == set(samples.base_alphabet)
    # membership of every table cell is decided by the stripped DFA
    by_state = {}
    for word in table.words():
        assert stripped.accepts(table.enc(word)) == bool(table.membership(word))
        state = stripped.initial
        for sym in table.enc(word):
            state = stripped.transition[(state, sym)]
        by_state.setdefault(state, []).append(table.actions(word))
    # words merged into one state carry pairwise similar action vectors
    for vectors in by_state.values():
        for u in vectors:
            for v in vectors:
                assert u.similar(v)


def test_strip_noop_without_ops():
    dfa = find_min_sep_dfa(SampleSet(pos=(("a0",),), neg=((),),
                                     ops=(), base_alphabet=("a0",)))
    assert strip_operations(dfa, ()) == dfa


def test_strip_removes_op_columns():
    op = ActionsVector(0, (1,))
    samples = SampleSet(pos=((op,),), neg=((),), ops=(op,), base_alphabet=("a0",))
    dfa = find_min_sep_dfa(samples)
    stripped = strip_operations(dfa, samples.ops)
    assert stripped.alphabet == ("a0",)
    assert stripped.size == dfa.size
    assert all(sym == "a0" for (_, sym) in stripped.transition)


def test_ladder_start_below_the_minimum_changes_nothing():
    # a lower bound only skips UNSAT rungs: the first satisfiable rung, its
    # CNF and so its model are those of the search from one state
    tables = []
    for machine in (make_anbna(), random_machine(3), random_machine(7)):
        teacher = SimulatedTeacher(machine)
        table = ObservationTable(machine.alphabet)
        table.repair(2, teacher)
        tables.append(table)
    tables.append(golden_table(make_anbna())[0])
    sizes = []
    for table in tables:
        samples = build_samples(table)
        cold = find_min_sep_dfa(samples)
        sizes.append(cold.size)
        for k in range(1, cold.size + 1):
            warm = find_min_sep_dfa(samples, at_least=k)
            assert (warm.states, warm.transition, warm.finals) == \
                (cold.states, cold.transition, cold.finals)
    assert max(sizes) >= 3


def test_ladder_start_must_be_positive():
    samples = SampleSet(pos=((),), neg=(), ops=(), base_alphabet=("a0",))
    for k in (0, -1):
        with pytest.raises(InvalidInput):
            find_min_sep_dfa(samples, at_least=k)
