import random
from itertools import count

import pytest

from ocalearn import (ActionsVector, InvalidInput, ObservationTable,
                      SampleConflict, SampleSet, SimulatedTeacher, SolverError,
                      build_apta, build_samples, encode_size_n,
                      find_min_sep_dfa, sat_solve)
from ocalearn.minsepdfa import clique_bound, decode_dfa
from conftest import make_anbna, random_machine
from test_table import golden_table
from oracles import _build_trie, _conflicts, min_sep_dfa_size


def test_build_samples_golden(anbna):
    table, _ = golden_table(anbna)
    samples = build_samples(table)
    assert ("a0", "b1", "a0") in samples.pos
    assert ("a0", "b1") in samples.neg
    # every encoded table word is labelled once and carries its own
    # action vector as its output: Actions(ab) = (0,0,+1)
    outputs = dict(samples.outputs)
    assert outputs[("a0", "b1")] == ActionsVector(0, (0, 1))
    assert ActionsVector(0, (1, 1)) in samples.ops
    assert not set(samples.pos) & set(samples.neg)
    assert set(outputs) == set(samples.pos) | set(samples.neg)
    assert len(outputs) == len(samples.outputs) == len(table.words())
    assert samples.alphabet == ("a0", "a1", "b0", "b1")
    for word in outputs:
        assert all(sym in samples.alphabet for sym in word)


def test_ops_bounded_by_rows(anbna):
    table, _ = golden_table(anbna)
    samples = build_samples(table)
    rows = {table.row(r) for r in table.boundary()}
    assert samples.ops == tuple(dict.fromkeys(v for _, v in samples.outputs))
    assert len(samples.ops) <= 2 * len(rows)
    # the prefix tree numbers each sign's vectors apart
    apta = build_apta(samples)
    assert sum(len(vectors) for vectors in apta.vectors) == len(samples.ops)


def test_build_apta_shapes():
    apta = build_apta(SampleSet(pos=((),), neg=(), alphabet=("a0",)))
    assert apta.num_nodes == 1 and apta.labels[0] is True

    apta = build_apta(SampleSet(pos=(("a0", "b1"),), neg=(("a0",),),
                                alphabet=("a0", "b1")))
    assert apta.num_nodes == 3
    assert apta.labels == [None, False, True]

    with pytest.raises(SampleConflict):
        build_apta(SampleSet(pos=(("a0",),), neg=(("a0",),),
                             alphabet=("a0",)))


def test_encode_size_examples():
    apta = build_apta(SampleSet(pos=((),), neg=(("a0",),),
                                alphabet=("a0",)))
    assert sat_solve(encode_size_n(apta, 1)) is None
    cnf = encode_size_n(apta, 2)
    model = sat_solve(cnf)
    assert model is not None
    dfa = decode_dfa(apta, model, 2)
    assert dfa.accepts(()) and not dfa.accepts(("a0",))

    apta_pos_only = build_apta(SampleSet(pos=((),), neg=(),
                                         alphabet=("a0",)))
    assert sat_solve(encode_size_n(apta_pos_only, 1)) is not None


def test_find_min_sep_dfa_trivial():
    one = find_min_sep_dfa(SampleSet(pos=((),), neg=(), alphabet=("a0",)))
    assert one.size == 1 and one.accepts(())
    two = find_min_sep_dfa(SampleSet(pos=(("a0",),), neg=((),),
                                     alphabet=("a0",)))
    assert two.size == 2


def test_min_dfa_size_matches_oracle_on_golden_table(anbna):
    table, _ = golden_table(anbna)
    table.repair(2)
    samples = build_samples(table)
    dfa = find_min_sep_dfa(samples)
    assert dfa.size <= 4
    assert dfa.size == min_sep_dfa_size(samples.pos, samples.neg, max_states=5,
                                        outputs=dict(samples.outputs))


def test_separation_and_merging_semantics(anbna):
    table, _ = golden_table(anbna)
    table.repair(2)
    samples = build_samples(table)
    full = find_min_sep_dfa(samples)
    for word in samples.pos:
        assert full.accepts(word)
    for word in samples.neg:
        assert not full.accepts(word)
    # membership of every table cell is decided by the minimal DFA
    by_state = {}
    for word in table.words():
        assert full.accepts(table.enc(word)) == bool(table.membership(word))
        state = full.initial
        for sym in table.enc(word):
            state = full.transition[(state, sym)]
        by_state.setdefault(state, []).append(table.actions(word))
    # words merged into one state carry pairwise similar action vectors
    for vectors in by_state.values():
        for u in vectors:
            for v in vectors:
                assert u.similar(v)


def cold_ladder(samples):
    """The search from one state, every rung solved under the same clique
    pins: the reference that a ladder starting at any lower bound must
    reproduce."""
    apta = build_apta(samples)
    for n in count(1):
        model = sat_solve(encode_size_n(apta, n))
        if model is not None:
            return decode_dfa(apta, model, n)


def filled_tables():
    tables = []
    for machine in (make_anbna(), random_machine(3), random_machine(7)):
        table = ObservationTable(SimulatedTeacher(machine))
        table.repair(2)
        tables.append(table)
    tables.append(golden_table(make_anbna())[0])
    return tables


def test_ladder_start_below_the_minimum_changes_nothing():
    # a lower bound only skips UNSAT rungs: the first satisfiable rung, its
    # CNF and so its model are those of the search from one state
    sizes = []
    for table in filled_tables():
        samples = build_samples(table)
        cold = cold_ladder(samples)
        sizes.append(cold.size)
        for k in range(1, cold.size + 1):
            warm = find_min_sep_dfa(samples, at_least=k)
            assert (warm.states, warm.transition, warm.finals) == \
                (cold.states, cold.transition, cold.finals)
    assert max(sizes) >= 3


def test_ladder_start_must_be_positive():
    samples = SampleSet(pos=((),), neg=(), alphabet=("a0",))
    for k in (0, -1):
        with pytest.raises(InvalidInput):
            find_min_sep_dfa(samples, at_least=k)


def test_clique_bound_at_most_the_oracle_size():
    # the criterion-9 generator under its own seed
    rng = random.Random(27182)
    hits = []
    for trial in range(100):
        symbols = "abcdef"[:rng.randrange(2, 7)]
        seen = {}
        for _ in range(rng.randrange(1, 31)):
            word = tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 7)))
            seen.setdefault(word, rng.random() < 0.5)
        pos = tuple(w for w, lab in seen.items() if lab)
        neg = tuple(w for w, lab in seen.items() if not lab)
        samples = SampleSet(pos=pos, neg=neg, alphabet=tuple(symbols))
        bound = len(clique_bound(build_apta(samples)))
        size = min_sep_dfa_size(pos, neg)
        assert 1 <= bound <= size
        if bound == size:
            hits.append(size)
    assert any(size >= 3 for size in hits)


def test_clique_bound_at_most_the_size_on_filled_tables():
    # outputs included; a random machine of each alphabet size
    tables = filled_tables()
    for seed, letters in ((11, 1), (12, 2), (13, 3), (14, 2)):
        machine = random_machine(seed, alphabet_size=letters)
        table = ObservationTable(SimulatedTeacher(machine))
        table.repair(2)
        tables.append(table)
    split_signs = 0
    for table in tables:
        samples = build_samples(table)
        apta = build_apta(samples)
        assert sum(output is not None for output in apta.outputs) == len(table.words())
        split_signs += any(len(vectors) > 1 for vectors in apta.vectors)
        assert len(clique_bound(apta)) <= cold_ladder(samples).size
    assert split_signs >= len(tables) // 2


def test_clique_bound_of_a_three_state_language():
    # (aaa)*: a common suffix of ε, a and aa leads each pair to opposite
    # labels, so they need three states
    samples = SampleSet(pos=((), ("a",) * 3), neg=(("a",), ("a",) * 2),
                        alphabet=("a",))
    assert len(clique_bound(build_apta(samples))) == 3
    assert find_min_sep_dfa(samples).size == cold_ladder(samples).size == 3
    # the error names the rung the search started from
    with pytest.raises(SolverError, match="of 3 to"):
        find_min_sep_dfa(samples, solve=lambda cnf: None)
    with pytest.raises(SolverError, match="of 4 to"):
        find_min_sep_dfa(samples, solve=lambda cnf: None, at_least=4)


def test_dissimilar_vectors_of_one_sign_need_two_states():
    # ε and a⁰ share membership but not their sign-0 vectors
    samples = SampleSet(pos=((), ("a0",)), neg=(), alphabet=("a0", "a1"),
                        outputs=(((), ActionsVector(0, (0,))),
                                 (("a0",), ActionsVector(0, (1,)))))
    assert len(clique_bound(build_apta(samples))) == 2
    assert find_min_sep_dfa(samples).size == 2
    plain = SampleSet(pos=samples.pos, neg=(), alphabet=samples.alphabet)
    assert find_min_sep_dfa(plain).size == 1


def test_vectors_of_different_signs_share_a_state():
    for first, second in (((0, (1,)), (1, (1,))), ((0, (0,)), (1, (-1,)))):
        samples = SampleSet(pos=((), ("a0",)), neg=(), alphabet=("a0", "a1"),
                            outputs=(((), ActionsVector(*first)),
                                     (("a0",), ActionsVector(*second))))
        assert len(clique_bound(build_apta(samples))) == 1
        assert find_min_sep_dfa(samples).size == 1


def test_a_model_that_mislabels_a_sample_is_refused():
    # the all-true model makes its one state accepting, so it accepts a⁰
    samples = SampleSet(pos=((),), neg=(("a0",),), alphabet=("a0",))

    def all_true(cnf):
        return {var: True for var in range(1, cnf.num_vars + 1)}

    with pytest.raises(SolverError, match="mislabels sample"):
        find_min_sep_dfa(samples, solve=all_true)


def test_a_model_that_merges_dissimilar_vectors_is_refused():
    # ε and a⁰a⁰ share a vector, a⁰ differs: the clique bound starts the
    # ladder at two states, where the all-true model sends a⁰ and a⁰a⁰
    # to state 1
    samples = SampleSet(pos=((), ("a0",), ("a0", "a0")), neg=(), alphabet=("a0", "a1"),
                        outputs=(((), ActionsVector(0, (0,))),
                                 (("a0",), ActionsVector(0, (1,))),
                                 (("a0", "a0"), ActionsVector(0, (0,)))))

    def all_true(cnf):
        return {var: True for var in range(1, cnf.num_vars + 1)}

    with pytest.raises(SolverError, match="merges"):
        find_min_sep_dfa(samples, solve=all_true)


def test_clique_nodes_are_pinned_and_incompatible_nodes_lose_their_colour():
    # clique node k takes colour k alone, and a node loses colour k
    # exactly when the oracle's conflict graph makes it incompatible with
    # clique node k; nothing else is removed
    for table in filled_tables():
        samples = build_samples(table)
        apta = build_apta(samples)
        words = [()]
        for v in range(1, apta.num_nodes):
            parent, sym = apta.parent_edges[v]
            words.append(words[parent] + (sym,))
        children, _, labels, outputs = _build_trie(samples.pos, samples.neg,
                                                   dict(samples.outputs))
        node_of = {(): 0}
        for word in sorted(words, key=len)[1:]:
            node_of[word] = children[node_of[word[:-1]]][word[-1]]
        conflicts = _conflicts(children, labels, outputs)
        clique = clique_bound(apta)
        assert len(clique) >= 3
        n = cold_ladder(samples).size
        cnf = encode_size_n(apta, n)
        units = {clause[0] for clause in cnf.clauses if len(clause) == 1}
        removed = set()
        for k, (node, clashes) in enumerate(clique):
            assert clashes == [v for v in range(apta.num_nodes)
                               if conflicts[node_of[words[node]]] >> node_of[words[v]] & 1]
            assert all(other in clashes for other, _ in clique if other != node)
            assert node * n + k + 1 in units
            removed |= {(node, i) for i in range(n) if i != k}
            removed |= {(v, k) for v in clashes}
        assert {-lit for lit in units if lit < 0} == {v * n + i + 1 for v, i in removed}
        model = sat_solve(cnf)
        for k, (node, _) in enumerate(clique):
            assert model[node * n + k + 1]
