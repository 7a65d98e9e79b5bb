import random
from collections import Counter
from contextlib import contextmanager
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ocalearn import (ActionsVector, AtMostOne, GenConfig, InvalidInput, LearnConfig,
                      ObservationTable, SampleConflict, SampleSet, SimulatedTeacher,
                      SolverError, SolverTimeout, build_apta, build_samples, colouring,
                      construct_droca, derive_seed, encode_size_n, errors, find_min_sep_dfa,
                      generate_droca, learn, learning, minsepdfa, sat_solve)
from ocalearn.colouring import decode_dfa
from ocalearn.minsepdfa import Apta
from conftest import make_anbna, random_machine, random_voca
from test_table import golden_table
from oracles import (_build_trie, _conflicts, clique_domains, full_encoding, full_variables,
                     min_sep_dfa_size, pairwise_clique_bound, propagate_units)


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

    # an output whose word has no label still reaches the tree, and a
    # word given two vectors of one sign is a conflict
    up, still = ActionsVector(0, (1,)), ActionsVector(0, (0,))
    apta = build_apta(SampleSet(pos=(), neg=(), alphabet=("a0",), outputs=((("a0",), up),)))
    assert apta.num_nodes == 2 and apta.labels[1] is None and apta.outputs[1] == (0, 0)
    with pytest.raises(SampleConflict):
        build_apta(SampleSet(pos=(("a0",),), neg=(), alphabet=("a0",),
                             outputs=((("a0",), up), (("a0",), still))))


def test_a_symbol_outside_the_sample_alphabet_is_invalid_input():
    samples = SampleSet(pos=(("a0",),), neg=(("b0",),), alphabet=("a0", "a1"))
    with pytest.raises(InvalidInput, match="'b0'"):
        find_min_sep_dfa(samples)


def test_encode_size_examples():
    apta = build_apta(SampleSet(pos=((),), neg=(("a0",),),
                                alphabet=("a0",)))
    assert sat_solve(encode_size_n(apta, 1)) is None
    cnf = encode_size_n(apta, 2)
    model = sat_solve(cnf)
    assert model is not None
    dfa = decode_dfa(cnf, model)
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
                assert u.sign != v.sign or u == v


def cold_ladder(samples):
    """The search from one state, every rung solved under the same clique
    pins: the reference that a ladder starting at any lower bound must
    reproduce."""
    apta = build_apta(samples)
    for n in count(1):
        cnf = encode_size_n(apta, n)
        model = sat_solve(cnf)
        if model is not None:
            return decode_dfa(cnf, model)


def filled_tables():
    tables = []
    for machine in (make_anbna(), random_machine(3), random_machine(7)):
        table = ObservationTable(SimulatedTeacher(machine))
        table.repair(2)
        tables.append(table)
    tables.append(golden_table(make_anbna())[0])
    return tables


def sample_aptas():
    """Prefix trees of real sample sets: the filled tables, and tables of
    random machines over one to three letters."""
    tables = filled_tables()
    for seed, letters in ((11, 1), (12, 2), (13, 3)):
        table = ObservationTable(SimulatedTeacher(random_machine(seed, alphabet_size=letters)))
        table.repair(2)
        tables.append(table)
    return [build_apta(build_samples(table)) for table in tables]


def test_encoder_clauses_are_well_formed():
    # the builtin backend watches these clauses without checking them:
    # each must be an object of its own, either a list of distinct,
    # non-complementary, declared literals or a group of at least two
    # distinct, declared, positive literals; the empty clause stands
    # alone, for a rung that unit propagation refutes, which every rung
    # below the clique size is
    groups = 0
    for apta in sample_aptas():
        size = apta.domains()[0]
        for n in range(1, size + 2):
            cnf = encode_size_n(apta, n)
            assert cnf._well_formed
            assert len({id(clause) for clause in cnf.clauses}) == len(cnf.clauses)
            for clause in cnf.clauses:
                if type(clause) is AtMostOne:
                    groups += 1
                    assert len(clause) >= 2 and all(0 < x <= cnf.num_vars for x in clause)
                else:
                    assert type(clause) is list
                    assert all(0 < abs(lit) <= cnf.num_vars for lit in clause)
                assert len({abs(lit) for lit in clause}) == len(clause)
            refuted = propagate_units(full_encoding(apta, n).clauses) is None
            assert (cnf.clauses == [[]]) == refuted == any(not clause for clause in cnf.clauses)
            assert refuted or n >= size
    assert groups > 0


def test_encoder_reads_the_deadline_as_it_goes(monkeypatch):
    # the encoding reads the clock every 32 steps of its propagation and
    # of the descent after it, on one count of steps; the clause passes
    # read it when the clauses are first read, every 32 nodes of both
    # passes over the nodes and once per state and symbol of the
    # transition clauses.  The same CNF and model come out while the
    # deadline holds, a deadline that passes at some read of either, the
    # first, a middle one or the last, raises there, and no deadline
    # reads no clock
    rng = random.Random(3)
    table = ObservationTable(SimulatedTeacher(random_machine(3, max_states=6, alphabet_size=2)))
    for _ in range(20):
        table.add_prefix("".join(rng.choices("ab", k=8)))
    table.repair(2)
    apta = build_apta(build_samples(table))
    n = apta.domains()[0] + 1
    reads = []

    def clock(limit):
        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) < limit else 2.0
        return SimpleNamespace(monotonic=monotonic)

    def in_descent(excinfo):
        # the propagator has kept its level-0 values once it descends
        tb = excinfo.tb
        while tb.tb_frame.f_code is not colouring._propagate.__code__:
            tb = tb.tb_next
        return "level0" in tb.tb_frame.f_locals

    monkeypatch.setattr(errors, "time", clock(float("inf")))
    apta.domains()      # the clique reads the deadline only while it is built
    cnf = encode_size_n(apta, n, 1.0)
    encoding = len(reads)
    reads.clear()
    plain = encode_size_n(apta, n)
    assert cnf.model is not None and cnf.model == plain.model
    assert cnf.clauses == plain.clauses
    passes = len(reads)
    assert apta.num_nodes > 200
    assert passes == (len(range(0, apta.num_nodes, 32)) + len(range(32, apta.num_nodes, 32))
                      + n * len(apta.alphabet))
    monkeypatch.setattr(colouring, "_CHECK_EVERY", 1)   # a read at every step
    reads.clear()
    encode_size_n(apta, n, 1.0)
    monkeypatch.setattr(colouring, "_CHECK_EVERY", 32)
    assert encoding == len(range(0, len(reads), 32)) > 2
    descending = []
    for limit in (1, encoding // 2, encoding):
        reads.clear()
        monkeypatch.setattr(errors, "time", clock(limit))
        with pytest.raises(SolverTimeout) as excinfo:
            encode_size_n(apta, n, 1.0)
        assert len(reads) == limit
        descending.append(in_descent(excinfo))
    assert descending[0] is False and descending[-1] is True
    for limit in (1, passes // 2, passes):
        reads.clear()
        monkeypatch.setattr(errors, "time", clock(encoding + limit))
        cnf = encode_size_n(apta, n, 1.0)
        with pytest.raises(SolverTimeout):
            cnf.clauses
        assert len(reads) == encoding + limit
    reads.clear()
    monkeypatch.setattr(errors, "time", clock(float("inf")))
    assert encode_size_n(apta, n).clauses and reads == []


def test_clique_reads_the_deadline_once_every_32_classes(monkeypatch):
    # a deadline that passes while the clique is built raises there, at
    # its third read (classes 0, 32 and 64), also when find_min_sep_dfa
    # passes it in after its own read at entry; no deadline reads no clock
    rng = random.Random(3)
    table = ObservationTable(SimulatedTeacher(random_machine(3, max_states=6, alphabet_size=2)))
    for _ in range(20):
        table.add_prefix("".join(rng.choices("ab", k=8)))
    table.repair(2)
    samples = build_samples(table)
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) < 3 else 2.0

    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=monotonic))
    apta = build_apta(samples)
    for search in (lambda: apta.domains(1.0),
                   lambda: find_min_sep_dfa(samples, deadline=1.0)):
        reads.clear()
        with pytest.raises(SolverTimeout):
            search()
        assert len(reads) == 3
    reads.clear()
    assert apta.domains() and reads == []


def test_clique_bound_matches_the_pairwise_oracle(monkeypatch):
    # the colour domains and the deadline reads are those of the pairwise
    # scans, on random trees, labelled only or with outputs, and on every
    # tree of the 7-state frontier sessions; equal domains fix the
    # clique's representatives and clash lists
    trees = []
    build = minsepdfa.build_apta
    monkeypatch.setattr(minsepdfa, "build_apta", lambda samples: trees.append(samples) or build(samples))
    for i in range(4):
        learn(SimulatedTeacher(generate_droca(GenConfig(7, 2, derive_seed(555, 7, i)))))
    monkeypatch.undo()
    rng = random.Random(4711)
    for _ in range(60):
        symbols = "abcd"[:rng.randrange(1, 5)]
        seen = {}
        for _ in range(rng.randrange(1, 40)):
            seen.setdefault(tuple(rng.choices(symbols, k=rng.randrange(0, 8))), rng.random() < 0.5)
        trees.append(SampleSet(pos=tuple(w for w, label in seen.items() if label),
                               neg=tuple(w for w, label in seen.items() if not label),
                               alphabet=tuple(symbols)))
    for seed in range(12):
        table = ObservationTable(SimulatedTeacher(random_machine(seed, max_states=7,
                                                                 alphabet_size=1 + seed % 3)))
        for _ in range(2 * seed):
            table.add_prefix("".join(rng.choices(table.alphabet, k=rng.randrange(1, 10))))
        table.repair(2)
        trees.append(build_samples(table))
    reads = []
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: reads.append(0) or 0.0))
    most_reads = 0
    for samples in trees:
        apta, oracle = build_apta(samples), build_apta(samples)
        reads.clear()
        domains = apta.domains(1.0)
        read = len(reads)
        reads.clear()
        assert domains == clique_domains(pairwise_clique_bound(oracle, 1.0), oracle.num_nodes)
        assert len(reads) == read
        most_reads = max(most_reads, read)
    assert most_reads >= 3     # some tree has more than 64 classes


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


def test_ladder_start_must_be_an_int():
    # a bool is no int, as for every other int argument
    samples = SampleSet(pos=((),), neg=(), alphabet=("a0",))
    table = ObservationTable(SimulatedTeacher(make_anbna()))
    for k in ("2", None, 2.5, True):
        for search in (lambda: find_min_sep_dfa(samples, at_least=k),
                       lambda: construct_droca(table, at_least=k)):
            with pytest.raises(InvalidInput, match="at_least must be int"):
                search()


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
        bound = build_apta(samples).domains()[0]
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
        assert apta.domains()[0] <= cold_ladder(samples).size
    assert split_signs >= len(tables) // 2


def test_clique_bound_of_a_three_state_language():
    # (aaa)*: a common suffix of ε, a and aa leads each pair to opposite
    # labels, so they need three states
    samples = SampleSet(pos=((), ("a",) * 3), neg=(("a",), ("a",) * 2),
                        alphabet=("a",))
    assert build_apta(samples).domains()[0] == 3
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
    assert build_apta(samples).domains()[0] == 2
    assert find_min_sep_dfa(samples).size == 2
    plain = SampleSet(pos=samples.pos, neg=(), alphabet=samples.alphabet)
    assert find_min_sep_dfa(plain).size == 1


def test_vectors_of_different_signs_share_a_state():
    for first, second in (((0, (1,)), (1, (1,))), ((0, (0,)), (1, (-1,)))):
        samples = SampleSet(pos=((), ("a0",)), neg=(), alphabet=("a0", "a1"),
                            outputs=(((), ActionsVector(*first)),
                                     (("a0",), ActionsVector(*second))))
        assert build_apta(samples).domains()[0] == 1
        assert find_min_sep_dfa(samples).size == 1


def test_a_model_that_mislabels_a_sample_is_refused():
    # two states cannot separate ε and (a⁰)³ from a⁰, and propagation
    # refutes that rung; at three, the acceptance of the state that a⁰a⁰
    # takes is left free, and a model with every free acceptance flipped
    # rejects (a⁰)³
    samples = SampleSet(pos=((), ("a0",) * 3), neg=(("a0",),), alphabet=("a0",))

    def flipped(cnf):
        model = sat_solve(cnf)
        if model is not None:
            for x in cnf.accepting:
                if type(x) is int:
                    model[x] = not model[x]
        return model

    with pytest.raises(SolverError, match="mislabels sample"):
        find_min_sep_dfa(samples, solve=flipped)
    # a backend that satisfies the refuted rung is refused as well
    with pytest.raises(SolverError, match="empty clause"):
        find_min_sep_dfa(samples, solve=all_true)


def all_true(cnf):
    return {var: True for var in range(1, cnf.num_vars + 1)}


def test_a_model_that_merges_dissimilar_vectors_is_refused():
    # ε and a⁰a⁰ hold different vectors of sign 0: the clique pins them
    # to states 1 and 0 and leaves a⁰ open, and the all-true model gives
    # every state successor 1 on a⁰, which takes a⁰a⁰ to ε's state
    samples = SampleSet(pos=(), neg=(), alphabet=("a0", "a1"),
                        outputs=(((), ActionsVector(0, (0,))),
                                 (("a0", "a0"), ActionsVector(0, (1,)))))
    with pytest.raises(SolverError, match="merges two vectors of sign 0 at state 1"):
        find_min_sep_dfa(samples, solve=all_true)


def test_build_apta_inserts_each_sample_word_once(monkeypatch):
    # a word's label and vector go in by one insert, and each sign's
    # vectors are numbered in samples.ops order
    for table in filled_tables():
        samples = build_samples(table)
        inserted = []
        insert = Apta.insert

        def counted(apta, word, *args, **kwargs):
            inserted.append(word)
            insert(apta, word, *args, **kwargs)

        monkeypatch.setattr(Apta, "insert", counted)
        apta = build_apta(samples)
        monkeypatch.undo()
        assert len(inserted) == len(samples.pos) + len(samples.neg)
        assert set(inserted) == set(samples.pos) | set(samples.neg)
        for sign, vectors in enumerate(apta.vectors):
            assert list(vectors) == [v for v in samples.ops if v.sign == sign]
            assert list(vectors.values()) == list(range(len(vectors)))


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
        clique = pairwise_clique_bound(apta)
        assert len(clique) >= 3
        n = cold_ladder(samples).size
        cnf = encode_size_n(apta, n)
        removed = set()
        for k, (node, clashes) in enumerate(clique):
            assert clashes == [v for v in range(apta.num_nodes)
                               if conflicts[node_of[words[node]]] >> node_of[words[v]] & 1]
            assert all(other in clashes for other, _ in clique if other != node)
            assert cnf.color[node][k] is True
            assert all(cnf.color[v][k] is False for v in clashes)
            removed |= {(node, i) for i in range(n) if i != k}
            removed |= {(v, k) for v in clashes}
        # the unit clauses of the full encoding are the pins alone
        units = {clause[0] for clause in full_encoding(apta, n).clauses if len(clause) == 1}
        assert {-lit for lit in units if lit < 0} == {v * n + i + 1 for v, i in removed}
        dfa = decode_dfa(cnf, sat_solve(cnf))
        for k, (node, _) in enumerate(clique):
            state = dfa.initial
            for sym in words[node]:
                state = dfa.transition[(state, sym)]
            assert state == k


def flattened(color, accepting, trans, out):
    """The entries of the four variable families in the full encoding's order."""
    return ([x for row in color for x in row] + list(accepting)
            + [x for rows in trans.values() for row in rows for x in row]
            + [x for rows in out for row in rows for x in row])


def test_residual_is_the_unit_propagation_of_the_full_encoding():
    # generic unit propagation of the oracle's full encoding, with its
    # at-most-one rows as pairwise clauses, refutes exactly the rungs
    # that the encoder refutes.  Otherwise the encoder fixes the values it fixes, and also
    # the rows of successors, acceptance and outputs that no other clause
    # mentions; it numbers the variables left, in order, and keeps the
    # other clauses, clause for clause, each group expanded.  The builtin
    # model of the residual, lifted through the fixed values, is the
    # builtin model of the full encoding, so the values of those rows are
    # the builtin solver's own.  The one-state tree also covers n = 1,
    # where every successor set starts as one state.
    from test_sat import _anbna_apta

    one_state = build_apta(SampleSet(pos=((), ("a0",), ("a0", "b0"), ("b0", "b0", "a0")),
                                     neg=(), alphabet=("a0", "b0")))
    checked = {"refuted": 0, "sat": 0, "rows": 0, "empty": 0}
    for apta in sample_aptas() + [_anbna_apta(), one_state]:
        for n in range(1, apta.domains()[0] + 2):
            full = full_encoding(apta, n)
            cnf = encode_size_n(apta, n)
            propagated = propagate_units(full.clauses)
            if propagated is None:
                assert cnf.clauses == [[]] and cnf.num_vars == 0
                checked["refuted"] += 1
                continue
            fixed, residual = propagated
            color, accepting, trans, out, _ = full_variables(apta, n)
            unconstrained = set()
            for row in ([row for rows in trans.values() for row in rows]
                        + [[x] for x in accepting] + out[0] + out[1]):
                open_vars = {x for x in row if x not in fixed}
                if all({abs(lit) for lit in clause} <= open_vars for clause in residual
                       if any(abs(lit) in open_vars for lit in clause)):
                    unconstrained |= open_vars
            checked["rows"] += bool(unconstrained)
            variables = flattened(color, accepting, trans, out)
            values = flattened(cnf.color, cnf.accepting, cnf.trans, cnf.out)
            assert variables == list(range(1, full.num_vars + 1)) and len(values) == len(variables)
            entries = list(zip(variables, values))
            fixed_here = {x: e for x, e in entries if type(e) is bool}
            assert set(fixed_here) == set(fixed) | unconstrained
            assert {x: fixed_here[x] for x in fixed} == fixed
            numbering = {x: e for x, e in entries if type(e) is not bool}
            assert list(numbering.values()) == list(range(1, cnf.num_vars + 1))
            kept = [clause for clause in residual if not unconstrained & {abs(lit) for lit in clause}]
            expanded = [pair for clause in cnf.clauses for pair in
                        (clause.pairwise() if type(clause) is AtMostOne else [clause])]
            assert expanded == [[numbering[lit] if lit > 0 else -numbering[-lit]
                                 for lit in clause] for clause in kept]
            checked["empty"] += not cnf.clauses
            model = sat_solve(cnf)
            expected = sat_solve(full)
            assert (model is None) == (expected is None)
            if model is None:
                continue
            lifted = {x: e if type(e) is bool else model[e] for x, e in entries}
            assert lifted == expected
            assert all(any(lifted[abs(lit)] == (lit > 0) for lit in clause)
                       for clause in full.clauses)
            checked["sat"] += 1
    assert min(checked.values()) > 0
    assert one_state.domains()[0] == 1


@contextmanager
def descent_checked():
    """Learning sessions run inside this check every rung against the
    builtin solver on the clauses built from the rung's own instance,
    solved as a fresh copy: the model of the encoder's descent must be
    the solver's, and any other rung must be the refuted empty clause or
    meet a conflict there.  Yields the count of rungs of each kind."""
    from test_sat import _LoggedCdcl

    rungs = Counter()
    find = learning.find_min_sep_dfa

    def find_checked(samples, solve, **kwargs):
        def checked(cnf):
            clauses = [c if type(c) is AtMostOne else list(c) for c in cnf.clauses]
            solver = _LoggedCdcl(cnf.num_vars, clauses, None)
            model = solver.solve()
            if cnf.model is not None:
                assert cnf.model == model
                rungs["descent"] += 1
            elif cnf.clauses == [[]]:
                rungs["refuted"] += 1
            else:
                assert any(type(entry) is tuple for entry in solver.log)
                rungs["conflict"] += 1
            answer = solve(cnf)
            assert answer == model
            return answer
        return find(samples, solve=checked, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learning, "find_min_sep_dfa", find_checked)
        yield rungs


def test_the_descent_is_the_builtin_solver_on_the_benchmark_corpora():
    # the learning corpora of perfbench, whose run seed only renames
    # states: the criterion-6 corpus and the 7-state frontier targets
    corpora = {"learn-random": [generate_droca(GenConfig(2 + seed % 5, 2, seed))
                                for seed in (derive_seed(424242, i) for i in range(100))],
               "learn-frontier": [generate_droca(GenConfig(7, 2, derive_seed(555, 7, i)))
                                  for i in range(4)]}
    mix = {}
    for name, targets in corpora.items():
        with descent_checked() as rungs:
            for target in targets:
                learn(SimulatedTeacher(target), LearnConfig(timeout_s=60))
        mix[name] = dict(rungs)
    assert mix == {"learn-random": {"descent": 240, "conflict": 14, "refuted": 4},
                   "learn-frontier": {"descent": 10, "conflict": 4, "refuted": 2}}


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 8),
       alphabet_size=st.integers(1, 3), voca=st.booleans())
def test_the_descent_is_the_builtin_solver_on_random_targets(seed, n_states, alphabet_size,
                                                             voca):
    # visibly one-counter targets are learnt in that mode
    target = (random_voca(seed, max_states=n_states, alphabet_size=alphabet_size) if voca
              else generate_droca(GenConfig(n_states, alphabet_size, seed)))
    with descent_checked() as rungs:
        learn(SimulatedTeacher(target), LearnConfig(timeout_s=60, voca=voca))
    assert rungs["descent"] > 0
