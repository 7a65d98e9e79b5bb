import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ocalearn import (Droca, GenConfig, InvalidInput, LearnConfig, LearnTimeout,
                      ObservationTable, SimulatedTeacher, build_samples, check_sync_equiv,
                      construct_droca, derive_seed, find_min_sep_dfa, generate_droca, learn,
                      errors, learning, minsepdfa)
from conftest import make_anbna, make_five_state_a_plus, random_machine, random_voca
from oracles import brute_force_equiv, learn_counting_rows, replay_construct_droca
from test_minsepdfa import cold_ladder
from test_table import golden_table


def test_teacher_examples(anbna):
    teacher = SimulatedTeacher(anbna)
    assert teacher.mq("aba") == 1
    assert teacher.cv("aa") == 2
    assert teacher.seq(anbna) is None
    assert (teacher.stats.n_mq, teacher.stats.n_cv, teacher.stats.n_seq) == (1, 1, 1)


def test_teacher_answers_match_the_hidden_runs():
    # answers stepped on from the longest prefix already run equal a run
    # from the initial configuration, whatever order the words come in
    rng = random.Random(17)
    for seed in range(40):
        target = random_machine(seed, max_states=6, alphabet_size=1 + seed % 3)
        words = ["".join(rng.choices(target.alphabet, k=rng.randrange(10))) for _ in range(30)]
        prefixes = [w[:i] for w in words for i in range(len(w))]
        rng.shuffle(words)
        rng.shuffle(prefixes)
        for order in (prefixes + words, words + prefixes):
            teacher = SimulatedTeacher(target)
            for i, word in enumerate(order):
                assert teacher.mq(word) == int(target.accepts(word))
                assert teacher.cv(word) == target.counter_effect(word)
                assert (teacher.stats.n_mq, teacher.stats.n_cv) == (i + 1, i + 1)


def test_teacher_rejects_a_bad_letter_and_answers_on(anbna):
    teacher = SimulatedTeacher(anbna)
    assert teacher.cv("aa") == 2
    for query in (teacher.mq, teacher.cv):
        with pytest.raises(InvalidInput):
            query("aac")
        with pytest.raises(InvalidInput):
            query("c")
    for word in ("aab", "aa", "aabba", "aabb", "", "ab"):
        assert teacher.mq(word) == int(anbna.accepts(word))
        assert teacher.cv(word) == anbna.counter_effect(word)


def test_construct_droca_agrees_with_table(anbna):
    table, _ = golden_table(anbna)
    table.repair(2)
    hypothesis = construct_droca(table)
    assert hypothesis.size <= anbna.size
    for word in table.words():
        trace = hypothesis.run(word)
        assert trace.accepted == bool(table.membership(word))
        assert trace.counter_effect == table.counter_value(word)


def test_construct_droca_agreement_random_sessions():
    for i in range(25):
        seed = derive_seed(4242, i)
        target = generate_droca(GenConfig(n_states=2 + seed % 5,
                                          alphabet_size=2, seed=seed))
        table = ObservationTable(SimulatedTeacher(target))
        table.repair(1)
        from ocalearn.learning import PrefixConflict
        while True:
            try:
                hypothesis = construct_droca(table)
                break
            except PrefixConflict as conflict:
                table.add_prefix(conflict.prefix)
                table.repair(1)
        for word in table.words():
            trace = hypothesis.run(word)
            assert trace.accepted == bool(table.membership(word))
            assert trace.counter_effect == table.counter_value(word)


def test_construct_droca_matches_the_replay_oracle(monkeypatch):
    # the walk over the prefix tree builds the hypothesis of the word
    # replay over the same skeleton, and reports the prefix the replay
    # reports, on random sessions, in both modes, and on the sessions
    # that promote a clashing prefix
    skeletons = []
    find, construct = learning.find_min_sep_dfa, learning.construct_droca

    def kept(samples, **kwargs):
        skeletons.append((samples, find(samples, **kwargs)))
        return skeletons[-1][1]

    def checked(table, **kwargs):
        try:
            hypothesis = construct(table, **kwargs)
        except learning.PrefixConflict as conflict:
            with pytest.raises(learning.PrefixConflict) as replayed:
                replay_construct_droca(table, skeletons[-1][1], skeletons[-1][0])
            assert replayed.value.prefix == conflict.prefix
            conflicts.append(conflict.prefix)
            raise
        assert hypothesis == replay_construct_droca(table, skeletons[-1][1], skeletons[-1][0])
        return hypothesis

    monkeypatch.setattr(learning, "find_min_sep_dfa", kept)
    monkeypatch.setattr(learning, "construct_droca", checked)
    sessions = [(generate_droca(GenConfig(2 + derive_seed(4242, i) % 5, 1 + i % 3,
                                          derive_seed(4242, i), restricted=i % 2 == 1)),
                 LearnConfig()) for i in range(24)]
    sessions += [(random_voca(derive_seed(31, i), max_states=5), LearnConfig(voca=True))
                 for i in range(6)]
    sessions += [(generate_droca(gen), LearnConfig()) for gen in (
        GenConfig(4, 2, derive_seed(777, 4, 2, 1), restricted=True),
        GenConfig(6, 2, derive_seed(778, 6, 2, 18), restricted=True),
        GenConfig(8, 2, derive_seed(778, 8, 2, 2)))]
    conflicts = []
    for target, config in sessions:
        learn(SimulatedTeacher(target), config)
    assert conflicts == ["babab", "abbbaaaba", "babab"]
    assert len(skeletons) > 2 * len(sessions)


def test_construct_droca_reports_the_first_clash_in_tree_order_on_random_tables():
    # long random columns leave many prefixes outside the table, and which
    # step clashes first depends on the order the steps are checked in:
    # the reported step is the first in tree order, which the replay meets
    # first when it runs the positive samples, then the negative ones,
    # each in build order, as the tree inserted them
    rng = random.Random(1)
    conflicts = 0
    for i in range(30):
        target = random_machine(i, max_states=7, alphabet_size=2 + i % 2)
        table = ObservationTable(SimulatedTeacher(target))
        for _ in range(rng.randrange(6)):
            table.add_prefix("".join(rng.choices(target.alphabet, k=rng.randrange(1, 8))))
        for _ in range(rng.randrange(6)):
            table.add_suffix("".join(rng.choices(target.alphabet, k=rng.randrange(2, 6))))
        table.repair(rng.randrange(3))
        while True:
            samples = build_samples(table)
            pos = set(samples.pos)
            in_tree_order = replace(samples, outputs=tuple(
                sorted(samples.outputs, key=lambda o: o[0] not in pos)))
            try:
                expected = replay_construct_droca(table, find_min_sep_dfa(samples), in_tree_order)
            except learning.PrefixConflict as conflict:
                expected = conflict.prefix
            try:
                hypothesis = construct_droca(table)
            except learning.PrefixConflict as conflict:
                assert conflict.prefix == expected
                conflicts += 1
                table.add_prefix(conflict.prefix)
                continue
            assert hypothesis == expected
            break
    assert conflicts >= 10


def test_hypotheses_keep_no_dense_tables(monkeypatch):
    # a hypothesis, queried once, drops the tables of its query; the
    # hidden machine builds its tables once for every query of the
    # session, and a machine checked again reuses its own
    built = []
    indexed_tables = Droca.indexed_tables

    def counted(machine):
        if machine._indexed is None:
            built.append(machine)
        return indexed_tables(machine)

    monkeypatch.setattr(Droca, "indexed_tables", counted)
    target = make_anbna()
    hypothesis, stats = learn(SimulatedTeacher(target))
    assert [m is target for m in built].count(True) == 1
    assert len(built) == 1 + stats.n_seq
    assert hypothesis._indexed is None
    for _ in range(2):
        assert check_sync_equiv(hypothesis, target).equivalent
    assert len(built) == 2 + stats.n_seq


def test_learn_golden(anbna):
    hypothesis, stats = learn(SimulatedTeacher(anbna))
    assert hypothesis.size == 4
    assert check_sync_equiv(hypothesis, anbna).equivalent
    assert stats.success == 1
    assert stats.learnt_states == 4


def test_learn_five_state(five_state_a_plus):
    hypothesis, stats = learn(SimulatedTeacher(five_state_a_plus))
    assert hypothesis.size == 4
    assert check_sync_equiv(hypothesis, five_state_a_plus).equivalent


def test_learn_one_state_all_accepting():
    target = Droca(states=["s"], alphabet=["a", "b"], initial="s",
                   delta0={("s", "a"): ("s", 0), ("s", "b"): ("s", 0)},
                   delta1={("s", "a"): ("s", 0), ("s", "b"): ("s", 0)},
                   finals=["s"])
    hypothesis, stats = learn(SimulatedTeacher(target))
    assert hypothesis.size == 1
    assert stats.n_seq <= 2


def test_learn_one_state_empty_language():
    # every table word is negative and all share one action vector, so a
    # single rejecting state separates them
    target = Droca(states=["q"], alphabet=["a"], initial="q",
                   delta0={("q", "a"): ("q", 1)}, delta1={("q", "a"): ("q", 1)},
                   finals=[])
    hypothesis, _ = learn(SimulatedTeacher(target))
    assert check_sync_equiv(hypothesis, target).equivalent
    assert hypothesis.size == 1


def test_learn_stats_json_fields(anbna):
    _, stats = learn(SimulatedTeacher(anbna))
    import json
    payload = json.loads(stats.to_json())
    assert list(payload) == ["seed", "target_states", "alphabet", "success",
                             "wall_ms", "learnt_states", "n_seq", "n_mq",
                             "n_cv", "n_sat", "max_ce_len", "final_d"]
    assert payload["success"] == 1 and payload["n_sat"] > 0


def test_learn_is_deterministic(anbna):
    first, stats1 = learn(SimulatedTeacher(anbna))
    second, stats2 = learn(SimulatedTeacher(anbna))
    assert first == second
    assert stats1.counterexamples == stats2.counterexamples


def test_learn_config_rejects_an_unknown_backend():
    # rejected at construction, before a session asks any query
    with pytest.raises(InvalidInput):
        LearnConfig(solver="minisat")
    with pytest.raises(InvalidInput):
        LearnConfig(solver="external:")


def test_learn_config_rejects_a_nan_timeout():
    # time.monotonic() > nan is always false, so the deadline would never fire
    with pytest.raises(InvalidInput):
        LearnConfig(timeout_s=float("nan"))
    # nor is a negative one a deadline (0.0 expires at once, see below)
    with pytest.raises(InvalidInput):
        LearnConfig(timeout_s=-1.0)


def test_learn_timeout_carries_stats():
    target = generate_droca(GenConfig(n_states=6, alphabet_size=2, seed=99))
    teacher = SimulatedTeacher(target)
    with pytest.raises(LearnTimeout) as err:
        learn(teacher, LearnConfig(timeout_s=0.0))
    assert err.value.stats.success == 0
    assert err.value.stats.wall_ms >= 0


def test_learn_reads_the_deadline_after_table_repair():
    # the first repair alone outlasts the timeout, so no SAT call is made
    class SlowTeacher(SimulatedTeacher):
        def mq(self, word):
            time.sleep(0.02)
            return super().mq(word)

    with pytest.raises(LearnTimeout) as err:
        learn(SlowTeacher(make_anbna()), LearnConfig(timeout_s=0.01))
    assert err.value.stats.n_sat == 0
    assert err.value.stats.n_mq > 0


@pytest.mark.parametrize("owner, phase", [(learning, "build_samples"),
                                          (minsepdfa, "build_apta")])
def test_learn_reads_the_deadline_in_the_construction_phase(monkeypatch, owner, phase):
    # a deadline that passes while the samples or the prefix tree are built
    # ends the session before any CNF is encoded
    now = [0.0]
    clock = SimpleNamespace(monotonic=lambda: now[0])
    monkeypatch.setattr(learning, "time", clock)
    monkeypatch.setattr(errors, "time", clock)
    original = getattr(owner, phase)

    def slow(*args):
        result = original(*args)
        now[0] += 10
        return result

    encoded = []
    monkeypatch.setattr(owner, phase, slow)
    monkeypatch.setattr(minsepdfa, "encode_size_n", lambda *args: encoded.append(args))
    with pytest.raises(LearnTimeout) as err:
        learn(SimulatedTeacher(make_anbna()), LearnConfig(timeout_s=5))
    assert encoded == []
    assert err.value.stats.n_sat == 0


@pytest.mark.parametrize("voca", [False, True], ids=["queried", "derived"])
def test_each_word_is_asked_at_most_once_per_query_kind(monkeypatch, voca):
    # the table reads its caches before it asks, so over a whole session
    # the teacher answers each word at most once per kind of query
    tables = []

    class RecordedTable(ObservationTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(learning, "ObservationTable", RecordedTable)
    for i in range(12):
        seed = derive_seed(77, i)
        target = (random_voca(seed, max_states=5) if voca else
                  generate_droca(GenConfig(n_states=2 + seed % 5, alphabet_size=2, seed=seed)))
        _, stats = learn(SimulatedTeacher(target), LearnConfig(voca=voca))
        table = tables[i]
        assert stats.n_mq == len(table.memb)
        assert stats.n_cv == (0 if voca else len(table.cv))
    assert len(tables) == 12


def test_learn_voca_mode_uses_no_cv_queries():
    target = random_voca(8, max_states=4)
    teacher = SimulatedTeacher(target)
    hypothesis, stats = learn(teacher, LearnConfig(voca=True))
    assert stats.n_cv == 0
    assert stats.success == 1
    assert hypothesis.is_voca()
    assert hypothesis.voca_action_map() == target.voca_action_map()
    assert check_sync_equiv(hypothesis, target).equivalent


def test_learn_voca_mode_many():
    for i in range(12):
        target = random_voca(derive_seed(31, i), max_states=5)
        teacher = SimulatedTeacher(target)
        hypothesis, stats = learn(teacher, LearnConfig(voca=True))
        assert stats.n_cv == 0
        assert check_sync_equiv(hypothesis, target).equivalent
        assert hypothesis.size <= target.size


def test_learn_default_mode_on_voca_targets():
    # default-mode hypotheses of VOCA targets need not be VOCAs
    for i in range(20):
        target = random_voca(derive_seed(31, i), max_states=5)
        hypothesis, stats = learn(SimulatedTeacher(target))
        assert stats.success == 1
        assert check_sync_equiv(hypothesis, target).equivalent


def test_soak_learns_every_target():
    # 7-8-state random targets over 1-3 letters, and VOCAs of up to 8
    # states in both modes: every session ends equivalent to its target
    # and no larger, and voca mode asks no counter-value
    sessions = [(generate_droca(GenConfig(n_states=7 + i % 2, alphabet_size=1 + i % 3,
                                          seed=derive_seed(31337, i))), LearnConfig())
                for i in range(60)]
    for i in range(60):
        target = random_voca(derive_seed(31337, 1, i), max_states=8, alphabet_size=1 + i % 3)
        sessions += [(target, LearnConfig(voca=True)), (target, LearnConfig())]
    for target, config in sessions:
        hypothesis, stats = learn(SimulatedTeacher(target), config)
        assert stats.success == 1
        assert check_sync_equiv(hypothesis, target).equivalent
        assert hypothesis.size <= target.size
        assert not config.voca or stats.n_cv == 0



def test_learn_deadline_overshoot_is_bounded():
    # targets whose sessions each ran past a 20 s deadline on a shared
    # 2-core host, so a 3 s deadline still cuts them on a much faster one;
    # there the deadline fell in the SAT phase of all three
    for n, i in ((20, 1), (25, 8), (30, 2)):
        target = generate_droca(GenConfig(n_states=n, alphabet_size=2,
                                          seed=derive_seed(555, n, i)))
        start = time.monotonic()
        with pytest.raises(LearnTimeout):
            learn(SimulatedTeacher(target), LearnConfig(timeout_s=3))
        assert time.monotonic() - start <= 3 + 0.25


def test_learn_eight_state_frontier_targets():
    # the clique bound skips the UNSAT rung at n = 7 that keeps
    # derive_seed(555, 8, 2) from finishing within 90 s
    for i in range(4):
        target = generate_droca(GenConfig(n_states=8, alphabet_size=2,
                                          seed=derive_seed(555, 8, i)))
        hypothesis, stats = learn(SimulatedTeacher(target), LearnConfig(timeout_s=60))
        assert stats.success == 1
        assert check_sync_equiv(hypothesis, target).equivalent
        assert hypothesis.size <= 8


def test_learn_ten_state_frontier_targets():
    # clique pre-colouring settles the UNSAT rungs at n = 9 that kept
    # these sessions running past 120 s with only the root pinned
    for i in range(4):
        target = generate_droca(GenConfig(n_states=10, alphabet_size=2,
                                          seed=derive_seed(555, 10, i)))
        hypothesis, stats = learn(SimulatedTeacher(target), LearnConfig(timeout_s=60))
        assert stats.success == 1
        assert check_sync_equiv(hypothesis, target).equivalent
        assert hypothesis.size <= 10


def test_row_observer_pairs_with_the_session_counterexamples():
    sessions = [(make_anbna(), LearnConfig())]
    sessions += [(random_voca(seed, max_states=5), LearnConfig(voca=True))
                 for seed in (3, 8, 21)]
    for target, config in sessions:
        _, stats, rows = learn_counting_rows(target, config)
        assert rows
        assert [r.word for r in rows] == [ce.word for ce in stats.counterexamples]
        # the counter-values learn reads: derived from the action map in
        # visibly one-counter mode, cv queries otherwise
        table = ObservationTable(SimulatedTeacher(target),
                                 target.voca_action_map() if config.voca else None)
        for r in rows:
            assert r.height == max(table.counter_value(r.word[:i])
                                   for i in range(len(r.word) + 1))
            assert r.rows_after is not None


def test_counterexamples_never_repeat():
    # once processed, a counterexample is a table word, and hypotheses
    # agree with the table, so it can never be returned again
    targets = [make_anbna()] + [
        generate_droca(GenConfig(n_states=2 + derive_seed(55, i) % 5,
                                 alphabet_size=2, seed=derive_seed(55, i)))
        for i in range(15)]
    for target in targets:
        teacher = SimulatedTeacher(target)
        hypothesis, stats = learn(teacher)
        words = [r.word for r in stats.counterexamples]
        assert len(words) == len(set(words))
        assert check_sync_equiv(hypothesis, target).equivalent


def test_learn_unary_and_ternary_alphabets():
    for k, seeds in ((1, (5, 9)), (3, (2, 11))):
        for seed in seeds:
            target = generate_droca(GenConfig(n_states=3, alphabet_size=k,
                                              seed=derive_seed(88, k, seed)))
            hypothesis, stats = learn(SimulatedTeacher(target))
            assert check_sync_equiv(hypothesis, target).equivalent
            assert hypothesis.size <= target.size


def test_end_to_end_soundness_to_length_12():
    # exhaustive acceptance and prefix-wise counter agreement over the
    # two-letter alphabet
    targets = [make_anbna()] + [
        generate_droca(GenConfig(n_states=2 + derive_seed(66, i) % 5,
                                 alphabet_size=2, seed=derive_seed(66, i)))
        for i in range(10)]
    for target in targets:
        hypothesis, _ = learn(SimulatedTeacher(target))
        assert brute_force_equiv(hypothesis, target, 12).equivalent


def test_warm_ladder_returns_the_cold_ladder_dfa(monkeypatch):
    # every hypothesis's DFA must be the one the search from one state
    # finds, while the sessions make fewer SAT calls than those searches
    find_min_sep_dfa = learning.find_min_sep_dfa
    cold_calls = []

    def cross_checked(samples, solve, at_least, deadline):
        warm = find_min_sep_dfa(samples, solve=solve, at_least=at_least, deadline=deadline)
        cold = cold_ladder(samples)
        assert (warm.states, warm.transition, warm.finals) == \
            (cold.states, cold.transition, cold.finals)
        cold_calls.append(cold.size)
        return warm

    monkeypatch.setattr(learning, "find_min_sep_dfa", cross_checked)
    sessions = [(make_anbna(), LearnConfig())]
    for i in range(10):
        seed = derive_seed(424242, i)
        target = generate_droca(GenConfig(n_states=2 + seed % 5,
                                          alphabet_size=2, seed=seed))
        sessions.append((target, LearnConfig()))
    for i in range(4):
        sessions.append((random_voca(derive_seed(31, i), max_states=5),
                         LearnConfig(voca=True)))
    n_sat = 0
    for target, config in sessions:
        hypothesis, stats = learn(SimulatedTeacher(target), config)
        assert check_sync_equiv(hypothesis, target).equivalent
        n_sat += stats.n_sat
    assert n_sat < sum(cold_calls)


@settings(deadline=None, max_examples=25)
@given(n_states=st.integers(2, 4), alphabet_size=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), restricted=st.booleans())
def test_learn_property_equivalent_and_no_larger(n_states, alphabet_size,
                                                 seed, restricted):
    target = generate_droca(GenConfig(n_states=n_states,
                                      alphabet_size=alphabet_size, seed=seed,
                                      restricted=restricted))
    hypothesis, stats = learn(SimulatedTeacher(target))
    assert stats.success == 1
    assert check_sync_equiv(hypothesis, target).equivalent
    assert hypothesis.size <= target.size


@settings(deadline=None, max_examples=25)
@given(max_states=st.integers(2, 4), alphabet_size=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_learn_voca_mode_property(max_states, alphabet_size, seed):
    target = random_voca(seed, max_states=max_states, alphabet_size=alphabet_size)
    hypothesis, stats = learn(SimulatedTeacher(target), LearnConfig(voca=True))
    assert stats.success == 1
    assert check_sync_equiv(hypothesis, target).equivalent
    assert hypothesis.size <= target.size
    assert stats.n_cv == 0
    assert hypothesis.is_voca()
    assert hypothesis.voca_action_map() == target.voca_action_map()


def _counts(stats):
    return (stats.learnt_states, stats.n_seq, stats.n_mq, stats.n_cv,
            stats.n_sat, stats.max_ce_len, stats.final_d)


def test_session_query_counts_are_pinned():
    # (learnt_states, n_seq, n_mq, n_cv, n_sat, max_ce_len, final_d): query
    # counts are the complexity measure, so a change to the table or the
    # hypothesis construction must not move them unnoticed
    sessions = [(make_anbna(), LearnConfig(), (4, 3, 47, 95, 3, 5, 4)),
                (make_five_state_a_plus(), LearnConfig(), (4, 2, 26, 53, 2, 4, 2))]
    voca_counts = ((4, 4, 49, 0, 4, 5, 3), (3, 3, 47, 0, 3, 5, 3),
                   (3, 3, 63, 0, 3, 3, 4))
    for i, expected in enumerate(voca_counts):
        sessions.append((random_voca(derive_seed(4711, i), max_states=5),
                         LearnConfig(voca=True), expected))
    for target, config, expected in sessions:
        _, stats = learn(SimulatedTeacher(target), config)
        assert _counts(stats) == expected


def test_prefix_conflict_promotes_the_clashing_prefix(monkeypatch):
    # a replay step at a prefix outside the table clashes with an action
    # already fixed; learn promotes that prefix into P and rebuilds
    conflicts = []
    construct_droca = learning.construct_droca

    def counted(*args, **kwargs):
        try:
            return construct_droca(*args, **kwargs)
        except learning.PrefixConflict as conflict:
            conflicts.append(conflict.prefix)
            raise

    monkeypatch.setattr(learning, "construct_droca", counted)
    for gen, prefixes, counts in [
            (GenConfig(4, 2, derive_seed(777, 4, 2, 1), restricted=True), ["babab"],
             (4, 3, 64, 129, 4, 3, 2)),
            (GenConfig(6, 2, derive_seed(778, 6, 2, 18), restricted=True), ["abbbaaaba"],
             (6, 3, 75, 170, 6, 3, 3)),
            (GenConfig(8, 2, derive_seed(778, 8, 2, 2)), ["babab"],
             (8, 4, 249, 499, 5, 5, 5))]:
        conflicts.clear()
        target = generate_droca(gen)
        hypothesis, stats = learn(SimulatedTeacher(target))
        assert conflicts == prefixes
        assert stats.success == 1
        assert check_sync_equiv(hypothesis, target).equivalent
        assert _counts(stats) == counts
