"""Fast self-tests of the benchmark: tiny versions of each workload run to
the end, and the checker rejects planted wrong outputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from itertools import product

import pytest

import run

run.locate_program()

import checker  # noqa: E402  (needs the program on the path)
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from ocalearn import (ACCEPT_MISMATCH, COUNTER_DESYNC, Counterexample,  # noqa: E402
                      Verdict)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def flipped_final(m):
    """``m`` with the finality of its initial state flipped: a wrong
    machine that differs on the empty word."""
    finals = set(m.finals) ^ {m.initial}
    return type(m)(m.states, m.alphabet, m.initial, m.delta0, m.delta1, finals)


def tiny_learn(workload, count):
    targets = inputs.learn_targets(workload, run_seed=7)
    targets = sorted(targets, key=lambda t: t.machine.size)[:count]
    _, results, _ = run.measure(targets, run.learn_op, tracer.plain_call, rounds=2)
    return targets, results


def tiny_pairs(run_seed):
    """The first pair of every (checker, size, variant) of the corpus."""
    firsts = {}
    for pair in inputs.equiv_pairs(run_seed):
        firsts.setdefault((pair.checker, pair.a.size, pair.variant), pair)
    return list(firsts.values())


@pytest.mark.parametrize("workload,count", [("learn-random", 6), ("learn-frontier", 1)])
def test_tiny_learning_workloads_pass_the_checks(workload, count):
    if workload == "learn-frontier":
        seed = inputs.corpus_seeds(workload)[2]   # the quickest frontier target
        targets = [inputs.Target(seed, inputs.corpus_target(workload, seed))]
        _, results, _ = run.measure(targets, run.learn_op, tracer.plain_call, rounds=1)
    else:
        targets, results = tiny_learn(workload, count)
    problems, failed = run.check_outputs(workload, targets, results)
    assert (problems, failed) == ([], 0)


def test_tiny_equivalence_workload_passes_the_checks():
    pairs = tiny_pairs(run_seed=7)
    assert {p.checker for p in pairs} == {"sync", "voca"}
    _, results, _ = run.measure(pairs, run.equiv_op, tracer.plain_call, rounds=2)
    assert run.check_outputs("equiv-pairs", pairs, results) == ([], 0)


def test_inputs_follow_the_seed():
    first = inputs.learn_targets("learn-random", 3)
    again = inputs.learn_targets("learn-random", 3)
    other = inputs.learn_targets("learn-random", 4)
    assert [(t.seed, t.machine) for t in first] == [(t.seed, t.machine) for t in again]
    assert [t.seed for t in first] == [t.seed for t in other] == inputs.corpus_seeds("learn-random")
    assert [t.machine for t in first] != [t.machine for t in other]


def test_checker_rejects_a_wrong_hypothesis():
    targets, results = tiny_learn("learn-random", 1)
    target, (learnt, _) = targets[0], results[0][0]
    wrong = flipped_final(learnt)
    assert checker.first_witness(wrong, target.machine, 8) == ("", ACCEPT_MISMATCH)
    problems = checker.check_learnt(target.machine, wrong, learnt.size)
    assert any("differs from the target" in p for p in problems)


def test_checker_rejects_a_bigger_hypothesis():
    targets, results = tiny_learn("learn-random", 1)
    target, (learnt, _) = targets[0], results[0][0]
    problems = checker.check_learnt(target.machine, learnt, learnt.size + 1)
    assert problems == [f"learnt {learnt.size} states, reference says {learnt.size + 1}"]


def refuted_pair():
    for pair in tiny_pairs(run_seed=11):
        verdict = run.equiv_op(pair, tracer.plain_call)
        if not verdict.equivalent and len(verdict.counterexample.word) >= 2:
            return pair, verdict
    raise AssertionError("no refuted pair with a witness of two or more letters")


def test_checker_accepts_the_program_witness():
    pair, verdict = refuted_pair()
    assert checker.check_verdict(pair, verdict) == []


def test_checker_rejects_a_non_minimal_witness():
    # a real witness that is not the least: the first longer word that is one
    for pair in tiny_pairs(run_seed=11):
        verdict = run.equiv_op(pair, tracer.plain_call)
        if verdict.equivalent:
            continue
        word = verdict.counterexample.word
        longer = next((w for n in range(len(word) + 1, len(word) + 5)
                       for w in map("".join, product("ab", repeat=n))
                       if checker.classify(pair.a, pair.b, w)), None)
        if longer is not None:
            break
    planted = Verdict(False, Counterexample(longer, checker.classify(pair.a, pair.b, longer)))
    problems = checker.check_verdict(pair, planted)
    assert problems and "not minimal" in problems[0]


def test_checker_rejects_a_witness_of_the_wrong_kind():
    pair, verdict = refuted_pair()
    ce = verdict.counterexample
    other = COUNTER_DESYNC if ce.kind == ACCEPT_MISMATCH else ACCEPT_MISMATCH
    problems = checker.check_verdict(pair, Verdict(False, Counterexample(ce.word, other)))
    assert problems and "reported" in problems[0]


def test_checker_rejects_a_refuted_split_pair():
    pair = next(p for p in tiny_pairs(run_seed=11) if p.split)
    problems = checker.check_verdict(pair, Verdict(False, Counterexample("a", ACCEPT_MISMATCH)))
    assert problems


def test_speed_probe_removes_and_rescales_its_own_time():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    inside = [d for s, d in zip(probe.starts, probe.durations) if start <= s <= end]
    assert len(inside) >= 3 and probe.starts[0] < start and probe.starts[-1] > end
    wall = probe.wall_seconds(start, end)
    assert wall == pytest.approx(end - start - sum(inside))
    around = probe.durations[:len(inside) + 2]
    assert probe.reference_seconds(start, end) == \
        pytest.approx(wall * speed.REFERENCE_S * len(around) / sum(around))


def test_tracer_restores_the_program():
    from ocalearn import learning, table
    before = learning.construct_droca, table.ObservationTable.repair
    with tracer.Tracer():
        assert learning.construct_droca is not before[0]
    assert (learning.construct_droca, table.ObservationTable.repair) == before


def test_spec_names_what_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == [tracer.unit(n) for n in tracer.PER_LAYER]
    printed = run.end_to_end(0.5, [0.1, 0.2, 0.3, 0.4], 2, 10.0)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in printed.items()]


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = run_cli(run.ROOT, "--workload", "equiv-pairs", "--seed", "5",
                   "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "equiv-pairs", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
