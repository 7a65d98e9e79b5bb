import concurrent.futures
import csv
import json
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from ocalearn import (GenConfig, GenerationFailure, InvalidInput, LearnConfig, bench,
                      derive_seed, generate, generate_droca, store)
from ocalearn.bench import CSV_HEADER, BenchConfig, run_benchmark
from ocalearn.learning import STATS_FIELDS
from ocalearn.cli import main
from conftest import make_anbna, random_voca


def test_bench_row_count_and_order(tmp_path):
    out = tmp_path / "rows.csv"     # a path object, which open() takes as well as a str
    config = BenchConfig(min_states=2, max_states=3, samples=5, seed=3,
                         timeout_s=60, out_path=out)
    rows = run_benchmark(config)
    assert len(rows) == 10
    assert [row["target_states"] for row in rows] == [2] * 5 + [3] * 5
    with open(out) as handle:
        reader = csv.reader(handle)
        header = next(reader)
        assert header == list(CSV_HEADER)
        body = list(reader)
    assert len(body) == 10
    for row in rows:
        assert row["success"] == 1
        assert row["learnt_states"] <= row["target_states"]
        assert row["reason"] == ""


def test_bench_jobs_parallel_matches_serial(tmp_path):
    base = dict(min_states=2, max_states=2, samples=4, seed=9, timeout_s=60)
    serial = run_benchmark(BenchConfig(**base))
    parallel = run_benchmark(BenchConfig(jobs=2, **base))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                          for r in rows]
    assert strip(serial) == strip(parallel)


def test_bench_records_timeouts_without_aborting():
    config = BenchConfig(min_states=3, max_states=3, samples=3, seed=5,
                         timeout_s=1e-9)
    rows = run_benchmark(config)
    assert len(rows) == 3
    for row in rows:
        assert row["success"] == 0
        assert row["reason"] == "timeout"


def test_bench_records_any_exception_without_aborting(monkeypatch):
    def broken(teacher, config):
        time.sleep(0.01)
        raise RuntimeError("unexpected")

    monkeypatch.setattr(bench, "learn", broken)
    config = BenchConfig(min_states=2, max_states=3, samples=2, seed=5,
                         timeout_s=60, jobs=1)
    rows = run_benchmark(config)
    assert len(rows) == 4
    for row in rows:
        assert row["success"] == 0
        assert row["reason"] == "RuntimeError"
        assert row["wall_ms"] >= 10


def test_bench_survives_a_dead_worker(monkeypatch):
    # the forked workers inherit the patched generator, which kills the
    # worker in the middle of one sample
    doomed = derive_seed(9, 2, 2, 1)
    generate_droca = bench.generate_droca

    def dying(config):
        if config.seed == doomed:
            os._exit(1)
        return generate_droca(config)

    monkeypatch.setattr(bench, "generate_droca", dying)
    config = BenchConfig(min_states=2, max_states=2, samples=6, seed=9,
                         timeout_s=60, jobs=2)
    rows = run_benchmark(config)
    assert [row["seed"] for row in rows] == \
        [derive_seed(9, 2, 2, i) for i in range(6)]
    lost = [i for i, row in enumerate(rows) if row["reason"] == "BrokenProcessPool"]
    # the pool holds at most jobs samples in flight, and only those are lost
    assert 1 in lost and len(lost) <= 2
    for i, row in enumerate(rows):
        if i not in lost:
            assert row["success"] == 1 and row["reason"] == ""
        else:
            assert row["success"] == 0


def test_bench_pools_fork_no_more_workers_than_samples_left(monkeypatch):
    # a forked pool starts all its workers at its first submit, so a pool
    # for two samples is made with two workers, not jobs
    made = []
    executor = concurrent.futures.ProcessPoolExecutor

    class Recording(executor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    rows = run_benchmark(BenchConfig(min_states=2, max_states=2, samples=2, seed=9,
                                     timeout_s=60, jobs=3))
    assert made == [2]
    assert [row["reason"] for row in rows] == ["", ""]


def test_bench_requeues_a_sample_whose_submit_finds_the_pool_broken(monkeypatch):
    # the first pool breaks at its second submit: that sample goes back to
    # the front of the queue, and a fresh pool, sized to the one sample
    # left, runs it; pools run their samples in this process
    made = []

    class BreakingPool:
        def __init__(self, max_workers):
            made.append(max_workers)
            self.submits = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            self.submits += 1
            if len(made) == 1 and self.submits == 2:
                raise BrokenProcessPool("a worker died")
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BreakingPool)
    base = dict(min_states=2, max_states=2, samples=2, seed=9, timeout_s=60)
    rows = run_benchmark(BenchConfig(jobs=3, **base))
    assert made == [2, 1]
    assert [row["seed"] for row in rows] == [derive_seed(9, 2, 2, i) for i in range(2)]
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(rows) == strip(run_benchmark(BenchConfig(**base)))
    assert all(row["success"] == 1 and row["reason"] == "" for row in rows)


def test_generation_failure_is_named_and_becomes_a_bench_row(monkeypatch):
    monkeypatch.setattr(generate, "_MAX_ATTEMPTS", 0)
    with pytest.raises(GenerationFailure, match="after 0 attempts"):
        generate_droca(GenConfig(n_states=2, alphabet_size=2, seed=1))
    rows = run_benchmark(BenchConfig(min_states=2, max_states=2, samples=1, seed=1,
                                     timeout_s=60))
    assert [(row["success"], row["reason"]) for row in rows] == [(0, "GenerationFailure")]


@pytest.mark.parametrize("field, make", [
    ("n_states", lambda: GenConfig(n_states=3.0, alphabet_size=2, seed=1)),
    ("alphabet_size", lambda: GenConfig(n_states=3, alphabet_size=2.0, seed=1)),
    ("n_states", lambda: GenConfig(n_states="3", alphabet_size=2, seed=1)),
    ("seed", lambda: GenConfig(n_states=3, alphabet_size=2, seed=1.5)),
    ("timeout_s", lambda: LearnConfig(timeout_s="5")),
    ("solver", lambda: LearnConfig(solver=None)),
    ("samples", lambda: BenchConfig(min_states=2, max_states=2, samples=2.5, seed=0,
                                    timeout_s=5)),
    ("timeout_s", lambda: BenchConfig(min_states=2, max_states=2, samples=1, seed=0,
                                      timeout_s="5")),
    ("master", lambda: derive_seed(1.5, 2)),
    ("voca", lambda: LearnConfig(voca="no")),
    ("restricted", lambda: GenConfig(n_states=3, alphabet_size=2, seed=1, restricted="no")),
    ("restricted", lambda: BenchConfig(min_states=2, max_states=2, samples=1, seed=0,
                                       timeout_s=5, restricted="no")),
    ("out_path", lambda: BenchConfig(min_states=2, max_states=2, samples=1, seed=0,
                                     timeout_s=5, out_path=7)),
])
def test_a_wrong_typed_config_field_is_named(field, make):
    with pytest.raises(InvalidInput, match=f"^{field} must be "):
        make()


def test_bench_config_validation():
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=3, max_states=2, samples=1, seed=0, timeout_s=5)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0, timeout_s=0)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0,
                    timeout_s=float("nan"))
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=0, seed=0, timeout_s=5)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0, timeout_s=5, jobs=0)
    # sweeps that could only write an InvalidInput row per sample
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=1, max_states=1, samples=2, seed=0, timeout_s=5)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0, timeout_s=5,
                    min_alphabet=0, max_alphabet=1)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0, timeout_s=5,
                    max_alphabet=27)
    with pytest.raises(InvalidInput):
        BenchConfig(min_states=2, max_states=2, samples=1, seed=0, timeout_s=5,
                    solver="minisat")


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "anbna.json"
    path.write_text(store(make_anbna()))
    return str(path)


def test_cli_equiv_same_machine(golden_file, capsys):
    assert main(["equiv", "--a", golden_file, "--b", golden_file]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_cli_equiv_not_equivalent(golden_file, tmp_path, capsys):
    machine = make_anbna()
    other = type(machine)(machine.states, machine.alphabet, machine.initial,
                          machine.delta0, machine.delta1, finals=[])
    other_path = tmp_path / "other.json"
    other_path.write_text(store(other))
    assert main(["equiv", "--a", golden_file, "--b", str(other_path)]) == 1
    out = capsys.readouterr().out
    assert "not equivalent" in out and "aba" in out


def test_cli_equiv_voca_pair_with_a_shared_action_map(golden_file, tmp_path, capsys):
    a = random_voca(derive_seed(31, 0), max_states=5)
    b = random_voca(derive_seed(31, 1), max_states=5, action_map=a.voca_action_map())
    paths = []
    for name, machine in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(store(machine))
    assert main(["equiv", "--a", str(paths[0]), "--b", str(paths[1])]) == 1
    assert "not equivalent" in capsys.readouterr().out
    assert main(["equiv", "--a", golden_file, "--b", golden_file]) == 0


def test_cli_learn(golden_file, tmp_path, capsys):
    out = tmp_path / "hyp.json"
    stats = tmp_path / "stats.json"
    code = main(["learn", "--target", golden_file,
                 "--out", str(out), "--stats", str(stats)])
    assert code == 0
    from ocalearn import check_sync_equiv, load
    hypothesis = load(out.read_text())
    assert hypothesis.size == 4
    assert check_sync_equiv(hypothesis, make_anbna()).equivalent
    payload = json.loads(stats.read_text())
    assert payload["success"] == 1 and payload["learnt_states"] == 4


def test_cli_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--states", "4", "--alphabet", "2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cli_encode(golden_file, capsys):
    assert main(["encode", "--target", golden_file, "--word", "aba"]) == 0
    out = capsys.readouterr().out
    assert "a⁰b¹a⁰" in out
    assert "(q2,0)" in out and "accepted" in out


def test_cli_bench(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--min-states", "2", "--max-states", "2",
                 "--samples", "2", "--seed", "1", "--timeout-s", "30",
                 "--restricted", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3


def test_cli_bench_rejects_a_sweep_that_can_only_fail(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--min-states", "1", "--max-states", "1",
                 "--samples", "2", "--seed", "1", "--timeout-s", "30",
                 "--out", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_learn_timeout_prints_the_stats(golden_file, capsys):
    assert main(["learn", "--target", golden_file, "--timeout-s", "0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("error: ")
    stats = json.loads(err[-1])
    assert list(stats) == list(STATS_FIELDS)
    assert stats["success"] == 0


def test_cli_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["equiv", "--a", str(bad), "--b", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["learn", "--target", "PATH"],
                                     ["equiv", "--a", "PATH", "--b", "PATH"],
                                     ["encode", "--target", "PATH", "--word", "a"]],
                         ids=["learn", "equiv", "encode"])
@pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
def test_cli_names_an_unreadable_input(command, problem, tmp_path, capsys):
    path = tmp_path / "machine.json"
    if problem == "directory":
        path.mkdir()
    elif problem == "not-utf8":
        path.write_bytes(b'{"type": "\xff"}')
    assert main([str(path) if arg == "PATH" else arg for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_cli_names_a_missing_output_directory(command, tmp_path, capsys):
    out = str(tmp_path / "absent" / "out")
    if command == "generate":
        args = ["generate", "--states", "2", "--alphabet", "1", "--seed", "1"]
    else:
        args = ["bench", "--min-states", "2", "--max-states", "2",
                "--samples", "1", "--seed", "1", "--timeout-s", "30"]
    assert main(args + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_bench_fails_on_its_output_path_before_any_session(tmp_path, monkeypatch,
                                                              capsys):
    def session(*args):
        raise AssertionError("a session ran before the output file was opened")

    monkeypatch.setattr(bench, "run_sample", session)
    out = tmp_path / "absent" / "x.csv"
    assert main(["bench", "--min-states", "2", "--max-states", "3", "--samples", "2",
                 "--seed", "1", "--timeout-s", "30", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_a_nan_timeout(golden_file, tmp_path, capsys):
    assert main(["learn", "--target", golden_file, "--timeout-s", "nan"]) == 1
    assert main(["learn", "--target", golden_file, "--timeout-s", "-1"]) == 1
    assert main(["bench", "--min-states", "2", "--max-states", "2",
                 "--samples", "1", "--seed", "1", "--timeout-s", "nan",
                 "--out", str(tmp_path / "rows.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == err
    assert not (tmp_path / "rows.csv").exists()


def test_cli_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ocalearn.cli", "equiv", "--bogus-flag", "x"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_cli_complete_with_sink(tmp_path, capsys):
    machine = make_anbna()
    obj = json.loads(store(machine))
    del obj["delta1"]["q1,b"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(obj))
    assert main(["encode", "--target", str(partial), "--word", "a",
                 "--complete-with-sink"]) == 0
    assert main(["encode", "--target", str(partial), "--word", "a"]) == 1


@pytest.mark.parametrize("text", ["[" * 100000, '{"type": ' + "1" * 5000 + "}"],
                         ids=["too-deep", "too-many-digits"])
def test_cli_names_json_that_python_cannot_parse(text, tmp_path, capsys):
    path = tmp_path / "machine.json"
    path.write_text(text)
    assert main(["learn", "--target", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: json: ") and "Traceback" not in err
