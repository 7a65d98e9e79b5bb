"""Benchmark harness: sweep random machines through the learner.

Each (state count, alphabet size, sample index) cell gets its own
derived seed, its own generated target and an isolated learning session
under a per-sample timeout.  One CSV row per sample; failures are
recorded in the row, never abort the sweep, and neither does a worker
process that dies.  Row order follows the (states, alphabet, sample)
grid regardless of completion order.
"""

from __future__ import annotations

import csv
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .errors import InvalidInput, LearnTimeout
from .generate import GenConfig, derive_seed, generate_droca
from .learning import STATS_FIELDS, LearnConfig, SimulatedTeacher, Stats, learn
from .sat import external_path

CSV_HEADER = STATS_FIELDS + ("reason",)


@dataclass(frozen=True)
class BenchConfig:
    min_states: int
    max_states: int
    samples: int
    seed: int
    timeout_s: float
    min_alphabet: int = 2
    max_alphabet: int = 2
    restricted: bool = False
    jobs: int = 1
    out_path: str | None = None
    solver: str = "builtin"     # a sat_solve backend

    def __post_init__(self):
        if self.max_states < self.min_states or self.max_alphabet < self.min_alphabet:
            raise InvalidInput("empty state or alphabet range")
        for n_states, alphabet_size in ((self.min_states, self.min_alphabet),
                                        (self.max_states, self.max_alphabet)):
            GenConfig(n_states=n_states, alphabet_size=alphabet_size, seed=self.seed)
        external_path(self.solver)
        if self.samples < 1:
            raise InvalidInput("samples must be positive")
        if self.timeout_s <= 0:
            raise InvalidInput("timeout must be positive")
        if self.jobs < 1:
            raise InvalidInput("jobs must be positive")


def run_sample(n_states: int, alphabet_size: int, seed: int, restricted: bool,
               timeout_s: float, backend: str) -> dict:
    """Generate one target, learn it, and report one CSV row."""
    stats = Stats(seed=seed, target_states=n_states, alphabet=alphabet_size)
    reason = ""
    start = time.monotonic()
    try:
        target = generate_droca(GenConfig(n_states=n_states,
                                          alphabet_size=alphabet_size,
                                          seed=seed, restricted=restricted))
        teacher = SimulatedTeacher(target, stats)
        learn(teacher, LearnConfig(timeout_s=timeout_s, solver=backend))
    except LearnTimeout:
        reason = "timeout"
    except Exception as exc:
        reason = type(exc).__name__
        stats.wall_ms = int((time.monotonic() - start) * 1000)
    return _row(stats, reason)


def _row(stats: Stats, reason: str) -> dict:
    row = {name: getattr(stats, name) for name in STATS_FIELDS}
    row["reason"] = reason
    return row


def _run_parallel(tasks, jobs: int) -> list[dict]:
    """Rows of ``tasks`` run in worker processes, at most ``jobs`` at a
    time.  A worker that dies breaks its pool: the samples in flight are
    lost with it and become ``BrokenProcessPool`` rows, and a fresh pool
    runs the rest."""
    rows: list[dict | None] = [None] * len(tasks)
    todo = deque(range(len(tasks)))
    while todo:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            running = {}
            broken = False
            while running or (todo and not broken):
                while todo and not broken and len(running) < jobs:
                    index = todo.popleft()
                    try:
                        running[pool.submit(run_sample, *tasks[index])] = index
                    except BrokenProcessPool:
                        todo.appendleft(index)
                        broken = True
                if not running:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    index = running.pop(future)
                    try:
                        rows[index] = future.result()
                    except BrokenProcessPool:
                        n_states, alphabet_size, seed = tasks[index][:3]
                        rows[index] = _row(Stats(seed=seed, target_states=n_states,
                                                 alphabet=alphabet_size),
                                           "BrokenProcessPool")
                        broken = True
    return rows


def run_benchmark(config: BenchConfig) -> list[dict]:
    """Run the sweep; returns the rows and writes them as CSV if an
    output path is configured."""
    tasks = []
    for n_states in range(config.min_states, config.max_states + 1):
        for alphabet_size in range(config.min_alphabet, config.max_alphabet + 1):
            for index in range(config.samples):
                seed = derive_seed(config.seed, n_states, alphabet_size, index)
                tasks.append((n_states, alphabet_size, seed, config.restricted,
                              config.timeout_s, config.solver))
    if config.jobs == 1:
        rows = [run_sample(*task) for task in tasks]
    else:
        rows = _run_parallel(tasks, config.jobs)
    if config.out_path is not None:
        write_csv(rows, config.out_path)
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
