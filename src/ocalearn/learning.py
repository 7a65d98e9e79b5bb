"""The learning loop: teacher interface, hypothesis construction, and
counterexample-driven refinement.

The learner keeps an observation table, repairs it to be d-closed and
d-consistent, mines a minimal separating DFA from the table's samples,
reattaches counter-actions to obtain a one-counter hypothesis, and asks
the teacher a minimal synchronous-equivalence query.  A counterexample
and all its prefixes join the table; d grows to at least the
counterexample's height (plus one per query by default) and the loop
repeats until the teacher agrees.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Protocol

from .automata import Droca, sgn
from .equivalence import Counterexample, check_sync_equiv, voca_check_equiv
from .errors import ConstructionConflict, LearnTimeout, SolverTimeout
from .minsepdfa import build_samples, find_min_sep_dfa, strip_operations
from .sat import SolverConfig, sat_solve
from .table import ObservationTable

STATS_FIELDS = ("seed", "target_states", "alphabet", "success", "wall_ms",
                "learnt_states", "n_seq", "n_mq", "n_cv", "n_sat",
                "max_ce_len", "final_d")


@dataclass
class CeRecord:
    """Instrumentation for one counterexample.

    Row counts are numbers of distinct row values among the table rows
    whose counter-value is at most ``height``; ``rows_before`` is taken
    when the counterexample arrives and ``rows_after`` once the grown
    table is repaired again.
    """

    word: str
    kind: str
    height: int
    rows_before: int
    rows_after: int | None = None


@dataclass
class Stats:
    """Per-session query accounting."""

    seed: int | None = None
    target_states: int | None = None
    alphabet: int | None = None
    success: int = 0
    wall_ms: int = 0
    learnt_states: int = 0
    n_seq: int = 0
    n_mq: int = 0
    n_cv: int = 0
    n_sat: int = 0
    max_ce_len: int = 0
    final_d: int = 0
    counterexamples: list[CeRecord] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in STATS_FIELDS})


class Teacher(Protocol):
    alphabet: tuple[str, ...]

    def mq(self, word: str) -> int: ...

    def cv(self, word: str) -> int: ...

    def seq(self, hypothesis: Droca) -> Counterexample | None: ...


class SimulatedTeacher:
    """Teacher backed by a hidden automaton.

    Membership and counter-value queries run the hidden machine.
    Synchronous-equivalence queries hand back a minimal counterexample:
    from the faster visibly-one-counter check when both the hidden
    machine and the hypothesis are VOCAs, and from the bounded product
    search otherwise.  Every call increments the session statistics.
    """

    def __init__(self, hidden: Droca, stats: Stats | None = None):
        self.hidden = hidden
        self.alphabet = hidden.alphabet
        self.stats = stats if stats is not None else Stats()
        self._hidden_is_voca = hidden.is_voca()

    def mq(self, word: str) -> int:
        self.stats.n_mq += 1
        return int(self.hidden.accepts(word))

    def cv(self, word: str) -> int:
        self.stats.n_cv += 1
        return self.hidden.counter_effect(word)

    def seq(self, hypothesis: Droca) -> Counterexample | None:
        self.stats.n_seq += 1
        voca = self._hidden_is_voca and hypothesis.is_voca()
        check = voca_check_equiv if voca else check_sync_equiv
        verdict = check(hypothesis, self.hidden)
        return None if verdict.equivalent else verdict.counterexample

    def voca_action_map(self) -> dict[tuple[str, int], int]:
        return self.hidden.voca_action_map()


@dataclass(frozen=True)
class LearnConfig:
    increment_d_after_seq: bool = True
    voca: bool = False
    timeout_s: float | None = None
    solver: SolverConfig = SolverConfig()


def construct_droca(table: ObservationTable, *,
                    action_map: dict[tuple[str, int], int] | None = None,
                    solve=sat_solve, at_least: int = 1) -> Droca:
    """Build a one-counter hypothesis agreeing with the table.

    The minimal separating DFA of the table's samples, restricted to the
    doubled alphabet, is the hypothesis skeleton; its search starts at
    ``at_least`` states, which must be a lower bound on the minimal size
    (see :func:`find_min_sep_dfa`).  Counter-actions come from replaying
    every table word through the skeleton: each step demands its observed
    counter delta, and each end state additionally demands the word's
    whole action vector.  Transitions never exercised
    by a table word keep the skeleton target with action 0.  Conflicting
    demands abort the session: they mean the sample constraints failed
    to keep dissimilar rows apart.

    Replay steps taken at words that are not themselves table rows or
    cells are weaker: when such a step clashes with another demand, the
    offending word is not yet constrained by any sample, so the clash is
    repaired by promoting it into P (signalled via :class:`PrefixConflict`)
    instead of aborting.

    With ``action_map`` (visibly one-counter mode) the replay is skipped
    and every transition takes its action from the map.
    """
    samples = build_samples(table)
    full = find_min_sep_dfa(samples, solve=solve, at_least=at_least)
    skeleton = strip_operations(full, samples.ops)
    names = {q: f"s{q}" for q in skeleton.states}

    assignments: dict[tuple[int, int, str], tuple[int, bool, str]] = {}
    if action_map is None:
        word_set = set(table.words())
        for word in table.words():
            state = skeleton.initial
            path = [state]
            for sym in table.enc(word):
                state = skeleton.transition[(state, sym)]
                path.append(state)
            for i, letter in enumerate(word):
                prefix = word[:i]
                before = table.counter_value(prefix)
                delta = table.counter_value(word[:i + 1]) - before
                _demand(assignments, (path[i], sgn(before), letter), delta,
                        prefix, prefix in word_set)
            vector = table.actions(word)
            for j, letter in enumerate(table.alphabet):
                _demand(assignments, (path[-1], vector.sign, letter),
                        vector.deltas[j], word, True)

    delta0 = {}
    delta1 = {}
    for q in skeleton.states:
        for a in table.alphabet:
            for sign, delta in ((0, delta0), (1, delta1)):
                target = skeleton.transition[(q, f"{a}{sign}")]
                if action_map is not None:
                    action = action_map[(a, sign)]
                else:
                    action = assignments.get((q, sign, a), (0,))[0]
                delta[(names[q], a)] = (names[target], action)
    return Droca(states=tuple(names[q] for q in skeleton.states),
                 alphabet=table.alphabet,
                 initial=names[skeleton.initial],
                 delta0=delta0, delta1=delta1,
                 finals=frozenset(names[q] for q in skeleton.finals))


class PrefixConflict(Exception):
    """A replay step at a word outside the table clashed with another
    demand; the word must join P before construction can succeed."""

    def __init__(self, prefix):
        super().__init__(f"promote {prefix!r} into the table and rebuild")
        self.prefix = prefix


def _demand(assignments, key, action, source, source_in_table):
    existing = assignments.get(key)
    if existing is None:
        assignments[key] = (action, source_in_table, source)
        return
    old_action, old_in_table, old_source = existing
    if old_action == action:
        return
    if not source_in_table:
        raise PrefixConflict(source)
    if not old_in_table:
        raise PrefixConflict(old_source)
    state, sign, letter = key
    raise ConstructionConflict(
        f"table words {old_source!r} and {source!r} demand actions "
        f"{old_action} and {action} on {letter!r} at state s{state} (sign {sign})")


class _DerivedCvTeacher:
    """Teacher view that derives counter-values from a public action map,
    so visibly-one-counter sessions issue no cv queries."""

    def __init__(self, inner, action_map):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.action_map = action_map

    def mq(self, word: str) -> int:
        return self.inner.mq(word)

    def cv(self, word: str) -> int:
        counter = 0
        for letter in word:
            counter += self.action_map[(letter, sgn(counter))]
        return counter

    def seq(self, hypothesis: Droca):
        return self.inner.seq(hypothesis)


def learn(teacher, config: LearnConfig | None = None) -> tuple[Droca, Stats]:
    """Learn a machine counter-synchronous with and equivalent to the
    teacher's hidden one.  Returns the final hypothesis and statistics."""
    config = config or LearnConfig()
    stats: Stats = getattr(teacher, "stats", None) or Stats()
    start = time.monotonic()
    deadline = None if config.timeout_s is None else start + config.timeout_s

    def finish(d):
        stats.final_d = d
        stats.wall_ms = int((time.monotonic() - start) * 1000)

    def checked_solve(cnf):
        if deadline is not None and time.monotonic() > deadline:
            finish(d)
            raise LearnTimeout("deadline reached before a SAT call", stats)
        stats.n_sat += 1
        solver_config = config.solver
        if deadline is not None:
            remaining = max(deadline - time.monotonic(), 0.01)
            limit = remaining if solver_config.time_limit_s is None \
                else min(remaining, solver_config.time_limit_s)
            solver_config = SolverConfig(solver_config.backend, limit)
        return sat_solve(cnf, solver_config)

    action_map = None
    view = teacher
    if config.voca:
        action_map = teacher.voca_action_map()
        view = _DerivedCvTeacher(teacher, action_map)

    table = ObservationTable(view.alphabet)
    d = 0
    size = 1    # the table only grows, so hypothesis sizes never drop
    pending: CeRecord | None = None
    while True:
        table.repair(d, view)
        if pending is not None:
            pending.rows_after = table.distinct_rows_at(pending.height)
            pending = None
        while True:
            try:
                hypothesis = construct_droca(table, action_map=action_map,
                                             solve=checked_solve, at_least=size)
                break
            except PrefixConflict as conflict:
                table.add_prefix(conflict.prefix)
                table.repair(d, view)
            except SolverTimeout:
                if deadline is not None and time.monotonic() >= deadline:
                    finish(d)
                    raise LearnTimeout("SAT call ran into the deadline",
                                       stats) from None
                raise
        size = hypothesis.size
        if deadline is not None and time.monotonic() > deadline:
            finish(d)
            raise LearnTimeout("deadline reached before an equivalence query", stats)
        ce = teacher.seq(hypothesis)
        if ce is None:
            stats.success = 1
            stats.learnt_states = hypothesis.size
            finish(d)
            return hypothesis, stats
        word = ce.word
        stats.max_ce_len = max(stats.max_ce_len, len(word))
        height = max(table.ensure_cv(word[:i], view) for i in range(len(word) + 1))
        pending = CeRecord(word=word, kind=ce.kind, height=height,
                           rows_before=table.distinct_rows_at(height))
        stats.counterexamples.append(pending)
        table.add_prefix(word)
        d = max(d, height) + (1 if config.increment_d_after_seq else 0)
