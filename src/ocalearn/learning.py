"""The learning loop: simulated teacher, hypothesis construction, and
counterexample-driven refinement.

The learner keeps an observation table, repairs it to be d-closed and
d-consistent, mines a minimal separating DFA from the table's samples,
reattaches counter-actions to obtain a one-counter hypothesis, and asks
the teacher a minimal synchronous-equivalence query.  A counterexample
and all its prefixes join the table; d grows to at least the
counterexample's height, plus one, and the loop repeats until the
teacher agrees.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .automata import Droca, doubled, sgn
from .equivalence import Counterexample, check_sync_equiv
# not called here; bound because perfbench/tracer.py wraps it by this name
from .equivalence import voca_check_equiv  # noqa: F401
from .errors import EquivalenceTimeout, InvalidInput, LearnTimeout, SolverTimeout
from .minsepdfa import build_samples, find_min_sep_dfa
from .sat import external_path, sat_solve
from .table import ObservationTable

STATS_FIELDS = ("seed", "target_states", "alphabet", "success", "wall_ms",
                "learnt_states", "n_seq", "n_mq", "n_cv", "n_sat",
                "max_ce_len", "final_d")


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
    counterexamples: list[Counterexample] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in STATS_FIELDS})


class SimulatedTeacher:
    """Teacher backed by a hidden automaton.

    Membership and counter-value queries run the hidden machine.
    Synchronous-equivalence queries hand back the minimal counterexample
    of :func:`check_sync_equiv`, which raises
    :class:`EquivalenceTimeout` past ``deadline``.  Every call
    increments the session statistics.
    """

    def __init__(self, hidden: Droca, stats: Stats | None = None):
        self.hidden = hidden
        self.alphabet = hidden.alphabet
        self.stats = stats if stats is not None else Stats()

    def mq(self, word: str) -> int:
        self.stats.n_mq += 1
        return int(self.hidden.accepts(word))

    def cv(self, word: str) -> int:
        self.stats.n_cv += 1
        return self.hidden.counter_effect(word)

    def seq(self, hypothesis: Droca, deadline: float | None = None) -> Counterexample | None:
        self.stats.n_seq += 1
        verdict = check_sync_equiv(hypothesis, self.hidden, deadline)
        return None if verdict.equivalent else verdict.counterexample

    def voca_action_map(self) -> dict[tuple[str, int], int]:
        return self.hidden.voca_action_map()


@dataclass(frozen=True)
class LearnConfig:
    voca: bool = False
    timeout_s: float | None = None
    solver: str = "builtin"     # a sat_solve backend

    def __post_init__(self):
        external_path(self.solver)  # rejects an unknown backend before any query
        if self.timeout_s is not None and not self.timeout_s >= 0:
            # also NaN: no clock reading is ever past a NaN deadline
            raise InvalidInput("timeout must be a non-negative number")


def construct_droca(table: ObservationTable, *,
                    action_map: dict[tuple[str, int], int] | None = None,
                    solve=sat_solve, at_least: int = 1) -> Droca:
    """Build a one-counter hypothesis agreeing with the table.

    The minimal separating DFA of the table's samples is the hypothesis
    skeleton, of which only the doubled-letter transitions are read; its
    search starts at ``at_least`` states, which must be a lower bound on
    the minimal size (see :func:`find_min_sep_dfa`), and calls ``solve``
    on each CNF (:func:`learn` passes :func:`sat_solve` with the backend
    string ``LearnConfig.solver``).  Counter-actions come from replaying
    each table word through the skeleton once.  The word's action vector
    is written at its end state without a check: the skeleton search has
    refused every model that gives two table words of one sign and one
    state different vectors.  A step at a prefix that is itself a table
    word is skipped, since its action is that prefix's own vector.

    Only the steps at prefixes outside the table are checked against the
    action fixed for their (state, sign, letter).  Such a prefix is not
    yet constrained by any sample, so a clash is repaired by promoting it
    into P (signalled via :class:`PrefixConflict`).  Transitions that no
    replay fixes keep the skeleton target with the action of
    ``action_map`` (visibly one-counter mode), else 0.  In visibly
    one-counter mode every counter-value comes from the map, so no clash
    can arise.
    """
    skeleton = find_min_sep_dfa(build_samples(table), solve=solve, at_least=at_least)
    names = {q: f"s{q}" for q in skeleton.states}

    actions: dict[tuple[int, int, str], int] = {}
    outside = []    # (key, delta, prefix) of the steps at prefixes outside the table
    words = table.words()
    word_set = set(words)
    for word in words:
        state = skeleton.initial
        for i, letter in enumerate(word):
            prefix = word[:i]
            before = table.counter_value(prefix)
            if prefix not in word_set:
                delta = table.counter_value(word[:i + 1]) - before
                outside.append(((state, sgn(before), letter), delta, prefix))
            state = skeleton.transition[(state, doubled(letter, sgn(before)))]
        vector = table.actions(word)
        for letter, delta in zip(table.alphabet, vector.deltas):
            actions[(state, vector.sign, letter)] = delta
    for key, delta, prefix in outside:
        if actions.setdefault(key, delta) != delta:
            raise PrefixConflict(prefix)

    defaults = action_map or {}
    delta0 = {}
    delta1 = {}
    for q in skeleton.states:
        for a in table.alphabet:
            for sign, delta in ((0, delta0), (1, delta1)):
                target = skeleton.transition[(q, doubled(a, sign))]
                action = actions.get((q, sign, a), defaults.get((a, sign), 0))
                delta[(names[q], a)] = (names[target], action)
    return Droca(states=tuple(names[q] for q in skeleton.states),
                 alphabet=table.alphabet,
                 initial=names[skeleton.initial],
                 delta0=delta0, delta1=delta1,
                 finals=frozenset(names[q] for q in skeleton.finals))


class PrefixConflict(Exception):
    """A replay step at a word outside the table clashed with an action
    already fixed; the word must join P before construction can succeed."""

    def __init__(self, prefix):
        super().__init__(f"promote {prefix!r} into the table and rebuild")
        self.prefix = prefix


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
        stats.n_sat += 1
        return sat_solve(cnf, config.solver, deadline)

    action_map = None
    view = teacher
    if config.voca:
        action_map = teacher.voca_action_map()
        view = _DerivedCvTeacher(teacher, action_map)

    table = ObservationTable(view)
    d = 0
    size = 1    # the table only grows, so hypothesis sizes never drop
    while True:
        table.repair(d)
        if deadline is not None and time.monotonic() > deadline:
            finish(d)
            raise LearnTimeout("table repair ran past its deadline", stats)
        try:
            hypothesis = construct_droca(table, action_map=action_map,
                                         solve=checked_solve, at_least=size)
            ce = teacher.seq(hypothesis, deadline)
        except PrefixConflict as conflict:
            table.add_prefix(conflict.prefix)
            continue    # repair at the same d and construct again
        except (SolverTimeout, EquivalenceTimeout) as timeout:
            finish(d)
            raise LearnTimeout(str(timeout), stats) from None
        size = hypothesis.size
        if ce is None:
            stats.success = 1
            stats.learnt_states = size
            finish(d)
            return hypothesis, stats
        word = ce.word
        stats.max_ce_len = max(stats.max_ce_len, len(word))
        stats.counterexamples.append(ce)
        height = max(table.counter_value(word[:i]) for i in range(len(word) + 1))
        table.add_prefix(word)
        d = max(d, height) + 1
