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
import sys
import time
from dataclasses import dataclass, field, fields

from .automata import Droca, doubled, extend_known
from .equivalence import Counterexample, check_sync_equiv
# not called here; bound because perfbench/tracer.py wraps it by this name
from .equivalence import voca_check_equiv  # noqa: F401
from .errors import EquivalenceTimeout, InvalidInput, LearnTimeout, SolverTimeout, check_type
from .minsepdfa import build_samples, find_min_sep_dfa
from .sat import external_path, sat_solve
from .table import ObservationTable


@dataclass(slots=True)
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


# the session columns of the bench CSV and of to_json, in field order
STATS_FIELDS = tuple(f.name for f in fields(Stats) if f.name != "counterexamples")


class SimulatedTeacher:
    """Teacher backed by a hidden automaton.

    Membership and counter-value queries run the hidden machine on its
    dense tables, which are built, and so validated, when the teacher is
    made.  The teacher keeps the (state index, counter) pair of every
    word it has run, prefixes included: :func:`extend_known` runs a word
    on from its longest such prefix with ``_step``, bound at each call so
    that a teacher holds no reference to itself.  A letter outside the
    alphabet raises :class:`InvalidInput`.  Synchronous-equivalence
    queries hand back the minimal counterexample of :func:`check_sync_equiv`,
    which raises :class:`EquivalenceTimeout` past ``deadline``.  The hidden
    machine keeps its tables for every query; each hypothesis, queried
    once, drops its own.  Every call increments the session statistics.
    """

    def __init__(self, hidden: Droca, stats: Stats | None = None):
        d0, d1, final_mask, initial = hidden.indexed_tables()
        self.hidden = hidden
        self.alphabet = hidden.alphabet
        self.stats = stats if stats is not None else Stats()
        self._tables = (d0, d1)
        self._finals = tuple(map(int, final_mask))
        self._letters = {a: i for i, a in enumerate(hidden.alphabet)}
        self._runs: dict[str, tuple[int, int]] = {"": (initial, 0)}

    def _step(self, run: tuple[int, int], word: str, j: int) -> tuple[int, int]:
        state, counter = run
        try:
            state, action = self._tables[counter > 0][state][self._letters[word[j]]]
        except KeyError:
            raise InvalidInput(f"letter {word[j]!r} not in alphabet") from None
        return state, counter + action

    def mq(self, word: str) -> int:
        self.stats.n_mq += 1
        return self._finals[extend_known(self._runs, word, self._step)[0]]

    def cv(self, word: str) -> int:
        self.stats.n_cv += 1
        return extend_known(self._runs, word, self._step)[1]

    def seq(self, hypothesis: Droca, deadline: float | None = None) -> Counterexample | None:
        self.stats.n_seq += 1
        verdict = check_sync_equiv(hypothesis, self.hidden, deadline)
        hypothesis.drop_tables()    # each hypothesis is queried once, the hidden machine each time
        return None if verdict.equivalent else verdict.counterexample

    def voca_action_map(self) -> dict[tuple[str, int], int]:
        return self.hidden.voca_action_map()


@dataclass(frozen=True)
class LearnConfig:
    voca: bool = False
    timeout_s: float | None = None
    solver: str = "builtin"     # a sat_solve backend

    def __post_init__(self):
        check_type("voca", self.voca, bool)
        check_type("solver", self.solver, str)
        external_path(self.solver)  # rejects an unknown backend before any query
        if self.timeout_s is not None:
            check_type("timeout_s", self.timeout_s, int, float)
            if not self.timeout_s >= 0:
                # also NaN: no clock reading is ever past a NaN deadline
                raise InvalidInput("timeout must be a non-negative number")


def construct_droca(table: ObservationTable, *, solve=sat_solve, at_least: int = 1,
                    deadline: float | None = None) -> Droca:
    """Build a one-counter hypothesis agreeing with the table.

    The minimal separating DFA of the table's samples is the hypothesis
    skeleton, of which only the doubled-letter transitions are read; its
    search starts at ``at_least`` states, which must be a lower bound on
    the minimal size (see :func:`find_min_sep_dfa`), and calls ``solve``
    on each CNF (:func:`learn` passes :func:`sat_solve` with the backend
    string ``LearnConfig.solver``).  Past ``deadline`` the search raises
    :class:`SolverTimeout`.  Counter-actions come from the skeleton's run
    over the samples' prefix tree, which the search hands back with the
    DFA.  The nodes with an output, the encoded table words, fix the
    actions of their sign at their state to their vector: the skeleton
    search has refused every model that gives two table words of one
    sign and one state different vectors, and hands back the vector each
    state holds per sign.  A step from such a node is not checked, since
    its action is the node's own vector.

    Only a step from a node outside the table is checked, against the
    action fixed for the (state, sign, letter) of its symbol, with its
    delta read off the table's cached counter-values.  Such a prefix is
    not yet constrained by any sample, so a clash is repaired by
    promoting it into P (signalled via :class:`PrefixConflict`).  The
    one walk over the tree's edges checks each step where it reaches it
    and reports the first clash in tree order: the order in which first
    the positive, then the negative samples, in build order, first pass
    the steps.  Transitions that no step fixes keep the skeleton target
    with the action of the table's ``action_map`` (visibly one-counter
    mode), else 0.  In visibly one-counter mode every counter-value
    comes from the map, so no clash can arise.
    """
    skeleton = find_min_sep_dfa(build_samples(table), solve=solve, at_least=at_least,
                                deadline=deadline)
    names = {q: sys.intern(f"s{q}") for q in skeleton.states}   # shared by every hypothesis
    apta, states = skeleton.apta, skeleton.node_states

    vectors = [list(index) for index in apta.vectors]   # each sign's vectors, by index
    actions = {(q, sign, letter): delta for (q, sign), (_, index) in skeleton.outputs.items()
               for letter, delta in zip(table.alphabet, vectors[sign][index].deltas)}
    words = [""]    # the plain word of each node
    for v, (u, sym) in enumerate(apta.parent_edges[1:], 1):
        letter = sym[:-1]
        words.append(words[u] + letter)
        if apta.outputs[u] is None:
            delta = table.counter_value(words[v]) - table.counter_value(words[u])
            if actions.setdefault((states[u], int(sym[-1]), letter), delta) != delta:
                raise PrefixConflict(words[u])

    defaults = table.action_map or {}
    delta0, delta1 = {}, {}
    entries = {}    # one (target, action) tuple per distinct entry
    for q in skeleton.states:
        for a in table.alphabet:
            key = (names[q], a)     # one key for both modes
            for sign, delta in ((0, delta0), (1, delta1)):
                target = skeleton.transition[(q, doubled(a, sign))]
                entry = (names[target], actions.get((q, sign, a), defaults.get((a, sign), 0)))
                delta[key] = entries.setdefault(entry, entry)
    return Droca(states=tuple(names[q] for q in skeleton.states), alphabet=table.alphabet,
                 initial=names[skeleton.initial], delta0=delta0, delta1=delta1,
                 finals=frozenset(names[q] for q in skeleton.finals))


class PrefixConflict(Exception):
    """A step from a word outside the table clashed with an action
    already fixed; the word must join P before construction can succeed."""

    def __init__(self, prefix):
        super().__init__(f"promote {prefix!r} into the table and rebuild")
        self.prefix = prefix


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

    table = ObservationTable(teacher, teacher.voca_action_map() if config.voca else None)
    d = 0
    size = 1    # the table only grows, so hypothesis sizes never drop
    while True:
        table.repair(d)
        if deadline is not None and time.monotonic() > deadline:
            finish(d)
            raise LearnTimeout("table repair ran past its deadline", stats)
        try:
            hypothesis = construct_droca(table, solve=checked_solve, at_least=size,
                                         deadline=deadline)
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
