"""Core automaton model: DROCAs, configurations, runs, and encoded words.

A DROCA is a DFA extended with a non-negative counter.  Transitions are
split by counter mode: ``delta0`` applies when the counter is zero (actions
0/+1 only, the counter cannot go negative) and ``delta1`` when it is
positive (actions -1/0/+1).  Acceptance is by final state alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InvalidInput


def sgn(n: int) -> int:
    """Sign of a non-negative integer: 0 for zero, 1 otherwise."""
    return 0 if n == 0 else 1


class Configuration(NamedTuple):
    state: str
    counter: int


@dataclass(frozen=True)
class RunTrace:
    """The full run of a word: one configuration per prefix."""

    word: str
    configs: tuple[Configuration, ...]
    accepted: bool

    @property
    def counter_effect(self) -> int:
        return self.configs[-1].counter

    @property
    def height(self) -> int:
        return max(c.counter for c in self.configs)


class Droca:
    """Complete deterministic real-time one-counter automaton.

    Instances are immutable after construction and safe to share across
    threads; all operations are pure.  Letters are single-character
    strings so that words can be plain ``str`` values.
    """

    __slots__ = ("states", "alphabet", "initial", "delta0", "delta1", "finals", "_indexed")

    def __init__(self, states, alphabet, initial, delta0, delta1, finals):
        self.states: tuple[str, ...] = tuple(states)
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.initial: str = initial
        self.delta0: dict[tuple[str, str], tuple[str, int]] = dict(delta0)
        self.delta1: dict[tuple[str, str], tuple[str, int]] = dict(delta1)
        self.finals: frozenset[str] = frozenset(finals)
        self._indexed = None

    @property
    def size(self) -> int:
        return len(self.states)

    def __eq__(self, other):
        if not isinstance(other, Droca):
            return NotImplemented
        return (self.states == other.states
                and self.alphabet == other.alphabet
                and self.initial == other.initial
                and self.delta0 == other.delta0
                and self.delta1 == other.delta1
                and self.finals == other.finals)

    def __repr__(self):
        return (f"Droca(states={len(self.states)}, alphabet={''.join(self.alphabet)}, "
                f"initial={self.initial!r}, finals={sorted(self.finals)})")

    def indexed_tables(self):
        """Dense transition tables for search code.

        Returns ``(d0, d1, final_mask, init_idx)`` where ``d0[q][a]`` and
        ``d1[q][a]`` are ``(target_index, action)`` pairs; each row is a
        tuple, and equal pairs are one object.  A repeated state id, or a
        (state, letter) pair without a transition in some counter mode,
        raises :class:`InvalidInput` naming the first one.
        """
        if self._indexed is None:
            idx = {q: i for i, q in enumerate(self.states)}
            if len(idx) < len(self.states):
                repeated = next(q for i, q in enumerate(self.states) if idx[q] != i)
                raise InvalidInput(f"repeated state id {repeated!r}")
            pos = {a: i for i, a in enumerate(self.alphabet)}
            pairs: dict = {}    # (target, action) -> (target index, action)
            tables = []
            for sign, delta in enumerate((self.delta0, self.delta1)):
                rows = [[None] * len(pos) for _ in self.states]
                for (q, a), entry in delta.items():
                    pair = pairs.get(entry)
                    if pair is None:
                        pair = pairs[entry] = (idx[entry[0]], entry[1])
                    rows[idx[q]][pos[a]] = pair
                for q, row in zip(self.states, rows):
                    if None in row:
                        raise _missing(q, self.alphabet[row.index(None)], sign)
                tables.append([tuple(row) for row in rows])
            final_mask = [q in self.finals for q in self.states]
            self._indexed = (*tables, final_mask, idx[self.initial])
        return self._indexed

    def step(self, config: Configuration, letter: str) -> Configuration:
        """One transition from ``config`` on ``letter``."""
        delta = self.delta0 if config.counter == 0 else self.delta1
        try:
            target, action = delta[(config.state, letter)]
        except KeyError:
            if config.state not in self.states:
                raise InvalidInput(f"unknown state {config.state!r}") from None
            if letter not in self.alphabet:
                raise InvalidInput(f"letter {letter!r} not in alphabet") from None
            raise _missing(config.state, letter, sgn(config.counter)) from None
        return Configuration(target, config.counter + action)

    def run(self, word: str) -> RunTrace:
        """Run ``word`` from the initial configuration."""
        config = Configuration(self.initial, 0)
        configs = [config]
        for letter in word:
            config = self.step(config, letter)
            configs.append(config)
        return RunTrace(word, tuple(configs), config.state in self.finals)

    def accepts(self, word: str) -> bool:
        return self.run(word).accepted

    def counter_effect(self, word: str) -> int:
        return self.run(word).counter_effect

    def encode(self, word: str) -> tuple[str, ...]:
        """Encode a word over the doubled alphabet.

        Each letter is tagged with the sign of the counter before reading
        it, e.g. ``"aba"`` becomes ``("a0", "b1", "a0")`` when the counter
        is zero, positive, zero at the three positions.  The encoding is
        injective: dropping the tags recovers the word.
        """
        trace = self.run(word)
        return tuple(doubled(word[i], sgn(trace.configs[i].counter))
                     for i in range(len(word)))

    def characteristic_dfa(self) -> "Dfa":
        """Erase the counter: a DFA over the doubled alphabet.

        Shares this machine's states, initial state and finals; the
        zero-mode transition on ``a`` becomes the transition on ``a0``
        and the positive-mode one the transition on ``a1``.  It accepts
        ``encode(w)`` exactly when this machine accepts ``w``.
        """
        transition = {(q, doubled(a, sign)): t
                      for sign, delta in enumerate((self.delta0, self.delta1))
                      for (q, a), (t, _) in delta.items()}
        return Dfa(states=self.states,
                   alphabet=doubled_alphabet(self.alphabet),
                   initial=self.initial,
                   transition=transition,
                   finals=self.finals)

    def is_voca(self) -> bool:
        """True when the counter-action is a function of (letter, counter sign)."""
        return all(len({action for _, action in column}) <= 1
                   for table in self.indexed_tables()[:2] for column in zip(*table))

    def voca_action_map(self) -> dict[tuple[str, int], int]:
        """The (letter, sign) -> action map of a visibly one-counter automaton."""
        if not self.is_voca():
            raise InvalidInput("automaton is not visibly one-counter")
        q = self.states[0]
        return {(a, sign): delta[(q, a)][1] for a in self.alphabet
                for sign, delta in enumerate((self.delta0, self.delta1))}


def _missing(state, letter, sign) -> InvalidInput:
    mode = "positive" if sign else "zero"
    return InvalidInput(f"no transition from state {state!r} on {letter!r} at counter {mode}")


def extend_known(known, word, step):
    """The value of ``word`` in ``known``, a cache that holds the empty
    word and no None: the longest cached prefix's value, stepped on by
    ``step(value, word, j)``, which returns the value of ``word[:j + 1]``;
    every prefix passed is cached."""
    i = len(word)
    value = known.get(word)
    while value is None:
        i -= 1
        value = known.get(word[:i])
    for j in range(i, len(word)):
        value = known[word[:j + 1]] = step(value, word, j)
    return value


def doubled(letter: str, sign: int) -> str:
    """Symbol of the doubled alphabet: letter tagged with a counter sign."""
    return f"{letter}{sign}"


def doubled_alphabet(alphabet: Iterable[str]) -> tuple[str, ...]:
    return tuple(doubled(a, s) for a in alphabet for s in (0, 1))


def pretty_encoded(symbols: Iterable[str]) -> str:
    """Human-readable encoded word with superscript sign tags."""
    sup = {"0": "⁰", "1": "¹"}
    out = "".join(sym[:-1] + sup[sym[-1]] for sym in symbols)
    return out if out else "ε"


@dataclass(frozen=True)
class Dfa:
    """Complete DFA over an arbitrary symbol set."""

    states: tuple
    alphabet: tuple
    initial: object
    transition: dict
    finals: frozenset

    def accepts(self, symbols) -> bool:
        state = self.initial
        for sym in symbols:
            try:
                state = self.transition[(state, sym)]
            except KeyError:
                raise InvalidInput(f"symbol {sym!r} not in DFA alphabet") from None
        return state in self.finals

    @property
    def size(self) -> int:
        return len(self.states)


def validate(automaton: Droca) -> list[str]:
    """Check all structural invariants; returns a list of violations.

    An empty list means the automaton is valid.  Never raises.
    """
    violations = []
    states = automaton.states
    letters = automaton.alphabet
    if not states:
        violations.append("no states")
    if len(set(states)) != len(states):
        violations.append("duplicate state ids")
    if len(set(letters)) != len(letters):
        violations.append("duplicate letters")
    for a in letters:
        if not isinstance(a, str) or len(a) != 1:
            violations.append(f"letter {a!r} is not a single character")
        elif a == ",":
            violations.append("letter ',' clashes with the transition key format")
    for q in states:
        if not isinstance(q, str) or not q:
            violations.append(f"state id {q!r} is not a nonempty string")
        elif "," in q:
            violations.append(f"state id {q!r} contains ','")
    if automaton.initial not in set(states):
        violations.append(f"initial state {automaton.initial!r} not in states")
    for q in automaton.finals:
        if q not in set(states):
            violations.append(f"final state {q!r} not in states")
    state_set, letter_set = set(states), set(letters)
    for name, delta, actions in (("delta0", automaton.delta0, {0, 1}),
                                 ("delta1", automaton.delta1, {-1, 0, 1})):
        for (q, a), (t, e) in delta.items():
            if q not in state_set or a not in letter_set:
                violations.append(f"{name} entry for unknown pair ({q!r}, {a!r})")
            if t not in state_set:
                violations.append(f"{name}[{q},{a}] targets unknown state {t!r}")
            if e not in actions:
                if name == "delta0" and e == -1:
                    violations.append(f"decrement at zero: delta0[{q},{a}]")
                else:
                    violations.append(f"{name}[{q},{a}] has invalid action {e!r}")
        missing = [(q, a) for q in states for a in letters if (q, a) not in delta]
        if missing:
            q, a = missing[0]
            violations.append(
                f"incomplete transition table: {name} missing {len(missing)} "
                f"entries, first ({q!r}, {a!r})")
    return violations
