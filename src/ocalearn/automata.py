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

_UNKNOWN = object()     # an action map not yet worked out from the tables
_ACTIONS = (frozenset({0, 1}), frozenset({-1, 0, 1}))   # the actions at counter zero, positive


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

    __slots__ = ("states", "alphabet", "initial", "delta0", "delta1", "finals",
                 "_indexed", "_actions")

    def __init__(self, states, alphabet, initial, delta0, delta1, finals):
        self.states: tuple[str, ...] = tuple(states)
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.initial: str = initial
        self.delta0: dict[tuple[str, str], tuple[str, int]] = dict(delta0)
        self.delta1: dict[tuple[str, str], tuple[str, int]] = dict(delta1)
        self.finals: frozenset[str] = frozenset(finals)
        self._indexed = None
        self._actions = _UNKNOWN

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
        tuple, and equal pairs are one object.  The first call runs
        :func:`validate` and raises :class:`InvalidInput` with its first
        violation; the tables are then built and kept until
        :meth:`drop_tables`, and a later call returns them unchecked.
        """
        if self._indexed is None:
            violations = validate(self)
            if violations:
                raise InvalidInput(violations[0])
            idx = {q: i for i, q in enumerate(self.states)}
            deltas = (self.delta0, self.delta1)
            pairs = {entry: (idx[entry[0]], entry[1])     # one object per distinct pair
                     for delta in deltas for entry in delta.values()}
            d0, d1 = ([tuple([pairs[delta[q, a]] for a in self.alphabet]) for q in self.states]
                      for delta in deltas)
            final_mask = [q in self.finals for q in self.states]
            self._indexed = (d0, d1, final_mask, idx[self.initial])
        return self._indexed

    def drop_tables(self) -> None:
        """Free the dense tables of :meth:`indexed_tables` and the action
        map worked out from them, for a machine that is not searched
        again; a later call builds both anew."""
        self._indexed = None
        self._actions = _UNKNOWN

    def step(self, config: Configuration, letter: str) -> Configuration:
        """One transition from ``config`` on ``letter``.  The first step
        builds the tables, and so refuses a malformed machine; a failed
        lookup names the unknown state or letter."""
        if self._indexed is None:
            self.indexed_tables()
        delta = self.delta0 if config.counter == 0 else self.delta1
        try:
            target, action = delta[(config.state, letter)]
        except KeyError:
            unknown = (f"unknown state {config.state!r}" if config.state not in self.states
                       else f"letter {letter!r} not in alphabet")
            raise InvalidInput(unknown) from None
        return Configuration(target, config.counter + action)

    def run(self, word: str) -> RunTrace:
        """Run ``word`` from the initial configuration."""
        self.indexed_tables()
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
        self.indexed_tables()
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
        return self._action_map() is not None

    def voca_action_map(self) -> dict[tuple[str, int], int]:
        """The (letter, sign) -> action map of a visibly one-counter automaton."""
        actions = self._action_map()
        if actions is None:
            raise InvalidInput("automaton is not visibly one-counter")
        return dict(actions)

    def _action_map(self):
        """The (letter, sign) -> action map, or None when some action
        depends on the state.  It is worked out from the dense tables on
        the first call and kept with them until :meth:`drop_tables`."""
        actions = self._actions
        if actions is _UNKNOWN:
            actions = self._actions = _column_actions(self.alphabet, self.indexed_tables())
        return actions


def _column_actions(alphabet, tables):
    """The (letter, sign) -> action map read off the letter columns of
    dense tables, or None when some column holds two actions."""
    d0, d1, _, _ = tables
    actions = {}
    for ai, a in enumerate(alphabet):
        for sign, table in enumerate((d0, d1)):
            column = {row[ai][1] for row in table}
            if len(column) != 1:
                return None
            actions[a, sign] = column.pop()
    return actions


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


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    """The structural rules of a machine, in one pass; returns a list of
    violations, each naming what it is about.

    An empty list means the automaton is valid.  This is the one check:
    :meth:`Droca.indexed_tables` runs it on its first build, so every
    search, run and query refuses a malformed machine, and
    :func:`~ocalearn.io.load` reports its list as a ``ParseError``.  Keys
    are (state, letter) tuples, values (target, action) tuples with an
    ``int`` action, which a ``bool`` is not.  The rules compare ids
    through sets, so a machine with an unhashable state id, letter,
    target or action gets only the violations naming those.
    """
    states, letters = automaton.states, automaton.alphabet
    try:
        state_set, letter_set = set(states), set(letters)
        initial_known = automaton.initial in state_set
    except TypeError:
        return _unhashable_violations(automaton)
    violations = []
    if not states:
        violations.append("no states")
    if len(state_set) != len(states):
        repeated = next(q for i, q in enumerate(states) if states.index(q) < i)
        violations.append(f"repeated state id {repeated!r}")
    if len(letter_set) != len(letters):
        repeated = next(a for i, a in enumerate(letters) if letters.index(a) < i)
        violations.append(f"repeated letter {repeated!r}")
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
    if not initial_known:
        violations.append(f"initial state is the unknown state {automaton.initial!r}")
    if not automaton.finals <= state_set:
        for q in sorted(automaton.finals - state_set, key=repr):
            violations.append(f"final state {q!r} is not a state")
    for sign, name, delta, actions in ((0, "delta0", automaton.delta0, _ACTIONS[0]),
                                       (1, "delta1", automaton.delta1, _ACTIONS[1])):
        for key, value in delta.items():
            try:
                (q, a), (t, e) = key, value
                malformed = type(key) is not tuple or type(value) is not tuple
            except (TypeError, ValueError):     # a key or value that does not unpack into two
                malformed = True
            if malformed:   # a key that is a pair unpacked before its value
                violations.append(f"{name} key {key!r} is not a (state, letter) tuple"
                                  if type(key) is not tuple or len(key) != 2 else
                                  f"{name}[{q},{a}] is {value!r}, not a (target, action) tuple")
                continue
            if q not in state_set:
                violations.append(f"{name}[{q},{a}] is from the unknown state {q!r}")
            elif a not in letter_set:
                violations.append(f"{name}[{q},{a}] is on the unknown letter {a!r}")
            try:
                if t not in state_set:
                    violations.append(f"{name}[{q},{a}] targets unknown state {t!r}")
                if e not in actions or type(e) is not int:      # True == 1, but is no action
                    if sign == 0 and e == -1:
                        violations.append(f"decrement at zero: {name}[{q},{a}]")
                    else:
                        violations.append(f"{name}[{q},{a}] has invalid action {e!r}")
            except TypeError:   # an unhashable target or action
                return _unhashable_violations(automaton)
        if violations or len(delta) != len(state_set) * len(letter_set):
            missing = dict.fromkeys((q, a) for q in states for a in letters if (q, a) not in delta)
            if missing:
                q, a = next(iter(missing))
                violations.append(f"incomplete transition table, {len(missing)} missing in "
                                  f"{name}: no transition from state {q!r} on {a!r} at counter "
                                  f"{'positive' if sign else 'zero'}")
    return violations


def _unhashable_violations(automaton: Droca) -> list[str]:
    """A violation for each unhashable state id, letter, initial state,
    target and action of ``automaton``."""
    def unhashable(x) -> bool:
        try:
            hash(x)
        except TypeError:
            return True
        return False

    violations = [f"state id {q!r} is unhashable" for q in automaton.states if unhashable(q)]
    violations += [f"letter {a!r} is unhashable" for a in automaton.alphabet if unhashable(a)]
    if unhashable(automaton.initial):
        violations.append(f"initial state {automaton.initial!r} is unhashable")
    for name, delta in (("delta0", automaton.delta0), ("delta1", automaton.delta1)):
        for key, value in delta.items():
            try:
                (q, a), (t, e) = key, value
            except (TypeError, ValueError):
                continue    # not pairs: validate names it once nothing is unhashable
            if unhashable(t):
                violations.append(f"{name}[{q},{a}] targets the unhashable {t!r}")
            if unhashable(e):
                violations.append(f"{name}[{q},{a}] has the unhashable action {e!r}")
    return violations
