"""Random generation of complete one-counter automata.

Generation repeats three steps until every state is reachable: sample
final states (each with probability 0.5, rejecting the empty and the
full set), sample uniform targets with actions in {0,+1} for the
zero-counter table and {0,+1,-1} for the positive-counter table, and
count the states reachable on the configuration graph up to counter
n^2.  The restricted variant additionally resamples until final states
are entered only by zero-mode transitions that keep the counter at
zero, which makes acceptance by final state coincide with acceptance by
final state plus empty counter.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .automata import Droca
from .errors import GenerationFailure, InvalidInput, check_type

_MASK = (1 << 64) - 1
_MAX_ATTEMPTS = 1_000_000
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def splitmix64(x: int) -> int:
    """One step of the SplitMix64 sequence; the portable seed deriver."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Split a master seed by a sequence of indices, deterministically."""
    check_type("master", master, int)
    seed = splitmix64(master & _MASK)
    for index in indices:
        check_type("index", index, int)
        seed = splitmix64(seed ^ splitmix64(index & _MASK))
    return seed


@dataclass(frozen=True)
class GenConfig:
    n_states: int
    alphabet_size: int
    seed: int
    restricted: bool = False

    def __post_init__(self):
        for name in ("n_states", "alphabet_size", "seed"):
            check_type(name, getattr(self, name), int)
        if self.n_states < 2:
            raise InvalidInput("n_states must be at least 2")
        if not 1 <= self.alphabet_size <= len(_LETTERS):
            raise InvalidInput("alphabet_size must be between 1 and 26")


def generate_droca(config: GenConfig) -> Droca:
    """Random automaton with exactly ``n_states`` reachable states.

    Deterministic for a fixed config: the whole machine is resampled on
    every rejection, so each accepted machine follows the conditional
    distribution of the unrestricted sampler.
    """
    rng = random.Random(config.seed & _MASK)
    states = tuple(f"q{i}" for i in range(config.n_states))
    letters = tuple(_LETTERS[:config.alphabet_size])
    n = config.n_states
    for _ in range(_MAX_ATTEMPTS):
        finals = frozenset(q for q in states if rng.random() < 0.5)
        if not finals or len(finals) == n:
            continue
        delta0 = {}
        delta1 = {}
        for q in states:
            for a in letters:
                delta0[(q, a)] = (states[rng.randrange(n)], rng.randrange(2))
        for q in states:
            for a in letters:
                delta1[(q, a)] = (states[rng.randrange(n)], rng.randrange(3) - 1)
        if config.restricted and not _restricted_ok(finals, delta0, delta1):
            continue
        machine = Droca(states=states, alphabet=letters, initial=states[0],
                        delta0=delta0, delta1=delta1, finals=finals)
        if reachable_count(machine) == n:
            return machine
    raise GenerationFailure(
        f"no machine with {n} reachable states after {_MAX_ATTEMPTS} attempts")


def _restricted_ok(finals, delta0, delta1) -> bool:
    for target, _ in delta1.values():
        if target in finals:
            return False
    for target, action in delta0.values():
        if target in finals and action != 0:
            return False
    return True


def reachable_count(automaton: Droca) -> int:
    """Distinct states visited by BFS over configurations with counter
    at most ``|A|**2``, starting from the initial configuration; the
    search stops once every state has been seen."""
    d0, d1, _, init = automaton.indexed_tables()
    cap = automaton.size ** 2
    seen = {(init, 0)}
    states = {init}
    queue = deque(seen)
    while queue and len(states) < automaton.size:
        q, n = queue.popleft()
        for t, e in (d0[q] if n == 0 else d1[q]):
            child = (t, n + e)
            if child[1] <= cap and child not in seen:
                seen.add(child)
                states.add(t)
                queue.append(child)
    return len(states)
