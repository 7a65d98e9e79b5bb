"""Random generation of complete one-counter automata.

Generation repeats three steps until every state is reachable: sample
final states (each with probability 0.5, rejecting the empty and the
full set), sample uniform targets with actions in {0,+1} for the
zero-counter table and {0,+1,-1} for the positive-counter table, and
count the states reachable on the configuration graph up to counter
n^2, a search that stops once it has seen every state of a sign bound
on them (see :func:`reachable_count`).  The restricted variant
additionally resamples until final states are entered only by
zero-mode transitions that keep the counter at zero, which makes
acceptance by final state coincide with acceptance by final state plus
empty counter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automata import Droca
from .errors import GenerationFailure, InvalidInput, check_type

_MASK = (1 << 64) - 1
_MAX_ATTEMPTS = 1_000_000
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# counter sign -> action -> the signs it may leave; a -1 at a positive
# counter is read at index -1, and may reach zero or stay positive
_SIGNS_AFTER = (((0,), (1,)), ((1,), (1,), (1, 0)))


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
        check_type("restricted", self.restricted, bool)
        if self.n_states < 2:
            raise InvalidInput("n_states must be at least 2")
        if not 1 <= self.alphabet_size <= len(_LETTERS):
            raise InvalidInput("alphabet_size must be between 1 and 26")


def generate_droca(config: GenConfig) -> Droca:
    """Random automaton with exactly ``n_states`` reachable states.

    Deterministic for a fixed config: the whole machine is resampled on
    every rejection, so each accepted machine follows the conditional
    distribution of the unrestricted sampler.  Draws are checked as rows
    of state indices, and only the accepted one is built as a machine.
    """
    rng = random.Random(config.seed & _MASK)
    n, k = config.n_states, config.alphabet_size
    for _ in range(_MAX_ATTEMPTS):
        finals = [rng.random() < 0.5 for _ in range(n)]
        if not any(finals) or all(finals):
            continue
        d0 = [tuple((rng.randrange(n), rng.randrange(2)) for _ in range(k)) for _ in range(n)]
        d1 = [tuple((rng.randrange(n), rng.randrange(3) - 1) for _ in range(k)) for _ in range(n)]
        if config.restricted and not _restricted_ok(finals, d0, d1):
            continue
        if _reachable(d0, d1, 0) == n:
            states = tuple(f"q{i}" for i in range(n))
            letters = _LETTERS[:k]
            delta0, delta1 = ({(states[q], a): (states[t], e)
                               for q, row in enumerate(rows) for a, (t, e) in zip(letters, row)}
                              for rows in (d0, d1))
            return Droca(states=states, alphabet=letters, initial=states[0], delta0=delta0,
                         delta1=delta1, finals=[q for q, f in zip(states, finals) if f])
    raise GenerationFailure(
        f"no machine with {n} reachable states after {_MAX_ATTEMPTS} attempts")


def _restricted_ok(finals, d0, d1) -> bool:
    """Are final states entered only by zero-counter steps of action 0?"""
    return (not any(finals[t] for row in d1 for t, _ in row)
            and not any(finals[t] and e for row in d0 for t, e in row))


def reachable_count(automaton: Droca) -> int:
    """Distinct states visited by BFS over configurations with counter
    at most ``|A|**2``, starting from the initial configuration."""
    d0, d1, _, init = automaton.indexed_tables()
    return _reachable(d0, d1, init)


def _reachable(d0, d1, init) -> int:
    """:func:`reachable_count` on dense rows ``d0[q][a] = (target, action)``.

    The search stops once it has seen every state of
    :func:`_sign_bound`, which no run can leave, so the count is exact
    and a machine with a state that no sign pair reaches is counted
    without exhausting its configuration graph.  A configuration is the
    int ``c·|A| + q``, and the set of those seen grows with the search.
    """
    n = len(d0)
    bound = _sign_bound(d0, d1, init)
    limit = (n * n + 1) * n             # the first code past counter |A|²
    seen = {init}
    states = {init}
    queue = [init]
    head = 0
    while len(states) < bound and head < len(queue):
        code = queue[head]
        head += 1
        q = code % n
        base = code - q
        for t, e in (d1[q] if base else d0[q]):
            child = base + t + e * n
            if child < limit and child not in seen:
                seen.add(child)
                states.add(t)
                queue.append(child)
    return len(states)


def _sign_bound(d0, d1, init) -> int:
    """How many states the (state, counter sign) pairs reachable from
    ``(init, zero)`` hold, when a -1 step at a positive counter may land
    on either sign: the configuration graph abstracted to signs (Cousot
    & Cousot, POPL 1977), so every state any run reaches is among them."""
    n = len(d0)
    seen = bytearray(2 * n)             # (q, sign) at 2q + sign
    seen[2 * init] = 1
    count = 1
    stack = [2 * init]
    while stack and count < n:
        x = stack.pop()
        signs = _SIGNS_AFTER[x & 1]
        for t, e in (d1 if x & 1 else d0)[x >> 1]:
            for sign in signs[e]:
                y = 2 * t + sign
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
                    count += not seen[y ^ 1]
    return count
