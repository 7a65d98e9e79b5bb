import random

import pytest

from ocalearn import Droca, GenConfig, derive_seed, generate_droca


def make_anbna() -> Droca:
    """Four-state machine for { a^n b^n a : n > 0 }.

    Counts a's up, b's down (entering a checking state on the first b at
    positive counter), accepts after one final a at counter zero; q3 is
    the reject sink.
    """
    return Droca(
        states=["q0", "q1", "q2", "q3"],
        alphabet=["a", "b"],
        initial="q0",
        delta0={("q0", "a"): ("q0", 1), ("q0", "b"): ("q3", 1),
                ("q1", "a"): ("q2", 0), ("q1", "b"): ("q3", 1),
                ("q2", "a"): ("q3", 1), ("q2", "b"): ("q3", 1),
                ("q3", "a"): ("q3", 1), ("q3", "b"): ("q3", 1)},
        delta1={("q0", "a"): ("q0", 1), ("q0", "b"): ("q1", -1),
                ("q1", "a"): ("q3", 1), ("q1", "b"): ("q1", -1),
                ("q2", "a"): ("q3", 1), ("q2", "b"): ("q3", 1),
                ("q3", "a"): ("q3", 1), ("q3", "b"): ("q3", 1)},
        finals=["q2"])


def make_five_state_a_plus() -> Droca:
    """Five-state machine for the language a·a*; its zero-counter core is
    redundant enough that the minimal counter-synchronous equivalent has
    four states.  The positive-counter rows of q0 and q1 are unreachable
    from the initial configuration; any completion works.
    """
    return Droca(
        states=["q0", "q1", "q2", "q3", "q4"],
        alphabet=["a", "b"],
        initial="q0",
        delta0={("q0", "a"): ("q1", 0), ("q0", "b"): ("q4", 0),
                ("q1", "a"): ("q1", 0), ("q1", "b"): ("q2", 1),
                ("q2", "a"): ("q3", 1), ("q2", "b"): ("q3", 0),
                ("q3", "a"): ("q4", 1), ("q3", "b"): ("q4", 1),
                ("q4", "a"): ("q4", 1), ("q4", "b"): ("q4", 1)},
        delta1={("q0", "a"): ("q0", 1), ("q0", "b"): ("q0", 1),
                ("q1", "a"): ("q1", 1), ("q1", "b"): ("q1", 1),
                ("q2", "a"): ("q2", -1), ("q2", "b"): ("q2", -1),
                ("q3", "a"): ("q4", -1), ("q3", "b"): ("q4", -1),
                ("q4", "a"): ("q4", 1), ("q4", "b"): ("q4", 1)},
        finals=["q1"])


def random_machine(seed: int, max_states: int = 5, alphabet_size: int = 2,
                   restricted: bool = False) -> Droca:
    n = 2 + seed % (max_states - 1)
    return generate_droca(GenConfig(n_states=n, alphabet_size=alphabet_size,
                                    seed=derive_seed(seed, 77), restricted=restricted))


def ring_machine(n: int) -> Droca:
    """An n-state machine whose equivalence decision has dense returns:
    ``a`` counts up to the next state, ``b`` jumps to state 7i+3 and
    counts down at a positive counter."""
    states = [f"q{i}" for i in range(n)]
    delta0, delta1 = {}, {}
    for i, q in enumerate(states):
        delta0[(q, "a")] = delta1[(q, "a")] = (states[(i + 1) % n], 1)
        delta0[(q, "b")] = (states[(7 * i + 3) % n], 0)
        delta1[(q, "b")] = (states[(7 * i + 3) % n], -1)
    return Droca(states, "ab", states[0], delta0, delta1,
                 [q for i, q in enumerate(states) if i % 3 == 0])


def random_voca(seed: int, max_states: int = 5, alphabet_size: int = 2,
                action_map=None) -> Droca:
    """Random visibly one-counter automaton, optionally with a fixed
    (letter, sign) -> action map shared across a pair."""
    rng = random.Random(seed)
    letters = "abcdef"[:alphabet_size]
    if action_map is None:
        action_map = {}
        for a in letters:
            action_map[(a, 0)] = rng.randrange(2)
            action_map[(a, 1)] = rng.randrange(3) - 1
    n = rng.randrange(2, max_states + 1)
    states = [f"q{i}" for i in range(n)]
    while True:
        finals = [q for q in states if rng.random() < 0.5]
        if 0 < len(finals) < n:
            break
    delta0 = {}
    delta1 = {}
    for q in states:
        for a in letters:
            delta0[(q, a)] = (states[rng.randrange(n)], action_map[(a, 0)])
            delta1[(q, a)] = (states[rng.randrange(n)], action_map[(a, 1)])
    return Droca(states=states, alphabet=letters, initial=states[0],
                 delta0=delta0, delta1=delta1, finals=finals)


def split_copy(m: Droca, rng: random.Random) -> Droca:
    """Copy of ``m`` with one state duplicated: the duplicate keeps the
    state's rows and finality and takes a random half of the state's
    incoming transitions, so the copy is one state larger and
    equivalent to ``m`` by construction.  The duplicate's name is the
    state's with as many ``s`` appended as make it new."""
    old = rng.choice(m.states)
    new = f"{old}s"
    while new in m.states:
        new += "s"
    delta0, delta1 = dict(m.delta0), dict(m.delta1)
    for delta in (delta0, delta1):
        for key, (target, action) in list(delta.items()):
            if target == old and rng.random() < 0.5:
                delta[key] = (new, action)
        for a in m.alphabet:
            delta[(new, a)] = delta[(old, a)]
    finals = set(m.finals) | ({new} if old in m.finals else set())
    return Droca(states=list(m.states) + [new], alphabet=m.alphabet,
                 initial=m.initial, delta0=delta0, delta1=delta1,
                 finals=finals)


@pytest.fixture
def anbna() -> Droca:
    return make_anbna()


@pytest.fixture
def five_state_a_plus() -> Droca:
    return make_five_state_a_plus()
