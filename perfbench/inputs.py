"""Seeded inputs of the three workloads.

The learning corpora are fixed target lists, so that the learnt size of
every target can be pinned in ``reference_sizes.json`` and every run does
the same learning work.  The run seed renames the states of every target
(a random isomorphic copy, initial state included), which a correct
learner cannot notice.  The sessions keep corpus order: a session's time
depends on the sessions before it (the heap and the collector's state they
leave), and a seeded order moved the median session time by 12% between
seeds with the same work.

The equivalence pairs are a fixed corpus too, drawn from
``random.Random(EQUIV_CORPUS_SEED)``; the run seed only renames the states
of both machines of a pair and reorders the pairs.  Each pair is a random
machine and either a state-split copy of it (equivalent by construction)
or a mutated copy (a flipped final state, a retargeted transition or a
changed counter action) that the benchmark's own search refutes within 16
letters, so mutated pairs exercise the early exit and split pairs the
full bounded exploration.  Every size has the same number of pairs of
each kind and mutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import ocalearn
from ocalearn import Droca, GenConfig, derive_seed

from checker import first_witness

LEARN_RANDOM = "learn-random"
LEARN_FRONTIER = "learn-frontier"
EQUIV_PAIRS = "equiv-pairs"
WORKLOADS = (LEARN_RANDOM, LEARN_FRONTIER, EQUIV_PAIRS)

RANDOM_SESSIONS = 100   # the criterion-6 corpus
FRONTIER_SESSIONS = 4
FRONTIER_STATES = 7

# equiv-pairs strata: (checker, state counts, pairs per size and variant)
SYNC_SIZES = (5, 6, 7, 8)
VOCA_SIZES = (6, 8, 10)
VARIANTS = ("split", "split", "final", "retarget", "action")
SYNC_PER_CELL = 4
VOCA_PER_CELL = 16
EQUIV_CORPUS_SEED = 8080
MUTANT_WITNESS_LEN = 16   # a mutated copy is kept once the own search refutes it


@dataclass(frozen=True)
class Target:
    """One learning session: the hidden machine and its corpus seed."""

    seed: int
    machine: Droca


@dataclass(frozen=True)
class Pair:
    """One equivalence check: split pairs are equivalent, mutated pairs
    are not."""

    checker: str      # "sync" or "voca"
    variant: str      # "split" or the mutation applied
    a: Droca
    b: Droca

    @property
    def split(self) -> bool:
        return self.variant == "split"


def corpus_seeds(workload: str) -> list[int]:
    """Generator seeds of a learning corpus, in corpus order."""
    if workload == LEARN_RANDOM:
        return [derive_seed(424242, i) for i in range(RANDOM_SESSIONS)]
    if workload == LEARN_FRONTIER:
        return [derive_seed(555, FRONTIER_STATES, i) for i in range(FRONTIER_SESSIONS)]
    raise ValueError(f"{workload!r} is not a learning workload")


def corpus_target(workload: str, seed: int) -> Droca:
    n = 2 + seed % 5 if workload == LEARN_RANDOM else FRONTIER_STATES
    return ocalearn.generate.generate_droca(GenConfig(n_states=n, alphabet_size=2, seed=seed))


def learn_targets(workload: str, run_seed: int) -> list[Target]:
    """The corpus in corpus order, each target under seeded state names."""
    rng = random.Random(derive_seed(run_seed, 1))
    return [Target(s, relabel(corpus_target(workload, s), rng)) for s in corpus_seeds(workload)]


def relabel(m: Droca, rng: random.Random) -> Droca:
    """Isomorphic copy with fresh state names in a shuffled order."""
    order = list(m.states)
    rng.shuffle(order)
    name = {q: f"p{i}" for i, q in enumerate(order)}
    return Droca(states=[name[q] for q in order], alphabet=m.alphabet,
                 initial=name[m.initial],
                 delta0={(name[q], a): (name[t], e) for (q, a), (t, e) in m.delta0.items()},
                 delta1={(name[q], a): (name[t], e) for (q, a), (t, e) in m.delta1.items()},
                 finals=[name[q] for q in m.finals])


def equiv_pairs(run_seed: int) -> list[Pair]:
    """The pair corpus in a seeded order, each machine under seeded state
    names."""
    corpus = random.Random(EQUIV_CORPUS_SEED)
    rng = random.Random(derive_seed(run_seed, 2))
    pairs = []
    for checker, sizes, per_cell in (("sync", SYNC_SIZES, SYNC_PER_CELL),
                                     ("voca", VOCA_SIZES, VOCA_PER_CELL)):
        for n in sizes:
            for variant in VARIANTS:
                for _ in range(per_cell):
                    if checker == "sync":
                        a = ocalearn.generate.generate_droca(GenConfig(
                            n_states=n, alphabet_size=2, seed=corpus.getrandbits(64)))
                    else:
                        a = random_voca(n, corpus)
                    while True:
                        b = copy_variant(a, variant, corpus)
                        if variant == "split" or first_witness(a, b, MUTANT_WITNESS_LEN):
                            break
                    pairs.append(Pair(checker, variant, relabel(a, rng), relabel(b, rng)))
    rng.shuffle(pairs)
    return pairs


def random_voca(n: int, rng: random.Random) -> Droca:
    """Visibly one-counter machine over {a, b} with every state reachable.

    The action map sends some letter up and some letter down at a
    positive counter, so the counter really moves; reachability is
    checked on the configuration graph the same way ``generate_droca``
    checks it.
    """
    letters = ("a", "b")
    states = tuple(f"q{i}" for i in range(n))
    while True:
        up, down = rng.sample(letters, 2)
        action = {(up, 0): 1, (down, 0): rng.randrange(2),
                  (up, 1): 1, (down, 1): -1}
        finals = [q for q in states if rng.random() < 0.5]
        if not 0 < len(finals) < n:
            continue
        delta0 = {(q, x): (rng.choice(states), action[(x, 0)]) for q in states for x in letters}
        delta1 = {(q, x): (rng.choice(states), action[(x, 1)]) for q in states for x in letters}
        m = Droca(states, letters, states[0], delta0, delta1, finals)
        if ocalearn.reachable_count(m) == n:
            return m


def copy_variant(m: Droca, variant: str, rng: random.Random) -> Droca:
    """A state-split copy of ``m``, then the named mutation (if any).

    Splitting duplicates one state, rows and finality included, and sends
    a random half of its incoming transitions to the duplicate, so the
    copy is bisimilar to ``m``.  A mutation then changes one entry of the
    copy.  An action mutation keeps a visibly one-counter machine visibly
    one-counter by changing the action of a (letter, sign) pair in every
    state.
    """
    states = list(m.states)
    old = rng.choice(states)
    new = f"{old}s"
    delta0, delta1 = dict(m.delta0), dict(m.delta1)
    for delta in (delta0, delta1):
        for (q, a), (t, e) in list(delta.items()):
            if t == old and rng.random() < 0.5:
                delta[(q, a)] = (new, e)
        for a in m.alphabet:
            delta[(new, a)] = delta[(old, a)]
    finals = set(m.finals) | ({new} if old in m.finals else set())
    states.append(new)

    if variant == "final":
        q = rng.choice(states)
        finals ^= {q}
    elif variant == "retarget":
        delta = rng.choice((delta0, delta1))
        key = rng.choice(sorted(delta))
        target, action = delta[key]
        delta[key] = (rng.choice([q for q in states if q != target]), action)
    elif variant == "action":
        sign = rng.randrange(2)
        delta = (delta0, delta1)[sign]
        letter = rng.choice(m.alphabet)
        keys = [(q, letter) for q in states] if m.is_voca() else [rng.choice(sorted(delta))]
        choices = (0, 1) if sign == 0 else (-1, 0, 1)
        current = delta[keys[0]][1]
        action = rng.choice([e for e in choices if e != current])
        for key in keys:
            delta[key] = (delta[key][0], action)
    elif variant != "split":
        raise ValueError(f"unknown variant {variant!r}")
    return Droca(states, m.alphabet, m.initial, delta0, delta1, finals)
