"""Walkthrough: learning a machine from queries.

The learner sees the target only through three query types: membership,
counter-value, and synchronous-equivalence (which returns a minimal
counterexample).  It grows an observation table, asks a SAT solver for
the smallest DFA consistent with the table's encoded samples, reattaches
counter actions, and repeats until the teacher is satisfied.  The result
is a smallest machine that tracks the target's counter exactly.
"""

from ocalearn import (Droca, LearnConfig, SimulatedTeacher, check_sync_equiv,
                      learn, store)

target = Droca(
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

teacher = SimulatedTeacher(target)
hypothesis, stats = learn(teacher, LearnConfig())

print("target language: { a^n b^n a : n > 0 }")
print(f"learnt a {hypothesis.size}-state machine in {stats.wall_ms} ms")
print(f"queries: {stats.n_mq} membership, {stats.n_cv} counter-value, "
      f"{stats.n_seq} equivalence, {stats.n_sat} SAT calls")
print()
print("counterexamples the teacher produced along the way:")
for ce in stats.counterexamples:
    print(f"  {ce.word!r} ({ce.kind}, height {target.run(ce.word).height})")
print()
print("the teacher's final verdict:",
      check_sync_equiv(hypothesis, target))
print()
print("learnt machine:")
print(store(hypothesis))
