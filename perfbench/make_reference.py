"""Write ``reference_sizes.json``: the learnt size of every corpus target.

    python3 perfbench/make_reference.py

Learns each target of the two learning corpora once, in corpus order and
under its generated state names, and records the number of states
learnt.  The benchmark fails a run whose learnt sizes differ.  Minimality
has no independent check, so the file is a copy of the program's output:
make it anew only when a change is meant to alter learnt sizes, and say
so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.locate_program()
    import inputs
    from ocalearn import LearnConfig, SimulatedTeacher, learn
    reference = {}
    for workload in ("learn-random", "learn-frontier"):
        sizes = {}
        for seed in inputs.corpus_seeds(workload):
            hypothesis, _ = learn(SimulatedTeacher(inputs.corpus_target(workload, seed)),
                                  LearnConfig())
            sizes[str(seed)] = hypothesis.size
        reference[workload] = sizes
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
