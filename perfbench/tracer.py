"""Per-layer times and counters, recorded from outside the program.

``Tracer`` replaces the public functions of each layer, at the module or
class attribute their callers look up at call time, with wrappers that
time every call and read counts off its arguments and result.  Nothing
under ``src/`` changes; leaving the ``with`` block restores the originals.

Times are summed per wrapped function, both inclusive and as self time:
a call's duration minus the time of the wrapped calls nested in it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from ocalearn import equivalence, generate, learning, minsepdfa, table

SAT_RUNGS = range(1, 8)   # learnt machines have at most 7 states here

PER_LAYER = (
    ["learning.learn_ms", "learning.other_ms", "learning.construct_ms",
     "learning.replay_ms", "learning.hypotheses", "learning.prefix_conflicts",
     "learning.mq_ms", "learning.cv_ms", "learning.seq_ms",
     "learning.n_seq", "learning.n_mq", "learning.n_cv", "learning.n_sat",
     "learning.max_ce_len_sum",
     "table.repair_ms", "table.repair_calls", "table.prefixes",
     "table.suffixes", "table.cache_words",
     "minsepdfa.samples_ms", "minsepdfa.samples", "minsepdfa.ops",
     "minsepdfa.apta_ms", "minsepdfa.apta_nodes", "minsepdfa.encode_ms",
     "minsepdfa.cnf_vars", "minsepdfa.cnf_clauses", "minsepdfa.find_ms",
     "sat.solve_ms", "sat.sat_calls", "sat.sat_ms", "sat.unsat_calls",
     "sat.unsat_ms", "sat.useful_ratio"]
    + [f"sat.{kind}.n{k}" for kind in ("calls", "sat_ms", "unsat_ms") for k in SAT_RUNGS]
    + ["equivalence.sync_ms", "equivalence.sync_calls", "equivalence.voca_ms",
       "equivalence.voca_calls", "equivalence.equiv_ms", "equivalence.ce_ms",
       "equivalence.ce_len",
       "generate.ms", "generate.calls",
       "trace.overhead_ms", "trace.overhead_pct"])

# (owner, attribute, timer name): the attribute is looked up by its callers
# at call time, so replacing it there intercepts every call.
_PATCHES = (
    (learning, "construct_droca", "learning.construct"),
    (learning, "build_samples", "minsepdfa.samples"),
    (learning, "find_min_sep_dfa", "minsepdfa.find"),
    (learning, "sat_solve", "sat.solve"),
    (learning, "check_sync_equiv", "equivalence.sync"),
    (learning, "voca_check_equiv", "equivalence.voca"),
    (learning.SimulatedTeacher, "mq", "learning.mq"),
    (learning.SimulatedTeacher, "cv", "learning.cv"),
    (learning.SimulatedTeacher, "seq", "learning.seq"),
    (minsepdfa, "build_apta", "minsepdfa.apta"),
    (minsepdfa, "encode_size_n", "minsepdfa.encode"),
    (table.ObservationTable, "repair", "table.repair"),
    (equivalence, "check_sync_equiv", "equivalence.sync"),
    (equivalence, "voca_check_equiv", "equivalence.voca"),
    (generate, "generate_droca", "generate"),
)
_EQUIV = {"equivalence.sync", "equivalence.voca"}


def unit(name: str) -> str:
    if "_ms" in name or name == "generate.ms":
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def plain_call(name, fn, *args):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.ms = defaultdict(float)        # inclusive time per timer name
        self.self_ms = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open: list[list] = []         # [name, child seconds]
        self._saved = []
        self._rung = 0
        self._table = None

    def __enter__(self):
        for owner, attr, name in _PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn``, timed and counted under ``name``."""
        outermost_equiv = name in _EQUIV and not any(f[0] in _EQUIV for f in self._open)
        frame = [name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except learning.PrefixConflict:
            self.counts["learning.prefix_conflicts"] += 1
            raise
        finally:
            seconds = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += seconds
            self.ms[name] += seconds * 1000
            self.self_ms[name] += (seconds - frame[1]) * 1000
            self.calls[name] += 1
        self._count(name, args, result, seconds, outermost_equiv)
        return result

    def _count(self, name, args, result, seconds, outermost_equiv):
        c = self.counts
        if name == "learning.construct":
            c["learning.hypotheses"] += 1
        elif name == "minsepdfa.samples":
            c["minsepdfa.samples"] += len(result.pos) + len(result.neg)
            c["minsepdfa.ops"] += len(result.ops)
        elif name == "minsepdfa.apta":
            c["minsepdfa.apta_nodes"] += result.num_nodes
        elif name == "minsepdfa.encode":
            self._rung = args[1]
            c["minsepdfa.cnf_vars"] += result.num_vars
            c["minsepdfa.cnf_clauses"] += len(result.clauses)
        elif name == "sat.solve":
            verdict = "unsat" if result is None else "sat"
            c[f"sat.{verdict}_calls"] += 1
            self.ms[f"sat.{verdict}"] += seconds * 1000
            c[f"sat.calls.n{self._rung}"] += 1
            self.ms[f"sat.{verdict}.n{self._rung}"] += seconds * 1000
        elif name == "table.repair":
            self._table = args[0]
        elif name == "learning.learn":
            c["table.prefixes"] += len(self._table.prefixes)
            c["table.suffixes"] += len(self._table.suffixes)
            c["table.cache_words"] += len(self._table.cv)
        if outermost_equiv:
            if result.equivalent:
                self.ms["equivalence.equiv"] += seconds * 1000
            else:
                self.ms["equivalence.ce"] += seconds * 1000
                c["equivalence.ce_len"] += len(result.counterexample.word)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values per measured round; ``generate.*`` cover the
        one input generation of the run.  ``trace.*`` are left to the
        caller, which knows the untraced wall time."""
        ms, c = self.ms, self.counts
        per_round = {
            "learning.learn_ms": ms["learning.learn"],
            "learning.other_ms": self.self_ms["learning.learn"],
            "learning.construct_ms": ms["learning.construct"],
            "learning.replay_ms": self.self_ms["learning.construct"],
            "learning.mq_ms": ms["learning.mq"],
            "learning.cv_ms": ms["learning.cv"],
            "learning.seq_ms": ms["learning.seq"],
            "table.repair_ms": ms["table.repair"],
            "table.repair_calls": self.calls["table.repair"],
            "minsepdfa.samples_ms": ms["minsepdfa.samples"],
            "minsepdfa.apta_ms": ms["minsepdfa.apta"],
            "minsepdfa.encode_ms": ms["minsepdfa.encode"],
            "minsepdfa.find_ms": ms["minsepdfa.find"],
            "sat.solve_ms": ms["sat.solve"],
            "sat.sat_ms": ms["sat.sat"],
            "sat.unsat_ms": ms["sat.unsat"],
            "equivalence.sync_ms": ms["equivalence.sync"],
            "equivalence.sync_calls": self.calls["equivalence.sync"],
            "equivalence.voca_ms": self.self_ms["equivalence.voca"],
            "equivalence.voca_calls": self.calls["equivalence.voca"],
            "equivalence.equiv_ms": ms["equivalence.equiv"],
            "equivalence.ce_ms": ms["equivalence.ce"],
        }
        for k in SAT_RUNGS:
            for verdict in ("sat", "unsat"):
                per_round[f"sat.{verdict}_ms.n{k}"] = ms[f"sat.{verdict}.n{k}"]
        for name in PER_LAYER:
            if name in c:
                per_round[name] = c[name]
        out = {name: value / rounds for name, value in per_round.items()}
        for name in PER_LAYER:
            out.setdefault(name, 0)
        solves = self.calls["sat.solve"]
        out["sat.useful_ratio"] = c["sat.sat_calls"] / solves if solves else 0.0
        out["generate.ms"] = ms["generate"]
        out["generate.calls"] = self.calls["generate"]
        return out
