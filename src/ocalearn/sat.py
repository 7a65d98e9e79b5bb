"""CNF instances and the pluggable SAT backends.

Two interchangeable backends decide satisfiability: a builtin
conflict-driven clause-learning solver, and any external solver
speaking the DIMACS format on a file argument and reporting
``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` value lines on
stdout.  Both are deterministic for a fixed input.
"""

from __future__ import annotations

import heapq
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass

from .errors import InvalidInput, SolverError, SolverTimeout


class CnfInstance:
    """A CNF formula over the variables ``1..num_vars``.

    Variables carry no stored meaning: an encoder that builds an instance
    numbers its variables by a fixed formula and reads a model back with
    the same formula.  Clauses may only mention declared variables.
    """

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *literals: int) -> None:
        self.clauses.append(tuple(literals))

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolverConfig:
    """Backend selection: ``"builtin"`` or ``"external:<executable>"``."""

    backend: str = "builtin"

    def external_path(self) -> str | None:
        if self.backend == "builtin":
            return None
        if self.backend.startswith("external:"):
            path = self.backend[len("external:"):]
            if not path:
                raise InvalidInput("external backend needs an executable path")
            return path
        raise InvalidInput(f"unknown SAT backend {self.backend!r}")


def sat_solve(cnf: CnfInstance, config: SolverConfig | None = None,
              deadline: float | None = None) -> dict[int, bool] | None:
    """A satisfying assignment (total over declared variables) or None.

    ``deadline`` is a :func:`time.monotonic` instant; past it the call
    raises :class:`SolverTimeout`, at entry as well as while solving.
    """
    path = (config or SolverConfig()).external_path()
    if path is None:
        return solve_builtin(cnf.num_vars, cnf.clauses, deadline)
    return _solve_external(cnf, path, deadline)


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout("SAT solver ran past its deadline")


def _solve_external(cnf, exe, deadline):
    _check_deadline(deadline)
    with tempfile.TemporaryDirectory(prefix="ocalearn_sat_") as tmp:
        path = os.path.join(tmp, "instance.cnf")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(cnf.to_dimacs())
        try:
            timeout = None if deadline is None else deadline - time.monotonic()
            proc = subprocess.run([exe, path], capture_output=True, text=True,
                                  timeout=timeout)
        except FileNotFoundError:
            raise SolverError(f"external solver not found: {exe}") from None
        except subprocess.TimeoutExpired:
            raise SolverTimeout("external solver ran past its deadline") from None
    status = None
    values: dict[int, bool] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v "):
            for tok in line[2:].split():
                lit = int(tok)
                if lit != 0:
                    values[abs(lit)] = lit > 0
    if status == "UNSATISFIABLE":
        return None
    if status == "SATISFIABLE":
        return {v: values.get(v, False) for v in range(1, cnf.num_vars + 1)}
    raise SolverError(f"no status line in solver output (exit {proc.returncode})")


def solve_builtin(num_vars: int, clauses, deadline: float | None = None):
    """Conflict-driven clause-learning solver.

    Watched-literal propagation, first-UIP clause learning, activity-based
    decisions with phase saving, and geometric restarts.  Deterministic:
    ties break on variable index and there is no randomization.  A literal
    that is 0 or names a variable above ``num_vars`` raises
    :class:`InvalidInput`.  Past ``deadline`` (a :func:`time.monotonic`
    instant), checked at entry and on every conflict, it raises
    :class:`SolverTimeout`.
    """
    _check_deadline(deadline)
    return _Cdcl(num_vars, clauses, deadline).solve()


class _Cdcl:
    def __init__(self, num_vars, clauses, deadline):
        self.nvars = num_vars
        self.deadline = deadline
        n = num_vars + 1
        self.assign = [0] * n          # 0 unassigned, 1 true, -1 false
        self.level = [0] * n
        self.reason: list[list | None] = [None] * n
        self.activity = [0.0] * n
        self.phase = [False] * n
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list] = [[] for _ in range(2 * n)]
        self.unsat = False
        self.units: list[int] = []
        for clause in clauses:
            self._ingest(clause)
        # order[] is a lazy max-heap of (-activity, var) pairs; every
        # unassigned variable has an entry in it
        self.order = [(0.0, v) for v in range(1, n)]
        heapq.heapify(self.order)

    def _lit_id(self, lit):
        return 2 * abs(lit) + (1 if lit < 0 else 0)

    def _value(self, lit):
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _ingest(self, clause):
        seen = set()
        lits = []
        tautology = False
        for lit in clause:
            if not 0 < abs(lit) <= self.nvars:
                raise InvalidInput(f"literal {lit} outside variables 1..{self.nvars}")
            if -lit in seen:
                tautology = True
            elif lit not in seen:
                seen.add(lit)
                lits.append(lit)
        if tautology:
            return
        if not lits:
            self.unsat = True
        elif len(lits) == 1:
            self.units.append(lits[0])
        else:
            self._attach(lits)

    def _attach(self, lits):
        self.watches[self._lit_id(lits[0])].append(lits)
        self.watches[self._lit_id(lits[1])].append(lits)

    def _enqueue(self, lit, reason=None):
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self):
        while self.qhead < len(self.trail):
            falsified = -self.trail[self.qhead]
            self.qhead += 1
            ws = self.watches[self._lit_id(falsified)]
            i = j = 0
            n_ws = len(ws)
            while i < n_ws:
                c = ws[i]
                i += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self._value(first) == 1:
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for idx in range(2, len(c)):
                    if self._value(c[idx]) != -1:
                        c[1], c[idx] = c[idx], c[1]
                        self.watches[self._lit_id(c[1])].append(c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if self._value(first) == -1:
                    while i < n_ws:
                        ws[j] = ws[i]
                        i += 1
                        j += 1
                    del ws[j:]
                    self.qhead = len(self.trail)
                    return c
                self._enqueue(first, c)
            del ws[j:]
        return None

    def _bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.order, (-self.activity[var], var))

    def _analyze(self, conflict):
        learnt = []
        seen = bytearray(self.nvars + 1)
        counter = 0
        p = None
        idx = len(self.trail) - 1
        current = len(self.trail_lim)
        while True:
            start = 0 if p is None else 1
            for j in range(start, len(conflict)):
                q = conflict[j]
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if self.level[var] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            var = abs(p)
            conflict = self.reason[var]
            seen[var] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        mi = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backtrack(self, target_level):
        while len(self.trail_lim) > target_level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                lit = self.trail.pop()
                var = abs(lit)
                self.phase[var] = lit > 0
                self.assign[var] = 0
                self.reason[var] = None
                heapq.heappush(self.order, (-self.activity[var], var))
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self):
        while self.order:
            _, var = heapq.heappop(self.order)
            if self.assign[var] == 0:
                return var
        return None

    def solve(self):
        if self.unsat:
            return None
        for lit in self.units:
            if self._value(lit) == -1:
                return None
            if self._value(lit) == 0:
                self._enqueue(lit)
        restart_limit = 100.0
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return None
                since_restart += 1
                _check_deadline(self.deadline)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) >= 2:
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                else:
                    self._enqueue(learnt[0])
                self.var_inc /= 0.95
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit *= 1.5
                    self._backtrack(0)
            else:
                var = self._decide()
                if var is None:
                    return {v: self.assign[v] > 0 for v in range(1, self.nvars + 1)}
                self.trail_lim.append(len(self.trail))
                self._enqueue(var if self.phase[var] else -var)
