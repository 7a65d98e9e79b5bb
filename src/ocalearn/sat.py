"""CNF instances and the pluggable SAT backends.

Two interchangeable backends decide satisfiability: a builtin
conflict-driven clause-learning solver, and any external solver
speaking the DIMACS format on a file argument and reporting
``s SATISFIABLE`` / ``s UNSATISFIABLE`` plus ``v`` value lines on
stdout.  Both are deterministic for a fixed input.  :func:`sat_solve` is
the one way into either; it checks a hand-built instance for both, and
the external backend loads its process modules on first use.

Besides clauses, an instance may hold :class:`AtMostOne` groups.  The
builtin solver watches a group as one constraint; everywhere else it
stands for its pairwise clauses.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice

from .errors import InvalidInput, SolverError, SolverTimeout, check_deadline


class AtMostOne(tuple):
    """At most one of these positive literals is true: the pairwise
    clauses ``[-x, -y]`` for each ``x`` before ``y``, in that order, held
    as one constraint (Liffiton & Maglalang, "A Cardinality Solver", SAT
    2012).  The builtin solver propagates a group exactly as it would
    those clauses, with the same trail, conflicts and reasons, while it
    stores, reads and watches one object instead of O(k²)."""

    __slots__ = ()

    def pairwise(self) -> list[list[int]]:
        return [[-x, -y] for k, x in enumerate(self) for y in self[k + 1:]]


class CnfInstance:
    """A CNF formula over the variables ``1..num_vars``.

    The variables mean nothing to the solvers: an encoder reads a model
    back by its own numbering (:class:`~ocalearn.colouring.ColouringCnf`
    carries it).  Clauses may only mention declared variables.  An entry
    of ``clauses`` may be an :class:`AtMostOne` group, which stands for
    its pairwise clauses at its place in the order.
    :func:`~ocalearn.colouring.encode_size_n` marks its instances
    ``_well_formed``, which :func:`sat_solve` trusts.
    """

    def __init__(self, num_vars: int = 0, clauses=()):
        self.num_vars = num_vars
        self.clauses: list = list(clauses)      # sequences of nonzero ints
        self._well_formed = False

    def to_dimacs(self) -> str:
        lines = [" ".join(str(lit) for lit in clause) + " 0"
                 for clause in _expanded(self.clauses)]
        return "\n".join([f"p cnf {self.num_vars} {len(lines)}", *lines]) + "\n"


def _expanded(clauses):
    """The clauses with each :class:`AtMostOne` group replaced by its
    pairwise clauses; a member that is a bool or not a positive int
    raises :class:`InvalidInput`."""
    for clause in clauses:
        if type(clause) is not AtMostOne:
            yield clause
        elif all(_is_int(x) and x > 0 for x in clause):
            yield from clause.pairwise()
        else:
            raise InvalidInput(f"at-most-one group {clause!r} has a member that is "
                               "not a positive literal")


def external_path(backend: str) -> str | None:
    """The executable of an ``"external:<executable>"`` backend, None for
    ``"builtin"``; any other string is rejected."""
    if backend == "builtin":
        return None
    if backend.startswith("external:"):
        path = backend[len("external:"):]
        if not path:
            raise InvalidInput("external backend needs an executable path")
        return path
    raise InvalidInput(f"unknown SAT backend {backend!r}")


def sat_solve(cnf: CnfInstance, backend: str = "builtin",
              deadline: float | None = None) -> dict[int, bool] | None:
    """A satisfying assignment (total over declared variables) or None.

    ``backend`` is ``"builtin"`` or ``"external:<executable>"``.  An
    instance not built by :func:`~ocalearn.colouring.encode_size_n` is
    checked first, for either backend (:class:`InvalidInput` on a bad
    variable count or literal), and the builtin one solves a copy without
    repeated literals and tautologies, with each :class:`AtMostOne` group
    expanded into its pairwise clauses.  An encoder instance that carries
    the model of its descent (``ColouringCnf.model``) gets a copy of it
    from the builtin backend, before its clauses are read, so they are
    never built; any other is solved in place, its groups watched as
    such, which may reorder the literals inside its clauses.  The
    external backend reads every group as its pairwise clauses
    (:meth:`CnfInstance.to_dimacs`).
    ``deadline`` is a :func:`time.monotonic` instant; past it the call
    raises :class:`SolverTimeout`, at entry as well as while solving.
    """
    path = external_path(backend)
    clauses = None if cnf._well_formed else _checked(cnf.num_vars, cnf.clauses)
    check_deadline(deadline)
    if path is not None:
        return _solve_external(cnf, path, deadline)
    if clauses is None:
        if cnf.model is not None:
            return dict(cnf.model)
        clauses = cnf.clauses
    return _Cdcl(cnf.num_vars, clauses, deadline).solve()


def _checked(num_vars, clauses) -> list[list[int]]:
    """Each clause as a fresh list of its distinct literals, in order,
    tautologies skipped, and each :class:`AtMostOne` group as its
    pairwise clauses; a ``num_vars`` that is not a non-negative int, a
    literal that is not an int in ``±1..num_vars``, or a group member
    that is not positive, raises :class:`InvalidInput`.  A bool is no
    int here, as in :func:`~ocalearn.errors.check_type`."""
    if not (_is_int(num_vars) and num_vars >= 0):
        raise InvalidInput(f"variable count {num_vars!r} is not a non-negative int")
    checked = []
    for clause in _expanded(clauses):
        seen = set()
        lits = []
        tautology = False
        for lit in clause:
            if not (_is_int(lit) and 0 < abs(lit) <= num_vars):
                raise InvalidInput(f"literal {lit!r} is not an int in ±1..{num_vars}")
            if -lit in seen:
                tautology = True
            elif lit not in seen:
                seen.add(lit)
                lits.append(lit)
        if not tautology:
            checked.append(lits)
    return checked


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _solve_external(cnf, exe, deadline):
    # imported here, so that ``import ocalearn`` does not load subprocess
    import os
    import subprocess
    import tempfile
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
                try:
                    lit = int(tok)
                except ValueError:
                    raise SolverError(f"non-integer literal {tok!r} in solver output") from None
                if lit != 0:
                    values[abs(lit)] = lit > 0
    if status == "UNSATISFIABLE":
        return None
    if status == "SATISFIABLE":
        return {v: values.get(v, False) for v in range(1, cnf.num_vars + 1)}
    raise SolverError(f"no status line in solver output (exit {proc.returncode})")


_INGEST_CHECK_EVERY = 4096      # clauses read between two deadline checks
_DECIDE_CHECK_EVERY = 256       # decisions between two deadline checks


class _Cdcl:
    """The builtin backend: watched-literal propagation, first-UIP clause
    learning, activity-based decisions with phase saving, and geometric
    restarts.  Deterministic: ties break on variable index and there is
    no randomization.  It watches the given clause lists themselves:
    each must be a list of distinct, non-complementary literals over
    ``1..num_vars``, which solving reorders in place.  An
    :class:`AtMostOne` group of at least two distinct variables sits, as
    a watch entry ``(0, group)``, once in the watch list of each member's
    negation, where its pairwise clauses would sit: they are contiguous
    there, and a binary clause never leaves its watch lists.  When a
    member x becomes true, the group falsifies every other unassigned
    member y in order, with the reason ``[-y, -x]``, and a true member y
    yields the conflict ``[-y, -x]``, as those clauses would.  The
    deadline is read every few thousand clauses while they are read, on
    every conflict and every few hundred decisions.
    """

    def __init__(self, num_vars, clauses, deadline):
        self.nvars = num_vars
        self.deadline = deadline
        n = num_vars + 1
        slots = 2 * num_vars + 1        # one per literal; -v indexes slot slots - v
        self.value = [0] * slots        # 1 true, -1 false, 0 unassigned
        self.watches: list[list] = [[] for _ in range(slots)]
        # a variable's level and reason sit in the slot of its true literal;
        # a group's reason [-y, -x] for -y is stored as the literal -x
        self.level = [0] * slots
        self.reason: list[list | int | None] = [None] * slots
        self.seen = bytearray(slots)    # _analyze's marks by true literal, all 0 between calls
        self.activity = [0.0] * n
        self.phase = [False] * n
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.unsat = False
        watches, value = self.watches, self.value
        clauses = iter(clauses)
        while True:
            check_deadline(deadline)
            chunk = list(islice(clauses, _INGEST_CHECK_EVERY))
            if not chunk:
                break
            for lits in chunk:
                if type(lits) is AtMostOne:
                    entry = (0, lits)
                    for x in lits:
                        watches[-x].append(entry)
                elif len(lits) > 1:
                    watches[lits[0]].append(lits)
                    watches[lits[1]].append(lits)
                elif not lits or value[lits[0]] == -1:
                    self.unsat = True
                elif value[lits[0]] == 0:     # a unit clause, enqueued at level 0
                    self._enqueue(lits[0])
        # order is a lazy min-heap of (-activity, var) pairs.  in_order[v]
        # records that v's entry at its current activity is in it; every
        # unassigned variable has one, so the first unassigned variable
        # popped has the highest activity (ties on the lowest index).
        self.order = [(0.0, v) for v in range(1, n)]
        self.in_order = bytearray(b"\x01") * n

    def _enqueue(self, lit, reason=None):
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _propagate(self):
        trail, value, watches = self.trail, self.value, self.watches
        level, reason = self.level, self.reason
        current = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            i = j = 0
            n_ws = len(ws)
            while i < n_ws:
                c = ws[i]
                i += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], falsified
                first = c[0]
                first_value = value[first]
                if first_value == 1:
                    ws[j] = c
                    j += 1
                    continue
                if not first:           # an AtMostOne group, (0, members)
                    ws[j] = c
                    j += 1
                    for y in c[1]:
                        y_value = value[y]
                        if y_value == -1 or y == -falsified:
                            continue
                        if y_value == 1:
                            del ws[j:i]
                            self.qhead = len(trail)
                            return [-y, falsified]
                        value[-y] = 1
                        value[y] = -1
                        level[-y] = current
                        reason[-y] = falsified
                        trail.append(-y)
                    continue
                for idx in range(2, len(c)):
                    lit = c[idx]
                    if value[lit] != -1:
                        c[1], c[idx] = lit, falsified
                        watches[lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if first_value == -1:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return c
                    value[first] = 1
                    value[-first] = -1
                    level[first] = current
                    reason[first] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    def _rescale(self):
        activity, value, in_order = self.activity, self.value, self.in_order
        for v in range(1, self.nvars + 1):
            activity[v] *= 1e-100
            in_order[v] = value[v] == 0
        self.var_inc *= 1e-100
        self.order[:] = [(-activity[v], v) for v in range(1, self.nvars + 1) if in_order[v]]
        heapq.heapify(self.order)

    def _analyze(self, conflict):
        trail, level, reason, seen = self.trail, self.level, self.reason, self.seen
        activity, order, in_order = self.activity, self.order, self.in_order
        var_inc = self.var_inc
        learnt = [0]            # slot 0 takes the asserting literal
        counter = 0
        p = 0
        idx = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            for j in range(1 if p else 0, len(conflict)):
                q = conflict[j]
                if not seen[-q] and level[-q] > 0:
                    seen[-q] = 1
                    var = -q if q < 0 else q
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc, act = self.var_inc, activity[var]
                    heapq.heappush(order, (-act, var))
                    in_order[var] = 1
                    if level[-q] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx]]:
                idx -= 1
            p = trail[idx]
            conflict = reason[p]
            if type(conflict) is int:   # a group's reason [p, conflict]
                conflict = (p, conflict)
            seen[p] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
        learnt[0] = -p
        for q in learnt[1:]:
            seen[-q] = 0
        if len(learnt) == 1:
            return learnt, 0
        mi = max(range(1, len(learnt)), key=lambda i: level[-learnt[i]])
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, level[-learnt[1]]

    def _backtrack(self, target_level):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        limit = trail_lim[target_level]
        del trail_lim[target_level:]
        trail, value, phase = self.trail, self.value, self.phase
        activity, order, in_order = self.activity, self.order, self.in_order
        for k in range(len(trail) - 1, limit - 1, -1):
            lit = trail[k]
            var = -lit if lit < 0 else lit
            phase[var] = lit > 0
            value[lit] = value[-lit] = 0
            if not in_order[var]:
                heapq.heappush(order, (-activity[var], var))
                in_order[var] = 1
        del trail[limit:]
        self.qhead = min(self.qhead, limit)

    def _decide(self):
        order, activity, in_order, value = self.order, self.activity, self.in_order, self.value
        while order:
            key, var = heapq.heappop(order)
            if key == -activity[var]:
                in_order[var] = 0
            if value[var] == 0:
                return var
        return None

    def solve(self):
        if self.unsat:
            return None
        value = self.value
        restart_limit = 100.0
        since_restart = 0
        decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return None
                since_restart += 1
                check_deadline(self.deadline)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) >= 2:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
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
                    return {v: value[v] > 0 for v in range(1, self.nvars + 1)}
                decisions += 1
                if decisions % _DECIDE_CHECK_EVERY == 0:
                    check_deadline(self.deadline)
                self.trail_lim.append(len(self.trail))
                self._enqueue(var if self.phase[var] else -var)
