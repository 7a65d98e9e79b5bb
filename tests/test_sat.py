import itertools
import os
import random
import stat
import sys
import time
from types import SimpleNamespace

import pytest

from ocalearn import (AtMostOne, CnfInstance, InvalidInput, SolverError, SolverTimeout,
                      external_path, sat_solve)
from ocalearn.sat import _Cdcl, _checked


def test_single_positive_unit():
    assert sat_solve(CnfInstance(1, [(1,)])) == {1: True}


def test_contradictory_units():
    assert sat_solve(CnfInstance(1, [(1,), (-1,)])) is None


def test_empty_clause_list_is_satisfiable():
    assert sat_solve(CnfInstance()) == {}


def test_dimacs_format():
    cnf = CnfInstance(2, [(1, -2), (2,)])
    assert cnf.to_dimacs() == "p cnf 2 2\n1 -2 0\n2 0\n"
    # a group stands for its pairwise clauses, in order, at its place
    cnf = CnfInstance(3, [(1,), AtMostOne((3, 1, 2)), (-2,)])
    assert cnf.to_dimacs() == "p cnf 3 5\n1 0\n-3 -1 0\n-3 -2 0\n-1 -2 0\n-2 0\n"


def _brute(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
               for clause in clauses):
            return True
    return False


def test_builtin_agrees_with_enumeration():
    rng = random.Random(11)
    for _ in range(800):
        num_vars = rng.randrange(1, 10)
        clauses = []
        for _ in range(rng.randrange(0, 30)):
            width = rng.randrange(1, 4)
            clauses.append(tuple(rng.choice((-1, 1)) * rng.randrange(1, num_vars + 1)
                                 for _ in range(width)))
        model = sat_solve(CnfInstance(num_vars, clauses))
        assert (model is not None) == _brute(num_vars, clauses)
        if model is not None:
            assert all(any((lit > 0) == model[abs(lit)] for lit in clause)
                       for clause in clauses)


BAD_INSTANCES = ((1, [(0,)]), (1, [(3,), (-1,)]), (1, [(1, -1, 2)]),
                 (2, [[1.5]]), (2, [[1, "2"]]), (-2, []), (-1, [(1,)]),
                 (2, [AtMostOne((1, -2))]), (2, [AtMostOne((1, 3))]))


def test_builtin_rejects_undeclared_literals():
    for num_vars, clauses in BAD_INSTANCES:
        with pytest.raises(InvalidInput):
            sat_solve(CnfInstance(num_vars, clauses))


def test_hand_built_instances_are_checked_before_an_external_solver_runs(tmp_path):
    # the script leaves a marker file whenever it runs; a bad instance
    # must be refused before it starts
    marker = tmp_path / "ran"
    script = tmp_path / "marking_solver"
    script.write_text(f"#!{sys.executable}\nopen({str(marker)!r}, 'w').close()\n"
                      "print('s UNSATISFIABLE')\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    backend = f"external:{script}"
    for num_vars, clauses in BAD_INSTANCES:
        with pytest.raises(InvalidInput):
            sat_solve(CnfInstance(num_vars, clauses), backend)
        assert not marker.exists()
    assert sat_solve(CnfInstance(1, [(1, 1)]), backend) is None
    assert marker.exists()


def test_a_bool_is_neither_a_literal_nor_a_variable_count(tmp_path):
    # True == 1, yet a bool is no int here, as check_type refuses one
    # where an int is meant; to_dimacs would write "p cnf True 1".  The
    # external backend refuses them before it looks for its executable
    backends = ("builtin", f"external:{tmp_path / 'absent_solver'}")
    for num_vars, clauses in ((2, [[True, -2]]), (2, [(1, False)]), (True, [[1]]),
                              (False, []), (3, [AtMostOne((True, 2))])):
        for backend in backends:
            with pytest.raises(InvalidInput):
                sat_solve(CnfInstance(num_vars, clauses), backend)
    assert sat_solve(CnfInstance(2, [[1, -2]])) == {1: False, 2: False}


def test_hand_built_instances_drop_repeated_literals_and_tautologies():
    clauses = [(1, 1, -2), (2, -2), (-1, -1), (2, 3, 2)]
    cnf = CnfInstance(3, clauses)
    assert sat_solve(cnf) == {1: False, 2: False, 3: True}
    assert cnf.clauses == clauses


class _LoggedCdcl(_Cdcl):
    """The builtin solver, logging each decision and each conflict with
    the clause it learns from it."""

    def __init__(self, *args):
        self.log = []
        super().__init__(*args)

    def _decide(self):
        var = super()._decide()
        self.log.append(var)
        return var

    def _analyze(self, conflict):
        conflict = tuple(conflict)
        learnt, back_level = super()._analyze(conflict)
        self.log.append((conflict, tuple(learnt), back_level))
        return learnt, back_level


def _native_and_expanded(num_vars, clauses):
    """The model or None, and the log, of the builtin solver on
    ``clauses`` with its groups watched natively, and the same for their
    pairwise expansion; each clause solved as a fresh checked copy."""
    native = []
    for clause in clauses:
        native.extend([clause] if type(clause) is AtMostOne else _checked(num_vars, [clause]))
    runs = []
    for watched in (native, _checked(num_vars, clauses)):
        solver = _LoggedCdcl(num_vars, watched, None)
        runs.append((solver.solve(), solver.log))
    return runs


def test_encoder_instances_solve_as_their_pairwise_expansions():
    # the builtin backend watches an encoder's groups natively; the
    # expansion of each group into its pairwise clauses must give the
    # same model through the same decisions, conflicts and learnt clauses
    from ocalearn.colouring import encode_size_n
    from test_minsepdfa import sample_aptas

    models = conflicts = groups = 0
    for apta in sample_aptas() + [_anbna_apta()]:
        for n in range(1, apta.domains()[0] + 2):
            cnf = encode_size_n(apta, n)
            groups += sum(type(clause) is AtMostOne for clause in cnf.clauses)
            native, expanded = _native_and_expanded(cnf.num_vars, cnf.clauses)
            assert native == expanded
            assert native[0] == sat_solve(cnf)
            models += native[0] is not None
            conflicts += sum(type(entry) is tuple for entry in native[1])
    assert models > 0 and conflicts > 0 and groups > 0


def _colouring(rng, nodes, edges, k):
    """k-colouring of a random graph: per node a clause and a group
    over its colours, and per edge and colour a binary clause."""
    var = lambda v, c: v * k + c + 1
    clauses = []
    for v in range(nodes):
        clauses.append([var(v, c) for c in range(k)])
        clauses.append(AtMostOne(var(v, c) for c in range(k)))
    for _ in range(edges):
        u, v = rng.sample(range(nodes), 2)
        clauses.extend([-var(u, c), -var(v, c)] for c in range(k))
    return nodes * k, clauses


def test_groups_solve_as_their_pairwise_expansions():
    # random instances that mix clauses and groups, satisfiable or not,
    # and pigeonhole instances with one group per hole, whose proofs run
    # through restarts: the same model or verdict, decisions, conflicts
    # and learnt clauses as with every group expanded
    rng = random.Random(29)
    instances = [_colouring(rng, nodes, int(2.3 * nodes), 3)
                 for nodes in (rng.randrange(20, 60) for _ in range(30))]
    for _ in range(200):
        num_vars = rng.randrange(3, 11)
        clauses = []
        for _ in range(rng.randrange(0, 3 * num_vars)):
            if rng.random() < 0.3:
                members = rng.sample(range(1, num_vars + 1), rng.randrange(2, min(num_vars, 6) + 1))
                clauses.append(AtMostOne(members))
            else:
                clauses.append(tuple(rng.choice((-1, 1)) * rng.randrange(1, num_vars + 1)
                                     for _ in range(rng.randrange(1, 4))))
        instances.append((num_vars, clauses))
    for n in (4, 5, 6):
        num_vars, clauses = _pigeonhole(n)
        var = lambda p, h: p * n + h + 1
        instances.append((num_vars, clauses[:n + 1] + [AtMostOne(var(p, h) for p in range(n + 1))
                                                       for h in range(n)]))
    verdicts = {True: 0, False: 0}
    most_conflicts = 0
    for num_vars, clauses in instances:
        native, expanded = _native_and_expanded(num_vars, clauses)
        assert native == expanded
        (model, log), pairwise = native, _checked(num_vars, clauses)
        if model is None:
            assert num_vars > 10 or not _brute(num_vars, pairwise)
        else:
            assert all(any((lit > 0) == model[abs(lit)] for lit in clause) for clause in pairwise)
        verdicts[model is not None] += 1
        most_conflicts = max(most_conflicts, sum(type(entry) is tuple for entry in log))
    assert min(verdicts.values()) >= 20
    assert most_conflicts > 100     # past the first restart


def test_builtin_reads_the_deadline_between_decisions(monkeypatch):
    # a chain of implications meets no conflict on the way to its model;
    # each clock read is one second later, so the deadline passes after
    # the reads at entry and while reading the clauses, and only reads
    # between decisions can notice
    from ocalearn import errors, sat

    reads = itertools.count()
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: next(reads)))
    num_vars = 8 * sat._DECIDE_CHECK_EVERY
    cnf = CnfInstance(num_vars, [(-v, v + 1) for v in range(1, num_vars)])
    assert len(cnf.clauses) < sat._INGEST_CHECK_EVERY
    assert sat_solve(cnf, deadline=1e9) is not None
    reads = itertools.count()
    with pytest.raises(SolverTimeout):
        sat_solve(cnf, deadline=5.5)


def _pigeonhole(n):
    var = lambda p, h: p * n + h + 1
    clauses = [tuple(var(p, h) for h in range(n)) for p in range(n + 1)]
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                clauses.append((-var(p1, h), -var(p2, h)))
    return (n + 1) * n, clauses


def test_builtin_handles_pigeonhole_unsat():
    assert sat_solve(CnfInstance(*_pigeonhole(5))) is None


STUB = """#!{python}
import sys
sys.path.insert(0, {srcdir!r})
from ocalearn.sat import CnfInstance, sat_solve

clauses = []
num_vars = 0
with open(sys.argv[1]) as handle:
    for line in handle:
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p cnf"):
            num_vars = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(tuple(lits[:-1]))
model = sat_solve(CnfInstance(num_vars, clauses))
if model is None:
    print("s UNSATISFIABLE")
else:
    print("s SATISFIABLE")
    lits = " ".join(str(v if model[v] else -v) for v in sorted(model))
    print("v " + lits + " 0")
"""


@pytest.fixture
def external_solver(tmp_path):
    srcdir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = tmp_path / "stubsolver"
    path.write_text(STUB.format(python=sys.executable, srcdir=srcdir))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_external_backend_agreement(external_solver):
    rng = random.Random(5)
    backend = f"external:{external_solver}"
    deadline = time.monotonic() + 60
    for _ in range(25):
        cnf = CnfInstance()
        num_vars = cnf.num_vars = rng.randrange(2, 12)
        for _ in range(rng.randrange(1, 40)):
            width = rng.randrange(1, 4)
            cnf.clauses.append(tuple(rng.choice((-1, 1)) * rng.randrange(1, num_vars + 1)
                                     for _ in range(width)))
        external = sat_solve(cnf, backend, deadline)
        builtin = sat_solve(cnf)
        assert (external is None) == (builtin is None)
        if external is not None:
            assert all(any((lit > 0) == external[abs(lit)] for lit in clause)
                       for clause in cnf.clauses)


def _anbna_apta():
    from ocalearn import ObservationTable, SimulatedTeacher, build_samples
    from ocalearn.minsepdfa import build_apta
    from conftest import make_anbna

    machine = make_anbna()
    table = ObservationTable(SimulatedTeacher(machine))
    for p in ("a", "ab", "aba", "b", "aa"):
        table.add_prefix(p)
    table.add_suffix("a")
    return build_apta(build_samples(table))


def test_external_backend_agrees_on_identification_instances(external_solver):
    # instances produced by the DFA-identification encoder, up to a few
    # thousand clauses
    from ocalearn.colouring import encode_size_n

    apta = _anbna_apta()
    backend = f"external:{external_solver}"
    deadline = time.monotonic() + 120
    for n in range(1, 6):
        cnf = encode_size_n(apta, n)
        assert len(cnf.clauses) <= 5000
        external = sat_solve(cnf, backend, deadline)
        assert external == sat_solve(cnf)


# The DFA the builtin solver's model decodes to at each rung of the table
# above: the initial state (the root's colour), the accepting states, then
# the successor of every state on each symbol of the prefix tree's
# alphabet, in alphabet order.  Rungs 1 to 3 are unsatisfiable.
ANBNA_RUNG_DFAS = {
    1: None,
    2: None,
    3: None,
    4: (3, (0,), (2, 3, 2, 3, 0, 2, 2, 3, 3, 2, 3, 2, 3, 3, 2, 1)),
    5: (4, (0,), (2, 4, 2, 4, 4, 2, 4, 4, 4, 2, 4, 2, 0, 3, 2, 1, 4, 3, 2, 3)),
}


def test_builtin_search_is_pinned_on_identification_instances():
    # any change to the builtin solver's decisions shows here as a
    # different model, not only as a different hypothesis downstream
    from ocalearn.colouring import decode_dfa, encode_size_n

    apta = _anbna_apta()
    for n, expected in ANBNA_RUNG_DFAS.items():
        cnf = encode_size_n(apta, n)
        model = sat_solve(cnf)
        if expected is None:
            assert model is None
            continue
        dfa = decode_dfa(cnf, model)
        successors = tuple(dfa.transition[(i, sym)] for i in range(n) for sym in apta.alphabet)
        assert (dfa.initial, tuple(sorted(dfa.finals)), successors) == expected


def test_builtin_decision_order_survives_activity_rescales():
    # Activities are rescaled once one passes 1e100, which takes thousands
    # of conflicts from var_inc = 1; starting var_inc just below the
    # threshold forces a rescale within the first conflicts.  Every
    # decision must still pick the unassigned variable of highest activity
    # (ties on the lowest index), which needs the decision heap rebuilt
    # from the rescaled activities.
    rescales = []

    class CheckedCdcl(_Cdcl):
        def _rescale(self):
            rescales.append(self.nvars)
            super()._rescale()

        def _decide(self):
            var = super()._decide()
            free = [v for v in range(1, self.nvars + 1) if self.value[v] == 0]
            assert var == min(free, key=lambda v: (-self.activity[v], v), default=None)
            return var

    def solve_near_rescale(num_vars, clauses, var_inc):
        solver = CheckedCdcl(num_vars, _checked(num_vars, clauses), None)
        solver.var_inc = var_inc
        return solver.solve()

    rng = random.Random(23)
    for var_inc in (0.99e100, 1e99):
        for n in (4, 5):
            before = len(rescales)
            assert solve_near_rescale(*_pigeonhole(n), var_inc) is None
            assert len(rescales) > before
        for _ in range(20):
            num_vars = rng.randrange(20, 60)
            clauses = [tuple(rng.choice((-1, 1)) * v
                             for v in rng.sample(range(1, num_vars + 1), 3))
                       for _ in range(int(4.2 * num_vars))]
            model = solve_near_rescale(num_vars, clauses, var_inc)
            assert (model is None) == (sat_solve(CnfInstance(num_vars, clauses)) is None)
            if model is not None:
                assert all(any((lit > 0) == model[abs(lit)] for lit in clause)
                           for clause in clauses)
    assert len(rescales) >= 30


def test_passed_deadline_raises_on_both_backends(external_solver):
    cnf = CnfInstance(1, [(1,)])
    passed = time.monotonic() - 1
    for backend in ("builtin", f"external:{external_solver}"):
        with pytest.raises(SolverTimeout):
            sat_solve(cnf, backend, passed)


def test_external_backend_missing_executable():
    cnf = CnfInstance(1, [(1,)])
    with pytest.raises(SolverError):
        sat_solve(cnf, "external:/nonexistent/solver")


def test_backend_selector_validation():
    with pytest.raises(Exception):
        external_path("magic")
    assert external_path("builtin") is None


def _script_solver(tmp_path, body):
    """A fake solver: a Python script that runs ``body`` whatever its input."""
    path = tmp_path / "script_solver"
    path.write_text(f"#!{sys.executable}\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return f"external:{path}"


def _replying_solver(tmp_path, reply):
    """A fake solver script that prints ``reply`` whatever its input."""
    return _script_solver(tmp_path, f"print({reply!r})")


def test_external_reply_without_a_status_line_is_a_solver_error(tmp_path):
    backend = _replying_solver(tmp_path, "c no verdict")
    with pytest.raises(SolverError, match=r"no status line in solver output \(exit 0\)"):
        sat_solve(CnfInstance(1, [(1,)]), backend)


def test_external_solver_past_its_deadline_is_stopped(tmp_path):
    # the script is the solver process itself, so the timeout kills it; a
    # shell wrapper would be killed and leave its sleeping child running
    backend = _script_solver(tmp_path, "import time\ntime.sleep(5)")
    start = time.monotonic()
    with pytest.raises(SolverTimeout, match="ran past its deadline"):
        sat_solve(CnfInstance(1, [(1,)]), backend, start + 0.3)
    assert time.monotonic() - start < 2


def test_external_literal_that_is_not_an_int_is_a_solver_error(tmp_path):
    cnf = CnfInstance(1, [(1,)])
    backend = _replying_solver(tmp_path, "s SATISFIABLE\nv 1 x 0")
    with pytest.raises(SolverError, match="'x'"):
        sat_solve(cnf, backend)


def test_learn_names_a_model_without_a_root_colour(tmp_path, capsys):
    # a reply with a status line and no values leaves every variable false
    from ocalearn import store
    from ocalearn.cli import main
    from conftest import make_anbna

    target = tmp_path / "anbna.json"
    target.write_text(store(make_anbna()))
    backend = _replying_solver(tmp_path, "s SATISFIABLE")
    assert main(["learn", "--target", str(target), "--sat", backend]) == 1
    assert "no colour" in capsys.readouterr().err


def test_decode_refuses_a_model_without_a_successor():
    from ocalearn import SampleSet, build_apta, encode_size_n
    from ocalearn.colouring import decode_dfa

    apta = build_apta(SampleSet(pos=((),), neg=(("a0",), ("a0",) * 3), alphabet=("a0",)))
    cnf = encode_size_n(apta, 2)
    model = sat_solve(cnf)
    # the clique pins the root to state 0 and a⁰ to state 1, (a⁰)³ loses
    # state 0 for its label, and a⁰a⁰ stays open, so state 1's successor
    # on a⁰ is free
    assert cnf.color[0] == (True, False) and cnf.trans["a0"][0] == (False, True)
    assert all(type(var) is int for var in cnf.trans["a0"][1])
    for var in cnf.trans["a0"][1]:      # state 1 loses its successor on a0
        model[var] = False
    with pytest.raises(SolverError, match="successor"):
        decode_dfa(cnf, model)
