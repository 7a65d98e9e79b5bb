"""Command-line front door.

Subcommands: ``learn`` (learn a machine from a simulated teacher),
``equiv`` (counter-synchronous equivalence with a minimal counterexample,
through ``voca_check_equiv`` when both machines are VOCAs),
``generate`` (random machine to JSON), ``bench`` (benchmark sweep to CSV)
and ``encode`` (print the doubled-alphabet encoding and counter trace of
a word).

Exit codes: 0 success, 1 domain errors (including "not equivalent")
and files that cannot be read or written, 2 usage errors.  The SAT
backend may also be selected through the ``OCALEARN_SAT_BACKEND``
environment variable; the ``--sat`` flag wins.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io
from .automata import pretty_encoded
from .bench import BenchConfig, run_benchmark
from .equivalence import check_sync_equiv, voca_check_equiv
from .errors import LearnTimeout, WorkbenchError
from .generate import GenConfig, generate_droca
from .learning import LearnConfig, SimulatedTeacher, Stats, learn


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LearnTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.stats.to_json(), file=sys.stderr)
        return 1
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ocalearn",
        description="Workbench for active learning of one-counter automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a machine from a simulated teacher")
    p.add_argument("--target", required=True, help="JSON automaton to learn")
    p.add_argument("--voca", action="store_true",
                   help="derive counter values from the action map (no cv queries)")
    p.add_argument("--seed", type=int, default=None, help="recorded in the stats")
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--sat", default=None, help="builtin | external:<path>")
    p.add_argument("--out", default=None, help="write the learnt machine here")
    p.add_argument("--stats", default=None, help="write session stats JSON here")
    p.add_argument("--complete-with-sink", action="store_true",
                   help="complete a partial input machine with a non-final sink")
    p.set_defaults(handler=_cmd_learn)

    p = sub.add_parser("equiv", help="check counter-synchronous equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--complete-with-sink", action="store_true")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("generate", help="generate a random machine")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restricted", action="store_true",
                   help="final states only enterable at counter zero, action 0")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("bench", help="benchmark sweep over random machines")
    p.add_argument("--min-states", type=int, required=True)
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--min-alphabet", type=int, default=2)
    p.add_argument("--max-alphabet", type=int, default=2)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--timeout-s", type=float, required=True)
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--sat", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("encode", help="print the encoding and counter trace of a word")
    p.add_argument("--target", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--complete-with-sink", action="store_true")
    p.set_defaults(handler=_cmd_encode)
    return parser


def _solver_config(flag_value) -> str:
    return flag_value or os.environ.get("OCALEARN_SAT_BACKEND") or "builtin"


def _cmd_learn(args) -> int:
    target = io.load_file(args.target, complete_with_sink=args.complete_with_sink)
    stats = Stats(seed=args.seed, target_states=target.size,
                  alphabet=len(target.alphabet))
    teacher = SimulatedTeacher(target, stats)
    config = LearnConfig(voca=args.voca, timeout_s=args.timeout_s,
                         solver=_solver_config(args.sat))
    hypothesis, stats = learn(teacher, config)
    if args.out:
        io.store_file(hypothesis, args.out)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            handle.write(stats.to_json() + "\n")
    print(f"learnt {hypothesis.size} states in {stats.wall_ms} ms "
          f"({stats.n_seq} equivalence, {stats.n_mq} membership, "
          f"{stats.n_cv} counter-value queries, {stats.n_sat} SAT calls)")
    return 0


def _cmd_equiv(args) -> int:
    a = io.load_file(args.a, complete_with_sink=args.complete_with_sink)
    b = io.load_file(args.b, complete_with_sink=args.complete_with_sink)
    check = voca_check_equiv if a.is_voca() and b.is_voca() else check_sync_equiv
    verdict = check(a, b)
    if verdict.equivalent:
        print("equivalent")
        return 0
    ce = verdict.counterexample
    print(f"not equivalent ({ce.kind}): {ce.word or 'ε'}")
    return 1


def _cmd_generate(args) -> int:
    machine = generate_droca(GenConfig(n_states=args.states,
                                       alphabet_size=args.alphabet,
                                       seed=args.seed,
                                       restricted=args.restricted))
    io.store_file(machine, args.out)
    print(f"wrote {machine.size}-state machine to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(min_states=args.min_states, max_states=args.max_states,
                         min_alphabet=args.min_alphabet,
                         max_alphabet=args.max_alphabet,
                         samples=args.samples, seed=args.seed,
                         timeout_s=args.timeout_s, restricted=args.restricted,
                         jobs=args.jobs, out_path=args.out,
                         solver=_solver_config(args.sat))
    rows = run_benchmark(config)
    succeeded = sum(row["success"] for row in rows)
    print(f"{succeeded}/{len(rows)} sessions succeeded; rows written to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    machine = io.load_file(args.target, complete_with_sink=args.complete_with_sink)
    trace = machine.run(args.word)
    print(f"Enc({args.word or 'ε'}) = {pretty_encoded(machine.encode(args.word))}")
    steps = [f"({trace.configs[0].state},{trace.configs[0].counter})"]
    for i, letter in enumerate(args.word):
        config = trace.configs[i + 1]
        steps.append(f"-{letter}-> ({config.state},{config.counter})")
    verdict = "accepted" if trace.accepted else "rejected"
    print(f"trace: {' '.join(steps)} [{verdict}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
