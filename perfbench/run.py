"""ocalearn benchmark: learning sessions and equivalence checks.

    python3 perfbench/run.py --workload learn-random --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs one operation at a time (a closed loop): a
learning session on ``learn-random`` and ``learn-frontier``, an
equivalence check on ``equiv-pairs``.  The run repeats whole rounds of
the workload's operations until ``--seconds`` have passed, checks every
output with the independent checker in ``checker.py``, and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics, times at the reference host speed of ``speed.py``; ``--trace 1`` repeats the same rounds with the layers wrapped by
``tracer.py`` and reports the per-layer metrics instead, the tracing
overhead among them.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_sizes.json"
WORKLOADS = ("learn-random", "learn-frontier", "equiv-pairs")
SETUP_PROBES = 4       # fresh interpreters timing import + input generation
CROSS_CHECK_MAX_STATES = 7   # voca split pairs cross-checked with the sync search
STATS_COMPARED = ("learnt_states", "n_seq", "n_mq", "n_cv", "n_sat", "max_ce_len", "final_d")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import and input generation, print seconds")
    return parser.parse_args(argv)


def locate_program() -> None:
    if not (SRC / "ocalearn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ocalearn sources under {SRC}")
    sys.path.insert(0, str(SRC))


def make_inputs(workload: str, seed: int):
    import inputs
    if workload == "equiv-pairs":
        return inputs.equiv_pairs(seed)
    return inputs.learn_targets(workload, seed)


def timed_setup(workload: str, seed: int):
    """Set-up time at the reference speed, and the inputs."""
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        data = make_inputs(workload, seed)
        end = time.perf_counter()
    return probe.reference_seconds(start, end), data


def probe_setup(args) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", "--setup-probe"],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def learn_op(target, call):
    import ocalearn
    teacher = ocalearn.SimulatedTeacher(target.machine)
    return call("learning.learn", ocalearn.learn, teacher, ocalearn.LearnConfig())


def equiv_op(pair, call):
    from ocalearn import equivalence
    # looked up at call time, so a tracer's wrappers are seen
    check = equivalence.check_sync_equiv if pair.checker == "sync" else equivalence.voca_check_equiv
    return check(pair.a, pair.b)


def measure(items, op, call, seconds=None, rounds=None):
    """Whole rounds over ``items`` until ``seconds`` passed (at least
    one), or exactly ``rounds``.  Returns the (start, end) of every op,
    per-round results (an exception object for a failed op) and the wall
    time."""
    from ocalearn import WorkbenchError
    spans, results = [], []
    start = time.perf_counter()
    while True:
        outputs = []
        for item in items:
            t = time.perf_counter()
            try:
                outputs.append(op(item, call))
            except WorkbenchError as error:
                outputs.append(error)
            spans.append((t, time.perf_counter()))
        results.append(outputs)
        if rounds is not None:
            if len(results) == rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return spans, results, time.perf_counter() - start


def check_outputs(workload, items, results) -> tuple[list[str], int]:
    """Independent checks of every output.  Returns the problems found
    and the number of failed operations, which are not problems."""
    import checker
    from ocalearn import WorkbenchError, check_sync_equiv
    reference = {} if workload == "equiv-pairs" else \
        json.loads(REFERENCE.read_text()).get(workload, {})
    problems, failed = [], 0
    first = results[0]
    for outputs in results:
        for a, b in zip(first, outputs):
            if isinstance(b, WorkbenchError):
                failed += 1
                print(f"perfbench: failed: {type(b).__name__}: {b}", file=sys.stderr)
            elif not same_output(a, b):
                problems.append("a repeated operation gave a different result")
    for item, out in zip(items, first):
        if isinstance(out, WorkbenchError):
            continue
        if workload == "equiv-pairs":
            found = checker.check_verdict(item, out)
            if item.checker == "voca" and (not item.split or item.a.size <= CROSS_CHECK_MAX_STATES):
                if check_sync_equiv(item.a, item.b) != out:
                    found.append("voca_check_equiv and check_sync_equiv disagree")
            problems += [f"{item.checker} {item.variant} pair: {p}" for p in found]
        else:
            size = reference.get(str(item.seed))
            found = checker.check_learnt(item.machine, out[0], size)
            if size is None:
                found.append("no reference size; run perfbench/make_reference.py")
            problems += [f"target {item.seed}: {p}" for p in found]
    return problems, failed


def same_output(a, b) -> bool:
    if isinstance(a, tuple):     # (hypothesis, stats) of a session; wall_ms may differ
        return isinstance(b, tuple) and a[0] == b[0] and \
            [getattr(a[1], f) for f in STATS_COMPARED] == [getattr(b[1], f) for f in STATS_COMPARED]
    return a == b


def session_counts(results) -> dict[str, int]:
    """Query and SAT-call totals of the first round's sessions."""
    stats = [out[1] for out in results[0] if isinstance(out, tuple)]
    return {"n_seq": sum(s.n_seq for s in stats), "n_mq": sum(s.n_mq for s in stats),
            "n_cv": sum(s.n_cv for s in stats), "n_sat": sum(s.n_sat for s in stats),
            "max_ce_len_sum": sum(s.max_ce_len for s in stats)}


def end_to_end(setup_s, times, rounds, rss_mb):
    """Latency percentiles are taken over the operations of a round, each
    timed as the median of its repetitions in the run's rounds."""
    n = len(times) // rounds
    ms = [statistics.median(times[i::n]) * 1000 for i in range(n)]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (p90, "ms"),
            "peak_rss_mb": (rss_mb, "MB")}


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)[0]))
        return 0
    own_setup, items = timed_setup(args.workload, args.seed)

    import tracer
    op = equiv_op if args.workload == "equiv-pairs" else learn_op
    with speed.SpeedProbe() as probe:
        spans, results, wall = measure(items, op, tracer.plain_call, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(results)
    counts = {} if args.workload == "equiv-pairs" else session_counts(results)
    if args.trace:
        with tracer.Tracer() as trace, speed.SpeedProbe() as traced_probe:
            items = make_inputs(args.workload, args.seed)
            traced_spans, traced_results, _ = measure(items, op, trace.call, rounds=rounds)
        results += traced_results
        metrics = trace.metrics(rounds)
        metrics.update({f"learning.{name}": value for name, value in counts.items()})
        # both sides at the reference speed, so that the host's drift
        # between the two passes does not count as overhead
        untraced = sum(probe.reference_seconds(*span) for span in spans)
        overhead = sum(traced_probe.reference_seconds(*span) for span in traced_spans) - untraced
        metrics["trace.overhead_ms"] = overhead / rounds * 1000
        metrics["trace.overhead_pct"] = overhead / untraced * 100
        named = {name: (metrics[name], tracer.unit(name)) for name in tracer.PER_LAYER}
    else:
        setup_s = statistics.median([own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)])
        named = end_to_end(setup_s, [probe.reference_seconds(*span) for span in spans],
                           rounds, rss_mb)
        wall_named = end_to_end(setup_s, [probe.wall_seconds(*span) for span in spans],
                                rounds, rss_mb)
    problems, failed = check_outputs(args.workload, items, results)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(items)} operations x {rounds} round(s) "
          f"in {wall:.2f} s" + "".join(f", {k}={v}" for k, v in counts.items()))
    for name, (value, unit) in named.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    if not args.trace:
        print(f"  at the host's own speed (probe median {probe.median_ms():.3f} ms): " + ", ".join(
            f"{name} {wall_named[name][0]:.4f}" for name in ("ops_per_s", "op_ms_p50", "op_ms_p90")))
    if args.trace and args.workload != "equiv-pairs":
        session_ms = metrics["learning.learn_ms"]
        print(f"  wrapped layers cover {100 * (1 - metrics['learning.other_ms'] / session_ms):.1f}% "
              "of the traced session time")

    result = {"correct": not problems, "attempted": len(items) * len(results),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in named.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "rounds": rounds, "counts": counts, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
