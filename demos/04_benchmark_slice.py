"""Walkthrough: a small benchmark sweep.

Generates random machines per (state count, alphabet size) cell, learns
each under a timeout, and prints the per-cell statistics that the CSV
harness records.  The restricted generator only lets final states be
entered at counter zero without changing it, which makes acceptance by
final state coincide with acceptance by final state and empty counter.
"""

import statistics

from ocalearn.bench import BenchConfig, run_benchmark

config = BenchConfig(min_states=2, max_states=5, samples=5, seed=2024,
                     timeout_s=120, restricted=True)
rows = run_benchmark(config)

print(f"{'states':>6} {'ok':>3} {'avg ms':>8} {'avg seq':>8} "
      f"{'avg mq':>8} {'avg learnt':>10}")
for n in range(2, 6):
    cell = [row for row in rows if row["target_states"] == n]
    ok = sum(row["success"] for row in cell)
    print(f"{n:>6} {ok:>2}/{len(cell)} "
          f"{statistics.mean(row['wall_ms'] for row in cell):>8.0f} "
          f"{statistics.mean(row['n_seq'] for row in cell):>8.1f} "
          f"{statistics.mean(row['n_mq'] for row in cell):>8.0f} "
          f"{statistics.mean(row['learnt_states'] for row in cell):>10.1f}")

print()
print("every learnt machine is at most as large as its target:",
      all(row["learnt_states"] <= row["target_states"]
          for row in rows if row["success"]))
