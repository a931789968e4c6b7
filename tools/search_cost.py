"""Print what the per-step root search costs on the five tuned reference
runs of `run_census.RUNS`.

One line per run, each figure a mean per accepted step unless noted:

- `probes`: defect evaluations, that is members of batched stage solves;
- `solves`: stage solves, each one batch (a probe round);
- `vf_calls`: `HamiltonianSystem.vector_field` calls;
- `delta/h^2r`: the band of the per-step roots over the root scale h^{2r};
- `max|dH|`: the largest |H(y_k) - H(y_0)| of the run;
- `solve_share`: the time spent in the search's stage solves over the time
  spent in `solve_alpha`, both from `time.perf_counter` around every call.
  It is a wall-time ratio of one run, so it swings with the machine's load
  by a few points from one invocation to the next; take the median of
  several for a figure worth quoting.

The counts are read by wrapping `conserve.step`, `experiments.solve_alpha`
and `HamiltonianSystem.vector_field` for the run, and the probe count is
checked against the run's own `TrajectoryRecord.g_evals`.

usage: PYTHONPATH=src python tools/search_cost.py [PREFIX ...]
It measures the runs whose name opens with a PREFIX (all five without
arguments, about 5 s on a 2-CPU machine).
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

import numpy as np
import run_census

from sympulse import conserve, experiments
from sympulse.experiments import integrate
from sympulse.problems import HamiltonianSystem

RUNS = {name: spec for name, spec in run_census.RUNS.items() if spec.tunes_alpha}

COLUMNS = ("probes", "solves", "vf_calls", "delta/h^2r", "max|dH|", "solve_share")


def measure(spec):
    """Integrate `spec` with the search's calls wrapped; returns
    (TrajectoryRecord, totals) where totals counts `members` (probes),
    `solves` and `vector_field` calls, and sums `solve_s` and `search_s`,
    the seconds inside the stage solves and inside `solve_alpha`."""
    totals = SimpleNamespace(members=0, solves=0, vector_field=0, solve_s=0.0, search_s=0.0)
    step, solve_alpha = conserve.step, experiments.solve_alpha
    vector_field = HamiltonianSystem.vector_field

    def timed_step(system, tableau, *args):
        start = time.perf_counter()
        result = step(system, tableau, *args)
        totals.solve_s += time.perf_counter() - start
        totals.solves += 1
        totals.members += tableau.A.shape[0] if tableau.A.ndim == 3 else 1
        return result

    def timed_search(*args):
        start = time.perf_counter()
        record = solve_alpha(*args)
        totals.search_s += time.perf_counter() - start
        return record

    def counted_field(system, y):
        totals.vector_field += 1
        return vector_field(system, y)

    conserve.step, experiments.solve_alpha = timed_step, timed_search
    HamiltonianSystem.vector_field = counted_field
    try:
        record = integrate(spec)
    finally:
        conserve.step, experiments.solve_alpha = step, solve_alpha
        HamiltonianSystem.vector_field = vector_field
    if totals.members != record.g_evals.sum():
        raise AssertionError(
            f"{totals.members} probes counted, the record's g_evals sum to {record.g_evals.sum()}"
        )
    return record, totals


def cost_row(spec):
    """The figures of `COLUMNS` for one run, formatted."""
    record, totals = measure(spec)
    steps = record.g_evals.size
    return (
        f"{totals.members / steps:.2f}",
        f"{totals.solves / steps:.2f}",
        f"{totals.vector_field / steps:.2f}",
        f"{record.delta / spec.root_scale:.6f}",
        f"{np.max(np.abs(record.energy_error)):.1e}",
        f"{totals.solve_s / totals.search_s:.2f}",
    )


def main(argv):
    names = [name for name in RUNS if name.startswith(tuple(argv) or ("",))]
    print(f"{'run':<26}" + "".join(f"{c:>12}" for c in COLUMNS) + "  (solve_share is noisy)")
    for name in names:
        print(f"{name:<26}" + "".join(f"{v:>12}" for v in cost_row(RUNS[name])))


if __name__ == "__main__":
    main(sys.argv[1:])
