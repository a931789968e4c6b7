"""Print sha256 digests of the reference trajectories.

Each reference run is integrated once, and for each of its arrays (the
states, the per-step roots `alpha_trace`, the energy error, each invariant
error, `stage_iters` and `g_evals`) one line `run array digest` is printed,
the digest taken over the array's raw bytes.  Two checkouts that print the
same lines produce byte-identical trajectories; a change that claims to
keep them can be checked by diffing the output of the two.

usage: PYTHONPATH=src python tools/trajectory_hashes.py [PREFIX ...]
It prints the runs of RUNS whose name opens with a PREFIX, a run's full
name or a problem such as `kepler`; without arguments it prints every run,
which takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from sympulse.experiments import RunSpec, integrate

RUNS = {
    "kepler-ep-gauss-s2": RunSpec("kepler", "ep-gauss", 2, 2.0**-5, 50.0),
    "quartic-ep-gauss-s3": RunSpec("quartic", "ep-gauss", 3, 2.0**-5, 50.0),
    "quartic-type2-s3": RunSpec("quartic", "ep-gauss-type2", 3, 2.0**-3, 50.0),
    "henon-heiles-type2-s3": RunSpec("henon-heiles", "ep-gauss-type2", 3, 0.25, 250.0),
    "henon-heiles-ep-gauss-s3": RunSpec("henon-heiles", "ep-gauss", 3, 0.25, 500.0),
    "quartic-gauss-s3": RunSpec("quartic", "gauss", 3, 2.0**-9, 2.0),
    "harmonic-gauss-s2": RunSpec("harmonic", "gauss", 2, 2.0**-4, 10.0),
    "kepler-fixed-alpha-s2": RunSpec("kepler", "fixed-alpha", 2, 2.0**-5, 10.0, alpha=0.01),
    # 0.3 does not divide 1: the last step is a shortened one
    "kepler-gauss-partial": RunSpec("kepler", "gauss", 2, 0.3, 1.0),
}


def digests(record):
    """The sha256 hex digest of each array of `record`, by name."""
    arrays = {
        "states": record.states,
        "alpha_trace": record.alpha_trace,
        "energy_error": record.energy_error,
        **{f"{name}_err": err for name, err in record.invariant_errors.items()},
        "stage_iters": record.stage_iters,
        "g_evals": record.g_evals,
    }
    return {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }


def main(argv):
    for run in [run for run in RUNS if run.startswith(tuple(argv) or ("",))]:
        for name, digest in digests(integrate(RUNS[run])).items():
            print(f"{run} {name} {digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
