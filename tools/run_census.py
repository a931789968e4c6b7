"""Print the census: a sha256 digest of each array of every census run.

The census holds the nine named reference runs of RUNS, printed first under
their names, and then a grid of 1056 runs, each named `problem e s method h`
with `e` given as `-` off Kepler.  The grid crosses the problems (Kepler at
e = 0.6, 0.3 and 0.9, the quartic, Henon-Heiles and the harmonic
oscillator), the stage counts 1..5, the stepsizes of H_VALUES and the
methods `gauss`, `fixed-alpha` at alpha 0.01, `ep-gauss` and
`ep-gauss-type2`; a run whose coupling does not exist (any perturbed method
at s=1) or repeats another (type 2 at s=2 perturbs the coupling that
`ep-gauss` does) is left out.  Fixed-tableau grid runs go to t=20 and tuned
ones to t=5.

A run that finishes prints one line `id array digest` per array (the
states, the per-step roots `alpha_trace`, the energy error, each invariant
error, `stage_iters` and `g_evals`), the digest taken over the array's raw
bytes.  A run that fails prints one line `id fail@<step> digest`, the
digest taken over the state the failed step started from.  Two checkouts
that print the same lines run every census point to the same end, bit for
bit; `tools/same_numbers.py` runs the tool against two checkouts and diffs
the output.

usage: PYTHONPATH=src python tools/run_census.py [PROBLEM ...]
PROBLEM restricts the census to the runs of the named problems (`kepler`
takes all three eccentricities); without arguments every run is made, in
about 15 s on a 2-CPU machine.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from sympulse.experiments import IntegrationError, RunSpec, integrate

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
PROBLEMS = (
    ("kepler", 0.6), ("kepler", 0.3), ("kepler", 0.9),
    ("quartic", None), ("henon-heiles", None), ("harmonic", None),
)
STAGES = range(1, 6)
H_VALUES = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 2.0**-5)
METHODS = ("gauss", "fixed-alpha", "ep-gauss", "ep-gauss-type2")
FIXED_ALPHA = 0.01
T_END = {"gauss": 20.0, "fixed-alpha": 20.0, "ep-gauss": 5.0, "ep-gauss-type2": 5.0}


def census(problems=()):
    """The id and RunSpec of every census run, in census order, restricted
    to the runs of the problem names in `problems` when given."""
    for name, spec in RUNS.items():
        if not problems or spec.problem in problems:
            yield name, spec
    for problem, e in PROBLEMS:
        if problems and problem not in problems:
            continue
        for s in STAGES:
            for method in METHODS:
                if (s == 1 and method != "gauss") or (s == 2 and method == "ep-gauss-type2"):
                    continue
                for h in H_VALUES:
                    alpha = FIXED_ALPHA if method == "fixed-alpha" else 0.0
                    spec = RunSpec(problem, method, s, h, T_END[method], e=e, alpha=alpha)
                    yield f"{problem} {'-' if e is None else repr(e)} {s} {method} {h!r}", spec


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


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
    return {name: sha256(a) for name, a in arrays.items()}


def run_lines(run_id, spec):
    """The census lines of the run of `spec`, named `run_id`."""
    try:
        # overflow in a failing run is reported by its IntegrationError
        with np.errstate(all="ignore"):
            record = integrate(spec)
    except IntegrationError as exc:
        return [f"{run_id} fail@{exc.step_index} {sha256(exc.state)}"]
    return [f"{run_id} {name} {digest}" for name, digest in digests(record).items()]


def main(argv):
    for run_id, spec in census(argv):
        print("\n".join(run_lines(run_id, spec)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
