"""Print one line per run of the census grid: how each run ends, and a
digest of what it produced.

The grid crosses the problems (Kepler at e = 0.6, 0.3 and 0.9, the quartic,
Henon-Heiles and the harmonic oscillator), the stage counts 1..5, the
stepsizes of H_VALUES and the methods `gauss`, `fixed-alpha` at alpha 0.01,
`ep-gauss` and `ep-gauss-type2`; a run whose coupling does not exist (any
perturbed method at s=1) or repeats another (type 2 at s=2 perturbs the
coupling that `ep-gauss` does) is left out, which leaves 1056 runs.
Fixed-tableau runs go to t=20 and tuned runs to t=5.

Each line reads `problem e s method h outcome digest`: `e` is `-` off
Kepler, `outcome` is `ok` or `fail@<step>`, and `digest` is one sha256 over
the `trajectory_hashes.digests` of the record, or, for a failed run, over
the state the failed step started from.  Two checkouts that print the same
lines run every census point to the same end, bit for bit; run the tool
with PYTHONPATH set to each checkout's `src` and diff the output.

usage: PYTHONPATH=src python tools/run_census.py [PROBLEM ...]
PROBLEM restricts the grid to the named problems (`kepler` takes all three
eccentricities); without arguments the whole grid runs, in about 15 s on a
2-CPU machine.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import sys

import numpy as np

from sympulse.experiments import IntegrationError, RunSpec, integrate

_PATH = pathlib.Path(__file__).resolve().parent / "trajectory_hashes.py"
_SPEC = importlib.util.spec_from_file_location("trajectory_hashes", _PATH)
trajectory_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory_hashes)

PROBLEMS = (
    ("kepler", 0.6), ("kepler", 0.3), ("kepler", 0.9),
    ("quartic", None), ("henon-heiles", None), ("harmonic", None),
)
STAGES = range(1, 6)
H_VALUES = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 2.0**-5)
METHODS = ("gauss", "fixed-alpha", "ep-gauss", "ep-gauss-type2")
FIXED_ALPHA = 0.01
T_END = {"gauss": 20.0, "fixed-alpha": 20.0, "ep-gauss": 5.0, "ep-gauss-type2": 5.0}


def census_specs(problems=None):
    """The RunSpec of every census run, in grid order, restricted to the
    problem names in `problems` when given."""
    for problem, e in PROBLEMS:
        if problems and problem not in problems:
            continue
        for s in STAGES:
            for method in METHODS:
                if (s == 1 and method != "gauss") or (s == 2 and method == "ep-gauss-type2"):
                    continue
                for h in H_VALUES:
                    alpha = FIXED_ALPHA if method == "fixed-alpha" else 0.0
                    yield RunSpec(problem, method, s, h, T_END[method], e=e, alpha=alpha)


def census_line(spec):
    """The census line of one run."""
    digest = hashlib.sha256()
    try:
        # overflow in a failing run is reported by its IntegrationError
        with np.errstate(all="ignore"):
            record = integrate(spec)
    except IntegrationError as exc:
        outcome = f"fail@{exc.step_index}"
        digest.update(exc.state.tobytes())
    else:
        outcome = "ok"
        for name, value in trajectory_hashes.digests(record).items():
            digest.update(f"{name} {value}\n".encode())
    e = "-" if spec.e is None else repr(spec.e)
    return f"{spec.problem} {e} {spec.s} {spec.method} {spec.h!r} {outcome} {digest.hexdigest()}"


def main(argv):
    for spec in census_specs(argv):
        print(census_line(spec), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
