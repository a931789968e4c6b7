import hashlib

import numpy as np
import run_census

from sympulse.experiments import RunSpec, integrate

ARRAYS = ["states", "alpha_trace", "energy_error", "L_err", "stage_iters", "g_evals"]


def test_the_census_holds_the_named_runs_then_1056_distinct_grid_runs():
    runs = list(run_census.census())
    assert [run_id for run_id, _ in runs[:9]] == list(run_census.RUNS)
    grid = [spec for _, spec in runs[9:]]
    assert len(grid) == 1056
    assert len({(s.problem, s.e, s.s, s.method, s.h) for s in grid}) == 1056
    assert len({run_id for run_id, _ in runs}) == 1065


def test_problem_names_filter_named_and_grid_runs():
    runs = list(run_census.census(["harmonic", "pendulum"]))
    assert runs[0][0] == "harmonic-gauss-s2"
    assert runs[1][0] == "harmonic - 1 gauss 1.0"
    assert len(runs) == 1 + 176
    assert {spec.problem for _, spec in runs} == {"harmonic"}


def test_digests_cover_every_array_of_a_short_run():
    record = integrate(RunSpec("kepler", "ep-gauss", 2, 2**-5, 0.25))
    digests = run_census.digests(record)
    assert list(digests) == ARRAYS
    assert digests["states"] == hashlib.sha256(record.states.tobytes()).hexdigest()
    assert digests["g_evals"] == hashlib.sha256(record.g_evals.tobytes()).hexdigest()
    # a second run of the same spec is byte-identical
    assert run_census.digests(integrate(record.spec)) == digests


def test_a_changed_last_bit_changes_the_digest():
    record = integrate(RunSpec("harmonic", "gauss", 2, 0.25, 1.0))
    before = run_census.digests(record)["states"]
    record.states[-1, 0] = np.nextafter(record.states[-1, 0], np.inf)
    assert run_census.digests(record)["states"] != before


def test_a_finished_run_prints_one_line_per_array_and_a_failed_run_one():
    # plain Gauss at h=1 cannot solve Kepler's first stage system
    failed = RunSpec("kepler", "gauss", 2, 1.0, 20.0, e=0.6)
    runs = {"f": failed, "p": run_census.RUNS["kepler-gauss-partial"]}
    lines = [run_census.run_lines(run_id, spec) for run_id, spec in runs.items()]
    assert [[line.split()[:2] for line in run] for run in lines] == [
        [["f", "fail@0"]], [["p", array] for array in ARRAYS],
    ]
    assert all(len(line.split()[2]) == 64 for run in lines for line in run)
    assert run_census.run_lines("f", failed) == lines[0]
