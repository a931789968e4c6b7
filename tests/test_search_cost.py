import pytest
import run_census
import search_cost

from sympulse import conserve, experiments
from sympulse.experiments import RunSpec, integrate
from sympulse.problems import HamiltonianSystem

SHORT = RunSpec("kepler", "ep-gauss", 2, 2.0**-5, 0.5)


def test_runs_are_the_tuned_census_runs():
    # the census's own specs, not a copy of them
    tuned = [(name, spec) for name, spec in run_census.RUNS.items() if spec.tunes_alpha]
    assert [(name, id(spec)) for name, spec in search_cost.RUNS.items()] == [
        (name, id(spec)) for name, spec in tuned
    ]
    assert list(search_cost.RUNS) == [
        "kepler-ep-gauss-s2", "quartic-ep-gauss-s3", "quartic-type2-s3",
        "henon-heiles-type2-s3", "henon-heiles-ep-gauss-s3",
    ]


def test_counts_agree_with_the_record():
    record, totals = search_cost.measure(SHORT)
    steps = record.g_evals.size
    assert steps == 16
    assert totals.members == record.g_evals.sum()
    # every search solves at least two rounds, each of at least one probe,
    # and every solve sweeps the vector field at least once
    assert 2 * steps <= totals.solves <= totals.members
    assert totals.vector_field >= totals.solves
    assert 0.0 < totals.solve_s < totals.search_s
    # the wrapped run is the run
    assert record.states.tobytes() == integrate(SHORT).states.tobytes()


def test_count_columns_are_the_per_step_means():
    row = search_cost.cost_row(SHORT)
    record, totals = search_cost.measure(SHORT)
    assert len(row) == len(search_cost.COLUMNS)
    assert float(row[0]) == pytest.approx(record.g_evals.mean(), abs=0.005)
    assert float(row[1]) == pytest.approx(totals.solves / 16, abs=0.005)
    assert float(row[2]) == pytest.approx(totals.vector_field / 16, abs=0.005)
    assert float(row[3]) == pytest.approx(record.delta / SHORT.root_scale, rel=1e-5)


def test_wrappers_are_removed_after_the_run():
    originals = (conserve.step, experiments.solve_alpha, HamiltonianSystem.vector_field)
    search_cost.measure(SHORT)
    # plain Gauss at h=1 fails in step 0 (see tests/test_run_census.py)
    with pytest.raises(experiments.IntegrationError):
        search_cost.measure(RunSpec("kepler", "gauss", 2, 1.0, 2.0))
    assert (conserve.step, experiments.solve_alpha, HamiltonianSystem.vector_field) == originals

