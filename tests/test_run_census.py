import importlib.util
import pathlib
import re

from sympulse.experiments import RunSpec

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "run_census.py"
_SPEC = importlib.util.spec_from_file_location("run_census", _PATH)
run_census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_census)

LINE = re.compile(r"^(\S+) (\S+) (\d) (\S+) (\S+) (ok|fail@\d+) ([0-9a-f]{64})$")


def test_the_grid_holds_1056_distinct_runs():
    specs = list(run_census.census_specs())
    assert len(specs) == 1056
    assert len({(s.problem, s.e, s.s, s.method, s.h) for s in specs}) == 1056


def test_a_failed_and_a_finished_run():
    # plain Gauss at h=1 cannot solve Kepler's first stage system; at
    # h=0.1 the harmonic oscillator runs to t=20
    failed = RunSpec("kepler", "gauss", 2, 1.0, 20.0, e=0.6)
    finished = RunSpec("harmonic", "gauss", 2, 0.1, 20.0)
    lines = [run_census.census_line(spec) for spec in (failed, finished)]
    assert [LINE.match(line).groups()[:6] for line in lines] == [
        ("kepler", "0.6", "2", "gauss", "1.0", "fail@0"),
        ("harmonic", "-", "2", "gauss", "0.1", "ok"),
    ]
    assert [run_census.census_line(spec) for spec in (failed, finished)] == lines
