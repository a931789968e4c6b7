import os
import shutil
import subprocess
import sys

import same_numbers


def test_this_checkout_matches_itself():
    result = subprocess.run(
        [sys.executable, same_numbers.__file__, str(same_numbers.SRC), "harmonic"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "run_census: 885 lines, 0 differ", NONE_DIFFER,
    ]


NONE_DIFFER = "runs differing by method: gauss 0, fixed-alpha 0, ep-gauss 0, ep-gauss-type2 0"


def test_report_marks_each_differing_line_with_its_side(capsys):
    other = [
        "harmonic - 1 gauss 1.0 states 1", "harmonic - 2 gauss 1.0 states 2",
        "harmonic - 3 gauss 1.0 states 3",
    ]
    this = [
        "harmonic - 1 gauss 1.0 states 1", "harmonic - 2 gauss 1.0 states 9",
        "harmonic - 3 gauss 1.0 states 3", "harmonic - 3 fixed-alpha 1.0 states 4",
    ]
    assert same_numbers.report("tool", other, this) == 2
    assert capsys.readouterr().out.splitlines() == [
        "< harmonic - 2 gauss 1.0 states 2", "> harmonic - 2 gauss 1.0 states 9",
        "> harmonic - 3 fixed-alpha 1.0 states 4", "tool: 4 lines, 2 differ",
        "runs differing by method: gauss 1, fixed-alpha 1, ep-gauss 0, ep-gauss-type2 0",
    ]
    assert same_numbers.report("tool", this, this) == 0
    assert capsys.readouterr().out.splitlines() == ["tool: 4 lines, 0 differ", NONE_DIFFER]


def test_a_changed_outcome_shifts_no_other_line(capsys):
    # a named run finishes on one side and fails on the other; compared
    # position by position, every line after it would differ
    other = [
        "harmonic-gauss-s2 states 1", "harmonic-gauss-s2 g_evals 2",
        "quartic-type2-s3 states 3", "quartic-type2-s3 g_evals 4",
        "kepler-gauss-partial fail@2 5",
    ]
    this = [
        "harmonic-gauss-s2 fail@7 6",
        "quartic-type2-s3 states 3", "quartic-type2-s3 g_evals 4",
        "kepler-gauss-partial fail@2 5",
    ]
    assert same_numbers.report("tool", other, this) == 3
    assert capsys.readouterr().out.splitlines() == [
        "< harmonic-gauss-s2 states 1", "< harmonic-gauss-s2 g_evals 2",
        "> harmonic-gauss-s2 fail@7 6",
        "tool: 5 lines, 3 differ",
        "runs differing by method: gauss 1, fixed-alpha 0, ep-gauss 0, ep-gauss-type2 0",
        "outcome changed: harmonic-gauss-s2: finished -> fail@7",
    ]


def test_each_changed_outcome_ends_the_report(capsys):
    # grid ids hold spaces; a run whose arrays change but which still
    # finishes, or fails at the same step, keeps its outcome
    other = [
        "kepler 0.3 5 ep-gauss 0.3 states 1", "kepler 0.3 5 ep-gauss 0.3 g_evals 2",
        "quartic - 2 gauss 1.0 fail@16 3", "quartic - 1 gauss 0.6 fail@4 4",
        "harmonic - 5 gauss 0.1 states 5", "quartic - 1 gauss 0.8 fail@2 6",
    ]
    this = [
        "kepler 0.3 5 ep-gauss 0.3 fail@9 7",
        "quartic - 2 gauss 1.0 fail@15 8", "quartic - 1 gauss 0.6 fail@4 4",
        "harmonic - 5 gauss 0.1 states 9", "quartic - 1 gauss 0.8 fail@2 10",
    ]
    assert same_numbers.report("tool", other, this) == 7
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "tool: 6 lines, 7 differ",
        "runs differing by method: gauss 3, fixed-alpha 0, ep-gauss 1, ep-gauss-type2 0",
        "outcome changed: kepler 0.3 5 ep-gauss 0.3: finished -> fail@9",
        "outcome changed: quartic - 2 gauss 1.0: fail@16 -> fail@15",
    ]


def test_differing_runs_are_counted_once_per_method(capsys):
    # two arrays of one grid run count once; a named run takes the method
    # of its RunSpec, and a run on one side only counts too
    other = [
        "quartic - 3 gauss 0.25 states 1", "quartic - 3 gauss 0.25 g_evals 2",
        "kepler 0.6 2 fixed-alpha 0.1 states 3",
        "kepler 0.6 2 ep-gauss 0.1 states 4",
        "kepler-gauss-partial states 5", "quartic-type2-s3 states 6",
    ]
    this = [
        "quartic - 3 gauss 0.25 states 7", "quartic - 3 gauss 0.25 g_evals 8",
        "kepler 0.6 2 fixed-alpha 0.1 states 3",
        "kepler 0.6 2 ep-gauss 0.1 states 4",
        "kepler-gauss-partial states 9", "quartic-type2-s3 states 6",
        "harmonic - 2 fixed-alpha 1.0 fail@3 10",
    ]
    assert same_numbers.report("tool", other, this) == 4
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "tool: 7 lines, 4 differ",
        "runs differing by method: gauss 2, fixed-alpha 1, ep-gauss 0, ep-gauss-type2 0",
    ]


def test_a_failed_census_names_its_side_and_exits_2(tmp_path, capsys):
    # a directory that holds no sympulse: its census cannot import the package
    assert same_numbers.main([str(tmp_path), "harmonic"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"PYTHONPATH={tmp_path} failed" in err
    assert "No module named 'sympulse'" in err


def test_a_package_of_this_checkout_that_does_not_import_fails_its_census(tmp_path):
    # a copy of the tools beside a package with a syntax error: this
    # checkout's side fails its census, and the tool names that side and
    # exits 2 rather than stopping on the package's import itself
    tools = tmp_path / "tools"
    tools.mkdir()
    for name in ("same_numbers.py", "run_census.py"):
        shutil.copy(same_numbers.TOOLS / name, tools / name)
    (tmp_path / "src" / "sympulse").mkdir(parents=True)
    (tmp_path / "src" / "sympulse" / "__init__.py").write_text("def broken(:\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # no census run is named "pendulum": the other side prints nothing
    result = subprocess.run(
        [sys.executable, str(tools / "same_numbers.py"), str(same_numbers.SRC), "pendulum"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert f"PYTHONPATH={tmp_path / 'src'} failed: SyntaxError" in result.stderr
