import subprocess
import sys

import same_numbers


def test_this_checkout_matches_itself():
    result = subprocess.run(
        [sys.executable, same_numbers.__file__, str(same_numbers.SRC), "harmonic"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["run_census: 885 lines, 0 differ"]


def test_report_marks_each_differing_line_with_its_side(capsys):
    other = ["a 1", "b 2", "c 3"]
    this = ["a 1", "b 9", "c 3", "d 4"]
    assert same_numbers.report("tool", other, this) == 2
    assert capsys.readouterr().out.splitlines() == [
        "< b 2", "> b 9", "> d 4", "tool: 4 lines, 2 differ",
    ]
    assert same_numbers.report("tool", this, this) == 0
    assert capsys.readouterr().out == "tool: 4 lines, 0 differ\n"


def test_a_changed_outcome_shifts_no_other_line(capsys):
    # run r1 finishes on one side and fails on the other; compared position
    # by position, every line after it would differ
    other = ["r1 states 1", "r1 g_evals 2", "r2 states 3", "r2 g_evals 4", "r3 fail@2 5"]
    this = ["r1 fail@7 6", "r2 states 3", "r2 g_evals 4", "r3 fail@2 5"]
    assert same_numbers.report("tool", other, this) == 3
    assert capsys.readouterr().out.splitlines() == [
        "< r1 states 1", "< r1 g_evals 2", "> r1 fail@7 6",
        "tool: 5 lines, 3 differ",
        "outcome changed: r1: finished -> fail@7",
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
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "tool: 6 lines, 7 differ",
        "outcome changed: kepler 0.3 5 ep-gauss 0.3: finished -> fail@9",
        "outcome changed: quartic - 2 gauss 1.0: fail@16 -> fail@15",
    ]


def test_a_failed_census_names_its_side_and_exits_2(tmp_path, capsys):
    # a directory that holds no sympulse: its census cannot import the package
    assert same_numbers.main([str(tmp_path), "harmonic"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"PYTHONPATH={tmp_path} failed" in err
    assert "No module named 'sympulse'" in err
