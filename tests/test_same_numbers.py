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


def test_a_failed_census_names_its_side_and_exits_2(tmp_path, capsys):
    # a directory that holds no sympulse: its census cannot import the package
    assert same_numbers.main([str(tmp_path), "harmonic"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"PYTHONPATH={tmp_path} failed" in err
    assert "No module named 'sympulse'" in err
