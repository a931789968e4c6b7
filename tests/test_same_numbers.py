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
