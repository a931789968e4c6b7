import code_lines
import pytest

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment does not hide the code


# a comment line
def f(x):
    """One-line docstring."""
    "a bare string statement"
    return math.hypot(
        x,
        1.0,
    )
'''


def test_counts_only_lines_with_code():
    # import, def, and the four lines of the return call
    assert code_lines.code_lines(SOURCE) == 6


@pytest.mark.parametrize("source", ["", "\n\n", "# only a comment\n", '"""doc"""\n'])
def test_comments_docstrings_and_blank_lines_count_zero(source):
    assert code_lines.code_lines(source) == 0


def test_a_string_in_an_expression_is_code():
    assert code_lines.code_lines('x = (\n    "a"\n    "b"\n)\n') == 4
