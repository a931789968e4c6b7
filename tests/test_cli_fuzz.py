"""Command-line fuzz: every drawn command line of `tableau`, `integrate`,
`converge` and `levelmap` exits 0, 1 or 2, prints no traceback, no numpy
scalar and no warning, and one that fails prints exactly one line, which
opens with `sympulse:`.

Each flag is drawn from a small grammar: the float extremes +-1e308 and
5e-324, zeros of both signs, negatives, nan and inf, exact powers 2^k with
|k| up to 1100 (the ends of the float range 2^-1074 and 2^1023 and the
powers just past them among the stepsizes), plain values, empty and one-element lists, and garbage.  A
flag mostly takes a value of its own kind (a stepsize for `--h`, a small
value for `--alpha`), so that many lines run, and one time in eight any
token of the grammar.

Every drawn run is cheap by construction.  An integration ends at
t0 + n h for a step count n of at most 20, or at a time that is refused
before any array is allocated; a convergence study ends within three of its
smallest stepsizes, so that a fine-step reference makes at most 768 steps;
a level grid has at most 5 x 5 cells.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from sympulse.cli import UsageError, parse_stepsize, parse_value_list, run

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

SPECIAL = ["1e308", "-1e308", "5e-324", "-5e-324", "0", "-0.0", "nan", "inf", "-inf"]
GARBAGE = ["", "x", "1..2", "0x10", "2^", "2^0.5", "1e", "-", "--"]
PROBLEMS = ["kepler", "quartic", "henon-heiles", "harmonic"]
METHODS = ["gauss", "fixed-alpha", "ep-gauss", "ep-gauss-type2"]
DIM = {"kepler": 4, "quartic": 4, "henon-heiles": 4, "harmonic": 2}
INTEGERS = ["-1", "0", "1", "2", "3", "4", "10", "11", "99999999999999999999", "2.5", "x", ""]


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def numbers():
    """Any number token: an extreme, a plain value, a power of two, or garbage."""
    return st.one_of(
        st.sampled_from(SPECIAL),
        floats(-10.0, 10.0),
        st.integers(-1100, 1100).map(lambda k: f"2^{k}"),
        st.sampled_from(GARBAGE),
    )


def mostly(good):
    """A token of `good` seven times in eight, else any number token."""
    # `one_of` would merge the repeated branch into one
    return st.sampled_from([good] * 7 + [numbers()]).flatmap(lambda s: s)


STEPS = mostly(
    st.one_of(
        st.integers(-12, 1).map(lambda k: f"2^{k}"),
        floats(0.01, 1.0),
        st.sampled_from(
            ["1e308", "5e-324", "2^-1100", "2^1100", "2^1023", "2^1024", "2^-1074", "2^-1075",
             "1e-150"]
        ),
    )
)
ALPHAS = mostly(st.one_of(floats(-0.05, 0.05), st.sampled_from(SPECIAL)))
TIMES = mostly(st.one_of(floats(-5.0, 5.0), st.sampled_from(["0", "-0.0", "1e308", "-1e308"])))
STAGES = mostly(st.sampled_from(["1", "2", "3", "4"]))
INDICES = mostly(st.sampled_from(["1", "2", "3"]))


def value(token, parse=float):
    """The finite float that `token` parses to, else None."""
    try:
        v = parse(token)
    except (ValueError, UsageError):
        return None
    return v if math.isfinite(v) else None


def sometimes(draw, flag, strategy):
    """`[flag, token]` one time in three, else no flag."""
    return [flag, draw(strategy)] if draw(st.integers(0, 2)) == 0 else []


@st.composite
def end_time(draw, t0, h, counts):
    """--t-end: t0 + n h for n in `counts`, where both parse to finite
    values and h is positive; otherwise any time token, because the run is
    then refused before any array is allocated."""
    start, step = value(t0), value(h, parse_stepsize)
    if start is None or step is None or step <= 0.0:
        return draw(TIMES)
    end = start + draw(st.sampled_from(counts)) * step
    # rounding can stretch the span by up to half a unit of `end`; a span
    # that overflows is refused as a step count that is not finite
    steps = (end - start) / step
    assert not (math.isfinite(steps) and steps > 2 * max(counts)), (t0, h)
    return repr(end)


@st.composite
def value_list(draw, items, size):
    """A grid axis of at most `size` tokens of `items`: an explicit list
    (empty and one element included), a halving range, a linear grid, or
    garbage."""
    kind = draw(st.sampled_from(["list", "list", "halving", "linear", "garbage"]))
    if kind == "list":
        n = draw(st.sampled_from(range(size + 1)))
        tokens = draw(st.lists(items, min_size=n, max_size=n))
        if draw(st.booleans()):
            # a stepsize list must decrease
            tokens.sort(key=lambda token: -(value(token, parse_stepsize) or 0.0))
        return ",".join(tokens)
    if kind == "linear":
        n = draw(st.sampled_from([str(k) for k in range(-1, size + 1)] + ["x", ""]))
        # ends whose difference may overflow
        ends = st.one_of(items, st.sampled_from(["-1e308", "1e308"]))
        return f"{draw(ends)}:{draw(ends)}:{n}"
    if kind == "garbage":
        return draw(st.sampled_from(GARBAGE + [",", "1:2:3:4", ":"]))
    start = draw(items)
    a = value(start, parse_stepsize)
    if a is None or a <= 0.0:
        return f"{start}:{draw(items)}"
    stop = draw(
        st.one_of(
            st.integers(0, size - 1).map(lambda j: repr(a / 2.0**j)),
            st.sampled_from(["0", "-1", "nan", "x", repr(2.0 * a)]),
        )
    )
    return f"{start}:{stop}"


def problem_flags(draw):
    problem = draw(mostly(st.sampled_from(PROBLEMS)))
    flags = ["--problem", problem]
    # the other problems refuse --e
    if draw(st.integers(0, 2 if problem == "kepler" else 9)) == 0:
        e = ["0", "0.3", "0.6", "0.9", "0.99999", "-0.0", "5e-324", "1"]
        flags += ["--e", draw(mostly(st.sampled_from(e)))]
    if draw(st.integers(0, 3)) == 0:
        size = draw(st.sampled_from([DIM.get(problem, 4)] * 5 + [0, 1, 5]))
        y0 = st.lists(mostly(floats(-1.5, 1.5)), min_size=size, max_size=size)
        flags += ["--y0", ",".join(draw(y0))]
    return flags


def run_flags(draw):
    method = draw(mostly(st.sampled_from(METHODS)))
    flags = ["--method", method]
    flags += sometimes(draw, "--stages", STAGES)
    flags += sometimes(draw, "--perturb-index", INDICES)
    if method == "fixed-alpha" or draw(st.integers(0, 3)) == 0:
        flags += ["--alpha", draw(ALPHAS)]
    return flags


@st.composite
def tableau_lines(draw):
    return (
        ["tableau", "--stages", draw(st.sampled_from(INTEGERS))]
        + sometimes(draw, "--alpha", ALPHAS)
        + sometimes(draw, "--perturb-index", st.sampled_from(INTEGERS))
        + sometimes(draw, "--format", st.sampled_from(["csv", "json", "xml"]))
    )


@st.composite
def integrate_lines(draw):
    t0, h = draw(TIMES), draw(STEPS)
    t_end = draw(end_time(t0, h, [1, 2, 5.5, 20]))
    return (
        ["integrate", *problem_flags(draw), *run_flags(draw)]
        + ["--t0", t0, "--h", h, "--t-end", t_end]
    )


@st.composite
def converge_lines(draw):
    t0, h_list = draw(TIMES), draw(value_list(STEPS, 3))
    try:
        h_min = repr(float(min(parse_value_list(h_list))))
    except (UsageError, ValueError):
        h_min = "x"
    t_end = draw(end_time(t0, h_min, [1, 2, 3]))
    return (
        ["converge", *problem_flags(draw), *run_flags(draw)]
        + ["--t0", t0, "--h-list", h_list, "--t-end", t_end]
    )


@st.composite
def levelmap_lines(draw):
    return (
        ["levelmap", *problem_flags(draw)]
        + sometimes(draw, "--stages", STAGES)
        + sometimes(draw, "--perturb-index", INDICES)
        + ["--h-list", draw(value_list(STEPS, 5))]
        + ["--alpha-list", draw(value_list(ALPHAS, 5))]
    )


def check(argv):
    """Run `argv` in process and check the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    # a message names the values as the user gave them, not as numpy holds them
    assert "np." not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("sympulse: ") and err.count("\n") == 1, (argv, err)
        assert out.getvalue() == "", argv


@FUZZ
@given(tableau_lines())
def test_tableau_command_line(argv):
    check(argv)


@FUZZ
@given(integrate_lines())
def test_integrate_command_line(argv):
    check(argv)


@FUZZ
@given(converge_lines())
def test_converge_command_line(argv):
    check(argv)


@FUZZ
@given(levelmap_lines())
def test_levelmap_command_line(argv):
    check(argv)
