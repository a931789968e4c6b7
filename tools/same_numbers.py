"""Check that another copy of the package computes the same numbers as this
checkout: the same run census.

Runs `tools/run_census.py` twice, as subprocesses, once with PYTHONPATH set
to OTHER_SRC and once to this checkout's `src`, the two at the same time,
and compares their output line by line, keyed by run id and array (every
field of a line but its hash), so that a run that finishes on one side and
fails on the other (six or more lines against one `fail@k` line) shifts no
other line.  Each differing line is printed, marked `<` for OTHER_SRC and
`>` for this checkout, then the summary line `run_census: N lines, M
differ`, then `runs differing by method: gauss N, fixed-alpha N, ...`,
the number of runs with a differing line for each method of the census,
then one `outcome changed` line for each run whose outcome (finished, or
the step it failed at) differs, naming both.  Exits 1 on any difference.
A census that fails prints one line naming its side and its last error
line, and exits 2.

PROBLEM restricts the census to the named problems, as `run_census.py`
does.

usage: python tools/same_numbers.py OTHER_SRC [PROBLEM ...]

To compare against the parent commit, unpack its `src` first:

    mkdir /tmp/parent && git archive HEAD~1 src | tar -x -C /tmp/parent
    python tools/same_numbers.py /tmp/parent/src

The whole comparison takes about 30 s on a 2-CPU machine.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

TOOLS = pathlib.Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
# run_census, which names the census's methods and named runs, imports the
# package; this checkout's serves when PYTHONPATH does not name one.  It is
# imported once both censuses have run, so that a package that does not
# import fails its census first and is named as that census's side
sys.path.append(str(SRC))


class CensusFailed(Exception):
    """A census run exited with an error."""


def output(src, args):
    """The stdout lines of the census, given `args`, run with PYTHONPATH=`src`;
    raises CensusFailed, naming `src` and the last line of the census's
    error output, when it exits with an error."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, str(TOOLS / "run_census.py"), *args],
        env=env, capture_output=True, text=True,
    )
    if result.returncode:
        last = (result.stderr.strip().splitlines() or [f"exit {result.returncode}"])[-1]
        raise CensusFailed(f"the census with PYTHONPATH={src} failed: {last}")
    return result.stdout.splitlines()


def _outcomes(keys):
    """The outcome of each run among census `keys` (run id, then array):
    `finished`, or the `fail@k` of a run that failed."""
    outcomes = {}
    for key in keys:
        run, _, array = key.rpartition(" ")
        if array.startswith("fail@"):
            outcomes[run] = array
        else:
            outcomes.setdefault(run, "finished")
    return outcomes


def census_method(run):
    """The method of census run `run`: the fourth field of a grid id
    (`problem e s method h`), or the method of a named run of
    `run_census.RUNS`."""
    import run_census

    fields = run.split()
    return fields[3] if len(fields) == 5 else run_census.RUNS[run].method


def report(name, other, this):
    """Print each line that differs between the `other` and `this` census
    line lists, keyed by all fields but the last (a run id and an array),
    marked with its side, then the summary line of `name`, then the number
    of runs with a differing line for each method of `run_census.METHODS`
    (see `census_method`), then one line per run found on both sides whose
    outcome changed; returns the number of differing keys."""
    import run_census

    a, b = ({line.rsplit(" ", 1)[0]: line for line in lines} for lines in (other, this))
    diff = [key for key in {**a, **b} if a.get(key) != b.get(key)]
    for key in diff:
        if key in a:
            print(f"< {a[key]}")
        if key in b:
            print(f"> {b[key]}")
    print(f"{name}: {max(len(other), len(this))} lines, {len(diff)} differ")
    runs = Counter(census_method(run) for run in {key.rpartition(" ")[0] for key in diff})
    counts = ", ".join(f"{m} {runs[m]}" for m in run_census.METHODS)
    print(f"runs differing by method: {counts}")
    before, after = _outcomes(a), _outcomes(b)
    for run, outcome in before.items():
        if after.get(run, outcome) != outcome:
            print(f"outcome changed: {run}: {outcome} -> {after[run]}")
    return len(diff)


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    other_src, problems = pathlib.Path(argv[0]).resolve(), argv[1:]
    with ThreadPoolExecutor(2) as pool:
        sides = [pool.submit(output, src, problems) for src in (other_src, SRC)]
        try:
            lines = [side.result() for side in sides]
        except CensusFailed as exc:
            print(f"same_numbers: {exc}", file=sys.stderr)
            return 2
    return 1 if report("run_census", *lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
