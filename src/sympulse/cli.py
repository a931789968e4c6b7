"""Command-line front end: tableau inspection, single integrations,
convergence studies and the energy-defect level grid.

Every table goes through one writer, `_emit_table`: the `#` header that
echoes the run's inputs, then one CSV line per row of string cells; each
subcommand states its columns once.  Exit codes: 0 success, 1 usage error
(`sympulse: error: ...`), 2 numerical failure (`sympulse: numerical failure:
...`, which names the failed step and its time).  Output files are written
atomically (temp file + rename) and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import tempfile
from functools import lru_cache

import numpy as np

from . import __version__
from .conserve import level_grid
from .experiments import (
    METHODS,
    RunSpec,
    convergence_table,
    integrate,
    resolve_perturb_index,
)
from .problems import KEPLER_E, PROBLEMS, SingularPotentialError, get_problem
from .tableau import PerturbationSpec, butcher, gauss_quadrature

DEFAULT_T_END = {"kepler": 50.0, "quartic": 50.0, "harmonic": 50.0, "henon-heiles": 500.0}
DEFAULT_H = {"henon-heiles": 0.25}
# with s=2, ep-gauss meets a Henon-Heiles step at t=76 whose energy defect
# has no sign change; s=3 finishes the default run
DEFAULT_STAGES = {"henon-heiles": 3}

_POW2 = re.compile(r"^2\^(-?\d+)$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of calling sys.exit, so usage
    problems map to exit code 1, and that reads a token opening with `-`
    and a digit, or `-.` and a digit, as a value: argparse itself takes
    `-1e-3` or `-.5:1:3` for a flag.  No sympulse flag opens that way."""

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # None: the token is a value, never a flag
        return None if re.match(r"-\.?\d", arg_string) else super()._parse_optional(arg_string)


def parse_stepsize(token):
    """A finite stepsize literal: plain float or an exact power of two like
    2^-5, for -1074 <= k <= 1023 (2^-1074 is the least positive float)."""
    token = token.strip()
    m = _POW2.match(token)
    if m:
        if not -1074 <= int(m.group(1)) <= 1023:
            raise UsageError(f"value must be finite and nonzero, -1074 <= k <= 1023 in {token!r}")
        return 2.0 ** int(m.group(1))
    try:
        value = float(token)
    except ValueError:
        raise UsageError(f"cannot parse stepsize {token!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"value must be finite, got {token!r}")
    return value


def parse_value_list(text):
    """Grid-axis syntax: 'a,b,c' explicit values, 'a:b' halving range from a
    down to b, 'lo:hi:n' n linearly spaced values.  Tokens may use 2^-k."""
    text = text.strip()
    if "," in text:
        values = [parse_stepsize(t) for t in text.split(",") if t.strip()]
        if not values:
            raise UsageError(f"no values in {text!r}")
        return values
    parts = text.split(":")
    if len(parts) == 2:
        start, stop = (parse_stepsize(p) for p in parts)
        if not 0 < stop <= start:
            raise UsageError(f"halving range needs 0 < b <= a, got {text!r}")
        values = []
        h = start
        while h >= stop * (1.0 - 1e-12):
            values.append(h)
            h /= 2.0
        return values
    if len(parts) == 3:
        lo, hi = parse_stepsize(parts[0]), parse_stepsize(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise UsageError(f"grid count must be an integer in {text!r}") from None
        if n < 1:
            raise UsageError("grid count must be positive")
        if not math.isfinite(hi - lo):
            raise UsageError(f"grid span hi - lo overflows in {text!r}")
        return np.linspace(lo, hi, n).tolist()
    return [parse_stepsize(text)]


def parse_y0(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --y0 {text!r}") from None


def g17(x):
    return format(float(x), ".17g")


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sympulse-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open(path, "w") would
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(ns, text):
    if not ns.output:
        sys.stdout.write(text)
        return
    try:
        _write_atomic(ns.output, text)
    except OSError as exc:
        # the error names the writer's temporary file, not the path given
        raise UsageError(f"cannot write --output {ns.output}: {exc.strerror}") from None


def _add_problem_flags(p):
    p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    # e only chooses Kepler's default start, so a start state leaves it unread
    start = p.add_mutually_exclusive_group()
    start.add_argument("--e", type=float, help=f"Kepler eccentricity (default {KEPLER_E})")
    start.add_argument("--y0", type=parse_y0, help="start state override v1,v2,...")
    p.add_argument("--output", "-o", default=None)


def _add_run_flags(p):
    p.add_argument("--method", choices=METHODS, default="ep-gauss")
    p.add_argument(
        "--stages", type=int, default=None,
        help="stage count (default 3 for henon-heiles, 2 otherwise)",
    )
    p.add_argument("--perturb-index", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.0, help="value for --method fixed-alpha")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None)


# built once per process (a build takes about 1.4 ms); parse_args keeps no
# state between calls, each returning a new namespace
@lru_cache(maxsize=1)
def _build_parser():
    parser = _Parser(prog="sympulse", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sympulse {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("tableau", help="print nodes, weights and the perturbed tableau")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--perturb-index", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(handler=_run_tableau)

    p = sub.add_parser("integrate", help="single run, trajectory CSV")
    _add_problem_flags(p)
    _add_run_flags(p)
    p.add_argument("--h", type=parse_stepsize, default=None, help="stepsize (2^-k allowed)")
    p.set_defaults(handler=_run_integrate)

    p = sub.add_parser("converge", help="convergence table over a stepsize list")
    _add_problem_flags(p)
    _add_run_flags(p)
    p.add_argument("--h-list", required=True, help="e.g. 2^-1:2^-7 or 0.5,0.25")
    p.set_defaults(handler=_run_converge)

    p = sub.add_parser("levelmap", help="energy defect g(alpha, h) on a grid, CSV")
    _add_problem_flags(p)
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--perturb-index", type=int, default=None)
    p.add_argument("--h-list", default="0.01:0.2:8", help="grid h values")
    p.add_argument(
        "--alpha-list", default="-0.0005:0.004:19", help="grid alpha values (lo:hi:n)"
    )
    p.set_defaults(handler=_run_levelmap)

    return parser


def _header(pairs):
    lines = [f"# sympulse {__version__}"]
    for key, value in pairs:
        if value is None:
            continue
        if isinstance(value, float):
            value = g17(value)
        elif isinstance(value, (tuple, list, np.ndarray)):
            value = ",".join(g17(v) for v in value)
        lines.append(f"# {key} = {value}")
    return "\n".join(lines) + "\n"


def _emit_table(ns, pairs, rows):
    """Write the header of `pairs`, then one CSV line per row of string cells."""
    lines = (",".join(row) + "\n" for row in rows)
    _emit(ns, "".join(itertools.chain([_header(pairs)], lines)))


def _problem_pairs(ns):
    """Header lines shared by the subcommands that run a problem; only
    kepler gets this far with `--e` set, the other problems reject it."""
    return [
        ("subcommand", ns.subcommand), ("problem", ns.problem), ("e", ns.e), ("y0", ns.y0)
    ]


def _method_pairs(spec):
    """Header lines naming the tableau of a run."""
    return [
        ("method", spec.method),
        ("stages", spec.s),
        ("perturb_index", spec.perturbation.index or None),
        ("alpha", spec.alpha if spec.method == "fixed-alpha" else None),
    ]


def _run_fields(ns):
    """The `RunSpec` fields that the flags of `integrate` and `converge` set
    besides the problem, method, stage count, stepsize and end time."""
    return dict(t0=ns.t0, e=ns.e, y0=ns.y0, alpha=ns.alpha, perturb_index=ns.perturb_index)


def _run_tableau(ns):
    quadrature = gauss_quadrature(ns.stages)
    # the rule and the perturbation reject a bad stage count, index or
    # value; a given index must name a coupling, but the default one may
    # be the 0 of a single stage, which takes only alpha = 0
    index = resolve_perturb_index("fixed-alpha", ns.stages, ns.perturb_index)
    make = PerturbationSpec if ns.perturb_index is None else PerturbationSpec.single
    pert = make(ns.stages, index, ns.alpha)
    tab = butcher(quadrature, pert)
    fields = [
        ("stages", tab.s), ("alpha", ns.alpha), ("perturb_index", pert.index or None),
        ("order", tab.order),
    ]
    # c and b are one row each, A one row per stage
    arrays = [
        (label, np.vectorize(g17, otypes=[object])(values))
        for label, values in (("c", tab.c), ("b", tab.b), ("A", tab.A))
    ]
    if ns.format == "json":
        payload = dict(fields + [(label, cells.tolist()) for label, cells in arrays])
        _emit(ns, json.dumps(payload, indent=2) + "\n")
    else:
        rows = [[label, *row] for label, cells in arrays for row in np.atleast_2d(cells)]
        _emit_table(ns, [("subcommand", "tableau")] + fields, rows)


def _run_integrate(ns):
    h = ns.h if ns.h is not None else DEFAULT_H.get(ns.problem, 2.0 ** -5)
    spec = RunSpec(ns.problem, ns.method, ns.stages, h, ns.t_end, **_run_fields(ns))
    record = integrate(spec)
    header = (
        _problem_pairs(ns)
        + _method_pairs(spec)
        + [
            ("h", h),
            ("t0", ns.t0),
            ("t_end", ns.t_end),
            ("partial_final", str(record.partial_final).lower()),
        ]
    )
    # a per-step column describes the step that ends at its row; the start
    # row, which no step ends at, reads zero
    columns = (
        [("step", map(str, range(record.times.size))), ("t", map(g17, record.times))]
        + [(f"y{i + 1}", map(g17, y)) for i, y in enumerate(record.states.T)]
        + [("H_err", map(g17, record.energy_error))]
        + [(f"{name}_err", map(g17, err)) for name, err in record.invariant_errors.items()]
        + [
            ("alpha_star", itertools.chain(["0"], map(g17, record.alpha_trace))),
            ("g_evals", itertools.chain(["0"], map(str, record.g_evals))),
            ("stage_iters", itertools.chain(["0"], map(str, record.stage_iters))),
        ]
    )
    names, cells = zip(*columns)
    _emit_table(ns, header, itertools.chain([names], zip(*cells)))


def _run_converge(ns):
    h_list = parse_value_list(ns.h_list)
    fields = _run_fields(ns)
    rows = convergence_table(ns.problem, ns.method, ns.stages, h_list, ns.t_end, **fields)
    spec = RunSpec(ns.problem, ns.method, ns.stages, h_list[0], ns.t_end, **fields)
    header = (
        _problem_pairs(ns)
        + _method_pairs(spec)
        + [
            ("h_list", h_list),
            ("t0", ns.t0),
            ("t_end", ns.t_end),
            ("error_norm", "euclidean"),
        ]
    )
    table = [
        [g17(row.h), g17(row.e_h), "" if row.order is None else g17(row.order),
         g17(row.delta_h), g17(row.delta_scaled)]
        for row in rows
    ]
    _emit_table(ns, header, [["h", "e_h", "order", "delta_h", "delta_scaled"], *table])


def _run_levelmap(ns):
    h_values = parse_value_list(ns.h_list)
    alpha_values = parse_value_list(ns.alpha_list)
    system, ic = get_problem(ns.problem, e=ns.e, y0=ns.y0)
    if ns.stages < 2:
        raise UsageError("levelmap needs at least 2 stages")
    index = resolve_perturb_index("ep-gauss", ns.stages, ns.perturb_index)
    G, failures = level_grid(system, ns.stages, index, ic.y0, h_values, alpha_values)
    header = (
        _problem_pairs(ns)
        + [
            ("stages", ns.stages),
            ("perturb_index", index),
            ("h_list", h_values),
            ("alpha_list", alpha_values),
            ("failed_cells", len(failures)),
        ]
    )
    table = [
        [g17(h), g17(alpha), g17(G[i, j])]
        for j, h in enumerate(h_values)
        for i, alpha in enumerate(alpha_values)
    ]
    _emit_table(ns, header, [["h", "alpha", "g"], *table])


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"sympulse: error: {exc}", file=sys.stderr)
        return 1
    if ns.subcommand in ("integrate", "converge"):
        if ns.stages is None:
            ns.stages = DEFAULT_STAGES.get(ns.problem, 2)
        if ns.t_end is None:
            ns.t_end = DEFAULT_T_END[ns.problem]
    try:
        # a run that overflows is reported by its typed error, not by numpy
        with np.errstate(all="ignore"):
            ns.handler(ns)
    # a run too long for its record to be allocated is a usage error too, and
    # so is a standard output that cannot be written
    except (UsageError, ValueError, MemoryError, OSError) as exc:
        print(f"sympulse: error: {exc}", file=sys.stderr)
        return 1
    except (SingularPotentialError, RuntimeError) as exc:
        print(f"sympulse: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
