"""The benchmark's workloads.

Each workload is a deterministic ODE run from a fixed start state; none
takes a random seed.  One execution of a workload (a *repetition*) is cut
into `segments` calls of equal length, each starting from the end state of
the one before, so that the benchmark can time short calls and pair each
with a calibration loop (see `run.py`).  The problems are autonomous, so the
cut changes nothing for Kepler and Hénon-Heiles: the joined trajectory is
bit-for-bit the one a single call makes (`test_perfbench.py` checks this).

A workload has these parts:

- `setup()` imports `sympulse` and builds what the run needs before its first
  step; it is what `setup_s` times, so `sympulse` is imported nowhere else.
- `start(ctx)` resets the carried state before a repetition.
- `run(ctx, k)` is the timed call of segment `k`.
- `collect(ctx, k, raw)` turns the call's raw result into a small output and
  carries the end state to segment `k + 1`, outside the timed section;
  `join(ctx, outs)` joins the outputs of one repetition, and `steps(out)`
  counts its accepted integration steps.
- `check(ctx, outputs)` returns the failures of the correctness checks.

This module imports neither numpy nor `sympulse` at load time, so that
`setup()` pays for both.

`smoke=True` shrinks every run to two segments of a few steps for the
benchmark's own tests; the checks tied to the paper's Kepler figures are then
skipped, the others still run.
"""

from __future__ import annotations

import os
import tempfile
from types import SimpleNamespace

WORKLOADS = ("kepler-ep2", "henon-type2-cli", "quartic-reference")

SEGMENTS = 10
SMOKE_SEGMENTS = 2


class Workload:
    def __init__(self, smoke):
        self.smoke = smoke
        self.segments = SMOKE_SEGMENTS if smoke else SEGMENTS

    def bounds(self, k):
        """Start and end time of segment `k`."""
        length = self.t_end / self.segments
        return k * length, (k + 1) * length

    def start(self, ctx):
        ctx.y = None

    def close(self, ctx):
        pass


class KeplerEP2(Workload):
    """`integrate` on Kepler (e=0.6) with ep-gauss, s=2, h=2^-5, t_end=50:
    the paper's table row for h=2^-5 (acceptance 4's run), as ten calls of
    t=5 (160 steps each)."""

    name = "kepler-ep2"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.e, self.s, self.h = 0.6, 2, 2.0**-5
        self.t_end = 1.0 if smoke else 50.0

    def setup(self):
        import sympulse
        from sympulse import experiments

        sympulse.get_problem("kepler", e=self.e)
        sympulse.gauss_quadrature(self.s)
        return SimpleNamespace(RunSpec=sympulse.RunSpec, experiments=experiments, y=None)

    def run(self, ctx, k):
        t0, t1 = self.bounds(k)
        spec = ctx.RunSpec(
            problem="kepler", method="ep-gauss", s=self.s, h=self.h,
            t0=t0, t_end=t1, e=self.e, y0=ctx.y,
        )
        return ctx.experiments.integrate(spec)

    def collect(self, ctx, k, record):
        ctx.y = tuple(float(v) for v in record.final_state)
        return SimpleNamespace(states=record.states, alphas=record.full_step_alphas)

    def join(self, ctx, outs):
        import numpy as np

        states = np.concatenate([outs[0].states] + [out.states[1:] for out in outs[1:]])
        alphas = np.concatenate([out.alphas for out in outs])
        return SimpleNamespace(states=states, alphas=alphas)

    def steps(self, out):
        return len(out.states) - 1

    def check(self, ctx, outputs):
        import checks

        failures = []
        for out in outputs:
            failures += checks.check_kepler(
                out.states, out.alphas, self.h, self.e, self.t_end,
                paper_figures=not self.smoke,
            )
        return failures


class HenonType2CLI(Workload):
    """`sympulse integrate` on Hénon-Heiles with ep-gauss-type2, s=3, h=0.25,
    t_end=250, run through `sympulse.cli.run` in this process as ten calls of
    t=25 (100 steps each); each call after the first starts from the last
    state of the CSV before it (`--t0`, `--y0` at 17 digits, which read back
    exactly).  The CSVs go to a temporary directory under the output
    directory."""

    name = "henon-type2-cli"

    def __init__(self, smoke=False, out_dir="."):
        super().__init__(smoke)
        self.t_end = 5.0 if smoke else 250.0
        self.h = 0.25
        self.out_dir = out_dir

    def setup(self):
        from sympulse import cli

        tmp = tempfile.TemporaryDirectory(dir=self.out_dir, prefix="henon-")
        path = os.path.join(tmp.name, "henon.csv")
        argv = [
            "integrate", "--problem", "henon-heiles", "--method", "ep-gauss-type2",
            "--stages", "3", "--h", str(self.h), "--output", path,
        ]
        return SimpleNamespace(cli=cli, argv=argv, path=path, tmp=tmp, y=None)

    def run(self, ctx, k):
        t0, t1 = self.bounds(k)
        argv = ctx.argv + ["--t0", repr(t0), "--t-end", repr(t1)]
        if ctx.y is not None:
            argv.append("--y0=" + ctx.y)  # "=": the state may start with "-"
        return ctx.cli.run(argv)

    def collect(self, ctx, k, exit_code):
        text = ""
        if exit_code == 0:
            with open(ctx.path) as handle:
                text = handle.read()
            os.unlink(ctx.path)
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        ctx.y = None
        if len(lines) > 1:
            columns, last = lines[0].split(","), lines[-1].split(",")
            ctx.y = ",".join(last[columns.index(f"y{i}")] for i in range(1, 5))
        return SimpleNamespace(exit_code=exit_code, lines=lines, nbytes=len(text.encode()))

    def join(self, ctx, outs):
        """One CSV text: the first call's header and rows, then the rows of
        every later call but its first, which repeats the state before."""
        lines = list(outs[0].lines)
        for out in outs[1:]:
            lines += out.lines[2:]
        exit_code = next((out.exit_code for out in outs if out.exit_code != 0), 0)
        if any(len(out.lines) < 2 for out in outs):
            exit_code = exit_code or -1
        return SimpleNamespace(
            exit_code=exit_code, text="\n".join(lines) + "\n",
            nbytes=sum(out.nbytes for out in outs),
        )

    def steps(self, out):
        # one CSV row per state, the start state included
        return max(sum(1 for line in out.text.splitlines() if line[:1].isdigit()) - 1, 0)

    def check(self, ctx, outputs):
        import checks

        rows = round(self.t_end / self.h) + 1
        failures = []
        for out in outputs:
            failures += checks.check_henon(out.exit_code, out.text, rows)
        return failures

    def close(self, ctx):
        ctx.tmp.cleanup()


class QuarticReference(Workload):
    """`reference_state("quartic", 2, 2^-5, y0)` ten times, each from the
    end state of the one before: the quartic's state at T=20 by ten legs.
    Each leg runs plain 3-stage Gauss from h=2^-8, halved until two end states
    agree to 1e-12; at T=2 every leg settles after 2 levels (see the README).
    Every timed call computes its leg: the in-process cache is cleared after
    each call.
    """

    name = "quartic-reference"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.t_end = 1.0 if smoke else 20.0
        self.h_min = 2.0**-5

    def setup(self):
        import sympulse
        from sympulse import experiments

        system, ic = sympulse.get_problem("quartic")
        sympulse.gauss_quadrature(3)
        ctx = SimpleNamespace(experiments=experiments, y0=ic.y0.copy(), steps=0, y=None)
        # Counts the steps of every halving level: reference_state returns
        # only the end state.  The shim costs one call per level.
        inner = experiments.integrate

        def counted(spec):
            record = inner(spec)
            ctx.steps += record.alpha_trace.size
            return record

        ctx.inner = inner
        experiments.integrate = counted
        experiments._fine_reference_cached.cache_clear()
        return ctx

    def run(self, ctx, k):
        t0, t1 = self.bounds(k)
        return ctx.experiments.reference_state("quartic", t1 - t0, self.h_min, y0=ctx.y)

    def collect(self, ctx, k, state):
        out = SimpleNamespace(state=state, steps=ctx.steps)
        ctx.steps = 0
        ctx.y = tuple(float(v) for v in state)
        ctx.experiments._fine_reference_cached.cache_clear()
        return out

    def join(self, ctx, outs):
        return SimpleNamespace(
            state=outs[-1].state,
            steps=sum(out.steps for out in outs),
            legs_missed=sum(out.steps == 0 for out in outs),
        )

    def steps(self, out):
        return out.steps

    def check(self, ctx, outputs):
        import checks

        reference = checks.quartic_dop853(ctx.y0, self.t_end)
        failures = []
        for out in outputs:
            if out.legs_missed:
                failures.append(f"quartic: {out.legs_missed} legs were not computed (no steps)")
            failures += checks.check_quartic(out.state, ctx.y0, reference)
        return failures

    def close(self, ctx):
        ctx.experiments.integrate = ctx.inner


def make(name, smoke=False, out_dir="."):
    if name == "kepler-ep2":
        return KeplerEP2(smoke)
    if name == "henon-type2-cli":
        return HenonType2CLI(smoke, out_dir)
    if name == "quartic-reference":
        return QuarticReference(smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
