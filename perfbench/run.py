#!/usr/bin/env python3
"""Benchmark of sympulse: three deterministic single-process workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  The run repeats the workload's execution
(ten timed calls, see `workloads.py`) for about `--seconds` seconds (at least
once), checks every output, and prints one JSON object as the last line of
standard output:

- `--trace 0`: the end-to-end metrics `setup_s`, `run_norm_s`,
  `step_norm_us` and `peak_rss_mb`.  The times are scaled to the speed of a
  reference host, measured by the fixed calibration loops of `calibrate()`:
  each timed call is paired with a calibration run just before and just
  after it, and counts as `call time * CALIBRATION_REF_S / (mean of the two
  calibration times)`.  `run_norm_s` is the scaled time of one execution:
  the sum over its ten calls of each call's median over the run's
  executions; `step_norm_us` is the same per accepted step.  `setup_s` is
  the median of set-ups each scaled by the calibration run right after it.
  The wall times go to standard error.
- `--trace 1`: the per-layer metrics, from executions run with span
  wrappers installed, alternating with untraced ones to measure the tracing
  overhead.  The spans of the last traced execution are written to
  `.perfbench-out/spans-<workload>.tsv`.

`attempted` counts the integration steps of all executions, `failed` the
steps that failed.  The workloads take no random input: `--seed` is accepted
and does not change them.  If a check fails the result carries
`"correct": false` and the exit code is 1.  `--smoke` shrinks every workload
to a few dozen steps, for the benchmark's own tests.
"""

import os

# one process and no worker threads, whatever the BLAS build would pick
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# setup_s is the median of the main process's own set-up and this many
# fresh processes that set up and exit
SETUP_PROBES = 10

# Size of the calibration loops, and the time they take on the reference
# host (a 2-vCPU Xeon VM at its faster speed).  Times are reported
# scaled to that host: measured time * CALIBRATION_REF_S / calibration time.
CALIBRATION_SOLVES = 5000
CALIBRATION_STEPS = 250
CALIBRATION_REF_S = 0.1

END_TO_END_UNITS = {"setup_s": "s", "run_norm_s": "s", "step_norm_us": "us/step", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "conserve.defect_evals_per_step": "evals/step",
    "conserve.defect_evals_max": "evals",
    "conserve.roots_per_eval": "roots/eval",
    "conserve.solve_alpha_s": "s",
    "conserve.energy_defect_s": "s",
    "stepper.step_calls": "count",
    "stepper.step_calls_per_step": "calls/step",
    "stepper.step_s": "s",
    "stepper.stage_iters_per_solve": "iters/solve",
    "stepper.unconverged": "count",
    "problems.vector_field_calls": "count",
    "problems.vector_field_s": "s",
    "problems.vector_field_us_per_call": "us/call",
    "problems.energy_calls": "count",
    "problems.energy_s": "s",
    "tableau.butcher_calls": "count",
    "tableau.butcher_s": "s",
    "experiments.integrate_calls": "count",
    "experiments.integrate_s": "s",
    "experiments.reference_levels": "count",
    "cli.run_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="accepted; the workloads use no random input")
    p.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink every workload to a few steps")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_source_tree():
    """Make `import sympulse` load the checkout's `src/sympulse`, or exit."""
    if not (SRC / "sympulse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sympulse source under {SRC}")
    sys.path.insert(0, str(SRC))


def check_source_tree():
    module = sys.modules.get("sympulse")
    if module is None or Path(module.__file__).resolve().parent != SRC / "sympulse":
        sys.exit(f"perfbench: sympulse was not imported from {SRC}")


def calibrate():
    """Wall time of two fixed loops of small numpy work, the kind a
    `sympulse` step is made of: a 4x4 linear solve with element-wise
    operations, and a fixed-point iteration of a 3-stage implicit
    Runge-Kutta step on the quartic oscillator.  It runs no `sympulse` code,
    so it measures only the host's speed at this moment.  Call it after the
    set-up, which imports numpy."""
    import numpy as np

    m = np.array([[4.0, 1.0, 0.0, 0.5], [1.0, 5.0, 1.0, 0.0], [0.0, 1.0, 6.0, 1.0], [0.5, 0.0, 1.0, 7.0]])
    x = b = np.ones(4)
    r = 15.0**0.5
    a = np.array([
        [5 / 36, 2 / 9 - r / 15, 5 / 36 - r / 30],
        [5 / 36 + r / 24, 2 / 9, 5 / 36 - r / 24],
        [5 / 36 + r / 30, 2 / 9 + r / 15, 5 / 36],
    ])
    weights = np.array([5 / 18, 4 / 9, 5 / 18])
    h = 2.0**-6

    def field(y):
        q = y[..., :2]
        f = np.empty_like(y)
        f[..., :2] = y[..., 2:]
        f[..., 2:] = -4.0 * np.sum(q * q, axis=-1, keepdims=True) * q
        return f

    start = time.perf_counter()
    for _ in range(CALIBRATION_SOLVES):
        x = np.linalg.solve(m, 0.5 * x + b)
        x = np.sqrt(x * x + 1.0)
    y = np.array([1.2, 0.0, 0.3, 1.4])
    for _ in range(CALIBRATION_STEPS):
        stages = np.tile(y, (3, 1))
        for _ in range(8):
            af = a @ field(stages)
            np.max(np.abs(stages - y - h * af))  # the residual a stepper checks
            stages = y + h * af
        y = y + h * (weights @ field(stages))
    elapsed = time.perf_counter() - start
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        sys.exit("perfbench: the calibration loops left their fixed course")
    return elapsed


def timed_setup(workload):
    start = time.perf_counter()
    ctx = workload.setup()
    elapsed = time.perf_counter() - start
    check_source_tree()
    return ctx, elapsed


def probe_setup(args):
    """Set-up time of one fresh process, which then exits, and the time of
    one calibration loop run right after it."""
    workload = workloads.make(args.workload, args.smoke, OUT_DIR)
    ctx, elapsed = timed_setup(workload)
    workload.close(ctx)
    print(repr(elapsed), repr(calibrate()))


def setup_samples(args, first, probes):
    """Set-up times scaled to the reference host speed: the main process's
    own and those of `probes` fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = [first * CALIBRATION_REF_S / calibrate()]
    for _ in range(probes):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        elapsed, cal = (float(v) for v in proc.stdout.split()[-2:])
        samples.append(elapsed * CALIBRATION_REF_S / cal)
    return samples


def run_execution(workload, ctx, paired=False):
    """One execution, its calls timed one by one: (wall time of the calls,
    the scaled time of each call or None, joined output).  With `paired`,
    the calibration loops run before the first call and after every call."""
    workload.start(ctx)
    wall, scaled, outs = 0.0, [], []
    before = calibrate() if paired else None
    for k in range(workload.segments):
        start = time.perf_counter()
        raw = workload.run(ctx, k)
        elapsed = time.perf_counter() - start
        if paired:
            after = calibrate()
            scaled.append(elapsed * CALIBRATION_REF_S / (0.5 * (before + after)))
            before = after
        wall += elapsed
        outs.append(workload.collect(ctx, k, raw))
    return wall, (scaled if paired else None), workload.join(ctx, outs)


def warm_up(workload, ctx):
    """One untimed call and calibration, so that lazy set-up in numpy and
    `sympulse` is not timed."""
    calibrate()
    workload.start(ctx)
    workload.collect(ctx, 0, workload.run(ctx, 0))


def measure(workload, ctx, seconds):
    """Paired executions until the next one would end past `seconds`:
    (wall times, scaled times of the calls, outputs, peak RSS in MB)."""
    warm_up(workload, ctx)
    walls, scaled, outputs, lengths = [], [], [], []
    start = time.perf_counter()
    while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        began = time.perf_counter()
        wall, calls, out = run_execution(workload, ctx, paired=True)
        lengths.append(time.perf_counter() - began)
        walls.append(wall)
        scaled.append(calls)
        outputs.append(out)
    # read before the checks, which load scipy
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return walls, scaled, outputs, peak_mb


def measure_traced(workload, ctx, seconds, spans_path):
    """Alternate untraced and traced executions until the next pair would
    end past `seconds`: per-layer metrics (medians of the times, counts of
    the last traced execution), and all outputs."""
    import spans

    warm_up(workload, ctx)
    plain, traced, layers, outputs, lengths = [], [], [], [], []
    start = time.perf_counter()
    while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        began = time.perf_counter()
        elapsed, _, out = run_execution(workload, ctx)
        plain.append(elapsed)
        outputs.append(out)
        tracer = spans.Tracer()
        with tracer:
            elapsed, _, out = run_execution(workload, ctx)
        traced.append(elapsed)
        outputs.append(out)
        layer = spans.layer_metrics(tracer, workload.steps(out))
        layer["cli.output_bytes"] = getattr(out, "nbytes", 0)
        layers.append(layer)
        lengths.append(time.perf_counter() - began)
    tracer.write(spans_path)
    metrics = dict(layers[-1])
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "us/call") and name in metrics:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    # each traced execution against the untraced one just before it, which
    # ran at nearly the same host speed
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
    return metrics, outputs


def scaled_execution_time(scaled):
    """Scaled time of one execution: the sum over its calls of each call's
    median over the executions.  A call slowed by the host in one execution
    does not move the median, and the sum stays proportional to the work of
    every call."""
    return sum(statistics.median(calls) for calls in zip(*scaled))


def main(argv=None):
    args = parse_args(argv)
    use_source_tree()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        probe_setup(args)
        return 0

    workload = workloads.make(args.workload, args.smoke, OUT_DIR)
    ctx, first_setup = timed_setup(workload)
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
            values, outputs = measure_traced(workload, ctx, args.seconds, spans_path)
            units = PER_LAYER_UNITS
        else:
            setups = setup_samples(args, first_setup, 1 if args.smoke else SETUP_PROBES)
            walls, scaled, outputs, peak_mb = measure(workload, ctx, args.seconds)
            run_norm_s = scaled_execution_time(scaled)
            values = {
                "setup_s": statistics.median(setups),
                "run_norm_s": run_norm_s,
                "step_norm_us": 1e6 * run_norm_s / workload.steps(outputs[0]),
                "peak_rss_mb": peak_mb,
            }
            units = END_TO_END_UNITS
            print(
                f"perfbench: {args.workload} seed={args.seed}: "
                f"run_s {[round(t, 4) for t in walls]}, "
                f"scaled {[round(sum(calls), 4) for calls in scaled]}, "
                f"setup_s {[round(t, 4) for t in setups]}",
                file=sys.stderr,
            )
        failures = workload.check(ctx, outputs)
    finally:
        workload.close(ctx)

    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(workload.steps(out) for out in outputs),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
