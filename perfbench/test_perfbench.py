"""Tests of the benchmark itself: each correctness check rejects a wrong
answer, the chained calls of a workload make the trajectory of one call, and
a smoke run of every workload, untraced and traced, prints a
well-formed result in seconds.

    python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kepler-ep2", "henon-type2-cli", "quartic-reference")

E, H, T_END = 0.6, 2.0**-5, 50.0


def test_kepler_exact_closes_the_orbit():
    y0 = np.array([1.0 - E, 0.0, 0.0, math.sqrt((1.0 + E) / (1.0 - E))])
    assert np.allclose(checks.kepler_exact(E, 0.0), y0, atol=1e-15)
    assert np.allclose(checks.kepler_exact(E, 2.0 * math.pi), y0, atol=1e-13)
    Y = np.array([checks.kepler_exact(E, t) for t in np.linspace(0.0, 7.0, 50)])
    assert np.allclose(checks.kepler_energy(Y), -0.5, atol=1e-14)
    assert np.allclose(checks.angular_momentum(Y), math.sqrt(1.0 - E * E), atol=1e-14)


def kepler_run(error=1.0e-4, band=checks.KEPLER_PAPER_BAND):
    """Exact states on the step grid, the last one moved along the orbit by
    `error`, like the phase error of a conserving method."""
    times = np.arange(1601) * H
    states = np.array([checks.kepler_exact(E, t) for t in times])
    q, p = states[-1, :2], states[-1, 2:]
    speed = np.linalg.norm(np.concatenate([p, -q / np.linalg.norm(q) ** 3]))  # |dy/dt|
    states[-1] = checks.kepler_exact(E, T_END + error / speed)
    alphas = band * H**2 * np.linspace(0.0, 1.0, 1600)
    return states, alphas


def test_kepler_accepts_the_paper_figures():
    states, alphas = kepler_run()
    assert checks.check_kepler(states, alphas, H, E, T_END) == []


@pytest.mark.parametrize("error", [3.0e-4, 5.0e-5, 0.0])
def test_kepler_rejects_an_end_state_error_off_the_paper(error):
    states, alphas = kepler_run(error=error)
    assert any("end-state error" in f for f in checks.check_kepler(states, alphas, H, E, T_END))


def test_kepler_rejects_an_energy_drift():
    states, alphas = kepler_run()
    states[800, 2:] *= 1.0 + 1e-9 / np.sum(states[800, 2:] ** 2)
    failures = checks.check_kepler(states, alphas, H, E, T_END)
    assert any("dH" in f for f in failures)


def test_kepler_rejects_an_angular_momentum_drift():
    states, alphas = kepler_run()
    c, s = math.cos(1e-9), math.sin(1e-9)
    q = states[800, :2].copy()
    states[800, :2] = [c * q[0] - s * q[1], s * q[0] + c * q[1]]  # |q|, H kept
    failures = checks.check_kepler(states, alphas, H, E, T_END)
    assert any("dL" in f for f in failures)
    assert not any("dH" in f for f in failures)


def test_kepler_rejects_a_root_band_off_the_paper():
    states, alphas = kepler_run(band=1.1 * checks.KEPLER_PAPER_BAND)
    assert any("root band" in f for f in checks.check_kepler(states, alphas, H, E, T_END))


def henon_csv(n_rows=2001, drift_row=None, outside_row=None):
    """A trajectory CSV in the CLI's layout, every state on H = 0.15."""
    k = np.arange(n_rows)
    q = 0.3 * np.stack([np.cos(0.1 * k), np.sin(0.13 * k)], axis=1)
    if outside_row is not None:
        q[outside_row] = [0.0, -0.55]
    u = 0.5 * (q[:, 0] ** 2 + q[:, 1] ** 2) + q[:, 0] ** 2 * q[:, 1] - q[:, 1] ** 3 / 3.0
    energy = np.full(n_rows, checks.HENON_ENERGY)
    if drift_row is not None:
        energy[drift_row] += 1e-9
    speed = np.sqrt(np.maximum(2.0 * (energy - u), 0.0))
    p = speed[:, None] * np.stack([np.cos(0.7 * k), np.sin(0.7 * k)], axis=1)
    lines = ["# sympulse 0.1.0", "step,t,y1,y2,y3,y4,H_err,alpha_star,g_evals,stage_iters"]
    for i in range(n_rows):
        values = [*q[i], *p[i]]
        lines.append(
            f"{i},{0.25 * i!r}," + ",".join(format(v, ".17g") for v in values) + ",0,0,0,0"
        )
    return "\n".join(lines) + "\n"


def test_henon_accepts_a_confined_orbit_on_its_energy():
    assert checks.check_henon(0, henon_csv(), 2001) == []


def test_henon_rejects_an_energy_drift():
    failures = checks.check_henon(0, henon_csv(drift_row=1000), 2001)
    assert any("|H - 0.15|" in f for f in failures)


def test_henon_rejects_a_state_outside_the_triangle():
    failures = checks.check_henon(0, henon_csv(outside_row=7), 2001)
    assert any("outside the saddle triangle" in f for f in failures)


def test_henon_rejects_a_short_file_and_a_failed_exit():
    assert checks.check_henon(0, henon_csv(n_rows=2000), 2001)
    assert checks.check_henon(2, "", 2001)


def test_saddle_triangle():
    r3 = math.sqrt(3.0)
    inside = np.array([[0.0, 0.0], [0.0, 0.99], [0.85, -0.49], [-0.85, -0.49]])
    outside = np.array([[0.0, 1.01], [r3 / 2, -0.51], [-0.9, -0.4], [0.6, 0.2]])
    assert checks.in_saddle_triangle(inside).all()
    assert not checks.in_saddle_triangle(outside).any()


QUARTIC_Y0 = np.array([1.2, 0.0, 0.3, 1.4])


def test_quartic_accepts_the_reference_and_rejects_a_perturbed_state():
    reference = checks.quartic_dop853(QUARTIC_Y0, 1.0)
    assert checks.check_quartic(reference, QUARTIC_Y0, reference) == []
    wrong = reference + np.array([0.0, 1e-9, 0.0, 0.0])
    assert any("from DOP853" in f for f in checks.check_quartic(wrong, QUARTIC_Y0, reference))


def test_quartic_rejects_an_angular_momentum_drift():
    reference = checks.quartic_dop853(QUARTIC_Y0, 1.0)
    y0 = QUARTIC_Y0 + np.array([0.0, 0.0, 0.0, 1e-9])
    failures = checks.check_quartic(reference, y0, reference)
    assert failures and all("L(end)" in f for f in failures)


def run_segments(workload, ctx):
    workload.start(ctx)
    outs = [workload.collect(ctx, k, workload.run(ctx, k)) for k in range(workload.segments)]
    return workload.join(ctx, outs)


def test_kepler_calls_chain_into_the_trajectory_of_one_call():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make("kepler-ep2", smoke=True)
    ctx = workload.setup()
    joined = run_segments(workload, ctx)
    spec = ctx.RunSpec(problem="kepler", method="ep-gauss", s=2, h=H, t_end=workload.t_end, e=E)
    one = ctx.experiments.integrate(spec)
    assert workload.segments > 1
    assert np.array_equal(joined.states, one.states)
    assert np.array_equal(joined.alphas, one.full_step_alphas)


def test_henon_calls_chain_into_the_csv_of_one_call(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make("henon-type2-cli", smoke=True, out_dir=tmp_path)
    ctx = workload.setup()
    try:
        joined = run_segments(workload, ctx)
        argv = ctx.argv + ["--t-end", repr(workload.t_end)]
        assert ctx.cli.run(argv) == 0
        with open(ctx.path) as handle:
            one = handle.read()
    finally:
        workload.close(ctx)
    columns, rows = checks.parse_trajectory_csv(joined.text)
    one_columns, one_rows = checks.parse_trajectory_csv(one)
    assert columns == one_columns and rows.shape == one_rows.shape
    t_and_states = [columns.index(c) for c in ("t", "y1", "y2", "y3", "y4")]
    assert np.array_equal(rows[:, t_and_states], one_rows[:, t_and_states])


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "kepler-ep2", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
