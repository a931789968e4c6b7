"""Correctness checks for the benchmark workloads.

Every check compares a workload's output with a computation made apart from
`sympulse` (an exact Kepler solution, scipy's DOP853) or with a property the
method must have (energy pinned per step, angular momentum at round-off,
Hénon-Heiles orbit confined to the saddle triangle).  None reads back a
stored copy of an earlier output.  Each function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

# Paper figures for Kepler (e=0.6), ep-gauss, s=2, h=2^-5, t_end=50.
KEPLER_PAPER_ERROR = 1.00e-4
KEPLER_ERROR_FACTOR = 1.5
KEPLER_PAPER_BAND = 0.1586  # (max - min) of the per-step roots over h^2
KEPLER_BAND_REL = 0.05
INVARIANT_TOL = 1e-12

HENON_ENERGY = 0.15
HENON_ENERGY_TOL = 1e-11

# Plain 3-stage Gauss has order 6: on the quartic its end-state error at
# t=20 is 1.4e-9 at h=2^-5 and falls 64-fold per halving, so the reference's
# finest level (h=2^-9) carries a truncation error near 1e-16.  What is left
# is round-off, at most steps * eps * |y| = 10240 * 2.2e-16 * 2 = 4.5e-12 on
# that level, and the error of DOP853 at rtol = atol = 2.3e-14 (it agrees
# with its own rtol=1e-13 run to 3e-12).  1e-11 covers both, while the
# order-6 law puts the h=2^-6 end state 2.2e-11 off, so a reference that
# has not converged in h fails it.
QUARTIC_TOL = 1e-11
QUARTIC_RTOL = 2.3e-14  # the smallest rtol scipy's DOP853 accepts


def kepler_exact(e, t):
    """State at time t of the unit Kepler orbit started at perihelion.

    Solves Kepler's equation E - e sin E = M by safeguarded Newton, then
    maps the true anomaly to position and velocity (mu = a = 1).
    """
    mean = math.fmod(t, 2.0 * math.pi)
    lo, hi = mean - e, mean + e  # E - M lies in [-e, e]
    E = mean + e * math.sin(mean)
    for _ in range(100):
        f = E - e * math.sin(E) - mean
        if f > 0.0:
            hi = E
        elif f < 0.0:
            lo = E
        else:
            break
        step = E - f / (1.0 - e * math.cos(E))
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if nxt == E:
            break
        E = nxt
    nu = 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * E), math.sqrt(1.0 - e) * math.cos(0.5 * E)
    )
    p = 1.0 - e * e
    r = p / (1.0 + e * math.cos(nu))
    v = 1.0 / math.sqrt(p)
    return np.array(
        [r * math.cos(nu), r * math.sin(nu), -v * math.sin(nu), v * (e + math.cos(nu))]
    )


def kepler_energy(Y):
    Y = np.asarray(Y, float)
    return 0.5 * (Y[..., 2] ** 2 + Y[..., 3] ** 2) - 1.0 / np.hypot(Y[..., 0], Y[..., 1])


def angular_momentum(Y):
    Y = np.asarray(Y, float)
    return Y[..., 0] * Y[..., 3] - Y[..., 1] * Y[..., 2]


def check_kepler(states, alphas, h, e, t_end, paper_figures=True):
    """End-state error against the exact orbit, energy and angular momentum
    pinned along the run, and the width of the per-step root band."""
    failures = []
    states = np.asarray(states, float)
    if not np.all(np.isfinite(states)):
        return ["kepler: non-finite state"]
    dH = np.max(np.abs(kepler_energy(states) - kepler_energy(states[0])))
    if dH > INVARIANT_TOL:
        failures.append(f"kepler: max |dH| {dH:.3e} > {INVARIANT_TOL:g}")
    dL = np.max(np.abs(angular_momentum(states) - angular_momentum(states[0])))
    if dL > INVARIANT_TOL:
        failures.append(f"kepler: max |dL| {dL:.3e} > {INVARIANT_TOL:g}")
    if paper_figures:
        err = float(np.linalg.norm(states[-1] - kepler_exact(e, t_end)))
        lo, hi = KEPLER_PAPER_ERROR / KEPLER_ERROR_FACTOR, KEPLER_PAPER_ERROR * KEPLER_ERROR_FACTOR
        if not lo <= err <= hi:
            failures.append(f"kepler: end-state error {err:.4e} outside [{lo:.3e}, {hi:.3e}]")
        alphas = np.asarray(alphas, float)
        band = float(alphas.max() - alphas.min()) / h**2
        if abs(band / KEPLER_PAPER_BAND - 1.0) > KEPLER_BAND_REL:
            failures.append(
                f"kepler: root band / h^2 {band:.5f} not within "
                f"{KEPLER_BAND_REL:.0%} of {KEPLER_PAPER_BAND}"
            )
    return failures


def henon_energy(Y):
    Y = np.asarray(Y, float)
    q1, q2, p1, p2 = Y[..., 0], Y[..., 1], Y[..., 2], Y[..., 3]
    return 0.5 * (p1 * p1 + p2 * p2) + 0.5 * (q1 * q1 + q2 * q2) + q1 * q1 * q2 - q2**3 / 3.0


def in_saddle_triangle(Y):
    """Whether each position lies strictly inside the triangle spanned by the
    three saddle points (0, 1), (+-sqrt(3)/2, -1/2) of the potential."""
    Y = np.asarray(Y, float)
    q1, q2 = Y[..., 0], Y[..., 1]
    r3 = math.sqrt(3.0)
    return (q2 > -0.5) & (q2 < 1.0 + r3 * q1) & (q2 < 1.0 - r3 * q1)


def parse_trajectory_csv(text):
    """Columns and rows of a `sympulse integrate` CSV (comment lines skipped)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], np.empty((0, 0))
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return columns, rows.reshape(len(lines) - 1, len(columns))


def check_henon(exit_code, csv_text, expected_rows):
    """Exit code, row count, energy recomputed from the written states, and
    confinement of every state to the saddle triangle."""
    if exit_code != 0:
        return [f"henon: exit code {exit_code}"]
    columns, rows = parse_trajectory_csv(csv_text)
    if rows.shape[0] != expected_rows:
        return [f"henon: {rows.shape[0]} rows, expected {expected_rows}"]
    try:
        idx = [columns.index(f"y{i}") for i in range(1, 5)]
    except ValueError:
        return [f"henon: state columns missing from {columns}"]
    states = rows[:, idx]
    failures = []
    if not np.all(np.isfinite(states)):
        return ["henon: non-finite state"]
    dH = float(np.max(np.abs(henon_energy(states) - HENON_ENERGY)))
    if dH > HENON_ENERGY_TOL:
        failures.append(f"henon: max |H - {HENON_ENERGY}| {dH:.3e} > {HENON_ENERGY_TOL:g}")
    outside = int(np.count_nonzero(~in_saddle_triangle(states)))
    if outside:
        failures.append(f"henon: {outside} states outside the saddle triangle")
    return failures


def quartic_field(_t, y):
    q1, q2, p1, p2 = y
    r2 = q1 * q1 + q2 * q2
    return [p1, p2, -4.0 * q1 * r2, -4.0 * q2 * r2]


def quartic_dop853(y0, t_end):
    """End state of H = |p|^2/2 + |q|^4 by scipy's DOP853 at its tightest
    relative tolerance."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        quartic_field, (0.0, t_end), np.asarray(y0, float),
        method="DOP853", rtol=QUARTIC_RTOL, atol=QUARTIC_RTOL,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y[:, -1]


def check_quartic(state, y0, reference):
    """End state against an independent reference, and angular momentum at
    round-off."""
    state = np.asarray(state, float)
    if not np.all(np.isfinite(state)):
        return ["quartic: non-finite end state"]
    failures = []
    err = float(np.max(np.abs(state - np.asarray(reference, float))))
    if err > QUARTIC_TOL:
        failures.append(f"quartic: end state {err:.3e} from DOP853 > {QUARTIC_TOL:g}")
    dL = abs(float(angular_momentum(state) - angular_momentum(y0)))
    if dL > INVARIANT_TOL:
        failures.append(f"quartic: |L(end) - L(y0)| {dL:.3e} > {INVARIANT_TOL:g}")
    return failures
