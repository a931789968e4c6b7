"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy reproductions
(criteria 3, 5, 9) take a few minutes combined; every tolerance is pinned
here, not configured.
"""

import time

import numpy as np
import pytest

import sympulse as sp
from sympulse.stepper import StepConfig

BISECT = sp.AlphaSearchConfig()


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_symplecticity_identity():
    start = time.time()
    worst = 0.0
    for s in range(1, 9):
        q = sp.gauss_quadrature(s)
        omega = np.diag(q.b)
        bbt = np.outer(q.b, q.b)
        rng = np.random.default_rng(900 + s)
        for alpha in rng.uniform(-1.0, 1.0, 100):
            pert = (
                sp.PerturbationSpec.none(1)
                if s == 1
                else sp.PerturbationSpec.single(s, s - 1, alpha)
            )
            A = sp.butcher(q, pert).A
            worst = max(worst, np.max(np.abs(omega @ A + A.T @ omega - bbt)))
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-13 and elapsed < 1.0,
        f"max symplecticity residual {worst:.2e} (<=1e-13) over s=1..8 x 100 alpha, "
        f"{elapsed:.2f}s (<1s)",
    )


def test_02_tableau_oracle():
    from numpy.polynomial import polynomial as npoly

    start = time.time()
    worst_a = 0.0
    for s in (2, 3):
        q = sp.gauss_quadrature(s)
        A = sp.butcher(q, sp.PerturbationSpec.none(s)).A
        oracle = np.zeros((s, s))
        for j in range(s):
            coeffs = np.array([1.0])
            denom = 1.0
            for k in range(s):
                if k != j:
                    coeffs = npoly.polymul(coeffs, np.array([-q.c[k], 1.0]))
                    denom *= q.c[j] - q.c[k]
            integral = npoly.polyint(coeffs / denom)
            oracle[:, j] = npoly.polyval(q.c, integral)
        worst_a = max(worst_a, np.max(np.abs(A - oracle)))
    worst_p = 0.0
    for s in range(1, 9):
        q = sp.gauss_quadrature(s)
        basis = sp.legendre_basis(q)
        gram = basis.P.T @ np.diag(q.b) @ basis.P
        worst_p = max(worst_p, np.max(np.abs(gram - np.eye(s))))
    elapsed = time.time() - start
    report(
        2,
        worst_a <= 1e-14 and worst_p <= 1e-13 and elapsed < 1.0,
        f"collocation-integral deviation {worst_a:.2e} (<=1e-14, s=2,3); "
        f"orthonormality residual {worst_p:.2e} (<=1e-13, s<=8); {elapsed:.2f}s (<1s)",
    )


def test_03_kepler_convergence_table():
    start = time.time()
    h_list = [2.0**-k for k in range(1, 8)]
    rows = sp.convergence_table(
        "kepler", "ep-gauss", 2, h_list, 50.0, e=0.6, search=BISECT
    )
    elapsed = time.time() - start
    paper_e = [2.62, 3.85e-1, 2.50e-2, 1.59e-3, 1.00e-4, 6.28e-6, 3.93e-7]
    paper_orders = {2**-4: 3.970, 2**-5: 3.991, 2**-6: 3.997, 2**-7: 3.999}

    order_ok = all(
        abs(row.order - paper_orders[row.h]) <= 0.05
        for row in rows
        if row.h in paper_orders
    )
    # global error against the paper column; the h=2^-1 row is reported but
    # not gated: at that stepsize the conservation equation has several
    # roots and the branch the search selects is not pinned by the spec,
    # while the trajectory error is O(1) either way
    e_ok = all(
        ref / 1.5 <= row.e_h <= ref * 1.5
        for row, ref in zip(rows, paper_e)
        if row.h <= 2**-2
    )
    ds_ok = all(
        abs(row.delta_scaled - 1.586e-1) <= 0.05 * 1.586e-1
        for row in rows
        if row.h <= 2**-4
    )
    detail = (
        "orders "
        + ", ".join(f"{row.order:.3f}" for row in rows if row.h in paper_orders)
        + f" (paper 3.970/3.991/3.997/3.999 +-0.05); "
        + "delta/h^2 "
        + ", ".join(f"{row.delta_scaled:.4e}" for row in rows if row.h <= 2**-4)
        + f" (1.586e-1 +-5%); e(2^-1)={rows[0].e_h:.2f} (paper 2.62, ungated); "
        + f"{elapsed:.0f}s (<120s)"
    )
    report(3, order_ok and e_ok and ds_ok and elapsed < 120.0, detail)


def test_04_energy_and_momentum_conservation():
    spec = sp.RunSpec(
        problem="kepler", method="ep-gauss", s=2, h=2**-5, t_end=50.0, e=0.6,
        search=BISECT,
    )
    traj = sp.integrate(spec)
    max_h = np.max(np.abs(traj.energy_error))
    max_l = np.max(np.abs(traj.invariant_errors["L"]))
    gauss = sp.integrate(
        sp.RunSpec(problem="kepler", method="gauss", s=2, h=2**-5, t_end=50.0, e=0.6)
    )
    gauss_h = np.max(np.abs(gauss.energy_error))
    report(
        4,
        max_h <= 1e-12 and max_l <= 1e-12 and 1e-12 < gauss_h <= 1e-5,
        f"tuned run max|dH|={max_h:.2e}, max|dL|={max_l:.2e} (<=1e-12); "
        f"plain Gauss max|dH|={gauss_h:.2e} (in (1e-12, 1e-5])",
    )


def test_05_quartic_tables_scaling():
    start = time.time()
    ep_rows = sp.convergence_table(
        "quartic", "ep-gauss", 3, [2.0**-k for k in range(1, 6)], 50.0, search=BISECT
    )
    t2_rows = sp.convergence_table(
        "quartic", "ep-gauss-type2", 3, [2.0**-k for k in range(2, 6)], 50.0,
        search=BISECT,
    )
    elapsed = time.time() - start

    ep_orders = [row.order for row in ep_rows[-2:]]
    ep_orders_ok = all(abs(o - 6.0) <= 0.1 for o in ep_orders)
    ep_scaled = [row.delta_scaled for row in ep_rows]
    ep_ratios = [b / a for a, b in zip(ep_scaled, ep_scaled[1:])]
    ep_plateau_ok = all(abs(r - 1.0) <= 0.10 for r in ep_ratios[-2:])

    t2_orders = [row.order for row in t2_rows[-2:]]
    t2_orders_ok = all(abs(o - 6.0) <= 0.15 for o in t2_orders)
    t2_scaled = [row.delta_scaled for row in t2_rows]
    t2_ratios = [b / a for a, b in zip(t2_scaled, t2_scaled[1:])]
    t2_plateau_ok = all(abs(r - 1.0) <= 0.25 for r in t2_ratios[-2:])

    detail = (
        f"ep orders {ep_orders[0]:.3f}, {ep_orders[1]:.3f} (6+-0.1); "
        f"ep delta/h^2 tail ratios {ep_ratios[-2]:.3f}, {ep_ratios[-1]:.3f} (+-10%); "
        f"type2 orders {t2_orders[0]:.3f}, {t2_orders[1]:.3f} (6+-0.15); "
        f"type2 delta/h^4 tail ratios {t2_ratios[-2]:.3f}, {t2_ratios[-1]:.3f} (+-25%); "
        f"{elapsed:.0f}s (<300s)"
    )
    report(
        5,
        ep_orders_ok and ep_plateau_ok and t2_orders_ok and t2_plateau_ok
        and elapsed < 300.0,
        detail,
    )


def test_06_root_scaling_laws():
    ksys, kic = sp.kepler(0.6)
    ep_roots = []
    for h in [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]:
        rec = sp.solve_alpha(ksys, 2, 1, kic.y0, h, BISECT, StepConfig(h=h))
        ep_roots.append(rec.alpha_star)
    ep_ratios = [a / b for a, b in zip(ep_roots, ep_roots[1:])]

    qsys, qic = sp.quartic()
    t2_roots = []
    for h in [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]:
        rec = sp.solve_alpha(qsys, 3, 1, qic.y0, h, BISECT, StepConfig(h=h))
        t2_roots.append(rec.alpha_star)
    t2_ratios = [a / b for a, b in zip(t2_roots, t2_roots[1:])]

    # ratios converge into the band as h decreases; the asymptotic (last
    # two) ratios carry the stated tolerance
    ep_ok = all(abs(r - 4.0) <= 0.4 for r in ep_ratios[-2:]) and abs(
        ep_ratios[0] - 4.0
    ) <= 1.0
    t2_ok = all(abs(r - 16.0) <= 2.4 for r in t2_ratios[-2:]) and abs(
        t2_ratios[0] - 16.0
    ) <= 4.0
    report(
        6,
        ep_ok and t2_ok,
        f"first-step root ratios: last-subdiagonal {[f'{r:.2f}' for r in ep_ratios]} "
        f"-> 4+-10%; second-type {[f'{r:.2f}' for r in t2_ratios]} -> 16+-15%",
    )


def test_07_energy_defect_orders():
    # generic (non-apsidal) evaluation states: the theory's defect orders
    # 2s+1 and 2s-1 hold for generic y0; apsidal states gain one order from
    # reflection symmetry
    kep_y0 = tuple(sp.kepler_reference(0.6, 0.4))
    kep = sp.energy_defect_order(
        "kepler", 2, [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8], alpha=1e-3, e=0.6,
        y0=kep_y0,
    )
    quartic_y0 = (0.1419, -1.1341, 0.8518, 0.3423)
    q_zero = sp.energy_defect_order(
        "quartic", 3, [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5], alpha=1e-3, y0=quartic_y0
    )
    q_fixed = sp.energy_defect_order(
        "quartic", 3, [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6], alpha=1e-3, y0=quartic_y0
    )
    ok = (
        abs(kep.slope_zero - 5.0) <= 0.2
        and abs(kep.slope_fixed - 3.0) <= 0.2
        and abs(q_zero.slope_zero - 7.0) <= 0.2
        and abs(q_fixed.slope_fixed - 5.0) <= 0.2
    )
    report(
        7,
        ok,
        f"kepler s=2 slopes {kep.slope_zero:.3f} (5+-0.2), {kep.slope_fixed:.3f} "
        f"(3+-0.2); quartic s=3 slopes {q_zero.slope_zero:.3f} (7+-0.2), "
        f"{q_fixed.slope_fixed:.3f} (5+-0.2)",
    )


def test_08_level_grid_zero_curve():
    ksys, kic = sp.kepler(0.6)
    h_values = np.linspace(0.01, 0.2, 8)
    alpha_values = np.linspace(-0.5e-3, 4e-3, 19)
    grid, failures = sp.level_grid(
        ksys, 2, 1, kic.y0, h_values, alpha_values, StepConfig(h=float(h_values[0]))
    )
    signs = np.sign(grid)
    columns_cross = all(
        np.any(signs[:-1, j] * signs[1:, j] < 0) for j in range(h_values.size)
    )

    roots = []
    for h in h_values:
        rec = sp.solve_alpha(ksys, 2, 1, kic.y0, float(h), BISECT, StepConfig(h=float(h)))
        roots.append(rec.alpha_star)
    in_window = all(-0.5e-3 <= r <= 4e-3 for r in roots)
    scaled = np.array(roots) / h_values**2
    # quadratic tangency: alpha*(h)/h^2 settles to a constant as h -> 0;
    # the three smallest-h columns carry the +-15% band (over the full
    # range the curve visibly flattens, see the printed span)
    tangent = scaled[:3]
    tangent_ok = np.max(np.abs(tangent / np.median(tangent) - 1.0)) <= 0.15
    report(
        8,
        failures == [] and columns_cross and in_window and tangent_ok,
        f"all {h_values.size} columns change sign; roots inside the window; "
        f"alpha*/h^2 at the three smallest h: "
        + ", ".join(f"{v:.4f}" for v in tangent)
        + f" (+-15%); full-span {scaled.min():.4f}..{scaled.max():.4f}",
    )


def test_09_henon_heiles_confinement():
    start = time.time()
    spec = sp.RunSpec(
        problem="henon-heiles", method="ep-gauss-type2", s=3, h=0.25, t_end=500.0,
        search=BISECT,
    )
    traj = sp.integrate(spec)
    max_h = np.max(np.abs(traj.energy_error))
    q1, q2 = traj.states[:, 0], traj.states[:, 1]
    inside = np.all(
        (q2 >= -0.5) & (q2 <= 1.0 - np.sqrt(3.0) * q1) & (q2 <= 1.0 + np.sqrt(3.0) * q1)
    )
    gauss = sp.integrate(
        sp.RunSpec(problem="henon-heiles", method="gauss", s=3, h=0.25, t_end=500.0)
    )
    gauss_h = np.max(np.abs(gauss.energy_error))
    elapsed = time.time() - start
    report(
        9,
        max_h <= 1e-11 and bool(inside) and gauss_h > max_h and elapsed < 120.0,
        f"tuned run max|dH|={max_h:.2e} (<=1e-11), trajectory inside the saddle "
        f"triangle: {bool(inside)}; plain Gauss max|dH|={gauss_h:.2e} (larger); "
        f"{elapsed:.0f}s (<120s)",
    )


def test_10_symmetry_and_degeneracy():
    ksys, kic = sp.kepler(0.6)
    q = sp.gauss_quadrature(2)
    tab = sp.butcher(q, sp.PerturbationSpec.single(2, 1, 1e-3))
    forward = sp.step(ksys, tab, kic.y0, StepConfig(h=2**-5))
    back = sp.step(ksys, tab, forward.y1, StepConfig(h=-(2**-5)))
    round_trip = np.max(np.abs(back.y1 - kic.y0))

    traj = sp.integrate(
        sp.RunSpec(problem="harmonic", method="ep-gauss", s=2, h=0.1, t_end=10.0,
                   search=BISECT)
    )
    all_zero = bool(np.all(traj.alpha_trace == 0.0))
    report(
        10,
        round_trip <= 1e-12 and all_zero,
        f"h/-h round trip error {round_trip:.2e} (<=1e-12); harmonic oscillator "
        f"roots all zero: {all_zero}",
    )
