#!/usr/bin/env python3
"""Convergence and root-scaling study.

Halving the stepsize across a dyadic ladder shows two things at once: the
tuned method keeps the full order 2s of the underlying Gauss scheme (the
tuning is an O(h^2) correction, too small to disturb the order), and the
band containing all per-step roots shrinks like h^2 (last-subdiagonal
perturbation) or h^4 (second-type).  This reproduces the structure of the
published convergence tables; exact constants depend on the start state.

Runtime: a couple of minutes (every row is a full [0, 50] integration).
"""

import sympulse as sp

SEARCH = sp.AlphaSearchConfig()


def show(title, rows, power):
    print(f"\n{title}")
    print(f"{'h':>10} {'e(h)':>12} {'order':>7} {'delta(h)':>12} {'delta/h^' + str(power):>12}")
    for row in rows:
        order = f"{row.order:.3f}" if row.order is not None else "    --"
        print(f"{row.h:>10.6f} {row.e_h:>12.3e} {order:>7} "
              f"{row.delta_h:>12.3e} {row.delta_scaled:>12.4e}")


print("Kepler, e=0.6, 2 stages, tuned last-subdiagonal (4th order) ...")
rows = sp.convergence_table(
    "kepler", "ep-gauss", 2, [2.0**-k for k in range(1, 7)], 50.0, e=0.6,
    search=SEARCH,
)
show("Kepler / ep-gauss s=2", rows, 2)

print("\nquartic oscillator, 3 stages, both 6th-order variants ...")
rows = sp.convergence_table(
    "quartic", "ep-gauss", 3, [2.0**-k for k in range(1, 6)], 50.0, search=SEARCH
)
show("quartic / ep-gauss s=3 (root band ~ h^2)", rows, 2)

rows = sp.convergence_table(
    "quartic", "ep-gauss-type2", 3, [2.0**-k for k in range(2, 6)], 50.0,
    search=SEARCH,
)
show("quartic / second type s=3 (root band ~ h^4)", rows, 4)
