#!/usr/bin/env python3
"""Level map of the one-step energy defect in the (h, alpha) plane.

For the Kepler start state, g(alpha, h) vanishes along the h axis (every
method is consistent) and along a curve tangent to it at the origin: the
per-step root curve alpha*(h) ~ const * h^2.  The map makes both visible
and shows how small a correction of the Gauss method suffices even at
fairly large stepsizes.  Writes CSV + PNG to the working directory.
"""

import numpy as np

import sympulse as sp
from sympulse.stepper import StepConfig

system, ic = sp.kepler(0.6)
h_values = np.linspace(0.01, 0.2, 24)
alpha_values = np.linspace(-0.5e-3, 4e-3, 61)

print(f"evaluating g on a {alpha_values.size} x {h_values.size} grid ...")
grid, failures = sp.level_grid(system, 2, 1, ic.y0, h_values, alpha_values)
print(f"done, {len(failures)} failed cells")

with open("defect_level_map.csv", "w") as fh:
    fh.write("h,alpha,g\n")
    for j, h in enumerate(h_values):
        for i, alpha in enumerate(alpha_values):
            fh.write(f"{h:.17g},{alpha:.17g},{grid[i, j]:.17g}\n")
print("wrote defect_level_map.csv")

roots = []
for h in h_values:
    rec = sp.solve_alpha(system, 2, 1, ic.y0, float(h),
                         sp.AlphaSearchConfig(),
                         StepConfig(h=float(h)))
    roots.append(rec.alpha_star)
print("zero curve alpha*(h)/h^2 spans "
      f"{min(r / h**2 for r, h in zip(roots, h_values)):.4f}"
      f" .. {max(r / h**2 for r, h in zip(roots, h_values)):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping plot")
else:
    fig, ax = plt.subplots(figsize=(9, 5.5))
    magnitude = np.log10(np.abs(grid) + 1e-18)
    mesh = ax.pcolormesh(h_values, alpha_values, magnitude, shading="nearest",
                         cmap="viridis")
    fig.colorbar(mesh, ax=ax, label="log10 |g(alpha, h)|")
    ax.plot(h_values, roots, "r-", lw=2, label="per-step root curve")
    ax.axhline(0.0, color="w", lw=0.6, ls="--")
    ax.set_xlabel("h")
    ax.set_ylabel("alpha")
    ax.set_title("one-step energy defect, Kepler e=0.6, s=2")
    ax.legend(loc="upper left")
    fig.tight_layout()
    fig.savefig("defect_level_map.png", dpi=130)
    print("wrote defect_level_map.png")
