#!/usr/bin/env python3
"""Long Kepler integration: tuned method vs. plain Gauss.

Integrates the e=0.6 orbit over [0, 50] at h=2^-5 twice: with the plain
2-stage Gauss method (bounded, oscillating energy error) and with the
per-step tuned variant (energy pinned to round-off, same 4th-order
trajectory accuracy).  Writes the error traces and the tuned-parameter
sequence to PNG + CSV in the working directory.
"""

import numpy as np

import sympulse as sp

H = 2.0**-5
SEARCH = sp.AlphaSearchConfig()

print("integrating [0, 50] at h=2^-5 ...")
tuned = sp.integrate(sp.RunSpec(
    problem="kepler", method="ep-gauss", s=2, h=H, t_end=50.0, e=0.6,
    search=SEARCH,
))
plain = sp.integrate(sp.RunSpec(
    problem="kepler", method="gauss", s=2, h=H, t_end=50.0, e=0.6,
))

for name, traj in (("tuned", tuned), ("gauss", plain)):
    print(f"  {name:>5}: max|dH| = {np.max(np.abs(traj.energy_error)):.3e}   "
          f"max|dL| = {np.max(np.abs(traj.invariant_errors['L'])):.3e}")
print(f"  per-step root band: [{tuned.alpha_trace.min():+.3e}, "
      f"{tuned.alpha_trace.max():+.3e}]  width {tuned.delta:.3e}")
print(f"  width / h^2 = {tuned.delta / H**2:.4f}")

rows = ["t,H_err_tuned,H_err_gauss,L_err_tuned,alpha_star"]
for k in range(tuned.times.size):
    alpha = tuned.alpha_trace[k - 1] if k else 0.0
    rows.append(
        f"{tuned.times[k]:.17g},{tuned.energy_error[k]:.17g},"
        f"{plain.energy_error[k]:.17g},{tuned.invariant_errors['L'][k]:.17g},"
        f"{alpha:.17g}"
    )
with open("kepler_long_run.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
print("wrote kepler_long_run.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping plots")
else:
    fig, axes = plt.subplots(3, 1, figsize=(9, 9), sharex=True)
    axes[0].semilogy(plain.times, np.abs(plain.energy_error) + 1e-18, lw=0.6,
                     label="plain Gauss")
    axes[0].semilogy(tuned.times, np.abs(tuned.energy_error) + 1e-18, lw=0.6,
                     label="energy-tuned")
    axes[0].set_ylabel("|H error|")
    axes[0].legend(loc="center right")
    axes[1].semilogy(tuned.times, np.abs(tuned.invariant_errors["L"]) + 1e-18,
                     lw=0.6, color="tab:green")
    axes[1].set_ylabel("|L error| (tuned)")
    axes[2].plot(tuned.times[1:], tuned.alpha_trace, lw=0.5, color="tab:red")
    axes[2].set_ylabel("per-step root")
    axes[2].set_xlabel("t")
    fig.suptitle("Kepler e=0.6, s=2, h=2^-5")
    fig.tight_layout()
    fig.savefig("kepler_long_run.png", dpi=130)
    print("wrote kepler_long_run.png")
