#!/usr/bin/env python3
"""Henon-Heiles star orbit with exact energy conservation.

At total energy 0.15 < 1/6 the orbit can never leave the equilateral
triangle spanned by the three saddle points of the potential.  The
second-type 6th-order method keeps H pinned to round-off over [0, 500] at
the fairly large stepsize h = 0.25, where the plain Gauss method shows a
visible (though bounded) energy error.  Writes a PNG to the working
directory.  Runtime: about half a minute.
"""

import numpy as np

import sympulse as sp

print("integrating [0, 500] at h = 0.25 ...")
tuned = sp.integrate(sp.RunSpec(
    problem="henon-heiles", method="ep-gauss-type2", s=3, h=0.25, t_end=500.0,
    search=sp.AlphaSearchConfig(),
))
plain = sp.integrate(sp.RunSpec(
    problem="henon-heiles", method="gauss", s=3, h=0.25, t_end=500.0,
))
print(f"  tuned : max|dH| = {np.max(np.abs(tuned.energy_error)):.3e}")
print(f"  gauss : max|dH| = {np.max(np.abs(plain.energy_error)):.3e}")

q1, q2 = tuned.states[:, 0], tuned.states[:, 1]
inside = np.all(
    (q2 >= -0.5) & (q2 <= 1 - np.sqrt(3) * q1) & (q2 <= 1 + np.sqrt(3) * q1)
)
print(f"  orbit stayed inside the saddle triangle: {bool(inside)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping plot")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(12, 5))
    triangle = np.array([
        [0.0, 1.0], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5], [0.0, 1.0]
    ])
    ax1.plot(triangle[:, 0], triangle[:, 1], "k-", lw=1.5)
    ax1.plot(q1, q2, ".", ms=0.8, color="tab:blue")
    ax1.set_xlabel("q1")
    ax1.set_ylabel("q2")
    ax1.set_title("orbit (H = 0.15) inside the escape triangle")
    ax1.set_aspect("equal")
    ax2.semilogy(plain.times, np.abs(plain.energy_error) + 1e-18, lw=0.7,
                 label="plain Gauss")
    ax2.semilogy(tuned.times, np.abs(tuned.energy_error) + 1e-18, lw=0.7,
                 label="energy-tuned (2nd type)")
    ax2.set_xlabel("t")
    ax2.set_ylabel("|H error|")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("henon_heiles.png", dpi=130)
    print("wrote henon_heiles.png")
