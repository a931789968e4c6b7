#!/usr/bin/env python3
"""One energy-tuned step, dissected.

A single step of the perturbed method from the Kepler perihelion: scan the
energy defect g(alpha) = H(y0 + D(alpha)) - H(y0), the energy change of the
step's increment D, watch it change sign, locate the root with the bracketed
search, and verify the quasi-collocation structure of the stage interpolant
at the tuned value.  The search probes g in rounds, each one batched stage
solve: g(0) and one probe near zero; then pairs straddling secant points
until a probe changes sign; then a triple of the stop width around the
secant point of that sign change.  Brent's method closes the bracket where
the triple misses the root.
"""

import numpy as np

import sympulse as sp
from quasi_collocation import collocation_defect, dense_output
from sympulse.stepper import StepConfig

system, ic = sp.kepler(0.6)
h = 2.0**-5
cfg = StepConfig(h=h)

print(f"Kepler problem, e=0.6, one step of size h=2^-5 from perihelion")
print(f"H(y0) = {float(system.energy(ic.y0)):+.15f}")

print("\ndefect g(alpha) around zero (note the sign change):")
for alpha in (-2e-4, -1e-4, 0.0, 5e-5, 1e-4, 2e-4):
    g, _ = sp.energy_defect(system, 2, 1, ic.y0, alpha, cfg)
    print(f"  alpha={alpha:+.1e}   g={g:+.3e}")

rec = sp.solve_alpha(system, 2, 1, ic.y0, h, sp.AlphaSearchConfig(), cfg)
lo, hi = rec.bracket
print(f"\nroot              : alpha* = {rec.alpha_star:+.12e}")
print(f"cost              : {rec.g_evals} defect evaluations (one stage solve each)")
print(f"first sign change : [{lo:+.6e}, {hi:+.6e}]")

# the search's step at the root: the energy is conserved to tolerance, the
# angular momentum automatically (symplecticity), and the stages satisfy the
# quasi-collocation identities of the perturbed method
alpha = rec.alpha_star
g, result = rec.g_residual, rec.step
L = system.quadratic_invariants[0].fn
print(f"\nat alpha*: dH = {g:+.2e},  dL = {float(L(result.y1) - L(ic.y0)):+.2e}")

q = sp.gauss_quadrature(2)
tab = sp.butcher(q, sp.PerturbationSpec.single(2, 1, alpha))
residuals = collocation_defect(result, system, tab)
print("quasi-collocation residuals per node:", residuals)

print("\ndense output along the step (tau, |q|, H):")
for tau in np.linspace(0.0, 1.0, 6):
    y = dense_output(result, tab, float(tau))
    print(f"  tau={tau:.1f}  |q|={np.hypot(y[0], y[1]):.6f}  "
          f"H={float(system.energy(y)):+.12f}")
