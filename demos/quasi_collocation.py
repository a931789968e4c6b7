"""The quasi-collocation view of the perturbed Gauss methods.

A perturbed tableau A(alpha) = A(0) + alpha P W P^{-1} is no longer a
collocation method, but its stages still lie on a polynomial: the stage
interpolant sigma, which reproduces y0 and the stages and satisfies the
quasi-collocation identities sigma'(t0 + c_i h) = f(sigma_i)
+ alpha sum_j G_ij f(sigma_j), with the defect weights G of `defect_weights`.
Demo 02 uses it to dissect one tuned step; the package itself does not (its
stage predictor is `sympulse.stepper.stage_predictor`).  Import it from a
script in this directory, or with this directory on the path.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from sympulse.stepper import StepResult
from sympulse.tableau import PerturbationSpec, QuadratureRule, gauss_core, legendre_basis


def defect_weights(q: QuadratureRule, index: int | None = None) -> np.ndarray:
    """Weights G that express a unit subdiagonal perturbation through the
    unperturbed tableau: A(0) G = P W P^{-1}.

    These are the coefficients of the extra vector-field terms in the
    quasi-collocation identities satisfied by the stage interpolant.  `index`
    selects the perturbed subdiagonal pair (default: the last, s-1).
    """
    if q.s < 2:
        raise ValueError("defect weights need at least 2 stages")
    if index is None:
        index = q.s - 1
    basis = legendre_basis(q)
    W = PerturbationSpec.single(q.s, index, 1.0).matrix
    Z = np.linalg.solve(gauss_core(q.s), W)
    return basis.P @ Z @ basis.Pinv


def lagrange_integral_coeffs(c) -> np.ndarray:
    """Coefficients (rows, low order first) of the integrated Lagrange basis.

    Row j holds the power-basis coefficients of int_0^tau l_j(x) dx, the
    degree-s polynomial vanishing at 0 whose derivative is the Lagrange
    cardinal polynomial l_j on the nodes c.
    """
    c = np.asarray(c, float)
    s = c.size
    out = np.zeros((s, s + 1))
    for j in range(s):
        coef = np.array([1.0])
        denom = 1.0
        for k in range(s):
            if k == j:
                continue
            coef = npoly.polymul(coef, np.array([-c[k], 1.0]))
            denom *= c[j] - c[k]
        out[j, :] = npoly.polyint(coef / denom)
    return out


def _interpolant_coeffs(tableau):
    """Power-basis coefficients of w_j(tau) = I_j(tau) + alpha sum_k G_kj I_k(tau),
    with the tableau's perturbation value alpha and its defect weights G
    (None for an unperturbed tableau)."""
    I = lagrange_integral_coeffs(tableau.c)
    pert = tableau.perturbation
    if pert.value == 0.0:
        return I, None
    gamma = defect_weights(tableau.quadrature, pert.index)
    return I + pert.value * (gamma.T @ I), gamma


def dense_output(result: StepResult, tableau, tau: float) -> np.ndarray:
    """Evaluate the stage interpolant at t0 + tau*h, tau in [0, 1].

    Reproduces y0 at tau=0 exactly and the stages at the nodes to stage
    tolerance; for the unperturbed method tau=1 recovers y1.  The
    perturbation value and index are read from the tableau.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if not result.converged:
        raise ValueError("dense output requires a converged step")
    W, _ = _interpolant_coeffs(tableau)
    wtau = npoly.polyval(tau, W.T)
    return result.y0 + result.h * (wtau @ result.stage_fields)


def collocation_defect(result: StepResult, system, tableau):
    """Max-norm residuals of the quasi-collocation identities at each node.

    The stage interpolant sigma satisfies, node by node,
    sigma'(t0 + c_i h) = f(sigma_i) + alpha sum_j G_ij f(sigma_j), with the
    tableau's perturbation value alpha and its defect weights G; the left
    side is evaluated from the derivative of the dense-output polynomial.
    For converged steps all residuals are O(STAGE_TOL / |h|).
    """
    if not result.converged:
        raise ValueError("collocation defect requires a converged step")
    c = tableau.c
    W, gamma = _interpolant_coeffs(tableau)
    F = result.stage_fields
    sigma = result.y0 + result.h * (npoly.polyval(c, W.T).T @ F)
    dW = np.array([npoly.polyder(w) for w in W])
    sigma_dot = npoly.polyval(c, dW.T).T @ F  # d/dt: the 1/h cancels h in sigma
    f_sigma = system.vector_field(sigma)
    rhs = f_sigma
    if gamma is not None:
        rhs = rhs + tableau.perturbation.value * (gamma @ f_sigma)
    return np.max(np.abs(sigma_dot - rhs), axis=-1)
