"""Implicit Runge-Kutta stage solver and quasi-collocation dense output.

One step solves the coupled stage system Y_i = y0 + h sum_j A_ij f(Y_j) and
advances y1 = y0 + h sum_j b_j f(Y_j).  The default solver is plain fixed-point
iteration, adequate for nonstiff problems at moderate stepsizes; a simplified
Newton iteration (vector-field Jacobian frozen at the step start, applied to
the coupled system through its Kronecker structure) takes over automatically
when the fixed-point increment stalls, and can be selected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .problems import SingularPotentialError

SOLVERS = ("fixed_point", "simplified_newton")
STAGE_GUESSES = ("from_y0", "extrapolated")

# fixed-point iteration hands over to simplified Newton when the increment
# has not halved over this many iterations
_STALL_WINDOW = 10
_MAX_JACOBIAN_REFRESH = 4


@dataclass(frozen=True)
class StepConfig:
    """Stepsize and stage-solver settings for a single step.

    `h` may be negative (time-reversed steps are legal and used by the
    symmetry checks).  Convergence is measured on the max-norm of the stage
    increment, scaled by 1 + |y0|_inf.
    """

    h: float
    stage_tol: float = 1e-14
    max_iters: int = 100
    solver: str = "fixed_point"
    stage_guess: str = "from_y0"

    def __post_init__(self):
        for name in ("h", "stage_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.h == 0.0:
            raise ValueError("stepsize must be nonzero")
        if self.stage_tol <= 0.0:
            raise ValueError("stage_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.stage_guess not in STAGE_GUESSES:
            raise ValueError(
                f"stage_guess must be one of {STAGE_GUESSES}, got {self.stage_guess!r}"
            )


@dataclass(frozen=True, eq=False)
class StepResult:
    """Accepted state, internal stages and solver diagnostics for one step.

    `y0` and `h` anchor the dense output and `stage_fields` holds f at the
    stages; `stage_residual` is the scaled max-norm defect of the stage
    equations at return.  `converged` false means the iteration budget ran
    out; the caller decides what to do.
    """

    y1: np.ndarray
    stages: np.ndarray
    iterations: int
    converged: bool
    stage_residual: float
    y0: np.ndarray
    h: float
    stage_fields: np.ndarray


def _fd_jacobian(system, y):
    """Central-difference Jacobian of the vector field at y."""
    n = y.size
    J = np.empty((n, n))
    for j in range(n):
        d = 1e-7 * (1.0 + abs(y[j]))
        yp = y.copy()
        ym = y.copy()
        yp[j] += d
        ym[j] -= d
        J[:, j] = (system.vector_field(yp) - system.vector_field(ym)) / (2.0 * d)
    return J


def _initial_stages(system, tableau, y0, cfg):
    Y = np.empty((tableau.s, y0.size))
    Y[...] = y0
    if cfg.stage_guess == "extrapolated":
        Y = Y + cfg.h * tableau.c[:, None] * system.vector_field(y0)
    return Y


def step(system, tableau, y0, cfg: StepConfig, guess=None) -> StepResult:
    """Advance one step of the implicit RK method defined by `tableau`.

    `guess`, an (s, n) array, replaces `cfg.stage_guess` as the starting
    stages: typically the converged stages of a nearby tableau from the same
    y0.  A solve started from it takes one more sweep after its residual
    first meets `stage_tol`.  The error left at that point depends on where
    the guess came from, and the extra sweep shrinks it by the contraction
    factor, so that y1 varies smoothly with the tableau however it was
    started.

    Non-convergence is reported through the `converged` flag, not raised;
    domain errors from the vector field propagate (except for transient
    fixed-point iterates, which trigger the Newton fallback instead).
    """
    y0 = np.asarray(y0, dtype=float)
    A = tableau.A
    b = tableau.b
    s = tableau.s
    n = y0.size
    h = cfg.h
    scale = 1.0 + np.abs(y0).max()
    tol = cfg.stage_tol

    Y = _initial_stages(system, tableau, y0, cfg) if guess is None else guess
    F = system.vector_field(Y)
    polish = guess is not None

    newton = cfg.solver == "simplified_newton"
    jac_point = y0
    M = None
    refreshes = 0
    history = []
    iterations = 0
    converged = False
    residual = None  # the residual of (Y, F) once the loop has stopped on it

    while iterations < cfg.max_iters:
        iterations += 1
        hAF = h * (A @ F)
        defect = Y - y0 - hAF
        res = np.abs(defect).max() / scale
        history.append(res)
        if res <= tol:
            converged = True
            if not polish:
                residual = res
                break
            polish = False
        elif newton and (not np.isfinite(res) or res > 1e8 * scale):
            break  # Newton is diverging; report failure instead of burning iterations
        elif len(history) > _STALL_WINDOW and history[-1] > 0.5 * history[-1 - _STALL_WINDOW]:
            if not newton:
                newton = True
                M = None
                history = []
            elif refreshes < _MAX_JACOBIAN_REFRESH:
                # frozen Jacobian too stale for this step; refresh it at the
                # current stage average
                jac_point = Y.mean(axis=0)
                M = None
                refreshes += 1
                history = []
        if newton:
            if M is None:
                M = np.eye(s * n) - h * np.kron(A, _fd_jacobian(system, jac_point))
            Y = Y - np.linalg.solve(M, defect.ravel()).reshape(s, n)
        else:
            Y = y0 + hAF
        try:
            F = system.vector_field(Y)
            bad = not np.isfinite(F).all()
        except SingularPotentialError:
            if newton:
                raise
            bad = True
        if bad:
            if newton:
                break
            # diverging fixed-point iterate; restart with simplified Newton
            newton = True
            jac_point = y0
            M = None
            history = []
            Y = _initial_stages(system, tableau, y0, cfg)
            F = system.vector_field(Y)

    if residual is None:
        residual = np.abs(Y - y0 - h * (A @ F)).max() / scale
    converged = bool(converged and np.isfinite(residual) and residual <= tol)
    y1 = y0 + h * (b @ F)
    return StepResult(
        y1=y1,
        stages=Y,
        iterations=iterations,
        converged=converged,
        stage_residual=float(residual),
        y0=y0,
        h=h,
        stage_fields=F,
    )


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


def _single_perturbation_value(tableau):
    entries = tableau.perturbation.entries
    if len(entries) > 1:
        raise ValueError(
            "dense output is defined for tableaux with at most one perturbation entry"
        )
    return entries[0][1] if entries else 0.0


def _interpolant_coeffs(tableau, gamma, alpha):
    """Power-basis coefficients of w_j(tau) = I_j(tau) + alpha sum_k G_kj I_k(tau)."""
    I = lagrange_integral_coeffs(tableau.c)
    if alpha == 0.0 or gamma is None:
        return I
    return I + alpha * (gamma.T @ I)


def dense_output(result: StepResult, tableau, gamma, tau: float) -> np.ndarray:
    """Evaluate the stage interpolant at t0 + tau*h, tau in [0, 1].

    Reproduces y0 at tau=0 exactly and the stages at the nodes to stage
    tolerance; for the unperturbed method tau=1 recovers y1.  `gamma` is the
    defect-weight matrix matching the tableau's perturbed index (ignored for
    an unperturbed tableau).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if not result.converged:
        raise ValueError("dense output requires a converged step")
    alpha = _single_perturbation_value(tableau)
    W = _interpolant_coeffs(tableau, gamma, alpha)
    wtau = npoly.polyval(tau, W.T)
    return result.y0 + result.h * (wtau @ result.stage_fields)


def collocation_defect(result: StepResult, system, tableau, gamma, alpha: float):
    """Max-norm residuals of the quasi-collocation identities at each node.

    The stage interpolant sigma satisfies, node by node,
    sigma'(t0 + c_i h) = f(sigma_i) + alpha sum_j G_ij f(sigma_j);
    the left side is evaluated from the derivative of the dense-output
    polynomial.  For converged steps all residuals are O(stage_tol / |h|).
    """
    if not result.converged:
        raise ValueError("collocation defect requires a converged step")
    c = tableau.c
    W = _interpolant_coeffs(tableau, gamma, alpha)
    F = result.stage_fields
    sigma = result.y0 + result.h * (npoly.polyval(c, W.T).T @ F)
    dW = np.array([npoly.polyder(w) for w in W])
    sigma_dot = npoly.polyval(c, dW.T).T @ F  # d/dt: the 1/h cancels h in sigma
    f_sigma = system.vector_field(sigma)
    rhs = f_sigma.copy()
    if alpha != 0.0 and gamma is not None:
        rhs = rhs + alpha * (gamma @ f_sigma)
    return np.max(np.abs(sigma_dot - rhs), axis=-1)
