"""Implicit Runge-Kutta stage solver.

One step solves the coupled stage system Y_i = y0 + h sum_j A_ij f(Y_j) and
advances y1 = y0 + h sum_j b_j f(Y_j).  The solver iterates on the stage
increments Z_i = Y_i - y0 (Hairer & Wanner, *Solving ODEs II*, IV.8),
Z <- h A F(y0 + Z) with the residual Z - h A F, which spares each sweep
the subtraction of y0 that iterating on Y takes and gives the same
fixed-point iterates Y.  It is plain fixed-point iteration, adequate for
nonstiff problems at moderate stepsizes; a simplified Newton iteration
(vector-field Jacobian frozen at the step start, applied to the coupled
system through its Kronecker structure) takes over from the current
iterate when the fixed-point residual stalls, and a Newton iteration that
stalls too ends the solve unconverged.  The stages start from y0 or from a
caller's guess: a root search passes the line through two converged probes
of the same step, a fixed-tableau run the stage fields of its last five
steps extrapolated by `stage_predictor`, a start O(h^{s+5}) from the
solution.  Only a root search's stacked solves take a polish sweep after a
guessed start (see `step`).

A single tableau, whose h is fixed for the whole run, multiplies the stage
fields by one operator K = h [A; b^T], an (s+1, s) matrix: rows :s of
K @ F are the h A F the residual needs and row s is the step's increment
h b^T F, so a step that converges at its first check takes both from one
product.  A root search's stacks (k, s, s) keep h (A @ F) and h (b @ F),
so that no h is folded into the numbers a search reads.

`step` does its set-up per call and returns a `StepResult`.
`single_solve` is the stage solve of a single tableau alone, from a start
and an operator K the caller has formed: `experiments.integrate` forms K
once per fixed-tableau run and solves each predicted step with it, and
only a step whose first check fails goes on to the sweep loop.  The
stepper takes no run; `integrate` takes every step of both run kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .problems import SingularPotentialError

__all__ = ["StepConfig", "StepResult", "step"]

# fixed-point iteration hands over to simplified Newton when the increment
# has not halved over this many iterations
_STALL_WINDOW = 10
# sweeps one stage solve may take; a solve that has not converged by then
# is returned unconverged
_MAX_ITERS = 100
# the stage tolerance of every solve
STAGE_TOL = 1e-14


@dataclass(frozen=True)
class StepConfig:
    """The stepsize of a single step.

    `h` may be negative (time-reversed steps are legal and used by the
    symmetry checks).  Convergence is measured on the max-norm of the stage
    defect, scaled by 1 + |y0|_inf, against `STAGE_TOL`; a solve takes at
    most `_MAX_ITERS` sweeps.
    """

    h: float

    def __post_init__(self):
        if not math.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h!r}")
        if self.h == 0.0:
            raise ValueError("stepsize must be nonzero")


class StepResult(NamedTuple):
    """Accepted state, internal stages and solver diagnostics for one step.

    `y0` and `h` anchor `y1` and the demos' dense output (the package has
    none) and `stage_fields` holds f at the stages; `increment` is
    h (b @ stage_fields) for a stack and row s of K @ stage_fields, with
    K = h [A; b^T], for a single tableau, and the accepted state `y1` is
    the property y0 + increment, formed when it is read;
    `stage_residual` is the scaled max-norm defect of the stage equations
    at return, in the increments Z = stages - y0 the solve iterates on,
    max|Z - h A F(y0 + Z)| / (1 + |y0|_inf) with h A F formed as
    h (A @ F) for a stack and from K for a single tableau (see
    `single_solve`), and
    `converged` says whether it meets `STAGE_TOL`; the
    caller decides what to do when it does not.  A batched solve (see
    `step`) gives `increment`, `stages` and `stage_fields` a leading
    member axis, and so `y1` too.

    A `NamedTuple`, not a frozen dataclass: a root search builds one per
    probe round and one for the step it accepts, and a frozen dataclass of
    eight fields takes 3.5 times as long to build (1.3 us against 0.36 us).
    It keeps the dataclass's contract: its fields cannot be assigned, and
    it compares and hashes by identity, never over the arrays it holds.
    """

    increment: np.ndarray
    stages: np.ndarray
    iterations: int
    converged: bool
    stage_residual: float
    y0: np.ndarray
    h: float
    stage_fields: np.ndarray

    # by identity, as with a dataclass of eq=False: a tuple's equality
    # compares its fields, and its hash fails on an array
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def y1(self):
        return self.y0 + self.increment


def _fd_jacobian(system, y):
    """Central-difference Jacobian of the vector field at y, from one call
    on the 2n states shifted up, then down, in each component."""
    n = y.size
    d = 1e-7 * (1.0 + np.abs(y))
    j = np.arange(n)
    shifted = np.tile(y, (2, n, 1))
    shifted[0, j, j] += d
    shifted[1, j, j] -= d
    F = system.vector_field(shifted)
    return (F[0] - F[1]).T / (2.0 * d)


def step(system, tableau, y0, cfg: StepConfig, guess=None) -> StepResult:
    """Advance one step of the implicit RK method defined by `tableau`.

    `tableau.A` may also be a (k, s, s) stack of coefficient matrices
    sharing b (see `tableau.affine_parts`): the k methods are then solved
    from the same y0 in one iteration, every member sweeping together until
    the worst member's residual meets `STAGE_TOL`, and one vector-field
    call takes all k s stages.  The arrays of the result carry a
    leading member axis, and `iterations`, `converged` and `stage_residual`
    are the batch's.  A stack sweeps with h (A @ F) and takes its increment
    as h (b @ F); a single tableau makes its first check and its
    increment from one product K @ F, K = h [A; b^T], and sweeps on with
    rows :s of K (`single_solve`, which also solves the predicted steps of
    a fixed-tableau run, so that a run is bit for bit a loop of `step`
    calls).
    At a stepsize whose products with A are exact (a power of two), a
    stack of one started cold makes the same sweeps as its single tableau,
    to the same stages, fields, iteration count and residual, and only the
    rounding of the increment differs; started from a guess the stack
    takes the polish sweep below, which the single tableau does not.

    The stages start from y0, with increments Z = 0, or from `guess`, an
    (s, n) array ((k, s, n) for a stack) taken as the stages exactly, with
    Z = guess - y0: in a root search, the stages extrapolated through the
    two nearest converged probes from the same y0 (see
    `conserve.solve_alpha`).  A stack started from a guess takes one more sweep after its residual
    first meets `STAGE_TOL`.  Every probe of a root search is a stack, and
    there the error left at that point depends on where the guess came
    from; the extra sweep shrinks it by the contraction factor, so that y1
    varies smoothly with alpha across the probes however each was started.
    A single tableau serves a fixed-tableau run, where no such smoothness is
    asked for, and stops at its first residual within `STAGE_TOL`.

    A single tableau solves under `np.errstate(all="ignore")`, so that a
    diverging solve outside `integrate` warns of nothing; it serves the
    cold solves of a fixed-tableau run and `conserve.energy_defect`.  A
    stack does not enter it: an entry costs about 1.1 us, some 6 ms over
    the 5245 stacked solves of one `kepler-ep2` benchmark execution, and a
    root search run by `integrate` is quiet already.

    Non-convergence is reported through the `converged` flag, not raised: an
    iterate whose field is singular or not finite ends the solve at the last
    iterate with a finite field, and a Newton iteration that stalls ends it
    at once, so a solve forms at most one Jacobian.  A field that is not
    finite makes the next sweep's residual not finite, and that is where it
    is noticed.  A singular start raises; a start whose field is not finite
    ends the first sweep.  A start whose shape is not (system.dim,) raises
    ValueError.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (system.dim,):
        raise ValueError(f"start state has shape {y0.shape}, the system's states ({system.dim},)")
    A, b, h, field = tableau.A, tableau.b, cfg.h, system.vector_field
    # the flows take a stack as it is and flatten it to (k*s, n) rows
    # themselves; y0 broadcast once spares each sweep a broadcasting operation
    Y0 = np.empty(A.shape[:-1] + y0.shape)
    Y0[...] = y0
    if guess is None:
        Y, Z, polish = Y0, np.zeros_like(Y0), False
    else:
        Y, Z, polish = guess, guess - Y0, A.ndim == 3
    if A.ndim == 3:
        Y, _, F, res, iterations = _sweeps(system, A, h, y0, Y0, Y, Z, field(Y), polish)
        increment = h * (b @ F)
    else:
        K = h * np.vstack((A, b))  # as integrate forms it for a run
        with np.errstate(all="ignore"):
            Y, F, increment, res, iterations = single_solve(system, K, y0, Y0, Y, Z)
    return StepResult(increment, Y, iterations, bool(res <= STAGE_TOL), float(res), y0, h, F)


def single_solve(system, K, y0, Y0, Y, Z):
    """The stage solve of a single tableau, for `step` and the predicted
    steps of `experiments.integrate` alike, from the start `Y` and its
    increments `Z` = `Y` - y0, with the operator K = h [A; b^T].  It
    evaluates the start's fields F and forms G = K @ F once: the residual
    Z - G[:s] is the sweep loop's first check, and a start that meets
    `STAGE_TOL` there is accepted after one sweep, with the increment
    G[s].  Any other start goes on to `_sweeps`, with h A = K[:s], h = 1.0
    (which changes no value), the fields it has and the buffer `Y0` filled
    with y0 at every stage, and takes row s of K @ F at the fields the
    sweeps end on.  Returns the stages, their fields, the
    increment, the scaled residual and the sweep count."""
    F = system.vector_field(Y)
    G = K @ F
    values = (Z - G[:-1]).ravel().tolist()
    res = max(map(abs, values)) / (1.0 + max(map(abs, y0.tolist())))
    if res <= STAGE_TOL and not math.isnan(sum(values)):
        return Y, F, G[-1], res, 1
    Y0[...] = y0
    Y, _, F, res, iterations = _sweeps(system, K[:-1], 1.0, y0, Y0, Y, Z, F, False)
    return Y, F, (K @ F)[-1], res, iterations


def _sweeps(system, A, h, y0, Y0, Y, Z, F, polish):
    """The stage iteration of `step` from the start `Y`, its increments
    `Z` = `Y` - `Y0` and its stage fields `F`: fixed-point sweeps on the
    stage system of y0 (broadcast over the stages in `Y0`), a simplified
    Newton iteration once they stall, and the exits `step` describes.

    The sweeps iterate on the increments, Z <- h (A @ F(Y0 + Z)) (Hairer &
    Wanner, *Solving ODEs II*, IV.8), with the residual Z - h (A @ F): one
    sweep takes four array operations where iterating on Y takes five, and
    gives the same fixed-point iterates Y.  A stack passes its (k, s, s)
    coefficients and h; a single tableau passes h A, rows :s of its
    operator K, and h = 1.0, which changes no value, so that the tuned
    stacks' sweep loop is the same operation for operation.  The caller
    evaluates the start's fields `F`: `single_solve` hands on a start
    whose first check it made and failed, and so evaluates no field twice.
    Returns the last iterate, its increments, the stage fields the system's
    field gave, its scaled residual and the sweep count."""
    # the max-norms below read Python floats: on a few dozen values numpy's
    # reductions cost several times an element-wise operation
    scale = 1.0 + max(map(abs, y0.tolist()))
    s, n = Y0.shape[-2:]
    field = system.vector_field

    M = None  # simplified-Newton matrices; None while fixed-point sweeps run
    history = []
    iterations = 0
    last = None  # the iterate before (Y, Z, F), with its residual

    while True:
        Z_next = A @ F
        Z_next *= h
        defect = Z - Z_next
        values = defect.ravel().tolist()
        # max() passes over a NaN that is not its first value, but the sum of
        # a list that holds one is NaN (a finite sum that overflows is inf)
        res = math.nan if math.isnan(sum(values)) else max(map(abs, values)) / scale
        if not math.isfinite(res):
            # a field of this iterate is not finite, so its residual is not
            # either: end at the iterate before (a start ends the first sweep)
            if last is None:
                iterations = 1
            else:
                Y, Z, F, res = last
            break
        if iterations == _MAX_ITERS:
            break
        iterations += 1
        history.append(res)
        if res <= STAGE_TOL:
            if not polish:
                break
            polish = False
        elif len(history) > _STALL_WINDOW and history[-1] > 0.5 * history[-1 - _STALL_WINDOW]:
            if M is not None:
                break  # Newton stalled too
            # a stalled fixed point turns to simplified Newton with J at y0.
            # One J serves every member: I - h kron(A_k, J) for each A_k
            J = _fd_jacobian(system, y0)
            kron = A[..., :, None, :, None] * J[:, None, :]
            M = np.eye(s * n) - h * kron.reshape(A.shape[:-2] + (s * n, s * n))
            history = []
        if M is not None:
            rhs = defect.reshape(A.shape[:-2] + (s * n, 1))
            Z_next = Z - np.linalg.solve(M, rhs).reshape(Y0.shape)
        Y_next = Y0 + Z_next
        try:
            F_next = field(Y_next)
        except SingularPotentialError:
            break
        last = Y, Z, F, res
        Y, Z, F = Y_next, Z_next, F_next
    return Y, Z, F, res, iterations


@lru_cache(maxsize=64)
def _history_blocks(q, history):
    """The history blocks B_m of `stage_predictor`, m = `history`, on the
    nodes of the quadrature rule `q`: an (s, m s) read-only matrix."""
    c, s = q.c, q.s
    L = np.empty((s, s))
    for j in range(s):
        others = np.delete(c, j)
        L[:, j] = np.prod((1.0 + c[:, None] - others) / (c[j] - others), axis=1)

    def w(j):
        return (-1) ** (j % 2) * math.comb(history - 1, j + 1)

    eye = np.eye(s)
    B = np.hstack([w(j) * eye - w(j - 1) * L for j in range(history)])
    B.setflags(write=False)
    return B


def stage_predictor(tableau, history=1) -> np.ndarray:
    """The (s, history s) matrix E that predicts the stages of the next step
    from the stage fields of the last `history` steps, stacked newest first.

    With L[i, j] = l_j(1 + c_i), the Lagrange basis on the nodes c evaluated
    one step ahead, L F extrapolates a step's stage fields F to the nodes of
    the next step of the same size, and y1 + h A L F predicts its stages to
    O(h^{s+1}) (the starting approximation of Hairer, Lubich & Wanner,
    *Geometric Numerical Integration*, VIII.6.1).  For Gauss this is the
    collocation polynomial at 1 + c_i; unlike the quasi-collocation
    interpolant it stays consistent with y1 for a perturbed tableau.
    `history=1` gives E = A L.

    The carry's misses d_j = F_j - L F_{j+1} (F_0 the newest fields) are
    smooth along the solution, so the m-1 of them that m = `history` steps
    give extrapolate to the next step's miss with the binomial weights
    w_j = (-1)^j C(m-1, j+1), and each step of history gains one power of h:
    y1 + h E F predicts to O(h^{s+m}).  Expanded, E = A B_m with the history
    blocks B_m = [B_0, ..., B_{m-1}], B_j = w_j I - w_{j-1} L, where the
    same formula gives w_{-1} = -1 and w_{m-1} = 0; for m=5,
    B_5 = [L+4I, -(4L+6I), 6L+4I, -(4L+I), L].  B_m depends on the nodes
    alone and is cached per quadrature rule (`_history_blocks`), so E is one
    product with the tableau's A, whatever tableau of the rule it is given.
    The extrapolation also amplifies the fields' own solve error, which
    bounds how much history pays (see `experiments._STAGE_HISTORY`).
    """
    return tableau.A @ _history_blocks(tableau.quadrature, history)
