"""Implicit Runge-Kutta stage solver.

One step solves the coupled stage system Y_i = y0 + h sum_j A_ij f(Y_j) and
advances y1 = y0 + h sum_j b_j f(Y_j).  The solver is plain fixed-point
iteration, adequate for nonstiff problems at moderate stepsizes; a simplified
Newton iteration (vector-field Jacobian frozen at the step start, applied to
the coupled system through its Kronecker structure) takes over from the
current iterate when the fixed-point residual stalls, and a Newton
iteration that stalls too ends the solve unconverged.  The stages start from
y0 or from a caller's guess: a root search passes the line through two
converged probes of the same step, a fixed-tableau run the stage fields of
its last five steps extrapolated by `stage_predictor`, a start O(h^{s+5})
from the solution.  Only a root search's stacked solves take a polish sweep
after a guessed start (see `step`).

`step` does its set-up per call and returns a `StepResult`; `fixed_run`
takes the steps of a whole fixed-tableau run, doing the set-up once (the
tableau, the field, the start buffer and the predictor matrices, which are
cached per tableau) and sending each predicted step straight to the sweep
loop `step` uses, so both compute the same floats in the same order.  Its
cold solves (the first step, a shortened last step, and a step whose
predicted start does not converge, solved once more from y0 and counted by
the sweeps of that cold solve) go through `step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .problems import SingularPotentialError
from .tableau import butcher, gauss_quadrature

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
    h (b @ stage_fields), and the accepted state `y1` is the property
    y0 + increment, formed when it is read;
    `stage_residual` is the scaled max-norm defect of the stage equations
    at return, and `converged` says whether it meets `STAGE_TOL`; the
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
    are the batch's.  A stack of one started cold solves exactly as its
    single tableau; started from a guess it takes the polish sweep below,
    which the single tableau does not.

    The stages start from y0, or from `guess`, an (s, n) array ((k, s, n)
    for a stack): in a root search, the stages extrapolated through the two
    nearest converged probes from the same y0 (see `conserve.solve_alpha`);
    in a fixed-tableau run, the stages predicted from the stage fields of
    the steps before (see `stage_predictor`).  A
    stack started from a guess takes one more sweep after its residual
    first meets `STAGE_TOL`.  Every probe of a root search is a stack, and
    there the error left at that point depends on where the guess came
    from; the extra sweep shrinks it by the contraction factor, so that y1
    varies smoothly with alpha across the probes however each was started.
    A single tableau serves a fixed-tableau run, where no such smoothness is
    asked for, and stops at its first residual within `STAGE_TOL`.

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
    A, h = tableau.A, cfg.h
    # the flows take a stack as it is and flatten it to (k*s, n) rows
    # themselves; y0 broadcast once spares each sweep a broadcasting operation
    Y0 = np.empty(A.shape[:-1] + y0.shape)
    Y0[...] = y0
    start = Y0 if guess is None else guess
    polish = guess is not None and A.ndim == 3
    Y, F, res, iterations = _sweeps(system, system.vector_field, A, h, y0, Y0, start, polish)
    return StepResult(
        h * (tableau.b @ F), Y, iterations, bool(res <= STAGE_TOL), float(res), y0, h, F
    )


def _sweeps(system, field, A, h, y0, Y0, Y, polish):
    """The stage iteration of `step` from the start `Y`: fixed-point sweeps
    on the stage system of y0 (broadcast over the stages in `Y0`), a
    simplified Newton iteration once they stall, and the exits `step`
    describes.  Returns the last iterate, its stage fields `field` gave, its
    scaled residual and the sweep count."""
    # the max-norms below read Python floats: on a few dozen values numpy's
    # reductions cost several times an element-wise operation
    scale = 1.0 + max(map(abs, y0.tolist()))
    s, n = Y0.shape[-2:]
    F = field(Y)

    M = None  # simplified-Newton matrices; None while fixed-point sweeps run
    history = []
    iterations = 0
    last = None  # the iterate before (Y, F), with its residual

    while True:
        hAF = A @ F
        hAF *= h
        defect = Y - Y0
        defect -= hAF
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
                Y, F, res = last
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
        if M is None:
            Y_next = Y0 + hAF
        else:
            rhs = defect.reshape(A.shape[:-2] + (s * n, 1))
            Y_next = Y - np.linalg.solve(M, rhs).reshape(Y0.shape)
        try:
            F_next = field(Y_next)
        except SingularPotentialError:
            break
        last = Y, F, res
        Y, F = Y_next, F_next
    return Y, F, res, iterations


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
    y1 + h E F predicts to O(h^{s+m}).  Expanded, E = A [B_0, ..., B_{m-1}]
    with B_j = w_j I - w_{j-1} L, where the same formula gives w_{-1} = -1
    and w_{m-1} = 0; for m=5, A [L+4I, -(4L+6I), 6L+4I, -(4L+I), L].  The
    extrapolation also amplifies the fields' own solve error, which bounds
    how much history pays (see `_STAGE_HISTORY`).
    """
    c = tableau.c
    s = tableau.s
    L = np.empty((s, s))
    for j in range(s):
        others = np.delete(c, j)
        L[:, j] = np.prod((1.0 + c[:, None] - others) / (c[j] - others), axis=1)

    def w(j):
        return (-1) ** (j % 2) * math.comb(history - 1, j + 1)

    eye = np.eye(s)
    return tableau.A @ np.hstack([w(j) * eye - w(j - 1) * L for j in range(history)])


# steps of stage fields a fixed-tableau step is predicted from; six take more
# sweeps at large h (Kepler s=2, h=2^-2: 12.96 a step against 12.83; quartic
# s=3, h=2^-3: 12.31 against 12.13)
_STAGE_HISTORY = 5


@lru_cache(maxsize=32)
def _fixed_predictors(pert):
    """`stage_predictor` of the tableau `butcher` builds for `pert`, for
    1.._STAGE_HISTORY steps of history, read-only; built on the first run
    of each tableau and shared by the runs after it."""
    tab = butcher(gauss_quadrature(pert.s), pert)
    predictors = tuple(stage_predictor(tab, m) for m in range(1, _STAGE_HISTORY + 1))
    for E in predictors:
        E.setflags(write=False)
    return predictors


def fixed_run(system, tableau, states, iterations, cfg, last_cfg=None):
    """Take the steps of a fixed-tableau run from states[0], writing the
    state after step k to states[k + 1] and its sweeps to iterations[k].

    `tableau` is the one `butcher` builds for its perturbation.  The full
    steps take `cfg`; `last_cfg`, when given, is the shortened last step.
    The set-up is done once per run: each full step after the first starts
    from the stages that the stage fields of the last min(k, 5) full steps
    predict (`stage_predictor`, O(h^{s+5}) once five are kept) and goes
    straight to the sweep loop of `step`, and one that converges is
    accepted as the same floats `step` would give.  The first step, a
    shortened last step and a step whose predicted start does not converge
    are solved from y0 by `step`, and count the sweeps of that cold solve.

    Returns None when every step converges, else the index of the step that
    failed and the cause: the unconverged `StepResult` of its cold solve,
    or the `SingularPotentialError` its start raised."""
    A, b, s, h, field = tableau.A, tableau.b, tableau.s, cfg.h, system.vector_field
    predictors = _fixed_predictors(tableau.perturbation)
    n_full = iterations.size - (last_cfg is not None)
    # the stage fields of the last full steps, newest first
    fields = np.empty((_STAGE_HISTORY * s, system.dim))
    Y0 = np.empty((s, system.dim))
    y = states[0]
    try:
        for k in range(iterations.size):
            y1 = None
            if 0 < k < n_full:
                m = min(k, _STAGE_HISTORY)
                guess = y + h * (predictors[m - 1] @ fields[: m * s])
                Y0[...] = y
                _, F, res, sweeps = _sweeps(system, field, A, h, y, Y0, guess, False)
                if res <= STAGE_TOL:
                    y1 = y + h * (b @ F)  # StepResult.y1, y0 + h (b @ F)
            if y1 is None:
                result = step(system, tableau, y, cfg if k < n_full else last_cfg)
                if not result.converged:
                    return k, result
                F, sweeps, y1 = result.stage_fields, result.iterations, result.y1
            fields[s:] = fields[:-s]
            fields[:s] = F
            iterations[k] = sweeps
            states[k + 1] = y = y1
    except SingularPotentialError as exc:
        return k, exc
