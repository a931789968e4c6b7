"""Multi-step integrations with per-step conservation tuning, plus the
convergence and defect-order studies used to validate the method family.

An `integrate` run walks the grid t0, t0+h, ... collecting states, invariant
errors and the per-step perturbation roots; `convergence_table` turns a list
of stepsizes into global errors, observed orders and the width delta(h) of
the band containing all per-step roots, scaled by the predicted power of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import problems as problems_mod
from .conserve import (
    AlphaSearchConfig,
    NoRootError,
    StageSolveError,
    energy_defect,
    root_scale,
    solve_alpha,
)
from .stepper import StepConfig, stage_predictor, step
from .tableau import PerturbationSpec, butcher, gauss_quadrature

__all__ = [
    "ConvergenceRow",
    "DefectOrderReport",
    "IntegrationError",
    "RunSpec",
    "TrajectoryRecord",
    "convergence_table",
    "energy_defect_order",
    "integrate",
    "reference_state",
]

METHODS = ("gauss", "fixed-alpha", "ep-gauss", "ep-gauss-type2")

# tolerance for "h divides the interval": the final step is shortened and
# flagged when the remainder exceeds this fraction of h
_PARTIAL_STEP_REL = 1e-9

# steps of stage fields a fixed-tableau step is predicted from (see
# `stepper.stage_predictor`); six take more sweeps at large h (Kepler s=2,
# h=2^-2: 12.96 a step against 12.83; quartic s=3, h=2^-3: 12.31 against 12.13)
_STAGE_HISTORY = 5


class IntegrationError(RuntimeError):
    """A step of a run failed; carries `step_index`, `time` and `state`."""

    def __init__(self, message, step_index, time, state):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.state = state


def resolve_perturb_index(method, s, perturb_index=None):
    """Default perturbed subdiagonal: the last (s-1) except for the second
    type, which perturbs the first."""
    if perturb_index is not None:
        return perturb_index
    return 1 if method == "ep-gauss-type2" else s - 1


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one integration run.

    Construction validates every field once: the problem with its `e` and
    `y0` (as `get_problem` builds it), the method, the time grid, the
    search config, which has no setting, and the run's coupling
    `perturbation`, which `integrate` then runs.  `perturb_index` is
    checked whether or not the method reads it.  A given `y0` is stored
    as a tuple of floats, so that specs compare and hash by value."""

    problem: str
    method: str
    s: int
    h: float
    t_end: float
    t0: float = 0.0
    e: float | None = None
    y0: tuple | None = None
    alpha: float = 0.0
    perturb_index: int | None = None
    search: AlphaSearchConfig = field(default_factory=AlphaSearchConfig)

    def __post_init__(self):
        _, ic = problems_mod.get_problem(self.problem, e=self.e, y0=self.y0)
        if self.y0 is not None:
            object.__setattr__(self, "y0", tuple(ic.y0.tolist()))
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("h", "t0", "t_end", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.h <= 0.0:
            raise ValueError("run stepsize must be positive")
        if not math.isfinite((self.t_end - self.t0) / self.h):
            raise ValueError("the step count (t_end - t0) / h must be finite")
        if self.t_end - self.t0 <= _PARTIAL_STEP_REL * self.h:
            raise ValueError(
                f"the run makes no step: t_end - t0 = {self.t_end - self.t0!r} "
                f"is at most {_PARTIAL_STEP_REL:g} h"
            )
        if not isinstance(self.search, AlphaSearchConfig):
            raise ValueError(f"search must be an AlphaSearchConfig, got {self.search!r}")
        gauss_quadrature(self.s)
        object.__setattr__(self, "s", int(self.s))
        self.perturbation  # builds the run's coupling, which checks it
        # -0.0 too: the record would carry it as every step's alpha
        if self.method != "fixed-alpha" and (self.alpha or math.copysign(1.0, self.alpha) < 0):
            raise ValueError(
                f"alpha applies to method fixed-alpha only, not {self.method!r}; "
                f"got alpha={self.alpha!r}"
            )
        self.root_scale  # seeds the root search and scales the root band

    @property
    def tunes_alpha(self):
        return self.method in ("ep-gauss", "ep-gauss-type2")

    @property
    def perturbation(self):
        """The run's `PerturbationSpec`: `none(s)` for plain Gauss, else the
        coupling `resolve_perturb_index` names, moved by `alpha` (zero for
        the tuned methods, whose search sets each step's value).  Plain
        Gauss reads no index, but one it is given must name a coupling."""
        if self.method == "gauss":
            if self.perturb_index is not None:
                PerturbationSpec.single(self.s, self.perturb_index, 0.0)
            return PerturbationSpec.none(self.s)
        index = resolve_perturb_index(self.method, self.s, self.perturb_index)
        return PerturbationSpec.single(self.s, index, self.alpha)

    @property
    def root_exponent(self):
        """r of the root scale h^{2r}: s - index for a perturbed tableau, 1
        for plain Gauss."""
        index = self.perturbation.index
        return 1 if index == 0 else self.s - index

    @property
    def root_scale(self):
        """h^{2r}, the scale of the per-step roots and of their band (see
        `conserve.root_scale`)."""
        return root_scale(self.h, self.root_exponent)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States and diagnostics of one run; arrays share the step axis.

    `energy_error[k]` is H(y_k) - H(y_0); `alpha_trace[k]`, `g_evals[k]`,
    `g_residual[k]` and `stage_iters[k]` describe step k (one entry per
    step).  `g_residual[k]` is the energy defect the root search left at its
    root: the increment H(y_k + D_k) - H(y_k) of step k, measured against the
    step's own start energy, so it agrees with
    `energy_error[k + 1] - energy_error[k]` to the round-off of H; it is 0.0
    for methods that do not tune alpha.  `stage_iters[k]` counts the sweeps
    of the stage solve accepted as step k: for a tuned step, the batched
    solve of the probe round that holds the root, with the polish sweep
    `stepper.step` takes after a guessed start; for a `gauss` or
    `fixed-alpha` step, the solve of its single tableau, which takes none;
    for a step whose guessed start failed and was solved again from y0,
    only the sweeps of that cold solve.  When the interval is not an
    integer multiple of h the trailing partial step is flagged and excluded
    from the root-band statistics.
    """

    spec: RunSpec
    times: np.ndarray
    states: np.ndarray
    energy_error: np.ndarray
    invariant_errors: dict
    alpha_trace: np.ndarray
    g_evals: np.ndarray
    g_residual: np.ndarray
    stage_iters: np.ndarray
    partial_final: bool

    @property
    def full_step_alphas(self):
        n = self.alpha_trace.size
        return self.alpha_trace[: n - 1] if self.partial_final else self.alpha_trace

    @property
    def delta(self):
        """Width of the band containing the per-step roots (full steps only)."""
        a = self.full_step_alphas
        return float(a.max() - a.min()) if a.size else 0.0

    @property
    def final_state(self):
        return self.states[-1]


def _step_grid(t0, t_end, h):
    span = t_end - t0
    n_full = int(math.floor(span / h + _PARTIAL_STEP_REL))
    remainder = span - n_full * h
    partial = remainder > _PARTIAL_STEP_REL * h
    return n_full, (remainder if partial else 0.0), partial


def _raise_at_first_singular_state(system, times, states):
    """Raise the IntegrationError of the first step whose end state the
    energy or an invariant cannot be evaluated at."""
    for k in range(states.shape[0] - 1):
        try:
            system.energy(states[k + 1])
            for inv in system.quadratic_invariants:
                inv.fn(states[k + 1])
        except problems_mod.SingularPotentialError as exc:
            t = float(times[k])
            raise IntegrationError(
                f"step {k} at t={t!r} ended at a singular state: {exc}",
                k, t, states[k].copy(),
            ) from exc


@np.errstate(all="ignore")
def integrate(spec: RunSpec) -> TrajectoryRecord:
    """Run one integration.  Energy-tuned methods accept, as each step, the
    stage solve that the root search made at the located root; each search
    conserves the energy of the state it starts from, so such a run depends
    only on its start state.  Fixed-tableau methods start each full step k
    after the first from the stages that the stage fields of the last
    min(k, 5) full steps predict (`stepper.stage_predictor`, O(h^{s+5})
    once five are kept); the first and a shortened last step start from y0.
    At extreme h the predicted start can land outside the fixed point's
    basin: a step whose solve from it does not converge is solved once
    more from y0, and raises only if that fails too.

    The time grid is laid out before the first step: t0 itself, then
    t0 + k h for the full steps, and t_end for a shortened last step; a
    failed step reports its start time from it.  H and the invariants are
    evaluated once, over all states after the last step, and their errors
    are taken against states[0]; a singular start fails in the solve of
    step 0.  A stage iterate that overflows ends its solve unconverged,
    and a run fails by its typed error, without numpy warnings."""
    system, ic = problems_mod.get_problem(spec.problem, e=spec.e, y0=spec.y0)
    y = np.asarray(ic.y0, float)

    n_full, remainder, partial = _step_grid(spec.t0, spec.t_end, spec.h)
    n_steps = n_full + (1 if partial else 0)
    # the grid opens with t0 itself: t0 + 0 h would turn a -0.0 start into 0.0
    full_times = spec.t0 + np.arange(1, n_full + 1) * spec.h
    times = np.concatenate(([spec.t0], full_times, [spec.t_end] if partial else []))
    states = np.empty((n_steps + 1, system.dim))
    states[0] = y

    pert = spec.perturbation
    if not spec.tunes_alpha:
        fixed_tableau = butcher(gauss_quadrature(spec.s), pert)
        predictors = [stage_predictor(fixed_tableau, m) for m in range(1, _STAGE_HISTORY + 1)]
        # the stage fields of the last full steps, newest first
        fields = np.empty((_STAGE_HISTORY * spec.s, system.dim))
        s = spec.s

    alpha_trace = np.full(n_steps, spec.alpha)
    g_evals = np.zeros(n_steps, dtype=int)
    g_residual = np.zeros(n_steps)
    stage_iters = np.zeros(n_steps, dtype=int)

    # one StepConfig per distinct step size: the full steps and the partial one
    full_cfg = StepConfig(h=spec.h)
    last_cfg = StepConfig(h=remainder) if partial else full_cfg
    for k in range(n_steps):
        cfg = full_cfg if k < n_full else last_cfg
        try:
            if spec.tunes_alpha:
                record = solve_alpha(system, spec.s, pert.index, y, cfg.h, spec.search, cfg)
                alpha_trace[k] = record.alpha_star
                g_evals[k] = record.g_evals
                g_residual[k] = record.g_residual
                result = record.step
            else:
                # a full step after the first starts from the stages that the
                # last full steps predict; the first and a partial step start
                # cold, and so does a second try after a guess that failed
                guess = None
                if 0 < k < n_full:
                    m = min(k, _STAGE_HISTORY)
                    guess = y + cfg.h * (predictors[m - 1] @ fields[: m * s])
                result = step(system, fixed_tableau, y, cfg, guess)
                if guess is not None and not result.converged:
                    result = step(system, fixed_tableau, y, cfg)
                if not result.converged:
                    raise StageSolveError(result, spec.alpha)
                fields[s:] = fields[:-s]
                fields[:s] = result.stage_fields
        except (
            StageSolveError, NoRootError, problems_mod.SingularPotentialError
        ) as exc:
            t = float(times[k])
            raise IntegrationError(
                f"step {k} at t={t!r} failed: {exc}", k, t, y.copy()
            ) from exc
        y = result.y1
        stage_iters[k] = result.iterations
        states[k + 1] = y

    try:
        energy = system.energy(states)
        invariants = {inv.name: inv.fn(states) for inv in system.quadratic_invariants}
    except problems_mod.SingularPotentialError:
        _raise_at_first_singular_state(system, times, states)
        raise

    return TrajectoryRecord(
        spec=spec,
        times=times,
        states=states,
        energy_error=energy - energy[0],
        invariant_errors={name: v - v[0] for name, v in invariants.items()},
        alpha_trace=alpha_trace,
        g_evals=g_evals,
        g_residual=g_residual,
        stage_iters=stage_iters,
        partial_final=partial,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One stepsize of a convergence study.  `order` is defined from the
    second row on; `delta_scaled` divides the root band by h^{2r}."""

    h: float
    e_h: float
    order: float | None
    delta_h: float
    delta_scaled: float


@lru_cache(maxsize=32)
def _fine_reference_cached(spec):
    """End state of the fine-step unperturbed Gauss (s=3) run `spec`, with a
    step-doubling check: halve the step until the Richardson estimate of the
    finer run's error, max|state - previous| / (2^6 - 1) for these order-6
    runs (Hairer, Norsett & Wanner I, sec. II.4), is at most 1e-12.  Two
    consecutive answers must therefore agree to 6.3e-11, not 1e-12; the
    bound on the returned state's estimated error stays 1e-12; a tighter gap
    would only chase the round-off of the finer runs.  The cached state is a read-only copy, so
    a caller can neither change what the next call returns nor keep the
    finer run's whole trajectory alive."""
    previous = None
    for _ in range(6):
        state = integrate(spec).final_state
        if previous is not None and np.max(np.abs(state - previous)) / (2**6 - 1) <= 1e-12:
            state = state.copy()
            state.flags.writeable = False
            return state
        previous = state
        spec = replace(spec, h=spec.h / 2.0)
    raise RuntimeError(
        f"fine-step reference for {spec.problem!r} did not settle to 1e-12 at t={spec.t_end}"
    )


def reference_state(problem, t_end, h_min, e=None, y0=None):
    """End-point oracle: exact for the Kepler problem, fine-step Gauss with a
    Richardson-style agreement check otherwise."""
    if problem == "kepler" and y0 is None:
        return problems_mod.kepler_reference(
            problems_mod.KEPLER_E if e is None else e, t_end
        )
    spec = RunSpec(problem=problem, method="gauss", s=3, h=h_min / 8.0, t_end=t_end, e=e, y0=y0)
    return _fine_reference_cached(spec)


def convergence_table(problem, method, s, h_list, t_end, **fields):
    """Global error, observed order and root-band statistics per stepsize.

    `h_list` must be strictly decreasing.  The other keywords are `RunSpec`
    fields (`t0`, `e`, `y0`, `alpha`, `perturb_index`, `search`) shared by
    every run.  The problems are autonomous, so each run is measured
    against `reference_state` after `t_end - t0`.
    """
    h_list = [float(h) for h in h_list]
    if not h_list:
        raise ValueError("h_list must not be empty")
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    # build every run's spec first, so that bad inputs fail before the
    # reference is computed
    specs = [
        RunSpec(problem=problem, method=method, s=s, h=h, t_end=t_end, **fields)
        for h in h_list
    ]
    first = specs[0]
    reference = reference_state(problem, t_end - first.t0, min(h_list), e=first.e, y0=first.y0)
    records = [integrate(spec) for spec in specs]

    rows = []
    previous_error = None
    for spec, record in zip(specs, records):
        e_h = float(np.linalg.norm(record.final_state - reference))
        order = None
        if previous_error is not None and e_h > 0.0 and previous_error > 0.0:
            order = math.log2(previous_error / e_h)
        delta = record.delta
        rows.append(
            ConvergenceRow(
                h=spec.h,
                e_h=e_h,
                order=order,
                delta_h=delta,
                delta_scaled=delta / spec.root_scale,
            )
        )
        previous_error = e_h
    return rows


@dataclass(frozen=True)
class DefectOrderReport:
    """Log-log slopes of the first-step energy defect: `slope_zero` for the
    unperturbed method (expected 2s+1), `slope_fixed` at the supplied fixed
    perturbation (expected 2s-1).  A slope is None when the defect sits at
    round-off for every stepsize (quadratic Hamiltonians)."""

    slope_zero: float | None
    slope_fixed: float | None
    alpha: float
    defects_zero: tuple
    defects_fixed: tuple

    @property
    def degenerate(self):
        return self.slope_zero is None and self.slope_fixed is None


def _loglog_slope(h_list, values):
    v = np.abs(np.asarray(values, float))
    if np.all(v < 1e-15):
        return None
    return float(np.polyfit(np.log(h_list), np.log(v), 1)[0])


def energy_defect_order(problem, s, h_list, alpha=1e-3, e=None, y0=None):
    """Fit the h-order of the one-step energy defect at alpha=0 and at a
    fixed nonzero alpha of the last coupling, the one whose expected order
    `DefectOrderReport` gives; needs at least 3 stepsizes, positive and
    distinct."""
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least 3 stepsizes to fit a defect order")
    if not all(h > 0.0 for h in h_list) or len(set(h_list)) < len(h_list):
        raise ValueError(f"stepsizes must be positive and distinct, got {h_list}")
    system, ic = problems_mod.get_problem(problem, e=e, y0=y0)
    g0, ga = [], []
    for h in h_list:
        cfg = StepConfig(h=h)
        g, _ = energy_defect(system, s, s - 1, ic.y0, 0.0, cfg)
        g0.append(g)
        g, _ = energy_defect(system, s, s - 1, ic.y0, alpha, cfg)
        ga.append(g)
    return DefectOrderReport(
        slope_zero=_loglog_slope(h_list, g0),
        slope_fixed=_loglog_slope(h_list, ga),
        alpha=alpha,
        defects_zero=tuple(g0),
        defects_fixed=tuple(ga),
    )
