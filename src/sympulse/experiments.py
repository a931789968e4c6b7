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
    SearchBudgetError,
    StageSolveError,
    solve_alpha,
)
from .stepper import StepConfig, step
from .tableau import PerturbationSpec, butcher, gauss_quadrature

METHODS = ("gauss", "fixed-alpha", "ep-gauss", "ep-gauss-type2")

# tolerance for "h divides the interval": the final step is shortened and
# flagged when the remainder exceeds this fraction of h
_PARTIAL_STEP_REL = 1e-9


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
    """Everything needed to reproduce one integration run."""

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
    step_cfg: StepConfig | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("h", "t0", "t_end", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.h <= 0.0:
            raise ValueError("run stepsize must be positive")
        if self.s < 1:
            raise ValueError("stage count must be positive")

    @property
    def tunes_alpha(self):
        return self.method in ("ep-gauss", "ep-gauss-type2")

    def resolved_perturb_index(self):
        if self.method == "gauss":
            return None
        return resolve_perturb_index(self.method, self.s, self.perturb_index)

    def make_step_cfg(self, h=None):
        cfg = self.step_cfg if self.step_cfg is not None else StepConfig(h=self.h)
        return replace(cfg, h=self.h if h is None else h)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States and diagnostics of one run; arrays share the step axis.

    `energy_error[k]` is H(y_k) - H(y_0); `alpha_trace[k]`, `g_evals[k]`,
    `g_residual[k]` and `stage_iters[k]` describe step k (one entry per
    step).  `g_residual[k]` is the energy defect the root search left at its
    root, measured against H(y_0), so it agrees with `energy_error[k + 1]` to
    round-off; it is 0.0 for methods that do not tune alpha.  When the
    interval is not an integer multiple of h the trailing partial step is
    flagged and excluded from the root-band statistics.
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


def integrate(spec: RunSpec) -> TrajectoryRecord:
    """Run one integration.  Energy-tuned methods accept, as each step, the
    stage solve that the root search made at the located root, and pin the
    search's target to the initial energy of the run."""
    system, ic = problems_mod.get_problem(spec.problem, e=spec.e, y0=spec.y0)
    y = np.asarray(ic.y0, float)
    t = spec.t0
    h0_energy = float(system.energy(y))
    inv0 = {inv.name: float(inv.fn(y)) for inv in system.quadratic_invariants}

    n_full, remainder, partial = _step_grid(spec.t0, spec.t_end, spec.h)
    n_steps = n_full + (1 if partial else 0)
    index = spec.resolved_perturb_index()
    fixed_tableau = None
    if not spec.tunes_alpha:
        pert = (
            PerturbationSpec.none(spec.s)
            if spec.method == "gauss"
            else PerturbationSpec.single(spec.s, index, spec.alpha)
        )
        fixed_tableau = butcher(gauss_quadrature(spec.s), pert)

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, system.dim))
    energy_error = np.empty(n_steps + 1)
    invariant_errors = {
        name: np.empty(n_steps + 1) for name in inv0
    }
    alpha_trace = np.empty(n_steps)
    g_evals = np.zeros(n_steps, dtype=int)
    g_residual = np.zeros(n_steps)
    stage_iters = np.zeros(n_steps, dtype=int)

    times[0] = t
    states[0] = y
    energy_error[0] = 0.0
    for name in inv0:
        invariant_errors[name][0] = 0.0

    # one StepConfig per distinct step size: the full steps and the partial one
    full_cfg = spec.make_step_cfg()
    last_cfg = spec.make_step_cfg(remainder) if partial else full_cfg
    hint = None
    for k in range(n_steps):
        if k < n_full:
            h, cfg = spec.h, full_cfg
        else:
            h, cfg = remainder, last_cfg
        try:
            if spec.tunes_alpha:
                record = solve_alpha(
                    system,
                    spec.s,
                    index,
                    y,
                    h,
                    spec.search,
                    cfg,
                    alpha_hint=hint,
                    energy_target=h0_energy,
                )
                alpha_k = record.alpha_star
                g_evals[k] = record.g_evals
                g_residual[k] = record.g_residual
                # warm-start the next step only if it runs at the same h
                hint = alpha_k if k + 1 < n_full else None
                result = record.step
            else:
                alpha_k = spec.alpha if spec.method == "fixed-alpha" else 0.0
                result = step(system, fixed_tableau, y, cfg)
                if not result.converged:
                    raise StageSolveError(
                        f"stage iteration failed (residual {result.stage_residual:.3e})",
                        result=result,
                        alpha=alpha_k,
                    )
        except (
            StageSolveError,
            NoRootError,
            SearchBudgetError,
            problems_mod.SingularPotentialError,
        ) as exc:
            raise IntegrationError(
                f"step {k} at t={t!r} failed: {exc}", k, t, y.copy()
            ) from exc
        y = result.y1
        t = spec.t0 + (k + 1) * spec.h if k < n_full else spec.t_end
        alpha_trace[k] = alpha_k
        stage_iters[k] = result.iterations
        times[k + 1] = t
        states[k + 1] = y
        energy_error[k + 1] = float(system.energy(y)) - h0_energy
        for inv in system.quadratic_invariants:
            invariant_errors[inv.name][k + 1] = float(inv.fn(y)) - inv0[inv.name]

    return TrajectoryRecord(
        spec=spec,
        times=times,
        states=states,
        energy_error=energy_error,
        invariant_errors=invariant_errors,
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
def _fine_reference_cached(problem, e, y0_key, t_end, h_ref):
    """Fine-step unperturbed Gauss (s=3) reference with a step-doubling check:
    refine until two consecutive answers agree to 1e-12."""
    y0 = None if y0_key is None else tuple(y0_key)
    previous = None
    h = h_ref
    for _ in range(6):
        spec = RunSpec(
            problem=problem, method="gauss", s=3, h=h, t_end=t_end, e=e, y0=y0
        )
        state = integrate(spec).final_state
        if previous is not None and np.max(np.abs(state - previous)) <= 1e-12:
            return state
        previous = state
        h /= 2.0
    raise RuntimeError(
        f"fine-step reference for {problem!r} did not settle to 1e-12 at t={t_end}"
    )


def reference_state(problem, t_end, h_min, e=None, y0=None):
    """End-point oracle: exact for the Kepler problem, fine-step Gauss with a
    Richardson-style agreement check otherwise."""
    if problem == "kepler" and y0 is None:
        return problems_mod.kepler_reference(0.6 if e is None else e, t_end)
    y0_key = None if y0 is None else tuple(float(v) for v in y0)
    return _fine_reference_cached(problem, e, y0_key, float(t_end), h_min / 8.0)


def convergence_table(
    problem,
    method,
    s,
    h_list,
    t_end,
    reference=None,
    *,
    e=None,
    y0=None,
    alpha=0.0,
    perturb_index=None,
    search=None,
    step_cfg=None,
    t0=0.0,
):
    """Global error, observed order and root-band statistics per stepsize.

    `h_list` must be strictly decreasing.  `reference` may be the exact end
    state; by default it is computed via `reference_state`.
    """
    h_list = [float(h) for h in h_list]
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    # build every run's spec first, so that bad inputs fail before the
    # reference is computed
    specs = [
        RunSpec(
            problem=problem,
            method=method,
            s=s,
            h=h,
            t_end=t_end,
            t0=t0,
            e=e,
            y0=y0,
            alpha=alpha,
            perturb_index=perturb_index,
            search=search if search is not None else AlphaSearchConfig(),
            step_cfg=step_cfg,
        )
        for h in h_list
    ]
    if reference is None:
        reference = reference_state(problem, t_end, min(h_list), e=e, y0=y0)
    reference = np.asarray(reference, float)
    index = resolve_perturb_index(method, s, perturb_index) if method != "gauss" else None
    r = s - index if index is not None else 1
    records = [integrate(spec) for spec in specs]

    rows = []
    previous_error = None
    for h, record in zip(h_list, records):
        e_h = float(np.linalg.norm(record.final_state - reference))
        order = None
        if previous_error is not None and e_h > 0.0 and previous_error > 0.0:
            order = math.log2(previous_error / e_h)
        delta = record.delta
        rows.append(
            ConvergenceRow(
                h=h,
                e_h=e_h,
                order=order,
                delta_h=delta,
                delta_scaled=delta / h ** (2 * r),
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


def energy_defect_order(
    problem, s, h_list, alpha=1e-3, perturb_index=None, e=None, y0=None, step_cfg=None
):
    """Fit the h-order of the one-step energy defect at alpha=0 and at a
    fixed nonzero alpha; needs at least 3 stepsizes."""
    from .conserve import energy_defect

    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least 3 stepsizes to fit a defect order")
    system, ic = problems_mod.get_problem(problem, e=e, y0=y0)
    index = resolve_perturb_index("ep-gauss", s, perturb_index)
    g0, ga = [], []
    for h in h_list:
        cfg = step_cfg if step_cfg is not None else StepConfig(h=h)
        g, _ = energy_defect(system, s, index, ic.y0, h, 0.0, cfg)
        g0.append(g)
        g, _ = energy_defect(system, s, index, ic.y0, h, alpha, cfg)
        ga.append(g)
    return DefectOrderReport(
        slope_zero=_loglog_slope(h_list, g0),
        slope_fixed=_loglog_slope(h_list, ga),
        alpha=alpha,
        defects_zero=tuple(g0),
        defects_fixed=tuple(ga),
    )
