"""Per-step tuning of the tableau perturbation for exact energy conservation.

For one step of size h from y0 with increment D(alpha) = h (b @ F), that is
y1 = y0 + D, the energy defect

    g(alpha) = H(y0 + D(alpha)) - H(y0)

is evaluated by each problem's cancellation-free `energy_increment` kernel,
so its round-off scales with the increment, not with |H|, and g is smooth
down to far below eps |H|.  Each step's target is its own start energy.  g
has a root alpha* = O(h^{2r}) near zero (r = s - perturbed index).  The
search probes g at 0 and at 1e-3 h^{2r}, takes secant steps through its
latest two probes (each followed, when it does not change sign, by one probe
half a secant step beyond it) until a probe changes sign, and narrows that
bracket with Brent's method down to a width of alpha_tol h^{2r}, so the
located root is the sign-change point of the computed defect.  Where the
prediction fails, the same routine goes on to scan outward from the root
scale, doubling |alpha| up to 0.5; either way the first sign change is
closed against the nearest earlier probe.  Each probe is one stage solve,
warm-started from the stages extrapolated through the two nearest converged
probes, and the probe at the root is the step the caller accepts.
Quadratic Hamiltonians make g vanish identically; that degeneracy is
detected and reported instead of searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .stepper import StepConfig, StepResult, step
from .tableau import PerturbationSpec, butcher, gauss_quadrature

# the first probe after alpha = 0 lies this fraction of the seed (10 h^{2r})
# from zero: close enough that the secant through it and g(0) lands near the
# root, far enough that the two defects differ well above round-off
_PROBE_FRACTION = 1e-4
# a secant point that does not change sign is followed by one probe this
# fraction of its secant step beyond it (0.02 to 0.5 cost the same)
_OVERSHOOT = 0.5
_SECANT_STEPS = 3
# the fallback scan doubles its radius from the seed up to this |alpha|
_BRACKET_MAX = 0.5
# the seed and the predicted probes stay within this |alpha|, well inside
# _BRACKET_MAX, so huge-h searches do not start at unsolvable values
_REACH = _BRACKET_MAX / 8


class StageSolveError(RuntimeError):
    """The implicit stage system did not converge; carries the offending
    StepResult in `result` and the perturbation value in `alpha`."""

    def __init__(self, message, result=None, alpha=None):
        super().__init__(message)
        self.result = result
        self.alpha = alpha


class NoRootError(RuntimeError):
    """No sign change of the energy defect was found within |alpha| <= 0.5,
    the reach of the fallback scan.  Usually means the stepsize is too large
    for this state."""


class SearchBudgetError(RuntimeError):
    """The search used up `max_g_evals` defect evaluations."""


@dataclass(frozen=True)
class AlphaSearchConfig:
    """Settings for the per-step root search on the energy defect.

    `alpha_tol` is relative to the root scale: the search stops on a bracket
    of absolute width alpha_tol h^{2r}.  `max_g_evals` bounds every probe
    except the one at alpha = 0 and those of the fallback scan, whose cost is
    fixed by its geometry (two probes per doubling of the radius, from the
    seed up to |alpha| = 0.5).
    """

    alpha_tol: float = 1e-9
    max_g_evals: int = 80

    def __post_init__(self):
        if not math.isfinite(self.alpha_tol):
            raise ValueError(f"alpha_tol must be finite, got {self.alpha_tol!r}")
        if self.alpha_tol <= 0.0:
            raise ValueError("alpha_tol must be positive")
        if self.max_g_evals < 3:
            raise ValueError("max_g_evals must allow at least 3 evaluations")


def _seed(h, r):
    """The root scale 10 h^{2r} of perturbed index s - r, capped at _REACH."""
    return min(10.0 * abs(h) ** (2 * r), _REACH)


@dataclass(frozen=True)
class AlphaSolveRecord:
    """Outcome of one per-step search: the root, its residual, the cost, the
    bracket that produced it (None only when the step is degenerate), the
    defect's secant slope over that bracket (nan when degenerate), whether
    the defect sat at round-off for every probed value (quadratic
    Hamiltonian), and the converged step at the root, which is the step to
    accept."""

    alpha_star: float
    g_residual: float
    g_evals: int
    bracket: tuple[float, float] | None
    slope: float
    degenerate: bool
    step: StepResult = field(compare=False, repr=False)


def energy_defect(system, s, perturb_index, y0, h, alpha, cfg: StepConfig, guess=None):
    """One step at perturbation `alpha`; returns (H(y0 + D) - H(y0),
    StepResult), where D is the step's increment, evaluated by the problem's
    `energy_increment` kernel.

    This is one stage solve, warm-started from the stages `guess` when given
    (see `step`).  Raises StageSolveError if the stage iteration does not
    converge.
    """
    if cfg.h != h:
        cfg = replace(cfg, h=h)
    tableau = butcher(
        gauss_quadrature(s), PerturbationSpec.single(s, perturb_index, alpha)
    )
    result = step(system, tableau, y0, cfg, guess)
    if not result.converged:
        raise StageSolveError(
            f"stage iteration failed at alpha={alpha!r}, h={h!r} "
            f"(residual {result.stage_residual:.3e} after {result.iterations} iterations)",
            result=result,
            alpha=alpha,
        )
    return float(system.energy_increment(result.y0, result.increment)), result


def solve_alpha(
    system,
    s,
    perturb_index,
    y0,
    h,
    search_cfg: AlphaSearchConfig,
    step_cfg: StepConfig,
) -> AlphaSolveRecord:
    """Find the perturbation value that conserves the energy over one step.

    Every probe of the search is one `energy_defect` evaluation, that is one
    stage solve.  The first probe (alpha = 0) starts from y0 and the second
    from the first; every later one starts from the stages extrapolated
    linearly in alpha through the two nearest converged probes.  The
    returned record carries the probe at the root as `step`, so the caller
    accepts that step instead of solving it again, and as `slope` the
    defect's secant slope over the search's bracket.  The search depends
    only on (y0, h) and the settings.

    Raises NoRootError when no sign change is found, and SearchBudgetError
    when the search needs more than `max_g_evals` counted probes.
    """
    r = s - perturb_index
    seed = _seed(h, r)
    width = search_cfg.alpha_tol * abs(h) ** (2 * r)
    evals = 0
    counted = 0
    probes = {}  # alpha -> StepResult of every converged probe

    def g(alpha, count=True):
        nonlocal evals, counted
        if count:
            if counted >= search_cfg.max_g_evals:
                raise SearchBudgetError(
                    f"alpha search exceeded max_g_evals={search_cfg.max_g_evals}"
                )
            counted += 1
        evals += 1
        near = sorted(probes, key=lambda a: abs(a - alpha))[:2]
        guess = probes[near[0]].stages if near else None
        if len(near) == 2:
            a1, a2 = near
            guess = guess + (alpha - a1) / (a2 - a1) * (probes[a2].stages - guess)
        defect, probes[alpha] = energy_defect(
            system, s, perturb_index, y0, h, alpha, step_cfg, guess
        )
        return defect

    g0 = g(0.0, count=False)
    # a quadratic Hamiltonian is conserved for every perturbation value, so
    # its defect sits at round-off across the whole bracket; a defect that is
    # merely small (flat spot of a structured g) must still be root-searched,
    # or per-step root statistics would mix zeros with genuine roots
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(float(system.energy(y0))))
    if abs(g0) <= floor:
        if abs(g(seed)) <= floor and abs(g(-seed)) <= floor:
            return AlphaSolveRecord(0.0, g0, evals, None, math.nan, True, probes[0.0])

    lo, hi, glo, ghi = _find_bracket(g, g0, seed, h, y0)
    alpha, res = _bracketed_root(g, lo, hi, glo, ghi, width)
    slope = (ghi - glo) / (hi - lo)
    return AlphaSolveRecord(alpha, res, evals, (lo, hi), slope, False, probes[alpha])


def _find_bracket(g, g0, seed, h, y0):
    """Bracket a sign change of g; returns (lo, hi, g(lo), g(hi)).

    The secant prediction probes _PROBE_FRACTION * seed, then takes up to
    _SECANT_STEPS secant steps through the latest two probes, each
    followed, when it does not change sign, by one probe _OVERSHOOT of its
    step beyond it.  Wherever it fails (equal defects at the latest two
    probes, a secant point that is not finite or lies beyond _REACH, a
    failed stage solve, or no sign change after the last step), a scan
    probes +-seed * 2^k, k = 0, 1, ..., up to |alpha| = _BRACKET_MAX; a
    probe whose stage solve fails closes that side of the scan, and when
    neither side changes sign the search is declared rootless.  Only the
    prediction's probes count toward the evaluation budget.  The first
    sign change, from either phase, is closed against the nearest earlier
    probe."""
    sign0 = math.copysign(1.0, g0)
    points = [(0.0, g0)]  # every probe so far; all carry the sign of g(0)

    def close(x, count=True):
        gx = g(x, count)
        if gx == 0.0 or math.copysign(1.0, gx) != sign0:
            xin, gin = min(points, key=lambda p: abs(p[0] - x))
            return (xin, x, gin, gx) if xin < x else (x, xin, gx, gin)
        points.append((x, gx))
        return None

    try:
        found = close(_PROBE_FRACTION * seed)
        for _ in range(_SECANT_STEPS):
            if found is not None:
                return found
            (xa, ga), (xb, gb) = points[-2:]
            if gb == ga:
                break
            x = xb - gb * (xb - xa) / (gb - ga)
            if not (math.isfinite(x) and abs(x) <= _REACH):
                break
            found = close(x)
            if found is None:
                beyond = x + _OVERSHOOT * (x - xb)
                if abs(beyond) > _REACH:
                    break
                found = close(beyond)
        if found is not None:
            return found
    except StageSolveError:
        pass

    sides = [1.0, -1.0]
    radius = seed
    while sides and radius <= _BRACKET_MAX * (1.0 + 1e-12):
        for side in tuple(sides):
            try:
                found = close(side * radius, count=False)
            except StageSolveError:
                sides.remove(side)
                continue
            if found is not None:
                return found
        radius *= 2.0

    state = ", ".join(repr(float(v)) for v in y0)
    raise NoRootError(
        f"no sign change of the energy defect within |alpha| <= {_BRACKET_MAX} "
        f"at h={h!r} from state [{state}]"
    )


def _bracketed_root(g, lo, hi, glo, ghi, width):
    """Brent's method (Brent 1973, ch. 4) on a sign-change interval.

    Inverse quadratic or secant interpolation where it shrinks the bracket
    fast enough, a bisection step where it does not.  The search stops only
    when the bracket is narrower than 2 eps |b| + width (or on an exact
    float zero), never on the residual, so the located root is the
    sign-change point of the computed defect, independent of how flat the
    defect is.  Every iterate stays inside [lo, hi]; returns (root, defect)
    for the endpoint of the final bracket with the smaller |defect|."""
    # b is the best estimate, c its sign-change partner, a the previous b
    a, fa, b, fb = lo, glo, hi, ghi
    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    while True:
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 2.0 * eps * abs(b) + 0.5 * width
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb
        if abs(e) >= tol and abs(fa) > abs(fb):
            ratio = fb / fa
            if a == c:
                p, q = 2.0 * m * ratio, 1.0 - ratio
            else:
                qa, rb = fa / fc, fb / fc
                p = ratio * (2.0 * m * qa * (qa - rb) - (b - a) * (rb - 1.0))
                q = (qa - 1.0) * (rb - 1.0) * (ratio - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the interpolant only if it lands well inside the
            # bracket and beats half the step before last
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)


def level_grid(system, s, perturb_index, y0, h_values, alpha_values, step_cfg):
    """Energy defect g(alpha, h) over a full grid.

    Returns (G, failures): G[i, j] = g(alpha_values[i], h_values[j]); cells
    whose stage solve fails hold NaN and are listed in `failures` as
    (i, j, message).
    """
    h_values = np.asarray(h_values, float)
    alpha_values = np.asarray(alpha_values, float)
    if h_values.size == 0 or alpha_values.size == 0:
        raise ValueError("level grid needs nonempty h and alpha value lists")
    G = np.empty((alpha_values.size, h_values.size))
    failures = []
    for j, h in enumerate(h_values):
        for i, alpha in enumerate(alpha_values):
            try:
                G[i, j], _ = energy_defect(
                    system, s, perturb_index, y0, h, alpha, step_cfg
                )
            except StageSolveError as exc:
                G[i, j] = np.nan
                failures.append((i, j, str(exc)))
    return G, failures
