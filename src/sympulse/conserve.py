"""Per-step tuning of the tableau perturbation for exact energy conservation.

For one step of size h from y0 with increment D(alpha) = h (b @ F), that is
y1 = y0 + D, the energy defect

    g(alpha) = H(y0 + D(alpha)) - H(y0)

is evaluated by each problem's cancellation-free `energy_increment` kernel,
so its round-off scales with the increment, not with |H|, and g is smooth
down to far below eps |H|.  Each step's target is its own start energy.  g
has a root alpha* = O(h^{2r}) near zero (r = s - perturbed index).  The
search probes g in rounds, each one batched stage solve of all its probes:
{0, 1e-3 h^{2r}}, then pairs straddling secant points until a probe changes
sign, then a triple of the stop width ALPHA_TOL h^{2r} around the secant
point of that sign change, which ends most searches.  Brent's method closes
the sign change where the triple misses it, and an outward scan, doubling
|alpha| up to 0.5, looks for one where the pairs fail; the located root is
the sign-change point of the computed defect.  Every probe after the first
round is warm-started from the stages extrapolated through the two nearest
converged probes, and the probe at the root is the step the caller accepts.
Quadratic Hamiltonians make g vanish identically; that degeneracy is
detected and reported instead of searched.

A round is one pass over arrays.  The search reads the Gauss tableau A0
and the unit perturbation D once, from `tableau.affine_parts`, so a
round's tableaux are the one stack A0 + alphas (x) D; one stage solve
takes the stack, one call of the row kernel `energy_increment` gives
every member's defect, and the round's stages go into the probe table
(`_ProbeTable`), a stage buffer with one row per probed alpha, in the
order the alphas were first probed.  The next round's line starts are
then a scan for the two nearest probes of each alpha, one gather from the
buffer and one axpy.  The accepted step is a view of its batch, not a
copy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .stepper import StepConfig, StepResult, step
from .tableau import ButcherTableau, PerturbationSpec, affine_parts, butcher, gauss_quadrature

__all__ = [
    "AlphaSearchConfig",
    "AlphaSolveRecord",
    "NoRootError",
    "StageSolveError",
    "energy_defect",
    "level_grid",
    "solve_alpha",
]

# the first probe after alpha = 0 lies this fraction of the seed (10 h^{2r})
# from zero: close enough that the secant through it and g(0) lands near the
# root, far enough that the two defects differ well above round-off
_PROBE_FRACTION = 1e-4
# the first secant point is probed as a pair this fraction of its secant
# step to either side of it, wide enough to straddle the root the secant
# misses by its curvature error, narrow enough for the triple to land sharp
_PAIR_FRACTION = 1e-3
# the pairs after a miss reach this fraction of their secant step to either
# side: where the defect curves away from its root, secant points approach
# it from one side only, and only a probe past the root brackets it
_OVERSHOOT = 0.5
_SECANT_STEPS = 3
# the fallback scan doubles its radius from the seed up to this |alpha|
_BRACKET_MAX = 0.5
# the seed and the predicted probes stay within this |alpha|, well inside
# _BRACKET_MAX, so huge-h searches do not start at unsolvable values
_REACH = _BRACKET_MAX / 8
# the search stops on a bracket of width ALPHA_TOL h^{2r}, relative to the
# root scale
ALPHA_TOL = 1e-9
# read once, not on every search and every Brent iteration (np.finfo is a call)
_EPS = float(np.finfo(float).eps)


class StageSolveError(RuntimeError):
    """The implicit stage system did not converge; carries the offending
    StepResult in `result` and the perturbation value in `alpha`."""

    def __init__(self, result, alpha):
        super().__init__(
            f"stage iteration failed at alpha={alpha!r}, h={result.h!r} "
            f"(residual {result.stage_residual:.3e} after {result.iterations} iterations)"
        )
        self.result = result
        self.alpha = alpha


class NoRootError(RuntimeError):
    """No sign change of the energy defect was found within |alpha| <= 0.5,
    the reach of the fallback scan.  Usually means the stepsize is too large
    for this state."""


@dataclass(frozen=True)
class AlphaSearchConfig:
    """The per-step root search's config, which has no setting: the search
    stops on a bracket of width ALPHA_TOL h^{2r}.

    It stays a type because the acceptance suite builds one and passes it,
    as `RunSpec.search`, to `convergence_table` and to `solve_alpha`; no
    search reads it.
    """


def root_scale(h, r):
    """|h|^{2r}, the scale of the per-step roots of perturbed index s - r,
    of the search's seed and stop width, and of a run's root band; raises
    ValueError when it is not a positive finite float."""
    power = 2 * r
    try:
        scale = abs(h) ** power
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"the root scale h^{power} must be a positive finite float, so h must "
            f"lie within about ({math.ulp(0.0) ** (1 / power):.3g}, "
            f"{sys.float_info.max ** (1 / power):.3g}); got h={h!r}"
        )
    return scale


def _seed(h, r):
    """The root scale 10 h^{2r} of perturbed index s - r, capped at _REACH."""
    return min(10.0 * root_scale(h, r), _REACH)


@dataclass(frozen=True)
class AlphaSolveRecord:
    """Outcome of one per-step search: the root, its residual, the cost in
    probes, the first sign change the search found (None only when the step
    is degenerate), the defect's secant slope from alpha = 0 to the end of
    that bracket across the root (nan when degenerate), whether the defect
    sat at round-off for every probed value (quadratic Hamiltonian), and the
    converged step at the root, which is the step to accept: the root's
    member of its batch, with that batch's `iterations` and
    `stage_residual`."""

    alpha_star: float
    g_residual: float
    g_evals: int
    bracket: tuple[float, float] | None
    slope: float
    degenerate: bool
    step: StepResult = field(compare=False, repr=False)


def energy_defect(system, s, perturb_index, y0, alpha, cfg: StepConfig):
    """One step of size `cfg.h` at perturbation `alpha`; returns
    (H(y0 + D) - H(y0), StepResult), where D is the step's increment,
    evaluated by the problem's `energy_increment` kernel.

    This is one stage solve, started from y0; the root search solves its
    probes in batches of its own (see `solve_alpha`).  Raises
    StageSolveError if the stage iteration does not converge.
    """
    tableau = butcher(gauss_quadrature(s), PerturbationSpec.single(s, perturb_index, alpha))
    result = step(system, tableau, y0, cfg)
    if not result.converged:
        raise StageSolveError(result, alpha)
    return system.energy_increment(result.y0, result.increment[None])[0], result


class _ProbeTable:
    """The converged probes of one search.  `rows` maps each alpha, in the
    order it was first probed, to (row, batched StepResult, member index):
    row `row` of the buffer `stages` holds its stages.  A re-probed alpha
    keeps its place in that order and takes the new round's row."""

    def __init__(self, shape):
        self.rows = {}
        self.stages = np.empty((16,) + shape)
        self.used = 0

    def add(self, alphas, result):
        """Record the converged batch `result` of `alphas`."""
        n, self.used = self.used, self.used + len(alphas)
        if self.used > len(self.stages):
            self.stages = np.resize(self.stages, (2 * self.used,) + self.stages.shape[1:])
        self.stages[n : self.used] = result.stages
        for i, a in enumerate(alphas):
            self.rows[a] = (n + i, result, i)

    def starts(self, alphas):
        """For each of `alphas`, the stages extrapolated linearly in alpha
        through the two probes nearest to it, the earlier-probed first on
        a tie, stacked; None while fewer than two probes are in."""
        if len(self.rows) < 2:
            return None
        near, far, ratios = [], [], []
        for alpha in alphas:
            best = second = (math.inf, None, None)
            for a, (row, _, _) in self.rows.items():
                d = abs(a - alpha)
                if d < best[0]:
                    best, second = (d, a, row), best
                elif d < second[0]:
                    second = (d, a, row)
            near.append(best[2])
            far.append(second[2])
            ratios.append((alpha - best[1]) / (second[1] - best[1]))
        Y = self.stages.take(near + far, 0)
        Y1, Y2 = Y[: len(alphas)], Y[len(alphas) :]
        Y2 -= Y1
        Y2 *= np.array(ratios)[:, None, None]
        Y2 += Y1
        return Y2

    def member(self, alpha):
        """The converged step at the probed `alpha`, its batch's member, as a
        StepResult of views into the batch's arrays."""
        _, res, i = self.rows[alpha]
        return StepResult(
            res.increment[i], res.stages[i], res.iterations, res.converged,
            res.stage_residual, res.y0, res.h, res.stage_fields[i]
        )


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

    The search probes g in rounds, each one stage solve of the stacked
    tableaux of all its probes (see `step`) and one call of the problem's
    row kernel `energy_increment` on their increments:
    {0, p} with p = _PROBE_FRACTION * seed, then the secant pairs of
    `_find_bracket` until a probe changes sign, then the triple
    {x2 - w, x2, x2 + w} around the secant point x2 of the narrowest sign
    change, w being the stop width ALPHA_TOL h^{2r}.  A sign change within
    the triple ends the search at the member with the smaller |g|; otherwise
    Brent's method closes the narrowest sign change one probe at a time.
    Round 1 starts from y0, every later probe from the stages extrapolated
    linearly in alpha through the two nearest converged probes, read from
    the search's probe table (the earlier-probed one wins a tie in
    distance).

    `h` must equal `step_cfg.h`, the stepsize every probe is solved at;
    a config that disagrees is rejected, not overwritten.  `search_cfg` is
    not read: an `AlphaSearchConfig` has no setting.  Both configs stay for
    the acceptance suite, which passes them positionally.  The returned
    record carries the probe at the root as `step`, so the caller accepts
    that step instead of solving it again.  The search depends only on
    (y0, h); `y0` may be an array, a tuple or a list.  Raises NoRootError
    when no sign change is found.  Every search ends by construction: at
    most _SECANT_STEPS rounds of pairs, one triple, a scan of two probes
    per doubling of the radius up to _BRACKET_MAX, and Brent's method,
    which stops on the bracket width.
    """
    if h != step_cfg.h:
        StepConfig(h=h)  # an invalid h fails StepConfig's own checks first
        raise ValueError(f"stepsize h={h!r} differs from step_cfg.h={step_cfg.h!r}")
    y0 = np.asarray(y0, dtype=float)
    q = gauss_quadrature(s)
    A0, D = affine_parts(q, perturb_index)
    r = s - perturb_index
    seed = _seed(h, r)
    width = ALPHA_TOL * root_scale(h, r)
    evals = 0
    probes = _ProbeTable((s,) + np.shape(y0))

    def g(alphas):
        """The defects at `alphas`: one stage solve of their stacked
        tableaux A0 + alpha D, and one call of the increment kernel."""
        nonlocal evals
        evals += len(alphas)
        tableau = ButcherTableau(q, A0 + np.multiply.outer(alphas, D), None, 2 * perturb_index)
        result = step(system, tableau, y0, step_cfg, probes.starts(alphas))
        if not result.converged:
            raise StageSolveError(result, alphas)
        probes.add(alphas, result)
        return system.energy_increment(result.y0, result.increment)

    g0, gp = g((0.0, _PROBE_FRACTION * seed))
    # a quadratic Hamiltonian is conserved for every perturbation value, so
    # its defect sits at round-off across the whole bracket; a defect that is
    # merely small (flat spot of a structured g) must still be root-searched,
    # or per-step root statistics would mix zeros with genuine roots
    floor = 64.0 * _EPS * max(1.0, abs(float(system.energy(y0))))
    if abs(g0) <= floor and all(abs(v) <= floor for v in g((seed, -seed))):
        return AlphaSolveRecord(0.0, g0, evals, None, math.nan, True, probes.member(0.0))

    # two tables: `probes` holds every converged probe, the +-seed pair
    # above included, as line-start anchors; `points` holds the bracket
    # ends, and the pair is left out of it.  On Kepler s=3 at h=2^-5, |g(0)|
    # sits below the floor on 395 of 640 steps, so the pair is routine
    # there.  Counting it as bracket ends moved the searches: acceptance 5's
    # ep tail ratio from 0.999 to 1.024 and acceptance 4's max |dH| from
    # 6.2e-15 to 2.9e-15.  Dropping it from both tables changes the quartic
    # and Kepler s=3 trajectories.
    points = {0.0: g0, _PROBE_FRACTION * seed: gp}
    bracket = _find_bracket(g, points, seed, h, y0)
    # the secant from g(0) to the end of the bracket across the root: its
    # defect difference is at least |g(0)|, so the defect's noise (round-off
    # and the stage solves' convergence error) stays small against it, where
    # a secant across a narrow bracket would be noise alone
    across = max(bracket, key=lambda x: (abs(points[x] - g0), abs(x)))
    slope = (points[across] - g0) / across

    # the triple at the secant point of the bracket (the narrowest sign
    # change), where it fits inside it; then Brent, which costs nothing on a
    # bracket already narrower than the stop width
    lo, hi = bracket
    glo, ghi = points[lo], points[hi]
    if glo != ghi:
        x2 = hi - ghi * (hi - lo) / (ghi - glo)
        triple = (x2 - width, x2, x2 + width)
        if lo < triple[0] and triple[2] < hi:
            points.update(zip(triple, g(triple)))
            lo, hi = _sign_change(points)
            glo, ghi = points[lo], points[hi]

    alpha, res = _bracketed_root(lambda x: g((x,))[0], lo, hi, glo, ghi, width)
    return AlphaSolveRecord(alpha, res, evals, bracket, slope, False, probes.member(alpha))


def _sign_change(points):
    """The narrowest pair of probes adjacent in alpha across which the
    defect changes sign (an exact zero counts as a change), as (lo, hi);
    None when every probe has the sign of g(0)."""
    xs = sorted(points)
    best = None
    for a, b in zip(xs, xs[1:]):
        ga, gb = points[a], points[b]
        if ga == 0.0 or gb == 0.0 or math.copysign(1.0, ga) != math.copysign(1.0, gb):
            if best is None or b - a < best[1] - best[0]:
                best = (a, b)
    return best


def _find_bracket(g, points, seed, h, y0):
    """Probe pairs until a sign change of g shows among `points` (alpha ->
    g, updated in place); returns the first one found, as (lo, hi).

    Each pair straddles the secant point x through the latest two probes:
    {x - d, x + d}, with d = _PAIR_FRACTION |x - x_latest| for the first
    pair and _OVERSHOOT |x - x_latest| for the up to _SECANT_STEPS - 1 that
    follow a miss.  Wherever the pairs fail (equal defects at the latest two
    probes, a secant point that is not finite or a pair that reaches beyond
    _REACH, a failed stage solve, or no sign change after the last pair), a
    scan probes +-seed * 2^k, k = 0, 1, ..., up to |alpha| = _BRACKET_MAX,
    one probe at a time; a probe whose stage solve fails closes that side of
    the scan, and when neither side changes sign the search is declared
    rootless."""
    found = _sign_change(points)
    try:
        latest = list(points)
        for k in range(_SECANT_STEPS):
            if found is not None:
                return found
            xa, xb = latest[-2:]
            ga, gb = points[xa], points[xb]
            if gb == ga:
                break
            x = xb - gb * (xb - xa) / (gb - ga)
            d = (_PAIR_FRACTION if k == 0 else _OVERSHOOT) * abs(x - xb)
            if not (math.isfinite(x) and abs(x) + d <= _REACH):
                break
            latest = [x - d, x + d]
            points.update(zip(latest, g(latest)))
            found = _sign_change(points)
        if found is not None:
            return found
    except StageSolveError:
        pass

    sides = [1.0, -1.0]
    radius = seed
    while sides and radius <= _BRACKET_MAX * (1.0 + 1e-12):
        for side in tuple(sides):
            x = side * radius
            try:
                (points[x],) = g((x,))
            except StageSolveError:
                sides.remove(side)
                continue
            found = _sign_change(points)
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
    while True:
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 2.0 * _EPS * abs(b) + 0.5 * width
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


@np.errstate(all="ignore")
def level_grid(system, s, perturb_index, y0, h_values, alpha_values, step_cfg=None):
    """Energy defect g(alpha, h) over a full grid.

    Column j is solved at the stepsize h_values[j].  `step_cfg` is not
    read: a `StepConfig` holds only a stepsize, which the grid sets; the
    parameter stays for the acceptance suite, which passes one
    positionally.  A cell whose stage iterate overflows fails as its typed
    error, without numpy warnings.  Returns (G, failures):
    G[i, j] = g(alpha_values[i], h_values[j]); cells whose stage solve
    fails hold NaN and are listed in `failures` as (i, j, message).
    """
    h_values = np.asarray(h_values, float)
    alpha_values = np.asarray(alpha_values, float)
    if h_values.size == 0 or alpha_values.size == 0:
        raise ValueError("level grid needs nonempty h and alpha value lists")
    G = np.empty((alpha_values.size, h_values.size))
    failures = []
    for j, h in enumerate(h_values):
        cfg = StepConfig(h=float(h))
        for i, alpha in enumerate(alpha_values):
            try:
                G[i, j], _ = energy_defect(system, s, perturb_index, y0, alpha, cfg)
            except StageSolveError as exc:
                G[i, j] = np.nan
                failures.append((i, j, str(exc)))
    return G, failures
