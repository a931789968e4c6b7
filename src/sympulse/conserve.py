"""Per-step tuning of the tableau perturbation for exact energy conservation.

For one step of size h from y0, the energy defect

    g(alpha) = H(y1(alpha)) - H(y0)

is a smooth scalar function of the perturbation parameter with a root
alpha* = O(h^{2r}) near zero (r = s - perturbed index).  Two search
strategies are provided: `bisection` brackets the sign change by geometric
expansion from a small seed and narrows the bracket with Brent's method down
to machine width; `secant` iterates the secant method warm-started from the
previous step's root, safeguarded by a fall-back to the bracketing search.
Either way each probe is one stage solve, warm-started from the converged
probe nearest in alpha, and the probe at the root is the step the caller
accepts.  Quadratic Hamiltonians make g vanish identically; that degeneracy
is detected and reported instead of searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .stepper import StepConfig, StepResult, step
from .tableau import PerturbationSpec, butcher, gauss_quadrature


class StageSolveError(RuntimeError):
    """The implicit stage system did not converge; carries the offending
    StepResult in `result` and the perturbation value in `alpha`."""

    def __init__(self, message, result=None, alpha=None):
        super().__init__(message)
        self.result = result
        self.alpha = alpha


class NoRootError(RuntimeError):
    """No sign change of the energy defect was found up to bracket_max.
    Usually means the stepsize is too large for this state."""


class SearchBudgetError(RuntimeError):
    """The per-step root search used up `max_g_evals` defect evaluations."""


@dataclass(frozen=True)
class AlphaSearchConfig:
    """Settings for the per-step root search on the energy defect.

    `g_tol` is scaled internally by max(1, |H(y0)|); `alpha_tol` is an
    absolute bracket width.  `bracket_seed` defaults to 10 h^{2r} (the
    natural magnitude of the root for the perturbed index), capped at
    bracket_max / 8.  `secant_warm`, when set, fixes the second secant
    iterate of the first step; by default the search warm-starts from the
    previous step's root when the caller provides one.
    """

    strategy: str = "bisection"
    g_tol: float = 1e-13
    alpha_tol: float = 1e-16
    max_g_evals: int = 80
    bracket_seed: float | None = None
    bracket_growth: float = 2.0
    bracket_max: float = 0.5
    secant_warm: float | None = None

    def __post_init__(self):
        if self.strategy not in ("bisection", "secant"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for name in (
            "g_tol", "alpha_tol", "bracket_seed", "bracket_growth", "bracket_max", "secant_warm"
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.g_tol, self.alpha_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_g_evals < 3:
            raise ValueError("max_g_evals must allow at least 3 evaluations")
        if self.bracket_growth <= 1.0:
            raise ValueError("bracket_growth must exceed 1")
        if self.bracket_max <= 0.0:
            raise ValueError("bracket_max must be positive")
        if self.bracket_seed is not None and not 0.0 < self.bracket_seed < self.bracket_max:
            raise ValueError("bracket_seed must lie in (0, bracket_max)")

    def seed(self, h, r=1):
        # the root sits at O(h^{2r}); cap the first probe well inside
        # bracket_max so huge-h searches do not start at unsolvable values
        cap = 0.125 * self.bracket_max
        if self.bracket_seed is not None:
            return min(self.bracket_seed, cap)
        return min(10.0 * abs(h) ** (2 * r), cap)


@dataclass(frozen=True)
class AlphaSolveRecord:
    """Outcome of one per-step search: the root, its residual, the cost, the
    bracket that produced it (None for secant convergence), whether the
    defect sat at round-off for every probed value (quadratic Hamiltonian),
    and the converged step at the root, which is the step to accept."""

    alpha_star: float
    g_residual: float
    g_evals: int
    bracket: tuple[float, float] | None
    degenerate: bool
    step: StepResult = field(compare=False, repr=False)


def energy_defect(
    system, s, perturb_index, y0, h, alpha, cfg: StepConfig, guess=None, energy0=None
):
    """One step at perturbation `alpha`; returns (H(y1) - H(y0), StepResult).

    This is one stage solve, warm-started from the stages `guess` when given
    (see `step`).  `energy0` is H(y0) when the caller already has it.
    Raises StageSolveError if the stage iteration does not converge.
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
    if energy0 is None:
        energy0 = system.energy(y0)
    g = float(system.energy(result.y1) - energy0)
    return g, result


def solve_alpha(
    system,
    s,
    perturb_index,
    y0,
    h,
    search_cfg: AlphaSearchConfig,
    step_cfg: StepConfig,
    alpha_hint: float | None = None,
    energy_target: float | None = None,
) -> AlphaSolveRecord:
    """Find the perturbation value that conserves the energy over one step.

    Every probe of the search is one `energy_defect` evaluation, that is one
    stage solve.  The first probe (alpha = 0) starts from y0; every later one
    starts from the stages of the converged probe nearest in alpha.  The
    returned record carries the probe at the root as `step`, so the caller
    accepts that step instead of solving it again.

    `alpha_hint` warm-starts the secant strategy (typically the previous
    step's root).  `energy_target`, when given, replaces H(y0) as the value
    the step must reproduce, letting long integrations pin every state to the
    initial energy instead of accumulating per-step round-off.  Raises
    SearchBudgetError when the search needs more than `max_g_evals` probes.
    """
    if h == 0.0:
        raise ValueError("stepsize must be nonzero")
    h0 = float(system.energy(y0))
    target = h0 if energy_target is None else float(energy_target)
    offset = h0 - target
    gtol = search_cfg.g_tol * max(1.0, abs(h0))
    budget = search_cfg.max_g_evals
    evals = 0
    probes = {}  # alpha -> StepResult of every converged probe

    def g(alpha):
        nonlocal evals
        if evals >= budget:
            raise SearchBudgetError(
                f"alpha search exceeded max_g_evals={search_cfg.max_g_evals}"
            )
        evals += 1
        guess = None
        if probes:
            guess = probes[min(probes, key=lambda a: abs(a - alpha))].stages
        defect, probes[alpha] = energy_defect(
            system, s, perturb_index, y0, h, alpha, step_cfg, guess, h0
        )
        return defect + offset

    seed = search_cfg.seed(h, r=s - perturb_index)
    g0 = g(0.0)
    # a quadratic Hamiltonian is conserved for every perturbation value, so
    # its defect sits at round-off across the whole bracket; a defect that is
    # merely small (flat spot of a structured g) must still be root-searched,
    # or per-step root statistics would mix zeros with genuine roots
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(h0))
    if abs(g0) <= floor:
        if abs(g(seed)) <= floor and abs(g(-seed)) <= floor:
            return AlphaSolveRecord(0.0, g0, evals, None, True, probes[0.0])

    if search_cfg.strategy == "secant":
        record = _secant(g, g0, seed, search_cfg, gtol, alpha_hint)
        if record is not None:
            alpha, res = record
            return AlphaSolveRecord(alpha, res, evals, None, False, probes[alpha])
    lo, hi, glo, ghi = _expand_bracket(g, g0, seed, search_cfg, h, y0)
    alpha, res = _bracketed_root(g, lo, hi, glo, ghi, search_cfg)
    return AlphaSolveRecord(alpha, res, evals, (lo, hi), False, probes[alpha])


def _secant(g, g_at_zero, seed, cfg, gtol, hint):
    """Safeguarded secant iteration; returns (root, residual) or None to
    request the bracketing fall-back.

    Warm-started from the previous step's root: if that value still conserves
    it is kept as is (consecutive steps track one root branch without drift);
    otherwise the iteration accepts the first genuine secant update whose
    residual is inside tolerance.  The displaced warm probe itself is never
    accepted, and a jump far beyond the probe spacing (flat secant
    denominator) gives up rather than risk hopping to a distant branch."""
    warm = hint is not None and hint != 0.0
    if warm:
        x0, f0 = hint, None
        x1 = 1.01 * hint + 1e-12
    elif cfg.secant_warm is not None:
        x0, f0 = 0.0, g_at_zero
        x1 = cfg.secant_warm
    else:
        x0, f0 = 0.0, g_at_zero
        x1 = seed
    try:
        if f0 is None:
            f0 = g(x0)
            if warm and abs(f0) <= gtol:
                return x0, f0
        f1 = g(x1)
        grew = 0
        for _ in range(24):
            if f1 == f0:
                return None
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            if not math.isfinite(x2) or abs(x2) > cfg.bracket_max:
                return None
            if abs(x2 - x1) > 0.1 * cfg.bracket_max:
                return None  # flat-denominator jump; let the scan decide
            f2 = g(x2)
            if abs(f2) <= gtol:
                return x2, f2
            if abs(x2 - x1) <= cfg.alpha_tol:
                return None  # stagnated above tolerance; let bisection decide
            grew = grew + 1 if abs(f2) > abs(f1) else 0
            if grew >= 3:
                return None
            x0, f0, x1, f1 = x1, f1, x2, f2
    except StageSolveError:
        return None
    return None


def _expand_bracket(g, g0, seed, cfg, h, y0):
    """Scan +-seed * growth^k for a sign change against g(0); prefer the
    change nearest zero.  The inner endpoint is the last same-signed probe on
    that side (or 0).  A probe whose stage solve fails closes that side of
    the scan.  If the expansion exhausts without a sign change, the scan
    turns inward (radii seed / growth^k): a defect lobe may cross zero and
    return entirely inside the first probe radius.  Only when both sweeps
    fail is the search declared rootless."""
    sign0 = math.copysign(1.0, g0)
    inner = {1.0: (0.0, g0), -1.0: (0.0, g0)}
    alive = {1.0: True, -1.0: True}

    def probe(side, radius):
        x = side * radius
        try:
            gx = g(x)
        except StageSolveError:
            alive[side] = False
            return None
        if math.copysign(1.0, gx) != sign0 or gx == 0.0:
            xin, gin = inner[side]
            lo, hi = (xin, x) if xin < x else (x, xin)
            glo, ghi = (gin, gx) if xin < x else (gx, gin)
            return lo, hi, glo, ghi
        inner[side] = (x, gx)
        return None

    radius = seed
    while (alive[1.0] or alive[-1.0]) and radius <= cfg.bracket_max * (1.0 + 1e-12):
        for side in (1.0, -1.0):
            if alive[side]:
                found = probe(side, radius)
                if found is not None:
                    return found
        radius *= cfg.bracket_growth

    alive = {1.0: True, -1.0: True}
    inner = {1.0: (0.0, g0), -1.0: (0.0, g0)}
    radius = seed / cfg.bracket_growth
    floor = max(16.0 * cfg.alpha_tol, 1e-14)
    while (alive[1.0] or alive[-1.0]) and radius >= floor:
        for side in (1.0, -1.0):
            if alive[side]:
                found = probe(side, radius)
                if found is not None:
                    # bracket between this probe and zero (the outer probes
                    # all carried the sign of g(0))
                    return found
        radius /= cfg.bracket_growth

    raise NoRootError(
        f"no sign change of the energy defect within |alpha| <= {cfg.bracket_max} "
        f"at h={h!r} from state {np.asarray(y0)!r}"
    )


def _bracketed_root(g, lo, hi, glo, ghi, cfg):
    """Brent's method (Brent 1973, ch. 4) on a sign-change interval.

    Inverse quadratic or secant interpolation where it shrinks the bracket
    fast enough, a bisection step where it does not.  The search stops only
    when the bracket is narrower than 2 eps |b| + alpha_tol (or on an exact
    float zero), never on the residual, so the located root is the
    sign-change point of the computed defect, independent of how flat the
    defect is.  Every iterate stays inside [lo, hi]; returns (root, defect)
    for the endpoint of the final bracket with the smaller |defect|."""
    if glo == 0.0:
        return lo, glo
    if ghi == 0.0:
        return hi, ghi
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
        tol = 2.0 * eps * abs(b) + 0.5 * cfg.alpha_tol
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
