"""Benchmark Hamiltonian systems: energy, gradient and canonical vector field.

State vectors are laid out as y = (q_1..q_m, p_1..p_m); the canonical flow is
f = J grad H, that is q' = dH/dp, p' = -dH/dq.  Each problem supplies its
energy and one kernel for the flow; the gradient is derived from the flow
exactly, grad H = -J f (a copy and a negation), so no problem keeps two
copies of its derivative.  Both callables take any leading axes, so that a
whole block of stage vectors is evaluated in one call.

The Kepler, quartic and Henon-Heiles flows loop over the rows of the block
on Python floats: they read its values in `ravel()` order (`.tolist()`),
four at a time through one iterator, extend one flat list with each row's
field and build one array at the end, which costs about half as much as an
array from a list of row tuples.  The stage solver sends them 2 to 9
states at a time (6 for a triple of Kepler probes at s=2, 9 for a triple
at s=3, 8 for the Jacobian's shifted states), where numpy's per-call
dispatch, not arithmetic, sets the price: a numpy kernel costs 6-9 us at
any of these sizes, a float kernel 2.0-2.2 us at 2 rows and 4.5-5.3 us at
9, 0.35-0.45 us more per further row.  The float kernel is the cheaper one
up to 12 rows (a triple at s=4) on all three problems; at 18 rows (s=6)
numpy's is, by 1-1.5 us on the quartic and Henon-Heiles and by 0.3-0.5 us
on Kepler.  The harmonic flow, a copy and a negation, stays two numpy calls,
cheaper than a row loop on any block of more than two rows.

The energies unpack the state's components along the last axis (`y.T`) and
transpose the result back: a block keeps its leading axes, and one state
is evaluated on numpy scalars, 3-7 us against 8-12 us on the 0-d arrays
that `y[..., j]` gives, bit for bit the same (the Henon-Heiles cubic is
`np.power`, as `**` on a numpy scalar would take libm's pow instead).

Each problem also supplies the row kernel `energy_increment(y, d)`: for one
state y and a (k, n) block d of increments it returns the k Python floats
H(y + d_i) - H(y), looping over the rows on Python floats; one increment is
a block of one row.  The root search sends it a whole probe round at once.
It is written so that no O(|H|) terms cancel: its round-off scales with the
increment, not with the energy (the kinetic part is d_p.(p + d_p/2) for every
problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HamiltonianSystem",
    "InitialCondition",
    "Invariant",
    "SingularPotentialError",
    "get_problem",
    "harmonic",
    "henon_heiles",
    "kepler",
    "kepler_reference",
    "quartic",
]

SINGULARITY_RADIUS = 1e-8
# the eccentricity of the Kepler problem when none is given
KEPLER_E = 0.6


class SingularPotentialError(ArithmeticError):
    """Evaluation requested inside the excluded neighborhood of a potential
    singularity (e.g. the Kepler origin)."""


@dataclass(frozen=True)
class Invariant:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A canonical Hamiltonian system on R^{2m}.  `energy_increment(y, d)`
    is the row kernel: for one state y and a (k, 2m) block d of increments
    it returns the list of the k floats H(y + d_i) - H(y), each bit for bit
    what the row alone gives."""

    name: str
    m: int
    energy: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[np.ndarray], np.ndarray]
    energy_increment: Callable[[np.ndarray, np.ndarray], list]
    quadratic_invariants: tuple[Invariant, ...] = ()

    @property
    def dim(self):
        return 2 * self.m

    def vector_field(self, y):
        """f(y) = J grad H(y) with J the canonical structure matrix.  Every
        stage solve evaluates the flow through this method."""
        return self.flow(y)

    def gradient(self, y):
        """grad H(y) = -J f(y): the flow's halves swapped, the new first
        half negated."""
        f = self.flow(y)
        g = np.empty_like(f)
        m = self.m
        np.negative(f[..., m:], out=g[..., :m])
        g[..., m:] = f[..., :m]
        return g


@dataclass(frozen=True, eq=False)
class InitialCondition:
    y0: np.ndarray


def _angular_momentum(y):
    return y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2]


ANGULAR_MOMENTUM = Invariant("L", _angular_momentum)


def kepler(e: float = KEPLER_E):
    """Planar two-body problem with eccentricity e, started at perihelion.

    H = (p1^2 + p2^2)/2 - 1/|q|, conserving the angular momentum
    L = q1 p2 - q2 p1 = sqrt(1 - e^2); the orbit has period 2*pi.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")

    def singular():
        return SingularPotentialError(
            f"state within {SINGULARITY_RADIUS} of the gravitational singularity"
        )

    def energy(y):
        # any() and not min(), whose NaN on a block with a NaN row would let
        # a singular row through
        q1, q2, p1, p2 = y.T
        r = np.sqrt(q1 * q1 + q2 * q2)
        if (r < SINGULARITY_RADIUS).any():
            raise singular()
        return (0.5 * (p1 * p1 + p2 * p2) - 1.0 / r).T

    def flow(y):
        # p' = -q / r^3, with r^3 formed as r^2 r and the sign folded into
        # the divisor (exact); a NaN row fails the test and gives a NaN field
        flat = []
        it = iter(y.ravel().tolist())
        for q1, q2, p1, p2 in zip(it, it, it, it):
            r2 = q1 * q1 + q2 * q2
            r = math.sqrt(r2)
            if r < SINGULARITY_RADIUS:
                raise singular()
            c = -(r2 * r)
            flat.extend((p1, p2, q1 / c, q2 / c))
        return np.array(flat).reshape(y.shape)

    def energy_increment(y, d):
        # r1 - r0 = (r1^2 - r0^2) / (r0 + r1), and -1/r1 + 1/r0 = (r1 - r0) / (r0 r1)
        q1, q2, p1, p2 = y.tolist()
        r0 = math.hypot(q1, q2)
        out = []
        for d1, d2, d3, d4 in d.tolist():
            r1 = math.hypot(q1 + d1, q2 + d2)
            if min(r0, r1) < SINGULARITY_RADIUS:
                raise singular()
            dr = (d1 * (2.0 * q1 + d1) + d2 * (2.0 * q2 + d2)) / (r0 + r1)
            out.append(d3 * (p1 + 0.5 * d3) + d4 * (p2 + 0.5 * d4) + dr / (r0 * r1))
        return out

    system = HamiltonianSystem(
        name="kepler",
        m=2,
        energy=energy,
        flow=flow,
        energy_increment=energy_increment,
        quadratic_invariants=(ANGULAR_MOMENTUM,),
    )
    y0 = np.array([1.0 - e, 0.0, 0.0, np.sqrt((1.0 + e) / (1.0 - e))])
    return system, InitialCondition(y0=y0)


def quartic():
    """Polynomial system H = (p1^2 + p2^2)/2 + (q1^2 + q2^2)^2.

    Shares the angular-momentum invariant with the Kepler problem.  The
    start state is a library choice (no canonical one exists; `get_problem`
    takes another as `y0`): a generic non-apsidal point energetic enough
    that the per-step roots of the conservation equation stay well above
    float resolution.
    """

    def energy(y):
        q1, q2, p1, p2 = y.T
        r2 = q1 * q1 + q2 * q2
        return (0.5 * (p1 * p1 + p2 * p2) + r2 * r2).T

    def flow(y):
        # p' = -4 q |q|^2, with the sign folded into the factor (exact)
        flat = []
        it = iter(y.ravel().tolist())
        for q1, q2, p1, p2 in zip(it, it, it, it):
            r2 = q1 * q1 + q2 * q2
            flat.extend((p1, p2, -4.0 * q1 * r2, -4.0 * q2 * r2))
        return np.array(flat).reshape(y.shape)

    def energy_increment(y, d):
        # with a = |q + d_q|^2 - |q|^2, the potential changes by a (2|q|^2 + a)
        q1, q2, p1, p2 = y.tolist()
        q4 = 2.0 * (q1 * q1 + q2 * q2)
        out = []
        for d1, d2, d3, d4 in d.tolist():
            a = d1 * (2.0 * q1 + d1) + d2 * (2.0 * q2 + d2)
            out.append(d3 * (p1 + 0.5 * d3) + d4 * (p2 + 0.5 * d4) + a * (q4 + a))
        return out

    system = HamiltonianSystem(
        name="quartic",
        m=2,
        energy=energy,
        flow=flow,
        energy_increment=energy_increment,
        quadratic_invariants=(ANGULAR_MOMENTUM,),
    )
    return system, InitialCondition(y0=np.array([1.2, 0.0, 0.3, 1.4]))


def henon_heiles():
    """Planar motion in the cubic potential
    U = (q1^2 + q2^2)/2 + q1^2 q2 - q2^3/3.

    Started at (0, 0, sqrt(3/10), 0), total energy 0.15: below the escape
    threshold 1/6, so the orbit stays inside the triangle of saddle points.
    """

    def energy(y):
        # np.power, not **: on one state's numpy scalars ** would take libm's
        # pow, which can differ in the last bit from the ufunc a block takes
        q1, q2, p1, p2 = y.T
        u = 0.5 * (q1 * q1 + q2 * q2) + q1 * q1 * q2 - np.power(q2, 3) / 3.0
        return (0.5 * (p1 * p1 + p2 * p2) + u).T

    def flow(y):
        flat = []
        it = iter(y.ravel().tolist())
        for q1, q2, p1, p2 in zip(it, it, it, it):
            flat.extend((p1, p2, -(q1 + 2.0 * q1 * q2), -(q2 + q1 * q1 - q2 * q2)))
        return np.array(flat).reshape(y.shape)

    def energy_increment(y, d):
        # the cubic expanded: (q1 + d1)^2 (q2 + d2) - q1^2 q2
        #   = q2 d1 (2 q1 + d1) + d2 (q1 + d1)^2, and
        # ((q2 + d2)^3 - q2^3) / 3 = d2 (q2^2 + q2 d2 + d2^2 / 3)
        q1, q2, p1, p2 = y.tolist()
        return [
            d3 * (p1 + 0.5 * d3) + d4 * (p2 + 0.5 * d4)
            + (
                d1 * (q1 + 0.5 * d1)
                + d2 * (q2 + 0.5 * d2)
                + q2 * d1 * (2.0 * q1 + d1)
                + d2 * (q1 + d1) * (q1 + d1)
                - d2 * (q2 * q2 + q2 * d2 + d2 * d2 / 3.0)
            )
            for d1, d2, d3, d4 in d.tolist()
        ]

    system = HamiltonianSystem(
        name="henon-heiles",
        m=2,
        energy=energy,
        flow=flow,
        energy_increment=energy_increment,
    )
    y0 = np.array([0.0, 0.0, np.sqrt(0.3), 0.0])
    return system, InitialCondition(y0=y0)


def harmonic():
    """Unit harmonic oscillator H = (q^2 + p^2)/2; quadratic, so every
    symplectic Runge-Kutta method conserves it exactly."""

    def energy(y):
        return 0.5 * (y * y).sum(-1)

    def flow(y):
        f = np.empty_like(y)
        f[..., :1] = y[..., 1:]
        np.negative(y[..., :1], out=f[..., 1:])
        return f

    def energy_increment(y, d):
        q, p = y.tolist()
        return [dq * (q + 0.5 * dq) + dp * (p + 0.5 * dp) for dq, dp in d.tolist()]

    system = HamiltonianSystem(
        name="harmonic", m=1, energy=energy, flow=flow, energy_increment=energy_increment
    )
    return system, InitialCondition(y0=np.array([1.0, 0.0]))


PROBLEMS = {
    "kepler": kepler,
    "quartic": quartic,
    "henon-heiles": henon_heiles,
    "harmonic": harmonic,
}


def get_problem(name, e=None, y0=None):
    """Look up a benchmark problem by name, with optional eccentricity and
    start-state overrides.  `e` (Kepler only) chooses the default start
    state, so a given `y0` replaces the start it chose and leaves nothing
    of it in use."""
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}"
        ) from None
    if e is not None and name != "kepler":
        raise ValueError(f"e only applies to the kepler problem, not {name!r}")
    system, ic = factory() if e is None else factory(e)
    if y0 is not None:
        y0 = np.asarray(y0, float)
        if y0.shape != (system.dim,):
            raise ValueError(f"y0 must have {system.dim} components, got {y0.shape}")
        if not np.isfinite(y0).all():
            raise ValueError(f"y0 must be finite, got {tuple(y0.tolist())}")
        ic = InitialCondition(y0=y0)
    return system, ic


def _eccentric_anomaly(e, t):
    """The eccentric anomaly E of mean anomaly M = t (mod 2*pi): the root of
    E - e sin E = M, by safeguarded Newton iteration to a residual of 1e-14.

    The root lies in [M - e, M + e]; each residual's sign shrinks that
    bracket, and a Newton step that leaves it is replaced by bisection.
    Plain Newton from M + e sin M needs the guard near e = 1: where the
    slope 1 - e cos E nearly vanishes, at M near 0 or 2*pi, its steps
    wander off (at e = 0.999, for 7 of 2001 times in [0, 2*pi]).
    """
    mean_anomaly = np.remainder(t, 2.0 * np.pi)
    lo, hi = mean_anomaly - e, mean_anomaly + e
    E = mean_anomaly + e * np.sin(mean_anomaly)
    for _ in range(100):
        f = E - e * np.sin(E) - mean_anomaly
        if abs(f) <= 1e-14:
            return E
        lo, hi = (lo, E) if f > 0.0 else (E, hi)
        newton = E - f / (1.0 - e * np.cos(E))
        E = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise RuntimeError(
        f"eccentric-anomaly iteration did not reach 1e-14 for e={e}, t={t}"
    )


def kepler_reference(e: float, t: float) -> np.ndarray:
    """Exact Kepler state at time t for the perihelion start used by kepler().

    Solves Kepler's equation for the eccentric anomaly
    (`_eccentric_anomaly`), then maps it to Cartesian coordinates.  The
    orbit has unit semi-major axis and unit mean motion.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    E = _eccentric_anomaly(e, t)
    cosE, sinE = np.cos(E), np.sin(E)
    beta = np.sqrt(1.0 - e * e)
    denom = 1.0 - e * cosE
    return np.array(
        [cosE - e, beta * sinE, -sinE / denom, beta * cosE / denom]
    )
