"""Benchmark Hamiltonian systems: energy, gradient and canonical vector field.

State vectors are laid out as y = (q_1..q_m, p_1..p_m); the canonical flow is
f = J grad H, that is q' = dH/dp, p' = -dH/dq.  Each problem supplies its
energy and one fused kernel for the flow, which fills a single output array
with no gradient temporary; the gradient is derived from the flow exactly,
grad H = -J f (a copy and a negation), so no problem keeps two copies of its
derivative.  Both callables broadcast over leading axes so that a whole block
of stage vectors can be evaluated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SINGULARITY_RADIUS = 1e-8


class SingularPotentialError(ArithmeticError):
    """Evaluation requested inside the excluded neighborhood of a potential
    singularity (e.g. the Kepler origin)."""


@dataclass(frozen=True)
class Invariant:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A canonical Hamiltonian system on R^{2m}."""

    name: str
    m: int
    energy: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[np.ndarray], np.ndarray]
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
    t0: float = 0.0
    label: str = ""


def _angular_momentum(y):
    return y[..., 0] * y[..., 3] - y[..., 1] * y[..., 2]


ANGULAR_MOMENTUM = Invariant("L", _angular_momentum)


def kepler(e: float = 0.6):
    """Planar two-body problem with eccentricity e, started at perihelion.

    H = (p1^2 + p2^2)/2 - 1/|q|, conserving the angular momentum
    L = q1 p2 - q2 p1 = sqrt(1 - e^2); the orbit has period 2*pi.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")

    def _radius(q):
        r = np.sqrt((q * q).sum(-1))
        if r.min() < SINGULARITY_RADIUS:
            raise SingularPotentialError(
                f"state within {SINGULARITY_RADIUS} of the gravitational singularity"
            )
        return r

    def energy(y):
        r = _radius(y[..., :2])
        p = y[..., 2:]
        return 0.5 * (p * p).sum(-1) - 1.0 / r

    def flow(y):
        # p' = -q / r^3, with the sign folded into the divisor (exact)
        q = y[..., :2]
        r = _radius(q)
        f = np.empty_like(y)
        f[..., :2] = y[..., 2:]
        np.divide(q, -r[..., None] ** 3, out=f[..., 2:])
        return f

    system = HamiltonianSystem(
        name="kepler",
        m=2,
        energy=energy,
        flow=flow,
        quadratic_invariants=(ANGULAR_MOMENTUM,),
    )
    y0 = np.array([1.0 - e, 0.0, 0.0, np.sqrt((1.0 + e) / (1.0 - e))])
    return system, InitialCondition(y0=y0, label=f"kepler e={e}")


def quartic(y0=(1.2, 0.0, 0.3, 1.4)):
    """Polynomial system H = (p1^2 + p2^2)/2 + (q1^2 + q2^2)^2.

    Shares the angular-momentum invariant with the Kepler problem.  The
    default start state is a library choice (no canonical one exists): a
    generic non-apsidal point energetic enough that the per-step roots of
    the conservation equation stay well above float resolution.
    """

    def energy(y):
        q2 = (y[..., :2] ** 2).sum(-1)
        p2 = (y[..., 2:] ** 2).sum(-1)
        return 0.5 * p2 + q2 * q2

    def flow(y):
        # p' = -4 q |q|^2, with the sign folded into the factor (exact)
        q = y[..., :2]
        q2 = (q ** 2).sum(-1)
        f = np.empty_like(y)
        f[..., :2] = y[..., 2:]
        np.multiply(-4.0 * q, q2[..., None], out=f[..., 2:])
        return f

    system = HamiltonianSystem(
        name="quartic",
        m=2,
        energy=energy,
        flow=flow,
        quadratic_invariants=(ANGULAR_MOMENTUM,),
    )
    return system, InitialCondition(y0=np.asarray(y0, float), label="quartic")


def henon_heiles():
    """Planar motion in the cubic potential
    U = (q1^2 + q2^2)/2 + q1^2 q2 - q2^3/3.

    Started at (0, 0, sqrt(3/10), 0), total energy 0.15: below the escape
    threshold 1/6, so the orbit stays inside the triangle of saddle points.
    """

    def energy(y):
        q1, q2 = y[..., 0], y[..., 1]
        p2 = (y[..., 2:] ** 2).sum(-1)
        u = 0.5 * (q1 * q1 + q2 * q2) + q1 * q1 * q2 - q2 ** 3 / 3.0
        return 0.5 * p2 + u

    def flow(y):
        q1, q2 = y[..., 0], y[..., 1]
        f = np.empty_like(y)
        f[..., :2] = y[..., 2:]
        f[..., 2] = q1 + 2.0 * q1 * q2
        f[..., 3] = q2 + q1 * q1 - q2 * q2
        np.negative(f[..., 2:], out=f[..., 2:])
        return f

    system = HamiltonianSystem(name="henon-heiles", m=2, energy=energy, flow=flow)
    y0 = np.array([0.0, 0.0, np.sqrt(0.3), 0.0])
    return system, InitialCondition(y0=y0, label="henon-heiles")


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

    system = HamiltonianSystem(name="harmonic", m=1, energy=energy, flow=flow)
    return system, InitialCondition(y0=np.array([1.0, 0.0]), label="harmonic")


PROBLEMS = {
    "kepler": kepler,
    "quartic": quartic,
    "henon-heiles": henon_heiles,
    "harmonic": harmonic,
}


def get_problem(name, e=None, y0=None):
    """Look up a benchmark problem by name, with optional eccentricity and
    start-state overrides."""
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}"
        ) from None
    if name == "kepler":
        system, ic = factory(0.6 if e is None else e)
    else:
        if e is not None:
            raise ValueError(f"--e only applies to the kepler problem, not {name!r}")
        system, ic = factory()
    if y0 is not None:
        y0 = np.asarray(y0, float)
        if y0.shape != (system.dim,):
            raise ValueError(f"y0 must have {system.dim} components, got {y0.shape}")
        ic = InitialCondition(y0=y0, t0=ic.t0, label=ic.label + " (custom y0)")
    return system, ic


def kepler_reference(e: float, t: float) -> np.ndarray:
    """Exact Kepler state at time t for the perihelion start used by kepler().

    Solves E - e sin E = t (mod 2*pi) by Newton iteration to a residual of
    1e-14, then maps the eccentric anomaly to Cartesian coordinates.  The
    orbit has unit semi-major axis and unit mean motion.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    mean_anomaly = np.remainder(t, 2.0 * np.pi)
    E = mean_anomaly + e * np.sin(mean_anomaly)
    for _ in range(50):
        f = E - e * np.sin(E) - mean_anomaly
        if abs(f) <= 1e-14:
            break
        E -= f / (1.0 - e * np.cos(E))
    else:
        raise RuntimeError(
            f"eccentric-anomaly iteration did not reach 1e-14 for e={e}, t={t}"
        )
    cosE, sinE = np.cos(E), np.sin(E)
    beta = np.sqrt(1.0 - e * e)
    denom = 1.0 - e * cosE
    return np.array(
        [cosE - e, beta * sinE, -sinE / denom, beta * cosE / denom]
    )
