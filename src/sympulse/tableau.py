"""Gauss-Legendre Butcher tableaux and their skew-symmetric perturbations.

The s-stage Gauss collocation matrix A factors as A = P C P^{-1}, where P is
the Vandermonde-like matrix of the shifted, L2-orthonormal Legendre polynomials
at the Gauss nodes and C is a tridiagonal core (1/2 in the top-left corner,
skew couplings +-xi_j on the off-diagonals).  Moving one coupling pair by
+-alpha, a skew-symmetric matrix W added to the core before transforming
back, yields a one-parameter family of perturbed tableaux that are
symplectic for every alpha and reduce to the Gauss method at alpha = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ButcherTableau",
    "LegendreBasis",
    "PerturbationSpec",
    "QuadratureRule",
    "affine_parts",
    "butcher",
    "gauss_core",
    "gauss_quadrature",
    "legendre_basis",
    "subdiagonal_coupling",
]

MAX_STAGES = 10


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of the s-point Gauss-Legendre rule on [0, 1]."""

    s: int
    c: np.ndarray  # strictly increasing nodes in (0, 1)
    b: np.ndarray  # positive weights, sum 1


@dataclass(frozen=True, eq=False)
class LegendreBasis:
    """Shifted orthonormal Legendre polynomials evaluated at quadrature nodes.

    P[i, j] is the value at node c_i of the degree-j polynomial, normalized so
    that its square integrates to 1 over [0, 1], with positive leading
    coefficient.  The inverse comes from the discrete orthogonality
    P^T diag(b) P = I, i.e. Pinv = P^T diag(b).
    """

    s: int
    P: np.ndarray
    Pinv: np.ndarray


def _check_range(name, value, lo, hi):
    """Raise ValueError unless `value` is an integer in lo..hi.  A bool is
    refused, though it is an int, and so is a float, which would truncate;
    numpy's integers pass."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} outside {lo}..{hi}")


@dataclass(frozen=True)
class PerturbationSpec:
    """The perturbed subdiagonal coupling of the tableau core and its value.

    `value` perturbs the coupling pair at subdiagonal position `index`
    (1-based, 1 <= index <= s-1); the induced matrix is skew-symmetric by
    construction, so the perturbed method stays symplectic for every value.
    A zero value leaves the Gauss method untouched; `none(s)` states it with
    index 0, which no nonzero value may take.  The stage count, in
    1..MAX_STAGES, and the index must be Python or numpy integers (a bool
    or a float is refused, not truncated) and are stored as `int`; the
    value must be finite.  The orientation of the pair is a fixed
    convention (the two orientations differ only by the sign relabeling
    value -> -value).
    With it the energy-conserving root of the first Kepler step from
    perihelion is positive; along the orbit the roots take both signs,
    mostly negative (62 of 1600 positive for e=0.6, s=2, h=2^-5, t=50).
    """

    s: int
    index: int
    value: float

    def __post_init__(self):
        _check_range("stage count", self.s, 1, MAX_STAGES)
        if not math.isfinite(self.value):
            raise ValueError(f"perturbation value must be finite, got {self.value!r}")
        # index 0 is the Gauss method, which only a zero value may take
        _check_range("perturbation index", self.index, int(self.value != 0.0), self.s - 1)
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def none(cls, s):
        return cls(s, 0, 0.0)

    @classmethod
    def single(cls, s, index, value):
        """The coupling at `index` moved by `value`; the index must name a
        coupling even when the value is zero."""
        spec = cls(s, index, value)
        _check_range("perturbation index", spec.index, 1, spec.s - 1)
        return spec

    @property
    def matrix(self):
        """The induced skew-symmetric s x s matrix."""
        W = np.zeros((self.s, self.s))
        if self.value != 0.0:
            W[self.index, self.index - 1] = -self.value
            W[self.index - 1, self.index] = self.value
        return W


class ButcherTableau(NamedTuple):
    """An s-stage Runge-Kutta method (c, A, b) with its perturbation record.

    `order` is the classical order: 2s for the unperturbed Gauss method,
    2*index when the coupling at subdiagonal `index` is perturbed.  A batch
    holds a (k, s, s) stack A0 + values (x) D from `affine_parts` in `A` and
    no `perturbation`, since its members differ in value.

    A `NamedTuple`, not a frozen dataclass: each probe round of a root
    search builds one, and a frozen dataclass of four fields takes twice
    as long to build (0.8 us against 0.35 us).  It keeps the dataclass's
    contract: its fields cannot be assigned, and it compares and hashes by
    identity, never over its arrays.
    """

    quadrature: QuadratureRule
    A: np.ndarray
    perturbation: PerturbationSpec | None
    order: int

    # by identity, as with a dataclass of eq=False: a tuple's equality
    # compares its fields, and its hash fails on an array
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def s(self):
        return self.quadrature.s

    @property
    def c(self):
        return self.quadrature.c

    @property
    def b(self):
        return self.quadrature.b


def _legendre(n, x):
    """The Legendre polynomials P_0..P_n at x, by the three-term recurrence."""
    P = [np.ones_like(x), x]
    for k in range(1, n):
        P.append(((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1))
    return P[: n + 1]


# unbounded, so that no rule a tableau refers to is ever evicted and built
# anew; it keys at most one rule per stage count and integer type
@lru_cache(maxsize=None)
def gauss_quadrature(s: int) -> QuadratureRule:
    """s-point Gauss-Legendre nodes and weights on [0, 1].

    Roots of the degree-s Legendre polynomial are found by Newton iteration
    started from the Chebyshev-node approximation; iteration stops once the
    update drops below 1e-15, which takes at most 5 updates for s <= 10.
    The result is symmetrized so that c_i + c_{s+1-i} = 1 and
    b_i = b_{s+1-i} hold to machine precision.  A numpy integer `s` gets
    the rule of the equal `int`, the same object.
    """
    _check_range("stage count", s, 1, MAX_STAGES)
    if type(s) is not int:
        return gauss_quadrature(int(s))
    k = np.arange(1, s + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * s + 2))  # descending in (-1, 1)
    dx = np.inf
    while True:
        p_prev, p = _legendre(s, x)[-2:]
        dp = s * (x * p - p_prev) / (x * x - 1.0)  # P_s'(x)
        if np.max(np.abs(dx)) < 1e-15:
            break
        dx = p / dp
        x = x - dx
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    c = (1.0 + x[::-1]) / 2.0
    b = w[::-1] / 2.0
    c = 0.5 * (c + 1.0 - c[::-1])
    b = 0.5 * (b + b[::-1])
    return QuadratureRule(s=s, c=_frozen(c), b=_frozen(b))


def subdiagonal_coupling(j: int) -> float:
    """The coupling xi_j = 1 / (2 sqrt((2j+1)(2j-1))) of the tableau core.

    Raises ValueError unless `j` is an integer in 1..MAX_STAGES-1, the
    couplings of the cores `gauss_core` builds."""
    _check_range("coupling index", j, 1, MAX_STAGES - 1)
    return 0.5 / np.sqrt((2.0 * j + 1.0) * (2.0 * j - 1.0))


def gauss_core(s: int) -> np.ndarray:
    """Tridiagonal core of the Gauss tableau in the orthonormal Legendre basis.

    Entry (0, 0) is 1/2; entry (j, j-1) is xi_j and (j-1, j) is -xi_j for
    j = 1..s-1; everything else is zero.  Raises ValueError unless `s` is
    an integer in 1..MAX_STAGES, as `gauss_quadrature` does.
    """
    _check_range("stage count", s, 1, MAX_STAGES)
    X = np.zeros((s, s))
    X[0, 0] = 0.5
    for j in range(1, s):
        xi = subdiagonal_coupling(j)
        X[j, j - 1] = xi
        X[j - 1, j] = -xi
    return X


@lru_cache(maxsize=MAX_STAGES + 2)
def _cached_parts(s):
    """The Legendre basis at the nodes of the s-point Gauss rule, the Gauss
    tableau A0 = P core P^{-1} and the unit perturbations D_j = P W_j P^{-1},
    j = 1..s-1, stored at position j - 1; all built once per stage count."""
    q = gauss_quadrature(s)
    P = np.column_stack(_legendre(s - 1, 2.0 * q.c - 1.0))
    P *= np.sqrt(2.0 * np.arange(s) + 1.0)
    basis = LegendreBasis(s=s, P=_frozen(P), Pinv=_frozen(P.T * q.b))  # P^T diag(b)
    A0 = _frozen(basis.P @ gauss_core(s) @ basis.Pinv)
    D = tuple(
        _frozen(basis.P @ PerturbationSpec.single(s, j, 1.0).matrix @ basis.Pinv)
        for j in range(1, s)
    )
    return basis, A0, D


def _gauss_parts(q):
    """`_cached_parts` of the rule `q`, which must be the one
    `gauss_quadrature` built: Pinv = P^T diag(b) holds only on Gauss nodes."""
    if q is not gauss_quadrature(q.s):
        raise ValueError("tableaux are built only on rules from gauss_quadrature")
    return _cached_parts(q.s)


def legendre_basis(q: QuadratureRule) -> LegendreBasis:
    """Orthonormal shifted-Legendre values at the nodes of `q`, with inverse.

    Raises ValueError unless `q` comes from `gauss_quadrature`."""
    return _gauss_parts(q)[0]


def affine_parts(q: QuadratureRule, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss tableau A0 and the unit perturbation D of the coupling at
    `index`, both read-only: the tableau of value v is A0 + v D, equal to
    `butcher`'s, and the (k, s, s) stack A0 + values (x) D holds the
    tableaux of k values for one batched `stepper.step`.

    Raises ValueError unless `q` comes from `gauss_quadrature` and `index`
    is an integer in 1..s-1."""
    _, A0, D = _gauss_parts(q)
    _check_range("perturbation index", index, 1, q.s - 1)
    return A0, D[index - 1]


def butcher(q: QuadratureRule, pert: PerturbationSpec) -> ButcherTableau:
    """Assemble the (possibly perturbed) tableau A = P (core + W) P^{-1}.

    W is linear in the perturbation value, so A = A0 + value D_index is
    built from the Gauss tableau A0 and the unit perturbations D_j, which
    are computed once per stage count.  Raises ValueError unless `q` comes
    from `gauss_quadrature`.
    """
    _, A0, D = _gauss_parts(q)
    if pert.s != q.s:
        raise ValueError(f"perturbation built for s={pert.s}, quadrature has s={q.s}")
    if pert.value == 0.0:
        return ButcherTableau(quadrature=q, A=A0, perturbation=pert, order=2 * q.s)
    A = A0 + pert.value * D[pert.index - 1]
    A.setflags(write=False)
    return ButcherTableau(quadrature=q, A=A, perturbation=pert, order=2 * pert.index)
