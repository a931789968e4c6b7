"""Property tests over random stage counts, perturbed indices, perturbation
values and start states: the structure the perturbation must not cost.

For every s in 2..8, index in 1..s-1 and alpha, the perturbed Gauss tableau
stays symplectic (b_i a_ij + b_j a_ji = b_i b_j), a step of h followed by a
step of -h returns to its start (time-reversal symmetry), and one step keeps
the angular momentum of Kepler and of the quartic at round-off.

The run boundary is tested the same way: a `RunSpec` drawn from a small
grammar of good and bad fields is either rejected at construction with a
ValueError, or it runs to its end, or a step of it fails with an
IntegrationError; nothing else escapes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sympulse.conserve import AlphaSearchConfig
from sympulse.experiments import METHODS, IntegrationError, RunSpec, integrate
from sympulse.problems import kepler, quartic
from sympulse.stepper import STAGE_TOL, StepConfig, step
from sympulse.tableau import PerturbationSpec, butcher, gauss_quadrature

EPS = np.finfo(float).eps
SYSTEMS = (kepler(0.6)[0], quartic()[0])

# derandomized, so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def perturbed_tableaux(draw):
    s = draw(st.integers(2, 8))
    index = draw(st.integers(1, s - 1))
    alpha = draw(st.floats(-0.5, 0.5))
    return butcher(gauss_quadrature(s), PerturbationSpec.single(s, index, alpha))


@st.composite
def planar_states(draw):
    # positions in an annulus clear of the Kepler singularity, where a step
    # of at most 2^-4 is well inside the fixed-point iteration's reach
    radius = draw(st.floats(0.7, 2.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    p = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    return np.array([radius * np.cos(angle), radius * np.sin(angle), *p])


stepsizes = st.floats(2.0**-7, 2.0**-4)


@PROPERTY
@given(perturbed_tableaux())
def test_perturbed_tableau_is_symplectic(tab):
    b, A = tab.b, tab.A
    identity = b[:, None] * A + (b[:, None] * A).T - np.outer(b, b)
    assert np.abs(identity).max() <= 1e-14


@PROPERTY
@given(perturbed_tableaux(), planar_states(), stepsizes)
def test_step_is_time_reversible(tab, y0, h):
    cfg = StepConfig(h=h)
    bound = 10 * STAGE_TOL * (1.0 + np.abs(y0).max())
    for system in SYSTEMS:
        forward = step(system, tab, y0, cfg)
        back = step(system, tab, forward.y1, StepConfig(h=-h))
        assert forward.converged and back.converged
        assert np.abs(back.y1 - y0).max() <= bound


@PROPERTY
@given(perturbed_tableaux(), planar_states(), stepsizes)
def test_step_conserves_angular_momentum(tab, y0, h):
    for system in SYSTEMS:
        L = system.quadratic_invariants[0].fn
        res = step(system, tab, y0, StepConfig(h=h))
        assert res.converged
        L0 = float(L(y0))
        assert abs(float(L(res.y1)) - L0) <= 64 * EPS * (1.0 + abs(L0))


NAN, INF = math.nan, math.inf
# zero of both signs, the smallest subnormal, a huge value and the non-finite ones
EDGES = (0.0, -0.0, 5e-324, 1e300, NAN, INF, -INF)

# runs that construct and finish, each the base that some fields are redrawn in
GOOD_RUNS = (
    {"problem": "kepler", "method": "ep-gauss", "s": 2, "h": 2**-5, "steps": 3},
    {"problem": "quartic", "method": "ep-gauss-type2", "s": 3, "h": 2**-3, "steps": 5},
    {"problem": "henon-heiles", "method": "fixed-alpha", "s": 3, "h": 0.25, "steps": 4,
     "alpha": 1e-3},
    {"problem": "harmonic", "method": "gauss", "s": 2, "h": 0.1, "steps": 20},
)
# `steps` sets t_end = t0 + steps h: at most 20 steps, and 1e-12 makes none
FIELDS = {
    "problem": ("kepler", "quartic", "henon-heiles", "harmonic", "nope"),
    "method": METHODS,
    "s": (0, 1, 2, 3, 4, 11, True, 2.0, np.int64(3)),
    "perturb_index": (None, 0, 1, 2, 1.5, 1.0, -1),
    "h": (0.25, 2**-5, -0.1) + EDGES,
    "alpha": (1e-3, -0.02) + EDGES,
    # 1 - 1e-10 puts the perihelion inside the singular radius
    "e": (None, 0.6, 0.9999999999, 1.5) + EDGES,
    "t0": (1.5, -2.0) + EDGES,
    "y0": (None, (1.0, 0.0), (0.5, 0.0, 0.0, 1.2), (1.0, 0.0, 0.5), (NAN, 0.0, 0.0, 1.0),
           (1e200, 0.0, 0.0, 1e200)),
    "steps": (0.0, 1e-12, 0.5, 1.0, 2.5, 20.0),
    "search": (AlphaSearchConfig(), None, "bisect"),
}


@st.composite
def run_fields(draw):
    fields = dict(draw(st.sampled_from(GOOD_RUNS)))
    for name in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=3, unique=True)):
        fields[name] = draw(st.sampled_from(FIELDS[name]))
    steps = fields.pop("steps")
    fields["t_end"] = fields.get("t0", 0.0) + steps * fields["h"]
    return fields


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_fields())
def test_a_run_is_rejected_at_construction_or_fails_as_a_step(fields):
    try:
        spec = RunSpec(**fields)
    except ValueError:
        return
    try:
        # overflow at huge states and couplings is reported by the typed error
        with np.errstate(all="ignore"):
            record = integrate(spec)
    except IntegrationError as exc:
        assert 0 <= exc.step_index <= 20
        return
    assert record.times.size <= 22
