"""Property tests over random stage counts, perturbed indices, perturbation
values and start states: the structure the perturbation must not cost.

For every s in 2..8, index in 1..s-1 and alpha, the perturbed Gauss tableau
stays symplectic (b_i a_ij + b_j a_ji = b_i b_j), a step of h followed by a
step of -h returns to its start (time-reversal symmetry), and one step keeps
the angular momentum of Kepler and of the quartic at round-off.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sympulse.problems import kepler, quartic
from sympulse.stepper import StepConfig, step
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
    bound = 10 * cfg.stage_tol * (1.0 + np.abs(y0).max())
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
