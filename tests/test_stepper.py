import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quasi_collocation import collocation_defect, dense_output, lagrange_integral_coeffs
from sympulse import conserve, stepper
from sympulse.conserve import AlphaSearchConfig, energy_defect, level_grid, solve_alpha
from sympulse.problems import (
    PROBLEMS,
    HamiltonianSystem,
    SingularPotentialError,
    harmonic,
    kepler,
    kepler_reference,
    quartic,
)
from sympulse.stepper import (
    _STALL_WINDOW,
    STAGE_TOL,
    StepConfig,
    stage_predictor,
    step,
)
from sympulse.tableau import (
    ButcherTableau,
    PerturbationSpec,
    affine_parts,
    butcher,
    gauss_quadrature,
)


# a stage tolerance no residual meets, not even the 0.0 of an iteration that
# ends on an exact float fixed point: patched in to force a failed solve
UNREACHABLE_TOL = -1.0


def make_tableau(s, index=None, alpha=0.0):
    q = gauss_quadrature(s)
    if index is None or alpha == 0.0 and index is None:
        pert = PerturbationSpec.none(s)
    else:
        pert = PerturbationSpec.single(s, index, alpha)
    return butcher(q, pert)


def make_stack(q, index, values):
    """The tableaux of `values` at coupling `index` as one (k, s, s) stack,
    built as the root search builds a probe round's."""
    A0, D = affine_parts(q, index)
    return ButcherTableau(q, A0 + np.multiply.outer(values, D), None, 2 * index)


CONSTANT_H = HamiltonianSystem(
    name="constant",
    m=1,
    energy=lambda y: np.zeros(y.shape[:-1]),
    flow=lambda y: np.zeros_like(y),
    energy_increment=lambda y, d: 0.0,
)


class TestStepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"h": float("nan")},
            {"h": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepConfig(**kwargs)

    def test_the_stepsize_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(StepConfig)] == ["h"]


class TestStep:
    def test_zero_field_converges_in_one_iteration(self):
        tab = make_tableau(2)
        y0 = np.array([0.3, -0.8])
        res = step(CONSTANT_H, tab, y0, StepConfig(h=0.5))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.y1, y0)
        np.testing.assert_array_equal(res.stages, np.tile(y0, (2, 1)))

    @pytest.mark.parametrize("alpha", [0.0, 0.05, -0.3])
    @pytest.mark.parametrize("h", [0.5, 0.1, -0.2])
    def test_harmonic_energy_conserved_for_any_perturbation(self, alpha, h):
        system, ic = harmonic()
        tab = make_tableau(2, 1, alpha)
        res = step(system, tab, ic.y0, StepConfig(h=h))
        assert res.converged
        dH = float(system.energy(res.y1) - system.energy(ic.y0))
        assert abs(dH) <= 1e-13

    def test_warm_start_reaches_the_cold_step(self):
        # stages converged at a nearby alpha seed the solve at another one,
        # as in a root search: a stack of one, which takes the polish sweep
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        near = step(system, make_tableau(2, 1, 1e-4), ic.y0, cfg)
        cold = step(system, make_tableau(2, 1, 3e-4), ic.y0, cfg)
        stack = make_stack(gauss_quadrature(2), 1, [3e-4])
        warm = step(system, stack, ic.y0, cfg, guess=near.stages[None])
        assert warm.converged
        assert warm.iterations < cold.iterations
        bound = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(ic.y0)))
        assert np.max(np.abs(warm.y1[0] - cold.y1)) <= bound

    def test_start_on_the_line_through_two_probes_beats_the_nearest(self):
        # stages converged at alpha = 1e-4 and 3e-4, interpolated to 2e-4,
        # seed the solve there in fewer sweeps than the nearest probe alone
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        lo, hi = (step(system, make_tableau(2, 1, a), ic.y0, cfg).stages for a in (1e-4, 3e-4))
        tab = make_tableau(2, 1, 2e-4)
        cold = step(system, tab, ic.y0, cfg)
        near = step(system, tab, ic.y0, cfg, guess=lo)
        line = step(system, tab, ic.y0, cfg, guess=lo + 0.5 * (hi - lo))
        assert line.converged
        assert line.iterations < near.iterations < cold.iterations
        bound = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(ic.y0)))
        assert np.max(np.abs(line.y1 - cold.y1)) <= bound

    def test_warm_start_takes_one_sweep_past_tolerance(self):
        # a guess that already solves the stage equations still gets one
        # more sweep before a stack returns; a single tableau returns at once
        y0 = np.array([0.3, -0.8])
        cfg = StepConfig(h=0.5)
        guess = np.tile(y0, (2, 1))
        stack = step(CONSTANT_H, make_stack(gauss_quadrature(2), 1, [0.0]), y0, cfg, guess[None])
        assert stack.converged
        assert stack.iterations == 2
        single = step(CONSTANT_H, make_tableau(2), y0, cfg, guess)
        assert single.converged
        assert single.iterations == 1

    def test_cold_step_makes_one_field_call_per_sweep(self):
        # the first sweep evaluates the initial stages, every later one the
        # update of the sweep before; the converged exit evaluates nothing
        # more.  The same holds from a guess, for a single tableau and for a
        # stack with its polish sweep
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        guess = step(system, make_tableau(2, 1, 2e-3), ic.y0, cfg).stages
        stack = make_stack(gauss_quadrature(2), 1, [1e-3])
        starts = [
            (make_tableau(2, 1, 1e-3), None),
            (make_tableau(2, 1, 1e-3), guess),
            (stack, guess[None]),
        ]
        calls = []

        def counted(y):
            calls.append(1)
            return system.flow(y)

        wrapped = dataclasses.replace(system, flow=counted)
        for tab, start in starts:
            calls.clear()
            res = step(wrapped, tab, ic.y0, cfg, start)
            assert res.converged
            assert len(calls) == res.iterations

    def test_jacobian_takes_one_field_call(self):
        system, _ = harmonic()
        calls = []

        def counted(y):
            calls.append(y.shape)
            return system.flow(y)

        wrapped = dataclasses.replace(system, flow=counted)
        J = stepper._fd_jacobian(wrapped, np.array([0.3, -0.8]))
        np.testing.assert_allclose(J, [[0.0, 1.0], [-1.0, 0.0]], rtol=0, atol=1e-8)
        assert calls == [(2, 2, 2)]

    @pytest.mark.parametrize("start", ["cold", "warm", "out_of_budget"])
    def test_stage_residual_is_the_residual_of_the_returned_stages(self, start, monkeypatch):
        system, ic = kepler(0.6)
        tab = make_tableau(3, 2, 1e-3)
        cfg = StepConfig(h=2**-5)
        guess = None
        if start == "warm":
            guess = step(system, make_tableau(3, 2, 2e-3), ic.y0, cfg).stages
        elif start == "out_of_budget":
            monkeypatch.setattr(stepper, "STAGE_TOL", UNREACHABLE_TOL)
            monkeypatch.setattr(stepper, "_MAX_ITERS", 4)
        increments = []  # the increments Z = Y - y0 the sweeps end on

        def spy(*args, _original=stepper._sweeps):
            out = _original(*args)
            increments.append(out[1])
            return out

        monkeypatch.setattr(stepper, "_sweeps", spy)
        res = step(system, tab, ic.y0, cfg, guess)
        assert res.converged == (start != "out_of_budget")
        [Z] = increments
        np.testing.assert_allclose(res.stages, ic.y0 + Z, rtol=0, atol=1e-15)
        F = system.vector_field(res.stages)
        fresh = np.max(np.abs(Z - cfg.h * (tab.A @ F)))
        assert res.stage_residual == fresh / (1.0 + np.max(np.abs(ic.y0)))
        np.testing.assert_array_equal(res.stage_fields, F)

    def test_non_convergence_is_flagged_not_raised(self, monkeypatch):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        monkeypatch.setattr(stepper, "STAGE_TOL", UNREACHABLE_TOL)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 5)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5))
        assert not res.converged
        assert res.iterations == 5
        assert res.stage_residual > 0.0

    def test_diverging_single_tableau_fails_without_a_warning(self):
        # quartic s=2 at h=2 from y0: the iterate overflows and the
        # product of h A with its fields meets inf - inf
        system, ic = quartic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = step(system, make_tableau(2), ic.y0, StepConfig(h=2.0))
        assert not res.converged
        assert math.isfinite(res.stage_residual) and res.stage_residual > 1e100

    def test_budget_that_ends_on_a_converged_iterate_reports_it_converged(self, monkeypatch):
        # plain 2-stage Gauss on Kepler at 2^-5 reads its first residual
        # within STAGE_TOL on its last sweep; a budget one sweep shorter
        # returns the same stages, whose residual also meets STAGE_TOL
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        full = step(system, tab, ic.y0, StepConfig(h=2**-5))
        monkeypatch.setattr(stepper, "_MAX_ITERS", full.iterations - 1)
        cut = step(system, tab, ic.y0, StepConfig(h=2**-5))
        assert full.converged and cut.converged
        assert cut.iterations == full.iterations - 1
        assert cut.stage_residual == full.stage_residual <= 1e-14
        np.testing.assert_array_equal(cut.stages, full.stages)
        np.testing.assert_array_equal(cut.y1, full.y1)

    def test_stage_equations_satisfied(self):
        system, ic = kepler(0.6)
        tab = make_tableau(3, 2, 1e-3)
        cfg = StepConfig(h=2**-5)
        res = step(system, tab, ic.y0, cfg)
        F = system.vector_field(res.stages)
        residual = res.stages - ic.y0 - cfg.h * (tab.A @ F)
        scale = 1.0 + np.max(np.abs(ic.y0))
        assert np.max(np.abs(residual)) / scale <= STAGE_TOL
        np.testing.assert_allclose(
            res.y1, ic.y0 + cfg.h * (tab.b @ F), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("alpha,h", [(0.1, 0.25), (-0.1, 0.1), (0.05, 2**-5)])
    def test_angular_momentum_conserved_per_step(self, alpha, h):
        system, ic = kepler(0.6)
        L = system.quadratic_invariants[0].fn
        tab = make_tableau(2, 1, alpha)
        res = step(system, tab, ic.y0, StepConfig(h=h))
        assert res.converged
        assert abs(float(L(res.y1) - L(ic.y0))) <= 1e-12

    def test_time_symmetry_round_trip(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2, 1, 1e-3)
        cfg = StepConfig(h=2**-5)
        forward = step(system, tab, ic.y0, cfg)
        back = step(system, tab, forward.y1, StepConfig(h=-(2**-5)))
        assert np.max(np.abs(back.y1 - ic.y0)) <= 10 * STAGE_TOL

    def test_huge_step_falls_back_to_newton_and_converges(self, monkeypatch):
        # step 1 of plain 3-stage Gauss on the quartic at h=1: fixed-point
        # iteration stalls, and only the simplified Newton fallback finishes
        calls = []

        def counted(system, y):
            calls.append(y)
            return fd_jacobian(system, y)

        fd_jacobian = stepper._fd_jacobian
        monkeypatch.setattr(stepper, "_fd_jacobian", counted)
        system, _ = quartic()
        y0 = np.array([float.fromhex(v) for v in (
            "-0x1.02db740dcae52p-1", "0x1.84669c109a497p-1",
            "-0x1.113368088e0fdp+1", "-0x1.ed21089920480p-4",
        )])
        tab = make_tableau(3)
        cfg = StepConfig(h=1.0)
        res = step(system, tab, y0, cfg)
        assert len(calls) >= 1
        assert res.converged
        F = system.vector_field(res.stages)
        fresh = np.max(np.abs(res.stages - y0 - cfg.h * (tab.A @ F)))
        assert fresh / (1.0 + np.max(np.abs(y0))) <= STAGE_TOL

    def test_diverging_fixed_point_fails_without_restart(self, monkeypatch):
        # plain 2-stage Gauss on the quartic at h=3: the fixed-point iterates
        # overflow, and the solve ends unconverged at the last iterate with a
        # finite field, without starting over and without a Jacobian
        system, ic = quartic()
        starts, jacobians = [], []
        start_stages = np.tile(ic.y0, (2, 1))

        def counted_flow(y):
            if np.array_equal(y, start_stages):
                starts.append(y)
            return system.flow(y)

        def counted_jacobian(system, y):
            jacobians.append(y)
            return fd_jacobian(system, y)

        fd_jacobian = stepper._fd_jacobian
        monkeypatch.setattr(stepper, "_fd_jacobian", counted_jacobian)
        wrapped = dataclasses.replace(system, flow=counted_flow)
        tab = make_tableau(2)
        cfg = StepConfig(h=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = step(wrapped, tab, ic.y0, cfg)
        assert not res.converged
        assert len(starts) == 1
        assert jacobians == []
        assert np.isfinite(res.stages).all()
        F = system.vector_field(res.stages)
        np.testing.assert_array_equal(res.stage_fields, F)
        fresh = np.max(np.abs(res.stages - ic.y0 - cfg.h * (tab.A @ F)))
        assert res.stage_residual == fresh / (1.0 + np.max(np.abs(ic.y0)))

    @pytest.mark.parametrize(
        "h, state",
        [
            # the state after one step of h=0.02
            (1.0, ("0x1.985265912cfadp-2", "0x1.4756df79cbecep-5",
                   "-0x1.fe830cc1b7371p-4", "0x1.fe67c2a0f5e10p+0")),
            # a state along the orbit
            (1.5, ("0x1.616458d4f643ap-2", "0x1.0bad525f81737p-2",
                   "-0x1.826daca3f6186p-1", "0x1.bf15b7595a251p+0")),
        ],
        ids=["h=1", "h=1.5"],
    )
    def test_stalled_newton_ends_the_solve(self, h, state, monkeypatch):
        # plain 2-stage Gauss on Kepler at a huge step: Newton with the
        # Jacobian at y0 stalls too, and the solve stops there, after one
        # Jacobian, instead of sweeping on to _MAX_ITERS
        calls = []

        def counted(system, y):
            calls.append(y)
            return fd_jacobian(system, y)

        fd_jacobian = stepper._fd_jacobian
        monkeypatch.setattr(stepper, "_fd_jacobian", counted)
        system, _ = kepler(0.6)
        y0 = np.array([float.fromhex(v) for v in state])
        res = step(system, make_tableau(2), y0, StepConfig(h=h))
        assert not res.converged
        assert len(calls) == 1
        assert np.array_equal(calls[0], y0)
        assert res.iterations < stepper._MAX_ITERS

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_start_state_of_the_wrong_shape_is_refused(self, name):
        # a short or a doubled state used to be integrated as it came
        system, ic = PROBLEMS[name]()
        for y0 in (ic.y0[:-1], np.tile(ic.y0, 2), ic.y0[None, :]):
            message = re.escape(f"shape {y0.shape}, the system's states ({system.dim},)")
            with pytest.raises(ValueError, match=message):
                step(system, make_tableau(2), y0, StepConfig(h=0.1))

    def test_searches_and_defects_reach_the_shape_check(self):
        system, _ = kepler(0.6)
        cfg = StepConfig(h=0.1)
        with pytest.raises(ValueError, match="shape"):
            solve_alpha(system, 2, 1, (1.0, 0.0), 0.1, AlphaSearchConfig(), cfg)
        with pytest.raises(ValueError, match="shape"):
            energy_defect(system, 2, 1, (1.0, 0.0), 1e-3, cfg)
        with pytest.raises(ValueError, match="shape"):
            level_grid(system, 2, 1, (1.0, 0.0), [0.1], [0.0, 1e-3])

    def test_singular_iterate_fails_without_raising(self):
        # a field that is singular far from y0: the diverging fixed-point
        # iterates reach it, and the solve reports failure instead of raising
        def flow(y):
            if np.abs(y).max() > 10.0:
                raise SingularPotentialError("far from the start")
            return harmonic()[0].flow(y)

        toy = HamiltonianSystem(
            name="toy", m=1, energy=lambda y: 0.5 * (y * y).sum(-1), flow=flow,
            energy_increment=lambda y, d: 0.0,
        )
        y0 = np.array([1.0, 0.0])
        res = step(toy, make_tableau(2), y0, StepConfig(h=8.0))
        assert not res.converged
        assert res.iterations < _STALL_WINDOW
        assert np.abs(res.stages).max() <= 10.0
        np.testing.assert_array_equal(res.stage_fields, flow(res.stages))

    def test_singular_start_raises(self):
        system, _ = kepler(0.6)
        with pytest.raises(SingularPotentialError):
            step(system, make_tableau(2), np.zeros(4), StepConfig(h=0.1))

    @pytest.mark.parametrize("member", ["single", "stack"])
    def test_guess_with_a_field_that_is_not_finite_ends_the_first_sweep(self, member):
        # the guess is the first iterate, so there is none to fall back to:
        # the solve returns it unconverged after one sweep and evaluates
        # nothing more
        system, _ = harmonic()
        calls = []

        def flow(y):
            calls.append(1)
            return np.where(np.abs(y) > 10.0, np.nan, system.flow(y))

        toy = dataclasses.replace(system, flow=flow)
        y0 = np.array([1.0, 0.0])
        tab = make_tableau(2)
        guess = np.array([[1.0, 0.0], [20.0, 0.0]])
        if member == "stack":
            tab, guess = make_stack(gauss_quadrature(2), 1, [0.0]), guess[None]
        res = step(toy, tab, y0, StepConfig(h=0.5), guess)
        assert not res.converged
        assert res.iterations == 1
        assert len(calls) == 1
        np.testing.assert_array_equal(res.stages, guess)
        assert np.isnan(res.stage_residual)

    def test_field_not_finite_on_the_last_sweep_returns_the_iterate_before(self, monkeypatch):
        # with a budget of 4 sweeps, the field of the 4th iterate (the 5th
        # call) is NaN: the solve returns the 3rd iterate, with its field and
        # residual, exactly as a budget of 3 sweeps returns it
        system, ic = kepler(0.6)
        calls = []

        def flow(y):
            calls.append(1)
            f = system.flow(y)
            return np.full_like(f, np.nan) if len(calls) == 5 else f

        tab = make_tableau(2)
        cfg = StepConfig(h=2**-5)
        monkeypatch.setattr(stepper, "STAGE_TOL", UNREACHABLE_TOL)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 4)
        res = step(dataclasses.replace(system, flow=flow), tab, ic.y0, cfg)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 3)
        three = step(system, tab, ic.y0, cfg)
        assert len(calls) == 5
        assert not res.converged and not three.converged
        assert res.iterations == 4
        assert res.stages.tobytes() == three.stages.tobytes()
        assert res.stage_fields.tobytes() == three.stage_fields.tobytes()
        assert res.y1.tobytes() == three.y1.tobytes()
        assert res.stage_residual == three.stage_residual

    @pytest.mark.parametrize("component", [0, 3])
    def test_one_nan_anywhere_in_the_field_ends_the_solve(self, component, monkeypatch):
        # a NaN in one component of one stage's field, first in the defect
        # or after finite values, ends the solve as a field of NaN does
        system, ic = kepler(0.6)
        calls = []

        def flow(y):
            calls.append(1)
            f = system.flow(y)
            if len(calls) == 5:
                f[..., -1, component] = np.nan
            return f

        tab = make_tableau(2)
        cfg = StepConfig(h=2**-5)
        monkeypatch.setattr(stepper, "STAGE_TOL", UNREACHABLE_TOL)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 4)
        res = step(dataclasses.replace(system, flow=flow), tab, ic.y0, cfg)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 3)
        three = step(system, tab, ic.y0, cfg)
        assert res.iterations == 4 and not res.converged
        assert res.stages.tobytes() == three.stages.tobytes()
        assert res.stage_residual == three.stage_residual


STEP_RESULT_FIELDS = (
    "increment", "stages", "iterations", "converged", "stage_residual", "y0", "h", "stage_fields"
)
TABLEAU_FIELDS = ("quadrature", "A", "perturbation", "order")


def record_and_twin(kind):
    """A record of the per-solve path, a second one built positionally from
    the same field values, and the field names in their order."""
    if kind == "step":
        system, ic = kepler(0.6)
        record = step(system, make_tableau(2, 1, 0.01), ic.y0, StepConfig(h=0.1))
        names = STEP_RESULT_FIELDS
    else:
        record, names = make_tableau(3, 2, 0.01), TABLEAU_FIELDS
    return record, type(record)(*(getattr(record, n) for n in names)), names


class TestRecordContract:
    # StepResult and ButcherTableau keep the contract of a frozen dataclass
    # with eq=False: fields that cannot be assigned, equality and hash by
    # identity (never over the arrays they hold)
    @pytest.mark.parametrize("kind", ["step", "tableau"])
    def test_fields_cannot_be_assigned(self, kind):
        record, _, names = record_and_twin(kind)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    @pytest.mark.parametrize("kind", ["step", "tableau"])
    def test_equality_and_hash_are_by_identity(self, kind):
        record, twin, names = record_and_twin(kind)
        assert all(getattr(twin, n) is getattr(record, n) for n in names)
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert hash(record) == hash(record)
        assert len({record, twin, record}) == 2

    def test_derived_properties(self):
        record, _, _ = record_and_twin("step")
        assert record.y1.tobytes() == (record.y0 + record.increment).tobytes()
        tab, q = make_tableau(3, 2, 0.01), gauss_quadrature(3)
        assert tab.s == 3 and tab.c is q.c and tab.b is q.b

    def test_probe_member_views_its_batch(self):
        # the step a root search accepts is its batch's member, not a copy
        system, ic = kepler(0.6)
        tab = make_stack(gauss_quadrature(2), 1, [0.0, 1e-3])
        batch = step(system, tab, ic.y0, StepConfig(h=0.1))
        table = conserve._ProbeTable((2, 4))
        table.add((0.0, 1e-3), batch)
        member = table.member(1e-3)
        for name in ("increment", "stages", "stage_fields"):
            view, whole = getattr(member, name), getattr(batch, name)
            assert np.shares_memory(view, whole)
            assert view.tobytes() == whole[1].tobytes()
        for name in ("iterations", "converged", "stage_residual", "y0", "h"):
            assert getattr(member, name) is getattr(batch, name)


def member_residuals(res, tab, y0, h):
    """Each member's scaled stage-equation residual, from its own stages."""
    F = res.stage_fields
    defect = res.stages - y0 - h * (tab.A @ F)
    return np.abs(defect).max(axis=(-2, -1)) / (1.0 + np.max(np.abs(y0)))


class TestBatchedStep:
    @pytest.mark.parametrize("index,alpha", [(1, 0.0), (1, 1e-3), (2, -0.05)])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_stack_of_one_is_the_single_solve(self, index, alpha, start):
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        q = gauss_quadrature(3)
        single = butcher(q, PerturbationSpec.single(3, index, alpha))
        guess = None
        if start == "warm":
            guess = step(system, make_tableau(3, 2, 2e-3), ic.y0, cfg).stages
        one = step(system, single, ic.y0, cfg, guess)
        stack = step(
            system, make_stack(q, index, [alpha]), ic.y0, cfg,
            None if guess is None else guess[None],
        )
        assert stack.y1.shape == (1, 4) and stack.stages.shape == (1, 3, 4)
        assert stack.converged and one.converged
        if start == "cold":
            # at a power-of-two h the solves are the same; each increment
            # is then its own formula: h (b @ F) for the stack, row s of
            # (h [A; b^T]) @ F for the single tableau
            assert stack.stages[0].tobytes() == one.stages.tobytes()
            assert stack.stage_fields[0].tobytes() == one.stage_fields.tobytes()
            assert stack.iterations == one.iterations
            assert stack.stage_residual == one.stage_residual
            F = one.stage_fields
            assert stack.increment[0].tobytes() == (cfg.h * (single.b @ F)).tobytes()
            K = cfg.h * np.vstack((single.A, single.b))
            assert one.increment.tobytes() == (K @ F)[3].tobytes()
        else:
            # the stack sweeps as the single tableau, then takes its polish
            # sweep: one fixed-point update from the single's returned stages
            polished = ic.y0 + cfg.h * (single.A @ one.stage_fields)
            assert stack.stages[0].tobytes() == polished.tobytes()
            assert stack.stage_fields[0].tobytes() == system.vector_field(polished).tobytes()
            assert stack.iterations == one.iterations + 1

    def test_every_member_meets_the_tolerance(self):
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        values = (0.0, 1e-3, -2e-3)
        batch = make_stack(gauss_quadrature(2), 1, values)
        res = step(system, batch, ic.y0, cfg)
        assert res.converged
        assert isinstance(res.iterations, int) and isinstance(res.converged, bool)
        assert res.y1.shape == (3, 4)
        residuals = member_residuals(res, batch, ic.y0, cfg.h)
        assert np.all(residuals <= STAGE_TOL)
        assert res.stage_residual == residuals.max()
        np.testing.assert_array_equal(res.y1, ic.y0 + res.increment)
        for k, value in enumerate(values):
            alone = step(system, make_tableau(2, 1, value), ic.y0, cfg)
            assert np.max(np.abs(res.y1[k] - alone.y1)) <= 4 * np.finfo(float).eps * 3.0

    def test_stalled_stack_converges_through_batched_newton(self, monkeypatch):
        # the huge-step state of the single-solve test: every member's fixed
        # point stalls, and one Jacobian serves the stack's Newton iteration
        calls = []

        def counted(system, y):
            calls.append(y)
            return fd_jacobian(system, y)

        fd_jacobian = stepper._fd_jacobian
        monkeypatch.setattr(stepper, "_fd_jacobian", counted)
        system, _ = quartic()
        y0 = np.array([float.fromhex(v) for v in (
            "-0x1.02db740dcae52p-1", "0x1.84669c109a497p-1",
            "-0x1.113368088e0fdp+1", "-0x1.ed21089920480p-4",
        )])
        batch = make_stack(gauss_quadrature(3), 2, (0.0, 1e-3, -1e-3))
        cfg = StepConfig(h=1.0)
        res = step(system, batch, y0, cfg)
        assert len(calls) >= 1
        assert res.converged
        assert np.all(member_residuals(res, batch, y0, cfg.h) <= STAGE_TOL)

    def test_singular_member_fails_the_batch_at_the_last_finite_iterate(self):
        # a field singular far from y0; the heavily perturbed member's fixed
        # point diverges into it while the Gauss member's would converge
        def flow(y):
            if np.abs(y).max() > 10.0:
                raise SingularPotentialError("far from the start")
            return harmonic()[0].flow(y)

        toy = HamiltonianSystem(
            name="toy", m=1, energy=lambda y: 0.5 * (y * y).sum(-1), flow=flow,
            energy_increment=lambda y, d: 0.0,
        )
        y0 = np.array([1.0, 0.0])
        cfg = StepConfig(h=1.0)
        q = gauss_quadrature(2)
        assert step(toy, make_stack(q, 1, [0.0]), y0, cfg).converged
        res = step(toy, make_stack(q, 1, [0.0, 8.0]), y0, cfg)
        assert not res.converged
        assert res.iterations < _STALL_WINDOW
        assert res.stages.shape == (2, 2, 2)
        assert np.abs(res.stages).max() <= 10.0
        np.testing.assert_array_equal(
            res.stage_fields, flow(res.stages.reshape(-1, 2)).reshape(2, 2, 2)
        )

    def test_member_with_a_field_that_is_not_finite_ends_the_batch_as_a_singular_one(self):
        # the singular test's batch with a field that returns NaN far from y0
        # instead of raising: the batch ends at the same last finite iterate
        # after the same sweeps, and reports that iterate's residual
        harmonic_flow = harmonic()[0].flow

        def singular_flow(y):
            if np.abs(y).max() > 10.0:
                raise SingularPotentialError("far from the start")
            return harmonic_flow(y)

        def nan_flow(y):
            return np.where(np.abs(y) > 10.0, np.nan, harmonic_flow(y))

        def toy(flow):
            return HamiltonianSystem(
                name="toy", m=1, energy=lambda y: 0.5 * (y * y).sum(-1), flow=flow,
                energy_increment=lambda y, d: 0.0,
            )

        y0 = np.array([1.0, 0.0])
        cfg = StepConfig(h=1.0)
        batch = make_stack(gauss_quadrature(2), 1, [0.0, 8.0])
        singular = step(toy(singular_flow), batch, y0, cfg)
        res = step(toy(nan_flow), batch, y0, cfg)
        assert not res.converged
        assert res.iterations == singular.iterations
        assert res.stages.tobytes() == singular.stages.tobytes()
        assert np.isfinite(res.stage_fields).all()
        np.testing.assert_array_equal(
            res.stage_fields, harmonic_flow(res.stages.reshape(-1, 2)).reshape(2, 2, 2)
        )
        assert res.stage_residual == member_residuals(res, batch, y0, cfg.h).max()


def integrate_plain(system, tab, y0, h, n):
    y = np.asarray(y0, float)
    cfg = StepConfig(h=h)
    for _ in range(n):
        res = step(system, tab, y, cfg)
        assert res.converged
        y = res.y1
    return y


class TestGlobalOrder:
    def test_fixed_perturbation_drops_to_order_two(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2, 1, 1e-3)
        errs = []
        for k in (5, 6, 7):
            y = integrate_plain(system, tab, ic.y0, 2.0**-k, 2**k)
            errs.append(np.linalg.norm(y - kepler_reference(0.6, 1.0)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        for r in ratios:
            assert 3.6 <= r <= 4.6  # order 2s - 2 = 2

    def test_unperturbed_gauss_has_order_four(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        errs = []
        for k in (5, 6, 7):
            y = integrate_plain(system, tab, ic.y0, 2.0**-k, 2**k)
            errs.append(np.linalg.norm(y - kepler_reference(0.6, 1.0)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        for r in ratios:
            assert 15.0 <= r <= 17.0  # order 2s = 4


class TestLocalEnergyDefectOrder:
    def test_unperturbed_defect_order_generic_state(self):
        system, _ = kepler(0.6)
        y0 = kepler_reference(0.6, 0.4)
        g = [
            energy_defect(system, 2, 1, y0, 0.0, StepConfig(h=h))[0]
            for h in (2**-4, 2**-5, 2**-6)
        ]
        # 2^(2s+1) = 32 at a generic state
        assert 25.0 <= g[1] / g[2] <= 39.0

    def test_unperturbed_defect_order_apsidal_state(self):
        # the perihelion start is a reflection-symmetric point of the orbit:
        # odd powers of h cancel and the defect gains one extra order
        system, ic = kepler(0.6)
        g = [
            energy_defect(system, 2, 1, ic.y0, 0.0, StepConfig(h=h))[0]
            for h in (2**-5, 2**-6, 2**-7)
        ]
        for ratio in (g[0] / g[1], g[1] / g[2]):
            assert 55.0 <= ratio <= 72.0  # 2^(2s+2) = 64

    def test_fixed_perturbation_defect_order(self):
        system, _ = kepler(0.6)
        y0 = kepler_reference(0.6, 0.4)
        g = [
            energy_defect(system, 2, 1, y0, 1e-3, StepConfig(h=h))[0]
            for h in (2**-5, 2**-6, 2**-7)
        ]
        for ratio in (g[0] / g[1], g[1] / g[2]):
            assert 7.0 <= ratio <= 9.0  # 2^(2s-1) = 8


class TestStagePredictor:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_gauss_prediction_is_the_collocation_polynomial_one_step_ahead(self, s):
        # y1 + h E F against y0 + h I(1 + c) F, with I the integrated
        # Lagrange basis and y1 = y0 + h I(1) F
        tab = make_tableau(s)
        I = lagrange_integral_coeffs(tab.c)
        ahead = npoly.polyval(1.0 + tab.c, I.T).T - npoly.polyval(1.0, I.T)
        assert np.max(np.abs(stage_predictor(tab) - ahead)) <= 1e-13

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_one_step_of_history_is_a_times_l(self, s):
        # L[i, j] = l_j(1 + c_i), the Lagrange basis fitted on the nodes
        tab = make_tableau(s)
        basis = npoly.polyfit(tab.c, np.eye(s), s - 1)
        L = npoly.polyval(1.0 + tab.c, basis).T
        assert np.max(np.abs(stage_predictor(tab, 1) - tab.A @ L)) <= 1e-13

    @pytest.mark.parametrize("s", [2, 3])
    def test_history_blocks_extrapolate_the_carry_misses(self, s):
        tab = make_tableau(s, s - 1, 0.01)
        AL, A = stage_predictor(tab), tab.A
        blocks = {
            2: [AL + A, -AL],
            5: [AL + 4 * A, -(4 * AL + 6 * A), 6 * AL + 4 * A, -(4 * AL + A), AL],
        }
        for m, expected in blocks.items():
            assert np.max(np.abs(stage_predictor(tab, m) - np.hstack(expected))) <= 1e-14

    @pytest.mark.parametrize("s", [2, 3])
    def test_predicted_stages_are_accurate_to_order_s_plus_1(self, s):
        system, ic = kepler(0.6)
        tab = make_tableau(s)
        E = stage_predictor(tab)
        errors = []
        for h in (2**-6, 2**-7):
            cfg = StepConfig(h=h)
            first = step(system, tab, ic.y0, cfg)
            second = step(system, tab, first.y1, cfg)
            predicted = first.y1 + h * (E @ first.stage_fields)
            errors.append(np.max(np.abs(predicted - second.stages)))
        assert errors[0] / errors[1] == pytest.approx(2 ** (s + 1), rel=0.1)


class TestDenseOutput:
    def setup_method(self):
        self.system, self.ic = kepler(0.6)
        self.q = gauss_quadrature(2)
        self.tab = make_tableau(2)
        self.res = step(self.system, self.tab, self.ic.y0, StepConfig(h=2**-5))

    def test_left_endpoint_exact(self):
        sigma0 = dense_output(self.res, self.tab, 0.0)
        np.testing.assert_array_equal(sigma0, self.ic.y0)

    def test_interpolates_stages(self):
        for i, c in enumerate(self.q.c):
            sigma = dense_output(self.res, self.tab, c)
            assert np.max(np.abs(sigma - self.res.stages[i])) <= 1e-12

    def test_right_endpoint_recovers_update(self):
        sigma1 = dense_output(self.res, self.tab, 1.0)
        assert np.max(np.abs(sigma1 - self.res.y1)) <= 1e-12

    def test_perturbed_interpolation(self):
        alpha = 1e-3
        tab = make_tableau(2, 1, alpha)
        res = step(self.system, tab, self.ic.y0, StepConfig(h=2**-5))
        np.testing.assert_array_equal(dense_output(res, tab, 0.0), self.ic.y0)
        for i, c in enumerate(self.q.c):
            sigma = dense_output(res, tab, c)
            assert np.max(np.abs(sigma - res.stages[i])) <= 1e-12

    def test_tau_outside_unit_interval_rejected(self):
        for tau in (-0.1, 1.1):
            with pytest.raises(ValueError):
                dense_output(self.res, self.tab, tau)

    def test_requires_converged_step(self, monkeypatch):
        monkeypatch.setattr(stepper, "STAGE_TOL", UNREACHABLE_TOL)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 2)
        bad = step(self.system, self.tab, self.ic.y0, StepConfig(h=2**-5))
        with pytest.raises(ValueError):
            dense_output(bad, self.tab, 0.5)


class TestCollocationDefect:
    def test_unperturbed_residuals_small(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5))
        residuals = collocation_defect(res, system, tab)
        assert residuals.shape == (2,)
        assert np.max(residuals) <= 1e-11

    def test_perturbed_residuals_small(self):
        system, ic = kepler(0.6)
        alpha = 1e-3
        tab = make_tableau(2, 1, alpha)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5))
        residuals = collocation_defect(res, system, tab)
        assert np.max(residuals) <= 1e-11

    def test_residual_bound_scales_with_tolerance(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        cfg = StepConfig(h=2**-5)
        res = step(system, tab, ic.y0, cfg)
        residuals = collocation_defect(res, system, tab)
        assert np.max(residuals) <= 10 * STAGE_TOL / abs(cfg.h)

    def test_zero_field_residuals_vanish(self):
        tab = make_tableau(2)
        res = step(CONSTANT_H, tab, np.array([1.0, 2.0]), StepConfig(h=0.3))
        np.testing.assert_array_equal(
            collocation_defect(res, CONSTANT_H, tab), np.zeros(2)
        )
