import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sympulse import experiments, stepper
from sympulse import problems as problems_mod
from sympulse.conserve import NoRootError, StageSolveError
from sympulse.experiments import (
    METHODS,
    IntegrationError,
    RunSpec,
    convergence_table,
    energy_defect_order,
    integrate,
    reference_state,
    resolve_perturb_index,
)
from sympulse.problems import SingularPotentialError, kepler_reference
from sympulse.stepper import StepConfig, stage_predictor, step
from sympulse.tableau import PerturbationSpec, butcher, gauss_quadrature


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(problem="kepler", method="leapfrog", s=2, h=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            RunSpec(problem="kepler", method="gauss", s=2, h=0.1, t_end=0.0)
        with pytest.raises(ValueError):
            RunSpec(problem="kepler", method="gauss", s=2, h=-0.1, t_end=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": float("nan")},
            {"h": float("inf")},
            {"t_end": float("inf")},
            {"t_end": float("nan")},
            {"t0": float("-inf")},
            {"method": "fixed-alpha", "alpha": float("nan")},
            # finite times and stepsize whose step count overflows
            {"h": 1e-300, "t_end": 1e300},
        ],
    )
    def test_non_finite_inputs_rejected(self, kwargs):
        base = {"problem": "kepler", "method": "gauss", "s": 2, "h": 0.1, "t_end": 1.0}
        with pytest.raises(ValueError, match="finite"):
            RunSpec(**{**base, **kwargs})

    @pytest.mark.parametrize("method", ["gauss", "ep-gauss"])
    @pytest.mark.parametrize("span", [1e-12, 4e-10])
    def test_run_without_a_step_rejected(self, method, span):
        # a span of at most 1e-9 h (5e-10 here) has no full step and no partial one
        with pytest.raises(ValueError, match="the run makes no step"):
            RunSpec(problem="kepler", method=method, s=2, h=0.5, t_end=span)
        with pytest.raises(ValueError, match="the run makes no step"):
            RunSpec(problem="quartic", method=method, s=2, h=0.5, t0=1.0, t_end=1.0 + span)

    @pytest.mark.parametrize("search", [None, "bisect", 1e-9])
    def test_search_that_is_not_a_config_rejected(self, search):
        with pytest.raises(ValueError, match="search must be an AlphaSearchConfig"):
            RunSpec("kepler", "ep-gauss", 2, 0.1, 1.0, search=search)

    @pytest.mark.parametrize("method", METHODS)
    def test_perturb_index_checked_for_every_method(self, method):
        base = {"problem": "kepler", "method": method, "s": 2, "h": 0.1, "t_end": 1.0}
        for bad in (0, 2, 7):
            with pytest.raises(ValueError, match="perturbation index"):
                RunSpec(**base, perturb_index=bad)
        # an index in range stands whether or not the method reads it
        assert RunSpec(**base, perturb_index=1).perturb_index == 1

    @pytest.mark.parametrize("method", ["gauss", "ep-gauss", "ep-gauss-type2"])
    @pytest.mark.parametrize("alpha", [0.5, -1e-3, -0.0])
    def test_alpha_only_for_fixed_alpha(self, method, alpha):
        base = {"problem": "kepler", "s": 3, "h": 0.1, "t_end": 1.0}
        with pytest.raises(ValueError, match=f"fixed-alpha only, not {method!r}"):
            RunSpec(**base, method=method, alpha=alpha)
        assert RunSpec(**base, method="fixed-alpha", alpha=alpha).alpha == alpha

    @pytest.mark.parametrize(
        "method, s, perturb_index, r",
        [
            ("gauss", 3, None, 1),
            ("ep-gauss", 3, None, 1),
            ("ep-gauss-type2", 3, None, 2),
            ("fixed-alpha", 4, 1, 3),
        ],
    )
    def test_root_scale(self, method, s, perturb_index, r):
        spec = RunSpec(
            problem="kepler", method=method, s=s, h=0.5, t_end=1.0,
            perturb_index=perturb_index,
        )
        assert spec.root_exponent == r
        assert spec.root_scale == 0.5 ** (2 * r)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"problem": "quartic", "h": 1e300, "t_end": 1e308},
            {"s": 3, "h": 1e200, "t_end": 1e201},
            {"problem": "quartic", "h": 1e-320, "t_end": 1e-318},
            {"problem": "quartic", "method": "gauss", "h": 1e-200, "t_end": 1e-198},
            # r = 2: h^4 underflows where h^2 would not
            {"method": "ep-gauss-type2", "s": 3, "h": 1e-100, "t_end": 1e-98},
            {"method": "fixed-alpha", "s": 3, "perturb_index": 1, "h": 1e80, "t_end": 1e81},
        ],
    )
    def test_root_scale_outside_the_float_range_rejected(self, kwargs):
        base = {"problem": "kepler", "method": "ep-gauss", "s": 2}
        with pytest.raises(ValueError, match=r"root scale h\^\d must be a positive finite"):
            RunSpec(**{**base, **kwargs})

    def test_last_step_too_short_for_its_root_scale_refused_before_a_step(self, monkeypatch):
        # the remainder's h^18 underflows where h^18 does not; the spec is
        # refused before the run's three full steps are taken
        def forbidden(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(experiments, "solve_alpha", forbidden)
        _, remainder, _ = experiments._step_grid(0.0, 3.00000002e-11, 1e-11)
        with pytest.raises(ValueError) as err:
            integrate(RunSpec("kepler", "ep-gauss-type2", 10, 1e-11, 3.00000002e-11))
        message = str(err.value)
        for part in ("t0=0.0", "t_end=3.00000002e-11", "h=1e-11", repr(remainder)):
            assert part in message
        assert "root scale is not a positive finite float" in message
        # the fixed tableaux take the same grid, and a grid without a
        # shortened step is accepted
        RunSpec("kepler", "gauss", 10, 1e-11, 3.00000002e-11)
        RunSpec("kepler", "ep-gauss-type2", 10, 1e-11, 3e-11)

    @pytest.mark.parametrize("h", [1e-150, 1e150])
    def test_root_scale_near_the_ends_of_the_float_range_accepted(self, h):
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=h, t_end=10 * h)
        assert 0.0 < spec.root_scale < float("inf")

    @pytest.mark.parametrize("method", ["gauss", "fixed-alpha", "ep-gauss"])
    @pytest.mark.parametrize("perturb_index", [1.5, 1.0, True])
    def test_perturb_index_that_is_not_an_integer_rejected(self, method, perturb_index):
        # refused, not truncated to index 1
        with pytest.raises(ValueError, match="perturbation index must be an integer"):
            RunSpec("quartic", method, 3, 2**-3, 0.5, perturb_index=perturb_index)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"problem": "nope"}, "unknown problem"),
            ({"problem": "quartic", "e": 0.5},
             "^e only applies to the kepler problem, not 'quartic'$"),
            ({"e": 1.5}, "eccentricity"),
            ({"e": float("nan")}, "eccentricity"),
            ({"y0": (1.0, 0.0, 0.5)}, "y0 must have 4 components"),
            ({"y0": (0.4, 0.0, 0.0, float("nan"))}, "y0 must be finite"),
        ],
        ids=["unknown-problem", "e-not-kepler", "e-above-1", "e-nan", "y0-shape", "y0-nan"],
    )
    def test_problem_inputs_rejected_at_construction(self, kwargs, match):
        base = {"problem": "kepler", "method": "ep-gauss", "s": 2, "h": 0.1, "t_end": 1.0}
        with pytest.raises(ValueError, match=match):
            RunSpec(**{**base, **kwargs})

    @pytest.mark.parametrize(
        "method, s, perturb_index, alpha, expected",
        [
            ("gauss", 3, None, 0.0, PerturbationSpec.none(3)),
            ("gauss", 3, 1, 0.0, PerturbationSpec.none(3)),
            ("fixed-alpha", 3, None, 1e-3, PerturbationSpec(3, 2, 1e-3)),
            ("ep-gauss", 3, None, 0.0, PerturbationSpec(3, 2, 0.0)),
            ("ep-gauss-type2", 3, None, 0.0, PerturbationSpec(3, 1, 0.0)),
            ("ep-gauss", 4, 2, 0.0, PerturbationSpec(4, 2, 0.0)),
        ],
    )
    def test_perturbation_is_the_run_coupling(self, method, s, perturb_index, alpha, expected):
        spec = RunSpec(
            "kepler", method, s, 0.1, 1.0, alpha=alpha, perturb_index=perturb_index
        )
        assert spec.perturbation == expected

    @pytest.mark.parametrize("method", ["gauss", "ep-gauss"])
    def test_numpy_integer_stage_count_runs_as_an_int(self, method):
        spec = RunSpec("kepler", method, np.int64(2), 2**-5, 0.25)
        assert type(spec.s) is int
        plain = integrate(RunSpec("kepler", method, 2, 2**-5, 0.25))
        assert integrate(spec).states.tobytes() == plain.states.tobytes()

    def test_start_state_is_stored_as_a_tuple_of_floats(self):
        # an array y0 made == raise and hash() fail, a list made hash() fail
        y0 = kepler_reference(0.6, 0.4)
        specs = [
            RunSpec("kepler", "ep-gauss", 2, 2**-5, 0.25, y0=v)
            for v in (y0, y0.tolist(), tuple(y0))
        ]
        for spec in specs:
            assert type(spec.y0) is tuple and all(type(v) is float for v in spec.y0)
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(spec) for spec in specs}) == 1
        assert len({integrate(spec).states.tobytes() for spec in specs}) == 1

    def test_single_stage_gauss_needs_no_index(self):
        spec = RunSpec(problem="kepler", method="gauss", s=1, h=0.1, t_end=1.0)
        assert spec.perturbation == PerturbationSpec.none(1)

    def test_perturb_index_defaults(self):
        assert resolve_perturb_index("ep-gauss", 3) == 2
        assert resolve_perturb_index("ep-gauss-type2", 3) == 1
        assert resolve_perturb_index("ep-gauss", 3, 1) == 1


class TestIntegrate:
    @pytest.mark.parametrize(
        "spec, fails",
        [
            # guessed starts overflow before the cold retries converge
            (RunSpec("quartic", "gauss", 3, 1.0, 20.0), False),
            (RunSpec("quartic", "ep-gauss", 3, 5.0, 10.0), True),
        ],
    )
    def test_overflowing_iterates_raise_no_numpy_warning(self, spec, fails):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                integrate(spec)
            except IntegrationError:
                assert fails
            else:
                assert not fails

    def test_harmonic_roots_all_zero(self):
        spec = RunSpec(problem="harmonic", method="ep-gauss", s=2, h=0.1, t_end=10.0)
        traj = integrate(spec)
        np.testing.assert_array_equal(traj.alpha_trace, 0.0)
        assert np.max(np.abs(traj.energy_error)) <= 1e-13
        assert traj.delta == 0.0

    def test_kepler_tuned_run_conserves(self):
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=2**-5, t_end=5.0, e=0.6)
        traj = integrate(spec)
        assert np.max(np.abs(traj.energy_error)) <= 2e-13
        assert np.max(np.abs(traj.invariant_errors["L"])) <= 1e-12
        assert not traj.partial_final
        assert traj.times[0] == 0.0 and traj.times[-1] == 5.0
        assert traj.states.shape == (161, 4)
        # roots straddle zero with the documented magnitude
        assert 1.2e-4 <= traj.delta <= 1.9e-4

    def test_gauss_run_drifts_but_stays_bounded(self):
        spec = RunSpec(problem="kepler", method="gauss", s=2, h=2**-5, t_end=5.0, e=0.6)
        traj = integrate(spec)
        err = np.max(np.abs(traj.energy_error))
        assert 1e-12 < err < 1e-5
        np.testing.assert_array_equal(traj.alpha_trace, 0.0)

    def test_fixed_alpha_method_uses_given_value(self):
        spec = RunSpec(
            problem="kepler", method="fixed-alpha", s=2, h=2**-5, t_end=1.0,
            e=0.6, alpha=1e-3,
        )
        traj = integrate(spec)
        np.testing.assert_array_equal(traj.alpha_trace, 1e-3)
        np.testing.assert_array_equal(traj.g_residual, 0.0)  # no search ran
        assert np.max(np.abs(traj.invariant_errors["L"])) <= 1e-12

    def test_partial_final_step(self):
        spec = RunSpec(problem="harmonic", method="gauss", s=2, h=0.25, t_end=1.03)
        traj = integrate(spec)
        assert traj.partial_final
        assert traj.times.size == 6
        assert traj.times[-1] == pytest.approx(1.03, abs=1e-15)
        assert traj.times[-2] == pytest.approx(1.0, abs=1e-15)
        assert traj.full_step_alphas.size == 4

    @pytest.mark.parametrize("method", ["gauss", "ep-gauss"])
    def test_partial_final_step_has_its_own_step_config(self, monkeypatch, method):
        # the full steps share one StepConfig; the shortened last step gets
        # one of its own, with its own h.  A fixed-tableau run's cold solves
        # (its first and last steps) go through stepper.step, a tuned run's
        # probes through conserve.step
        import sympulse.conserve as conserve_mod

        seen = []
        for module in (conserve_mod, stepper):
            original = module.step

            def spy(system, tab, y0, cfg, guess=None, _original=original):
                seen.append(cfg)
                return _original(system, tab, y0, cfg, guess)

            monkeypatch.setattr(module, "step", spy)
        spec = RunSpec(problem="quartic", method=method, s=2, h=0.25, t_end=1.03)
        traj = integrate(spec)
        assert traj.partial_final
        full, last = seen[0], seen[-1]
        assert {id(cfg) for cfg in seen} == {id(full), id(last)}
        assert full.h == 0.25
        assert last.h == pytest.approx(0.03, abs=1e-15)

    def test_g_residual_is_the_energy_error_after_each_step(self):
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=2**-5, t_end=2.0, e=0.6)
        traj = integrate(spec)
        assert traj.g_residual.shape == traj.g_evals.shape
        # each search conserves the energy of its own start state: its
        # residual at the root is the energy change of the step, up to the
        # round-off of H
        ulp = np.spacing(0.5)
        change = np.diff(traj.energy_error)
        assert np.max(np.abs(traj.g_residual - change)) <= 8 * ulp
        assert np.max(np.abs(traj.g_residual)) <= 1e-13

    def test_failure_carries_step_context(self):
        # the start of step 304 of the s=2 Henon-Heiles run, whose energy
        # defect has no sign change
        y0 = tuple(float.fromhex(v) for v in (
            "0x1.5225b5972f14dp-4", "0x1.9378de1cbec10p-2",
            "0x1.a8fd6e1cd722bp-2", "0x1.0f3ef4bf4c436p-5",
        ))
        spec = RunSpec(
            problem="henon-heiles", method="ep-gauss", s=2, h=0.25,
            t0=76.0, t_end=77.0, y0=y0,
        )
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert isinstance(err.value.__cause__, NoRootError)
        assert err.value.step_index == 0
        assert err.value.time == 76.0
        assert err.value.state.tobytes() == np.array(y0).tobytes()

    def test_fixed_tableau_failure_names_alpha_h_residual_and_sweeps(self, monkeypatch):
        # the message energy_defect gives for a failed probe; no residual
        # meets a negative tolerance, not even an exact fixed point's 0.0
        monkeypatch.setattr(stepper, "STAGE_TOL", -1.0)
        spec = RunSpec(
            problem="kepler", method="fixed-alpha", s=2, h=2**-5, t_end=1.0, e=0.6,
            alpha=1e-3,
        )
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        cause = err.value.__cause__
        assert isinstance(cause, StageSolveError)
        assert cause.alpha == 1e-3
        assert str(cause) == (
            "stage iteration failed at alpha=0.001, h=0.03125 "
            f"(residual {cause.result.stage_residual:.3e} "
            f"after {cause.result.iterations} iterations)"
        )

    def test_rootless_step_ends_the_run_with_no_root_error(self):
        # with s=2 Henon-Heiles meets a step at t=76 whose defect has no sign
        # change; the search gives up there after its fallback scan
        spec = RunSpec(problem="henon-heiles", method="ep-gauss", s=2, h=0.25, t_end=80.0)
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert isinstance(err.value.__cause__, NoRootError)
        assert err.value.step_index == 304


def cold_loop(spec):
    """The run's full steps, each solved from y0 by `stepper.step`: the
    states and sweeps of a fixed-tableau run without the warm start."""
    system, ic = problems_mod.get_problem(spec.problem, e=spec.e)
    tab = butcher(gauss_quadrature(spec.s), spec.perturbation)
    cfg = StepConfig(h=spec.h)
    y, iters = ic.y0, []
    for _ in range(round((spec.t_end - spec.t0) / spec.h)):
        result = step(system, tab, y, cfg)
        assert result.converged
        y = result.y1
        iters.append(result.iterations)
    return y, np.array(iters)


class TestFixedTableauWarmStart:
    def test_quartic_gauss_takes_fewer_sweeps_to_the_cold_end_state(self):
        # the quartic reference's finest-but-one level: 6.0 sweeps per step
        # from y0, about 1.16 from the last five steps' stage fields (a
        # single tableau takes no polish sweep)
        spec = RunSpec(problem="quartic", method="gauss", s=3, h=2**-8, t_end=2.0)
        traj = integrate(spec)
        cold_y, cold_iters = cold_loop(spec)
        assert cold_iters.mean() == 6.0
        assert traj.stage_iters.mean() <= 1.25
        assert np.max(np.abs(traj.final_state - cold_y)) <= 1e-12

    def test_predicted_start_gains_five_powers_of_h(self, monkeypatch):
        # five steps of history predict the stages to O(h^{s+5}), so the
        # residual of the start falls 256-fold per halving for s=3, where
        # the carry plus the last miss gave O(h^{s+2}), 32-fold
        tab = butcher(gauss_quadrature(3), PerturbationSpec.none(3))
        calls, medians = field_calls(monkeypatch), []
        for h in (2**-5, 2**-6, 2**-7):
            calls.clear()
            traj = integrate(RunSpec(problem="quartic", method="gauss", s=3, h=h, t_end=2.0))
            first = []
            for k, solve in enumerate(per_step(calls, traj.stage_iters)[1:], start=1):
                Y, F = solve[0]  # the predicted start and its stage fields
                y0 = traj.states[k]
                defect = (Y - y0) - h * (tab.A @ F)
                first.append(np.abs(defect).max() / (1.0 + np.abs(y0).max()))
            medians.append(np.median(first))
        assert medians[0] / medians[1] >= 128.0
        assert medians[1] / medians[2] >= 128.0

    def test_perturbed_tableau_takes_fewer_sweeps_than_the_cold_start(self):
        spec = RunSpec(
            problem="kepler", method="fixed-alpha", s=2, h=2**-5, t_end=10.0,
            e=0.6, alpha=0.01,
        )
        traj = integrate(spec)
        cold_y, cold_iters = cold_loop(spec)
        assert traj.stage_iters.mean() < cold_iters.mean()
        assert np.max(np.abs(traj.final_state - cold_y)) <= 1e-12

    def test_first_and_partial_steps_start_cold(self, monkeypatch):
        # every stage solve, cold through stepper.step or predicted, calls
        # the field once per sweep when no predicted start fails
        calls = field_calls(monkeypatch)
        spec = RunSpec(problem="quartic", method="gauss", s=3, h=0.25, t_end=2.03)
        traj = integrate(spec)
        assert traj.partial_final
        assert traj.times[-1] == pytest.approx(2.03, abs=1e-15)
        solves = per_step(calls, traj.stage_iters)
        assert len(solves) == 9
        for k in (0, 8):
            start, _ = solves[k][0]
            np.testing.assert_array_equal(start, np.broadcast_to(traj.states[k], start.shape))
        # full step k starts from the stages y0 + Z, with the increments Z
        # that the stage fields of the last min(k, 5) full steps, newest
        # first, predict
        tab = butcher(gauss_quadrature(3), PerturbationSpec.none(3))
        stage_fields = [solve[-1][1] for solve in solves]
        for k in range(1, 8):
            m = min(k, 5)
            fields = np.concatenate(stage_fields[k - 1 :: -1][:m])
            Z = (spec.h * stage_predictor(tab, m)) @ fields
            np.testing.assert_array_equal(solves[k][0][0], traj.states[k] + Z)

    def test_step_whose_predicted_start_fails_is_solved_from_y0(self, monkeypatch):
        # at h=0.6 some predicted starts land outside the fixed point's
        # basin; those steps are solved again from y0 and count that solve
        calls = []  # (predicted start, converged, sweeps) of each sweep loop

        def spy(system, A, h, y0, Y0, Y, Z, F, polish, _original=stepper._sweeps):
            _, _, _, res, sweeps = out = _original(system, A, h, y0, Y0, Y, Z, F, polish)
            calls.append((Y is not Y0, res <= stepper.STAGE_TOL, sweeps))
            return out

        monkeypatch.setattr(stepper, "_sweeps", spy)
        traj = integrate(RunSpec(problem="quartic", method="gauss", s=2, h=0.6, t_end=20.0))
        assert traj.times[-1] == 20.0
        retried = [i for i, (_, converged, _) in enumerate(calls) if not converged]
        assert retried
        for i in retried:
            assert calls[i][0]
            assert not calls[i + 1][0] and calls[i + 1][1]
        # a predicted start that meets STAGE_TOL at its first check is
        # accepted without the sweep loop, after one sweep; every other
        # step is accepted from a loop that took more
        accepted = [sweeps for i, (_, _, sweeps) in enumerate(calls) if i not in retried]
        np.testing.assert_array_equal(traj.stage_iters[traj.stage_iters > 1], accepted)
        assert (traj.stage_iters == 1).sum() + len(accepted) == traj.stage_iters.size


def field_calls(monkeypatch):
    """The (stages, stage fields) of every vector-field call that the
    runs after it make, in order, recorded by wrapping the flow of each
    problem that `integrate` builds."""
    calls = []

    def get_problem(*args, _original=problems_mod.get_problem, **kwargs):
        system, ic = _original(*args, **kwargs)

        def recorded(y):
            calls.append((y.copy(), system.flow(y)))
            return calls[-1][1]

        return dataclasses.replace(system, flow=recorded), ic

    monkeypatch.setattr(problems_mod, "get_problem", get_problem)
    return calls


def per_step(calls, stage_iters):
    """`field_calls` split into the calls of each step, a step of n sweeps
    taking n calls (true when no step falls back to Newton or is solved
    twice)."""
    assert len(calls) == stage_iters.sum()
    ends = np.cumsum(stage_iters)
    return [calls[end - n : end] for n, end in zip(stage_iters, ends)]


def step_loop(spec):
    """A fixed-tableau run as a loop of `stepper.step` calls, each full step
    after the first started from the stages y0 + (h E) @ W that the stage
    fields W of the last min(k, 5) full steps predict, formed as
    `stepper.fixed_run` forms them, and solved once more from y0 if that
    start fails: the states, the sweeps of each accepted solve and the
    number of retries."""
    system, ic = problems_mod.get_problem(spec.problem, e=spec.e)
    tab = butcher(gauss_quadrature(spec.s), spec.perturbation)
    n_full, remainder, partial = experiments._step_grid(spec.t0, spec.t_end, spec.h)
    full_cfg, last_cfg = StepConfig(h=spec.h), StepConfig(h=remainder) if partial else None
    y, states, iters, fields, retries = ic.y0, [ic.y0], [], [], 0
    for k in range(n_full + partial):
        cfg = full_cfg if k < n_full else last_cfg
        guess = None
        if 0 < k < n_full:
            m = min(k, 5)
            guess = y + (spec.h * stage_predictor(tab, m)) @ np.concatenate(fields[::-1][:m])
        result = step(system, tab, y, cfg, guess)
        if guess is not None and not result.converged:
            retries += 1
            result = step(system, tab, y, cfg)
        assert result.converged
        fields.append(result.stage_fields)
        y = result.y1
        states.append(y)
        iters.append(result.iterations)
    return np.array(states), np.array(iters), retries


class TestFixedRun:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # multi-sweep steps
            {"problem": "quartic", "method": "gauss", "s": 3, "h": 2**-8, "t_end": 2.0},
            # a perturbed tableau and a shortened last step
            {"problem": "kepler", "method": "fixed-alpha", "s": 2, "h": 2**-5, "t_end": 1.03,
             "e": 0.6, "alpha": 1e-3},
            # predicted starts that fail and are solved again from y0
            {"problem": "quartic", "method": "gauss", "s": 2, "h": 0.6, "t_end": 20.0},
            # a step that is not a power of two, where (h E) @ W and
            # h (E @ W) round apart and the states show which start was used
            {"problem": "kepler", "method": "fixed-alpha", "s": 2, "h": 0.03, "t_end": 1.0,
             "e": 0.6, "alpha": 1e-3},
        ],
        ids=["quartic-multi-sweep", "kepler-partial", "quartic-retries", "kepler-start-rounding"],
    )
    def test_run_is_byte_identical_to_a_loop_of_steps(self, kwargs):
        spec = RunSpec(**kwargs)
        states, iters, retries = step_loop(spec)
        traj = integrate(spec)
        assert traj.states.tobytes() == states.tobytes()
        np.testing.assert_array_equal(traj.stage_iters, iters)
        # each case exercises what it is there for
        if spec.h == 2**-8:
            assert iters[1:].max() > 1
        if spec.method == "fixed-alpha":
            assert traj.partial_final
        if spec.h == 0.6:
            assert retries > 0

    def test_field_ring_that_wraps_on_every_step_keeps_the_run(self, monkeypatch):
        # a ring of _STAGE_HISTORY steps moves its newest steps back before
        # every write from the sixth step on, retried steps included
        monkeypatch.setattr(stepper, "_FIELD_RING", stepper._STAGE_HISTORY)
        spec = RunSpec(problem="quartic", method="gauss", s=2, h=0.6, t_end=20.0)
        states, iters, retries = step_loop(spec)
        traj = integrate(spec)
        assert retries > 0
        assert traj.states.tobytes() == states.tobytes()
        np.testing.assert_array_equal(traj.stage_iters, iters)

    def test_predictors_are_read_only_and_shared_across_runs(self, monkeypatch):
        built = []

        def counted(tab, history=1, _original=stepper.stage_predictor):
            built.append(history)
            return _original(tab, history)

        monkeypatch.setattr(stepper, "stage_predictor", counted)
        stepper._fixed_predictors.cache_clear()
        spec = RunSpec("kepler", "fixed-alpha", 2, 2**-5, 0.5, e=0.6, alpha=2e-3)
        first = integrate(spec)
        second = integrate(dataclasses.replace(spec, t_end=1.0))
        assert built == [1, 2, 3, 4, 5]
        assert second.states[: first.states.shape[0]].tobytes() == first.states.tobytes()
        predictors = stepper._fixed_predictors(spec.perturbation)
        assert stepper._fixed_predictors(spec.perturbation) is predictors
        tab = butcher(gauss_quadrature(2), spec.perturbation)
        for m, E in enumerate(predictors, start=1):
            assert not E.flags.writeable
            np.testing.assert_array_equal(E, stepper.stage_predictor(tab, m))
            with pytest.raises(ValueError, match="read-only"):
                E[0, 0] = 0.0


class TestEnergyBookkeeping:
    @pytest.mark.parametrize("method", METHODS)
    def test_singular_start_fails_in_step_zero(self, method):
        # at e = 1 - 1e-10 the perihelion lies inside the singular radius 1e-8
        spec = RunSpec(
            "kepler", method, 2, 2**-5, 1.0, e=0.9999999999,
            alpha=1e-3 if method == "fixed-alpha" else 0.0,
        )
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert isinstance(err.value.__cause__, SingularPotentialError)
        assert err.value.step_index == 0
        assert err.value.time == 0.0
        assert str(err.value).startswith("step 0 at t=0.0 failed: ")
        _, ic = problems_mod.get_problem("kepler", e=0.9999999999)
        assert err.value.state.tobytes() == ic.y0.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"problem": "kepler", "method": "ep-gauss", "s": 2, "h": 2**-5, "t_end": 5.0, "e": 0.6},
            {"problem": "quartic", "method": "gauss", "s": 3, "h": 2**-5, "t_end": 2.0},
        ],
    )
    def test_errors_over_all_states_equal_the_per_state_ones(self, kwargs):
        traj = integrate(RunSpec(**kwargs))
        system, _ = problems_mod.get_problem(kwargs["problem"], e=kwargs.get("e"))
        h0 = float(system.energy(traj.states[0]))
        np.testing.assert_array_equal(
            traj.energy_error, [float(system.energy(y)) - h0 for y in traj.states]
        )
        (inv,) = system.quadratic_invariants
        l0 = float(inv.fn(traj.states[0]))
        np.testing.assert_array_equal(
            traj.invariant_errors["L"], [float(inv.fn(y)) - l0 for y in traj.states]
        )

    def test_singular_end_state_carries_step_context(self, monkeypatch):
        # the energy raises at the end state of step 6 only; the run reports
        # that step with its start time and start state
        spec = RunSpec(problem="harmonic", method="gauss", s=2, h=0.25, t_end=3.0)
        states = integrate(spec).states
        singular = states[7]
        original = problems_mod.get_problem

        def get_problem(*args, **kwargs):
            system, ic = original(*args, **kwargs)

            def energy(y):
                if (np.atleast_2d(y) == singular).all(axis=-1).any():
                    raise SingularPotentialError("energy evaluated at the marked state")
                return system.energy(y)

            return dataclasses.replace(system, energy=energy), ic

        monkeypatch.setattr(problems_mod, "get_problem", get_problem)
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert isinstance(err.value.__cause__, SingularPotentialError)
        assert err.value.step_index == 6
        assert err.value.time == 1.5
        assert type(err.value.time) is float
        assert "step 6 at t=1.5 ended at a singular state" in str(err.value)
        assert err.value.state.tobytes() == states[6].tobytes()


class TestReferenceState:
    def test_kepler_is_exact(self):
        np.testing.assert_array_equal(
            reference_state("kepler", 50.0, 2**-7, e=0.6), kepler_reference(0.6, 50.0)
        )

    def test_fine_step_reference_consistent(self):
        ref = reference_state("harmonic", 2.0, 0.125)
        exact = np.array([np.cos(2.0), -np.sin(2.0)])
        assert np.max(np.abs(ref - exact)) <= 1e-11
        # cached: identical object on repeat lookup
        assert reference_state("harmonic", 2.0, 0.125) is ref

    def test_cached_reference_is_a_read_only_copy(self):
        ref = reference_state("quartic", 2.0, 2**-5)
        before = ref.copy()
        with pytest.raises(ValueError, match="read-only"):
            ref[0] = 99.0
        np.testing.assert_array_equal(reference_state("quartic", 2.0, 2**-5), before)
        # the end state alone, not a view of the finer run's trajectory
        assert ref.shape == (4,) and ref.base is None

    @pytest.mark.parametrize(
        "gaps,levels",
        [
            # the loop stops once a gap over 2^6 - 1 is at most 1e-12
            ((1e-11,), 2),
            ((7e-11, 6e-11), 3),
            ((6.4e-11, 1e-13), 3),
        ],
    )
    def test_step_doubling_stops_on_the_richardson_estimate(self, monkeypatch, gaps, levels):
        # a fake integrate whose end states at consecutive halvings differ by
        # the prescribed gaps
        calls = []

        def fake_integrate(spec):
            k = len(calls)
            calls.append(spec.h)
            state = np.full(2, sum(gaps[:k]))
            return SimpleNamespace(final_state=state)

        monkeypatch.setattr(experiments, "integrate", fake_integrate)
        experiments._fine_reference_cached.cache_clear()
        try:
            ref = reference_state("harmonic", 1.0, 0.5)
        finally:
            experiments._fine_reference_cached.cache_clear()
        assert calls == [0.5 / 8 / 2**k for k in range(levels)]
        assert ref[0] == sum(gaps[: levels - 1])

    def test_step_doubling_that_never_settles_raises(self, monkeypatch):
        calls = []

        def fake_integrate(spec):
            calls.append(spec.h)
            return SimpleNamespace(final_state=np.full(2, 1e-10 * len(calls)))

        monkeypatch.setattr(experiments, "integrate", fake_integrate)
        experiments._fine_reference_cached.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="did not settle"):
                reference_state("harmonic", 1.0, 0.5)
        finally:
            experiments._fine_reference_cached.cache_clear()
        assert len(calls) == 6


class TestConvergenceTable:
    def test_kepler_short_interval_orders(self):
        rows = convergence_table(
            "kepler", "ep-gauss", 2, [2**-4, 2**-5, 2**-6], 2.0, e=0.6
        )
        assert rows[0].order is None
        for row in rows[1:]:
            assert row.order == pytest.approx(4.0, abs=0.6)
        for row in rows:
            assert row.delta_scaled == pytest.approx(row.delta_h / row.h**2, rel=1e-12)

    def test_type2_scaling_exponent(self):
        rows = convergence_table(
            "quartic", "ep-gauss-type2", 3, [2**-3, 2**-4], 2.0
        )
        for row in rows:
            assert row.delta_scaled == pytest.approx(row.delta_h / row.h**4, rel=1e-12)

    @pytest.mark.parametrize("perturb_index", [1, 2])
    def test_fixed_alpha_quartic_has_order_twice_the_coupling_index(self, perturb_index):
        # a fixed alpha on coupling i leaves order 2i: the abstract's 2s - 2
        # on the last coupling of s = 3, order 2 on the first
        rows = convergence_table(
            "quartic", "fixed-alpha", 3, [2.0**-k for k in range(2, 7)], 5.0,
            alpha=0.05, perturb_index=perturb_index,
        )
        for row in rows[-2:]:
            assert row.order == pytest.approx(2 * perturb_index, abs=0.1)

    def test_single_row_has_no_order(self):
        rows = convergence_table("harmonic", "gauss", 2, [0.1], 1.0)
        assert len(rows) == 1
        assert rows[0].order is None
        assert rows[0].delta_h == 0.0

    def test_h_list_must_decrease(self):
        with pytest.raises(ValueError):
            convergence_table("harmonic", "gauss", 2, [0.1, 0.2], 1.0)

    @pytest.mark.parametrize(
        "s, perturb_index, match",
        [(1, None, "perturbation index"), (3, 7, "perturbation index"),
         (0, None, "stage count")],
    )
    def test_bad_tableau_fails_before_the_reference(
        self, monkeypatch, s, perturb_index, match
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("reference computed before the inputs were checked")

        monkeypatch.setattr(experiments, "reference_state", forbidden)
        with pytest.raises(ValueError, match=match):
            convergence_table(
                "quartic", "ep-gauss", s, [2**-1, 2**-2, 2**-3], 50.0,
                perturb_index=perturb_index,
            )

    @pytest.mark.parametrize(
        "fields, match",
        [({"y0": (1.2, 0.0, 0.3)}, "y0 must have 4"),
         ({"e": 0.5}, "only applies to the kepler problem")],
    )
    def test_bad_problem_inputs_fail_before_the_reference(self, monkeypatch, fields, match):
        def forbidden(*args, **kwargs):
            raise AssertionError("reference computed before the inputs were checked")

        monkeypatch.setattr(experiments, "reference_state", forbidden)
        with pytest.raises(ValueError, match=match):
            convergence_table("quartic", "ep-gauss", 3, [2**-1, 2**-2], 50.0, **fields)

    @pytest.mark.parametrize(
        "problem, method", [("kepler", "ep-gauss"), ("quartic", "gauss")]
    )
    def test_error_is_measured_after_t_end_minus_t0(self, problem, method):
        # the problems are autonomous: starting at t0=1 and stopping at 2 is
        # the run from 0 to 1, against the exact (Kepler) or fine-step
        # (quartic) reference alike
        h_list = [2**-3, 2**-4]
        late = convergence_table(problem, method, 2, h_list, 2.0, t0=1.0)
        early = convergence_table(problem, method, 2, h_list, 1.0)
        assert late == early
        assert late[-1].e_h < 1e-3

    @pytest.mark.parametrize("keyword", ["max_iters", "stage_tol", "reference"])
    def test_keywords_are_run_spec_fields(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            convergence_table("harmonic", "gauss", 2, [0.1], 1.0, **{keyword: 10})

    def test_h_list_must_not_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            convergence_table("harmonic", "gauss", 2, [], 1.0)


class TestEnergyDefectOrder:
    def test_harmonic_is_degenerate(self):
        report = energy_defect_order("harmonic", 2, [0.1, 0.05, 0.025])
        assert report.degenerate
        assert report.slope_zero is None and report.slope_fixed is None

    def test_kepler_slopes_at_generic_state(self):
        y0 = tuple(kepler_reference(0.6, 0.4))
        report = energy_defect_order(
            "kepler", 2, [2**-5, 2**-6, 2**-7, 2**-8], alpha=1e-3, e=0.6, y0=y0
        )
        assert report.slope_zero == pytest.approx(5.0, abs=0.25)
        assert report.slope_fixed == pytest.approx(3.0, abs=0.25)
        assert not report.degenerate

    def test_needs_three_stepsizes(self):
        with pytest.raises(ValueError):
            energy_defect_order("kepler", 2, [0.1, 0.05])

    @pytest.mark.parametrize(
        "h_list",
        [[-0.1, -0.05, -0.025], [0.1, 0.05, 0.0], [0.1, 0.05, math.nan],
         [0.1, 0.1, 0.1], [0.1, 0.05, 0.1]],
    )
    def test_stepsizes_must_be_positive_and_distinct(self, h_list):
        # negative stepsizes ended in LAPACK errors, equal ones in a RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and distinct"):
                energy_defect_order("kepler", 2, h_list)

    def test_one_stage_is_refused_by_its_stage_count(self):
        # a 1-stage tableau has no coupling to perturb
        with pytest.raises(ValueError, match="needs s >= 2, got s=1"):
            energy_defect_order("kepler", 1, [0.1, 0.05, 0.025])

    def test_fits_only_the_last_coupling(self):
        with pytest.raises(TypeError):
            energy_defect_order("kepler", 3, [0.1, 0.05, 0.025], perturb_index=1)


class TestPinnedEnergy:
    def test_tuned_kepler_error_grows_linearly_with_a_smaller_constant(self):
        # Kepler's frequency depends on H alone, so pinning H removes the
        # frequency error behind Gauss's phase drift: both errors grow
        # linearly in t, the tuned one from a constant about 12 times smaller
        error = {}
        for method in ("gauss", "ep-gauss"):
            for periods in (10, 20):
                t = 2 * math.pi * periods
                run = integrate(RunSpec("kepler", method, 2, 2**-4, t, e=0.6))
                error[method, periods] = np.linalg.norm(
                    run.final_state - kepler_reference(0.6, t)
                )
        for method in ("gauss", "ep-gauss"):
            assert error[method, 20] / error[method, 10] == pytest.approx(2.0, rel=0.15)
        for periods in (10, 20):
            assert error["gauss", periods] >= 5 * error["ep-gauss", periods]
