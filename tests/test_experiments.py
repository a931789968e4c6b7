import numpy as np
import pytest

from sympulse.conserve import AlphaSearchConfig, SearchBudgetError
from sympulse.experiments import (
    IntegrationError,
    RunSpec,
    convergence_table,
    energy_defect_order,
    integrate,
    reference_state,
    resolve_perturb_index,
)
from sympulse.problems import kepler_reference
from sympulse.stepper import StepConfig


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
        ],
    )
    def test_non_finite_inputs_rejected(self, kwargs):
        base = {"problem": "kepler", "method": "gauss", "s": 2, "h": 0.1, "t_end": 1.0}
        with pytest.raises(ValueError, match="finite"):
            RunSpec(**{**base, **kwargs})

    def test_perturb_index_defaults(self):
        assert resolve_perturb_index("ep-gauss", 3) == 2
        assert resolve_perturb_index("ep-gauss-type2", 3) == 1
        assert resolve_perturb_index("ep-gauss", 3, 1) == 1


class TestIntegrate:
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
        # one of its own, with the run's solver settings and its own h
        import sympulse.conserve as conserve_mod
        import sympulse.experiments as experiments_mod

        seen = []
        for module in (conserve_mod, experiments_mod):
            original = module.step

            def spy(system, tab, y0, cfg, guess=None, _original=original):
                seen.append(cfg)
                return _original(system, tab, y0, cfg, guess)

            monkeypatch.setattr(module, "step", spy)
        spec = RunSpec(
            problem="quartic", method=method, s=2, h=0.25, t_end=1.03,
            step_cfg=StepConfig(h=0.25, stage_tol=1e-13),
        )
        traj = integrate(spec)
        assert traj.partial_final
        full, last = seen[0], seen[-1]
        assert {id(cfg) for cfg in seen} == {id(full), id(last)}
        assert full.h == 0.25
        assert last.h == pytest.approx(0.03, abs=1e-15)
        assert last.stage_tol == 1e-13

    def test_g_residual_is_the_energy_error_after_each_step(self):
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=2**-5, t_end=2.0, e=0.6)
        traj = integrate(spec)
        assert traj.g_residual.shape == traj.g_evals.shape
        # the search pins each step to H(y_0): its residual at the root is
        # the energy error the step leaves, up to the round-off of H
        ulp = np.spacing(0.5)
        assert np.max(np.abs(traj.g_residual - traj.energy_error[1:])) <= 4 * ulp
        assert np.max(np.abs(traj.g_residual)) <= spec.search.g_tol

    def test_failure_carries_step_context(self):
        spec = RunSpec(
            problem="kepler", method="ep-gauss", s=2, h=0.5, t_end=5.0, e=0.6,
            search=AlphaSearchConfig(bracket_seed=5e-10, bracket_max=1e-9),
        )
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert err.value.step_index == 0
        assert err.value.state.shape == (4,)

    def test_search_budget_carries_step_context(self):
        spec = RunSpec(
            problem="kepler", method="ep-gauss", s=2, h=2**-5, t_end=1.0, e=0.6,
            search=AlphaSearchConfig(max_g_evals=3),
        )
        with pytest.raises(IntegrationError) as err:
            integrate(spec)
        assert isinstance(err.value.__cause__, SearchBudgetError)
        assert err.value.step_index == 0
        assert err.value.time == 0.0
        assert "max_g_evals=3" in str(err.value)


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

    def test_single_row_has_no_order(self):
        rows = convergence_table("harmonic", "gauss", 2, [0.1], 1.0)
        assert len(rows) == 1
        assert rows[0].order is None
        assert rows[0].delta_h == 0.0

    def test_h_list_must_decrease(self):
        with pytest.raises(ValueError):
            convergence_table("harmonic", "gauss", 2, [0.1, 0.2], 1.0)

    def test_explicit_reference_is_used(self):
        rows = convergence_table(
            "kepler", "gauss", 2, [2**-5], 1.0, reference=kepler_reference(0.6, 1.0),
            e=0.6,
        )
        assert rows[0].e_h < 1e-5


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
