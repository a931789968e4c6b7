import dataclasses

import numpy as np
import pytest

from sympulse.conserve import energy_defect
from sympulse.problems import HamiltonianSystem, harmonic, kepler, kepler_reference
from sympulse.stepper import StepConfig, collocation_defect, dense_output, step
from sympulse.tableau import PerturbationSpec, butcher, defect_weights, gauss_quadrature


def make_tableau(s, index=None, alpha=0.0):
    q = gauss_quadrature(s)
    if index is None or alpha == 0.0 and index is None:
        pert = PerturbationSpec.none(s)
    else:
        pert = PerturbationSpec.single(s, index, alpha)
    return butcher(q, pert)


CONSTANT_H = HamiltonianSystem(
    name="constant",
    m=1,
    energy=lambda y: np.zeros(y.shape[:-1]),
    flow=lambda y: np.zeros_like(y),
)


class TestStepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"h": 0.1, "stage_tol": 0.0},
            {"h": 0.1, "max_iters": 0},
            {"h": 0.1, "solver": "newton-krylov"},
            {"h": 0.1, "stage_guess": "previous"},
            {"h": float("nan")},
            {"h": float("inf")},
            {"h": 0.1, "stage_tol": float("nan")},
            {"h": 0.1, "stage_tol": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepConfig(**kwargs)


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

    def test_solvers_agree(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        a = step(system, tab, ic.y0, StepConfig(h=2**-5, solver="fixed_point"))
        b = step(system, tab, ic.y0, StepConfig(h=2**-5, solver="simplified_newton"))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.y1, b.y1, rtol=0, atol=1e-12)

    def test_stage_guess_variants_agree(self):
        system, ic = kepler(0.6)
        tab = make_tableau(3)
        a = step(system, tab, ic.y0, StepConfig(h=2**-5, stage_guess="from_y0"))
        b = step(system, tab, ic.y0, StepConfig(h=2**-5, stage_guess="extrapolated"))
        np.testing.assert_allclose(a.y1, b.y1, rtol=0, atol=1e-12)
        assert b.iterations <= a.iterations

    def test_warm_start_reaches_the_cold_step(self):
        # stages converged at a nearby alpha seed the solve at another one
        system, ic = kepler(0.6)
        cfg = StepConfig(h=2**-5)
        near = step(system, make_tableau(2, 1, 1e-4), ic.y0, cfg)
        tab = make_tableau(2, 1, 3e-4)
        cold = step(system, tab, ic.y0, cfg)
        warm = step(system, tab, ic.y0, cfg, guess=near.stages)
        assert warm.converged
        assert warm.iterations < cold.iterations
        bound = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(ic.y0)))
        assert np.max(np.abs(warm.y1 - cold.y1)) <= bound

    def test_warm_start_takes_one_sweep_past_tolerance(self):
        # a guess that already solves the stage equations still gets one
        # more sweep before the step returns
        tab = make_tableau(2)
        y0 = np.array([0.3, -0.8])
        res = step(CONSTANT_H, tab, y0, StepConfig(h=0.5), guess=np.tile(y0, (2, 1)))
        assert res.converged
        assert res.iterations == 2

    @pytest.mark.parametrize("guess", ["from_y0", "extrapolated"])
    def test_cold_step_makes_one_field_call_per_sweep(self, guess):
        # the first sweep evaluates the initial stages, every later one the
        # update of the sweep before; the converged exit evaluates nothing more
        system, ic = kepler(0.6)
        calls = []

        def counted(y):
            calls.append(1)
            return system.flow(y)

        wrapped = dataclasses.replace(system, flow=counted)
        cfg = StepConfig(h=2**-5, stage_guess=guess)
        res = step(wrapped, make_tableau(2, 1, 1e-3), ic.y0, cfg)
        assert res.converged
        extra = 1 if guess == "extrapolated" else 0  # f(y0) for the extrapolation
        assert len(calls) == res.iterations + extra

    @pytest.mark.parametrize("start", ["cold", "warm", "out_of_budget"])
    def test_stage_residual_is_the_residual_of_the_returned_stages(self, start):
        system, ic = kepler(0.6)
        tab = make_tableau(3, 2, 1e-3)
        cfg = StepConfig(h=2**-5)
        guess = None
        if start == "warm":
            guess = step(system, make_tableau(3, 2, 2e-3), ic.y0, cfg).stages
        elif start == "out_of_budget":
            cfg = StepConfig(h=2**-5, stage_tol=1e-30, max_iters=4)
        res = step(system, tab, ic.y0, cfg, guess)
        assert res.converged == (start != "out_of_budget")
        F = system.vector_field(res.stages)
        fresh = np.max(np.abs(res.stages - ic.y0 - cfg.h * (tab.A @ F)))
        assert res.stage_residual == fresh / (1.0 + np.max(np.abs(ic.y0)))
        np.testing.assert_array_equal(res.stage_fields, F)

    def test_non_convergence_is_flagged_not_raised(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5, stage_tol=1e-30, max_iters=5))
        assert not res.converged
        assert res.iterations == 5
        assert res.stage_residual > 0.0

    def test_stage_equations_satisfied(self):
        system, ic = kepler(0.6)
        tab = make_tableau(3, 2, 1e-3)
        cfg = StepConfig(h=2**-5)
        res = step(system, tab, ic.y0, cfg)
        F = system.vector_field(res.stages)
        residual = res.stages - ic.y0 - cfg.h * (tab.A @ F)
        scale = 1.0 + np.max(np.abs(ic.y0))
        assert np.max(np.abs(residual)) / scale <= cfg.stage_tol
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
        assert np.max(np.abs(back.y1 - ic.y0)) <= 10 * cfg.stage_tol

    def test_huge_step_falls_back_to_newton_and_converges(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        res = step(system, tab, ic.y0, StepConfig(h=0.5))
        assert res.converged


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
            energy_defect(system, 2, 1, y0, h, 0.0, StepConfig(h=h))[0]
            for h in (2**-4, 2**-5, 2**-6)
        ]
        # 2^(2s+1) = 32 at a generic state
        assert 25.0 <= g[1] / g[2] <= 39.0

    def test_unperturbed_defect_order_apsidal_state(self):
        # the perihelion start is a reflection-symmetric point of the orbit:
        # odd powers of h cancel and the defect gains one extra order
        system, ic = kepler(0.6)
        g = [
            energy_defect(system, 2, 1, ic.y0, h, 0.0, StepConfig(h=h))[0]
            for h in (2**-5, 2**-6, 2**-7)
        ]
        for ratio in (g[0] / g[1], g[1] / g[2]):
            assert 55.0 <= ratio <= 72.0  # 2^(2s+2) = 64

    def test_fixed_perturbation_defect_order(self):
        system, _ = kepler(0.6)
        y0 = kepler_reference(0.6, 0.4)
        g = [
            energy_defect(system, 2, 1, y0, h, 1e-3, StepConfig(h=h))[0]
            for h in (2**-5, 2**-6, 2**-7)
        ]
        for ratio in (g[0] / g[1], g[1] / g[2]):
            assert 7.0 <= ratio <= 9.0  # 2^(2s-1) = 8


class TestDenseOutput:
    def setup_method(self):
        self.system, self.ic = kepler(0.6)
        self.q = gauss_quadrature(2)
        self.tab = make_tableau(2)
        self.res = step(self.system, self.tab, self.ic.y0, StepConfig(h=2**-5))

    def test_left_endpoint_exact(self):
        sigma0 = dense_output(self.res, self.tab, None, 0.0)
        np.testing.assert_array_equal(sigma0, self.ic.y0)

    def test_interpolates_stages(self):
        for i, c in enumerate(self.q.c):
            sigma = dense_output(self.res, self.tab, None, c)
            assert np.max(np.abs(sigma - self.res.stages[i])) <= 1e-12

    def test_right_endpoint_recovers_update(self):
        sigma1 = dense_output(self.res, self.tab, None, 1.0)
        assert np.max(np.abs(sigma1 - self.res.y1)) <= 1e-12

    def test_perturbed_interpolation(self):
        alpha = 1e-3
        tab = make_tableau(2, 1, alpha)
        gamma = defect_weights(self.q, 1)
        res = step(self.system, tab, self.ic.y0, StepConfig(h=2**-5))
        np.testing.assert_array_equal(dense_output(res, tab, gamma, 0.0), self.ic.y0)
        for i, c in enumerate(self.q.c):
            sigma = dense_output(res, tab, gamma, c)
            assert np.max(np.abs(sigma - res.stages[i])) <= 1e-12

    def test_tau_outside_unit_interval_rejected(self):
        for tau in (-0.1, 1.1):
            with pytest.raises(ValueError):
                dense_output(self.res, self.tab, None, tau)

    def test_requires_converged_step(self):
        bad = step(self.system, self.tab, self.ic.y0, StepConfig(h=2**-5, stage_tol=1e-30, max_iters=2))
        with pytest.raises(ValueError):
            dense_output(bad, self.tab, None, 0.5)

    def test_multi_entry_perturbation_rejected(self):
        tab = butcher(gauss_quadrature(3), PerturbationSpec(3, ((1, 1e-4), (2, 1e-4))))
        res = step(self.system, tab, self.ic.y0, StepConfig(h=2**-5))
        with pytest.raises(ValueError):
            dense_output(res, tab, None, 0.5)


class TestCollocationDefect:
    def test_unperturbed_residuals_small(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        gamma = defect_weights(gauss_quadrature(2), 1)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5))
        residuals = collocation_defect(res, system, tab, gamma, 0.0)
        assert residuals.shape == (2,)
        assert np.max(residuals) <= 1e-11

    def test_perturbed_residuals_small(self):
        system, ic = kepler(0.6)
        alpha = 1e-3
        tab = make_tableau(2, 1, alpha)
        gamma = defect_weights(gauss_quadrature(2), 1)
        res = step(system, tab, ic.y0, StepConfig(h=2**-5))
        residuals = collocation_defect(res, system, tab, gamma, alpha)
        assert np.max(residuals) <= 1e-11

    def test_residual_bound_scales_with_tolerance(self):
        system, ic = kepler(0.6)
        tab = make_tableau(2)
        gamma = defect_weights(gauss_quadrature(2), 1)
        cfg = StepConfig(h=2**-5)
        res = step(system, tab, ic.y0, cfg)
        residuals = collocation_defect(res, system, tab, gamma, 0.0)
        assert np.max(residuals) <= 10 * cfg.stage_tol / abs(cfg.h)

    def test_zero_field_residuals_vanish(self):
        tab = make_tableau(2)
        gamma = defect_weights(gauss_quadrature(2), 1)
        res = step(CONSTANT_H, tab, np.array([1.0, 2.0]), StepConfig(h=0.3))
        np.testing.assert_array_equal(
            collocation_defect(res, CONSTANT_H, tab, gamma, 0.0), np.zeros(2)
        )
