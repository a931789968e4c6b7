import numpy as np
import pytest

from sympulse import conserve, experiments
from sympulse.conserve import (
    AlphaSearchConfig,
    NoRootError,
    SearchBudgetError,
    StageSolveError,
    energy_defect,
    level_grid,
    solve_alpha,
)
from sympulse.experiments import RunSpec, integrate
from sympulse.problems import harmonic, kepler
from sympulse.stepper import StepConfig, step

H5 = 2.0**-5


class TestAlphaSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "newton"},
            {"g_tol": 0.0},
            {"alpha_tol": -1e-16},
            {"max_g_evals": 2},
            {"bracket_growth": 1.0},
            {"bracket_max": 0.0},
            {"bracket_seed": 0.7, "bracket_max": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AlphaSearchConfig(**kwargs)

    @pytest.mark.parametrize(
        "name",
        ["g_tol", "alpha_tol", "bracket_seed", "bracket_growth", "bracket_max", "secant_warm"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AlphaSearchConfig(**{name: value})

    def test_seed_defaults_to_ten_h_squared(self):
        cfg = AlphaSearchConfig()
        assert cfg.seed(0.01) == pytest.approx(10 * 0.01**2)
        # capped well inside the scan ceiling for large h
        assert cfg.seed(0.5) == pytest.approx(0.125 * cfg.bracket_max)


class TestEnergyDefect:
    def test_harmonic_defect_vanishes_for_any_alpha(self):
        system, ic = harmonic()
        for alpha in (0.0, 0.02, -0.4):
            g, res = energy_defect(system, 2, 1, ic.y0, 0.1, alpha, StepConfig(h=0.1))
            assert res.converged
            assert abs(g) <= 1e-14

    def test_kepler_gauss_defect_magnitude(self):
        system, ic = kepler(0.6)
        g, _ = energy_defect(system, 2, 1, ic.y0, H5, 0.0, StepConfig(h=H5))
        assert 0.0 < abs(g) <= 1e-7

    def test_sign_change_over_documented_range(self):
        # the zero curve lies inside alpha in (0, 4e-3] for moderate h
        system, ic = kepler(0.6)
        g0, _ = energy_defect(system, 2, 1, ic.y0, H5, 0.0, StepConfig(h=H5))
        g1, _ = energy_defect(system, 2, 1, ic.y0, H5, 4e-3, StepConfig(h=H5))
        assert g0 * g1 < 0.0

    def test_stage_failure_raises_with_diagnostics(self):
        system, ic = kepler(0.6)
        with pytest.raises(StageSolveError) as err:
            energy_defect(
                system, 2, 1, ic.y0, H5, 0.0, StepConfig(h=H5, stage_tol=1e-30, max_iters=3)
            )
        assert err.value.result is not None
        assert err.value.alpha == 0.0


class TestSolveAlpha:
    def test_harmonic_is_degenerate(self):
        system, ic = harmonic()
        for strategy in ("bisection", "secant"):
            record = solve_alpha(
                system, 2, 1, ic.y0, 0.1,
                AlphaSearchConfig(strategy=strategy), StepConfig(h=0.1),
            )
            assert record.degenerate
            assert record.alpha_star == 0.0
            assert record.bracket is None

    def test_first_kepler_step_root(self):
        system, ic = kepler(0.6)
        record = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(strategy="bisection"),
            StepConfig(h=H5),
        )
        assert not record.degenerate
        assert record.alpha_star == pytest.approx(7.5214775e-05, rel=1e-5)
        assert record.bracket is not None
        lo, hi = record.bracket
        assert lo <= record.alpha_star <= hi

    def test_root_restores_conservation(self):
        system, ic = kepler(0.6)
        cfg = AlphaSearchConfig(strategy="bisection")
        record = solve_alpha(system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5))
        g, res = energy_defect(
            system, 2, 1, ic.y0, H5, record.alpha_star, StepConfig(h=H5)
        )
        assert res.converged
        assert abs(g) <= 2 * cfg.g_tol * max(1.0, 0.5)

    def test_strategies_agree(self):
        system, ic = kepler(0.6)
        a = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(strategy="bisection"),
            StepConfig(h=H5),
        )
        b = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(strategy="secant"),
            StepConfig(h=H5),
        )
        assert abs(a.alpha_star - b.alpha_star) <= 1e-10
        assert b.g_evals < a.g_evals

    def test_warm_hint_short_circuits_near_root(self):
        system, ic = kepler(0.6)
        cfg = AlphaSearchConfig(strategy="secant")
        first = solve_alpha(system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5))
        again = solve_alpha(
            system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5),
            alpha_hint=first.alpha_star,
        )
        assert again.g_evals <= 2
        assert abs(again.alpha_star - first.alpha_star) <= 1e-8

    def test_deterministic(self):
        system, ic = kepler(0.6)
        records = [
            solve_alpha(
                system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5)
            )
            for _ in range(2)
        ]
        first, again = records
        assert first == again  # every field but the accepted step
        for name in ("y1", "stages", "stage_fields"):
            assert np.array_equal(getattr(first.step, name), getattr(again.step, name))
        assert first.step.iterations == again.step.iterations

    def test_no_root_error(self):
        system, ic = kepler(0.6)
        cfg = AlphaSearchConfig(
            strategy="bisection", bracket_seed=5e-10, bracket_max=1e-9
        )
        with pytest.raises(NoRootError):
            solve_alpha(system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5))

    def test_eval_budget_enforced(self):
        system, ic = kepler(0.6)
        cfg = AlphaSearchConfig(strategy="bisection", max_g_evals=3)
        with pytest.raises(SearchBudgetError):
            solve_alpha(system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5))

    def test_zero_stepsize_rejected(self):
        system, ic = kepler(0.6)
        with pytest.raises(ValueError):
            solve_alpha(system, 2, 1, ic.y0, 0.0, AlphaSearchConfig(), StepConfig(h=0.1))

    def test_bracketed_search_is_cheap_and_sharp(self, monkeypatch):
        # the default search must cost few defect evaluations per step and
        # still land on the same sign-change points as a full dichotomy
        def dichotomy(g, lo, hi, glo, ghi, cfg):
            while hi - lo > cfg.alpha_tol:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                gmid = g(mid)
                if gmid == 0.0:
                    return mid, gmid
                if np.sign(gmid) == np.sign(glo):
                    lo, glo = mid, gmid
                else:
                    hi, ghi = mid, gmid
            return (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)

        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=H5, t_end=2.0, e=0.6)
        assert spec.search.strategy == "bisection"
        fast = integrate(spec)
        monkeypatch.setattr(conserve, "_bracketed_root", dichotomy)
        slow = integrate(spec)

        assert fast.g_evals.mean() <= 12.0
        assert slow.g_evals.mean() >= 30.0
        assert fast.delta / H5**2 == pytest.approx(slow.delta / H5**2, rel=1e-6)

    def test_each_defect_evaluation_is_one_stage_solve(self, monkeypatch):
        # the root's probe is the accepted step: a tuned run solves no stage
        # system outside the search
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(conserve, "step", counted)
        monkeypatch.setattr(experiments, "step", counted)
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=H5, t_end=0.5, e=0.6)
        traj = integrate(spec)
        assert len(calls) == int(traj.g_evals.sum())
        assert traj.g_evals.min() >= 2

    def test_accepted_step_is_the_root_probe(self):
        system, ic = kepler(0.6)
        record = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5)
        )
        assert record.step.converged
        g = float(system.energy(record.step.y1) - system.energy(ic.y0))
        assert g == record.g_residual

    def test_energy_target_offsets_root(self):
        # pinning the target to a slightly different energy shifts the root
        system, ic = kepler(0.6)
        cfg = AlphaSearchConfig(strategy="bisection")
        base = solve_alpha(system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5))
        shifted = solve_alpha(
            system, 2, 1, ic.y0, H5, cfg, StepConfig(h=H5),
            energy_target=-0.5 + 1e-10,
        )
        assert shifted.alpha_star != base.alpha_star
        g, _ = energy_defect(
            system, 2, 1, ic.y0, H5, shifted.alpha_star, StepConfig(h=H5)
        )
        assert abs(g - 1e-10) <= 2 * cfg.g_tol


class TestBracketedRoot:
    def test_flat_defect_is_searched_to_bracket_width(self):
        # |g| drops below any residual tolerance far from the root; only a
        # width-based stop finds the sign change itself
        calls = []

        def g(x):
            calls.append(x)
            return (x - 1.0 / 3.0) ** 3

        root, res = conserve._bracketed_root(
            g, 0.0, 1.0, g(0.0), g(1.0), AlphaSearchConfig()
        )
        assert abs(root - 1.0 / 3.0) <= 1e-15
        assert abs(res) <= 1e-45
        assert all(0.0 <= x <= 1.0 for x in calls)

    def test_returns_inside_bracket_near_boundary(self):
        def g(x):
            return x - 1e-3

        for lo, hi in ((1e-3, 2.0), (-0.5, 1e-3 + 1e-17), (0.0, 1e-3 * (1 + 1e-15))):
            root, _ = conserve._bracketed_root(
                g, lo, hi, g(lo), g(hi), AlphaSearchConfig()
            )
            assert lo <= root <= hi
            assert abs(root - 1e-3) <= 1e-16

    def test_exact_zero_endpoint_costs_nothing(self):
        def g(x):
            raise AssertionError("no probe expected")

        cfg = AlphaSearchConfig()
        assert conserve._bracketed_root(g, 0.0, 1.0, 0.0, 2.0, cfg) == (0.0, 0.0)
        assert conserve._bracketed_root(g, -1.0, 0.5, -3.0, 0.0, cfg) == (0.5, 0.0)

    def test_root_ignores_residual_tolerance(self):
        system, ic = kepler(0.6)
        tight = solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5))
        loose = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(g_tol=1e-6), StepConfig(h=H5)
        )
        assert loose.alpha_star == tight.alpha_star


class TestLevelGrid:
    def test_matches_direct_evaluation(self):
        system, ic = kepler(0.6)
        h_values = [0.1, 0.05]
        alpha_values = [-2e-4, 0.0, 3e-4]
        G, failures = level_grid(
            system, 2, 1, ic.y0, h_values, alpha_values, StepConfig(h=0.1)
        )
        assert failures == []
        assert G.shape == (3, 2)
        for j, h in enumerate(h_values):
            for i, alpha in enumerate(alpha_values):
                direct, _ = energy_defect(
                    system, 2, 1, ic.y0, h, alpha, StepConfig(h=h)
                )
                assert G[i, j] == direct

    def test_defect_shrinks_with_stepsize(self):
        # consistency: g(alpha, h) -> 0 as h -> 0 for every fixed alpha
        system, ic = kepler(0.6)
        h_values = [0.1, 0.05, 0.025, 0.0125]
        alpha_values = [0.0, 1e-3]
        G, _ = level_grid(
            system, 2, 1, ic.y0, h_values, alpha_values, StepConfig(h=0.1)
        )
        for i in range(len(alpha_values)):
            magnitudes = np.abs(G[i])
            assert np.all(np.diff(magnitudes) < 0)

    def test_failed_cells_marked(self):
        system, ic = kepler(0.6)
        G, failures = level_grid(
            system, 2, 1, ic.y0, [0.5], [0.49],
            StepConfig(h=0.5, max_iters=2),
        )
        assert len(failures) == 1
        assert np.isnan(G[0, 0])

    def test_empty_grid_rejected(self):
        system, ic = kepler(0.6)
        with pytest.raises(ValueError):
            level_grid(system, 2, 1, ic.y0, [], [0.0], StepConfig(h=0.1))
