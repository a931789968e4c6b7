import dataclasses
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sympulse import conserve, experiments, stepper
from sympulse.conserve import (
    AlphaSearchConfig,
    NoRootError,
    StageSolveError,
    energy_defect,
    level_grid,
    solve_alpha,
)
from sympulse.experiments import RunSpec, integrate
from sympulse.problems import harmonic, henon_heiles, kepler, kepler_reference, quartic
from sympulse.stepper import StepConfig, step
from sympulse.tableau import (
    PerturbationSpec,
    affine_parts,
    butcher,
    gauss_quadrature,
    legendre_basis,
)

H5 = 2.0**-5
# the start of step 304 of the Henon-Heiles run (ep-gauss, s=2, h=0.25):
# its energy defect has no sign change for |alpha| <= 0.5
ROOTLESS_HENON = (
    "0x1.5225b5972f14dp-4", "0x1.9378de1cbec10p-2",
    "0x1.a8fd6e1cd722bp-2", "0x1.0f3ef4bf4c436p-5",
)


class TestAlphaSearchConfig:
    def test_has_no_setting(self):
        # the stop width is the constant ALPHA_TOL h^{2r}
        assert dataclasses.fields(AlphaSearchConfig) == ()
        assert conserve.ALPHA_TOL == 1e-9
        with pytest.raises(TypeError):
            AlphaSearchConfig(alpha_tol=1e-6)

    def test_seed_defaults_to_ten_h_squared(self):
        assert conserve._seed(conserve.root_scale(0.01, 1)) == pytest.approx(10 * 0.01**2)
        assert conserve._seed(conserve.root_scale(0.25, 2)) == pytest.approx(10 * 0.25**4)
        # capped well inside the scan ceiling for large h
        assert conserve._seed(conserve.root_scale(0.5, 1)) == 0.0625 == conserve._BRACKET_MAX / 8


class TestEnergyDefect:
    def test_harmonic_defect_vanishes_for_any_alpha(self):
        system, ic = harmonic()
        for alpha in (0.0, 0.02, -0.4):
            g, res = energy_defect(system, 2, 1, ic.y0, alpha, StepConfig(h=0.1))
            assert res.converged
            assert abs(g) <= 1e-14

    def test_kepler_gauss_defect_magnitude(self):
        system, ic = kepler(0.6)
        g, _ = energy_defect(system, 2, 1, ic.y0, 0.0, StepConfig(h=H5))
        assert 0.0 < abs(g) <= 1e-7

    def test_sign_change_over_documented_range(self):
        # the zero curve lies inside alpha in (0, 4e-3] for moderate h
        system, ic = kepler(0.6)
        g0, _ = energy_defect(system, 2, 1, ic.y0, 0.0, StepConfig(h=H5))
        g1, _ = energy_defect(system, 2, 1, ic.y0, 4e-3, StepConfig(h=H5))
        assert g0 * g1 < 0.0

    def test_single_sign_change_at_a_flat_quartic_step(self):
        # step 1587 of the quartic run (s=3, index 2, h=2^-5): the defect's
        # slope is ~6e-11 per unit alpha, so one ulp of H spans a quarter of
        # the root; the increment form stays monotone across it
        system, _ = quartic()
        y = np.array([float.fromhex(v) for v in (
            "0x1.253475a6a393ap+0", "-0x1.8855a9879d611p-2",
            "0x1.0b4d1cd68c5bep-1", "0x1.4acc3bfa68ea4p+0",
        )])
        alphas = np.linspace(3.0625e-5 - 1.5e-5, 3.0625e-5 + 1.5e-5, 13)
        g = np.array([
            energy_defect(system, 3, 2, y, a, StepConfig(h=H5))[0] for a in alphas
        ])
        steps = np.diff(g)
        assert np.all(steps > 0) or np.all(steps < 0)
        assert np.count_nonzero(np.diff(np.sign(g))) == 1

    def test_stage_failure_raises_with_diagnostics(self, monkeypatch):
        system, ic = kepler(0.6)
        # no residual meets a negative tolerance, not even an exact fixed point's 0.0
        monkeypatch.setattr(stepper, "STAGE_TOL", -1.0)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 3)
        with pytest.raises(StageSolveError) as err:
            energy_defect(system, 2, 1, ic.y0, 0.0, StepConfig(h=H5))
        assert err.value.result is not None
        assert err.value.alpha == 0.0


class TestSolveAlpha:
    @pytest.mark.parametrize(
        "make, s, index, h",
        [(lambda: kepler(0.6), 2, 1, H5), (quartic, 3, 2, H5),
         (henon_heiles, 3, 2, 0.25), (harmonic, 2, 1, 0.1)],
        ids=["kepler", "quartic", "henon_heiles", "harmonic"],
    )
    def test_tuple_list_and_array_start_states_give_the_same_record(self, make, s, index, h):
        system, ic = make()
        records = [
            solve_alpha(system, s, index, y0, h, AlphaSearchConfig(), StepConfig(h=h))
            for y0 in (ic.y0, tuple(ic.y0.tolist()), ic.y0.tolist())
        ]
        for record in records:
            assert record.alpha_star == records[0].alpha_star
            assert record.g_evals == records[0].g_evals
            assert record.step.y1.tobytes() == records[0].step.y1.tobytes()

    def test_harmonic_is_degenerate(self):
        system, ic = harmonic()
        record = solve_alpha(
            system, 2, 1, ic.y0, 0.1, AlphaSearchConfig(), StepConfig(h=0.1)
        )
        assert record.degenerate
        assert record.alpha_star == 0.0
        assert record.bracket is None
        assert np.isnan(record.slope)

    def test_first_kepler_step_root(self):
        system, ic = kepler(0.6)
        record = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5)
        )
        assert not record.degenerate
        assert record.alpha_star == pytest.approx(7.5214775e-05, rel=1e-5)
        assert record.bracket is not None
        lo, hi = record.bracket
        assert lo <= record.alpha_star <= hi

    def test_slope_matches_a_central_difference_at_the_root(self):
        system, ic = kepler(0.6)
        cfg = StepConfig(h=H5)
        record = solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), cfg)
        d = 1e-6
        gp, gm = (
            energy_defect(system, 2, 1, ic.y0, record.alpha_star + x, cfg)[0]
            for x in (d, -d)
        )
        central = (gp - gm) / (2 * d)
        assert np.sign(record.slope) == np.sign(central)
        assert record.slope == pytest.approx(central, rel=1e-2)

    def test_slope_stands_above_the_noise_at_a_flat_quartic_step(self):
        # step 1587 of the quartic run (s=3, index 2, h=2^-5): the slope is
        # ~6e-11 per unit alpha and the defect's noise ~5e-16, so a secant
        # across a narrow bracket is noise; the record's slope must agree
        # with a least-squares fit over 17 probes around the root
        system, _ = quartic()
        y = np.array([float.fromhex(v) for v in (
            "0x1.253475a6a390ep+0", "-0x1.8855a9879d76ep-2",
            "0x1.0b4d1cd68ce0ap-1", "0x1.4acc3bfa68d40p+0",
        )])
        cfg = StepConfig(h=H5)
        record = solve_alpha(system, 3, 2, y, H5, AlphaSearchConfig(), cfg)
        alphas = np.linspace(record.alpha_star - 1.5e-5, record.alpha_star + 1.5e-5, 17)
        g = [energy_defect(system, 3, 2, y, a, cfg)[0] for a in alphas]
        fit = np.polyfit(alphas, g, 1)[0]
        assert record.slope == pytest.approx(fit, rel=0.2)

    def test_later_probes_start_on_the_line_through_the_two_nearest(self, monkeypatch):
        # the first round ({0, p}) starts from y0; every member of every
        # later round starts from the stages extrapolated linearly in alpha
        # through the two converged probes of earlier rounds nearest to it
        rounds = []
        starts = conserve._ProbeTable.starts

        def recorded_starts(table, alphas):
            guess = starts(table, alphas)
            rounds.append([tuple(alphas), guess, None])
            return guess

        def recorded_step(system, tableau, y0, cfg, guess=None):
            result = step(system, tableau, y0, cfg, guess)
            assert guess is rounds[-1][1]
            rounds[-1][2] = result.stages
            return result

        monkeypatch.setattr(conserve._ProbeTable, "starts", recorded_starts)
        monkeypatch.setattr(conserve, "step", recorded_step)
        system, ic = kepler(0.6)
        solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5))
        assert [len(alphas) for alphas, _, _ in rounds] == [2, 2, 3]
        assert rounds[0][0][0] == 0.0 and rounds[0][1] is None
        for k, (alphas, guess, _) in enumerate(rounds[1:], start=1):
            converged = [
                (a, stages[i]) for prior, _, stages in rounds[:k] for i, a in enumerate(prior)
            ]
            for alpha, start in zip(alphas, guess):
                (a1, y1), (a2, y2) = sorted(converged, key=lambda p: abs(p[0] - alpha))[:2]
                np.testing.assert_array_equal(start, y1 + (alpha - a1) / (a2 - a1) * (y2 - y1))

    def test_root_restores_conservation(self):
        system, ic = kepler(0.6)
        record = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5)
        )
        g, res = energy_defect(
            system, 2, 1, ic.y0, record.alpha_star, StepConfig(h=H5)
        )
        assert res.converged
        assert abs(g) <= 2 * 1e-13 * max(1.0, 0.5)

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
        # step 304 of Henon-Heiles (s=2, index 1, h=0.25): the defect keeps
        # its sign for every |alpha| <= 0.5; the message carries the state in
        # full precision, so the failing step can be rebuilt from it
        system, _ = henon_heiles()
        y0 = np.array([float.fromhex(v) for v in ROOTLESS_HENON])
        with pytest.raises(NoRootError) as err:
            solve_alpha(system, 2, 1, y0, 0.25, AlphaSearchConfig(), StepConfig(h=0.25))
        printed = re.search(r"from state \[(.*)\]", str(err.value)).group(1)
        state = np.array([float(v) for v in printed.split(", ")])
        assert state.tobytes() == y0.tobytes()

    def test_scan_finds_the_root_the_prediction_misses(self):
        # the one step of the default Henon-Heiles run (s=3, index 2,
        # h=0.25, t=500) whose secant pairs fail: the outward scan
        # brackets a root within the prediction's reach
        system, _ = henon_heiles()
        y0 = np.array([float.fromhex(v) for v in (
            "-0x1.64df7d9e83cfcp-4", "-0x1.baf860b53015ep-3",
            "-0x1.5e913e2d30635p-2", "0x1.69fadfbd1fe26p-2",
        )])
        record = solve_alpha(
            system, 3, 2, y0, 0.25, AlphaSearchConfig(), StepConfig(h=0.25)
        )
        lo, hi = record.bracket
        scan_radii = [conserve._seed(conserve.root_scale(0.25, 1)) * 2.0**k for k in range(4)]
        assert hi in scan_radii
        assert 0.0 < record.alpha_star < 0.0625
        assert record.step.converged

    def test_config_with_another_stepsize_rejected(self):
        system, ic = kepler(0.6)
        with pytest.raises(ValueError, match="differs from step_cfg.h"):
            solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=0.5))

    def test_zero_stepsize_rejected(self):
        system, ic = kepler(0.6)
        with pytest.raises(ValueError, match="stepsize must be nonzero"):
            solve_alpha(system, 2, 1, ic.y0, 0.0, AlphaSearchConfig(), StepConfig(h=0.1))

    @pytest.mark.parametrize("h", [1e200, 1e-170, -1e-170])
    def test_stepsize_whose_root_scale_is_not_a_float_rejected(self, h):
        # h^2 overflows at 1e200; at 1e-170 it underflows to 0.0, where the
        # probes alpha = 0, p = 0 and +-0 would call the step degenerate
        system, ic = kepler(0.6)
        with pytest.raises(ValueError, match=r"root scale h\^2 must be a positive finite"):
            solve_alpha(system, 2, 1, ic.y0, h, AlphaSearchConfig(), StepConfig(h=h))

    def test_bracketed_search_is_cheap_and_sharp(self, monkeypatch):
        # the default search must cost few defect evaluations per step and
        # still land on the same sign-change points as a full dichotomy,
        # which takes over every bracket the triple leaves to Brent
        received = []

        def dichotomy(g, lo, hi, glo, ghi, width):
            received.append(hi - lo > width)
            while hi - lo > width:
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
        assert spec.search == AlphaSearchConfig()
        fast = integrate(spec)
        monkeypatch.setattr(conserve, "_bracketed_root", dichotomy)
        slow = integrate(spec)

        assert any(received)
        assert fast.g_evals.mean() <= 12.0
        assert slow.g_evals.mean() > fast.g_evals.mean()
        assert fast.delta / H5**2 == pytest.approx(slow.delta / H5**2, rel=1e-6)

    def test_each_defect_evaluation_is_one_stage_solve(self, monkeypatch):
        # every probe is one member of a batched stage solve, and the root's
        # probe is the accepted step: a tuned run solves no stage system
        # outside the search
        members = []

        def counted(system, tableau, *args, **kwargs):
            members.append(tableau.A.shape[0] if tableau.A.ndim == 3 else 1)
            return step(system, tableau, *args, **kwargs)

        monkeypatch.setattr(conserve, "step", counted)
        monkeypatch.setattr(experiments, "step", counted)
        spec = RunSpec(problem="kepler", method="ep-gauss", s=2, h=H5, t_end=0.5, e=0.6)
        traj = integrate(spec)
        assert sum(members) == int(traj.g_evals.sum())
        assert len(members) < int(traj.g_evals.sum()) / 2
        assert traj.g_evals.min() >= 2

    def test_accepted_step_is_the_root_probe(self):
        system, ic = kepler(0.6)
        record = solve_alpha(
            system, 2, 1, ic.y0, H5, AlphaSearchConfig(), StepConfig(h=H5)
        )
        assert record.step.converged
        (g,) = system.energy_increment(ic.y0, record.step.increment[None])
        assert g == record.g_residual

    def test_accepted_step_outlives_the_next_search(self):
        # the record's step shares no buffer with a later search
        system, ic = kepler(0.6)
        cfg = StepConfig(h=H5)
        record = solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), cfg)
        arrays = [record.step.increment, record.step.stages, record.step.stage_fields]
        kept = [a.copy() for a in arrays]
        solve_alpha(system, 2, 1, record.step.y1, H5, AlphaSearchConfig(), cfg)
        solve_alpha(system, 2, 1, ic.y0, H5, AlphaSearchConfig(), cfg)
        for array, copy in zip(arrays, kept):
            assert array.tobytes() == copy.tobytes()


def probe_table(*alphas):
    """A probe table holding `alphas`, in that order, each probed alone,
    with stages of shape (1, 2) that differ between probes."""
    table = conserve._ProbeTable((1, 2))
    for k, a in enumerate(alphas):
        table.add((a,), SimpleNamespace(stages=np.array([[[1.0 + k, 0.1 * k**2]]])))
    return table


class TestProbeTable:
    def test_no_line_start_before_two_probes(self):
        assert probe_table().starts((0.5,)) is None
        assert probe_table(0.0).starts((0.5,)) is None

    def test_line_through_the_two_nearest(self):
        table = probe_table(0.0, 1.0, 5.0)
        (start,) = table.starts((2.0,))
        Y0, Y1 = table.stages[0], table.stages[1]
        assert start.tobytes() == (Y0 + (2.0 - 0.0) / (1.0 - 0.0) * (Y1 - Y0)).tobytes()

    @pytest.mark.parametrize("order", [(-0.5, 3.5, 1.0), (3.5, -0.5, 1.0)])
    def test_equidistant_probes_take_the_earlier_inserted(self, order):
        # -0.5 and 3.5 lie 2 from 1.5: the earlier-inserted one is the
        # second anchor, as a stable sort by distance picks it
        table = probe_table(*order)
        (start,) = table.starts((1.5,))
        near, far = table.stages[2], table.stages[0]
        ratio = (1.5 - 1.0) / (order[0] - 1.0)
        assert start.tobytes() == (near + ratio * (far - near)).tobytes()

    def test_reprobed_alpha_replaces_its_row(self):
        # it keeps its place in the probe order (the tie rule reads it) and
        # anchors later line starts with its new stages
        table = probe_table(0.0, 1.0)
        stages = np.array([[[7.0, 8.0]], [[9.0, 10.0]]])
        result = SimpleNamespace(stages=stages)
        table.add((0.0, 2.0), result)
        assert list(table.rows) == [0.0, 1.0, 2.0]
        assert table.rows[0.0][1:] == (result, 0)
        assert table.stages[table.rows[0.0][0]].tobytes() == stages[0].tobytes()
        assert table.stages[table.rows[2.0][0]].tobytes() == stages[1].tobytes()
        (start,) = table.starts((-1.0,))
        expected = stages[0] + (-1.0 - 0.0) / (1.0 - 0.0) * (table.stages[1] - stages[0])
        assert start.tobytes() == expected.tobytes()

    def test_buffer_grows_and_keeps_its_rows(self):
        alphas = [float(k) for k in range(40)]
        table = probe_table(*alphas)
        assert len(table.rows) == 40 <= len(table.stages)
        for k, (row, _, _) in enumerate(table.rows.values()):
            assert table.stages[row, 0, 0] == 1.0 + k


class TestBracketedRoot:
    def test_flat_defect_is_searched_to_bracket_width(self):
        # |g| drops below any residual tolerance far from the root; only a
        # width-based stop finds the sign change itself
        calls = []

        def g(x):
            calls.append(x)
            return (x - 1.0 / 3.0) ** 3

        root, res = conserve._bracketed_root(g, 0.0, 1.0, g(0.0), g(1.0), 1e-16)
        assert abs(root - 1.0 / 3.0) <= 1e-15
        assert abs(res) <= 1e-45
        assert all(0.0 <= x <= 1.0 for x in calls)

    def test_returns_inside_bracket_near_boundary(self):
        def g(x):
            return x - 1e-3

        for lo, hi in ((1e-3, 2.0), (-0.5, 1e-3 + 1e-17), (0.0, 1e-3 * (1 + 1e-15))):
            root, _ = conserve._bracketed_root(g, lo, hi, g(lo), g(hi), 1e-16)
            assert lo <= root <= hi
            assert abs(root - 1e-3) <= 1e-16

    def test_exact_zero_endpoint_costs_nothing(self):
        def g(x):
            raise AssertionError("no probe expected")

        assert conserve._bracketed_root(g, 0.0, 1.0, 0.0, 2.0, 1e-16) == (0.0, 0.0)
        assert conserve._bracketed_root(g, -1.0, 0.5, -3.0, 0.0, 1e-16) == (0.5, 0.0)


# the start states of steps 31-34 of the Kepler ep-gauss run (e=0.6, s=3,
# h=2^-5), where the default coupling's defect slope crosses zero
KEPLER_POLE = (
    ("-0x1.3226d1aa985a5p-1", "0x1.9999615f1362bp-1",
     "-0x1.005079c865b3dp+0", "0x1.adf0201abf9e0p-10"),
    ("-0x1.42057ec951743p-1", "0x1.996da7e230c81p-1",
     "-0x1.f70c4bef11b8fp-1", "-0x1.74f3a5d5319bfp-6"),
    ("-0x1.5197ba3ba9fc9p-1", "0x1.98e0b1af269e2p-1",
     "-0x1.ed850ce010e61p-1", "-0x1.77a5ac1293565p-5"),
    ("-0x1.60ddfac4d4626p-1", "0x1.97f7ab9d1911ep-1",
     "-0x1.e40df9c3f47b6p-1", "-0x1.156c421494313p-4"),
)


class TestKeplerPole:
    def records(self, index):
        system, _ = kepler(0.6)
        return [
            solve_alpha(
                system, 3, index, np.array([float.fromhex(v) for v in state]),
                H5, AlphaSearchConfig(), StepConfig(h=H5),
            )
            for state in KEPLER_POLE
        ]

    def test_the_default_coupling_meets_a_pole(self):
        # the secant slope g'(alpha*) h^2 reads -1.01e-13, -3.77e-14,
        # +1.75e-14, +3.63e-14: it changes sign between steps 32 and 33,
        # and the root alpha* = O(h^2) leaves its scale there
        records = self.records(2)
        slopes = [r.slope * H5**2 for r in records]
        assert slopes[0] < slopes[1] < 0.0 < slopes[2] < slopes[3]
        assert all(abs(v) <= 2e-13 for v in slopes)
        scaled = [r.alpha_star / H5**2 for r in records]
        assert scaled[2] == pytest.approx(2.181, abs=1e-3)
        assert max(abs(v) for v in scaled[:2] + scaled[3:]) <= 0.7

    def test_the_first_coupling_is_well_conditioned_at_the_same_states(self):
        # index 1: slope h^4 within [-1.8e-11, -1.1e-11] and |alpha*| /
        # h^4 at most 0.0025 across the four steps
        for r in self.records(1):
            assert -1.8e-11 <= r.slope * H5**4 <= -1.1e-11
            assert abs(r.alpha_star) / H5**4 <= 0.0025


def symplecticity_defect(phi, y, d=1e-4):
    """max |Phi'^T J Phi' - J| of the map `phi` at `y`, with Phi' from
    central differences of step `d`, for a state (q, p) of two degrees of
    freedom."""
    J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    shifts = d * np.eye(4)
    M = np.column_stack([(phi(y + e) - phi(y - e)) / (2 * d) for e in shifts])
    return np.max(np.abs(M.T @ J @ M - J))


class TestTunedMapSymplecticity:
    def test_tuned_map_is_symplectic_to_beyond_its_order(self):
        # each member Psi_alpha is symplectic, the tuned map y -> Psi_{alpha(y)}(y)
        # is not: its defect reads 2.15e-4, 9.52e-6, 3.57e-7 at h = 2^-3..2^-5
        # (ratios 22.6, 26.7, more than 2^{2s} = 16), while the fixed-alpha map
        # at the same alpha reads the difference quotients' floor, 3-4e-9
        system, _ = kepler(0.6)
        y0 = kepler_reference(0.6, 0.4)
        tuned, fixed = [], []
        for h in (2**-3, 2**-4, 2**-5):
            cfg = StepConfig(h=h)

            def tuned_map(y):
                return solve_alpha(system, 2, 1, y, h, AlphaSearchConfig(), cfg).step.y1

            alpha = solve_alpha(system, 2, 1, y0, h, AlphaSearchConfig(), cfg).alpha_star

            def fixed_map(y):
                return energy_defect(system, 2, 1, y, alpha, cfg)[1].y1

            tuned.append(symplecticity_defect(tuned_map, y0))
            fixed.append(symplecticity_defect(fixed_map, y0))
        assert tuned[0] / tuned[1] > 16.0
        assert tuned[1] / tuned[2] > 16.0
        assert tuned[2] >= 10.0 * max(fixed)


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
                    system, 2, 1, ic.y0, alpha, StepConfig(h=h)
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

    def test_failed_cells_marked(self, monkeypatch):
        system, ic = kepler(0.6)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 2)
        G, failures = level_grid(system, 2, 1, ic.y0, [0.5], [0.49], StepConfig(h=0.5))
        assert len(failures) == 1
        assert np.isnan(G[0, 0])

    def test_empty_grid_rejected(self):
        system, ic = kepler(0.6)
        with pytest.raises(ValueError):
            level_grid(system, 2, 1, ic.y0, [], [0.0], StepConfig(h=0.1))

    def test_config_is_optional(self):
        # the grid reads no config; the quartic's h=5 column fails
        system, ic = quartic()
        args = (system, 3, 2, ic.y0, [5.0, 1.0], [0.0, 0.01])
        G, failures = level_grid(*args)
        G_cfg, failures_cfg = level_grid(*args, StepConfig(h=5.0))
        assert G.tobytes() == G_cfg.tobytes()
        assert failures == failures_cfg and len(failures) == 2

    def test_failed_cells_raise_no_numpy_warning(self):
        system, ic = quartic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, failures = level_grid(system, 3, 2, ic.y0, [5.0, 1.0], [0.0, 0.01])
        assert len(failures) == 2


def entry_point_arrays(name, s):
    """What the library entry point `name` returns at stage count `s`, as a
    list of arrays."""
    system, ic = kepler(0.6)
    q, cfg = gauss_quadrature(s), StepConfig(h=H5)
    if name == "butcher":
        return [butcher(q, PerturbationSpec.single(s, 1, 1e-3)).A]
    if name == "affine_parts":
        return list(affine_parts(q, 1))
    if name == "legendre_basis":
        return [legendre_basis(q).P]
    if name == "energy_defect":
        g, res = energy_defect(system, s, 1, ic.y0, 1e-3, cfg)
        return [g, res.y1]
    if name == "solve_alpha":
        rec = solve_alpha(system, s, 1, ic.y0, H5, AlphaSearchConfig(), cfg)
        return [rec.alpha_star, rec.g_evals, rec.step.y1]
    G, failures = level_grid(system, s, 1, ic.y0, [H5, 0.1], [0.0, 1e-3], cfg)
    return [G, len(failures)]


@pytest.mark.parametrize(
    "name",
    ["butcher", "affine_parts", "legendre_basis", "energy_defect", "solve_alpha", "level_grid"],
)
def test_numpy_integer_stage_count_gives_the_int_result(name):
    plain = entry_point_arrays(name, 2)
    numpy_int = entry_point_arrays(name, np.int64(2))
    assert [np.asarray(v).tobytes() for v in numpy_int] == [np.asarray(v).tobytes() for v in plain]
