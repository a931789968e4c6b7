import dataclasses
import json
import os
import stat
import warnings

import numpy as np
import pytest

from sympulse import __version__
from sympulse import problems as problems_mod
from sympulse.cli import UsageError, parse_stepsize, parse_value_list, run
from sympulse.experiments import RunSpec, integrate
from sympulse.problems import SingularPotentialError
from sympulse.tableau import PerturbationSpec, butcher, gauss_quadrature


KEPLER = ["integrate", "--problem", "kepler"]


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_power_of_two_literals_are_exact(self):
        assert parse_stepsize("2^-5") == 2.0**-5
        assert parse_stepsize("2^3") == 8.0
        assert parse_stepsize("0.125") == 0.125

    def test_power_of_two_range_is_the_float_range(self):
        assert parse_stepsize("2^-1074") == 5e-324
        assert parse_stepsize("2^1023") == 2.0**1023
        # below 2^-1074 the power would round to 0.0, above 2^1023 overflow
        for token in ("2^-1075", "2^-1100", "2^1024"):
            with pytest.raises(UsageError) as err:
                parse_stepsize(token)
            assert str(err.value) == (
                f"value must be finite and nonzero, -1074 <= k <= 1023 in {token!r}"
            )

    def test_halving_range(self):
        assert parse_value_list("2^-1:2^-3") == [0.5, 0.25, 0.125]

    def test_comma_list(self):
        assert parse_value_list("0.5,2^-2,0.1") == [0.5, 0.25, 0.1]

    def test_linspace(self):
        values = parse_value_list("0:1:5")
        np.testing.assert_allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("text", ["abc", "1:2", "0:1:0", "0:1:x", ","])
    def test_rejects_garbage(self, text):
        with pytest.raises(UsageError):
            parse_value_list(text)

    @pytest.mark.parametrize(
        "text", ["nan", "inf", "-inf", "0.1,nan", "inf:0.1", "0:nan:3", "2^1024"]
    )
    def test_rejects_non_finite_values(self, text):
        with pytest.raises(UsageError, match="finite"):
            parse_value_list(text)

    @pytest.mark.parametrize("text", ["-1e308:1e308:3", "1e308:-1e308:1"])
    def test_rejects_a_linear_grid_whose_span_overflows(self, text):
        with pytest.raises(UsageError, match="hi - lo overflows"):
            parse_value_list(text)

    def test_linear_grid_values_are_floats(self):
        assert [type(v) for v in parse_value_list("0:1:3")] == [float] * 3


class TestTableauCommand:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run_capture(capsys, ["tableau", "--stages", "2"])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        tab = butcher(gauss_quadrature(2), PerturbationSpec.none(2))
        c_row = [float(v) for v in lines[0].split(",")[1:]]
        np.testing.assert_array_equal(c_row, tab.c)
        a_rows = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[2:]]
        )
        np.testing.assert_array_equal(a_rows, tab.A)

    def test_json_format(self, capsys):
        code, out, _ = run_capture(
            capsys, ["tableau", "--stages", "3", "--alpha", "0.01", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stages"] == 3
        assert payload["perturb_index"] == 2
        assert payload["order"] == 4
        tab = butcher(gauss_quadrature(3), PerturbationSpec.single(3, 2, 0.01))
        np.testing.assert_array_equal(
            np.array(payload["A"], float), tab.A
        )

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, ["tableau", "--stages", "3"])
        lines = [l for l in out.splitlines() if l.startswith("c,")]
        values = [float(v) for v in lines[0].split(",")[1:]]
        np.testing.assert_array_equal(values, gauss_quadrature(3).c)

    def test_stage_bounds_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["tableau", "--stages", "11"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--stages", "3", "--perturb-index", "5"],
            ["--stages", "2", "--perturb-index", "0"],
            ["--stages", "1", "--perturb-index", "1"],
        ],
    )
    def test_bad_perturb_index_rejected_without_alpha(self, capsys, argv):
        code, out, err = run_capture(capsys, ["tableau", *argv])
        assert code == 1
        assert out == ""
        assert "perturbation index" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_usage_error(self, capsys, alpha):
        code, out, err = run_capture(capsys, ["tableau", "--stages", "2", "--alpha", alpha])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"sympulse: error: perturbation value must be finite, got {alpha}"]


class TestIntegrateCommand:
    def test_harmonic_alpha_column_zero(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["integrate", "--problem", "harmonic", "--method", "ep-gauss",
             "--stages", "2", "--h", "0.1", "--t-end", "2"],
        )
        assert code == 0
        lines = out.splitlines()
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("step,"))
        cols = lines[header_idx].split(",")
        alpha_col = cols.index("alpha_star")
        for line in lines[header_idx + 1:]:
            assert float(line.split(",")[alpha_col]) == 0.0

    @pytest.mark.parametrize(
        "flags, spec",
        [
            (
                ["--problem", "kepler", "--h", "2^-4", "--t-end", "0.5"],
                RunSpec(problem="kepler", method="ep-gauss", s=2, h=2**-4, t_end=0.5),
            ),
            # a shortened last step of 0.05
            (
                ["--problem", "quartic", "--method", "fixed-alpha", "--alpha", "0.01",
                 "--h", "2^-4", "--t-end", "0.3"],
                RunSpec(
                    problem="quartic", method="fixed-alpha", s=2, h=2**-4, t_end=0.3,
                    alpha=0.01,
                ),
            ),
        ],
    )
    def test_every_cell_matches_the_record(self, capsys, flags, spec):
        code, out, err = run_capture(capsys, ["integrate", *flags])
        assert code == 0, err
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        names = lines[0].split(",")
        table = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        col = {name: table[:, names.index(name)] for name in names}
        record = integrate(spec)
        assert record.partial_final == (spec.method == "fixed-alpha")
        assert names == ["step", "t", "y1", "y2", "y3", "y4", "H_err", "L_err",
                         "alpha_star", "g_evals", "stage_iters"]
        np.testing.assert_array_equal(col["step"], np.arange(record.times.size))
        np.testing.assert_array_equal(col["t"], record.times)
        np.testing.assert_array_equal(table[:, 2:6], record.states)
        np.testing.assert_array_equal(col["H_err"], record.energy_error)
        np.testing.assert_array_equal(col["L_err"], record.invariant_errors["L"])
        # row k + 1 holds step k; the start row holds zeros
        for name, values in [("alpha_star", record.alpha_trace), ("g_evals", record.g_evals),
                             ("stage_iters", record.stage_iters)]:
            np.testing.assert_array_equal(col[name], [0, *values])

    def test_header_round_trips_inputs(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["integrate", "--problem", "kepler", "--e", "0.6", "--h", "2^-5",
             "--t-end", "1"],
        )
        assert code == 0
        header = {
            line[2:].split(" = ")[0]: line[2:].split(" = ")[1]
            for line in out.splitlines()
            if line.startswith("# ") and " = " in line
        }
        assert float(header["h"]) == 2.0**-5
        assert float(header["e"]) == 0.6
        assert float(header["t_end"]) == 1.0
        assert header["problem"] == "kepler"

    def test_file_output_is_deterministic(self, tmp_path, capsys):
        argv = [
            "integrate", "--problem", "kepler", "--h", "2^-4", "--t-end", "1",
        ]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_capture(capsys, argv + ["--output", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # a missing directory fails in mkstemp, an existing directory in the rename
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_refused_output_is_one_usage_error_line(self, tmp_path, capsys, target):
        output = str(tmp_path / target)
        argv = ["tableau", "--stages", "2", "--output", output]
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("sympulse: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # the line names the path given, not the writer's temporary file
        assert output in err and ".sympulse-" not in err
        assert list(tmp_path.rglob(".sympulse-*")) == []

    def test_output_file_gets_the_umask_mode(self, tmp_path, capsys):
        argv = ["tableau", "--stages", "2", "--output", str(tmp_path / "t.csv")]
        umask = os.umask(0o022)
        try:
            code, _, _ = run_capture(capsys, argv)
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE((tmp_path / "t.csv").stat().st_mode) == 0o644

    def test_bare_henon_heiles_run_finishes(self, capsys):
        # the per-problem default stage count (3) has a root at every step
        # of the default interval, where s=2 has none at t=76
        code, out, err = run_capture(capsys, ["integrate", "--problem", "henon-heiles"])
        assert code == 0, err
        assert "# stages = 3" in out.splitlines()

    def test_numerical_failure_exit_code(self, capsys):
        # plain Gauss at h=1 cannot solve the first stage system from perihelion
        code, _, err = run_capture(
            capsys,
            ["integrate", "--problem", "kepler", "--method", "gauss",
             "--h", "1", "--t-end", "2"],
        )
        assert code == 2
        assert err.startswith("sympulse: numerical failure: step 0 at t=0.0 failed: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["gauss", "ep-gauss"])
    def test_singular_start_names_step_zero(self, capsys, method):
        # at e = 1 - 1e-10 the perihelion lies inside the singular radius 1e-8
        code, out, err = run_capture(
            capsys, [*KEPLER, "--e", "0.9999999999", "--method", method, "--t-end", "1"]
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sympulse: numerical failure: step 0 at t=0.0 failed: "
            "state within 1e-08 of the gravitational singularity"
        ]

    def test_singular_end_state_reports_a_plain_time(self, capsys, monkeypatch):
        # the energy raises at the end state of step 6 only, as in
        # test_experiments' singular-end-state test
        spec = RunSpec(problem="harmonic", method="gauss", s=2, h=0.25, t_end=3.0)
        singular = integrate(spec).states[7]
        original = problems_mod.get_problem

        def get_problem(*args, **kwargs):
            system, ic = original(*args, **kwargs)

            def energy(y):
                if (np.atleast_2d(y) == singular).all(axis=-1).any():
                    raise SingularPotentialError("energy evaluated at the marked state")
                return system.energy(y)

            return dataclasses.replace(system, energy=energy), ic

        monkeypatch.setattr(problems_mod, "get_problem", get_problem)
        code, out, err = run_capture(
            capsys,
            ["integrate", "--problem", "harmonic", "--method", "gauss", "--stages", "2",
             "--h", "0.25", "--t-end", "3"],
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sympulse: numerical failure: step 6 at t=1.5 ended "
            "at a singular state: energy evaluated at the marked state"
        ]

    def test_run_too_long_to_allocate_usage_error(self, capsys):
        # 3.2e15 steps: the record's arrays cannot be allocated, and the
        # allocation fails at once, so the test uses no memory
        code, out, err = run_capture(
            capsys, [*KEPLER, "--method", "gauss", "--t-end", "1e14"]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("sympulse: error: Unable to allocate")

    @pytest.mark.parametrize(
        "argv",
        [
            [*KEPLER, "--method", "gauss", "--perturb-index", "7", "--t-end", "0.1"],
            ["converge", "--problem", "kepler", "--method", "gauss", "--stages", "2",
             "--perturb-index", "9", "--h-list", "0.1,0.05", "--t-end", "0.2"],
        ],
    )
    def test_perturb_index_out_of_range_with_gauss_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("sympulse: error: perturbation index")

    def test_overflow_is_one_numerical_failure_without_warnings(self, capsys):
        # the tableau and the stage sweep overflow; the typed error reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_capture(
                capsys,
                ["integrate", "--problem", "kepler", "--method", "fixed-alpha",
                 "--alpha", "1e308", "--h", "2^-3", "--t-end", "1"],
            )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # an alpha the method would ignore
            ("integrate --problem kepler --method gauss --alpha 0.5 --t-end 0.1",
             "alpha applies to method fixed-alpha only, not 'gauss'"),
            ("integrate --problem kepler --method ep-gauss --alpha 0.5 --t-end 0.1",
             "alpha applies to method fixed-alpha only, not 'ep-gauss'"),
            ("converge --problem kepler --method ep-gauss-type2 --alpha=-0.001"
             " --h-list 0.25,0.125 --t-end 0.5",
             "alpha applies to method fixed-alpha only, not 'ep-gauss-type2'"),
            # a root scale h^{2r} that overflows or underflows
            ("integrate --problem quartic --t-end 1e308 --h 1e300",
             "the root scale h^2 must be a positive finite float"),
            ("integrate --problem kepler --method ep-gauss --stages 3 --h 1e200 --t-end 1e201",
             "the root scale h^2 must be a positive finite float"),
            ("converge --problem quartic --h-list 1e-320 --t-end 1e-318",
             "the root scale h^2 must be a positive finite float"),
            ("converge --problem quartic --method gauss --h-list 1e-200 --t-end 1e-198",
             "the root scale h^2 must be a positive finite float"),
        ],
    )
    def test_run_spec_limit_is_one_usage_error_line(self, capsys, argv, message):
        code, out, err = run_capture(capsys, argv.split())
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"sympulse: error: {message}")
        assert "Traceback" not in err

    def test_last_step_too_short_for_its_root_scale_usage_error(self, capsys):
        code, out, err = run_capture(
            capsys,
            [*KEPLER, "--method", "ep-gauss-type2", "--stages", "10", "--h", "1e-11",
             "--t-end", "3.00000002e-11"],
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "sympulse: error: the last step from t0=0.0 to t_end=3.00000002e-11 at h=1e-11 "
            "is shortened to "
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--problem", "quartic", "--h", "0.5", "--t-end", "1e-12"],
            ["converge", "--problem", "kepler", "--h-list", "0.1", "--t-end", "1e-300"],
        ],
    )
    def test_run_without_a_step_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert "the run makes no step" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            [*KEPLER, "--t-end", "inf"],
            [*KEPLER, "--h", "nan", "--t-end", "1"],
            [*KEPLER, "--t0", "nan", "--t-end", "1"],
            [*KEPLER, "--t-end", "1", "--method", "fixed-alpha", "--alpha", "nan"],
            # the start state is checked where the problem is built
            [*KEPLER, "--h", "2^-5", "--t-end", "1", "--y0=nan,0,0,1"],
            [*KEPLER, "--h", "2^-5", "--t-end", "1", "--y0=0.4,0,0,inf"],
            # so is the step count, where the span or its quotient by h overflows
            [*KEPLER, "--h", "1e-300", "--t-end", "1e300"],
            [*KEPLER, "--t0=-1e308", "--t-end", "1e308"],
            # a power of two beyond the float range, in each command's stepsizes
            [*KEPLER, "--h", "2^99999"],
            ["converge", "--problem", "kepler", "--h-list", "2^2000:2^1999"],
            ["levelmap", "--problem", "kepler", "--h-list", "2^5000"],
        ],
    )
    def test_non_finite_input_usage_error(self, capsys, flags):
        code, out, err = run_capture(capsys, flags)
        assert code == 1
        assert out == ""
        assert "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--problem", "kepler", "--stage-solver", "fixed_point"],
            ["integrate", "--problem", "kepler", "--bracket-seed", "1e-3"],
            ["levelmap", "--problem", "kepler", "--stage-solver", "fixed_point"],
        ],
    )
    def test_removed_flags_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_unknown_problem_usage_error(self, capsys):
        code, _, _ = run_capture(
            capsys, ["integrate", "--problem", "threebody", "--h", "0.1"]
        )
        assert code == 1

    def test_power_of_two_below_the_float_range_usage_error(self, capsys):
        # 2^-1100 used to become 0.0 and fail as a stepsize that is not positive
        code, out, err = run_capture(capsys, [*KEPLER, "--h", "2^-1100", "--t-end", "1"])
        assert (code, out) == (1, "")
        assert err == (
            "sympulse: error: value must be finite and nonzero, -1074 <= k <= 1023 in '2^-1100'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            [*KEPLER, "--h", "0.1", "--t-end", "0.2"],
            ["converge", "--problem", "kepler", "--h-list", "0.1,0.05", "--t-end", "0.2"],
            ["levelmap", "--problem", "kepler", "--h-list", "0.1", "--alpha-list", "0:1e-3:2"],
        ],
    )
    def test_eccentricity_with_a_start_state_usage_error(self, capsys, argv):
        # e only chooses Kepler's default start, which --y0 replaces
        code, out, err = run_capture(capsys, [*argv, "--e", "0.5", "--y0", "1,0,0,1"])
        assert (code, out) == (1, "")
        assert err == "sympulse: error: argument --y0: not allowed with argument --e\n"

    def test_eccentricity_on_wrong_problem(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["integrate", "--problem", "harmonic", "--e", "0.5", "--h", "0.1",
             "--t-end", "1"],
        )
        assert code == 1
        assert err == "sympulse: error: e only applies to the kepler problem, not 'harmonic'\n"


class TestConvergeCommand:
    def test_columns_and_values(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["converge", "--problem", "kepler", "--method", "ep-gauss",
             "--stages", "2", "--h-list", "2^-3:2^-5", "--t-end", "1"],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "h,e_h,order,delta_h,delta_scaled"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        assert [float(r[0]) for r in rows] == [0.125, 0.0625, 0.03125]
        assert rows[0][2] == ""  # first row has no order
        assert float(rows[1][2]) == pytest.approx(4.0, abs=0.8)

    def test_h_list_must_decrease(self, capsys):
        code, _, _ = run_capture(
            capsys,
            ["converge", "--problem", "harmonic", "--h-list", "0.1,0.2",
             "--t-end", "1"],
        )
        assert code == 1


class TestLevelmapCommand:
    def test_grid_shape_and_values(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["levelmap", "--problem", "kepler", "--stages", "2",
             "--h-list", "0.1,0.05", "--alpha-list=-0.0002:0.0004:4"],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "h,alpha,g"
        assert len(lines) == 1 + 2 * 4
        h_vals = sorted({float(l.split(",")[0]) for l in lines[1:]})
        assert h_vals == [0.05, 0.1]

    def test_single_stage_rejected(self, capsys):
        code, _, _ = run_capture(
            capsys, ["levelmap", "--problem", "kepler", "--stages", "1"]
        )
        assert code == 1

    def test_non_finite_grid_usage_error(self, capsys):
        code, out, err = run_capture(
            capsys, ["levelmap", "--problem", "kepler", "--h-list", "nan"]
        )
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_non_finite_start_state_usage_error(self, capsys):
        code, out, err = run_capture(
            capsys,
            ["levelmap", "--problem", "kepler", "--h-list", "0.1",
             "--alpha-list", "0:0.001:2", "--y0=nan,0,0,1"],
        )
        assert code == 1
        assert out == ""
        assert "y0 must be finite" in err
        assert "Traceback" not in err

    def test_default_index_is_the_last_coupling(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["levelmap", "--problem", "kepler", "--stages", "3",
             "--h-list", "0.1", "--alpha-list", "0:0.001:2"],
        )
        assert code == 0
        assert "# perturb_index = 2" in out.splitlines()


# The "#" header lines are part of the byte-identical output: pinned here
# exactly, one case per way the method and problem lines vary.
HEADERS = [
    (
        "integrate --problem kepler --e 0.6 --h 2^-5 --t-end 0.125",
        ["subcommand = integrate", "problem = kepler", "e = 0.59999999999999998",
         "method = ep-gauss", "stages = 2", "perturb_index = 1", "h = 0.03125",
         "t0 = 0", "t_end = 0.125", "partial_final = false"],
    ),
    (
        "integrate --problem quartic --method fixed-alpha --alpha 0.01 --h 2^-4"
        " --t-end 0.25 --y0=1,0,0,1",
        ["subcommand = integrate", "problem = quartic", "y0 = 1,0,0,1",
         "method = fixed-alpha", "stages = 2", "perturb_index = 1", "alpha = 0.01",
         "h = 0.0625", "t0 = 0", "t_end = 0.25", "partial_final = false"],
    ),
    (
        "integrate --problem kepler --method gauss --h 0.3 --t-end 1 --t0 0.2",
        ["subcommand = integrate", "problem = kepler", "method = gauss", "stages = 2",
         "h = 0.29999999999999999", "t0 = 0.20000000000000001", "t_end = 1",
         "partial_final = true"],
    ),
    (
        "converge --problem kepler --method gauss --h-list 0.25,0.125 --t-end 0.5",
        ["subcommand = converge", "problem = kepler", "method = gauss", "stages = 2",
         "h_list = 0.25,0.125", "t0 = 0", "t_end = 0.5", "error_norm = euclidean"],
    ),
    (
        "converge --problem quartic --method ep-gauss-type2 --stages 3"
        " --h-list 0.25,0.125 --t-end 0.5",
        ["subcommand = converge", "problem = quartic", "method = ep-gauss-type2",
         "stages = 3", "perturb_index = 1", "h_list = 0.25,0.125", "t0 = 0",
         "t_end = 0.5", "error_norm = euclidean"],
    ),
    (
        "converge --problem kepler --method fixed-alpha --alpha 0.01"
        " --h-list 2^-2:2^-3 --t0 0.25 --t-end 0.5",
        ["subcommand = converge", "problem = kepler", "method = fixed-alpha",
         "stages = 2", "perturb_index = 1", "alpha = 0.01", "h_list = 0.25,0.125",
         "t0 = 0.25", "t_end = 0.5", "error_norm = euclidean"],
    ),
    (
        "levelmap --problem kepler --stages 3 --h-list 0.1 --alpha-list 0:0.001:2",
        ["subcommand = levelmap", "problem = kepler", "stages = 3", "perturb_index = 2",
         "h_list = 0.10000000000000001", "alpha_list = 0,0.001", "failed_cells = 0"],
    ),
    (
        "levelmap --problem harmonic --h-list 0.1,0.05 --alpha-list 0:0.001:2"
        " --y0=1,0.5",
        ["subcommand = levelmap", "problem = harmonic", "y0 = 1,0.5", "stages = 2",
         "perturb_index = 1", "h_list = 0.10000000000000001,0.050000000000000003",
         "alpha_list = 0,0.001", "failed_cells = 0"],
    ),
]


@pytest.mark.parametrize("argv, lines", HEADERS, ids=[a for a, _ in HEADERS])
def test_header_lines_are_pinned(capsys, argv, lines):
    code, out, err = run_capture(capsys, argv.split())
    assert code == 0, err
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert header == [f"# sympulse {__version__}"] + [f"# {line}" for line in lines]


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [*KEPLER, "--h", "0.1"],
            ["converge", "--problem", "kepler", "--h-list", "0.1"],
            ["levelmap", "--problem", "kepler"],
        ],
        ids=["integrate", "converge", "levelmap"],
    )
    def test_stage_tolerance_is_not_a_flag(self, capsys, argv):
        code, _, err = run_capture(capsys, [*argv, "--stage-tol", "1e-13"])
        assert code == 1
        assert err == "sympulse: error: unrecognized arguments: --stage-tol 1e-13\n"

    def test_unknown_flag(self, capsys):
        assert run(["tableau", "--stages", "2", "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "flags, header",
        [
            ("integrate --problem kepler --h 0.1 --t-end 0.3 --y0 -0.4,0,0,1.5",
             "# y0 = -0.4"),
            ("integrate --problem kepler --h 0.1 --t-end 0.3 --method fixed-alpha "
             "--alpha -1e-3", "# alpha = -0.001"),
            ("integrate --problem kepler --h 0.1 --t-end 0.3 --method gauss --t0 -1e1",
             "# t0 = -10"),
            ("levelmap --problem kepler --h-list 0.1 --alpha-list -5e-4:4e-3:3",
             "# alpha_list = -0.0005"),
            ("levelmap --problem kepler --h-list 0.1 --alpha-list -.0005:0.004:3",
             "# alpha_list = -0.0005"),
        ],
    )
    def test_values_may_open_with_a_minus(self, capsys, flags, header):
        code, out, err = run_capture(capsys, flags.split())
        assert code == 0, err
        assert any(line.startswith(header) for line in out.splitlines())

    def test_negative_stepsize_is_still_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, [*KEPLER, "--h", "-0.1", "--t-end", "0.3"])
        assert code == 1
        assert err == "sympulse: error: run stepsize must be positive\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
