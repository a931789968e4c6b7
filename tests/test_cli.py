import json

import numpy as np
import pytest

from sympulse.cli import UsageError, parse_stepsize, parse_value_list, run
from sympulse.tableau import PerturbationSpec, butcher, gauss_quadrature


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_power_of_two_literals_are_exact(self):
        assert parse_stepsize("2^-5") == 2.0**-5
        assert parse_stepsize("2^3") == 8.0
        assert parse_stepsize("0.125") == 0.125

    def test_halving_range(self):
        assert parse_value_list("2^-1:2^-3") == [0.5, 0.25, 0.125]

    def test_comma_list(self):
        assert parse_value_list("0.5,2^-2,0.1") == [0.5, 0.25, 0.1]

    def test_linspace(self):
        values = parse_value_list("0:1:5")
        np.testing.assert_allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("text", ["abc", "1:2", "0:1:0", "0:1:x"])
    def test_rejects_garbage(self, text):
        with pytest.raises(UsageError):
            parse_value_list(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0.1,nan", "inf:0.1", "0:nan:3"])
    def test_rejects_non_finite_values(self, text):
        with pytest.raises(UsageError, match="finite"):
            parse_value_list(text)


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

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["integrate", "--problem", "kepler", "--method", "gauss",
             "--h", "2^-5", "--t-end", "1", "--stage-tol", "1e-30"],
        )
        assert code == 2
        assert "step 0" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t-end", "inf"],
            ["--h", "nan", "--t-end", "1"],
            ["--t0", "nan", "--t-end", "1"],
            # solver and search settings are checked where they are configured
            ["--t-end", "1", "--stage-tol", "nan"],
            ["--t-end", "1", "--stage-tol", "inf"],
            ["--t-end", "1", "--g-tol", "nan", "--alpha-strategy", "secant"],
            ["--t-end", "1", "--method", "fixed-alpha", "--alpha", "nan"],
        ],
    )
    def test_non_finite_input_usage_error(self, capsys, flags):
        code, out, err = run_capture(capsys, ["integrate", "--problem", "kepler"] + flags)
        assert code == 1
        assert out == ""
        assert "must be finite" in err
        assert "Traceback" not in err

    def test_unknown_problem_usage_error(self, capsys):
        code, _, _ = run_capture(
            capsys, ["integrate", "--problem", "threebody", "--h", "0.1"]
        )
        assert code == 1

    def test_eccentricity_on_wrong_problem(self, capsys):
        code, _, err = run_capture(
            capsys,
            ["integrate", "--problem", "harmonic", "--e", "0.5", "--h", "0.1",
             "--t-end", "1"],
        )
        assert code == 1
        assert "kepler" in err


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

    def test_default_index_is_the_last_coupling(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["levelmap", "--problem", "kepler", "--stages", "3",
             "--h-list", "0.1", "--alpha-list", "0:0.001:2"],
        )
        assert code == 0
        assert "# perturb_index = 2" in out.splitlines()


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["tableau", "--stages", "2", "--frobnicate"]) == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
