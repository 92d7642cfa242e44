import argparse
import ast
import csv
import gettext
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from causalatom import cli
from causalatom.cli import main, resolve_preset
from causalatom.observables import (CODATA2018, gamma_exact, hydrogen_1s2p_preset,
                                     r2_prefactor, shift_prefactor)
from causalatom.selfenergy import split_check_report, split_grid
from causalatom.wavepacket import EDGE_SQUARED_INTEGRAL, z_factor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def preset_arg(preset, tmp_path):
    """A preset name, or for a file of golden_diff.PRESETS its path, written
    to tmp_path."""
    import golden_diff
    if not preset.endswith(".json"):
        return preset
    (tmp_path / preset).write_text(json.dumps(golden_diff.PRESETS[preset]))
    return str(tmp_path / preset)


@pytest.fixture(scope="module")
def schema():
    from importlib import resources
    ref = resources.files("causalatom").joinpath("schema/result.schema.json")
    return json.loads(ref.read_text())


class TestPresets:
    def test_builtin_matches_computed(self):
        a = resolve_preset("hydrogen-1s2p")
        b = hydrogen_1s2p_preset()
        assert a.m_g == pytest.approx(b.m_g, rel=1e-14)
        assert a.omega_eg == pytest.approx(b.omega_eg, rel=1e-14)
        assert a.d_eg_abs == pytest.approx(b.d_eg_abs, rel=1e-14)

    def test_synthetic(self):
        a = resolve_preset("synthetic:1e-2")
        assert a.delta_u == pytest.approx(1e-2, rel=1e-12)

    def test_unknown_preset(self):
        from causalatom.errors import PresetError
        with pytest.raises(PresetError):
            resolve_preset("no-such-atom")


class TestRatioCommand:
    def test_json_fields(self, capsys, schema):
        code, out, err = run_cli(capsys, "ratio", "--preset", "hydrogen-1s2p",
                                 "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["ratio_magnitude"] == pytest.approx(0.0551, abs=5e-4)
        assert doc["results"]["ratio_signed"] < 0
        assert set(doc["metadata"]["notes"]) == {"c_ordering",
                                                 "gamma_denominator_power",
                                                 "r2_rational_part",
                                                 "ratio_sign"}

    def test_byte_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "ratio", "--format", "json")
        _, out2, _ = run_cli(capsys, "ratio", "--format", "json")
        assert out1 == out2


class TestGammaCommand:
    def test_value(self, capsys, schema):
        code, out, _ = run_cli(capsys, "gamma")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["gamma_leading_per_s"] == pytest.approx(6.26e8, rel=0.01)
        assert doc["results"]["ratio_exact_to_leading_minus_one"] < 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert "gamma_leading_per_s" in header
        idx = header.index("gamma_leading_per_s")
        assert float(values[idx]) == pytest.approx(6.26e8, rel=0.01)

    def test_round_trip_preset(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gamma")
        doc = json.loads(out)
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps(doc["inputs"]["atom"]))
        code2, out2, _ = run_cli(capsys, "gamma", "--preset", str(preset_file))
        assert code2 == 0
        doc2 = json.loads(out2)
        assert doc2["results"] == doc["results"]

    @pytest.mark.parametrize("preset", ["hydrogen-1s2p", "synthetic:1e-3", "synthetic:1e-2"])
    def test_minus_one_field_against_fifty_digits(self, capsys, preset):
        # (1 + du/2)^3/(1 + du)^5 - 1, which cancelled in the quotient of the
        # two printed rates: hydrogen's read 2.5e-8 relative off
        import mpmath as mp
        code, out, _ = run_cli(capsys, "gamma", "--preset", preset)
        assert code == 0
        res = json.loads(out)["results"]
        with mp.workdps(50):
            du = mp.mpf(res["delta_u"])
            want = (1 + du / 2) ** 3 / (1 + du) ** 5 - 1
            assert abs(res["ratio_exact_to_leading_minus_one"] / want - 1) <= 1e-15


class TestShiftCommand:
    def test_solved_constants_and_values(self, capsys, schema):
        code, out, _ = run_cli(capsys, "shift")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        res = doc["results"]
        assert res["solved_normalization"]["c0"] == pytest.approx(-3.5, abs=1e-10)
        assert res["solved_normalization"]["c1"] == pytest.approx(8.0, abs=1e-10)
        assert res["solved_normalization"]["c2"] == pytest.approx(-29 / 6, abs=1e-10)
        assert res["series_with_solved_c"]["c3"] == pytest.approx(-24.0, abs=1e-8)
        assert res["delta_final_per_s"] == pytest.approx(3.4165e9, rel=1e-4)
        assert res["log_bracket"] == pytest.approx(-34.289, rel=1e-4)

    def test_cubic_coefficients_at_float_rounding(self, capsys):
        # the fit's bias is below float rounding, and it runs in decimal
        # alone, so these digits are the same on every host
        code, out, _ = run_cli(capsys, "shift")
        assert code == 0
        series = json.loads(out)["results"]["series_with_solved_c"]
        for name, exact in (("c3", -24.0), ("c_log3", -48.0)):
            assert abs(series[name] - exact) <= 2 * math.ulp(exact), name


class TestSplitCheckCommand:
    def test_csv_row_count_and_tolerance(self, capsys):
        # the 50-point grid on [1.05, 5]
        code, out, _ = run_cli(capsys, "split-check", "--u-min", "1.05",
                               "--u-max", "5", "--points", "50",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("u,re_closed,im_closed,re_numeric,im_numeric,"
                            "im_rel_err,re_rel_err")
        assert len(lines) == 1 + 50
        for line in lines[1:]:
            im_rel_err, re_rel_err = map(float, line.split(",")[-2:])
            assert im_rel_err <= 1e-8
            assert re_rel_err <= 1e-8

    def test_json_carries_real_part_error(self, capsys, schema):
        code, out, _ = run_cli(capsys, "split-check", "--points", "6")
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        res = doc["results"]
        assert list(res) == ["rows", "max_im_rel_err", "max_re_rel_err", "diagnostics"]
        diag = res["diagnostics"]
        assert isinstance(diag["quadrature_evaluations"], int)
        assert diag["quadrature_evaluations"] > 0
        assert 0.0 < diag["max_abs_error_estimate"] < 1e-8 * max(
            abs(r["re_numeric"]) for r in res["rows"])
        assert res["max_im_rel_err"] <= 1e-8
        assert res["max_re_rel_err"] <= 1e-8
        assert max(r["re_rel_err"] for r in res["rows"]) == res["max_re_rel_err"]
        # the schema refuses a results block or a diagnostic it does not name
        diag["panels"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        del diag["panels"]
        res["real_difference_fit"] = {"basis": ["1", "u", "u^2"]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    @pytest.mark.parametrize("u_min, u_max", [("-5", "-1.05"), ("0.1", "0.9")])
    def test_real_part_matches_bracket_off_default_grid(self, capsys, u_min, u_max):
        code, out, _ = run_cli(capsys, "split-check", "--u-min", u_min,
                               "--u-max", u_max)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["max_im_rel_err"] <= 1e-8
        assert res["max_re_rel_err"] <= 1e-8


    def test_off_support_rel_err_finite(self, capsys):
        # the closed form is real off the support, so the imaginary-part
        # error is scaled by |closed| there instead of dividing by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "split-check", "--u-min", "0.2",
                                     "--u-max", "0.9")
        assert code == 0
        assert err == ""
        res = json.loads(out)["results"]
        errs = [r["im_rel_err"] for r in res["rows"]] + [res["max_im_rel_err"]]
        assert all(isinstance(e, (int, float)) and math.isfinite(e) for e in errs)

    def test_pole_fold_band_succeeds(self):
        # a fresh interpreter with -W error: any warning would end the run
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "causalatom.cli", "split-check",
             "--u-min", "3.1330", "--u-max", "3.1336", "--points", "200"],
            capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        res = json.loads(proc.stdout)["results"]
        assert len(res["rows"]) == 200
        assert res["max_im_rel_err"] <= 1e-8
        assert res["max_re_rel_err"] <= 1e-8

    @pytest.mark.parametrize("points", [-1, 0, 1, 4])
    def test_point_count_bounds(self, capsys, points):
        # nothing is fitted, so any grid of at least one point runs
        code, out, err = run_cli(capsys, "split-check", "--points", str(points))
        if points < 1:
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == "GridResolutionError"
        else:
            assert (code, err) == (0, "")
            assert len(json.loads(out)["results"]["rows"]) == points

    def test_repeated_point_runs(self, capsys):
        # 50 copies of u = 2: each row is its own check, nothing is fitted
        code, out, err = run_cli(capsys, "split-check", "--u-min", "2",
                                 "--u-max", "2")
        assert (code, err) == (0, "")
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 50
        assert all(r == rows[0] for r in rows)
        assert rows[0]["re_rel_err"] <= 1e-8


    @pytest.mark.parametrize("preset", ["hydrogen-1s2p", "synthetic:1e-2"])
    def test_si_columns_are_the_report_scaled(self, capsys, preset):
        # the check runs in units of r2_prefactor: the four value columns and
        # the error estimate are the report's times r2_prefactor, and the
        # rel-err columns are the report's own; the grid spans both signs,
        # on and off the support
        code, out, _ = run_cli(capsys, "split-check", "--preset", preset,
                               "--u-min", "-2.95", "--u-max", "3.05", "--points", "31")
        assert code == 0
        res = json.loads(out)["results"]
        rows = {name: [r[name] for r in res["rows"]] for name in res["rows"][0]}
        rep = split_check_report(split_grid(-2.95, 3.05, 31))
        pref = r2_prefactor(resolve_preset(preset))
        for name in ("re_closed", "im_closed", "re_numeric", "im_numeric"):
            assert rows[name] == (pref * getattr(rep, name)).tolist(), name
        for name in ("u", "im_rel_err", "re_rel_err"):
            assert rows[name] == getattr(rep, name).tolist(), name
        assert (res["max_im_rel_err"], res["max_re_rel_err"]) == (
            rep.im_rel_err.max(), rep.re_rel_err.max())
        assert res["diagnostics"] == {
            "quadrature_evaluations": rep.quadrature_evaluations,
            "max_abs_error_estimate": pref * rep.max_abs_error_estimate}

    def test_extreme_scale_atoms_check_as_hydrogen(self, capsys, tmp_path):
        # d2_scale 1.3e270 overflowed the integrand, and 2.8e-307 left its
        # error estimate in the subnormals: scaled after the check, both read
        # hydrogen's rel-err columns and node count bit for bit
        import golden_diff
        seen = []
        for preset in ("hydrogen-1s2p", "big-dipole.json", "tiny-scale.json"):
            code, out, err = run_cli(capsys, "split-check", "--preset",
                                     preset_arg(preset, tmp_path), *golden_diff.SCALE_GRID)
            assert (code, err) == (0, "")
            res = json.loads(out, parse_float=str)["results"]   # numbers as written
            seen.append(([[r[name] for name in ("u", "im_rel_err", "re_rel_err")]
                          for r in res["rows"]],
                         res["max_im_rel_err"], res["max_re_rel_err"],
                         res["diagnostics"]["quadrature_evaluations"]))
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert float(seen[0][2]) <= 1e-15


class TestShiftPrefactor:
    def test_prefactor_is_the_only_atom_in_the_fits(self, capsys, tmp_path):
        # prefactor_per_s of shift and series-check is shift_prefactor bit for
        # bit, and every bracket-unit number is the same on every preset
        seen = []
        for preset in ("hydrogen-1s2p", "synthetic:1e-2", "tiny-scale.json"):
            preset = preset_arg(preset, tmp_path)
            pref = shift_prefactor(resolve_preset(preset))
            docs = []
            for argv in (["shift"], ["series-check", "--c0", "1.5"]):
                code, out, err = run_cli(capsys, *argv, "--preset", preset)
                assert (code, err) == (0, "")
                docs.append(json.loads(out)["results"])
            shift, series = docs
            assert shift["series_with_solved_c"].pop("prefactor_per_s") == pref
            assert series.pop("prefactor_per_s") == pref
            seen.append((shift["solved_normalization"], shift["series_with_solved_c"], series))
        assert seen[1] == seen[0] and seen[2] == seen[0]


class TestSeriesCheckCommand:
    def test_agreement(self, capsys, schema):
        code, out, _ = run_cli(capsys, "series-check", "--c0", "1.5",
                               "--c1", "-2.0", "--c2", "0.5")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["max_rel_error"] < 1e-6
        assert doc["results"]["analytic"]["c_log3"] == -48.0

    def test_error_relative_to_the_largest_coefficient(self, capsys, schema):
        # analytic c0 is 2 here, while the fit's rounding is that of the
        # 6e300 coefficients: measured against c0 itself it read 5.6e277
        code, out, _ = run_cli(capsys, "series-check", "--c0", "1e300", "--c1", "-1e300")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["analytic"]["c0"] == 2.0
        assert doc["results"]["max_rel_error"] <= 1e-15


class TestWavepacketCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "wavepacket-check", "--preset",
                               "synthetic:1e-2", "--plateau-periods", "10", "100",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_g,rel_error,regime_flag"
        assert len(lines) == 3
        assert lines[1].endswith("ok")

    def test_monotone_field(self, capsys, schema):
        code, out, _ = run_cli(capsys, "wavepacket-check", "--preset",
                               "synthetic:1e-2", "--plateau-periods", "10", "100",
                               "1000")
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["monotone"] is True

    def test_si_enters_only_as_the_scale(self, capsys, tmp_path):
        # m_g and omega_eg both doubled keep delta_u bit for bit, while the
        # dipole and t_g_s differ: the unit-free columns then read the same,
        # and each z column scales by the SI scale 6 S lambda_bar_g / c,
        # S = shift_prefactor
        h = hydrogen_1s2p_preset()
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps({"m_g_kg": 2 * h.m_g, "omega_eg_rad_s": 2 * h.omega_eg,
                                           "d_eg_Cm": 3 * h.d_eg_abs, "t_g_s": 7.0}))
        other = resolve_preset(str(preset_file))
        assert other.delta_u == h.delta_u
        results = []
        for preset in ("hydrogen-1s2p", str(preset_file)):
            code, out, _ = run_cli(capsys, "wavepacket-check", "--preset", preset)
            assert code == 0
            results.append(json.loads(out, parse_float=str)["results"])   # numbers as written
        a, b = results
        assert a["monotone"] == b["monotone"]
        for col in ("rel_error", "narrowness", "regime_flag"):
            assert [r[col] for r in a["rows"]] == [r[col] for r in b["rows"]]
        assert [float(r["t_g_s"]) for r in b["rows"]] == [float(r["t_g_s"]) / 2
                                                          for r in a["rows"]]
        scale_a, scale_b = (6 * shift_prefactor(x) * x.lambda_bar_g / CODATA2018.c
                            for x in (h, other))
        ratio = scale_b / scale_a
        assert ratio != 1.0
        for col in ("z_numerical", "z_closed", "z_closed_inverse_u"):
            for ra, rb in zip(a["rows"], b["rows"]):
                za, zb = (complex(float(r[col]["re"]), float(r[col]["im"])) for r in (ra, rb))
                assert abs(zb - ratio * za) <= 1e-15 * abs(ratio * za), col

    @pytest.mark.parametrize("preset, ramp_fraction", [("hydrogen-1s2p", 0.1),
                                                       ("synthetic:1e-3", 0.3)])
    def test_z_columns_against_the_si_observables(self, capsys, preset, ramp_fraction):
        # z_factor freezes the bracket over c t_g, the plateau, in SI; int g^2
        # adds the two edges, 2 kappa edge = 4 kappa ramp_fraction plateau.
        # Im Z / t_g is the rate, gamma_exact with the 1/u_res weight.
        code, out, _ = run_cli(capsys, "wavepacket-check", "--preset", preset,
                               "--ramp-fraction", str(ramp_fraction))
        assert code == 0
        atom = resolve_preset(preset)
        edges = 1.0 + 4.0 * EDGE_SQUARED_INTEGRAL * ramp_fraction
        for row in json.loads(out)["results"]["rows"]:
            z = {col: complex(row[col]["re"], row[col]["im"])
                 for col in ("z_numerical", "z_closed", "z_closed_inverse_u")}
            at_t_g = replace(atom, t_g=row["t_g_s"])
            for col, weight in (("z_closed", "unity"), ("z_closed_inverse_u", "inverse_u")):
                ref = z_factor(at_t_g, resonant_weight=weight) * edges
                assert abs(z[col] - ref) <= 1e-13 * abs(ref), col
            rate = z["z_closed_inverse_u"].imag / row["t_g_s"]
            assert rate == pytest.approx(gamma_exact(atom, 5) * edges, rel=1e-12)
            assert (abs(z["z_numerical"] - z["z_closed"])
                    <= (row["rel_error"] + 1e-15) * abs(z["z_closed"]))


class TestWWSimCommand:
    def test_trace_and_summary(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "ww-sim", "--n-modes", "1200",
                                 "--bandwidth-gammas", "60", "--out",
                                 str(trace_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["rate_over_gamma_leading"] == pytest.approx(1.0, abs=0.02)
        assert doc["results"]["norm_drift"] <= 1e-6
        assert "ww_backend" not in doc["metadata"]
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "t,population,re_c_e,im_c_e"
        assert len(lines) > 100

    def test_stdout_mode_keeps_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "ww-sim", "--n-modes", "1000",
                                 "--bandwidth-gammas", "50")
        assert code == 0
        assert out.startswith("t,population")
        doc = json.loads(err)
        assert "rate_per_s" in doc["results"]


    def test_defaults_run_without_lapack(self, capsys, monkeypatch):
        # the block system and the decay fit are solved in closed form
        def refuse(*args, **kwargs):
            raise AssertionError("ww-sim called numpy.linalg")

        for name in ("solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        code, out, err = run_cli(capsys, "ww-sim")
        assert code == 0
        assert json.loads(err)["results"]["n_modes"] == 4000

    @pytest.mark.parametrize("flag", ["--dt-gammas", "--t-end-gammas"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_time_inputs_refused(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "ww-sim", "--n-modes", "1000",
                                 "--bandwidth-gammas", "50", flag, value)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"

    @pytest.mark.parametrize("argv, message", [
        (["--bandwidth-gammas", "30"], "bandwidth 30 below 40"),
        (["--dt-gammas", "-1"], "dt must be finite and positive, got -1.0"),
        (["--dt-gammas", "0.01"], "dt = 0.01 does not resolve the fastest detuning 50 "
                                  "(need dt * max|detuning| < 0.2)"),
        (["--n-modes", "1000", "--bandwidth-gammas", "140"],
         "mode spacing 0.1401 exceeds 0.1; the comb would not resolve the line"),
    ])
    def test_refusals_quote_the_flags_units(self, capsys, argv, message):
        # the oracle runs in units of gamma, so its refusals read in the
        # units of the --*-gammas flags, not in SI
        code, out, err = run_cli(capsys, "ww-sim", *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "GridResolutionError", "message": message,
                                   "command": "ww-sim"}


class TestErrorPaths:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_preset_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m_g_kg": 1e-27, "mystery": 3}')
        code, out, err = run_cli(capsys, "gamma", "--preset", str(bad))
        assert code == 1
        diag = json.loads(err)
        assert diag["error"] == "PresetError"

    @pytest.mark.parametrize("key, value", [("m_g_kg", "NaN"),
                                            ("d_eg_Cm", "Infinity"),
                                            ("t_g_s", "NaN")])
    def test_non_finite_preset_field_exits_one(self, capsys, tmp_path, key, value):
        doc = {"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
               "d_eg_Cm": 6.3e-30, "t_g_s": 1.0, key: "@"}
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps(doc).replace('"@"', value))
        code, out, err = run_cli(capsys, "gamma", "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "PresetError"

    @pytest.mark.parametrize("key, value", [("m_g_kg", "true"),
                                            ("omega_eg_rad_s", '"1.5e16"'),
                                            ("d_eg_Cm", "null"),
                                            ("t_g_s", "[1.0]")])
    def test_non_number_preset_field_exits_one(self, capsys, tmp_path, key, value):
        # float() would read true as 1 and "1.5e16" as a number
        doc = {"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
               "d_eg_Cm": 6.3e-30, "t_g_s": 1.0, key: "@"}
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps(doc).replace('"@"', value))
        code, out, err = run_cli(capsys, "gamma", "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "PresetError"
        assert f"atom key {key} must be a number" in diag["message"]

    @pytest.mark.parametrize("text", ["1" + "0" * 400, "-1" + "0" * 400])
    def test_int_past_the_float_range_exits_one(self, capsys, tmp_path, text):
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(f'{{"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": {text}, '
                               f'"d_eg_Cm": 6.3e-30, "t_g_s": 1.0}}')
        code, out, err = run_cli(capsys, "gamma", "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "PresetError"

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"atom"'])
    def test_preset_document_not_an_object_exits_one(self, capsys, tmp_path, text):
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(text)
        code, out, err = run_cli(capsys, "gamma", "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "PresetError"
        assert "an atom document is a JSON object" in diag["message"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_preset_overflowing_si_prefactors_refused(self, capsys, tmp_path, command):
        # every field is finite, but |d|^2 omega^3 leaves the float range
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps({"m_g_kg": 1.6735575e-27,
                                           "omega_eg_rad_s": 1.5497e16,
                                           "d_eg_Cm": 1e150, "t_g_s": 1.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "PresetError"
        assert "d_eg_abs = 1e+150" in diag["message"]
        assert "leaves the float range" in diag["message"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_preset_with_subnormal_lambda_bar_power_refused(self, capsys, tmp_path, command):
        # lambda_bar_g^(3/2) is subnormal past m_g = 1e163 kg, where S would
        # keep only the digits left there (2.7e-14 off on this atom)
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps({"m_g_kg": 7.04e164, "omega_eg_rad_s": 3e214,
                                           "d_eg_Cm": 1.1e-178, "t_g_s": 1.0}))
        code, out, err = run_cli(capsys, command, "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "PresetError"
        assert "is subnormal for m_g = 7.04e+164" in diag["message"]

    @pytest.mark.parametrize("command, key, value, named", [
        ("gamma", "d_eg_Cm", 0, "gamma_leading is 0 for d_eg_Cm = 0,"),
        ("gamma", "omega_eg_rad_s", 1e-200, "gamma_leading is 0 for d_eg_Cm = 6.3e-30, "
                                            "omega_eg_rad_s = 1e-200"),
        ("ww-sim", "d_eg_Cm", 0, "gamma_leading is 0 for d_eg_Cm = 0,"),
        ("ww-sim", "omega_eg_rad_s", 1e-200, "gamma_leading is 0 for d_eg_Cm = 6.3e-30, "
                                             "omega_eg_rad_s = 1e-200"),
        ("wavepacket-check", "d_eg_Cm", 0, "shift_prefactor (the scale of z_closed) is 0 "
                                           "for d_eg_Cm = 0,"),
        ("wavepacket-check", "omega_eg_rad_s", 1e-300, "delta_u is 0 for "
                                                       "omega_eg_rad_s = 1e-300, m_g_kg"),
        ("split-check", "d_eg_Cm", 0, "r2_prefactor is 0 for d_eg_Cm = 0,"),
    ], ids=["gamma-zero-dipole", "gamma-tiny-omega", "ww-sim-zero-dipole",
            "ww-sim-tiny-omega", "wavepacket-check-zero-dipole",
            "wavepacket-check-tiny-omega", "split-check-zero-dipole"])
    def test_zero_rate_preset_refused(self, capsys, tmp_path, command, key, value, named):
        # a zero dipole is a legal atom, but these commands scale their
        # results by a prefactor that is then 0, or divide by it
        doc = {"m_g_kg": 1.6735575e-27, "omega_eg_rad_s": 1.5497e16,
               "d_eg_Cm": 6.3e-30, "t_g_s": 1.0, key: value}
        preset_file = tmp_path / "atom.json"
        preset_file.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--preset", str(preset_file))
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "PresetError"
        assert named in diag["message"]

    def test_unknown_preset_name_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--preset", "unobtainium")
        assert code == 1
        assert json.loads(err)["error"] == "PresetError"

    @pytest.mark.parametrize("argv, message", [
        (["split-check", "--tol", "nan"], "tolerances must be finite and > 0"),
        (["split-check", "--tol", "inf"], "tolerances must be finite and > 0"),
        (["split-check", "--tol", "0"], "tolerances must be finite and > 0"),
        (["wavepacket-check", "--ramp-fraction", "nan"],
         "ramp_fraction must be finite and > 0, got nan"),
        (["wavepacket-check", "--ramp-fraction", "inf"],
         "ramp_fraction must be finite and > 0, got inf"),
        (["wavepacket-check", "--plateau-periods", "10", "0"],
         "plateau_periods must be >= 1, got 0"),
        (["wavepacket-check", "--ramp-fraction", "1e-4"],
         "ramp_fraction must be >= 0.001455692721143495 (57 FFT samples per edge of the "
         "Z integral), got 0.0001"),
    ])
    def test_nan_refused_before_evaluation(self, capsys, monkeypatch, argv, message):
        # split-check's tol widens its branch guard, so an infinite one
        # would refuse every point: it is refused before any integral runs
        def ran(*args):
            raise AssertionError("an integral ran")
        monkeypatch.setattr("causalatom.splitting.ladder", ran)
        monkeypatch.setattr("causalatom.wavepacket._z_integral_fft", ran)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message,
                                   "command": argv[0]}

    @pytest.mark.parametrize("argv, error, named", [
        (["split-check", "--u-max", "inf"], "GridResolutionError", "u_max must be finite"),
        (["split-check", "--u-min", "nan"], "GridResolutionError", "u_min must be finite"),
        (["split-check", "--u-min", "1e-300", "--u-max", "2e-300", "--points", "5"],
         "SingularPointError", "float range at u = 1e-300"),
        (["split-check", "--u-min", "1e300", "--u-max", "1.7e308"],
         "SingularPointError", "float range at u = 1e+300"),
        (["ww-sim", "--bandwidth-gammas", "nan"], "GridResolutionError",
         "bandwidth must be finite"),
        (["wavepacket-check", "--plateau-periods", "10", "--ramp-fraction", "1e300"],
         "CausalAtomError", "for plateau_periods = 10 and ramp_fraction = 1e+300"),
        (["wavepacket-check", "--plateau-periods", "10", str(10 ** 400)],
         "CausalAtomError", "plateau_periods value of 1329 bits leaves the float range"),
    ])
    def test_out_of_range_input_refused_cleanly(self, capfd, argv, error, named):
        # capfd also sees what LAPACK writes to file descriptor 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capfd.readouterr()
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == error
        assert named in diag["message"]

    @pytest.mark.parametrize("argv", [
        ["series-check", "--c0", "1e308"],
        ["wavepacket-check", "--plateau-periods", "10", "--ramp-fraction", "1e300"],
    ])
    def test_non_finite_result_exits_one(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert not target.exists()
        assert json.loads(err)["error"] == "CausalAtomError"

    @pytest.mark.parametrize("argv", [["split-check", "--points", "100001"],
                                      ["ww-sim", "--n-modes", "1000001"]])
    def test_oversized_grid_refused_before_allocation(self, capsys, monkeypatch, argv):
        def linspace(start, stop, num=50, **kwargs):
            raise AssertionError(f"np.linspace called with {num} points")
        monkeypatch.setattr(np, "linspace", linspace)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"

    def test_too_many_steps_refused_before_evolution(self, capsys, monkeypatch):
        def evolve_amplitudes(center, spacing, n_modes, coupling, dt, n_steps, stride):
            raise AssertionError(f"evolve_amplitudes called with {n_steps} steps")
        monkeypatch.setattr("causalatom.wworacle.evolve_amplitudes", evolve_amplitudes)
        code, out, err = run_cli(capsys, "ww-sim", "--n-modes", "1000",
                                 "--bandwidth-gammas", "50", "--dt-gammas", "1e-12")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"

    def test_unwritable_output_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--out",
                                 "/no/such/directory/out.json")
        assert code == 1


def one_row(doc: dict) -> cli.Table:
    """A plain dict as the one-row Table that the CSV writer takes."""
    return cli.Table({k: [v] for k, v in doc.items()})


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        doc = json.loads(out)
        assert doc["results"]["hbar_J_s"] == 1.054571817e-34
        assert doc["results"]["alpha_consistency_rel"] < 1e-6
        assert doc["results"]["c_m_s"] == 299792458.0

    # signed zeros, subnormals, the ends of the float range, whole floats and
    # values with all 17 digits; summed in order, they overflow
    EDGE = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 5.0, -3.0, 0.1, 1.0 / 3.0,
            1e308, 1e308, -1.7976931348623157e308]

    def test_edge_values_written_with_seventeen_digits(self):
        # every float fills a %.17g slot, whether or not the sum of all of
        # them overflows, in a dict, in a list and in a Table's rows
        finite = self.EDGE[:9] + self.EDGE[10:]
        assert math.isinf(sum(self.EDGE)) and math.isfinite(sum(finite))
        for row in (self.EDGE, finite):
            keys = [f"k{i}" for i in range(len(row))]
            expected = [f"{x:.17g}" for x in row]
            obj = "{" + ", ".join(f'"{k}": {v}' for k, v in zip(keys, expected)) + "}"
            table = cli.Table({k: [x, x] for k, x in zip(keys, row)})
            assert cli._dumps({"row": dict(zip(keys, row)), "rows": table, "x": row,
                               "y": row[0]}) == (
                '{"row": ' + obj + ', "rows": [' + obj + ", " + obj + '], "x": ['
                + ", ".join(expected) + '], "y": ' + expected[0] + "}\n")
            line = ",".join(expected) + "\n"
            assert cli._csv(table) == ",".join(keys) + "\n" + line + line
            assert cli._csv(one_row(dict(zip(keys, row)))) == ",".join(keys) + "\n" + line

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                            (-math.inf, "-inf")])
    def test_non_finite_floats_still_refused(self, bad, shown):
        message = rf"^result is not finite \({shown}\); nothing was written$"
        row = [1.0, bad, 2.0]
        for doc in (dict(zip("abc", row)), cli.Table({k: [x] for k, x in zip("abc", row)})):
            with pytest.raises(cli.CausalAtomError, match=message):
                cli._dumps({"rows": doc})
            with pytest.raises(cli.CausalAtomError, match=message):
                cli._csv(one_row(doc) if type(doc) is dict else doc)
        # the first one in document order is the one reported
        with pytest.raises(cli.CausalAtomError, match=message):
            cli._dumps({"a": [bad, math.nan], "b": math.inf})
        with pytest.raises(cli.CausalAtomError, match=message):
            cli._csv(cli.Table(a=[1.0, math.nan], b=[bad, math.inf]))

    @pytest.mark.parametrize("write, doc, shown", [
        # a loose value before a Table is refused before the Table's rows
        (cli._dumps, {"x": math.nan, "rows": cli.Table(a=[1.0, math.inf])}, "nan"),
        # a finite Table is written, and the loose value after it refused
        (cli._dumps, {"rows": cli.Table(a=[1.0, 2.0]), "y": -math.inf}, "-inf"),
        # a Table is scanned in row order, across a mixed column too
        (cli._dumps, {"rows": cli.Table(a=[1.0, math.inf],
                                        s=[complex(math.nan, 0), "b"])}, "nan"),
        (cli._csv, cli.Table(a=[1.0, math.inf], s=["x", math.nan]), "inf"),
    ])
    def test_first_non_finite_in_document_order_reported(self, write, doc, shown):
        with pytest.raises(cli.CausalAtomError,
                           match=rf"^result is not finite \({shown}\); nothing was written$"):
            write(doc)

    @pytest.mark.parametrize("value", [np.float64(1.5), np.int64(3), np.bool_(True),
                                       np.complex128(1j), np.array([1.0]), None])
    def test_numpy_values_refused_with_type_error(self, value):
        # handlers hand over Python builtins; anything else is a bug, not a number
        row, table = {"a": 1.0, "b": value}, cli.Table(a=[1.0, 2.0], b=[0.5, value])
        for write, doc in ((cli._dumps, row), (cli._csv, one_row(row)),
                           (cli._dumps, table), (cli._csv, table)):
            with pytest.raises(TypeError, match="cannot serialize"):
                write(doc)

    def test_percent_and_quotes_in_strings(self):
        # no float: the JSON is json.dumps' and the CSV is csv.writer's (with
        # its default terminator, which quotes "a\rb"), with every % in a key
        # or a string written as itself
        strings = ["100%", "%s", "%%", "%(x)s", "a,b", 'say "hi"', "two\nlines", "a\rb",
                   "", "é"]
        table = cli.Table({"a%s": strings, "n": list(range(len(strings))),
                           "%": [True, False] * (len(strings) // 2)})
        rows = [dict(zip(table, r)) for r in zip(*table.values())]
        doc = {"%d": "%f", "rows": table, "list": strings}
        assert cli._dumps(doc) == json.dumps({**doc, "rows": rows}) + "\n"
        buf = io.StringIO()
        csv.writer(buf).writerows([list(table), *(r.values() for r in rows)])
        assert cli._csv(table) == buf.getvalue().replace("\r\n", "\n")
        # with floats among them, the template still takes every % as text
        mixed = cli.Table({"x%s": [0.1, 0.2], "s": ["%.17g", "%"]})
        assert cli._csv(mixed) == 'x%s,s\n0.10000000000000001,%.17g\n' \
            '0.20000000000000001,%\n'
        assert cli._dumps({"%s": mixed}) == ('{"%s": [{"x%s": 0.10000000000000001, '
                                             '"s": "%.17g"}, {"x%s": 0.20000000000000001, '
                                             '"s": "%"}]}\n')

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_string_tables_are_what_csv_writer_writes(self, width):
        # every row of ``width`` of these fields, a row of one empty field
        # among them, which csv.writer quotes so that it reads back; with its
        # default "\r\n" terminator csv.writer quotes a carriage return too
        fields = ["", '"', 'say "hi"', "a,b", ",", "two\nlines", "\n", "\r", "x\ry", "x"]
        rows = list(itertools.product(fields, repeat=width))
        for header in (("", 'q"', "a,b")[:width], ("a", "b\nc", "d")[:width]):
            table = cli.Table({k: list(col) for k, col in zip(header, zip(*rows))})
            buf = io.StringIO()
            csv.writer(buf).writerows([header, *rows])
            text = cli._csv(table)
            assert text == buf.getvalue().replace("\r\n", "\n")
            assert list(csv.reader(io.StringIO(text))) == [list(header), *map(list, rows)]
        assert cli._csv(cli.Table(a=["", ""])) == 'a\n""\n""\n'


class TestOnePassTable:
    """A Table, its rows as columns, is written as the list of its rows; each
    row is what the same values write as a plain dict."""

    EDGE = TestFloatFormatting.EDGE
    # one value per edge case, the rest filler, so that the sum stays finite
    ROWS = [[-0.0, 5e-324, 1e308, 5.0, 1.0 / 3.0],
            [0.0, 2.2250738585072014e-308 / 3, -1e308, -3.0, 0.1],
            [1.7976931348623157e308, -0.0, 2.0, 1e-300, -1.7976931348623157e308]]
    KEYS = ("u", "a%s", "b", "c", "d")   # a % in a key must not reach the template

    @staticmethod
    def table(keys, rows):
        return cli.Table({k: list(col) for k, col in zip(keys, zip(*rows))})

    @staticmethod
    def per_row_json(keys, rows):
        return "[" + ", ".join(cli._dumps(dict(zip(keys, r)))[:-1] for r in rows) + "]\n"

    @staticmethod
    def per_row_csv(keys, rows):
        return "".join(cli._csv(one_row(dict(zip(keys, r)))).split("\n", 1)[1] for r in rows)

    def test_one_pass_writes_what_each_row_writes(self):
        table = self.table(self.KEYS, self.ROWS)
        expected = "[" + ", ".join(
            "{" + ", ".join(f'"{k}": {x:.17g}' for k, x in zip(self.KEYS, r)) + "}"
            for r in self.ROWS) + "]\n"
        assert cli._dumps(table) == self.per_row_json(self.KEYS, self.ROWS) == expected
        header = ",".join(self.KEYS) + "\n"
        csv_rows = "".join(",".join(f"{x:.17g}" for x in r) + "\n" for r in self.ROWS)
        assert cli._csv(table) == header + self.per_row_csv(self.KEYS, self.ROWS) \
            == header + csv_rows

    def test_mixed_and_overflowing_tables_write_what_each_row_writes(self):
        mixed = self.ROWS[:2] + [[*self.ROWS[2][:2], 2, "x", True]]
        overflowing = self.ROWS + [[1e308] * 5] * 2
        assert math.isinf(sum(x for r in overflowing for x in r))
        for rows in (mixed, overflowing):
            table = self.table(self.KEYS, rows)
            assert cli._dumps(table) == self.per_row_json(self.KEYS, rows)
            assert cli._csv(table) == (",".join(self.KEYS) + "\n"
                                       + self.per_row_csv(self.KEYS, rows))
        assert cli._dumps(cli.Table()) == "[]\n" and cli._csv(cli.Table()) == "\n"
        assert cli._dumps(cli.Table(a=[], b=[])) == "[]\n"
        assert cli._csv(cli.Table(a=[], b=[])) == "a,b\n"

    def test_row_template_writes_what_each_cell_writes(self):
        # a Table is written from one template per row, filled by one %; each
        # cell written on its own (a list of plain dicts) gives the same bytes
        table = cli.Table({"x%s": [0.1, -0.0, 1e308, 5e-324], "n": [1, -2, 10 ** 30, 0],
                           "s%%": ["a", "%d", 'q"u,o\nte', ""],
                           "b": [True, False, True, False]})
        rows = [dict(zip(table, r)) for r in zip(*table.values())]
        assert cli._dumps({"rows": table, "y": 2.5}) == cli._dumps({"rows": rows, "y": 2.5})
        cells = "".join(",".join(map(cli._csv_field, r.values())) + "\n" for r in rows)
        assert cli._csv(table) == "x%s,n,s%%,b\n" + cells

    def test_ragged_table_refused(self):
        ragged = cli.Table(a=[1.0, 2.0], b=[3.0])
        for write in (cli._dumps, cli._csv):
            with pytest.raises(ValueError, match=r"differ in length: \[2, 1\]"):
                write(ragged)

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                            (-math.inf, "-inf")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_refused_and_nothing_written(self, capsys, tmp_path, bad, shown,
                                                    fmt):
        rows = cli.Table({k: [float(i) for i in range(300)] for k in cli.SPLIT_CHECK_COLUMNS})
        rows["re_numeric"][200] = bad
        results = {"rows": rows, "max_im_rel_err": 0.0, "max_re_rel_err": 0.0,
                   "diagnostics": {"quadrature_evaluations": 1,
                                   "max_abs_error_estimate": 0.0}}
        render = cli.COMMANDS["split-check"][1]
        message = rf"^result is not finite \({shown}\); nothing was written$"
        for out in ("-", str(tmp_path / "out")):
            with pytest.raises(cli.CausalAtomError, match=message):
                render("split-check", fmt, out, {}, results)
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr() == ("", "")


def test_cli_module_imports_no_numpy():
    # cli hands the handlers' builtins to its writers; numpy stays in the
    # modules that compute, so that they can be imported only when needed
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "numpy"]


class TestParserOfOneCommand:
    """main builds only the subparser of the command its first argument
    names; what it prints and how it exits are what the parser with every
    subcommand gives."""

    CASES = [[], ["-h"], ["nope"], ["--version"], ["gamma", "--frobnicate"],
             ["gamma", "extra"], ["gamma", "-h"], ["split-check", "-h"],
             ["split-check", "--points", "x"], ["split-check", "--preset"],
             ["ww-sim", "--n-modes"], ["gamma", "--format", "xml"],
             ["wavepacket-check", "--plateau-periods"], ["shift", "--out"]]

    @staticmethod
    def outcome(capsys, parse):
        with pytest.raises(SystemExit) as exit_info:
            parse()
        captured = capsys.readouterr()
        return exit_info.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", CASES + [[name, "-h"] for name in cli.COMMANDS],
                             ids=" ".join)
    def test_same_output_and_exit_as_the_full_parser(self, capsys, argv):
        full = self.outcome(capsys, lambda: cli._build_parser().parse_args(argv))
        assert self.outcome(capsys, lambda: main(argv)) == full
        assert full[1] or full[2]

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_same_options(self, name):
        full = cli._build_parser().parse_args([name])
        assert cli._build_parser([name]).parse_args([name]) == full


class TestNoLocaleLookup:
    """main parses without gettext's catalog lookup, which imports locale,
    and leaves argparse's message hook as it found it."""

    def test_no_command_imports_locale(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # every command at its defaults in one fresh interpreter: after the
        # import, and after each command, whether locale has been imported
        script = (
            "import contextlib, io, sys\n"
            "import causalatom.cli as c\n"
            "seen = ['locale' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for name in c.COMMANDS:\n"
            "        seen.append((name, c.main([name]), 'locale' in sys.modules))\n"
            "print(seen)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=False)
        expected = [False] + [(name, 0, False) for name in cli.COMMANDS]
        assert proc.stdout == f"{expected}\n", proc.stderr

    @pytest.mark.parametrize("argv, code", [(["constants"], None), (["gamma", "-h"], 0),
                                            (["gamma", "--frobnicate"], 2), (["nope"], 2)])
    def test_message_hook_restored(self, capsys, argv, code):
        if code is None:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == code
        assert argparse._ is gettext.gettext


# every numeric flag of every command: (command, flag, default)
NUMERIC_FLAGS = [(name, "--" + flag.replace("_", "-"), default)
                 for name, (*_, flags) in cli.COMMANDS.items() for flag, default in flags.items()]


NON_FINITE = ["-inf", "-Infinity", "-infinity", "-NaN", "-nan", "-INF"]
FLOAT_FLAGS = [(c, f) for c, f, default in NUMERIC_FLAGS
               if default is None or isinstance(default, float)]


class TestNegativeValues:
    """A negative number in exponent form or not finite after a flag is that
    flag's value, as -0.5 is; argparse's own pattern reads -1e-3 and -inf as
    flags."""

    @pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", *NON_FINITE])
    @pytest.mark.parametrize("command, flag, default", NUMERIC_FLAGS,
                             ids=[f"{c} {f}" for c, f, _ in NUMERIC_FLAGS])
    def test_read_as_the_value(self, capsys, command, flag, default, value):
        argv = [command, flag, value]
        if default is None or isinstance(default, float):
            opts = cli._build_parser([command]).parse_args(argv)
            # repr, so that a nan compares equal to itself
            assert repr(getattr(opts, flag[2:].replace("-", "_"))) == repr(float(value))
        else:   # an int flag takes the value, and then refuses it as an int
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"{flag}: invalid int value: '{value}'" in capsys.readouterr().err

    def test_split_check_endpoint(self, capsys):
        code, out, err = run_cli(capsys, "split-check", "--u-min", "-1e-3", "--u-max", "2",
                                 "--points", "3")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["inputs"]["u_min"] == -1e-3
        assert [row["u"] for row in doc["results"]["rows"]] == np.linspace(-1e-3, 2.0, 3).tolist()

    def test_series_check_constant(self, capsys):
        code, out, err = run_cli(capsys, "series-check", "--c0", "-1e-3")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["c_input"]["c0"] == -1e-3

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS,
                             ids=[f"{c} {f}" for c, f in FLOAT_FLAGS])
    def test_non_finite_exits_one_as_with_equals(self, capsys, command, flag, value):
        # the typed diagnostic of --flag=value, no longer argparse's exit 2
        code, out, err = run_cli(capsys, command, flag, value)
        assert (code, out, err) == run_cli(capsys, command, f"{flag}={value}")
        assert code == 1 and out == ""
        assert list(json.loads(err)) == ["error", "message", "command"]

    @pytest.mark.parametrize("argv, flag", [
        (["split-check", "--preset"], "--preset"),
        (["ww-sim", "--n-modes"], "--n-modes"),
        (["split-check", "--u-min"], "--u-min"),
        (["split-check", "--u-min", "--u-max", "-1e-3"], "--u-min"),
    ])
    def test_missing_value_still_exits_two(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err


def test_schema_lists_every_command(schema):
    assert schema["properties"]["command"]["enum"] == list(cli.COMMANDS)


def test_golden_diff_gives_every_flag_a_value():
    # the golden diff compares two trees on its cases alone: a flag that no
    # case gives a value leaves the code that reads it uncompared
    import golden_diff
    valued = set()
    for argv in golden_diff.cases():
        for arg, following in zip(argv[1:], [*argv[2:], None]):
            flag, eq, _ = arg.partition("=")
            if eq or (following is not None and not following.startswith("--")):
                valued.add((argv[0], flag))
    missing = [(name, flag) for name, (*_, flags) in cli.COMMANDS.items()
               for flag in ("--preset", "--format", "--out",
                            *("--" + f.replace("_", "-") for f in flags))
               if (name, flag) not in valued]
    assert missing == []


def test_golden_diff_reports_largest_relative_difference():
    from golden_diff import differing_fields, max_diffs
    assert max_diffs(["1.0", "-2", "4"], ["1.0", "-2.5", "4.4"]) == (
        pytest.approx(0.2), pytest.approx(0.5))
    assert max_diffs(["-0.0"], ["0"]) == (0.0, 0.0)
    assert max_diffs(["1.0", "x"], ["1.0", "y"]) is None
    assert max_diffs([None], ["1"]) is None
    assert max_diffs(["1"], ["1", "2"]) is None
    # rounding noise around 0: every relative difference is large, the
    # absolute one shows it is noise
    assert max_diffs(["1e-17", "-3e-18"], ["-2e-17", "-3e-18"]) == (
        pytest.approx(1.5), pytest.approx(3e-17))
    old = b'{"results": {"rate": 1.0000000000000002, "n": 4, "flag": true, "note": "a"}}'
    new = b'{"results": {"rate": 1.0, "n": 4, "flag": false, "note": "b"}}'
    assert differing_fields(old, new) == [
        "results.rate (max rel diff 2.2e-16, max abs diff 2.2e-16)", "results.flag",
        "results.note"]
    assert differing_fields(b"t,p\n1,0.5\n2,0.25\n", b"t,p\n1,0.5\n2,0.2500001\n") == [
        "p (max rel diff 4e-07, max abs diff 1e-07)"]
