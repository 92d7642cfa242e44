import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from causalatom import cli
from causalatom.cli import main, resolve_preset
from causalatom.observables import hydrogen_1s2p_preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestSplitCheckCommand:
    def test_csv_row_count_and_tolerance(self, capsys):
        # the 50-point grid on [1.05, 5]
        code, out, _ = run_cli(capsys, "split-check", "--u-min", "1.05",
                               "--u-max", "5", "--points", "50",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,re_closed,im_closed,re_numeric,im_numeric,im_rel_err"
        assert len(lines) == 1 + 50
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-8

    def test_json_carries_real_fit(self, capsys, schema):
        code, out, _ = run_cli(capsys, "split-check", "--points", "6")
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["max_im_rel_err"] <= 1e-8
        ext = doc["results"]["real_difference_fit_extended"]
        assert ext["max_abs_deviation_bracket_units"] < 1e-6
        assert "real_agreement_status" in doc["results"]


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
        assert res["real_difference_fit_extended"]["max_abs_deviation_bracket_units"] < 1e-6

    @pytest.mark.parametrize("points", ["-1", "0", "1", "4"])
    def test_underdetermined_fit_refused(self, capsys, points):
        code, out, err = run_cli(capsys, "split-check", "--points", points)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"

    def test_equal_endpoints_refused(self, capsys):
        # 50 points but one distinct u: the fits would be rank 1
        code, out, err = run_cli(capsys, "split-check", "--u-min", "2",
                                 "--u-max", "2")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"


class TestSeriesCheckCommand:
    def test_agreement(self, capsys, schema):
        code, out, _ = run_cli(capsys, "series-check", "--c0", "1.5",
                               "--c1", "-2.0", "--c2", "0.5")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["results"]["max_rel_error"] < 1e-6
        assert doc["results"]["analytic"]["c_log3"] == -48.0


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
        assert doc["metadata"]["ww_backend"] == "numpy"
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


    @pytest.mark.parametrize("flag", ["--dt-gammas", "--t-end-gammas"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_time_inputs_refused(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "ww-sim", "--n-modes", "1000",
                                 "--bandwidth-gammas", "50", flag, value)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "GridResolutionError"


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

    def test_unknown_preset_name_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--preset", "unobtainium")
        assert code == 1
        assert json.loads(err)["error"] == "PresetError"

    @pytest.mark.parametrize("argv, message", [
        (["split-check", "--tol", "nan"], "tolerances must be > 0"),
        (["wavepacket-check", "--ramp-fraction", "nan"],
         "t_g and ramp must be positive"),
    ])
    def test_nan_refused_before_evaluation(self, capsys, argv, message):
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
         "CausalAtomError", "ramp = 4.055e+285 s"),
        (["wavepacket-check", "--plateau-periods", "10", "--ramp-fraction", "inf"],
         "CausalAtomError", "ramp = inf s"),
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
        def evolve_amplitudes(detunings, couplings, dt, n_steps, stride):
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


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        doc = json.loads(out)
        assert doc["results"]["hbar_J_s"] == 1.054571817e-34
        assert doc["results"]["alpha_consistency_rel"] < 1e-6
        assert doc["results"]["c_m_s"] == 299792458.0


def test_schema_lists_every_command(schema):
    assert schema["properties"]["command"]["enum"] == list(cli.COMMANDS)
