import contextlib
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causalatom import observables, selfenergy, wavepacket
from causalatom.errors import CausalAtomError, FitResidualError, PresetError
from causalatom.observables import (
    CODATA2018,
    DISCREPANCY_NOTES,
    NORMALIZATION_EXACT,
    AtomParams,
    NormalizationConstants,
    PhysicalConstants,
    atom_from_dict,
    atom_to_dict,
    delta_final,
    extract_series_numerically,
    gamma_exact,
    gamma_leading,
    hydrogen_1s2p_preset,
    lamb_reference,
    lineshift_log_bracket,
    lineshift_series,
    shift_prefactor,
    shift_ratio,
    solve_normalization,
    r2_prefactor,
    synthetic_atom,
)
from causalatom.wavepacket import z_factor

C0 = NormalizationConstants()


@pytest.fixture(scope="module")
def hyd():
    return hydrogen_1s2p_preset()


class TestConstants:
    def test_alpha_consistency(self):
        k = CODATA2018
        derived = k.e_charge ** 2 / (4 * math.pi * k.eps0 * k.hbar * k.c)
        assert abs(derived / k.alpha - 1.0) < 1e-6
        assert k.alpha_consistency_rel == abs(derived / k.alpha - 1.0)   # 4 and 4.0 agree

    def test_inconsistent_registry_rejected(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=1e-34, c=3e8, eps0=9e-12, e_charge=1.6e-19,
                              a0=5.3e-11, alpha=1.0 / 137.0, m_electron=9.1e-31,
                              m_proton=1.67e-27)

    def test_positivity(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CODATA2018, hbar=-1.0)


class TestAtomParams:
    def test_hydrogen_preset_values(self, hyd):
        # frozen independent constant arithmetic (CODATA-2018)
        assert hyd.omega_eg == pytest.approx(1.5496527977857004e16, rel=1e-12)
        assert hyd.d_eg_abs == pytest.approx(6.31582692811054e-30, rel=1e-12)
        assert hyd.d_eg_abs / (CODATA2018.e_charge * CODATA2018.a0) == pytest.approx(
            0.744935539, rel=1e-8)
        assert hyd.delta_u == pytest.approx(1.0865129698e-08, rel=1e-9)
        assert hyd.m_g == CODATA2018.m_proton + CODATA2018.m_electron

    def test_synthetic_atom_has_hydrogen_line(self, hyd):
        atom = synthetic_atom(1e-2)
        assert (atom.omega_eg, atom.d_eg_abs) == (hyd.omega_eg, hyd.d_eg_abs)

    def test_large_delta_u_rejected(self):
        k = CODATA2018
        with pytest.raises(ValueError):
            AtomParams(m_g=k.m_electron, omega_eg=0.2 * k.m_electron * k.c ** 2 / k.hbar,
                       d_eg_abs=1e-30, t_g=1.0)

    def test_dict_round_trip(self, hyd):
        doc = atom_to_dict(hyd)
        again = atom_from_dict(doc)
        assert again == hyd

    def test_unknown_keys_rejected(self, hyd):
        doc = atom_to_dict(hyd)
        doc["extra"] = 1.0
        with pytest.raises(PresetError):
            atom_from_dict(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(PresetError):
            atom_from_dict({"m_g_kg": 1e-27})

    def test_subnormal_lambda_bar_power_refused(self):
        # lambda_bar_g^(3/2) is subnormal past m_g = 1e163 kg, where S would
        # keep only the digits left there (2.7e-14 off on this atom); the
        # extreme dipoles, whose |d|^2 is 1e190 and subnormal, stay accepted
        import golden_diff
        heavy = {"m_g_kg": 7.04e164, "omega_eg_rad_s": 3e214, "d_eg_Cm": 1.1e-178,
                 "t_g_s": 1.0}
        with pytest.raises(PresetError, match="subnormal for m_g = 7.04e"):
            atom_from_dict(heavy)
        # lambda_bar_g^(3/2) overflows for a tiny mass
        with pytest.raises(ValueError, match="leaves the float range for .* m_g = 1e-250"):
            AtomParams(m_g=1e-250, omega_eg=1e-210, d_eg_abs=1e-30, t_g=1.0)
        for preset in ("tiny-scale.json", "big-dipole.json"):
            atom = atom_from_dict(golden_diff.PRESETS[preset])
            assert math.isfinite(shift_prefactor(atom)) and shift_prefactor(atom) > 0


class TestGamma:
    def test_leading_frozen_value(self, hyd):
        assert gamma_leading(hyd) == pytest.approx(6.260449668e8, rel=1e-9)

    @pytest.mark.parametrize("preset", ["hydrogen-1s2p", "synthetic:1e-2", "big-dipole.json",
                                        "tiny-scale.json"])
    def test_leading_matches_textbook_formula(self, preset):
        # every SI prefactor against its textbook form in 40 digits, on atoms
        # whose |d|^2 is ordinary, 1e190 and subnormal (1e-320)
        import golden_diff
        import mpmath as mp
        atom = (hydrogen_1s2p_preset() if preset == "hydrogen-1s2p"
                else synthetic_atom(1e-2) if preset == "synthetic:1e-2"
                else atom_from_dict(golden_diff.PRESETS[preset]))
        k = CODATA2018
        with mp.workdps(40):
            d, w, hbar, c, eps0 = (mp.mpf(v) for v in (atom.d_eg_abs, atom.omega_eg,
                                                         k.hbar, k.c, k.eps0))
            lb = hbar / (mp.mpf(atom.m_g) * c)
            r2 = d ** 2 / (6 * (2 * mp.pi) ** 4 * hbar * c * eps0 * lb ** 3)
            want = {"gamma_leading": d ** 2 * w ** 3 / (3 * mp.pi * eps0 * hbar * c ** 3),
                    "shift_prefactor": d ** 2 / (144 * mp.pi ** 2 * eps0 * hbar * lb ** 3),
                    "r2_prefactor": r2,
                    # 2 (2pi)^2 t2 lambda_bar_g with t2 = r2/2
                    "wavepacket scale": 4 * mp.pi ** 2 * r2 * lb}
            got = {"gamma_leading": gamma_leading(atom),
                   "shift_prefactor": shift_prefactor(atom),
                   "r2_prefactor": r2_prefactor(atom),
                   # as cli._cmd_wavepacket_check forms it
                   "wavepacket scale": 6.0 * shift_prefactor(atom) * atom.lambda_bar_g / k.c}
            for name, value in got.items():
                assert abs(value / want[name] - 1) <= 5e-16, name

    def test_zero_dipole(self, hyd):
        silent = dataclasses.replace(hyd, d_eg_abs=0.0)
        assert gamma_exact(silent) == 0.0
        assert gamma_leading(silent) == 0.0

    def test_dipole_scaling(self, hyd):
        double = dataclasses.replace(hyd, d_eg_abs=2 * hyd.d_eg_abs)
        assert gamma_exact(double) == pytest.approx(4 * gamma_exact(hyd), rel=1e-12)

    def test_frequency_cubed(self, hyd):
        double = dataclasses.replace(hyd, omega_eg=2 * hyd.omega_eg)
        assert gamma_leading(double) == pytest.approx(8 * gamma_leading(hyd), rel=1e-12)

    def test_exact_vs_leading_order_delta_u(self, hyd):
        du = hyd.delta_u
        r5 = gamma_exact(hyd, denominator_power=5) / gamma_leading(hyd) - 1.0
        r4 = gamma_exact(hyd, denominator_power=4) / gamma_leading(hyd) - 1.0
        # the exact/leading ratio is 1 - (7/2) du + O(du^2) for power 5
        # and 1 - (5/2) du for power 4; both negative, both O(du)
        assert r5 == pytest.approx(-3.5 * du, rel=1e-6)
        assert r4 == pytest.approx(-2.5 * du, rel=1e-6)
        assert 0.0 < abs(r5) < 5.0 * du

    @pytest.mark.parametrize("power, ratio_minus_one", [(5, -0.03996), (4, -0.02869)])
    def test_exact_rate_where_its_numerator_underflows(self, power, ratio_minus_one):
        # du^3 (2 + du)^3 |d|^2 underflowed to 0 on this atom (du = 0.011734),
        # where gamma_leading is 4.2e-302
        import mpmath as mp
        atom = AtomParams(m_g=1e-49, omega_eg=1.0, d_eg_abs=1e-160, t_g=1.0)
        ratio = gamma_exact(atom, power) / gamma_leading(atom)
        with mp.workdps(50):
            du = mp.mpf(atom.delta_u)
            want = (1 + du / 2) ** 3 / (1 + du) ** power
            assert abs(ratio / want - 1) <= 1e-15
        assert ratio - 1.0 == pytest.approx(ratio_minus_one, rel=1e-3)

    def test_bad_power(self, hyd):
        with pytest.raises(ValueError):
            gamma_exact(hyd, denominator_power=3)


class TestZFactor:
    def test_rate_identity_inverse_u(self, hyd):
        # Im(Z/t_g) with the 1/u_res weight equals the displayed power-5 rate
        z = z_factor(hyd, C0, resonant_weight="inverse_u")
        assert z.imag / hyd.t_g == pytest.approx(gamma_exact(hyd, 5), rel=1e-12)

    def test_rate_identity_unity(self, hyd):
        z = z_factor(hyd, C0, resonant_weight="unity")
        assert z.imag / hyd.t_g == pytest.approx(gamma_exact(hyd, 4), rel=1e-12)

    def test_linear_in_t_g(self, hyd):
        longer = dataclasses.replace(hyd, t_g=7.5 * hyd.t_g)
        assert z_factor(longer, C0) == pytest.approx(7.5 * z_factor(hyd, C0), rel=1e-13)

    def test_stable_arbitrarily_close_to_resonance(self):
        # the delta_u-form evaluator has no u = 1 catastrophe: the algebraic
        # rate identity holds even at delta_u = 1e-13
        atom = synthetic_atom(1e-13)
        z = z_factor(atom, C0)
        assert z.imag / atom.t_g == pytest.approx(gamma_exact(atom, 5), rel=1e-10)
        assert math.isfinite(z.real)

    def test_gamma_independent_of_normalization(self, hyd):
        rng = np.random.RandomState(5)
        ref = z_factor(hyd, C0).imag
        for _ in range(25):
            c = NormalizationConstants(*rng.uniform(-10, 10, 3))
            assert z_factor(hyd, c).imag == pytest.approx(ref, rel=1e-12)

    def test_real_part_with_solved_c_matches_delta_final(self, hyd):
        # Re Z/t_g at C_exact is the all-orders shift.  Its relative gap from
        # delta_final is the next series order, about -3.6 delta_u with the
        # 1/u_res weight and one delta_u more with weight 1, from hydrogen's
        # 1.09e-8 up to 1e-2
        atoms = [hyd] + [synthetic_atom(10.0 ** -k) for k in range(7, 1, -1)]
        for weight, lo, hi in (("inverse_u", -4.0, -3.5), ("unity", -3.0, -2.5)):
            for atom in atoms:
                shift = z_factor(atom, NORMALIZATION_EXACT, weight).real / atom.t_g
                gap = (shift / delta_final(atom) - 1.0) / atom.delta_u
                assert lo <= gap <= hi, (weight, atom.delta_u, gap)


class TestLineShiftSeries:
    def test_analytic_c_zero(self):
        s = lineshift_series(C0)
        assert (s.c0, s.c1, s.c2, s.c3, s.c_log3) == (2.0, 8.0, 21.0, -45.0, -48.0)

    def test_analytic_solved_c(self):
        s = lineshift_series(NORMALIZATION_EXACT)
        assert abs(s.c0) < 1e-12
        assert abs(s.c1) < 1e-12
        assert abs(s.c2) < 1e-12
        assert s.c3 == pytest.approx(-24.0, abs=1e-12)

    def test_prefactor_identity(self, hyd):
        # 144 pi^2 = 6 * 24 pi^2: prefactor * 6 == (2pi)^2 c * r2 prefactor
        assert shift_prefactor(hyd) * 6.0 == pytest.approx(
            (2 * math.pi) ** 2 * CODATA2018.c * r2_prefactor(hyd), rel=1e-13)

    @staticmethod
    def _assert_at_float_rounding(fit, ana):
        # every fitted coefficient within 4e-16 of the largest analytic one:
        # the float rounding of both series, as the fit's bias is below 2e-18
        names = ("c_log3", "c0", "c1", "c2", "c3")
        scale = max(abs(getattr(ana, name)) for name in names)
        for name in names:
            assert abs(getattr(fit, name) - getattr(ana, name)) <= 4e-16 * scale, name

    def test_extraction_matches_analytic_c_zero(self):
        self._assert_at_float_rounding(extract_series_numerically(C0), lineshift_series(C0))

    def test_extraction_matches_analytic_exact_c(self):
        self._assert_at_float_rounding(extract_series_numerically(NORMALIZATION_EXACT),
                                       lineshift_series(NORMALIZATION_EXACT))

    def test_extraction_matches_analytic_random_c(self):
        rng = np.random.RandomState(17)
        for _ in range(100):
            c = NormalizationConstants(*rng.uniform(-10, 10, 3))
            self._assert_at_float_rounding(extract_series_numerically(c), lineshift_series(c))

    def test_extraction_residual_guard(self, monkeypatch):
        # a non-smooth sampled function must trip the residual check, in the
        # fit and in the solve's check fit
        with _noisy_samples(monkeypatch, 1e-4):
            with pytest.raises(FitResidualError):
                extract_series_numerically(C0)
            with pytest.raises(FitResidualError):
                solve_normalization()

    def test_residual_guard_trips_on_noise_near_float_rounding(self, monkeypatch):
        # the basis reproduces the samples to 2.3e-31 of their scale, and the
        # bound is 1e-20 of it: relative noise of 1e-18 swamps c3, whose term
        # is at most 1e-21 of the samples, and is refused
        with _noisy_samples(monkeypatch, 1e-18):
            with pytest.raises(FitResidualError, match="exceeds 1e-20"):
                extract_series_numerically(C0)

    def test_fitted_log_coefficient_independent_of_c(self):
        f1 = extract_series_numerically(NormalizationConstants(3.0, -1.0, 2.0))
        f2 = extract_series_numerically(C0)
        assert f1.c_log3 == pytest.approx(f2.c_log3, abs=1e-10)
        assert f1.c_log3 == pytest.approx(-48.0, abs=1e-9)

    def test_fitted_constant_shift(self):
        base = extract_series_numerically(C0)
        up = extract_series_numerically(NormalizationConstants(1.0, 0.0, 0.0))
        assert up.c0 - base.c0 == pytest.approx(6.0, abs=1e-10)


@contextlib.contextmanager
def _perturbed_samples(monkeypatch, perturb):
    """The design's samples at C = 0, each v at du made perturb(v, du) in
    the fit's decimal context.  The design caches its samples: it is cleared
    so that they are the perturbed ones, and again so that they do not
    reach a later fit."""
    from causalatom import observables as obs

    real = obs._line_shift_samples

    def perturbed(grid, ln_grid):
        samples = real(grid, ln_grid)
        with obs._digits(obs._EXTRACT_DPS):
            return [perturb(v, du) for v, du in zip(samples, grid)]

    monkeypatch.setattr(obs, "_line_shift_samples", perturbed)
    obs._series_design.cache_clear()
    try:
        yield
    finally:
        obs._series_design.cache_clear()


def _noisy_samples(monkeypatch, rel_noise):
    """The design's samples at C = 0 times 1 + rel_noise sin(1/du)."""
    from decimal import Decimal
    return _perturbed_samples(
        monkeypatch, lambda v, du: v * (1 + Decimal(rel_noise * math.sin(1.0 / float(du)))))


def _bracket_line_shift_mp(du, c):
    """6 Re B(1 + du; C) / (1 + du) in mpmath arithmetic (bracket units)."""
    import mpmath as mp
    from causalatom.observables import _sym_bracket

    u = 1 + du
    return 6 * _sym_bracket(u, du * (2 + du), mp.log(du) + mp.log(2 + du), 0, c) / u


def _reference_extract(c):
    """The fit in mpmath, independent of the package's decimal one: the
    grid, the basis, the samples at C, the normal matrix and its
    mp.lu_solve factorization are built per call.
    Returns (c_log3, c0, c1, c2, c3)."""
    import mpmath as mp
    from causalatom import observables as obs

    with mp.workdps(obs._EXTRACT_DPS):
        lo, hi = obs._EXTRACT_GRID_DECADES
        grid = [mp.mpf(10) ** (lo + (hi - lo) * i / (obs._EXTRACT_POINTS - 1))
                for i in range(obs._EXTRACT_POINTS)]
        y = [_bracket_line_shift_mp(du, c) for du in grid]
        rows = []
        for du in grid:
            row = []
            for k in range(obs._EXTRACT_MAX_ORDER + 1):
                row.append(du ** k)
                if k >= 3:
                    row.append(du ** k * mp.log(du))
            rows.append(row)
        a = mp.matrix(rows)
        scale = [max(abs(a[i, j]) for i in range(a.rows)) for j in range(a.cols)]
        for j in range(a.cols):
            for i in range(a.rows):
                a[i, j] = a[i, j] / scale[j]
        beta = mp.lu_solve(a.T * a, a.T * mp.matrix(y))
        b = [beta[j] / scale[j] for j in range(5)]
        return (float(b[4]), float(b[0]), float(b[1]), float(b[2]),
                float(b[3] - b[4] * mp.log(2)))


class TestSeriesDesign:
    @pytest.mark.parametrize("c", [C0, NormalizationConstants(1.5, -2.0, 0.5),
                                   NormalizationConstants(-1e4, 3.25, 7e2)])
    def test_cached_design_matches_per_call_fit(self, c):
        fit = extract_series_numerically(c)
        assert (fit.c_log3, fit.c0, fit.c1, fit.c2, fit.c3) == _reference_extract(c)

    def test_independent_of_call_order(self):
        # a fit that mutated the cached design would change the later ones
        from causalatom import observables as obs
        cs = [C0, NORMALIZATION_EXACT, NormalizationConstants(2.0, -5.0, 9.0)]
        obs._series_design.cache_clear()
        forward = [extract_series_numerically(c) for c in cs]
        obs._series_design.cache_clear()
        backward = [extract_series_numerically(c) for c in reversed(cs)][::-1]
        assert forward == backward
        assert [extract_series_numerically(c) for c in cs] == forward

    def test_design_built_once_per_process(self):
        # each public fit fetches the design once: the solve's two fits (C =
        # 0 and the check at the solved C) are public fits
        from causalatom import observables as obs
        obs._series_design.cache_clear()
        solve_normalization()
        extract_series_numerically(NORMALIZATION_EXACT)
        info = obs._series_design.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_solve_makes_two_normal_matrix_solves(self, monkeypatch):
        # the fit at C = 0 and the check fit; the map from C to the fitted
        # low coefficients is exact, so no fit of a derivative column is made
        from causalatom import observables as obs
        calls = []
        real = obs._lu_solve

        def counted(lu, b):
            calls.append(b)
            return real(lu, b)

        monkeypatch.setattr(obs, "_lu_solve", counted)
        solve_normalization()
        assert len(calls) == 2

    def test_bracket_sampled_once_per_fit(self, monkeypatch):
        # the design holds the samples at C = 0: one sampling per process
        from causalatom import observables as obs
        calls = []
        real = obs._line_shift_samples

        def counted(grid, ln_grid):
            calls.append(len(grid))
            return real(grid, ln_grid)

        monkeypatch.setattr(obs, "_line_shift_samples", counted)
        obs._series_design.cache_clear()
        solve_normalization()
        extract_series_numerically(C0)
        extract_series_numerically(NORMALIZATION_EXACT)
        assert calls == [obs._EXTRACT_POINTS]

    def test_decimal_samples_are_the_float_bracket(self):
        # the decimal sampler's rational form _sym_bracket against the float
        # evaluator's factored form at C = 0
        from causalatom import observables as obs
        from causalatom.selfenergy import sym_bracket
        grid, ln_grid = obs._series_design()[:2]
        for du, y in zip(grid, obs._line_shift_samples(grid, ln_grid)):
            b = sym_bracket(c=C0, d=float(du)).real
            assert float(y) == pytest.approx(6.0 * b / (1.0 + float(du)), rel=1e-12)

    def test_solve_leaves_the_decimal_context_alone(self):
        import decimal
        before = decimal.getcontext().prec
        solve_normalization()
        assert decimal.getcontext().prec == before


class TestSolveNormalization:
    def test_solved_triple(self):
        c, _ = solve_normalization()
        assert c.c0 == pytest.approx(-3.5, abs=1e-10)
        assert c.c1 == pytest.approx(8.0, abs=1e-10)
        assert c.c2 == pytest.approx(-29.0 / 6.0, abs=1e-10)

    def test_solution_zeroes_low_coefficients(self):
        # substitute the exact rational triple into both series
        ana = lineshift_series(NORMALIZATION_EXACT)
        fit = extract_series_numerically(NORMALIZATION_EXACT)
        tol = 1e-10 * abs(fit.c3)
        for s in (ana, fit):
            assert abs(s.c0) <= tol
            assert abs(s.c1) <= tol
            assert abs(s.c2) <= tol

    def test_residual_cubic(self):
        c, series = solve_normalization()
        fit = extract_series_numerically(c)
        assert series == fit   # the check the solve returns is the fit at its constants
        assert fit.c3 == pytest.approx(-24.0, abs=1e-8)
        assert fit.c_log3 == pytest.approx(-48.0, abs=1e-8)

    def test_check_refuses_a_cubic_off_by_more_than_rounding(self, monkeypatch):
        # eps du^3 added to the samples stays inside the basis: the solved C
        # and the residual do not change, and the check's c3 moves by eps,
        # 1e-12 here, which a bound of 1e-8 let through
        from decimal import Decimal
        with _perturbed_samples(monkeypatch, lambda v, du: v + Decimal("1e-12") * du ** 3):
            with pytest.raises(CausalAtomError, match="residual cubic coefficient"):
                solve_normalization()

    def test_solution_is_the_exact_triple_bit_for_bit(self):
        # the floats of the exact (-7/2, 8, -29/6)
        assert solve_normalization()[0] == NORMALIZATION_EXACT

    def test_low_coefficients_are_the_rounding_of_c2(self):
        # -29/6 has no float: the series at the solved C keeps 6 (fl(-29/6) +
        # 29/6) in c0 and in c1, which are not fit noise; c2 (~ -1.4e-26) is
        from fractions import Fraction
        _, series = solve_normalization()
        lost = float(6 * (Fraction(-29.0 / 6.0) + Fraction(29, 6)))
        assert lost == pytest.approx(1.7763568394e-15, rel=1e-10)
        assert abs(series.c0 - lost) <= 1e-20
        assert abs(series.c1 - lost) <= 1e-20
        assert abs(series.c2) <= 1e-24


class TestShifts:
    def test_delta_final_frozen(self, hyd):
        assert delta_final(hyd) == pytest.approx(3.4165045e9, rel=1e-6)
        assert lineshift_log_bracket(hyd.delta_u) == pytest.approx(-34.2891202, rel=1e-8)

    def test_bracket_root(self):
        du = math.exp(-0.5) / 2.0
        assert lineshift_log_bracket(du) == pytest.approx(0.0, abs=1e-14)

    def test_delta_final_equals_truncated_series_with_solved_c(self):
        # with the solved constants the fitted series collapses to the two
        # cubic terms, whose prefactor-scaled sum IS delta_final.  The float
        # rounding of -29/6 leaves a ~1e-15 constant in the bracket, so the
        # identity is checked where the cubic terms dominate that leftover.
        for du in (1e-2, 1e-3):
            atom = synthetic_atom(du)
            fit = extract_series_numerically(NORMALIZATION_EXACT)
            bracket = (fit.c0 + fit.c1 * du + fit.c2 * du ** 2 + fit.c3 * du ** 3
                       + fit.c_log3 * du ** 3 * math.log(2.0 * du))
            assert shift_prefactor(atom) * bracket == pytest.approx(delta_final(atom),
                                                                    rel=1e-8)

    def test_mass_dependence_is_logarithmic(self, hyd):
        heavy = dataclasses.replace(hyd, m_g=2.0 * hyd.m_g)
        assert gamma_leading(heavy) == gamma_leading(hyd)
        diff = delta_final(heavy) - delta_final(hyd)
        expect = -gamma_leading(hyd) / (2 * math.pi) * 2.0 * math.log(0.5)
        assert diff == pytest.approx(expect, rel=1e-12)

    def test_lamb_reference_frozen(self):
        v = lamb_reference()
        assert v == pytest.approx(-6.2025254e10, rel=1e-6)
        assert v < 0.0
        bracket = -25.25 + (4.0 / 3.0) * math.log(CODATA2018.alpha ** -2)
        assert bracket == pytest.approx(-12.12935, rel=1e-5)

    def test_ratio_frozen_and_in_band(self, hyd):
        r = shift_ratio(hyd)
        assert r == pytest.approx(-0.0550824754, rel=1e-7)
        assert 0.050 <= abs(r) <= 0.060

    def test_ratio_scales_with_dipole_squared(self, hyd):
        double = dataclasses.replace(hyd, d_eg_abs=2.0 * hyd.d_eg_abs)
        assert shift_ratio(double) == pytest.approx(4.0 * shift_ratio(hyd), rel=1e-12)


class TestAggregate:
    def test_notes_present(self):
        assert set(DISCREPANCY_NOTES) == {"c_ordering", "gamma_denominator_power",
                                          "r2_rational_part", "ratio_sign"}
        assert "(-7/2, 8, -29/6)" in DISCREPANCY_NOTES["c_ordering"]
        assert "(5/4 - 11u^2/12 - 1/(2u^2))" in DISCREPANCY_NOTES["r2_rational_part"]


class TestScalarLayer:
    """observables is the numpy-free scalar layer: the decay rate, the line
    shift and its series fit run without numpy or the quadrature."""

    def test_observables_runs_without_numpy(self):
        src = str(Path(observables.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\n"
            "import causalatom.observables as o\n"
            "for atom in (o.hydrogen_1s2p_preset(), o.synthetic_atom(1e-3)):\n"
            "    o.gamma_exact(atom), o.shift_prefactor(atom), o.shift_ratio(atom)\n"
            "o.lineshift_series(), o.extract_series_numerically(), o.solve_normalization()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'causalatom')))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=False)
        expected = ["causalatom", "causalatom.errors", "causalatom.observables"]
        assert proc.stdout == f"{expected}\n", proc.stderr

    def test_bracket_and_prefactors_have_one_home(self):
        homes = {name: observables for name in ("NormalizationConstants",
                                                "r2_prefactor", "shift_prefactor",
                                                "_front_term", "_sym_bracket")}
        homes["z_factor"] = wavepacket
        for name, home in homes.items():
            assert getattr(home, name).__module__ == home.__name__
        assert set(homes).isdisjoint(selfenergy.__all__)
        assert "z_factor" not in observables.__all__
