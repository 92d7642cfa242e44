import dataclasses
import math

import numpy as np
import pytest

from causalatom.errors import PresetError
from causalatom.observables import (
    CODATA2018,
    DISCREPANCY_NOTES,
    NORMALIZATION_EXACT,
    AtomParams,
    PhysicalConstants,
    atom_from_dict,
    atom_to_dict,
    compute_decay_observables,
    delta_final,
    extract_series_numerically,
    gamma_exact,
    gamma_leading,
    hydrogen_1s2p_preset,
    lamb_reference,
    lineshift_log_bracket,
    lineshift_series,
    shift_ratio,
    solve_normalization,
    synthetic_atom,
    z_factor,
)
from causalatom.selfenergy import NormalizationConstants

C0 = NormalizationConstants()


@pytest.fixture(scope="module")
def hyd():
    return hydrogen_1s2p_preset()


class TestConstants:
    def test_alpha_consistency(self):
        k = CODATA2018
        derived = k.e_charge ** 2 / (4 * math.pi * k.eps0 * k.hbar * k.c)
        assert abs(derived / k.alpha - 1.0) < 1e-6

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

    def test_compton_wavelength_identity(self, hyd):
        lhs = 1.0 / hyd.lambda_bar_e
        rhs = 1.0 / hyd.lambda_bar_g + hyd.omega_eg / hyd.constants.c
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_large_delta_u_rejected(self):
        k = CODATA2018
        with pytest.raises(ValueError):
            AtomParams(m_g=k.m_electron, omega_eg=0.2 * k.m_electron * k.c ** 2 / k.hbar,
                       d_eg_abs=1e-30, t_g=1.0, constants=k)

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


class TestGamma:
    def test_leading_frozen_value(self, hyd):
        assert gamma_leading(hyd) == pytest.approx(6.260449668e8, rel=1e-9)

    def test_leading_matches_textbook_formula(self, hyd):
        k = hyd.constants
        textbook = (hyd.omega_eg ** 3 * hyd.d_eg_abs ** 2) / (
            3.0 * math.pi * k.eps0 * k.hbar * k.c ** 3)
        assert gamma_leading(hyd) == pytest.approx(textbook, rel=1e-12)

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

    def test_real_part_with_solved_c_matches_delta_final(self):
        # At physical delta_u ~ 1e-8 the zeroed low-order terms sit ~1e-22
        # below the float noise of the bracket, so the real part is checked
        # on synthetic atoms where the cubic terms are resolvable; the
        # residual relative difference is the next series order, O(delta_u).
        c = NORMALIZATION_EXACT
        rels = []
        for du in (1e-2, 1e-3):
            atom = synthetic_atom(du)
            re = z_factor(atom, c).real / atom.t_g
            rel = abs(re / delta_final(atom) - 1.0)
            rels.append(rel)
            assert rel < 10.0 * du
        assert rels[1] < rels[0]


class TestLineShiftSeries:
    def test_analytic_c_zero(self, hyd):
        s = lineshift_series(hyd, C0)
        assert (s.c0, s.c1, s.c2, s.c3, s.c_log3) == (2.0, 8.0, 21.0, -45.0, -48.0)

    def test_analytic_solved_c(self, hyd):
        s = lineshift_series(hyd, NORMALIZATION_EXACT)
        assert abs(s.c0) < 1e-12
        assert abs(s.c1) < 1e-12
        assert abs(s.c2) < 1e-12
        assert s.c3 == pytest.approx(-24.0, abs=1e-12)

    def test_prefactor_identity(self, hyd):
        # 144 pi^2 = 6 * 24 pi^2: prefactor * 6 == 2 (2pi)^2 c * t2 prefactor
        from causalatom.selfenergy import t2_prefactor
        s = lineshift_series(hyd, C0)
        k = hyd.constants
        assert s.prefactor * 6.0 == pytest.approx(
            2.0 * (2 * math.pi) ** 2 * k.c * t2_prefactor(hyd), rel=1e-13)

    def test_extraction_matches_analytic_c_zero(self, hyd):
        fit = extract_series_numerically(hyd, C0)
        ana = lineshift_series(hyd, C0)
        for name in ("c_log3", "c0", "c1", "c2", "c3"):
            assert getattr(fit, name) == pytest.approx(getattr(ana, name), rel=1e-10)

    def test_extraction_matches_analytic_random_c(self, hyd):
        rng = np.random.RandomState(17)
        for _ in range(100):
            c = NormalizationConstants(*rng.uniform(-10, 10, 3))
            fit = extract_series_numerically(hyd, c)
            ana = lineshift_series(hyd, c)
            for name in ("c_log3", "c0", "c1", "c2", "c3"):
                a = getattr(ana, name)
                # acceptance tolerance is 1e-6 relative; the fit sits far below
                assert getattr(fit, name) == pytest.approx(a, rel=1e-6, abs=1e-9)
                assert getattr(fit, name) == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_extraction_residual_guard(self, hyd, monkeypatch):
        # a non-smooth sampled function must trip the residual check
        from causalatom import observables as obs
        import mpmath as mp

        real = obs._bracket_line_shift_mp

        def noisy(du, c):
            return real(du, c) * (1 + mp.mpf("1e-4") * mp.sin(1.0 / du))

        monkeypatch.setattr(obs, "_bracket_line_shift_mp", noisy)
        from causalatom.errors import FitResidualError
        with pytest.raises(FitResidualError):
            extract_series_numerically(hyd, C0)

    def test_fitted_log_coefficient_independent_of_c(self, hyd):
        f1 = extract_series_numerically(hyd, NormalizationConstants(3.0, -1.0, 2.0))
        f2 = extract_series_numerically(hyd, C0)
        assert f1.c_log3 == pytest.approx(f2.c_log3, abs=1e-10)
        assert f1.c_log3 == pytest.approx(-48.0, abs=1e-9)

    def test_fitted_constant_shift(self, hyd):
        base = extract_series_numerically(hyd, C0)
        up = extract_series_numerically(hyd, NormalizationConstants(1.0, 0.0, 0.0))
        assert up.c0 - base.c0 == pytest.approx(6.0, abs=1e-10)


def _reference_extract(c):
    """The fit as it stood before its design was cached: the grid, the basis,
    the normal matrix and its mp.lu_solve factorization are rebuilt per call.
    Returns (c_log3, c0, c1, c2, c3)."""
    import mpmath as mp
    from causalatom import observables as obs

    with mp.workdps(obs._EXTRACT_DPS):
        lo, hi = obs._EXTRACT_GRID_DECADES
        grid = [mp.mpf(10) ** (lo + (hi - lo) * i / (obs._EXTRACT_POINTS - 1))
                for i in range(obs._EXTRACT_POINTS)]
        y = [obs._bracket_line_shift_mp(du, c) for du in grid]
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
    def test_cached_design_matches_per_call_fit(self, hyd, c):
        fit = extract_series_numerically(hyd, c)
        assert (fit.c_log3, fit.c0, fit.c1, fit.c2, fit.c3) == _reference_extract(c)

    def test_independent_of_call_order(self, hyd):
        # a fit that mutated the cached design would change the later ones
        from causalatom import observables as obs
        cs = [C0, NORMALIZATION_EXACT, NormalizationConstants(2.0, -5.0, 9.0)]
        obs._series_design.cache_clear()
        forward = [extract_series_numerically(hyd, c) for c in cs]
        obs._series_design.cache_clear()
        backward = [extract_series_numerically(hyd, c) for c in reversed(cs)][::-1]
        assert forward == backward
        assert [extract_series_numerically(hyd, c) for c in cs] == forward

    def test_design_built_once_per_process(self, hyd):
        from causalatom import observables as obs
        obs._series_design.cache_clear()
        solve_normalization(hyd)
        extract_series_numerically(hyd, NORMALIZATION_EXACT)
        info = obs._series_design.cache_info()
        assert (info.misses, info.hits) == (1, 5)


class TestSolveNormalization:
    def test_solved_triple(self, hyd):
        c = solve_normalization(hyd)
        assert c.c0 == pytest.approx(-3.5, abs=1e-10)
        assert c.c1 == pytest.approx(8.0, abs=1e-10)
        assert c.c2 == pytest.approx(-29.0 / 6.0, abs=1e-10)

    def test_solution_zeroes_low_coefficients(self, hyd):
        # substitute the exact rational triple into both series
        ana = lineshift_series(hyd, NORMALIZATION_EXACT)
        fit = extract_series_numerically(hyd, NORMALIZATION_EXACT)
        tol = 1e-10 * abs(fit.c3)
        for s in (ana, fit):
            assert abs(s.c0) <= tol
            assert abs(s.c1) <= tol
            assert abs(s.c2) <= tol

    def test_residual_cubic(self, hyd):
        c = solve_normalization(hyd)
        fit = extract_series_numerically(hyd, c)
        assert fit.c3 == pytest.approx(-24.0, abs=1e-8)
        assert fit.c_log3 == pytest.approx(-48.0, abs=1e-8)


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
            fit = extract_series_numerically(atom, NORMALIZATION_EXACT)
            bracket = (fit.c0 + fit.c1 * du + fit.c2 * du ** 2 + fit.c3 * du ** 3
                       + fit.c_log3 * du ** 3 * math.log(2.0 * du))
            assert fit.prefactor * bracket == pytest.approx(delta_final(atom), rel=1e-8)

    def test_mass_dependence_is_logarithmic(self, hyd):
        heavy = dataclasses.replace(hyd, m_g=2.0 * hyd.m_g)
        assert gamma_leading(heavy) == gamma_leading(hyd)
        diff = delta_final(heavy) - delta_final(hyd)
        expect = -gamma_leading(hyd) / (2 * math.pi) * 2.0 * math.log(0.5)
        assert diff == pytest.approx(expect, rel=1e-12)

    def test_lamb_reference_frozen(self):
        v = lamb_reference(CODATA2018)
        assert v == pytest.approx(-6.2025254e10, rel=1e-6)
        assert v < 0.0
        bracket = -25.25 + (4.0 / 3.0) * math.log(CODATA2018.alpha ** -2)
        assert bracket == pytest.approx(-12.12935, rel=1e-5)

    def test_ratio_frozen_and_in_band(self, hyd):
        r = shift_ratio(hyd)
        assert r.value == pytest.approx(-0.0550824754, rel=1e-7)
        assert 0.050 <= r.magnitude <= 0.060

    def test_ratio_scales_with_dipole_squared(self, hyd):
        double = dataclasses.replace(hyd, d_eg_abs=2.0 * hyd.d_eg_abs)
        assert shift_ratio(double).value == pytest.approx(4.0 * shift_ratio(hyd).value,
                                                          rel=1e-12)


class TestAggregate:
    def test_decay_observables(self, hyd):
        obs = compute_decay_observables(hyd, NORMALIZATION_EXACT)
        assert obs.gamma_exact > 0
        assert abs(obs.gamma_exact / obs.gamma_leading - 1.0) <= 5.0 * hyd.delta_u
        assert obs.ratio == pytest.approx(shift_ratio(hyd).value, rel=1e-12)
        assert obs.z_factor.imag / hyd.t_g == pytest.approx(obs.gamma_exact, rel=1e-12)

    def test_notes_present(self):
        assert set(DISCREPANCY_NOTES) == {"c_ordering", "gamma_denominator_power",
                                          "ratio_sign"}
        assert "(-7/2, 8, -29/6)" in DISCREPANCY_NOTES["c_ordering"]
