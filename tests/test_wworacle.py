import math

import numpy as np
import pytest

from causalatom._ww_kernels import BLOCK, _add_square, _dirichlet_kernel, evolve_amplitudes
from causalatom.errors import FitResidualError, GridResolutionError
from causalatom.observables import gamma_leading, hydrogen_1s2p_preset
from causalatom.wworacle import (
    AmplitudeState,
    ModeGrid,
    build_grid,
    build_grid_window,
    evolve,
    fit_decay,
)


def per_mode_reference(detunings, couplings, dt, n_steps, stride):
    """The Crank-Nicolson loop over explicit mode amplitudes, O(modes x steps):
    the reference oracle for the memory-kernel form."""
    detunings = np.ascontiguousarray(detunings, dtype=np.float64)
    couplings = np.ascontiguousarray(couplings, dtype=np.float64)
    n_samples = n_steps // stride
    ce_out = np.zeros(n_samples, dtype=np.complex128)
    norm_out = np.zeros(n_samples, dtype=np.float64)
    t_out = np.zeros(n_samples, dtype=np.float64)

    c_e = 1.0 + 0.0j
    c_k = np.zeros(detunings.shape[0], dtype=np.complex128)
    a = 0.5 * dt
    big_g = float(np.sum(couplings * couplings))
    denom = 1.0 + a * a * big_g
    phase = np.exp(1j * detunings * (0.5 * dt))
    step_phase = np.exp(1j * detunings * dt)
    idx = 0
    t = 0.0
    for step in range(n_steps):
        h = couplings * phase
        s = np.sum(h * c_k)
        ce_new = ((1.0 - a * a * big_g) * c_e - 2j * a * s) / denom
        c_k = c_k - 1j * a * np.conj(h) * (c_e + ce_new)
        c_e = ce_new
        phase = phase * step_phase
        t += dt
        if (step + 1) % stride == 0:
            ce_out[idx] = c_e
            norm_out[idx] = abs(c_e) ** 2 + float(np.sum(np.abs(c_k) ** 2))
            t_out[idx] = t
            idx += 1
    return t_out, ce_out, norm_out


@pytest.fixture(scope="module")
def atom():
    return hydrogen_1s2p_preset()


@pytest.fixture(scope="module")
def gamma(atom):
    return gamma_leading(atom)


def run_sim(atom, gamma, n_modes=2000, bandwidth_gammas=100.0, t_end_gammas=5.0,
            dt_gammas=None, omega_hi_gammas=None):
    if omega_hi_gammas is None:
        grid = build_grid(atom, bandwidth_gammas * gamma, n_modes)
    else:
        grid = build_grid_window(atom,
                                 atom.omega_eg - bandwidth_gammas / 2.0 * gamma,
                                 atom.omega_eg + omega_hi_gammas * gamma,
                                 n_modes)
    max_det = float(np.abs(grid.frequencies - atom.omega_eg).max())
    dt = (0.19 / max_det) if dt_gammas is None else dt_gammas / gamma
    trace = evolve(grid, atom, t_end_gammas / gamma, dt)
    return grid, trace


class TestBuildGrid:
    def test_calibration_identity(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 2000)
        g = grid.couplings[0]
        assert 2.0 * math.pi * g * g * grid.density == pytest.approx(gamma, rel=1e-12)

    def test_spacing(self, atom, gamma):
        # relative tolerance limited by float cancellation at optical scale
        grid = build_grid(atom, 100.0 * gamma, 2000)
        assert grid.spacing == pytest.approx(100.0 * gamma / 1999, rel=1e-9)

    def test_revival_beyond_ten_lifetimes(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 4000)
        assert grid.revival_time > 10.0 / gamma

    def test_narrow_bandwidth_rejected(self, atom, gamma):
        with pytest.raises(GridResolutionError):
            build_grid(atom, 10.0 * gamma, 2000)

    def test_underresolved_rejected(self, atom, gamma):
        # spacing > gamma/10
        with pytest.raises(GridResolutionError):
            build_grid(atom, 400.0 * gamma, 1001)

    def test_too_few_modes_rejected(self, atom, gamma):
        with pytest.raises(GridResolutionError):
            build_grid(atom, 100.0 * gamma, 500)

    def test_window_must_contain_transition(self, atom, gamma):
        with pytest.raises(GridResolutionError):
            build_grid_window(atom, atom.omega_eg + gamma, atom.omega_eg + 50 * gamma,
                              2000)


class TestEvolve:
    def test_no_coupling_is_static(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 1500)
        silent = type(grid)(frequencies=grid.frequencies,
                            couplings=np.zeros_like(grid.couplings),
                            density=grid.density, gamma_target=grid.gamma_target)
        trace = evolve(silent, atom, 1.0 / gamma, 0.19 / (50.0 * gamma))
        assert all(abs(s.c_e - 1.0) < 1e-12 for s in trace)

    def test_single_resonant_mode_rabi(self, atom, gamma):
        # two-state dynamics: |c_e|^2 = cos^2(g t); run the kernel directly
        g = 2.5 * gamma
        dt = 1e-3 / g
        n_steps = 4000
        ts, ces, norms = evolve_amplitudes(np.array([0.0]), np.array([g]) / gamma,
                                           dt * gamma, n_steps, 10)
        ts = ts / gamma
        expect = np.cos(g * ts) ** 2
        assert np.abs(np.abs(ces) ** 2 - expect).max() < 1e-5

    def test_norm_conservation(self, atom, gamma):
        grid, trace = run_sim(atom, gamma, n_modes=2000)
        drift = max(abs(s.norm - 1.0) for s in trace)
        assert drift <= 1e-6  # Cayley step: machine-level in practice
        assert drift < 1e-10

    def test_exponential_decay_window(self, atom, gamma):
        grid, trace = run_sim(atom, gamma, n_modes=2000)
        ts = np.array([s.t for s in trace])
        p = np.array([abs(s.c_e) ** 2 for s in trace])
        mask = (ts > 1.0 / gamma) & (ts < 5.0 / gamma)
        model = np.exp(-gamma * ts[mask])
        assert np.abs(p[mask] / model - 1.0).max() < 0.05

    def test_no_revival_before_ten_lifetimes(self, atom, gamma):
        grid, trace = run_sim(atom, gamma, n_modes=1200, bandwidth_gammas=50.0,
                              t_end_gammas=12.0)
        assert grid.revival_time > 10.0 / gamma
        ts = np.array([s.t for s in trace])
        p = np.array([abs(s.c_e) ** 2 for s in trace])
        tail = ts > 10.0 / gamma
        assert p[tail].max() < 1e-3

    def test_coarse_dt_rejected(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 2000)
        with pytest.raises(GridResolutionError):
            evolve(grid, atom, 1.0 / gamma, 1.0 / gamma)

    def test_norm_drift_reported_as_failure(self, atom, gamma, monkeypatch):
        # corrupt the kernel output to exercise the conservation guard
        from causalatom import wworacle
        from causalatom.errors import NormDriftError

        def broken(detun, coup, dt, n_steps, stride):
            n_samples = n_steps // stride
            ts = np.linspace(dt * stride, dt * n_steps, n_samples)
            ces = np.full(n_samples, 0.9 + 0j)
            norms = np.full(n_samples, 1.0 + 1e-4)
            return ts, ces, norms

        monkeypatch.setattr(wworacle, "evolve_amplitudes", broken)
        grid = build_grid(atom, 100.0 * gamma, 2000)
        with pytest.raises(NormDriftError) as exc:
            evolve(grid, atom, 1.0 / gamma, 0.19 / (50.0 * gamma))
        assert exc.value.drift == pytest.approx(1e-4, rel=1e-6)


def scaled_comb(n_modes, spacing, coupling):
    """Exactly uniform comb in scaled units, centred on resonance."""
    return ((np.arange(n_modes) - (n_modes - 1) / 2) * spacing,
            np.full(n_modes, coupling))


class TestMemoryKernel:
    # The per-mode loop multiplies each mode by its rounded phase factor in
    # every step, so its own error grows with steps x revivals: at 4097 steps
    # and 5 revivals (33 modes) it is 1.5e-12 off a 30-digit evaluation, where
    # the memory-kernel form is 1.4e-14 off.  These cases keep the loop within
    # 1e-13 of the exact Crank-Nicolson map: dyadic combs, couplings and steps.
    @pytest.mark.parametrize("n_modes, spacing, coupling, dt, n_steps, stride", [
        (1, 0.0, 2.5, 2.0 ** -12, 1000, 10),     # Rabi pair
        (1, 0.0, 0.5, 2.0 ** -8, 4097, 1),
        (7, 2.0 ** -1, 2.0 ** -2, 2.0 ** -5, 1000, 1),  # 2.5 revivals
        (33, 2.0 ** -3, 2.0 ** -2, 2.0 ** -4, 1000, 7),  # 1.2 revivals
        (200, 2.0 ** -5, 2.0 ** -5, 2.0 ** -5, 4097, 1),
    ])
    def test_matches_per_mode_loop_on_exact_comb(self, n_modes, spacing, coupling,
                                                 dt, n_steps, stride):
        detun, coup = scaled_comb(n_modes, spacing, coupling)
        ts, ces, norms = evolve_amplitudes(detun, coup, dt, n_steps, stride)
        ts_ref, ces_ref, norms_ref = per_mode_reference(detun, coup, dt, n_steps, stride)
        np.testing.assert_array_equal(ts, ts_ref)
        assert np.abs(ces - ces_ref).max() <= 1e-13
        assert np.abs(norms - norms_ref).max() <= 1e-13

    def test_matches_per_mode_loop_on_built_grid(self, atom, gamma):
        # the per-mode loop runs on the optical comb as np.linspace rounded it
        # (points up to ~1e-7 of a spacing off), the kernel on the exact comb
        grid = build_grid(atom, 100.0 * gamma, 4000)
        detun = (grid.frequencies - atom.omega_eg) / gamma
        dt = 0.19 / float(np.abs(detun).max())
        n_steps = int(math.ceil(5.0 / dt))
        exact = np.linspace(detun[0], detun[-1], detun.size)
        _, ces, norms = evolve_amplitudes(exact, grid.couplings / gamma, dt, n_steps, 2)
        _, ces_ref, norms_ref = per_mode_reference(detun, grid.couplings / gamma,
                                                   dt, n_steps, 2)
        assert np.abs(ces - ces_ref).max() <= 1e-9
        assert np.abs(norms - norms_ref).max() <= 1e-9

    def test_matches_per_mode_loop_past_revival_time(self, atom, gamma):
        # past grid.revival_time sin(x_j) passes through 0 and the modes
        # rephase; both sides run on the comb the kernel receives from evolve
        grid = build_grid(atom, 40.0 * gamma, 1000)
        detun = (grid.frequencies - atom.omega_eg) / gamma
        dt = 0.19 / float(np.abs(detun).max())
        n_steps = int(1.1 * grid.revival_time * gamma / dt)
        exact = np.linspace(detun[0], detun[-1], detun.size)
        ts, ces, norms = evolve_amplitudes(exact, grid.couplings / gamma, dt, n_steps, 7)
        _, ces_ref, norms_ref = per_mode_reference(exact, grid.couplings / gamma,
                                                   dt, n_steps, 7)
        revived = ts > grid.revival_time * gamma
        assert revived.any() and np.abs(ces[revived]).max() > 1e-3
        assert np.abs(ces - ces_ref).max() <= 1e-9
        assert np.abs(norms - norms_ref).max() <= 1e-9

    def test_dirichlet_sum_matches_mode_sum_through_revivals(self):
        detun, coup = scaled_comb(6, 0.3, 0.7)
        dt = 2 * np.pi / (0.3 * 50)  # sin(x_j) = 0 at every 50th lag
        lags = np.arange(160)
        direct = (coup ** 2 * np.exp(1j * np.outer(lags * dt, detun))).sum(axis=1)
        closed = _dirichlet_kernel(0.0, 0.3, 6, 0.49, dt, lags.size)
        assert np.abs(closed - direct).max() <= 1e-14 * 6 * 0.49 * 10

    @pytest.mark.parametrize("n_steps", [1000, 4097])
    def test_blocked_history_equals_direct_sum(self, n_steps):
        # hist(n) = sum_{m<n} K(n - m) b(m): in-block pairs summed directly,
        # every other pair by the kernel's FFT squares
        rng = np.random.default_rng(5)
        n_pad = -(-n_steps // BLOCK) * BLOCK
        b = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)

        def kernel(n_lags):
            return _dirichlet_kernel(0.3, 0.05, 101, 0.02, 0.01, n_lags)

        k_all = kernel(n_pad)
        acc = np.zeros(n_pad, dtype=np.complex128)
        spectra = {}
        for n0 in range(BLOCK, n_pad, BLOCK):
            _add_square(acc, b, kernel, spectra, n0)
        for n0 in range(0, n_pad, BLOCK):
            for n in range(n0, n0 + BLOCK):
                acc[n] += np.dot(k_all[n - n0:0:-1], b[n0:n])
        direct = np.array([np.dot(k_all[n:0:-1], b[:n]) for n in range(n_pad)])
        assert np.abs(acc - direct).max() <= 1e-13 * np.abs(direct).max()

    def test_unequal_couplings_refused(self):
        detun, coup = scaled_comb(50, 0.1, 0.2)
        coup[17] *= 1.0 + 1e-15
        with pytest.raises(GridResolutionError, match="couplings must be equal"):
            evolve_amplitudes(detun, coup, 0.01, 100, 1)

    def test_non_uniform_detunings_refused(self):
        detun, coup = scaled_comb(50, 0.1, 0.2)
        detun[17] += 1e-9 * 0.1
        with pytest.raises(GridResolutionError, match="not a uniform comb"):
            evolve_amplitudes(detun, coup, 0.01, 100, 1)

    def test_comb_rounded_at_optical_scale_accepted(self, atom, gamma):
        # a comb written as lo + k * spacing agrees with np.linspace's comb to
        # the rounding at its optical scale (~1e-7 of a spacing); 1e-6 does not
        lo, spacing = atom.omega_eg - 50.0 * gamma, 100.0 * gamma / 1999
        freqs = lo + spacing * np.arange(2000)
        ModeGrid(frequencies=freqs, couplings=np.full(2000, 1.0),
                 density=2000 / (100.0 * gamma), gamma_target=gamma)
        freqs[1000] += 1e-6 * spacing
        with pytest.raises(GridResolutionError, match="not a uniform comb"):
            ModeGrid(frequencies=freqs, couplings=np.full(2000, 1.0),
                     density=2000 / (100.0 * gamma), gamma_target=gamma)


class TestFitDecay:
    def test_exact_exponential_recovered(self):
        rate = 3.7e8
        shift = 2.2e7
        ts = np.linspace(1e-10, 2e-8, 400)
        trace = [AmplitudeState(c_e=math.exp(-rate * t / 2)
                                * complex(math.cos(shift * t), -math.sin(shift * t)),
                                norm=1.0, t=float(t)) for t in ts]
        fit = fit_decay(trace)
        assert fit.rate == pytest.approx(rate, rel=1e-10)
        assert fit.shift == pytest.approx(shift, rel=1e-10)
        assert fit.fit_residual < 1e-12

    def test_default_grid_rate_within_two_percent(self, atom, gamma):
        grid, trace = run_sim(atom, gamma, n_modes=4000)
        fit = fit_decay(trace)
        assert abs(fit.rate / gamma - 1.0) < 0.02
        assert abs(fit.shift) < 0.05 * gamma  # symmetric comb: no net shift

    def test_non_exponential_rejected(self):
        ts = np.linspace(0.1, 10.0, 200)
        trace = [AmplitudeState(c_e=complex(1.0 / (1.0 + t ** 2), 0.0),
                                norm=1.0, t=float(t)) for t in ts]
        with pytest.raises(FitResidualError):
            fit_decay(trace)

    def test_rate_converges_first_order_in_spacing(self, atom, gamma):
        # fixed bandwidth, doubling mode count: the calibration-density
        # mismatch gives a 1/n error against the n -> inf limit, so the
        # Richardson-extrapolated error halves per doubling
        rates = {}
        for n in (1100, 2200, 4400, 8800):
            _, trace = run_sim(atom, gamma, n_modes=n)
            rates[n] = fit_decay(trace).rate
        r_inf = 2.0 * rates[8800] - rates[4400]
        e1 = abs(rates[1100] - r_inf)
        e2 = abs(rates[2200] - r_inf)
        e4 = abs(rates[4400] - r_inf)
        assert 1.6 < e1 / e2 < 2.6
        assert 1.6 < e2 / e4 < 2.6

    def test_rate_stable_under_dt_halving(self, atom, gamma):
        vals = []
        for f in (1.0, 0.5, 0.25):
            _, trace = run_sim(atom, gamma, n_modes=1500, dt_gammas=0.0038 * f)
            vals.append(fit_decay(trace).rate)
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1  # second-order integrator: changes shrink
        assert d2 / gamma < 1e-4

    def test_shift_logarithmic_in_upper_cutoff(self, atom, gamma):
        # raise the upper band edge over a decade at fixed lower edge: the
        # level shift follows the band-edge logarithm with high linearity
        uppers = [50.0, 80.0, 125.0, 200.0, 320.0, 500.0]
        shifts = []
        for hi in uppers:
            span = 50.0 + hi
            n = max(1000, int(span * 12))
            _, trace = run_sim(atom, gamma, n_modes=n, bandwidth_gammas=100.0,
                               omega_hi_gammas=hi)
            shifts.append(fit_decay(trace).shift)
        shifts = np.array(shifts)
        lnw = np.log(np.array(uppers))
        a = np.column_stack([np.ones(len(uppers)), lnw])
        coef, *_ = np.linalg.lstsq(a, shifts, rcond=None)
        pred = a @ coef
        r2 = 1.0 - np.sum((shifts - pred) ** 2) / np.sum((shifts - shifts.mean()) ** 2)
        assert r2 > 0.99
        # slope magnitude is the rate over 2 pi, up to discretization
        assert abs(abs(coef[1]) - gamma / (2 * math.pi)) / (gamma / (2 * math.pi)) < 0.05
