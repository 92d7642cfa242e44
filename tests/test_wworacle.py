import math

import numpy as np
import pytest

from causalatom._ww_kernels import evolve_amplitudes
from causalatom.errors import FitResidualError, GridResolutionError
from causalatom.observables import gamma_leading, hydrogen_1s2p_preset
from causalatom.wworacle import (
    AmplitudeState,
    build_grid,
    build_grid_window,
    evolve,
    fit_decay,
)


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
