import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from causalatom.errors import FitResidualError, GridResolutionError
from causalatom.observables import gamma_leading, hydrogen_1s2p_preset
from causalatom.wworacle import (
    BLOCK,
    ModeGrid,
    _add_square,
    _block_response,
    _dirichlet_kernel,
    build_grid,
    build_grid_window,
    evolve,
    evolve_amplitudes,
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


def make_grid(atom, gamma, n_modes, bandwidth_gammas, omega_hi_gammas=None):
    if omega_hi_gammas is None:
        return build_grid(atom, bandwidth_gammas * gamma, n_modes)
    return build_grid_window(atom,
                             atom.omega_eg - bandwidth_gammas / 2.0 * gamma,
                             atom.omega_eg + omega_hi_gammas * gamma,
                             n_modes)


def run_sim(atom, gamma, n_modes=2000, bandwidth_gammas=100.0, t_end_gammas=5.0,
            dt_gammas=None, omega_hi_gammas=None):
    grid = make_grid(atom, gamma, n_modes, bandwidth_gammas, omega_hi_gammas)
    dt = 0.19 / grid.max_detuning(atom.omega_eg) if dt_gammas is None else dt_gammas / gamma
    return grid, evolve(grid, atom, t_end_gammas / gamma, dt)


def scaled_comb(grid, atom, gamma):
    """The comb as evolve hands it to the kernel: (center, spacing, n_modes,
    coupling) in units of the target rate, and its n_modes detunings."""
    lo = (grid.omega_lo - atom.omega_eg) / gamma
    hi = (grid.omega_hi - atom.omega_eg) / gamma
    n = grid.n_modes
    comb = (0.5 * (lo + hi), (hi - lo) / (n - 1), n, grid.coupling / gamma)
    return comb, np.linspace(lo, hi, n)


def exact_comb(lo, spacing, n_modes, coupling, ts):
    """The comb Delta_k = lo + k spacing solved without a time step (Fano
    1961; Bixon and Jortner 1968): c_e(t) = sum_j w_j exp(-i lambda_j t),
    the lambda_j the roots of lambda = g^2 sum_k 1/(lambda - Delta_k) and
    w_j = 1/(1 + g^2 sum_k (lambda_j - Delta_k)^-2).  Returns (lambda, w, c_e).

    With lambda = lo + spacing z the sums are digamma closed forms:
    sum_k 1/(z - k) = psi(1 + z) + pi cot(pi z) - psi(N - z) and
    sum_k (z - k)^-2 = pi^2/sin^2(pi z) - psi'(1 + z) - psi'(N - z).  One
    root lies in each (k, k + 1), k = -1 .. N - 1, if the outer two lie
    within a spacing of the comb; z = k + y is bisected in y, so that pi y,
    not pi z, goes into the trigonometric functions.
    """
    k = np.arange(-1, n_modes, dtype=np.float64)
    c = coupling ** 2 / spacing

    def excess(y):  # increasing in y on each interval
        z = k + y
        return lo + spacing * z - c * (special.digamma(1.0 + z) + np.pi / np.tan(np.pi * y)
                                       - special.digamma(n_modes - z))

    y_lo, y_hi = np.zeros_like(k), np.ones_like(k)
    for _ in range(80):
        mid = 0.5 * (y_lo + y_hi)
        below = excess(mid) < 0.0
        y_lo = np.where(below, mid, y_lo)
        y_hi = np.where(below, y_hi, mid)
    y = 0.5 * (y_lo + y_hi)
    z = k + y
    inv_sq = ((np.pi / np.sin(np.pi * y)) ** 2 - special.polygamma(1, 1.0 + z)
              - special.polygamma(1, n_modes - z))
    weights = 1.0 / (1.0 + c / spacing * inv_sq)
    lam = lo + spacing * z
    return lam, weights, np.exp(-1j * np.outer(ts, lam)) @ weights


class TestBuildGrid:
    def test_calibration_identity(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 2000)
        g = grid.coupling
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

    @pytest.mark.parametrize("lo, hi, n_modes", [
        (2.0, 1.0, 1000), (1.0, 1.0, 1000), (1.0, 2.0, 1),
        (math.nan, 2.0, 1000), (1.0, math.nan, 1000),
    ])
    def test_mode_grid_refuses_empty_comb(self, lo, hi, n_modes):
        with pytest.raises(GridResolutionError, match="omega_lo < omega_hi"):
            ModeGrid(lo, hi, n_modes, 1.0, 1.0)

    @pytest.mark.parametrize("n_modes, band, omega_hi_gammas", [
        (4000, 60.0, None), (4000, 100.0, None), (16000, 60.5, None),
        (16000, 137.25, None), (32000, 100.0, None), (32000, 140.0, None),
        (20000, 100.0, 123.7),
    ])
    def test_max_detuning_is_linspace_max(self, atom, gamma, n_modes, band,
                                          omega_hi_gammas):
        # ww-sim's default dt is 0.19 over this value, so every trace it
        # writes depends on its last bit
        grid = make_grid(atom, gamma, n_modes, band, omega_hi_gammas)
        comb = np.linspace(grid.omega_lo, grid.omega_hi, n_modes)
        assert grid.max_detuning(atom.omega_eg) == np.abs(comb - atom.omega_eg).max()


class TestEvolve:
    def test_no_coupling_is_static(self, atom, gamma):
        grid = build_grid(atom, 100.0 * gamma, 1500)
        silent = dataclasses.replace(grid, coupling=0.0)
        _, ces, _ = evolve(silent, atom, 1.0 / gamma, 0.19 / (50.0 * gamma))
        assert np.abs(ces - 1.0).max() < 1e-12

    def test_single_resonant_mode_rabi(self, atom, gamma):
        # two-state dynamics: |c_e|^2 = cos^2(g t); run the kernel directly
        g = 2.5 * gamma
        dt = 1e-3 / g
        n_steps = 4000
        ts, ces, norms = evolve_amplitudes(0.0, 0.0, 1, g / gamma, dt * gamma, n_steps, 10)
        ts = ts / gamma
        expect = np.cos(g * ts) ** 2
        assert np.abs(np.abs(ces) ** 2 - expect).max() < 1e-5

    def test_norm_conservation(self, atom, gamma):
        _, (_, _, norms) = run_sim(atom, gamma, n_modes=2000)
        drift = np.abs(norms - 1.0).max()
        assert drift <= 1e-6  # Cayley step: machine-level in practice
        assert drift < 1e-10

    def test_exponential_decay_window(self, atom, gamma):
        _, (ts, ces, _) = run_sim(atom, gamma, n_modes=2000)
        p = np.abs(ces) ** 2
        mask = (ts > 1.0 / gamma) & (ts < 5.0 / gamma)
        model = np.exp(-gamma * ts[mask])
        assert np.abs(p[mask] / model - 1.0).max() < 0.05

    def test_no_revival_before_ten_lifetimes(self, atom, gamma):
        grid, (ts, ces, _) = run_sim(atom, gamma, n_modes=1200, bandwidth_gammas=50.0,
                                     t_end_gammas=12.0)
        assert grid.revival_time > 10.0 / gamma
        p = np.abs(ces) ** 2
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

        def broken(center, spacing, n_modes, coupling, dt, n_steps, stride):
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


def resonant_comb(n_modes, spacing):
    """The detunings of an exactly uniform comb centred on resonance."""
    return (np.arange(n_modes) - (n_modes - 1) / 2) * spacing


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
        ts, ces, norms = evolve_amplitudes(0.0, spacing, n_modes, coupling, dt,
                                           n_steps, stride)
        ts_ref, ces_ref, norms_ref = per_mode_reference(
            resonant_comb(n_modes, spacing), np.full(n_modes, coupling), dt, n_steps, stride)
        np.testing.assert_array_equal(ts, ts_ref)
        assert np.abs(ces - ces_ref).max() <= 1e-13
        assert np.abs(norms - norms_ref).max() <= 1e-13

    def test_matches_per_mode_loop_on_built_grid(self, atom, gamma):
        # the per-mode loop runs on the optical comb as np.linspace rounded it
        # (points up to ~1e-7 of a spacing off), the kernel on the exact comb
        grid = build_grid(atom, 100.0 * gamma, 4000)
        comb, _ = scaled_comb(grid, atom, gamma)
        optical = np.linspace(grid.omega_lo, grid.omega_hi, grid.n_modes)
        detun = (optical - atom.omega_eg) / gamma
        dt = 0.19 / float(np.abs(detun).max())
        n_steps = int(math.ceil(5.0 / dt))
        _, ces, norms = evolve_amplitudes(*comb, dt, n_steps, 2)
        _, ces_ref, norms_ref = per_mode_reference(
            detun, np.full(grid.n_modes, grid.coupling / gamma), dt, n_steps, 2)
        assert np.abs(ces - ces_ref).max() <= 1e-9
        assert np.abs(norms - norms_ref).max() <= 1e-9

    def test_matches_per_mode_loop_past_revival_time(self, atom, gamma):
        # past grid.revival_time sin(x_j) passes through 0 and the modes
        # rephase; both sides run on the comb the kernel receives from evolve
        grid = build_grid(atom, 40.0 * gamma, 1000)
        comb, exact = scaled_comb(grid, atom, gamma)
        dt = 0.19 / float(np.abs(exact).max())
        n_steps = int(1.1 * grid.revival_time * gamma / dt)
        ts, ces, norms = evolve_amplitudes(*comb, dt, n_steps, 7)
        _, ces_ref, norms_ref = per_mode_reference(
            exact, np.full(grid.n_modes, grid.coupling / gamma), dt, n_steps, 7)
        revived = ts > grid.revival_time * gamma
        assert revived.any() and np.abs(ces[revived]).max() > 1e-3
        assert np.abs(ces - ces_ref).max() <= 1e-9
        assert np.abs(norms - norms_ref).max() <= 1e-9

    def test_dirichlet_sum_matches_mode_sum_through_revivals(self):
        detun = resonant_comb(6, 0.3)
        dt = 2 * np.pi / (0.3 * 50)  # sin(x_j) = 0 at every 50th lag
        lags = np.arange(160)
        direct = (0.49 * np.exp(1j * np.outer(lags * dt, detun))).sum(axis=1)
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


def dense_block_response(k, alpha, gam):
    """(u, w) of the block system, built densely and solved by LAPACK:
    (eye - alpha shift - gam near (eye + shift)) [u, w] = [alpha e_0 + gam k, gam eye],
    near the strictly lower-triangular Toeplitz matrix of k."""
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    near = np.where(lag > 0, k[np.maximum(lag, 0)], 0.0)
    eye, shift = np.eye(BLOCK), np.eye(BLOCK, k=-1)
    system = eye - alpha * shift - gam * (near @ (eye + shift))
    rhs = np.column_stack([alpha * eye[:, 0] + gam * near[:, 0], gam * eye])
    response = np.linalg.solve(system, rhs)
    return response[:, 0], response[:, 1:]


class TestBlockResponse:
    @pytest.mark.parametrize("comb", ["rabi", "seven", "hydrogen"])
    def test_toeplitz_inverse_matches_dense_solve(self, atom, gamma, comb):
        if comb == "rabi":
            (center, spacing, n, g), dt = (0.0, 0.0, 1, 2.5), 2.0 ** -12
        elif comb == "seven":
            (center, spacing, n, g), dt = (0.0, 2.0 ** -1, 7, 2.0 ** -2), 2.0 ** -5
        else:  # ww-sim's default comb and step, scaled as evolve scales them
            grid = build_grid(atom, 100.0 * gamma, 4000)
            (center, spacing, n, g), _ = scaled_comb(grid, atom, gamma)
            dt = 0.19 / grid.max_detuning(atom.omega_eg) * gamma
        a2g = (0.5 * dt) ** 2 * n * g * g
        alpha, gam = (1.0 - a2g) / (1.0 + a2g), -0.5 * dt * dt / (1.0 + a2g)
        k = _dirichlet_kernel(center, spacing, n, g * g, dt, BLOCK)
        k[0] = 0.0
        u, w = _block_response(k, alpha, gam)
        u_ref, w_ref = dense_block_response(k, alpha, gam)
        assert np.abs(u - u_ref).max() <= 1e-14 * np.abs(u_ref).max()
        assert np.abs(w - w_ref).max() <= 1e-14 * np.abs(w_ref).max()


class TestExactComb:
    def test_oracle_matches_eigendecomposition(self):
        lo, spacing, n = -1.0, 0.05, 40
        g = math.sqrt(spacing / (2.0 * math.pi))
        ts = np.linspace(0.0, 5.0, 11)
        lam, weights, ces = exact_comb(lo, spacing, n, g, ts)
        h = np.diag(np.concatenate(([0.0], lo + spacing * np.arange(n))))
        h[0, 1:] = h[1:, 0] = g
        evals, evecs = np.linalg.eigh(h)
        assert np.abs(np.sort(lam) - evals).max() <= 1e-14
        assert np.abs(weights[np.argsort(lam)] - evecs[0] ** 2).max() <= 1e-14
        ref = np.exp(-1j * np.outer(ts, evals)) @ evecs[0] ** 2
        assert np.abs(ces - ref).max() <= 1e-14

    def test_crank_nicolson_within_time_step_budget(self, atom, gamma):
        # the memory-kernel tests check the Crank-Nicolson recursion against
        # itself; this checks its time discretization, at ww-sim's defaults
        grid, (ts, ces, _) = run_sim(atom, gamma, n_modes=4000)
        (center, spacing, n, g), _ = scaled_comb(grid, atom, gamma)
        _, weights, exact = exact_comb(center - 0.5 * (n - 1) * spacing, spacing, n, g,
                                       ts * gamma)
        assert abs(weights.sum() - 1.0) <= 1e-12  # every root found
        assert np.abs(ces - exact).max() < 2.5e-5  # 2.18e-5
        rate_error = fit_decay(ts, ces).rate - fit_decay(ts, exact).rate
        assert abs(rate_error) / gamma < 2.5e-5  # -1.91e-5


class TestFitDecay:
    def test_exact_exponential_recovered(self):
        rate = 3.7e8
        shift = 2.2e7
        ts = np.linspace(1e-10, 2e-8, 400)
        ces = np.exp(-rate * ts / 2) * (np.cos(shift * ts) - 1j * np.sin(shift * ts))
        fit = fit_decay(ts, ces)
        assert fit.rate == pytest.approx(rate, rel=1e-10)
        assert fit.shift == pytest.approx(shift, rel=1e-10)
        assert fit.fit_residual < 1e-12

    def test_default_grid_rate_within_budget(self, atom, gamma):
        # at ww-sim's defaults the comb itself, solved exactly, decays at
        # 1 + 6.157e-3 (band edges, discreteness, fit window) and the time
        # step adds -1.9e-5 (TestExactComb)
        _, (ts, ces, _) = run_sim(atom, gamma, n_modes=4000)
        fit = fit_decay(ts, ces)
        assert abs(fit.rate / gamma - 1.0) < 6.5e-3
        assert abs(fit.shift) < 1e-12 * gamma  # symmetric comb: rounding only

    def test_non_exponential_rejected(self):
        ts = np.linspace(0.1, 10.0, 200)
        with pytest.raises(FitResidualError):
            fit_decay(ts, 1.0 / (1.0 + ts ** 2) + 0j)

    def test_rate_converges_first_order_in_spacing(self, atom, gamma):
        # fixed bandwidth, doubling mode count: the calibration-density
        # mismatch gives a 1/n error against the n -> inf limit, so the
        # Richardson-extrapolated error halves per doubling
        rates = {}
        for n in (1100, 2200, 4400, 8800):
            _, (ts, ces, _) = run_sim(atom, gamma, n_modes=n)
            rates[n] = fit_decay(ts, ces).rate
        r_inf = 2.0 * rates[8800] - rates[4400]
        e1 = abs(rates[1100] - r_inf)
        e2 = abs(rates[2200] - r_inf)
        e4 = abs(rates[4400] - r_inf)
        assert 1.6 < e1 / e2 < 2.6
        assert 1.6 < e2 / e4 < 2.6

    def test_rate_stable_under_dt_halving(self, atom, gamma):
        vals = []
        for f in (1.0, 0.5, 0.25):
            _, (ts, ces, _) = run_sim(atom, gamma, n_modes=1500, dt_gammas=0.0038 * f)
            vals.append(fit_decay(ts, ces).rate)
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
            _, (ts, ces, _) = run_sim(atom, gamma, n_modes=n, bandwidth_gammas=100.0,
                                      omega_hi_gammas=hi)
            shifts.append(fit_decay(ts, ces).shift)
        shifts = np.array(shifts)
        lnw = np.log(np.array(uppers))
        a = np.column_stack([np.ones(len(uppers)), lnw])
        coef, *_ = np.linalg.lstsq(a, shifts, rcond=None)
        pred = a @ coef
        r2 = 1.0 - np.sum((shifts - pred) ** 2) / np.sum((shifts - shifts.mean()) ** 2)
        assert r2 > 0.99
        # slope magnitude is the rate over 2 pi, up to discretization
        assert abs(abs(coef[1]) - gamma / (2 * math.pi)) / (gamma / (2 * math.pi)) < 0.05
