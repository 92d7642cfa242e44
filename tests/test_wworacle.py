import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from causalatom import wworacle
from causalatom.errors import FitResidualError, GridResolutionError, NormDriftError
from causalatom.wworacle import (
    BLOCK,
    ModeGrid,
    _add_square,
    _block_response,
    _dirichlet_kernel,
    build_grid,
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


# Everything below is in units of the target rate gamma, as in wworacle.

def make_grid(n_modes, bandwidth, hi=None):
    """build_grid's comb, or with hi the window [-bandwidth/2, hi]."""
    if hi is None:
        return build_grid(bandwidth, n_modes)
    return ModeGrid(-0.5 * bandwidth, hi, n_modes)


def run_sim(n_modes=2000, bandwidth=100.0, t_end=5.0, dt=None, hi=None):
    grid = make_grid(n_modes, bandwidth, hi)
    return grid, evolve(grid, t_end, dt)


def kernel_comb(grid):
    """(center, spacing, n_modes, coupling): the comb as evolve hands it to
    evolve_amplitudes."""
    return 0.5 * (grid.lo + grid.hi), grid.spacing, grid.n_modes, grid.coupling


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
    def test_calibration_identity(self):
        grid = build_grid(100.0, 2000)
        g = grid.coupling
        density = grid.n_modes / (grid.hi - grid.lo)
        assert 2.0 * math.pi * g * g * density == pytest.approx(1.0, rel=1e-15)

    def test_edges_are_the_detunings_asked_for(self):
        grid = build_grid(100.0, 4000)
        assert (grid.lo, grid.hi) == (-50.0, 50.0)
        assert grid.spacing == 100.0 / 3999
        window = ModeGrid(-50.0, 123.7, 20000)
        assert (window.lo, window.hi) == (-50.0, 123.7)

    def test_revival_beyond_ten_lifetimes(self):
        assert 2 * math.pi / build_grid(100.0, 4000).spacing > 10.0

    def test_narrow_bandwidth_rejected(self):
        with pytest.raises(GridResolutionError, match="bandwidth 30 below 40"):
            build_grid(30.0, 2000)

    @pytest.mark.parametrize("make", [lambda: build_grid(400.0, 1001),
                                      lambda: ModeGrid(-50.0, 123.7, 1000)],
                             ids=["build_grid", "window"])
    def test_underresolved_rejected(self, make):
        # spacing > 1/10
        with pytest.raises(GridResolutionError, match="exceeds 0.1"):
            make()

    @pytest.mark.parametrize("make", [lambda: build_grid(100.0, 500),
                                      lambda: ModeGrid(1.0, 2.0, 1)],
                             ids=["build_grid", "window"])
    def test_too_few_modes_rejected(self, make):
        # the mode count is checked first, before the window
        with pytest.raises(GridResolutionError, match="need at least 1000 modes, got "):
            make()

    @pytest.mark.parametrize("lo, hi, n_modes", [
        (1.0, 50.0, 2000), (-50.0, -1.0, 2000), (0.0, 50.0, 2000), (-50.0, 0.0, 2000),
        (math.nan, 50.0, 2000), (2.0, 1.0, 1000), (1.0, 1.0, 1000),
        (math.nan, 2.0, 1000), (1.0, math.nan, 1000),
    ])
    def test_window_must_contain_transition(self, lo, hi, n_modes):
        with pytest.raises(GridResolutionError, match="must contain detuning 0"):
            ModeGrid(lo, hi, n_modes)

    @pytest.mark.parametrize("n_modes, band, hi", [
        (4000, 60.0, None), (4000, 100.0, None), (16000, 60.5, None),
        (16000, 137.25, None), (32000, 100.0, None), (32000, 140.0, None),
        (20000, 100.0, 123.7),
    ])
    def test_max_detuning_is_linspace_max(self, n_modes, band, hi):
        # evolve's default dt is 0.19 over this value, so every trace ww-sim
        # writes depends on its last bit
        grid = make_grid(n_modes, band, hi)
        comb = np.linspace(grid.lo, grid.hi, n_modes)
        assert grid.max_detuning() == np.abs(comb).max()


class TestUnitContract:
    def test_import_loads_only_errors_of_the_package(self):
        # no SI layer: the oracle needs neither the atom nor its rate
        src = str(Path(wworacle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys\n"
                  "import causalatom.wworacle\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'causalatom'))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=False)
        expected = ["causalatom", "causalatom.errors", "causalatom.wworacle"]
        assert proc.stdout == f"{expected}\n", proc.stderr

    def test_default_step_is_the_policy_step(self):
        grid = build_grid(100.0, 4000)
        ts, ces, norms = evolve(grid, 5.0)
        ref = evolve(grid, 5.0, 0.19 / grid.max_detuning())
        for got, want in zip((ts, ces, norms), ref):
            np.testing.assert_array_equal(got, want)


class TestEvolve:
    def test_no_coupling_is_static(self):
        center, spacing, n_modes, _ = kernel_comb(build_grid(100.0, 1500))
        _, ces, _ = evolve_amplitudes(center, spacing, n_modes, 0.0, 0.003, 400, 1)
        assert np.abs(ces - 1.0).max() < 1e-12

    def test_single_resonant_mode_rabi(self):
        # two-state dynamics: |c_e|^2 = cos^2(g t); run the kernel directly
        g = 2.5
        ts, ces, norms = evolve_amplitudes(0.0, 0.0, 1, g, 1e-3 / g, 4000, 10)
        expect = np.cos(g * ts) ** 2
        assert np.abs(np.abs(ces) ** 2 - expect).max() < 1e-5

    def test_norm_conservation(self):
        _, (_, _, norms) = run_sim(n_modes=2000)
        drift = np.abs(norms - 1.0).max()
        assert drift <= 1e-6  # Cayley step: machine-level in practice
        assert drift < 1e-10

    def test_exponential_decay_window(self):
        _, (ts, ces, _) = run_sim(n_modes=2000)
        p = np.abs(ces) ** 2
        mask = (ts > 1.0) & (ts < 5.0)
        assert np.abs(p[mask] / np.exp(-ts[mask]) - 1.0).max() < 0.05

    def test_no_revival_before_ten_lifetimes(self):
        grid, (ts, ces, _) = run_sim(n_modes=1200, bandwidth=50.0, t_end=12.0)
        assert 2 * math.pi / grid.spacing > 10.0
        p = np.abs(ces) ** 2
        assert p[ts > 10.0].max() < 1e-3

    def test_coarse_dt_rejected(self):
        with pytest.raises(GridResolutionError):
            evolve(build_grid(100.0, 2000), 1.0, 1.0)

    def test_norm_drift_reported_as_failure(self, monkeypatch):
        # corrupt the kernel output to exercise the conservation guard
        def broken(center, spacing, n_modes, coupling, dt, n_steps, stride):
            n_samples = n_steps // stride
            ts = np.linspace(dt * stride, dt * n_steps, n_samples)
            ces = np.full(n_samples, 0.9 + 0j)
            norms = np.full(n_samples, 1.0 + 1e-4)
            return ts, ces, norms

        monkeypatch.setattr(wworacle, "evolve_amplitudes", broken)
        with pytest.raises(NormDriftError) as exc:
            evolve(build_grid(100.0, 2000), 1.0)
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

    def test_matches_per_mode_loop_on_built_grid(self):
        # ww-sim's default comb, whose edges are exact in units of gamma:
        # the two agree to 1.6e-14
        grid = build_grid(100.0, 4000)
        detun = np.linspace(grid.lo, grid.hi, grid.n_modes)
        dt = 0.19 / grid.max_detuning()
        n_steps = int(math.ceil(5.0 / dt))
        _, ces, norms = evolve_amplitudes(*kernel_comb(grid), dt, n_steps, 2)
        _, ces_ref, norms_ref = per_mode_reference(
            detun, np.full(grid.n_modes, grid.coupling), dt, n_steps, 2)
        assert np.abs(ces - ces_ref).max() <= 1e-12
        assert np.abs(norms - norms_ref).max() <= 1e-12

    def test_matches_per_mode_loop_past_revival_time(self):
        # past the revival time 2 pi/spacing sin(x_j) passes through 0 and the
        # modes rephase; the loop's own phase rounding grows with the steps (3e-13)
        grid = build_grid(40.0, 1000)
        revival_time = 2 * math.pi / grid.spacing
        dt = 0.19 / grid.max_detuning()
        n_steps = int(1.1 * revival_time / dt)
        ts, ces, norms = evolve_amplitudes(*kernel_comb(grid), dt, n_steps, 7)
        _, ces_ref, norms_ref = per_mode_reference(
            np.linspace(grid.lo, grid.hi, grid.n_modes), np.full(grid.n_modes, grid.coupling),
            dt, n_steps, 7)
        revived = ts > revival_time
        assert revived.any() and np.abs(ces[revived]).max() > 1e-3
        assert np.abs(ces - ces_ref).max() <= 1e-11
        assert np.abs(norms - norms_ref).max() <= 1e-11

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

        k_all = _dirichlet_kernel(0.3, 0.05, 101, 0.02, 0.01, 2 * n_pad)
        acc = np.zeros(n_pad, dtype=np.complex128)
        spectra = {}
        for n0 in range(BLOCK, n_pad, BLOCK):
            _add_square(acc, b, k_all, spectra, n0)
        for n0 in range(0, n_pad, BLOCK):
            for n in range(n0, n0 + BLOCK):
                acc[n] += np.dot(k_all[n - n0:0:-1], b[n0:n])
        direct = np.array([np.dot(k_all[n:0:-1], b[:n]) for n in range(n_pad)])
        assert np.abs(acc - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("comb", [(0.3, 0.05, 101, 0.02, 0.01),
                                      (0.0, 0.3, 6, 0.49, 2 * np.pi / (0.3 * 50)),
                                      (0.0, 100.0 / 3999, 4000, 1e-3, 0.0038),
                                      (36.85, 173.7 / 19999, 20000, 1e-3, 0.0015)])
    def test_lags_are_prefixes_of_the_longest(self, comb):
        # evolve_amplitudes builds K once, to the largest square's lags, and
        # the block and every square take a prefix: each K(j) is its own
        # elementwise arithmetic, whatever the length
        longest = _dirichlet_kernel(*comb, 4096)
        for m in (1, 7, 64, 128, 1000, 2048, 4095):
            np.testing.assert_array_equal(_dirichlet_kernel(*comb, m), longest[:m])


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
    @pytest.mark.parametrize("comb", ["rabi", "seven", "default"])
    def test_toeplitz_inverse_matches_dense_solve(self, comb):
        if comb == "rabi":
            (center, spacing, n, g), dt = (0.0, 0.0, 1, 2.5), 2.0 ** -12
        elif comb == "seven":
            (center, spacing, n, g), dt = (0.0, 2.0 ** -1, 7, 2.0 ** -2), 2.0 ** -5
        else:  # ww-sim's default comb and step
            grid = build_grid(100.0, 4000)
            center, spacing, n, g = kernel_comb(grid)
            dt = 0.19 / grid.max_detuning()
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

    def test_crank_nicolson_within_time_step_budget(self):
        # the memory-kernel tests check the Crank-Nicolson recursion against
        # itself; this checks its time discretization, at ww-sim's defaults
        grid, (ts, ces, _) = run_sim(n_modes=4000)
        _, weights, exact = exact_comb(grid.lo, grid.spacing, grid.n_modes, grid.coupling, ts)
        assert abs(weights.sum() - 1.0) <= 1e-12  # every root found
        assert np.abs(ces - exact).max() < 2.5e-5  # 2.18e-5
        rate_error = fit_decay(ts, ces).rate - fit_decay(ts, exact).rate
        assert abs(rate_error) < 2.5e-5  # -1.91e-5


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

    def test_default_grid_rate_within_budget(self):
        # at ww-sim's defaults the comb itself, solved exactly, decays at
        # 1 + 6.157e-3 (band edges, discreteness, fit window) and the time
        # step adds -1.9e-5 (TestExactComb)
        _, (ts, ces, _) = run_sim(n_modes=4000)
        fit = fit_decay(ts, ces)
        assert abs(fit.rate - 1.0) < 6.5e-3
        assert abs(fit.shift) < 1e-12  # symmetric comb: rounding only

    def test_non_exponential_rejected(self):
        ts = np.linspace(0.1, 10.0, 200)
        with pytest.raises(FitResidualError):
            fit_decay(ts, 1.0 / (1.0 + ts ** 2) + 0j)

    def test_rate_converges_first_order_in_spacing(self):
        # fixed bandwidth, doubling mode count: the calibration-density
        # mismatch gives a 1/n error against the n -> inf limit, so the
        # Richardson-extrapolated error halves per doubling
        rates = {}
        for n in (1100, 2200, 4400, 8800):
            _, (ts, ces, _) = run_sim(n_modes=n)
            rates[n] = fit_decay(ts, ces).rate
        r_inf = 2.0 * rates[8800] - rates[4400]
        e1 = abs(rates[1100] - r_inf)
        e2 = abs(rates[2200] - r_inf)
        e4 = abs(rates[4400] - r_inf)
        assert 1.6 < e1 / e2 < 2.6
        assert 1.6 < e2 / e4 < 2.6

    def test_rate_stable_under_dt_halving(self):
        vals = []
        for f in (1.0, 0.5, 0.25):
            _, (ts, ces, _) = run_sim(n_modes=1500, dt=0.0038 * f)
            vals.append(fit_decay(ts, ces).rate)
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1  # second-order integrator: changes shrink
        assert d2 < 1e-4

    def test_shift_logarithmic_in_upper_cutoff(self):
        # raise the upper band edge over a decade at fixed lower edge: the
        # level shift follows the band-edge logarithm with high linearity
        uppers = [50.0, 80.0, 125.0, 200.0, 320.0, 500.0]
        shifts = []
        for hi in uppers:
            span = 50.0 + hi
            n = max(1000, int(span * 12))
            _, (ts, ces, _) = run_sim(n_modes=n, bandwidth=100.0, hi=hi)
            shifts.append(fit_decay(ts, ces).shift)
        shifts = np.array(shifts)
        lnw = np.log(np.array(uppers))
        a = np.column_stack([np.ones(len(uppers)), lnw])
        coef, *_ = np.linalg.lstsq(a, shifts, rcond=None)
        pred = a @ coef
        r2 = 1.0 - np.sum((shifts - pred) ** 2) / np.sum((shifts - shifts.mean()) ** 2)
        assert r2 > 0.99
        # slope magnitude is the rate over 2 pi, up to discretization
        assert abs(abs(coef[1]) * 2 * math.pi - 1.0) < 0.05
