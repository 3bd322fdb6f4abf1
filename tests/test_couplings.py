import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson as scipy_simpson

from solq import couplings
from solq.bogoliubov import group_velocity, resonant_wavevector
from solq.boundstates import wannier_pair
from solq.couplings import (
    N_OMEGA,
    OMEGA_MAX_FACTOR,
    _table,
    correlation_panel,
    coupling_amplitude,
    principal_value_grid,
    principal_value_integral,
    rate_set,
    rwa_report,
    simpson,
)
from solq.model import ModelParams, chi_over_g, qubit_gap, wannier_alpha

P = ModelParams()
ALPHA = wannier_alpha(P)
W0 = qubit_gap(P)
K0 = float(resonant_wavevector(W0))


def test_correlation_is_even_in_separation():
    karr = np.array([K0, 0.4, 1.1])
    for d in (0.7, 2.5, 4.2):
        plus = correlation_panel(karr, d, ALPHA)
        minus = correlation_panel(karr, -d, ALPHA)
        assert np.max(np.abs(plus - minus)) < 1e-13 * np.max(np.abs(plus))


def test_contact_ratio_is_exactly_one():
    rs = rate_set(0.0, P)
    assert rs.Gamma_over_gamma == 1.0


def test_collective_ratio_is_bounded():
    # Cauchy-Schwarz on the correlation: |C12| <= C11
    for d in (0.3, 1.0, 1.7, 2.5, 3.3, 4.6, 6.0):
        rs = rate_set(d, P)
        assert abs(rs.Gamma_over_gamma) <= 1.0 + 1e-9


def test_rate_regression_pins():
    # frozen reference values for the default parameter set
    pins = {
        0.5: (0.37895206764538797, 1.5386018760582658),
        1.0: (0.17540476097052546, -0.18539819088689244),
        2.5: (-0.3001013852822895, 0.2763492283663404),
        5.0: (0.00976176556884377, 0.02292837189223791),
    }
    for d, (big, eta) in pins.items():
        rs = rate_set(d, P)
        assert abs(rs.gamma - 4.922723591011477e-05) < 1e-6 * 4.92e-05
        assert abs(rs.Gamma_over_gamma - big) < 1e-6 * max(abs(big), 0.01)
        assert abs(rs.eta_over_gamma - eta) < 1e-6 * max(abs(eta), 0.01)
        assert rs.d == d
        assert abs(rs.k0 - 0.1129586390118519) < 1e-12


def test_gamma_does_not_depend_on_separation():
    g = [rate_set(d, P).gamma for d in (0.0, 1.3, 3.7)]
    assert max(g) - min(g) < 1e-18


def test_rates_need_a_positive_gap():
    with pytest.raises(ValueError):
        rate_set(1.0, ModelParams(nu=0.4))


def test_ratios_decay_at_large_separation():
    rs = rate_set(20.0, P)
    assert abs(rs.Gamma_over_gamma) < 1e-12
    assert abs(rs.eta_over_gamma) < 1e-12


def test_pv_against_adaptive_cauchy_quadrature():
    # independent oracle: scipy's Cauchy-weight adaptive quadrature on the
    # same physical integrand
    d = 2.5
    vg0 = float(group_velocity(K0))
    c12 = float(correlation_panel(K0, d, ALPHA)[0])
    wmax = OMEGA_MAX_FACTOR * W0

    def f(w):
        k = float(resonant_wavevector(w))
        vg = 2.0 * k * (k * k + 1.0) / w
        return float(correlation_panel(np.array([k]), d, ALPHA)[0]) / vg

    oracle, err = quad(f, 1e-8, wmax, weight="cauchy", wvar=W0, limit=200)
    assert abs(err) < 1e-7

    wgrid = principal_value_grid(W0, wmax)
    karr = resonant_wavevector(wgrid)
    vgw = 2.0 * karr * (karr * karr + 1.0) / wgrid
    fw = correlation_panel(karr, d, ALPHA) / vgw
    pv = principal_value_integral(fw, c12 / vg0, wgrid, W0, wmax)
    assert abs(pv - oracle) < 1e-6 * abs(oracle)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 101, 1600, 1601])
def test_simpson_matches_scipy(n):
    # odd and even point counts on irregular grids: pairs of intervals, and
    # Cartwright's correction for the last one when n is even
    rng = np.random.default_rng(n)
    for _ in range(10):
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = np.sin(x) + rng.normal(size=n)
        oracle = scipy_simpson(y, x=x)
        assert abs(simpson(y, x) - oracle) <= 1e-12 * abs(oracle)


def test_simpson_matches_scipy_on_pv_integrands(monkeypatch):
    # the subtracted integrands that rate_set's PV integral hands to simpson,
    # on the 1600-point grid, for three parameter sets
    handed = []
    monkeypatch.setattr(couplings, "simpson", lambda y, x: handed.append((y, x)) or 0.0)
    for params in (P, ModelParams(nu=0.6, mass_ratio=1.3), ModelParams(nu=0.78, mass_ratio=2.0)):
        for d in (0.0, 1.0, 2.5, 6.0):
            rate_set(d, params)
    monkeypatch.undo()
    assert len(handed) == 12 and len(handed[0][1]) == N_OMEGA - 1
    for y, x in handed:
        oracle = scipy_simpson(y, x=x)
        assert abs(couplings.simpson(y, x) - oracle) <= 1e-12 * abs(oracle)


def test_pv_excision_independence():
    # the subtraction prescription must agree with symmetric excision for any
    # half-width, once the regular window remainder is kept
    wmax = OMEGA_MAX_FACTOR * W0
    lo = 1e-8

    def f(w):
        return (0.3 + 0.5 * w) * np.exp(-(((w - W0) / 0.25) ** 2)) + 0.1

    f0 = float(f(W0))
    wgrid = principal_value_grid(W0, wmax)
    pv = principal_value_integral(f(wgrid), f0, wgrid, W0, wmax)

    values = []
    for eps in (1e-4, 1e-3, 1e-2):
        a, _ = quad(lambda w: f(w) / (w - W0), lo, W0 - eps, limit=400)
        b, _ = quad(lambda w: f(w) / (w - W0), W0 + eps, wmax, limit=400)
        win, _ = quad(
            lambda w: (f(w) - f0) / (w - W0), W0 - eps, W0 + eps,
            points=[W0], limit=400,
        )
        values.append(a + b + win)
    spread = max(values) - min(values)
    assert spread < 1e-6 * abs(values[0])
    # and the grid scheme lands on the same number
    assert abs(pv - values[0]) < 1e-6 * abs(values[0])


def test_pv_eta_grid_refinement():
    coarse = rate_set(2.5, P).eta_over_gamma
    fine = rate_set(2.5, P, n_omega=2 * N_OMEGA + 1).eta_over_gamma
    assert abs(coarse - fine) < 1e-6 * abs(fine)


def direct_correlation(k, d, alpha, n_y=5001, y_half=40.0):
    """Re int D_k(y) D_k*(y - d) dy by the trapezoid rule on a grid widened by |d|.

    The bracket is written out here rather than taken from `bogoliubov`, so the
    comparison also checks `mode_bracket`.
    """
    y = np.linspace(-y_half - abs(d), y_half + abs(d), n_y)
    eps = math.sqrt(k * k * (k * k + 2.0))

    def density(x):
        th = np.tanh(x)
        sech = 1.0 / np.cosh(x)
        common = k / 2.0 + 1j * th
        bu = (k * k + 2.0 * eps) / eps * common + (k / eps) * sech ** 2
        bv = (k * k - 2.0 * eps) / eps * common + (k / eps) * sech ** 2
        return th * th * sech ** (2.0 * alpha) * (
            bu * np.exp(1j * k * x) + bv * np.exp(-1j * k * x)
        )

    return np.trapezoid((density(y) * np.conj(density(y - d))).real, y)


def test_panel_matches_direct_trapezoid():
    # the spectral panel against the direct sum, from the smallest PV k to the
    # cutoff and at an off-grid separation
    k_max = float(resonant_wavevector(OMEGA_MAX_FACTOR * W0))
    d_values = (0.0, 0.7, 2.5 + math.pi * 1e-3, 6.0)
    karr = np.array([0.05, K0, 1.0, k_max])
    for d in d_values:
        panel = correlation_panel(karr, d, ALPHA)
        for k, got in zip(karr, panel):
            c11 = direct_correlation(k, 0.0, ALPHA)
            want = direct_correlation(k, d, ALPHA)
            assert abs(got - want) < 1e-10 * c11, (k, d, got, want)


def test_rate_table_cache_tracks_its_key():
    # every input the cached table depends on is in its key: after any other
    # parameter set or grid override, and on a repeat, rate_set must return
    # what it returns from a cold cache
    cases = [
        (P, {}),
        (ModelParams(nu=0.7), {}),
        (ModelParams(mass_ratio=1.3), {}),
        (ModelParams(wannier_convention="eigenstate"), {}),
        (P, {"n_y": 401}),
        (P, {"n_omega": 801}),
        (P, {}),
    ]
    cold = []
    for params, grids in cases:
        _table.cache_clear()
        cold.append(rate_set(2.5, params, **grids))
    for (params, grids), want in zip(cases, cold):
        assert rate_set(2.5, params, **grids) == want
        hits = _table.cache_info().hits
        assert rate_set(2.5, params, **grids) == want
        assert _table.cache_info().hits == hits + 1


def test_spatial_panel_is_converged():
    val = correlation_panel(np.array([K0]), 2.5, ALPHA)[0]
    fine = correlation_panel(np.array([K0]), 2.5, ALPHA, n_y=20001)[0]
    assert abs(val - fine) < 1e-10 * abs(fine)


def test_coupling_amplitude_validation():
    with pytest.raises(ValueError):
        coupling_amplitude(2, 0, K0, P)
    for k in (-0.2, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            coupling_amplitude(0, 1, k, P)


def test_interband_amplitude_parity():
    # phi0 phi1 is odd about the site, so g_01 is finite while the even-parity
    # pieces of the integrand cancel; swapping l, m changes nothing
    g_a = coupling_amplitude(0, 1, K0, P)
    g_b = coupling_amplitude(1, 0, K0, P)
    assert abs(g_a - g_b) < 1e-12


def quad_amplitude(l, m, k, params):
    """g_lm(k) by adaptive quadrature of phi_l phi_m tanh (bu e^{iky} + bv e^{-iky}).

    The orbitals and the bracket are written out here, as in
    `direct_correlation`, so the comparison also checks `mode_bracket`.
    """
    pair = wannier_pair(params)
    eps = math.sqrt(k * k * (k * k + 2.0))

    def integrand(y):
        th = math.tanh(y)
        sech = 1.0 / math.cosh(y)
        phi0 = pair.a0 * sech ** pair.alpha
        orbital = (phi0, pair.a1 * th * phi0)
        common = complex(k / 2.0, th)
        bu = (k * k + 2.0 * eps) / eps * common + (k / eps) * sech ** 2
        bv = (k * k - 2.0 * eps) / eps * common + (k / eps) * sech ** 2
        phase = complex(math.cos(k * y), math.sin(k * y))
        return orbital[l] * orbital[m] * th * (bu * phase + bv * phase.conjugate())

    # quad's error estimate runs ~100x above its actual error here (the two
    # rules agree to 5e-14), so it is only checked at 1e-11
    val, err = quad(integrand, -40.0, 40.0, epsabs=1e-13, epsrel=0.0,
                    limit=400, complex_func=True)
    assert abs(err) < 1e-11 * abs(val)
    return chi_over_g(params) / math.sqrt(4.0 * math.pi * params.n0_xi) * val


def test_amplitudes_match_adaptive_quadrature():
    # the trapezoid sum on the rate engine's grid against scipy's adaptive
    # quadrature, from the smallest PV k through the resonance to the cutoff
    for params in (P, ModelParams(nu=0.6, mass_ratio=1.3)):
        w0 = qubit_gap(params)
        k0 = float(resonant_wavevector(w0))
        k_max = float(resonant_wavevector(OMEGA_MAX_FACTOR * w0))
        for k in (0.05, k0, 1.0, k_max):
            for l, m in ((0, 0), (0, 1), (1, 1)):
                want = quad_amplitude(l, m, k, params)
                got = coupling_amplitude(l, m, k, params)
                assert abs(got - want) < 1e-12 * abs(want), (params, k, l, m)


def test_rwa_report_hierarchy():
    r = rwa_report(P)
    assert abs(r.g01_abs - 0.0039029682268356216) < 1e-8
    assert abs(r.g00_over_g01 - 0.5073519395921774) < 1e-6
    assert abs(r.g11_over_g01 - 0.9627497941076318) < 1e-6
    assert abs(r.gamma_over_omega0 - 0.0003071779520791162) < 1e-8
    assert r.g00_over_g01 < 1.0
    assert r.g11_over_g01 < 1.0
    assert r.valid


def test_rwa_report_degenerate_coupling():
    r = rwa_report(ModelParams(nu=0.0))
    assert not r.valid
    assert math.isnan(r.g01_abs)
