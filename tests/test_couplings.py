import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import loggamma

from oracles import K_MIN, mode_amplitudes, phi0, phi1
from solq import couplings
from solq.bogoliubov import group_velocity, resonant_wavevector
from solq.boundstates import wannier_pair
from solq.couplings import (
    OMEGA_MAX_FACTOR,
    _table,
    correlation_panel,
    coupling_amplitude,
    principal_value_integral,
    principal_value_rule,
    rate_set,
    rwa_report,
)
from solq.model import ModelParams, chi_over_g, qubit_gap, wannier_alpha

P = ModelParams()
ALPHA = wannier_alpha(P)
W0 = qubit_gap(P)
K0 = float(resonant_wavevector(W0))
PARAM_SETS = (P, ModelParams(nu=0.6, mass_ratio=1.3), ModelParams(nu=0.78, mass_ratio=2.0))


def pv_grid(params):
    """rate_set's PV rule for params, and the wavevectors and group velocities
    at its nodes."""
    w0 = qubit_gap(params)
    rule = principal_value_rule(w0, OMEGA_MAX_FACTOR * w0)
    karr = resonant_wavevector(rule[0])
    return w0, rule, karr, group_velocity(karr)


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
    # same physical integrand, from 1e-14: the rule starts at 0, the integrand
    # needs k > 0, and [0, 1e-14] holds at most 3e-15 of the result
    vg0 = float(group_velocity(K0))
    wmax = OMEGA_MAX_FACTOR * W0
    _, rule, karr, vgw = pv_grid(P)
    for d in (0.5, 2.5, 6.0):
        def f(w):
            k = float(resonant_wavevector(w))
            vg = 2.0 * k * (k * k + 1.0) / w
            return float(correlation_panel(np.array([k]), d, ALPHA)[0]) / vg

        oracle, err = quad(f, 1e-14, wmax, weight="cauchy", wvar=W0,
                           epsabs=1e-13, epsrel=1e-12, limit=200)
        assert err < 1e-13 + 1e-12 * abs(oracle)
        c12 = float(correlation_panel(K0, d, ALPHA)[0])
        pv = principal_value_integral(correlation_panel(karr, d, ALPHA) / vgw, c12 / vg0, rule)
        # measured: at most 1.6e-14 relative
        assert abs(pv - oracle) < 1e-12 * abs(oracle), (d, pv, oracle)


def test_rate_table_matches_the_per_separation_route():
    # rate_set takes eta from one PV row over q, built once per table; the
    # route it replaces takes C12 at every node of the PV rule at each
    # separation and integrates that
    for params in PARAM_SETS:
        w0, rule, karr, vgw = pv_grid(params)
        alpha = wannier_pair(params).alpha
        k0 = float(resonant_wavevector(w0))
        vg0 = float(group_velocity(k0))
        c11 = float(correlation_panel(k0, 0.0, alpha)[0])
        for d in (0.0, 0.5, 1.0, 2.2, 2.5, 6.0, 10.0):
            c12 = float(correlation_panel(k0, d, alpha)[0])
            pv = principal_value_integral(correlation_panel(karr, d, alpha) / vgw, c12 / vg0,
                                          rule)
            want = pv * vg0 / (4.0 * math.pi * c11)
            got = rate_set(d, params).eta_over_gamma
            assert abs(got - want) < 1e-11 * max(abs(want), 0.01), (params, d, got, want)


def test_pv_excision_independence():
    # the subtraction prescription must agree with symmetric excision for any
    # half-width, once the regular window remainder is kept
    wmax = OMEGA_MAX_FACTOR * W0

    def f(w):
        return (0.3 + 0.5 * w) * np.exp(-(((w - W0) / 0.25) ** 2)) + 0.1

    f0 = float(f(W0))
    rule = principal_value_rule(W0, wmax)
    pv = principal_value_integral(f(rule[0]), f0, rule)

    values = []
    for eps in (1e-4, 1e-3, 1e-2):
        a, _ = quad(lambda w: f(w) / (w - W0), 0.0, W0 - eps, limit=400)
        b, _ = quad(lambda w: f(w) / (w - W0), W0 + eps, wmax, limit=400)
        win, _ = quad(
            lambda w: (f(w) - f0) / (w - W0), W0 - eps, W0 + eps,
            points=[W0], limit=400,
        )
        values.append(a + b + win)
    spread = max(values) - min(values)
    assert spread < 1e-6 * abs(values[0])
    # and the rule lands on the same number
    assert abs(pv - values[0]) < 1e-6 * abs(values[0])


def direct_correlation(k, d, alpha, n_y=5001, y_half=40.0):
    """Re int D_k(y) D_k*(y - d) dy by the trapezoid rule on a grid widened by |d|.

    D_k = tanh^2 sech^(2 alpha) (u_k + v_k) sqrt(4 pi) with the modes of
    `oracles.mode_amplitudes`, so the comparison also checks `mode_coefficients`.
    """
    y = np.linspace(-y_half - abs(d), y_half + abs(d), n_y)

    def density(x):
        mode = mode_amplitudes(k, x)
        return np.tanh(x) ** 2 / np.cosh(x) ** (2.0 * alpha) * (mode.u + mode.v)

    return 4.0 * math.pi * np.trapezoid((density(y) * np.conj(density(y - d))).real, y)


def test_panel_matches_direct_trapezoid():
    # the spectral panel against the direct sum, from the oracle's K_MIN (the
    # PV rule's lowest node is k = 7.8e-5, and 25 of its 96 lie below 0.05) to
    # the cutoff and at an off-grid separation
    k_max = float(resonant_wavevector(OMEGA_MAX_FACTOR * W0))
    d_values = (0.0, 0.7, 2.5 + math.pi * 1e-3, 6.0)
    karr = np.array([K_MIN, 0.05, K0, 1.0, k_max])
    for d in d_values:
        panel = correlation_panel(karr, d, ALPHA)
        for k, got in zip(karr, panel):
            c11 = direct_correlation(k, 0.0, ALPHA)
            want = direct_correlation(k, d, ALPHA)
            assert abs(got - want) < 1e-10 * c11, (k, d, got, want)


def test_rate_table_cache_tracks_its_key(monkeypatch):
    # every input the cached table depends on is in its key: after any other
    # parameter set, grid size, node count, cutoff or support, and on a
    # repeat, rate_set must return what it returns from a cold cache
    cases = [
        (P, {}),
        (ModelParams(nu=0.7), {}),
        (ModelParams(mass_ratio=1.3), {}),
        (ModelParams(wannier_convention="eigenstate"), {}),
        (P, {"N_Y": 401}),
        (P, {"N_GAUSS": 24}),
        (P, {"OMEGA_MAX_FACTOR": 100}),
        (P, {"Y_HALF": 20.0}),
        (P, {}),
    ]

    def rates(params, grids):
        with monkeypatch.context() as m:
            for name, value in grids.items():
                m.setattr(couplings, name, value)
            return rate_set(2.5, params)

    cold = []
    for params, grids in cases:
        _table.cache_clear()
        cold.append(rates(params, grids))
    for (params, grids), want in zip(cases, cold):
        assert rates(params, grids) == want
        hits = _table.cache_info().hits
        assert rates(params, grids) == want
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
    """g_lm(k) by adaptive quadrature of phi_l phi_m tanh (u_k + v_k).

    The orbitals and the mode come from `oracles`, as in `direct_correlation`,
    so the comparison also checks `mode_coefficients`.
    """
    pair = wannier_pair(params)
    orbital = (phi0, phi1)

    def integrand(y):
        mode = mode_amplitudes(k, y)
        return complex(orbital[l](pair, y) * orbital[m](pair, y) * math.tanh(y) * (mode.u + mode.v))

    # quad's error estimate runs ~100x above its actual error here (the two
    # rules agree to 5e-14), so it is only checked at 1e-11
    val, err = quad(integrand, -40.0, 40.0, epsabs=1e-13, epsrel=0.0,
                    limit=400, complex_func=True)
    assert abs(err) < 1e-11 * abs(val)
    return chi_over_g(params) / math.sqrt(params.n0_xi) * val


def test_amplitudes_match_adaptive_quadrature():
    # the closed form against scipy's adaptive quadrature, from the smallest
    # PV k through the resonance to the cutoff
    for params in (P, ModelParams(nu=0.6, mass_ratio=1.3)):
        w0 = qubit_gap(params)
        k0 = float(resonant_wavevector(w0))
        k_max = float(resonant_wavevector(OMEGA_MAX_FACTOR * w0))
        for k in (0.05, k0, 1.0, k_max):
            for l, m in ((0, 0), (0, 1), (1, 1)):
                want = quad_amplitude(l, m, k, params)
                got = coupling_amplitude(l, m, k, params)
                assert abs(got - want) < 1e-12 * abs(want), (params, k, l, m)


@pytest.mark.parametrize("p", range(5))
def test_closed_form_transforms_match_scipy(p):
    # Re ln Gamma against scipy on rows p, p + 5, ... of the strip
    # Re z in [0.3, 6], |Im z| <= 30, so the five cases cover it once
    for x in np.linspace(0.3, 6.0, 20)[p::5]:
        for y in np.linspace(-30.0, 30.0, 121):
            z = complex(x, y)
            assert abs(couplings._re_lgamma(z) - loggamma(z).real) < 1e-13, z
    # int tanh^p sech^(beta + 2j) e^{isy} dy against quad; the odd part of the
    # integrand cancels, so quad sees 2 int_0^40 of cos or sin
    trig = math.sin if p % 2 else math.cos
    for beta in (2.0 * ALPHA, 1.3):
        for s in (0.0, K0, 2.7):
            sech_transform = math.exp((beta - 1.0) * math.log(2.0) - math.lgamma(beta)
                                      + 2.0 * couplings._re_lgamma(complex(beta, s) / 2.0))
            for j in (0, 1):
                b = beta + 2.0 * j
                val, err = quad(lambda y: math.tanh(y) ** p / math.cosh(y) ** b * trig(s * y),
                                0.0, 40.0, epsabs=1e-13, epsrel=0.0, limit=400)
                assert err < 1e-13
                want = 2.0 * val * (1j if p % 2 else 1.0)
                got = sech_transform * couplings._fourier_ratio(p, j, beta, s)
                assert abs(got - want) < 1e-13 * sech_transform, (beta, s, j)


def test_rwa_report_hierarchy():
    r = rwa_report(P)
    assert abs(r.g01_abs - 0.0039029682268356216) < 1e-8
    assert abs(r.g00_over_g01 - 0.5073519395921774) < 1e-6
    assert abs(r.g11_over_g01 - 0.9627497941076318) < 1e-6
    assert abs(r.gamma_over_omega0 - 0.0003071779520791162) < 1e-8
    assert r.g00_over_g01 < 1.0
    assert r.g11_over_g01 < 1.0


def test_rwa_report_degenerate_coupling():
    with pytest.raises(ValueError, match="no qubit splitting"):
        rwa_report(ModelParams(nu=0.0))
