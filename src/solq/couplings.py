"""Qubit-reservoir couplings and the collective rates they generate.

The impurity qubit couples to the condensate density fluctuation, whose mode-k
coefficient around a soliton is the combination u_k + v_k dressed by the
soliton's tanh profile (`bogoliubov.mode_coefficients`). The orbital transition
amplitudes integrate it in closed form; the collective decay rate Gamma(d) and
the coherent coupling eta(d) between two soliton sites a distance d apart come
from the spatial correlation of the coupling density at the resonant mode and
from its principal-value integral over the reservoir band:

    D_k(y)       = m(y) [bu(y,k) e^{iky} + bv(y,k) e^{-iky}]
    C12(k; d)    = Re int dy D_k(y) D_k*(y - d)
    Gamma/gamma  = C12(k0; d) / C12(k0; 0)
    eta/gamma    = vg0/(4 pi C12(k0;0)) PV int_0^{wmax} dw [C12(k(w); d)/vg(w)]/(w - w0)

with m(y) = tanh^2(y) sech^(2 alpha)(y) the orbital-pair overlap density and
bu/bv the Bogoliubov bracket envelopes. Both ratios are even in d, equal 1 and
(cutoff-dependent) at contact, and vanish at large separation; Cauchy-Schwarz
guarantees |Gamma/gamma| <= 1.

C12 is the autocorrelation of D_k, so by Wiener-Khinchin C12(k; d) = P_k @ cos(q d)
with P_k = |FFT D_k|^2. The PV integral is one Gauss-Legendre rule with the
pole subtracted (`principal_value_rule`, 3 N_GAUSS nodes). It is linear in
C12, so it applies to every q column of P at its nodes at once: `rate_set`
builds, once per parameter set and grid, the resonant row P_k0 and the PV row
over q, and then costs two dot products with cos(q d) per separation.
"""

import cmath
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bogoliubov import group_velocity, mode_coefficients, resonant_wavevector
from .boundstates import wannier_pair
from .model import ModelParams, chi_over_g, qubit_gap

Y_HALF = 40.0          # spatial support half-width of the sampled D_k, in xi
N_Y = 501              # samples of D_k across [-Y_HALF, Y_HALF]; D_k is analytic
                       # and decays like sech^(2 alpha), so the trapezoid sums
                       # converge exponentially: C12 matches n_y = 20001 to
                       # 1.6e-12 relative at (k0, d = 2.5), and the rates match
                       # the pins taken at 5001 points to 6e-13
N_GAUSS = 32           # Gauss-Legendre nodes per principal-value panel; 64 moves
                       # the rates by at most 3.1e-13 (tests/test_convergence.py)
OMEGA_MAX_FACTOR = 50  # reservoir cutoff in units of the qubit gap
_FFT_CHUNK = 1 << 16   # complex samples per FFT batch (bounds the temporaries)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _spectral_power(karr, alpha, n_y, y_half):
    """Folded power spectra of D_k: returns q >= 0 and P with C12 = P @ cos(q |d|).

    D_k(y) is sampled on n_y points of [-y_half, y_half] and zero-padded to the
    next power of two >= 2 n_y, so the circular autocorrelation of the samples
    is the linear one (Wiener-Khinchin) and equals the trapezoid sum of
    Re D_k(y) D_k*(y - d) at every grid lag. P[k, q] = |FFT D_k|^2 dy/nfft with
    the +q and -q bins summed (cos is even); evaluating at any d interpolates
    between grid lags with an error set by the aliasing of D_k's spectrum,
    which is exponentially small here.
    """
    karr = np.atleast_1d(np.asarray(karr, dtype=float))
    y = np.linspace(-y_half, y_half, n_y)
    dy = y[1] - y[0]
    th, sech = np.tanh(y), 1.0 / np.cosh(y)
    ssq, overlap = sech * sech, th ** 2 * sech ** (2.0 * alpha)
    nfft = 1 << (2 * n_y - 1).bit_length()
    half = nfft // 2
    power = np.empty((len(karr), half + 1))
    rows = max(1, _FFT_CHUNK // nfft)
    for a in range(0, len(karr), rows):
        k = karr[a:a + rows, None]
        bu, bv = (c0 + c1 * th + c2 * ssq for c0, c1, c2 in mode_coefficients(k))
        phase = np.exp(1j * k * y)
        spec = np.fft.fft(overlap * (bu * phase + bv * phase.conj()), n=nfft, axis=1)
        pw = (spec.real ** 2 + spec.imag ** 2) * (dy / nfft)
        power[a:a + rows, 0] = pw[:, 0]
        power[a:a + rows, 1:half] = pw[:, 1:half] + pw[:, :half:-1]
        power[a:a + rows, half] = pw[:, half]
    q = 2.0 * np.pi / (nfft * dy) * np.arange(half + 1)
    return q, power


def correlation_panel(karr, d, alpha, n_y=N_Y):
    """C12(k; d) = Re int dy D_k(y) D_k*(y - d) for every k in karr."""
    q, power = _spectral_power(karr, alpha, n_y, Y_HALF)
    return power @ np.cos(q * abs(d))


def principal_value_rule(w0, wmax, n=N_GAUSS):
    """Nodes, weight row and f0 coefficient of PV int_0^wmax f(w)/(w - w0) dw.

    Three n-point Gauss-Legendre panels: [0, w0/2]; [w0/2, 3 w0/2], symmetric
    about the pole, so an even n puts no node on it; and the tail in
    u = ln(w - w0) up to wmax, where dw/(w - w0) = du. The pole is subtracted:
    the regular (f - f0)/(w - w0) takes the panels, and f0 the analytic
    PV int_0^wmax dw/(w - w0) = ln((wmax - w0)/w0).
    """
    x, g = np.polynomial.legendre.leggauss(n)
    ua, ub = math.log(0.5 * w0), math.log(wmax - w0)
    nodes = np.concatenate([0.25 * w0 * (x + 1.0), w0 * (1.0 + 0.5 * x),
                            w0 + np.exp(ua + 0.5 * (ub - ua) * (x + 1.0))])
    # each panel's weights over w - w0 at its nodes
    row = np.concatenate([g / (x - 3.0), g / x, 0.5 * (ub - ua) * g])
    return nodes, row, math.log((wmax - w0) / w0) - row.sum()


def principal_value_integral(f, f0, rule):
    """PV int f(w)/(w - w0) dw by `principal_value_rule`, along f's first axis.

    f holds the integrand at the rule's nodes, one integrand per column, and
    f0 = f(w0), one value per column: the rule is linear in both.
    """
    _, row, f0_coef = rule
    return row @ f + f0_coef * f0


@dataclass(frozen=True)
class RateSet:
    """Single-site decay rate gamma plus the collective ratios at separation d."""

    gamma: float
    Gamma_over_gamma: float
    eta_over_gamma: float
    d: float
    k0: float


_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=1)
def _table(alpha, w0, n_y, n_gauss, omega_max_factor, y_half):
    """What every separation shares: q, the resonant power row, the PV row, k0, vg0.

    C12(k0; d) = power0 @ cos(q d), and the PV integral of C12(k(w); d)/vg(w)
    is pv @ cos(q d): the PV rule is applied once to every q column of the
    power table at its nodes, which is then dropped. Every input is in
    the key. One entry of three vectors over q (513 values at the default
    N_Y), read-only because every caller receives the same ones.
    """
    rule = principal_value_rule(w0, omega_max_factor * w0, n_gauss)
    karr = np.concatenate([[resonant_wavevector(w0)], resonant_wavevector(rule[0])])
    q, power = _spectral_power(karr, alpha, n_y, y_half)
    k0 = float(karr[0])
    vg0 = float(group_velocity(k0))
    power[1:] /= group_velocity(karr[1:])[:, None]
    pv = principal_value_integral(power[1:], power[0] / vg0, rule)
    power0 = power[0].copy()  # not a view, which would keep the whole table alive
    for arr in (q, power0, pv):
        arr.flags.writeable = False
    return q, power0, pv, k0, vg0


def _prefactor(params: ModelParams, p: int):
    """chi/g n0^(-1/2) A0^2 A1^p of an orbital-pair amplitude, and the pair.

    p counts the phi1 factors: 1 for D_k (phi0 phi1), l + m for g_lm.
    """
    pair = wannier_pair(params)
    return chi_over_g(params) / math.sqrt(params.n0_xi) * pair.a0 ** 2 * pair.a1 ** p, pair


def rate_set(d: float, params: ModelParams) -> RateSet:
    """Collective rates for two soliton qubits a distance d apart.

    gamma is reported in mu/hbar with the reservoir quantization length fixed
    to xi (only the ratios enter the dynamics). Even in d by construction.
    The table follows N_Y, N_GAUSS, OMEGA_MAX_FACTOR and Y_HALF as they stand
    at the call.
    """
    w0 = qubit_gap(params)
    if w0 <= 0.0:
        raise ValueError(f"no qubit splitting at nu = {params.nu}; need nu > 1/2")
    pref, pair = _prefactor(params, 1)
    d = abs(float(d))
    if not d < math.inf:
        raise ValueError(f"separation d must be finite, got {d}")
    with _TABLE_LOCK:  # concurrent sweep workers build a missing table once
        q, power0, pv, k0, vg0 = _table(pair.alpha, w0, N_Y, N_GAUSS, OMEGA_MAX_FACTOR, Y_HALF)

    # c11 and c12 through the same expression, so Gamma/gamma is exactly 1 at d = 0
    cos_qd = np.cos(q * d)
    c11 = float(power0 @ np.cos(q * 0.0))
    c12 = float(power0 @ cos_qd)
    eta_over_gamma = float(pv @ cos_qd) * vg0 / (4.0 * math.pi * c11)
    gamma = 2.0 * pref ** 2 * c11 / (4.0 * math.pi * vg0)

    return RateSet(
        gamma=gamma,
        Gamma_over_gamma=c12 / c11,
        eta_over_gamma=eta_over_gamma,
        d=d,
        k0=k0,
    )


def _re_lgamma(z):
    """Re ln Gamma(z) for Re z > 0 (numpy has no complex Gamma): Stirling's series,
    B_2n/(2n (2n - 1) w^(2n - 1)) to w^-13 at w = z + 8, omits less than 1e-15."""
    w = z + 8.0  # Gamma(w) = z (z + 1) ... (z + 7) Gamma(z)
    series = sum(c / w ** (2 * n + 1) for n, c in enumerate(_STIRLING))
    shift = sum(math.log(abs(z + n)) for n in range(8))
    return ((w - 0.5) * cmath.log(w) - w + series).real + 0.5 * math.log(2.0 * math.pi) - shift


def _fourier_ratio(p, j, beta, s):
    """int tanh^p sech^(beta + 2j) e^{isy} dy over int sech^beta e^{isy} dy, rational in s:
    tanh^2 = 1 - sech^2 lowers p by two, tanh sech^b = -(sech^b)'/b brings is/b,
    and b -> b + 2 brings (b^2 + s^2)/(b (b + 1)). No transcendental is subtracted."""
    if p >= 2:
        return _fourier_ratio(p - 2, j, beta, s) - _fourier_ratio(p - 2, j + 1, beta, s)
    b = [beta + 2.0 * i for i in range(j + 1)]
    ratio = math.prod((c * c + s * s) / (c * (c + 1.0)) for c in b[:-1])
    return ratio * 1j * s / b[-1] if p else ratio


def coupling_amplitude(l, m, k, params: ModelParams):
    """Same-site transition amplitude g_lm(k) between impurity orbitals l and m.

    int phi_l phi_m tanh (bu e^{iky} + bv e^{-iky}) dy in closed form: each term is
    a `_fourier_ratio` at s = +-k times int sech^beta e^{isy} dy, which equals
    2^(beta - 1) |Gamma((beta + is)/2)|^2 / Gamma(beta) (Gradshteyn & Ryzhik 3.985.1)."""
    if l not in (0, 1) or m not in (0, 1):
        raise ValueError("band indices l, m must be 0 or 1")
    k = float(k)
    if not 0.0 < k < math.inf:
        raise ValueError(f"coupling_amplitude needs a finite k > 0, got {k}")
    pref, pair = _prefactor(params, l + m)
    beta, p = 2.0 * pair.alpha, l + m + 1  # phi_l phi_m tanh = tanh^p sech^beta
    terms = ((p, 0), (p + 1, 0), (p, 1))  # the columns 1, tanh and sech^2
    total = 0.0
    for s, row in zip((k, -k), mode_coefficients(k)):
        total += sum(c * _fourier_ratio(q, j, beta, s) for c, (q, j) in zip(row, terms))
    sech_transform = math.exp((beta - 1.0) * math.log(2.0) - math.lgamma(beta)
                              + 2.0 * _re_lgamma(complex(beta, k) / 2.0))
    return pref * math.sqrt(1.0 / (4.0 * math.pi)) * complex(sech_transform * total)


@dataclass(frozen=True)
class RwaReport:
    """Weak-coupling sanity numbers: rate scales and amplitude hierarchy."""

    gamma: float
    gamma_over_omega0: float
    g01_abs: float
    g00_over_g01: float
    g11_over_g01: float


def rwa_report(params: ModelParams) -> RwaReport:
    """Report the hierarchy that justifies the two-level/rotating-wave model.

    At the resonant mode the interband amplitude should dominate both
    intraband ones, and gamma should sit far below the qubit gap. Nothing
    here is a verdict: the amplitude ratios g00/g01 and g11/g01 are reported,
    not gated (a gate waits for a benchmark whose seeded parameters meet it).
    Like `rate_set`, raises ValueError when there is no positive gap
    (nu <= 1/2, including the uncoupled nu = 0).
    """
    rates = rate_set(0.0, params)
    g00, g01, g11 = (
        abs(coupling_amplitude(l, m, rates.k0, params)) for l, m in ((0, 0), (0, 1), (1, 1))
    )
    return RwaReport(
        gamma=rates.gamma,
        gamma_over_omega0=rates.gamma / qubit_gap(params),
        g01_abs=g01,
        g00_over_g01=g00 / g01,
        g11_over_g01=g11 / g01,
    )
