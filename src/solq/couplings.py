"""Qubit-reservoir couplings and the collective rates they generate.

The impurity qubit couples to the condensate density fluctuation, whose mode-k
coefficient around a soliton is the combination u_k + v_k dressed by the
soliton's tanh profile. Transition amplitudes between the impurity orbitals
are trapezoid sums of that density on the rate engine's grid; the collective
decay rate Gamma(d) and the coherent coupling eta(d) between two soliton sites
a distance d apart come from the spatial correlation of the coupling density
at the resonant mode and from its principal-value integral over the reservoir
band:

    D_k(y)       = m(y) [bu(y,k) e^{iky} + bv(y,k) e^{-iky}]
    C12(k; d)    = Re int dy D_k(y) D_k*(y - d)
    Gamma/gamma  = C12(k0; d) / C12(k0; 0)
    eta/gamma    = vg0/(4 pi C12(k0;0)) PV int_0^{wmax} dw [C12(k(w); d)/vg(w)]/(w - w0)

with m(y) = tanh^2(y) sech^(2 alpha)(y) the orbital-pair overlap density and
bu/bv the Bogoliubov bracket envelopes. Both ratios are even in d, equal 1 and
(cutoff-dependent) at contact, and vanish at large separation; Cauchy-Schwarz
guarantees |Gamma/gamma| <= 1.

C12 is the autocorrelation of D_k, so by Wiener-Khinchin every separation
follows from one table of |FFT D_k|^2 over the resonant mode and the PV
k-grid: `rate_set` builds it once per parameter set and grid size and then
costs one cosine matrix-vector product per separation.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bogoliubov import group_velocity, mode_bracket, resonant_wavevector
from .boundstates import wannier_pair
from .model import ModelParams, chi_over_g, qubit_gap, wannier_alpha

Y_HALF = 40.0          # spatial support half-width of the trapezoid sums, in xi
N_Y = 501              # samples of D_k across [-Y_HALF, Y_HALF]; D_k is analytic
                       # and decays like sech^(2 alpha), so the trapezoid sums
                       # converge exponentially: C12 matches n_y = 20001 to
                       # 1.6e-12 relative at (k0, d = 2.5), and the rates match
                       # the pins taken at 5001 points to 6e-13
N_OMEGA = 1601         # budget for the principal-value frequency grid
OMEGA_MAX_FACTOR = 50  # reservoir cutoff in units of the qubit gap
_FFT_CHUNK = 1 << 16   # complex samples per FFT batch (bounds the temporaries)


def _coupling_density(k, y, alpha, tanh_power):
    """tanh^p sech^(2 alpha) (bu e^{iky} + bv e^{-iky}) at the points y.

    The orbital product phi_l phi_m carries tanh^(l + m) sech^(2 alpha) and the
    reservoir adds one tanh, so p = l + m + 1; D_k is the p = 2 case. k
    broadcasts against y (a column of k values gives one row per mode).
    """
    th = np.tanh(y)
    sech = 1.0 / np.cosh(y)
    bu, bv = mode_bracket(k, th, sech * sech)
    phase = np.exp(1j * k * y)
    return th ** tanh_power * sech ** (2.0 * alpha) * (bu * phase + bv * phase.conj())


def _spectral_power(karr, alpha, n_y=N_Y, y_half=Y_HALF):
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
    nfft = 1 << (2 * n_y - 1).bit_length()
    half = nfft // 2
    power = np.empty((len(karr), half + 1))
    rows = max(1, _FFT_CHUNK // nfft)
    for a in range(0, len(karr), rows):
        dk = _coupling_density(karr[a:a + rows, None], y, alpha, 2)
        spec = np.fft.fft(dk, n=nfft, axis=1)
        pw = (spec.real ** 2 + spec.imag ** 2) * (dy / nfft)
        power[a:a + rows, 0] = pw[:, 0]
        power[a:a + rows, 1:half] = pw[:, 1:half] + pw[:, :half:-1]
        power[a:a + rows, half] = pw[:, half]
    q = 2.0 * np.pi / (nfft * dy) * np.arange(half + 1)
    return q, power


def correlation_panel(karr, d, alpha, n_y=N_Y, y_half=Y_HALF):
    """C12(k; d) = Re int dy D_k(y) D_k*(y - d) for every k in karr."""
    q, power = _spectral_power(karr, alpha, n_y, y_half)
    return power @ np.cos(q * abs(d))


def principal_value_grid(w0, wmax, n_omega=N_OMEGA):
    """Paneled frequency grid: dense straddle of the resonance, log-spaced tail.

    The far tail is geometric in (w - w0) because the subtracted integrand
    decays like 1/(w - w0) there; uniform spacing would need ~100x the points
    for the same trapezoid error.
    """
    wa = np.linspace(1e-8, 0.5 * w0, n_omega // 4, endpoint=False)
    wb = np.linspace(0.5 * w0, 1.5 * w0, n_omega // 2, endpoint=False)
    wc = w0 + np.geomspace(0.5 * w0, wmax - w0, n_omega // 4)
    return np.concatenate([wa, wb, wc])


def simpson(y, x):
    """Composite Simpson's rule for samples y on an increasing, irregular grid x.

    Simpson's three-point rule over consecutive pairs of intervals; with an
    even point count the last interval takes Cartwright's three-point
    correction. This is scipy.integrate.simpson's rule, term for term, for
    at least three points.
    """
    h = np.diff(x)
    n = len(y) - 2 + len(y) % 2  # intervals covered by the pairs
    h0, h1 = h[0:n:2], h[1:n:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(hsum / 6.0 * (
        y[0:n - 1:2] * (2.0 - 1.0 / ratio)
        + y[1:n:2] * (hsum * (hsum / hprod))
        + y[2:n + 1:2] * (2.0 - ratio)
    ))
    if len(y) % 2 == 0:
        a, b = h[-2], h[-1]
        total += (
            (2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
            + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
            - b ** 3 / (6 * a * (a + b)) * y[-3]
        )
    return total


def principal_value_integral(f, f0, wgrid, w0, wmax):
    """PV int_0^wmax f(w)/(w - w0) dw by singularity subtraction.

    The subtracted integrand (f - f0)/(w - w0) is regular at the resonance and
    integrated by Simpson's rule on wgrid; the subtracted pole contributes the
    analytic log term f0 ln((wmax - w0)/w0). Grid points landing on the pole
    take the limit value f'(w0), estimated by a central difference; zeroing
    them instead would cost an O(h) error there.
    """
    x = wgrid - w0
    integ = (f - f0) / np.where(np.abs(x) < 1e-12, 1.0, x)
    on_pole = np.nonzero(np.abs(x) < 1e-12)[0]
    for i in on_pole:
        if 0 < i < len(wgrid) - 1:
            integ[i] = (f[i + 1] - f[i - 1]) / (wgrid[i + 1] - wgrid[i - 1])
        else:
            integ[i] = 0.0
    return simpson(integ, x=wgrid) + f0 * math.log((wmax - w0) / w0)


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
def _table(alpha, w0, n_y, n_omega):
    """Spectral power over [k0] + the PV k-grid, shared by every separation.

    Also holds the on-shell group velocity of the PV grid. One entry: callers
    that change parameters every call (a parameter sweep) would otherwise
    accumulate ~7 MB tables. The arrays are read-only because every caller
    receives the same ones.
    """
    wgrid = principal_value_grid(w0, OMEGA_MAX_FACTOR * w0, n_omega)
    karr = np.concatenate([[resonant_wavevector(w0)], resonant_wavevector(wgrid)])
    vgw = group_velocity(karr[1:])
    q, power = _spectral_power(karr, alpha, n_y)
    for arr in (wgrid, karr, vgw, q, power):
        arr.flags.writeable = False
    return wgrid, karr, vgw, q, power


def rate_set(d: float, params: ModelParams, n_y=N_Y, n_omega=N_OMEGA) -> RateSet:
    """Collective rates for two soliton qubits a distance d apart.

    gamma is reported in mu/hbar with the reservoir quantization length fixed
    to xi (only the ratios enter the dynamics). Even in d by construction.
    """
    w0 = qubit_gap(params)
    if w0 <= 0.0:
        raise ValueError(f"no qubit splitting at nu = {params.nu}; need nu > 1/2")
    alpha = wannier_alpha(params)
    d = abs(float(d))
    if not d < math.inf:
        raise ValueError(f"separation d must be finite, got {d}")
    with _TABLE_LOCK:  # concurrent sweep workers build a missing table once
        wgrid, karr, vgw, q, power = _table(alpha, w0, n_y, n_omega)
    k0 = float(karr[0])
    vg0 = float(group_velocity(k0))

    # c11 and c12 through the same expression, so Gamma/gamma is exactly 1 at
    # d = 0 (a matrix-vector product may sum row 0 in another order)
    cos_qd = np.cos(q * d)
    c11 = float(power[0] @ np.cos(q * 0.0))
    c12 = float(power[0] @ cos_qd)

    wmax = OMEGA_MAX_FACTOR * w0
    f = power[1:] @ cos_qd / vgw
    f0 = c12 / vg0
    pv = principal_value_integral(f, f0, wgrid, w0, wmax)
    eta_over_gamma = pv * vg0 / (4.0 * math.pi * c11)

    pair = wannier_pair(params)
    pref = chi_over_g(params) / math.sqrt(params.n0_xi) * pair.a0 ** 2 * pair.a1
    gamma = 2.0 * pref ** 2 * c11 / (4.0 * math.pi * vg0)

    return RateSet(
        gamma=gamma,
        Gamma_over_gamma=c12 / c11,
        eta_over_gamma=float(eta_over_gamma),
        d=d,
        k0=k0,
    )


def coupling_amplitude(l, m, k, params: ModelParams):
    """Same-site transition amplitude g_lm(k) between impurity orbitals l and m.

    The trapezoid sum of phi_l phi_m tanh (bu e^{iky} + bv e^{-iky}) on the
    N_Y points of [-Y_HALF, Y_HALF] that also sample D_k: the integrand is
    analytic and decays like sech^(2 alpha), so the sum converges exponentially.
    """
    if l not in (0, 1) or m not in (0, 1):
        raise ValueError("band indices l, m must be 0 or 1")
    k = float(k)
    if not 0.0 < k < math.inf:
        raise ValueError(f"coupling_amplitude needs a finite k > 0, got {k}")
    pair = wannier_pair(params)
    pref = (
        chi_over_g(params)
        / math.sqrt(params.n0_xi)
        * pair.a0 ** 2 * pair.a1 ** (l + m)
        * math.sqrt(1.0 / (4.0 * math.pi))
    )
    y = np.linspace(-Y_HALF, Y_HALF, N_Y)
    density = _coupling_density(k, y, pair.alpha, l + m + 1)
    return pref * complex(np.trapezoid(density, y))


@dataclass(frozen=True)
class RwaReport:
    """Weak-coupling sanity numbers: amplitude hierarchy and rate scales."""

    g01_abs: float
    g00_over_g01: float
    g11_over_g01: float
    gamma: float
    gamma_over_omega0: float
    valid: bool


def rwa_report(params: ModelParams) -> RwaReport:
    """Report the hierarchy that justifies the two-level/rotating-wave model.

    At the resonant mode the interband amplitude should dominate both
    intraband ones, and gamma should sit far below the qubit gap. Only
    `valid` is a verdict, and it means no more than a positive gap, which
    needs nu > 1/2 and so a nonzero coupling: the amplitude ratios g00/g01
    and g11/g01 are reported, not gated (a gate waits for a benchmark whose
    seeded parameters meet it). A gap of zero or less (nu <= 1/2, including
    the uncoupled nu = 0) yields NaN fields and valid = False.
    """
    w0 = qubit_gap(params)
    if w0 <= 0.0:
        nan = float("nan")
        return RwaReport(
            g01_abs=nan, g00_over_g01=nan, g11_over_g01=nan,
            gamma=nan, gamma_over_omega0=nan, valid=False,
        )
    k0 = float(resonant_wavevector(w0))
    g00 = abs(coupling_amplitude(0, 0, k0, params))
    g01 = abs(coupling_amplitude(0, 1, k0, params))
    g11 = abs(coupling_amplitude(1, 1, k0, params))
    gamma = rate_set(0.0, params).gamma
    return RwaReport(
        g01_abs=g01,
        g00_over_g01=g00 / g01,
        g11_over_g01=g11 / g01,
        gamma=gamma,
        gamma_over_omega0=gamma / w0,
        valid=True,
    )
