"""Closed forms of the two-qubit model, kept as test oracles, and the
observables that only tests read (matrix elements, orbital profiles, field
norm and energy, the dense kinetic matrix, Bogoliubov mode profiles).

Every two-qubit function here works on product-basis arrays (order ee, eg,
ge, gg), the basis of `solq.dynamics`. States that the closed forms describe
in the Dicke basis (e, s, a, g with |s>, |a> = (|e1 g2> +- |g1 e2>)/sqrt(2))
are rotated into it with this module's own U_DICKE.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from solq.boundstates import WannierPair
from solq.couplings import RateSet
from solq.dynamics import (
    DICKE_LABELS, PRODUCT_LABELS, DensityMatrix4, DriveParams, _check_rates, _expm1,
    build_liouvillian,
)
from solq.gpe import Grid1D, LatticeField

# product order ee, eg, ge, gg to Dicke order e, s, a, g; its own inverse
U_DICKE = np.eye(4)
U_DICKE[1:3, 1:3] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# each label's state vector in the product basis
LABEL_VECTORS = dict(zip(PRODUCT_LABELS, np.eye(4))) | dict(zip(DICKE_LABELS, U_DICKE))

X_SHAPE_TOL = 1e-10

# site lowering operators in the product basis ee, eg, ge, gg
SM1 = np.zeros((4, 4)); SM1[2, 0] = 1.0; SM1[3, 1] = 1.0
SM2 = np.zeros((4, 4)); SM2[1, 0] = 1.0; SM2[3, 2] = 1.0
SP1, SP2 = SM1.T, SM2.T

SY = np.array([[0.0, -1j], [1j, 0.0]])
SY_SY = np.kron(SY, SY).real  # sy kron sy is real


def element(state: DensityMatrix4, row_label: str, col_label: str) -> complex:
    """<row| rho |col> for product (ee, ...) or Dicke (e, s, a, g) labels."""
    return complex(LABEL_VECTORS[row_label] @ state.matrix @ LABEL_VECTORS[col_label])


def _from_dicke(ee, ss, aa, sa) -> np.ndarray:
    """Product-basis stack from Dicke populations of e, s, a (g by the trace)
    and the s-a coherence, one matrix per entry."""
    ee, ss, aa = (np.asarray(v, dtype=float) for v in (ee, ss, aa))
    m = np.zeros((len(ee), 4, 4), dtype=complex)
    m[:, 0, 0], m[:, 1, 1], m[:, 2, 2] = ee, ss, aa
    m[:, 3, 3] = 1.0 - ee - ss - aa
    m[:, 1, 2], m[:, 2, 1] = sa, np.conj(sa)
    return U_DICKE @ m @ U_DICKE


def dicke_matrix(init: dict) -> np.ndarray:
    """The product-basis matrix of a decay-class start (see analytic_undriven)."""
    keys = ("rho_ee", "rho_ss", "rho_aa", "rho_sa")
    return _from_dicke(*([init.get(k, 0.0)] for k in keys))[0]


def liouvillian_apply(rho: np.ndarray, rates: RateSet,
                      drive: DriveParams = DriveParams()) -> np.ndarray:
    """drho/dt in units of gamma (the diagonal decay of |ee><ee| is -2)."""
    return (build_liouvillian(rates, drive) @ np.ravel(rho)).reshape(4, 4)


def kron_liouvillian(rates: RateSet, drive: DriveParams = DriveParams()) -> np.ndarray:
    """The 16x16 generator summed term by term from its Kronecker products,
    A rho B entering as A kron B^T: the Hamiltonian at these rates and drive,
    then G_ij times the dissipator of each (i, j) in row-major order."""
    _check_rates(rates)
    big = rates.Gamma_over_gamma
    gmat = np.array([[1.0, big], [big, 1.0]])
    sm, sp = (SM1, SM2), (SP1, SP2)
    eye = np.eye(4)
    h = (rates.eta_over_gamma * (SP1 @ SM2 + SP2 @ SM1)
         - 0.5 * drive.omega_rabi * (SP1 + SM1 + SP2 + SM2))
    lop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i in range(2):
        for j in range(2):
            anti = sp[i] @ sm[j]
            lop = lop + gmat[i, j] * (
                np.kron(sm[j], sp[i].T) - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
            )
    return lop


def wootters_batch(m: np.ndarray) -> np.ndarray:
    """Concurrences of an (n, 4, 4) stack of density matrices: singular values
    of D (V^H Y V^*) D for rho = V diag(w) V^H, D = diag(sqrt(w)) and
    Y = sy kron sy applied as a matrix product."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(1, 2)))
    root = np.sqrt(np.maximum(w, 0.0))
    flip = v.conj().swapaxes(1, 2) @ (SY_SY @ v.conj())
    s = np.linalg.svd(root[:, :, None] * flip * root[:, None, :], compute_uv=False)
    return np.maximum(s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3], 0.0)


def evolve_indexed(state0: DensityMatrix4, rates: RateSet, t_grid,
                   drive: DriveParams = DriveParams()):
    """The exact propagator stepped into a preallocated (n, 16) array: the
    kron generator, one exp(L h) - 1 per distinct step h (all from one
    `_expm1` call), and vec[n + 1] = vec[n] + incs[k] @ vec[n]. Returns the
    hermitized (n, 4, 4) stack and its `wootters_batch` concurrences."""
    t_grid = np.asarray(t_grid, dtype=float)
    steps, which = np.unique(np.diff(t_grid), return_inverse=True)
    incs = _expm1(kron_liouvillian(rates, drive) * steps[:, None, None])
    vec = np.empty((len(t_grid), 16), dtype=complex)
    vec[0] = state0.matrix.ravel()
    for n, k in enumerate(which):
        vec[n + 1] = vec[n] + incs[k] @ vec[n]
    rho = vec.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    return rho, wootters_batch(rho)


def _exprel(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1)/x elementwise, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def analytic_undriven(init: dict, rates: RateSet, times) -> np.ndarray:
    """Closed-form decay of the Dicke populations and the s-a coherence.

    init supplies rho_ee, rho_ss, rho_aa (real) and rho_sa (complex); the
    ground population is fixed by the trace. Valid for states with no other
    nonzero elements and no drive. The superradiant channel feeds |s> at rate
    gamma + Gamma and |a> at gamma - Gamma; the degenerate points
    Gamma = +-gamma take the x -> 0 limit of (e^x - 1)/x. Returns the
    (n, 4, 4) product-basis stack, not validated.
    """
    _check_rates(rates)
    unknown = set(init) - {"rho_ee", "rho_ss", "rho_aa", "rho_sa"}
    if unknown:
        raise ValueError(f"unsupported initial elements: {sorted(unknown)}")
    ee0 = float(init.get("rho_ee", 0.0))
    ss0 = float(init.get("rho_ss", 0.0))
    aa0 = float(init.get("rho_aa", 0.0))
    sa0 = complex(init.get("rho_sa", 0.0))
    if 1.0 - ee0 - ss0 - aa0 < -1e-12:
        raise ValueError("initial populations exceed 1")

    eta = rates.eta_over_gamma
    times = np.asarray(times, dtype=float)
    up = 1.0 + rates.Gamma_over_gamma   # superradiant rate, units of gamma
    dn = 1.0 - rates.Gamma_over_gamma   # subradiant rate

    ee = ee0 * np.exp(-2.0 * times)
    feed_ss = up * times * _exprel(dn * times) * np.exp(-2.0 * times) * ee0
    feed_aa = dn * times * _exprel(up * times) * np.exp(-2.0 * times) * ee0
    ss = ss0 * np.exp(-up * times) + feed_ss
    aa = aa0 * np.exp(-dn * times) + feed_aa
    sa = sa0 * np.exp(-(1.0 + 2.0j * eta) * times)
    return _from_dicke(ee, ss, aa, sa)


def steady_state_closed_form(rates: RateSet, drive: DriveParams) -> np.ndarray:
    """Steady state under the resonant drive on both qubits in closed form,
    product basis.

    In the Dicke basis the s-g coherence carries gamma (gamma + Gamma - 2 i
    eta) + Omega^2 in its numerator; the sign of the eta term matters and is
    fixed by the generator's null space (the tests pin it against the SVD
    route).
    """
    _check_rates(rates)
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    om = drive.omega_rabi
    if om == 0.0:
        return np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)

    den = (1.0 + big) ** 2 + 4.0 * (eta * eta + om * om) + 4.0 * om ** 4
    ee = om ** 4 / den
    aa = om ** 4 / den
    ss = om ** 2 * (2.0 + om ** 2) / den
    gg = ((1.0 + big) ** 2 + 2.0 * (2.0 * eta * eta + om ** 2) + om ** 4) / den
    ge = -(1.0 + big + 2.0j * eta) * om ** 2 / den
    es = 1j * math.sqrt(2.0) * om ** 3 / den
    sg = 1j * math.sqrt(2.0) * om * ((1.0 + big - 2.0j * eta) + om ** 2) / den

    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = ee, ss, aa, gg
    m[3, 0], m[0, 3] = ge, np.conj(ge)
    m[0, 1], m[1, 0] = es, np.conj(es)
    m[1, 3], m[3, 1] = sg, np.conj(sg)
    return U_DICKE @ m @ U_DICKE


class SteadyOptimum(NamedTuple):
    omega: float          # the drive Omega* that maximizes the steady concurrence
    concurrence: float    # C* there


def steady_optimum(rates: RateSet) -> SteadyOptimum:
    """The maximum over the drive of the steady concurrence, in closed form.

    In units of gamma, with a = |Gamma + 2 i eta|, B = ((1 + Gamma)^2 + 4 eta^2)/4
    and x = Omega^2, the steady formula is C = 1/2 max(0, x (a - x)/(x^2 + x + B)).
    dC/dx = 0 gives (a + 1) x^2 + 2 B x - a B = 0, whose positive root is
    x* = (sqrt(B^2 + a B (a + 1)) - B)/(a + 1).
    """
    _check_rates(rates)
    big, eta = rates.Gamma_over_gamma, rates.eta_over_gamma
    a = abs(complex(big, 2.0 * eta))
    b = ((1.0 + big) ** 2 + 4.0 * eta * eta) / 4.0
    x = (math.sqrt(b * b + a * b * (a + 1.0)) - b) / (a + 1.0)
    return SteadyOptimum(math.sqrt(x), 0.5 * max(0.0, x * (a - x) / (x * x + x + b)))


class ClosedFormConcurrence(NamedTuple):
    c_outer: float    # outer antidiagonal |rho_14| branch
    c_inner: float    # inner antidiagonal |rho_23| branch

    @property
    def value(self) -> float:
        return max(0.0, self.c_outer, self.c_inner)

    @property
    def branch(self) -> str:
        return "outer" if self.c_outer >= self.c_inner else "inner"


def concurrence_closed_forms(rho: np.ndarray) -> ClosedFormConcurrence:
    """Both X-state branches: C = max(0, c_outer, c_inner).

    c_outer = 2(|rho_14| - sqrt(rho_22 rho_33)) and
    c_inner = 2(|rho_23| - sqrt(rho_11 rho_44)) in the product basis. A matrix
    with weight outside the X pattern (beyond X_SHAPE_TOL) raises a shape
    error; the driven steady state is an example of such a state.
    """
    rho = np.asarray(rho, dtype=complex)
    off = rho.copy()
    for r, c in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
        off[r, c] = 0.0
    worst = np.max(np.abs(off))
    if worst > X_SHAPE_TOL:
        raise ValueError(f"matrix is not X-shaped (off-pattern weight {worst:.2e})")
    p = rho.real
    return ClosedFormConcurrence(
        c_outer=2.0 * (abs(rho[0, 3]) - math.sqrt(max(p[1, 1] * p[2, 2], 0.0))),
        c_inner=2.0 * (abs(rho[1, 2]) - math.sqrt(max(p[0, 0] * p[3, 3], 0.0))),
    )


def phi0(pair: WannierPair, x):
    """The even orbital A0 sech^alpha(x)."""
    return pair.a0 * np.cosh(np.asarray(x, dtype=float)) ** (-pair.alpha)


def phi1(pair: WannierPair, x):
    """The odd orbital A1 tanh(x) phi0(x)."""
    return pair.a1 * np.tanh(x) * phi0(pair, x)


def norm_sq(field: LatticeField) -> float:
    """int |psi|^2 on the field's grid."""
    return float(np.sum(field.density()) * field.grid.spacing)


def kinetic_matrix(grid: Grid1D, mass: float = 1.0) -> np.ndarray:
    """Dense -1/(2 mass) d2/dx2 of the periodic Fourier grid in closed form
    (the Fourier-grid Hamiltonian of Marston & Balint-Kurti, J. Chem. Phys.
    91 (1989) 3571, for an even number N of points, Nyquist term included):
    T_jj = (pi/L)^2 (N^2 + 2)/(6 mass) and, for j != m,
    T_jm = (pi/L)^2 (-1)^(j - m) / (mass sin^2(pi (j - m)/N))."""
    n = grid.points
    d = np.arange(n)[:, None] - np.arange(n)[None, :]
    with np.errstate(divide="ignore"):
        t = np.where(d == 0, (n * n + 2) / 6.0, (-1.0) ** d / np.sin(np.pi * d / n) ** 2)
    return (np.pi / grid.length) ** 2 / mass * t


def gpe_energy(field: LatticeField) -> float:
    """Energy functional E = int 1/2|psi_x|^2 + 1/2|psi|^4 + V|psi|^2."""
    grid = field.grid
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(field.psi))
    dens = field.density()
    integrand = 0.5 * np.abs(dpsi) ** 2 + 0.5 * dens ** 2 + grid.wall_potential() * dens
    return float(np.sum(integrand) * grid.spacing)


K_MIN = 1e-4  # below this the mode functions are numerically singular


@dataclass(frozen=True)
class BogoliubovMode:
    """u/v envelope pair of one reservoir mode around a soliton at x = 0."""

    k: float
    u: np.ndarray
    v: np.ndarray


def mode_amplitudes(k: float, x) -> BogoliubovMode:
    """Local-density u_k, v_k profiles on the grid x.

    u_k(x) = e^{ikx} sqrt(1/4pi) (1/eps) [(k^2 + 2 eps)(k/2 + i tanh) + k sech^2],
    v_k(x) = e^{-ikx} sqrt(1/4pi) (1/eps) [(k^2 - 2 eps)(k/2 + i tanh) + k sech^2],

    with tanh/sech taken at x, written out here rather than taken from
    `bogoliubov.mode_coefficients`, so tests built on it check the rate
    engine's mode too. These are envelope approximations and are
    not normalized: far from the core |u|^2 - |v|^2 tends to
    2k^2(k^2 + 4)/(4 pi eps(k)), not 1 (0.045 at k = 0.1, 3.0 at k = 4).
    Gamma/gamma is a ratio at one k, so the factor cancels there; eta/gamma
    integrates over k, so it does not (ROADMAP item 1).
    """
    k = float(k)
    if k <= 0.0:
        raise ValueError("mode_amplitudes needs k > 0 (k = 0 mode is singular)")
    if k < K_MIN:
        raise ValueError(f"k = {k} below the supported minimum {K_MIN}")
    x = np.asarray(x, dtype=float)
    eps = math.sqrt(k * k * (k * k + 2.0))
    common = k / 2.0 + 1j * np.tanh(x)
    tail = k / np.cosh(x) ** 2
    pref = np.sqrt(1.0 / (4.0 * np.pi))
    u = np.exp(1j * k * x) * pref * ((k * k + 2.0 * eps) * common + tail) / eps
    v = np.exp(-1j * k * x) * pref * ((k * k - 2.0 * eps) * common + tail) / eps
    return BogoliubovMode(k=k, u=u, v=v)
