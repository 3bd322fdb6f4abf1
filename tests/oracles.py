"""Closed forms of the two-qubit model, kept as test oracles.

Every function here works on product-basis arrays (order ee, eg, ge, gg), the
basis of `solq.dynamics`. States that the closed forms describe in the Dicke
basis (e, s, a, g with |s>, |a> = (|e1 g2> +- |g1 e2>)/sqrt(2)) are rotated
into it with this module's own U_DICKE.
"""

import math
from typing import NamedTuple

import numpy as np

from solq.couplings import RateSet
from solq.dynamics import DriveParams, _check_rates, build_liouvillian

# product order ee, eg, ge, gg to Dicke order e, s, a, g; its own inverse
U_DICKE = np.eye(4)
U_DICKE[1:3, 1:3] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

X_SHAPE_TOL = 1e-10


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
                      drive: DriveParams | None = None) -> np.ndarray:
    """drho/dt in units of gamma (the diagonal decay of |ee><ee| is -2)."""
    return (build_liouvillian(rates, drive) @ np.ravel(rho)).reshape(4, 4)


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
    """Symmetrically driven steady state in closed form, product basis.

    Valid for symmetric resonant pumping only. In the Dicke basis the s-g
    coherence carries gamma (gamma + Gamma - 2 i eta) + Omega^2 in its
    numerator; the sign of the eta term matters and is fixed by the
    generator's null space (the tests pin it against the SVD route).
    """
    _check_rates(rates)
    if not drive.symmetric or drive.detuning != 0.0:
        raise ValueError("closed form requires symmetric resonant pumping")
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
