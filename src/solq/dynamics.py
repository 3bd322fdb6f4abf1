"""Two-qubit dissipative dynamics in the shared phonon reservoir.

Master equation in the frame rotating at the drive frequency:

    drho/dt = -i[H, rho] + sum_ij G_ij (sm_j rho sp_i - 1/2 {sp_i sm_j, rho})

with the collective rate matrix G = [[gamma, Gamma], [Gamma, gamma]] and

    H = eta (sp_1 sm_2 + sp_2 sm_1) - (Omega/2) sum_i (sp_i + sm_i)
        + delta sum_i sp_i sm_i.

Everything here is expressed in units of the single-site rate gamma: times are
in 1/gamma, the Rabi frequency and detuning in gamma, and the collective
parameters enter as the ratios Gamma/gamma and eta/gamma carried by a RateSet.

The generator is a constant 16x16 matrix L on row-major vec(rho), built from
vec(A rho B) = (A kron B^T) vec(rho). The equation is linear, so `evolve` is
exact: one matrix exponential exp(L h) per distinct time step h, then one
mat-vec per snapshot. No Runge-Kutta integrator, no tolerances to tune.

Every DensityMatrix4 carries its Wootters concurrence (PRL 80, 2245 (1998)),
computed in the batch that validates it: one `eigh` of the hermitized stack
gives the spectrum the checks need and the eigenvectors of sqrt(rho), and the
singular values s1 >= ... >= s4 of sqrt(rho) (sy kron sy) sqrt(rho)^* are the
square roots of the spin-flip eigenvalues, so C = max(0, s1 - s2 - s3 - s4)
takes no square root of eigenvalue noise.

Basis conventions. Product (computational) order: ee, eg, ge, gg. Dicke order:
e, s, a, g with |s>, |a> = (|e1 g2> +- |g1 e2>)/sqrt(2). The transform between
them is real, symmetric, and involutory.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .couplings import RateSet

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


class Basis(Enum):
    COMPUTATIONAL = "computational"
    DICKE = "dicke"


PRODUCT_LABELS = ("ee", "eg", "ge", "gg")
DICKE_LABELS = ("e", "s", "a", "g")

# maps product-order vectors to Dicke order; its own inverse
_U_DICKE = np.eye(4)
_U_DICKE[1:3, 1:3] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# sy kron sy (real) in the product basis; in the Dicke basis it is U (sy kron sy) U
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SY_SY = np.kron(_SY, _SY).real
_SPIN_FLIP = {Basis.COMPUTATIONAL: _SY_SY, Basis.DICKE: _U_DICKE @ _SY_SY @ _U_DICKE}


def _validate_stack(m: np.ndarray, basis: Basis) -> np.ndarray:
    """Check an (n, 4, 4) stack and return each matrix's concurrence.

    The first bad matrix raises its own message. With rho = V diag(w) V^H,
    sqrt(rho) Y sqrt(rho)^* = V D (V^H Y V^*) D V^T for D = diag(sqrt(w)) and
    Y = sy kron sy in the stack's basis, so its singular values are those of
    D (V^H Y V^*) D: one batched `svd` of 4x4 matrices.
    """
    herm = np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
    tr = np.trace(m, axis1=1, axis2=2).real
    w, v = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(1, 2)))
    low = w[:, 0]
    bad = np.flatnonzero((herm > HERM_TOL) | (np.abs(tr - 1.0) > TRACE_TOL)
                         | (low < EIG_FLOOR))
    if bad.size:
        i = bad[0]
        if herm[i] > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm[i]:.2e})")
        if abs(tr[i] - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr[i]!r}, not 1")
        raise ValueError(f"negative eigenvalue {low[i]:.2e}")
    root = np.sqrt(np.maximum(w, 0.0))
    flip = v.conj().swapaxes(1, 2) @ (_SPIN_FLIP[basis] @ v.conj())
    s = np.linalg.svd(root[:, :, None] * flip * root[:, None, :], compute_uv=False)
    return np.maximum(s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3], 0.0)


@dataclass(frozen=True)
class DensityMatrix4:
    """A validated 4x4 density matrix tagged with its basis.

    `concurrence` is the state's Wootters concurrence, set at validation.
    """

    matrix: np.ndarray
    basis: Basis = Basis.COMPUTATIONAL
    concurrence: float = field(init=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        conc = _validate_stack(m[None], self.basis)
        object.__setattr__(self, "concurrence", float(conc[0]))

    @classmethod
    def _known(cls, m: np.ndarray, basis: Basis, concurrence: float):
        """A state whose matrix is already validated and concurrence known."""
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        object.__setattr__(state, "basis", basis)
        object.__setattr__(state, "concurrence", concurrence)
        return state

    @classmethod
    def _stack(cls, mats: np.ndarray, basis: Basis) -> tuple:
        """One state per matrix of an (n, 4, 4) stack, validated as a batch."""
        conc = _validate_stack(mats, basis).tolist()
        return tuple(cls._known(m, basis, c) for m, c in zip(mats, conc))

    def element(self, row_label: str, col_label: str) -> complex:
        labels = PRODUCT_LABELS if self.basis is Basis.COMPUTATIONAL else DICKE_LABELS
        return complex(self.matrix[labels.index(row_label), labels.index(col_label)])


def basis_state(label: str) -> DensityMatrix4:
    """Pure-state density matrix for a product or Dicke basis label."""
    label = label.lower()
    if label in PRODUCT_LABELS:
        idx, basis = PRODUCT_LABELS.index(label), Basis.COMPUTATIONAL
    elif label in DICKE_LABELS:
        idx, basis = DICKE_LABELS.index(label), Basis.DICKE
    else:
        raise ValueError(f"unknown state label {label!r}")
    m = np.zeros((4, 4), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix4(matrix=m, basis=basis)


def dicke_transform(state: DensityMatrix4) -> DensityMatrix4:
    """Flip a state between the product and Dicke bases (involutory).

    The same state in another basis: it keeps its concurrence and is not
    decomposed again.
    """
    rho = _U_DICKE @ state.matrix @ _U_DICKE
    other = Basis.DICKE if state.basis is Basis.COMPUTATIONAL else Basis.COMPUTATIONAL
    return DensityMatrix4._known(rho, other, state.concurrence)


def _as_product_matrix(state: DensityMatrix4) -> np.ndarray:
    if state.basis is Basis.COMPUTATIONAL:
        return state.matrix
    return _U_DICKE @ state.matrix @ _U_DICKE


@dataclass(frozen=True)
class DriveParams:
    """Continuous drive: Rabi frequency (units of gamma), optional detuning.

    omega_rabi_2 = None means symmetric pumping (the same amplitude on both
    qubits), which is the only case the closed-form steady state covers.
    """

    omega_rabi: float = 0.0
    detuning: float = 0.0
    omega_rabi_2: float | None = None

    def __post_init__(self):
        for name in ("omega_rabi", "detuning", "omega_rabi_2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"drive {name} must be finite, got {value}")

    @property
    def symmetric(self) -> bool:
        return self.omega_rabi_2 is None or self.omega_rabi_2 == self.omega_rabi


# site lowering operators in the product basis
_SM1 = np.zeros((4, 4)); _SM1[2, 0] = 1.0; _SM1[3, 1] = 1.0
_SM2 = np.zeros((4, 4)); _SM2[1, 0] = 1.0; _SM2[3, 2] = 1.0
_SP1, _SP2 = _SM1.T.copy(), _SM2.T.copy()


def _check_rates(rates: RateSet):
    if abs(rates.Gamma_over_gamma) > 1.0 + 1e-9:
        raise ValueError(
            f"|Gamma/gamma| = {abs(rates.Gamma_over_gamma)} > 1: "
            "the rate matrix is not positive semidefinite"
        )


def _hamiltonian(rates: RateSet, drive: DriveParams | None) -> np.ndarray:
    eta = rates.eta_over_gamma
    h = eta * (_SP1 @ _SM2 + _SP2 @ _SM1)
    if drive is not None:
        om1 = drive.omega_rabi
        om2 = om1 if drive.omega_rabi_2 is None else drive.omega_rabi_2
        h = h - 0.5 * (om1 * (_SP1 + _SM1) + om2 * (_SP2 + _SM2))
        if drive.detuning != 0.0:
            h = h + drive.detuning * (_SP1 @ _SM1 + _SP2 @ _SM2)
    return h


def liouvillian_apply(
    state: DensityMatrix4, rates: RateSet, drive: DriveParams | None = None
) -> np.ndarray:
    """Right-hand side drho/dt for the given state, in the state's basis.

    Returned in units of gamma (so the diagonal decay of |e><e| is -2).
    """
    rho = _as_product_matrix(state)
    out = (build_liouvillian(rates, drive) @ rho.ravel()).reshape(4, 4)
    if state.basis is Basis.DICKE:
        out = _U_DICKE @ out @ _U_DICKE
    return out


def build_liouvillian(rates: RateSet, drive: DriveParams | None = None) -> np.ndarray:
    """Dense 16x16 generator in the product basis: A rho B enters as A kron B^T."""
    _check_rates(rates)
    big = rates.Gamma_over_gamma
    gmat = np.array([[1.0, big], [big, 1.0]])
    sm, sp = (_SM1, _SM2), (_SP1, _SP2)
    eye = np.eye(4)
    h = _hamiltonian(rates, drive)
    lop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i in range(2):
        for j in range(2):
            anti = sp[i] @ sm[j]
            lop = lop + gmat[i, j] * (
                np.kron(sm[j], sp[i].T) - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
            )
    return lop


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of an evolution, times in units of 1/gamma."""

    times: np.ndarray
    states: tuple

    def __iter__(self):
        return iter(self.states)


def _expm1(a: np.ndarray) -> np.ndarray:
    """exp(a) - 1 for each matrix in a stack, numpy matmuls only: scale to
    1-norm <= 1/2, Horner Taylor sum to degree 14 (remainder < 3e-17), square
    back by E -> E E + 2 E. (scipy.linalg.expm solves on a threaded OpenBLAS
    that a busy host slows a hundredfold at this size.)"""
    s = max(0, math.frexp(np.abs(a).sum(axis=-2).max())[1] + 1)
    a = a / 2.0**s
    out = eye = np.eye(a.shape[-1])
    for k in range(14, 1, -1):
        out = eye + a @ out / k
    out = a @ out
    for _ in range(s):
        out = out @ out + 2.0 * out
    return out


def evolve(
    state0: DensityMatrix4, rates: RateSet, t_grid, drive: DriveParams | None = None
) -> Trajectory:
    """Propagate the master equation exactly over a strictly increasing grid.

    rho(t + h) = rho(t) + (exp(L h) - 1) rho(t), one exponential per distinct
    step h; adding the increment keeps the trace drift at roundoff. Snapshots
    are hermitized, the trace is left untouched; all are validated at once.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be a 1-d array of at least two finite times")
    dt = np.diff(t_grid)
    bad = np.flatnonzero(dt <= 0.0)
    if bad.size:
        raise ValueError(f"t_grid is not strictly increasing at index {bad[0] + 1}")
    steps, which = np.unique(dt, return_inverse=True)
    incs = _expm1(build_liouvillian(rates, drive) * steps[:, None, None])
    vec = np.empty((len(t_grid), 16), dtype=complex)
    vec[0] = _as_product_matrix(state0).ravel()
    for n, k in enumerate(which):
        vec[n + 1] = vec[n] + incs[k] @ vec[n]
    rho = vec.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    if state0.basis is Basis.DICKE:
        rho = _U_DICKE @ rho @ _U_DICKE
    return Trajectory(times=t_grid, states=DensityMatrix4._stack(rho, state0.basis))


def _exprel(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1)/x elementwise, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def analytic_undriven(init: dict, rates: RateSet, times) -> Trajectory:
    """Closed-form decay of the Dicke populations and the s-a coherence.

    init supplies rho_ee, rho_ss, rho_aa (real) and rho_sa (complex); the
    ground population is fixed by the trace. Valid for states with no other
    nonzero elements and no drive. The superradiant channel feeds |s> at rate
    gamma + Gamma and |a> at gamma - Gamma; the degenerate points
    Gamma = +-gamma take the x -> 0 limit of (e^x - 1)/x.
    """
    _check_rates(rates)
    allowed = {"rho_ee", "rho_ss", "rho_aa", "rho_sa"}
    unknown = set(init) - allowed
    if unknown:
        raise ValueError(f"unsupported initial elements: {sorted(unknown)}")
    ee0 = float(init.get("rho_ee", 0.0))
    ss0 = float(init.get("rho_ss", 0.0))
    aa0 = float(init.get("rho_aa", 0.0))
    sa0 = complex(init.get("rho_sa", 0.0))
    gg0 = 1.0 - ee0 - ss0 - aa0
    if gg0 < -1e-12:
        raise ValueError("initial populations exceed 1")

    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    times = np.asarray(times, dtype=float)
    up = 1.0 + big   # superradiant rate, units of gamma
    dn = 1.0 - big   # subradiant rate

    ee = ee0 * np.exp(-2.0 * times)
    feed_ss = up * times * _exprel(dn * times) * np.exp(-2.0 * times) * ee0
    feed_aa = dn * times * _exprel(up * times) * np.exp(-2.0 * times) * ee0
    ss = ss0 * np.exp(-up * times) + feed_ss
    aa = aa0 * np.exp(-dn * times) + feed_aa
    sa = sa0 * np.exp(-(1.0 + 2.0j * eta) * times)
    gg = 1.0 - ee - ss - aa

    m = np.zeros((len(times), 4, 4), dtype=complex)
    m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 3, 3] = ee, ss, aa, gg
    m[:, 1, 2], m[:, 2, 1] = sa, np.conj(sa)
    return Trajectory(times=times, states=DensityMatrix4._stack(m, Basis.DICKE))


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix4
    residual: float
    unique: bool


def steady_state(rates: RateSet, drive: DriveParams | None = None) -> SteadyStateResult:
    """Null-space steady state of the generator, by dense SVD.

    The smallest singular value must vanish (< 1e-12 relative); if the second
    smallest also sinks below 1e-6 the steady state is degenerate (the
    undriven Gamma = gamma point) and the result is flagged non-unique.
    """
    lop = build_liouvillian(rates, drive)
    _, s, vh = np.linalg.svd(lop)
    scale = s[0] if s[0] > 0 else 1.0
    if s[-1] / scale > 1e-12:
        raise RuntimeError(
            f"no steady state found (smallest singular value {s[-1]:.2e})"
        )
    unique = s[-2] / scale > 1e-6
    rho = vh[-1].conj().reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = float(np.max(np.abs((lop @ rho.ravel()).reshape(4, 4))))
    state = DensityMatrix4(matrix=rho, basis=Basis.COMPUTATIONAL)
    return SteadyStateResult(state=state, residual=residual, unique=unique)


def steady_state_closed_form(rates: RateSet, drive: DriveParams) -> DensityMatrix4:
    """Symmetrically driven steady state in closed form (Dicke basis).

    Valid for symmetric resonant pumping only. The s-g coherence carries
    gamma (gamma + Gamma - 2 i eta) + Omega^2 in its numerator; the sign of
    the eta term matters and is fixed by the generator's null space (the
    test suite pins it against the SVD route).
    """
    _check_rates(rates)
    if not drive.symmetric or drive.detuning != 0.0:
        raise ValueError("closed form requires symmetric resonant pumping")
    big = rates.Gamma_over_gamma
    eta = rates.eta_over_gamma
    om = drive.omega_rabi
    if om == 0.0:
        return basis_state("g")

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
    return DensityMatrix4(matrix=m, basis=Basis.DICKE)
