"""Two-qubit dissipative dynamics in the shared phonon reservoir.

Master equation in the frame rotating at the drive frequency:

    drho/dt = -i[H, rho] + sum_ij G_ij (sm_j rho sp_i - 1/2 {sp_i sm_j, rho})

with the collective rate matrix G = [[gamma, Gamma], [Gamma, gamma]] and

    H = eta (sp_1 sm_2 + sp_2 sm_1) - (Omega/2) sum_i (sp_i + sm_i),

one resonant drive of Rabi frequency Omega on both qubits. Everything here is
in units of the single-site rate gamma: times in 1/gamma, Omega in gamma, and
the collective parameters as the ratios Gamma/gamma and eta/gamma of a RateSet.

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

One basis. Every matrix is in the product (computational) basis, order ee,
eg, ge, gg. The collective (Dicke) basis e, s, a, g with
|s>, |a> = (|e1 g2> +- |g1 e2>)/sqrt(2) is a change of coordinates: the real,
symmetric, involutory U of `dicke_transform`. `basis_state` reads Dicke
labels through it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .couplings import RateSet

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
GAMMA_RATIO_MAX = 1.0 + 1e-9  # largest |Gamma/gamma| with a semidefinite rate matrix

PRODUCT_LABELS = ("ee", "eg", "ge", "gg")
DICKE_LABELS = ("e", "s", "a", "g")

# maps product-order vectors to Dicke order; its own inverse
_U_DICKE = np.eye(4)
_U_DICKE[1:3, 1:3] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# each label's state vector in the product basis
_LABEL_VECTORS = dict(zip(PRODUCT_LABELS, np.eye(4))) | dict(zip(DICKE_LABELS, _U_DICKE))

# sy kron sy (real)
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SY_SY = np.kron(_SY, _SY).real


def _validate_stack(m: np.ndarray) -> np.ndarray:
    """Check an (n, 4, 4) stack and return each matrix's concurrence.

    The first bad matrix raises its own message; non-finite entries are
    caught before any decomposition. With rho = V diag(w) V^H,
    sqrt(rho) Y sqrt(rho)^* = V D (V^H Y V^*) D V^T for D = diag(sqrt(w)) and
    Y = sy kron sy, so its singular values are those of D (V^H Y V^*) D: one
    batched `svd` of 4x4 matrices.
    """
    nonfinite = np.argwhere(~np.isfinite(m))
    if nonfinite.size:
        i, r, c = nonfinite[0]
        raise ValueError(f"matrix entry ({r}, {c}) is {m[i, r, c]}, not finite")
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
    flip = v.conj().swapaxes(1, 2) @ (_SY_SY @ v.conj())
    s = np.linalg.svd(root[:, :, None] * flip * root[:, None, :], compute_uv=False)
    return np.maximum(s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3], 0.0)


@dataclass(frozen=True)
class DensityMatrix4:
    """A validated 4x4 density matrix in the product basis.

    `matrix` is a read-only copy, `concurrence` its Wootters concurrence, set at validation.
    """

    matrix: np.ndarray
    concurrence: float = field(init=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "concurrence", float(_validate_stack(m[None])[0]))

    @classmethod
    def _stack(cls, mats: np.ndarray) -> tuple:
        """One state per matrix of an (n, 4, 4) stack (read-only), validated as a batch."""
        states = []
        for m, c in zip(mats, _validate_stack(mats).tolist()):
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", m)
            object.__setattr__(state, "concurrence", c)
            states.append(state)
        return tuple(states)


def basis_state(label: str) -> DensityMatrix4:
    """Pure-state density matrix for a product or Dicke basis label."""
    label = label.lower()
    if label not in _LABEL_VECTORS:
        raise ValueError(f"unknown state label {label!r}")
    v = _LABEL_VECTORS[label]
    return DensityMatrix4(matrix=np.outer(v, v))


def dicke_transform(m: np.ndarray) -> np.ndarray:
    """U m U for a 4x4 matrix or an (n, 4, 4) stack: product coordinates to
    Dicke coordinates, and back (U is real, symmetric and involutory)."""
    return _U_DICKE @ np.asarray(m) @ _U_DICKE


@dataclass(frozen=True)
class DriveParams:
    """Continuous drive: one resonant Rabi frequency (units of gamma) on both
    qubits; the default, 0, is no drive."""

    omega_rabi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.omega_rabi):
            raise ValueError(f"drive omega_rabi must be finite, got {self.omega_rabi}")


# site lowering operators in the product basis
_SM1 = np.zeros((4, 4)); _SM1[2, 0] = 1.0; _SM1[3, 1] = 1.0
_SM2 = np.zeros((4, 4)); _SM2[1, 0] = 1.0; _SM2[3, 2] = 1.0
_SP1, _SP2 = _SM1.T.copy(), _SM2.T.copy()
_EXCHANGE = _SP1 @ _SM2 + _SP2 @ _SM1
_SX_SUM = _SP1 + _SM1 + _SP2 + _SM2  # sum_i (sp_i + sm_i)


def _check_rates(rates: RateSet):
    if abs(rates.Gamma_over_gamma) > GAMMA_RATIO_MAX:
        raise ValueError(
            f"|Gamma/gamma| = {abs(rates.Gamma_over_gamma)} > 1: "
            "the rate matrix is not positive semidefinite"
        )


def _hamiltonian(rates: RateSet, drive: DriveParams) -> np.ndarray:
    return rates.eta_over_gamma * _EXCHANGE - 0.5 * drive.omega_rabi * _SX_SUM


def build_liouvillian(rates: RateSet, drive: DriveParams = DriveParams()) -> np.ndarray:
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
    """Snapshots of an evolution, times (read-only) in units of 1/gamma."""

    times: np.ndarray
    states: tuple


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
    state0: DensityMatrix4, rates: RateSet, t_grid, drive: DriveParams = DriveParams()
) -> Trajectory:
    """Propagate the master equation exactly over a strictly increasing grid.

    rho(t + h) = rho(t) + (exp(L h) - 1) rho(t), one exponential per distinct
    step h; adding the increment keeps the trace drift at roundoff. Snapshots
    are hermitized, the trace is left untouched; all are validated at once.
    """
    t_grid = np.array(t_grid, dtype=float)  # a copy: Trajectory.times is read-only
    t_grid.flags.writeable = False
    if t_grid.ndim != 1 or len(t_grid) < 2 or not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be a 1-d array of at least two finite times")
    dt = np.diff(t_grid)
    bad = np.flatnonzero(dt <= 0.0)
    if bad.size:
        raise ValueError(f"t_grid is not strictly increasing at index {bad[0] + 1}")
    steps, which = np.unique(dt, return_inverse=True)
    incs = _expm1(build_liouvillian(rates, drive) * steps[:, None, None])
    vec = np.empty((len(t_grid), 16), dtype=complex)
    vec[0] = state0.matrix.ravel()
    for n, k in enumerate(which):
        vec[n + 1] = vec[n] + incs[k] @ vec[n]
    rho = vec.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    rho.flags.writeable = False
    return Trajectory(times=t_grid, states=DensityMatrix4._stack(rho))


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix4
    residual: float
    unique: bool


def steady_state(rates: RateSet, drive: DriveParams = DriveParams()) -> SteadyStateResult:
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
    state = DensityMatrix4(matrix=rho)
    return SteadyStateResult(state=state, residual=residual, unique=unique)
