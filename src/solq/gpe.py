"""Split-step field solver: soliton imprinting, impurity relaxation, tracking.

The condensate field is evolved by a Strang-split spectral scheme for

    i dpsi/dt = -1/2 d2psi/dx2 + |psi|^2 psi + V psi

in soliton units (field normalized to the background, so the uniform density
is 1 and the chemical potential term shows up as an overall e^{-i t} phase on
the background rather than being subtracted). Box experiments run on a
periodic grid with steep tanh walls added as an external potential, which
keeps the spectral kinetic step exact.

The box background is the stationary field at chemical potential 1, found
by Newton's method with a preconditioned conjugate-gradient inner solve; it
stops once the stationarity residual is at the rounding level of the
spectral second derivative (max|F| < NEWTON_TOL on the preset grids).

Every time-stepped run goes through one stepper, `_strang` (K/2 N K/2 per
step). The trailing K/2 of a step and the leading K/2 of the next fuse into
one kinetic factor, so a step costs one FFT pair; a record and the last step
each add one inverse FFT. `split_step_evolve` runs real time. The
imaginary-time relaxations (soliton imprinting, impurity orbitals) run on
real fields with real FFTs, since the kinetic factor is real and even, and
apply their constraint inside the pointwise step N and once more on the
returned state.

The impurity module relaxes the two localized orbitals inside a frozen
soliton (one-way coupling) by parity-projected imaginary time.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import _kernels
from .model import ModelParams

WALL_HEIGHT = 50.0   # box wall height, units of mu
WALL_WIDTH = 1.0     # wall rise width, units of xi
WALL_INSET = 2.5     # wall center sits this far inside the grid edge
DT_CAP_FACTOR = 0.1  # dt <= DT_CAP_FACTOR * dx^2 for the nonlinear stepping
NEWTON_TOL = 1e-11   # max|F| at which the box background's Newton solve stops
NEWTON_MAX_ITER = 20  # Newton steps before box_background gives up


class Boundary(Enum):
    PERIODIC = "periodic"
    BOX = "box"


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid. points must be a power of two, >= 256."""

    points: int
    length: float
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.points < 256 or (self.points & (self.points - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 256, got {self.points}")
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"length must be finite and positive, got {self.length}")
        if self.spacing > 1.0 / 8.0:
            raise ValueError(
                f"spacing {self.spacing:.4f} exceeds xi/8; raise points or shrink length"
            )
        if isinstance(self.boundary, str):
            object.__setattr__(self, "boundary", Boundary(self.boundary))

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-0.5 * self.length, 0.5 * self.length, self.points,
                           endpoint=False)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def wall_potential(self) -> np.ndarray:
        """Box walls (zero array for a plain periodic grid)."""
        if self.boundary is Boundary.PERIODIC:
            return np.zeros(self.points)
        xw = 0.5 * self.length - WALL_INSET
        return 0.5 * WALL_HEIGHT * (np.tanh((np.abs(self.x) - xw) / WALL_WIDTH) + 1.0)

    def wall_center(self) -> float:
        """|x| of the wall midpoint (half the length when periodic)."""
        if self.boundary is Boundary.PERIODIC:
            return 0.5 * self.length
        return 0.5 * self.length - WALL_INSET


@dataclass
class LatticeField:
    grid: Grid1D
    psi: np.ndarray

    def density(self) -> np.ndarray:
        return self.psi.real ** 2 + self.psi.imag ** 2

    def norm_sq(self) -> float:
        return float(np.sum(self.density()) * self.grid.spacing)


def gpe_energy(field: LatticeField) -> float:
    """Energy functional E = int 1/2|psi_x|^2 + 1/2|psi|^4 + V|psi|^2."""
    grid = field.grid
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(field.psi))
    dens = field.density()
    integrand = 0.5 * np.abs(dpsi) ** 2 + 0.5 * dens ** 2 + grid.wall_potential() * dens
    return float(np.sum(integrand) * grid.spacing)


def _real_k(grid):
    """Wavenumbers of the real FFT of a field on the grid."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.spacing)


def _strang(psi, grid, n_steps, dt, nonlinear, mass=1.0, imaginary=False, record_at=()):
    """n_steps Strang steps K/2 N K/2 of -1/(2 mass) d2/dx2 and the pointwise
    nonlinear(psi); returns (psi, records), with (t, psi) at the steps in
    record_at. Imaginary time takes and keeps a real psi (real FFTs), real
    time a complex one. A non-finite value (checked every 100 steps and at
    the last) aborts.
    """
    if imaginary:
        fft, ifft = np.fft.rfft, np.fft.irfft
        half = np.exp(-(_real_k(grid) ** 2 / (2.0 * mass)) * (0.5 * dt))
    else:
        fft, ifft = np.fft.fft, np.fft.ifft
        half = np.exp(-1j * (grid.k ** 2 / (2.0 * mass)) * (0.5 * dt))
    full = half * half
    records = []
    phi = half * fft(psi)  # the state after the leading K/2
    for step in range(1, n_steps + 1):
        psi = nonlinear(ifft(phi))
        if (step % 100 == 0 or step == n_steps) and not np.all(np.isfinite(psi)):
            raise RuntimeError(f"field diverged (non-finite value at step {step})")
        phi = fft(psi)
        if step in record_at or step == n_steps:
            psi = ifft(half * phi)
            if step in record_at:
                records.append((step * dt, psi))
        phi *= full
    return psi, records


def split_step_evolve(
    field: LatticeField,
    t_final: float,
    dt: float | None = None,
    n_records: int = 0,
):
    """Propagate the field in real time; returns (field, records).

    dt defaults to the step cap DT_CAP_FACTOR * dx^2 and may not exceed it;
    it is shortened so that a whole number of steps reaches t_final. records
    is a list of (t, psi) pairs, n_records of them spread evenly over the run
    (empty when n_records = 0). A NaN anywhere aborts with the step index in
    the message.
    """
    grid = field.grid
    dx = grid.spacing
    cap = DT_CAP_FACTOR * dx * dx
    if dt is None:
        dt = cap
    if not 0.0 < dt <= cap * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} must be positive and within the step cap {cap:.3e}")
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and positive, got {t_final}")

    n_steps = math.ceil(t_final / dt)
    dt = t_final / n_steps
    pot = grid.wall_potential()
    psi = np.ascontiguousarray(field.psi, dtype=complex)
    record_at = {int(round((i + 1) * n_steps / n_records)) for i in range(n_records)}
    psi, records = _strang(psi, grid, n_steps, dt, lambda p: _kernels.phase_step(p, pot, dt),
                           record_at=record_at)
    return LatticeField(grid=grid, psi=psi), records


def _pcg(apply, b, precondition, rtol):
    """Preconditioned conjugate gradients for the SPD system apply(x) = b,
    from x = 0, until |r| <= rtol |b| or 200 steps."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    stop = rtol * math.sqrt(b @ b)
    for _ in range(200):
        ap = apply(p)
        a = rz / (p @ ap)
        x += a * p
        r -= a * ap
        if math.sqrt(r @ r) <= stop:
            break
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x


@lru_cache(maxsize=8)
def box_background(grid: Grid1D) -> np.ndarray:
    """Stationary soliton-free field of the grid (ones when periodic).

    This is the real root of F(psi) = -1/2 psi'' + (psi^2 + V - 1) psi at
    fixed chemical potential 1, so the interior density settles locally to 1
    instead of being set by an arbitrary normalization. Newton's method from
    the Thomas-Fermi profile (ones when V = 0, already the exact root) solves
    it, each step by conjugate gradients on the Jacobian
    -1/2 d2/dx2 + 3 psi^2 + V - 1 (SPD here) preconditioned by
    (k^2/2 + 2)^-1. It stops at max|F| < NEWTON_TOL, or on grids finer than
    about xi/39 at three times the rounding floor of the spectral psi''
    (about 2 eps max(k^2/2)), and raises RuntimeError after NEWTON_MAX_ITER
    steps. Using the Thomas-Fermi envelope directly turns out to eject deep
    gray solitons from the wall junctions.
    """
    pot = grid.wall_potential()
    half_k2 = 0.5 * _real_k(grid) ** 2
    inverse = 1.0 / (half_k2 + 2.0)

    def kinetic(f):
        return np.fft.irfft(half_k2 * np.fft.rfft(f))

    def precondition(r):
        return np.fft.irfft(inverse * np.fft.rfft(r))

    tol = max(NEWTON_TOL, 6.0 * np.finfo(float).eps * half_k2[-1])
    psi = np.sqrt(np.maximum(0.0, 1.0 - pot / WALL_HEIGHT))
    for step in range(NEWTON_MAX_ITER + 1):
        residual = kinetic(psi) + (psi * psi + pot - 1.0) * psi
        err = float(np.max(np.abs(residual)))
        if err < tol:
            psi.setflags(write=False)
            return psi
        if step == NEWTON_MAX_ITER:
            break
        diag = 3.0 * psi * psi + pot - 1.0
        psi = psi - _pcg(lambda v: kinetic(v) + diag * v, residual, precondition,
                         rtol=min(0.1, err))
    raise RuntimeError(
        f"box background did not converge: max residual {err:.3e} after "
        f"{NEWTON_MAX_ITER} Newton steps"
    )


def imprint_solitons(grid: Grid1D, positions, relax_time: float = 3.0) -> LatticeField:
    """Dark-soliton chain with nodes at the given positions.

    Starts from a product of tanh cores on the relaxed background, then runs
    fixed-chemical-potential imaginary time while re-imposing the sign
    pattern inside every step. The sign constraint pins the nodes, so the
    density relaxes onto the true stationary chain instead of the bare product
    ansatz, whose overlapping tails depress the density between cores at
    close spacing (the excess pressure visibly unzips a 2.5-xi chain).
    Adjacent cores alternate sign, giving the pi phase jump per soliton.
    Positions closer than one healing length are rejected as overlapping.
    """
    positions = sorted(float(p) for p in positions)
    if not positions:
        raise ValueError("need at least one soliton position")
    for a, b in zip(positions, positions[1:]):
        if b - a < 1.0:
            raise ValueError(f"soliton positions {a} and {b} overlap (closer than xi)")
    margin = grid.wall_center() - 3.0 * WALL_WIDTH
    if positions[0] < -margin or positions[-1] > margin:
        raise ValueError("soliton positions fall outside the usable interior")

    x = grid.x
    psi = box_background(grid).copy()
    sign = np.ones_like(x)
    for p in positions:
        core = np.tanh(x - p)
        psi *= core
        # np.sign keeps an on-grid node at exactly zero; mapping it to +1
        # would bias every node half a cell leftward and break the mirror
        # symmetry of a symmetric chain by a full grid cell
        sign *= np.sign(core)

    if relax_time > 0.0:
        # imaginary time at fixed chemical potential mu = 1 on the real field:
        # each step carries an e^{+mu dt} lift, so no norm constraint is needed
        pot = grid.wall_potential()
        for dt, t_stage in ((0.003, relax_time), (DT_CAP_FACTOR * grid.spacing ** 2, 0.5)):
            lift = math.exp(dt)
            psi, _ = _strang(psi, grid, int(round(t_stage / dt)), dt,
                             lambda p: np.abs(_kernels.decay_step(p, pot, dt) * lift) * sign,
                             imaginary=True)
        psi = np.abs(psi) * sign
    return LatticeField(grid=grid, psi=psi.astype(complex))


@dataclass(frozen=True)
class ImpurityStates:
    """Relaxed impurity orbitals with Rayleigh energies (relative to the
    potential plateau) and per-orbital bound flags."""

    phi0: LatticeField
    phi1: LatticeField
    energies: tuple
    bound: tuple


def _rayleigh(psi, grid, pot, mass_ratio):
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    num = np.sum(np.abs(dpsi) ** 2 / (2.0 * mass_ratio) + pot * np.abs(psi) ** 2)
    return float(num.real / np.sum(np.abs(psi) ** 2))


def relax_impurity(
    soliton_field: LatticeField,
    params: ModelParams,
    t_relax: float = 60.0,
    dt: float = 0.01,
) -> ImpurityStates:
    """Ground and first-excited impurity orbitals in a frozen soliton.

    The impurity feels the soliton density as a well of depth
    nu(nu+1)/(2 m_r) (the matched sech^2 relation, which makes the analytic
    level ladder the reference), plus the box walls. Imaginary time with
    even/odd parity projection every step; the potential is even, so parity
    is exact. A nonnegative Rayleigh quotient relative to the plateau means
    the channel supports no bound state and is flagged.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_relax < math.inf):
        raise ValueError(f"dt and t_relax must be finite and positive, got {dt} and {t_relax}")
    n_steps = int(round(t_relax / dt))
    if n_steps < 1:
        raise ValueError(f"t_relax = {t_relax} rounds to zero steps of dt = {dt}")
    grid = soliton_field.grid
    mr = params.mass_ratio
    depth = params.nu * (params.nu + 1.0) / (2.0 * mr)
    pot = depth * soliton_field.density() + grid.wall_potential()

    n = grid.points
    flip = (n - np.arange(n)) % n  # x -> -x on the periodic grid
    decay = np.exp(-dt * pot)

    def relax(seed, parity):
        # every factor of a step is linear and even, so projecting after the
        # potential step rescales the state only; the final call sets the scale
        def project(psi):
            psi = 0.5 * (psi + parity * psi[flip])
            nrm = math.sqrt((psi @ psi) * grid.spacing)
            if nrm == 0.0 or not np.isfinite(nrm):
                raise RuntimeError("impurity relaxation collapsed (zero or non-finite norm)")
            return psi / nrm

        psi, _ = _strang(seed, grid, n_steps, dt, lambda p: project(p * decay),
                         mass=mr, imaginary=True)
        return project(psi)

    x = grid.x
    gauss = np.exp(-(x / (2.0 * max(1.0, 1.0 / max(params.nu, 0.25)))) ** 2)
    phi0, phi1 = relax(gauss, +1.0), relax(x * gauss, -1.0)
    e0, e1 = (_rayleigh(phi, grid, pot, mr) - depth for phi in (phi0, phi1))
    return ImpurityStates(
        phi0=LatticeField(grid=grid, psi=phi0.astype(complex)),
        phi1=LatticeField(grid=grid, psi=phi1.astype(complex)),
        energies=(e0, e1),
        bound=(e0 < 0.0, e1 < 0.0),
    )


@dataclass(frozen=True)
class SolitonTracks:
    """Centroid tracks x_j(t) of a soliton chain; lost_at is the time the
    tracker first failed to find the full count (None if it never did)."""

    times: np.ndarray
    positions: np.ndarray  # shape (nt, count)
    lost_at: float | None

    @property
    def displacements(self) -> np.ndarray:
        return np.max(np.abs(self.positions - self.positions[0]), axis=0)


def _find_minima(density, grid):
    """Deep local minima of the wall-normalized density, parabolically
    refined. Normalizing by the empty-box profile keeps cores detectable on
    the wall foothills without the falloff itself reading as a dip."""
    x = grid.x
    window = grid.wall_center() - 2.41 * WALL_WIDTH  # background > 0.8 inside
    bg_sq = box_background(grid) ** 2
    d = np.divide(density, bg_sq, out=np.ones_like(density), where=bg_sq > 0.5)
    i = np.flatnonzero(np.abs(x) < window)
    i = i[(i > 0) & (i < len(d) - 1)]
    lo, mid, hi = d[i - 1], d[i], d[i + 1]
    keep = (mid <= lo) & (mid < hi) & (mid < 0.5)
    i, lo, mid, hi = i[keep], lo[keep], mid[keep], hi[keep]
    denom = hi - 2.0 * mid + lo
    shift = np.divide(0.5 * (lo - hi), denom, out=np.zeros_like(denom), where=denom > 0)
    return x[i] + shift * grid.spacing


def multi_soliton_experiment(
    count: int,
    spacing: float,
    box_length: float,
    t_final: float,
    points: int | None = None,
    n_records: int = 200,
) -> SolitonTracks:
    """Evolve an equally spaced soliton chain in a box and track the cores.

    Requires count * spacing < 0.9 * box_length so the chain fits with
    margin. Tracks are matched frame to frame by order (the cores never cross
    in this regime); losing a core flags the result with the loss time.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count * spacing >= 0.9 * box_length:
        raise ValueError(
            f"chain of {count} solitons at spacing {spacing} does not fit in "
            f"a {box_length} box with margin"
        )
    if points is None:
        points = 256
        while box_length / points > 1.0 / 8.0:
            points *= 2
    grid = Grid1D(points=points, length=box_length, boundary=Boundary.BOX)
    offsets = (np.arange(count) - 0.5 * (count - 1)) * spacing
    field = imprint_solitons(grid, offsets)

    first = _find_minima(field.density(), grid)
    if len(first) != count:
        raise RuntimeError(f"expected {count} cores after imprinting, found {len(first)}")
    _, records = split_step_evolve(field, t_final, n_records=n_records)
    times, rows, lost_at = [0.0], [first], None
    for t, psi in records:
        found = _find_minima(psi.real ** 2 + psi.imag ** 2, grid)
        if len(found) != count:
            lost_at = t
            break
        times.append(t)
        rows.append(found)
    return SolitonTracks(
        times=np.asarray(times),
        positions=np.asarray(rows),
        lost_at=lost_at,
    )
