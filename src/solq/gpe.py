"""Split-step field solver: soliton imprinting, impurity relaxation, tracking.

The condensate field is evolved by a Strang-split spectral scheme for

    i dpsi/dt = -1/2 d2psi/dx2 + |psi|^2 psi + V psi

in soliton units (field normalized to the background, so the uniform density
is 1 and the chemical potential term shows up as an overall e^{-i t} phase on
the background rather than being subtracted). Box experiments run on a
periodic grid with steep tanh walls added as an external potential, which
keeps the spectral kinetic step exact.

Every run goes through one stepper, `_strang` (K/2 N K/2 per step). The
trailing K/2 of a step and the leading K/2 of the next fuse into one kinetic
factor, so a step costs one FFT pair unless the caller looks at the full
state: at a record, at the last step, or for a per-step constraint.

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


class Boundary(Enum):
    PERIODIC = "periodic"
    BOX = "box"


class StepKind(Enum):
    REAL_TIME = "real"
    IMAGINARY_TIME = "imaginary"


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid. points must be a power of two, >= 256."""

    points: int
    length: float
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.points < 256 or (self.points & (self.points - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 256, got {self.points}")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
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

    def interior_halfwidth(self) -> float:
        """Half-width of the near-flat region inside the walls (the tanh
        foothills reach a few widths past the wall center)."""
        if self.boundary is Boundary.PERIODIC:
            return 0.5 * self.length
        return 0.5 * self.length - WALL_INSET - 4.0 * WALL_WIDTH


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


def _strang(psi, grid, n_steps, dt, nonlinear, mass=1.0,
            kind=StepKind.REAL_TIME, record_at=(), constrain=None):
    """n_steps Strang steps K/2 N K/2 of -1/(2 mass) d2/dx2 and the pointwise
    nonlinear(psi); returns (psi, records), (t, psi-copy) at the steps in
    record_at. constrain(psi) acts on the full state after every step. A
    non-finite value (checked every 100 steps and at the last) aborts.
    """
    rate = 1j if kind is StepKind.REAL_TIME else 1.0
    half = np.exp(-rate * (grid.k ** 2 / (2.0 * mass)) * (0.5 * dt))
    full = half * half
    records = []
    phi = half * np.fft.fft(psi)  # the state after the leading K/2
    for step in range(1, n_steps + 1):
        psi = nonlinear(np.fft.ifft(phi))
        phi = np.fft.fft(psi)
        if constrain is None and step not in record_at and step < n_steps:
            phi *= full
        else:
            psi = np.fft.ifft(half * phi)
            if constrain is not None:
                psi = constrain(psi)
            if step in record_at:
                records.append((step * dt, psi.copy()))
            if step < n_steps:
                phi = half * np.fft.fft(psi)
        if (step % 100 == 0 or step == n_steps) and not np.all(np.isfinite(psi)):
            raise RuntimeError(f"field diverged (non-finite value at step {step})")
    return psi, records


def split_step_evolve(
    field: LatticeField,
    t_final: float,
    dt: float | None = None,
    kind: StepKind = StepKind.REAL_TIME,
    n_records: int = 0,
):
    """Propagate the field; returns (field, records).

    records is a list of (t, psi-copy) pairs, n_records of them spread evenly
    over the run (empty when n_records = 0). Imaginary time renormalizes to
    the initial norm after every step. A NaN anywhere aborts with the step
    index in the message.
    """
    grid = field.grid
    dx = grid.spacing
    cap = DT_CAP_FACTOR * dx * dx
    if dt is None:
        dt = cap
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} exceeds the stability cap {cap:.3e}")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if isinstance(kind, str):
        kind = StepKind(kind)

    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    pot = grid.wall_potential()
    psi = np.ascontiguousarray(field.psi, dtype=complex)
    record_at = {int(round((i + 1) * n_steps / n_records)) for i in range(n_records)}

    norm0 = math.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2) * dx)

    def renormalize(p):
        return p * (norm0 / math.sqrt(np.sum(p.real ** 2 + p.imag ** 2) * dx))

    real = kind is StepKind.REAL_TIME
    psi, records = _strang(
        psi, grid, n_steps, dt,
        lambda p: (_kernels.phase_step if real else _kernels.decay_step)(p, pot, dt),
        kind=kind, record_at=record_at, constrain=None if real else renormalize)
    return LatticeField(grid=grid, psi=psi), records


def _relax_fixed_mu(grid, psi, stages, constrain=None):
    """Imaginary time at fixed chemical potential mu = 1 over (dt, t) stages:
    each step carries an e^{+mu dt} lift, so no norm constraint is needed."""
    pot = grid.wall_potential()
    for dt, t_stage in stages:
        lift = math.exp(dt)
        psi, _ = _strang(psi, grid, int(round(t_stage / dt)), dt,
                         lambda p: _kernels.decay_step(p, pot, dt) * lift,
                         kind=StepKind.IMAGINARY_TIME, constrain=constrain)
    return psi


@lru_cache(maxsize=8)
def box_background(grid: Grid1D) -> np.ndarray:
    """Stationary soliton-free field of the grid (ones when periodic).

    For a box the fixed-chemical-potential stationary state is found by
    imaginary time without a norm constraint, so the interior density relaxes
    locally to 1 instead of being set by an arbitrary normalization. A
    Thomas-Fermi start plus a coarse-then-fine schedule converges to machine
    level; skipping this relaxation and using the Thomas-Fermi envelope
    directly turns out to eject deep gray solitons from the wall junctions.
    """
    if grid.boundary is Boundary.PERIODIC:
        return np.ones(grid.points)
    tf = np.sqrt(np.maximum(0.0, 1.0 - grid.wall_potential() / WALL_HEIGHT))
    stages = ((0.01, 10.0), (DT_CAP_FACTOR * grid.spacing ** 2, 1.0))
    out = np.abs(_relax_fixed_mu(grid, tf.astype(complex), stages))
    out.setflags(write=False)
    return out


def imprint_solitons(grid: Grid1D, positions, relax_time: float = 3.0) -> LatticeField:
    """Dark-soliton chain with nodes at the given positions.

    Starts from a product of tanh cores on the relaxed background, then runs
    fixed-chemical-potential imaginary time while re-imposing the sign
    pattern every step. The sign constraint pins the nodes, so the density
    relaxes onto the true stationary chain instead of the bare product
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
    psi = box_background(grid).astype(complex)
    sign = np.ones_like(x)
    for p in positions:
        core = np.tanh(x - p)
        psi *= core
        # np.sign keeps an on-grid node at exactly zero; mapping it to +1
        # would bias every node half a cell leftward and break the mirror
        # symmetry of a symmetric chain by a full grid cell
        sign *= np.sign(core)

    if relax_time > 0.0:
        psi = _relax_fixed_mu(
            grid, psi, ((0.003, relax_time), (DT_CAP_FACTOR * grid.spacing ** 2, 0.5)),
            constrain=lambda p: np.abs(p) * sign,
        )
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
    grid = soliton_field.grid
    mr = params.mass_ratio
    depth = params.nu * (params.nu + 1.0) / (2.0 * mr)
    pot = depth * soliton_field.density() + grid.wall_potential()

    n = grid.points
    flip = (n - np.arange(n)) % n  # x -> -x on the periodic grid
    decay = np.exp(-dt * pot)
    n_steps = int(round(t_relax / dt))

    def relax(seed, parity):
        # every factor of a step is linear and even, so projecting after the
        # potential step rescales the state only; the final call sets the scale
        def project(psi):
            psi = 0.5 * (psi + parity * psi[flip])
            nrm = math.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2) * grid.spacing)
            if nrm == 0.0 or not np.isfinite(nrm):
                raise RuntimeError("impurity relaxation collapsed (zero or non-finite norm)")
            return psi / nrm

        psi, _ = _strang(seed.astype(complex), grid, n_steps, dt, lambda p: project(p * decay),
                         mass=mr, kind=StepKind.IMAGINARY_TIME)
        return project(psi)

    x = grid.x
    gauss = np.exp(-(x / (2.0 * max(1.0, 1.0 / max(params.nu, 0.25)))) ** 2)
    phi0, phi1 = relax(gauss, +1.0), relax(x * gauss, -1.0)
    e0, e1 = (_rayleigh(phi, grid, pot, mr) - depth for phi in (phi0, phi1))
    return ImpurityStates(
        phi0=LatticeField(grid=grid, psi=phi0),
        phi1=LatticeField(grid=grid, psi=phi1),
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
    inner = np.where(np.abs(x) < window)[0]
    found = []
    for i in inner:
        if 0 < i < len(d) - 1 and d[i] <= d[i - 1] and d[i] < d[i + 1] and d[i] < 0.5:
            denom = d[i + 1] - 2.0 * d[i] + d[i - 1]
            shift = 0.0 if denom <= 0 else 0.5 * (d[i - 1] - d[i + 1]) / denom
            found.append(x[i] + shift * grid.spacing)
    return found


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
