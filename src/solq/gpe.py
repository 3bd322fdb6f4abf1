"""Split-step field solver: soliton imprinting, impurity relaxation, tracking.

The condensate field is evolved by a Strang-split spectral scheme for

    i dpsi/dt = -1/2 d2psi/dx2 + |psi|^2 psi + V psi

in soliton units (field normalized to the background, so the uniform density
is 1 and the chemical potential term shows up as an overall e^{-i t} phase on
the background rather than being subtracted). Box experiments run on a
periodic grid with steep tanh walls added as an external potential, which
keeps the spectral kinetic step exact.

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


def gpe_energy(field: LatticeField, extra_potential=None) -> float:
    """Energy functional E = int 1/2|psi_x|^2 + 1/2|psi|^4 + V|psi|^2."""
    grid = field.grid
    psi = field.psi
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    dens = field.density()
    pot = grid.wall_potential()
    if extra_potential is not None:
        pot = pot + extra_potential
    integrand = 0.5 * np.abs(dpsi) ** 2 + 0.5 * dens ** 2 + pot * dens
    return float(np.sum(integrand) * grid.spacing)


def split_step_evolve(
    field: LatticeField,
    t_final: float,
    dt: float | None = None,
    kind: StepKind = StepKind.REAL_TIME,
    extra_potential=None,
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
    if extra_potential is not None:
        pot = pot + np.asarray(extra_potential, dtype=float)

    psi = np.ascontiguousarray(field.psi, dtype=complex)
    if kind is StepKind.REAL_TIME:
        half_kin = np.exp(-0.5j * grid.k ** 2 * (0.5 * dt))
        stepper = _kernels.phase_step
    else:
        half_kin = np.exp(-0.5 * grid.k ** 2 * (0.5 * dt))
        stepper = _kernels.decay_step
    norm0 = math.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2) * dx)

    record_at = set()
    if n_records > 0:
        record_at = {
            int(round((i + 1) * n_steps / n_records)) for i in range(n_records)
        }
    records = []

    for step in range(1, n_steps + 1):
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi = stepper(psi, pot, 1.0, dt)
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        if kind is StepKind.IMAGINARY_TIME:
            norm = math.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2) * dx)
            psi = psi * (norm0 / norm)
        if step % 100 == 0 or step == n_steps:
            if not np.all(np.isfinite(psi)):
                raise RuntimeError(f"field diverged (non-finite value at step {step})")
        if step in record_at:
            records.append((step * dt, psi.copy()))

    return LatticeField(grid=grid, psi=psi), records


@lru_cache(maxsize=8)
def box_background(grid: Grid1D) -> np.ndarray:
    """Stationary soliton-free field of the grid (ones when periodic).

    For a box the fixed-chemical-potential stationary state is found by
    imaginary time without a norm constraint (each step carries an e^{+mu t}
    counterweight, so the interior density relaxes locally to 1 instead of
    being set by an arbitrary normalization). A Thomas-Fermi start plus a
    coarse-then-fine schedule converges to machine level; skipping this
    relaxation and using the Thomas-Fermi envelope directly turns out to
    eject deep gray solitons from the wall junctions.
    """
    if grid.boundary is Boundary.PERIODIC:
        return np.ones(grid.points)
    pot = grid.wall_potential()
    psi = np.sqrt(np.maximum(0.0, 1.0 - pot / WALL_HEIGHT)).astype(complex)
    for dt, t_stage in ((0.01, 10.0), (DT_CAP_FACTOR * grid.spacing ** 2, 1.0)):
        kin = np.exp(-grid.k ** 2 * (0.5 * 0.5 * dt))
        lift = math.exp(dt)  # e^{+mu dt}, mu = 1
        for _ in range(int(round(t_stage / dt))):
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi = _kernels.decay_step(psi, pot, 1.0, dt) * lift
            psi = np.fft.ifft(kin * np.fft.fft(psi))
    out = np.abs(psi)
    out.setflags(write=False)
    return out


def imprint_solitons(
    grid: Grid1D, positions, relax_time: float = 3.0
) -> LatticeField:
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
    pot = grid.wall_potential()

    if relax_time > 0.0:
        for dt, t_stage in ((0.003, relax_time), (DT_CAP_FACTOR * grid.spacing ** 2, 0.5)):
            kin = np.exp(-grid.k ** 2 * (0.5 * 0.5 * dt))
            lift = math.exp(dt)
            for _ in range(int(round(t_stage / dt))):
                psi = np.fft.ifft(kin * np.fft.fft(psi))
                psi = _kernels.decay_step(psi, pot, 1.0, dt) * lift
                psi = np.fft.ifft(kin * np.fft.fft(psi))
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
    grid = soliton_field.grid
    mr = params.mass_ratio
    depth = params.nu * (params.nu + 1.0) / (2.0 * mr)
    pot = depth * soliton_field.density() + grid.wall_potential()

    x = grid.x
    n = grid.points
    flip = (n - np.arange(n)) % n  # x -> -x on the periodic grid
    kin = np.exp(-grid.k ** 2 / (2.0 * mr) * (0.5 * dt))

    def relax(seed, parity):
        psi = seed.astype(complex)
        n_steps = int(round(t_relax / dt))
        for step in range(n_steps):
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi = psi * np.exp(-dt * pot)
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi = 0.5 * (psi + parity * psi[flip])
            nrm = math.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2) * grid.spacing)
            if nrm == 0.0 or not np.isfinite(nrm):
                raise RuntimeError(f"impurity relaxation collapsed at step {step}")
            psi /= nrm
        return psi

    width = max(1.0, 1.0 / max(params.nu, 0.25))
    phi0 = relax(np.exp(-(x / (2.0 * width)) ** 2), +1.0)
    phi1 = relax(x * np.exp(-(x / (2.0 * width)) ** 2), -1.0)

    e0 = _rayleigh(phi0, grid, pot, mr) - depth
    e1 = _rayleigh(phi1, grid, pot, mr) - depth
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

    _, records = split_step_evolve(
        field, t_final, kind=StepKind.REAL_TIME, n_records=n_records
    )
    first = _find_minima(field.density(), grid)
    if len(first) != count:
        raise RuntimeError(
            f"expected {count} cores after imprinting, found {len(first)}"
        )
    times = [0.0]
    rows = [first]
    lost_at = None
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
