"""Split-step field solver: soliton imprinting, impurity relaxation, tracking.

The condensate field is evolved by a Strang-split spectral scheme for

    i dpsi/dt = -1/2 d2psi/dx2 + |psi|^2 psi + V psi

in soliton units (field normalized to the background, so the uniform density
is 1 and the chemical potential term shows up as an overall e^{-i t} phase on
the background rather than being subtracted). Every grid is a box: a
periodic FFT grid with steep tanh walls added as an external potential, so
the spectral kinetic step stays exact and the field vanishes at the seam.

The box background is the stationary field at chemical potential 1, found
by Newton's method with a preconditioned conjugate-gradient inner solve; it
stops once the stationarity residual is at the rounding level of the
spectral second derivative (max|F| < NEWTON_TOL on the preset grids).

Every time-stepped run goes through one stepper, `_strang` (K/2 N K/2 per
step). The trailing K/2 of a step and the leading K/2 of the next fuse into
one kinetic factor, so a step costs one FFT pair; a record and the last step
each add one inverse FFT. `split_step_evolve` runs real time at steps up to
DT_CAP_FACTOR * dx^2 = dx^2 / pi. Split-step Fourier for the nonlinear
Schroedinger equation is unstable only once dt * k_max^2 / 2 exceeds pi
(Weideman & Herbst, SIAM J. Numer. Anal. 23 (1986) 485), which for the
1/2 d2/dx2 kinetic term and k_max = pi / dx is dt = 2 dx^2 / pi; the cap is
half of that. At the cap the cores of a 24-soliton, 2.5-xi chain (1024
points, 92 xi) stay within 3.4e-6 xi of a quarter-step run to t = 22.5, and
its relative energy drift over t = 100 is 3.6e-8. Past the limit, at 0.65 to
0.8 dx^2, that drift stays below 3e-7: the unstable modes grow from rounding,
slowly within t = 100.

Imaginary time runs on real fields with real FFTs, since the kinetic factor
is real and even. Its one use is the two localized impurity orbitals inside a
frozen soliton (one-way coupling), which relax together as the even and odd
parts of one real field.

A soliton chain is imprinted by construction, as the product of tanh cores on
the box background, with no relaxation; a single core is then stationary up
to the overlap of its tails with the walls.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import _kernels
from .model import ModelParams, well_depth

WALL_HEIGHT = 50.0   # box wall height, units of mu
WALL_WIDTH = 1.0     # wall rise width, units of xi
WALL_INSET = 2.5     # wall center sits this far inside the grid edge
# real-time dt <= DT_CAP_FACTOR * dx^2: half the split-step stability limit
# dt k_max^2 / 2 = pi, which sits at dt = 2 dx^2 / pi (Weideman & Herbst 1986)
DT_CAP_FACTOR = 1.0 / math.pi
# nearest a core may sit to the wall center, in wall widths: the tracker finds
# an imprinted core, to 2e-4 xi, only down to about 2.8 widths (five grids);
# nearer, its stencil reaches where the background falls below 1/sqrt(2), which
# the tracker does not normalize by, and the core is not found
IMPRINT_MARGIN = 3.5
MIN_POINTS = 256     # grid rule: a power of two, at least MIN_POINTS points,
MAX_SPACING = 0.125  # and spacing at most MAX_SPACING (xi/8)
TRACK_FRAMES = 200   # frames of a multi_soliton_experiment run after the imprint
NEWTON_TOL = 1e-11   # max|F| at which the box background's Newton solve stops
NEWTON_MAX_ITER = 20  # Newton steps before box_background gives up


class Boundary(Enum):
    BOX = "box"


def fitted_points(length: float) -> int:
    """The fewest points the grid rule allows on a box of this length."""
    if not 0.0 < length < math.inf:
        raise ValueError(f"length must be finite and positive, got {length}")
    points = MIN_POINTS
    while length / points > MAX_SPACING:
        points *= 2
    return points


@dataclass(frozen=True)
class Grid1D:
    """A box: a uniform periodic FFT grid that meets the grid rule (see
    MIN_POINTS), with tanh walls WALL_INSET inside its edges."""

    points: int
    length: float
    boundary: Boundary = Boundary.BOX  # the only kind; solq never reads it

    def __post_init__(self):
        fewest = fitted_points(self.length)
        if (self.points & (self.points - 1)) != 0 or self.points < fewest:
            raise ValueError(f"points must be a power of two >= {fewest} "
                             f"for length {self.length}, got {self.points}")

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
        """Tanh walls of height WALL_HEIGHT and width WALL_WIDTH at |x| = wall_center()."""
        xw = self.wall_center()
        return 0.5 * WALL_HEIGHT * (np.tanh((np.abs(self.x) - xw) / WALL_WIDTH) + 1.0)

    def wall_center(self) -> float:
        """|x| of the wall midpoint, where the wall reaches half its height."""
        return 0.5 * self.length - WALL_INSET


@dataclass
class LatticeField:
    grid: Grid1D
    psi: np.ndarray

    def density(self) -> np.ndarray:
        return self.psi.real ** 2 + self.psi.imag ** 2


def _real_k(grid):
    """Wavenumbers of the real FFT of a field on the grid."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.spacing)


def _kinetic(f, grid, mass=1.0):
    """-1/(2 mass) f'' of a real field on the grid, spectrally (real FFTs)."""
    return np.fft.irfft(_real_k(grid) ** 2 / (2.0 * mass) * np.fft.rfft(f))


def _strang(psi, grid, n_steps, dt, nonlinear, mass=1.0, imaginary=False, record_at=()):
    """n_steps Strang steps K/2 N K/2 of -1/(2 mass) d2/dx2 and the pointwise
    nonlinear(psi); returns (psi, records), with (t, psi) at the steps in
    record_at. Imaginary time (the impurity relaxation) takes and keeps a
    real psi (real FFTs), real time a complex one. A non-finite value
    (checked every 100 steps and at the last) aborts.
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

    dt defaults to the step cap DT_CAP_FACTOR * dx^2 = dx^2 / pi, half the
    split-step stability limit 2 dx^2 / pi (Weideman & Herbst 1986), and may
    not exceed it; it is shortened so that a whole number of steps reaches
    t_final. records is a list of (t, psi) pairs at steps spread evenly over
    the run, the last at t_final: min(n_records, steps) of them, since a step
    is recorded at most once (empty when n_records = 0). A NaN anywhere aborts
    with the step index in the message.
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
    """Stationary soliton-free field of the box.

    This is the real root of F(psi) = -1/2 psi'' + (psi^2 + V - 1) psi at
    fixed chemical potential 1, so the interior density settles locally to 1
    instead of being set by an arbitrary normalization. Newton's method from
    the Thomas-Fermi profile solves it, each step by conjugate gradients on
    the Jacobian -1/2 d2/dx2 + 3 psi^2 + V - 1 (SPD here) preconditioned by
    (k^2/2 + 2)^-1. It stops at max|F| < NEWTON_TOL, or on grids finer than
    about xi/39 at three times the rounding floor of the spectral psi''
    (about 2 eps max(k^2/2)), and raises RuntimeError after NEWTON_MAX_ITER
    steps. Using the Thomas-Fermi envelope directly turns out to eject deep
    gray solitons from the wall junctions.
    """
    pot = grid.wall_potential()
    half_k2 = 0.5 * _real_k(grid) ** 2
    inverse = 1.0 / (half_k2 + 2.0)

    def precondition(r):
        return np.fft.irfft(inverse * np.fft.rfft(r))

    tol = max(NEWTON_TOL, 6.0 * np.finfo(float).eps * half_k2[-1])
    psi = np.sqrt(np.maximum(0.0, 1.0 - pot / WALL_HEIGHT))
    for step in range(NEWTON_MAX_ITER + 1):
        residual = _kinetic(psi, grid) + (psi * psi + pot - 1.0) * psi
        err = float(np.max(np.abs(residual)))
        if err < tol:
            psi.setflags(write=False)
            return psi
        if step == NEWTON_MAX_ITER:
            break
        diag = 3.0 * psi * psi + pot - 1.0
        psi = psi - _pcg(lambda v: _kinetic(v, grid) + diag * v, residual, precondition,
                         rtol=min(0.1, err))
    raise RuntimeError(
        f"box background did not converge: max residual {err:.3e} after "
        f"{NEWTON_MAX_ITER} Newton steps"
    )


def imprint_solitons(grid: Grid1D, positions) -> LatticeField:
    """Dark-soliton chain with nodes at the given positions: the box
    background times the product of tanh(x - p) over the positions.

    Adjacent cores have opposite signs, giving the pi phase jump per soliton.
    A single core is stationary up to the overlap of its tails with the
    walls: max|F| (see box_background) is at most 7.3e-11 on the 60- and
    92-xi preset grids, and 5.5e-8 on a 30-xi box. The product is not
    relaxed: at close spacing the overlapping tails depress the density
    between cores, and the chain starts from that profile. Positions closer
    than one healing length are rejected as overlapping, and so are cores
    within IMPRINT_MARGIN wall widths of a wall center.
    """
    positions = sorted(float(p) for p in positions)
    if not positions:
        raise ValueError("need at least one soliton position")
    for a, b in zip(positions, positions[1:]):
        if b - a < 1.0:
            raise ValueError(f"soliton positions {a} and {b} overlap (closer than xi)")
    if max(-positions[0], positions[-1]) > grid.wall_center() - IMPRINT_MARGIN * WALL_WIDTH:
        raise ValueError("soliton positions fall outside the usable interior")

    x = grid.x
    psi = box_background(grid) * np.prod([np.tanh(x - p) for p in positions], axis=0)
    return LatticeField(grid=grid, psi=psi.astype(complex))


def _freeze(result, *names):
    """Replace each named array field of a frozen result by a read-only float copy."""
    for name in names:
        a = np.array(getattr(result, name), dtype=float)
        a.flags.writeable = False
        object.__setattr__(result, name, a)


@dataclass(frozen=True)
class ImpurityStates:
    """Relaxed real impurity orbitals on the soliton's grid (read-only copies),
    with Rayleigh energies (relative to the potential plateau) and per-orbital
    bound flags."""

    phi0: np.ndarray
    phi1: np.ndarray
    energies: tuple
    bound: tuple

    def __post_init__(self):
        _freeze(self, "phi0", "phi1")


def relax_impurity(
    soliton_field: LatticeField,
    params: ModelParams,
    t_relax: float = 60.0,
    dt: float = 0.01,
) -> ImpurityStates:
    """Ground and first-excited impurity orbitals in a frozen soliton.

    The impurity feels the soliton density as a well of depth
    `model.well_depth` (the matched sech^2 relation, which makes the analytic
    level ladder the reference), plus the box walls. Both orbitals relax in
    imaginary time as the even and odd parts of one real field: the kinetic
    factor is even, and so is the potential step once symmetrized (on a state
    of either parity it equals the parity-projected step), so the parts never
    mix. Every 100 steps each part is rescaled to unit norm. Without that the
    even part outgrows the odd one by e^{(E1 - E0) t}, so the odd orbital is
    lost in the even one's rounding, and on long runs both underflow. A
    nonnegative Rayleigh quotient (kinetic term from `_kinetic`) relative to
    the plateau means the channel supports no bound state and is flagged.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_relax < math.inf):
        raise ValueError(f"dt and t_relax must be finite and positive, got {dt} and {t_relax}")
    n_steps = int(round(t_relax / dt))
    if n_steps < 1:
        raise ValueError(f"t_relax = {t_relax} rounds to zero steps of dt = {dt}")
    grid = soliton_field.grid
    depth = well_depth(params)
    pot = depth * soliton_field.density() + grid.wall_potential()

    flip = -np.arange(grid.points) % grid.points  # x -> -x on the periodic grid
    decay = np.exp(-dt * pot)
    decay = 0.5 * (decay + decay[flip])  # exactly even

    def unit(psi):
        nrm = math.sqrt((psi @ psi) * grid.spacing)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise RuntimeError("impurity relaxation collapsed (zero or non-finite norm)")
        return psi / nrm

    x = grid.x
    gauss = np.exp(-(x / (2.0 * max(1.0, 1.0 / max(params.nu, 0.25)))) ** 2)
    psi = gauss + x * gauss
    for start in range(0, n_steps, 100):
        psi, _ = _strang(psi, grid, min(100, n_steps - start), dt, lambda p: p * decay,
                         mass=params.mass_ratio, imaginary=True)
        mirror = psi[flip]
        phi0, phi1 = unit(0.5 * (psi + mirror)), unit(0.5 * (psi - mirror))
        psi = phi0 + phi1
    e0, e1 = (float(phi @ (_kinetic(phi, grid, params.mass_ratio) + pot * phi) / (phi @ phi))
              - depth for phi in (phi0, phi1))
    return ImpurityStates(phi0=phi0, phi1=phi1, energies=(e0, e1), bound=(e0 < 0.0, e1 < 0.0))


@dataclass(frozen=True)
class SolitonTracks:
    """Centroid tracks x_j(t) of a soliton chain (read-only copies); lost_at is
    the time the tracker first failed to find the full count (None if it
    never did)."""

    times: np.ndarray
    positions: np.ndarray  # shape (nt, count)
    lost_at: float | None

    def __post_init__(self):
        _freeze(self, "times", "positions")

    @property
    def displacements(self) -> np.ndarray:
        return np.max(np.abs(self.positions - self.positions[0]), axis=0)


def _find_minima(density, grid):
    """Deep local minima of the wall-normalized density, parabolically
    refined. Normalizing by the empty-box profile keeps cores detectable on
    the wall foothills without the falloff itself reading as a dip. The
    density is normalized only where the background exceeds 1/sqrt(2), and a
    minimum counts only if its three-point stencil lies there: a core nearer
    the wall is not found, rather than read at the edge of that region."""
    bg_sq = box_background(grid) ** 2
    inside = bg_sq > 0.5
    d = np.divide(density, bg_sq, out=np.ones_like(density), where=inside)
    i = np.flatnonzero(inside[:-2] & inside[1:-1] & inside[2:]) + 1
    lo, mid, hi = d[i - 1], d[i], d[i + 1]
    keep = (mid <= lo) & (mid < hi) & (mid < 0.5)
    i, lo, mid, hi = i[keep], lo[keep], mid[keep], hi[keep]
    denom = hi - 2.0 * mid + lo
    shift = np.divide(0.5 * (lo - hi), denom, out=np.zeros_like(denom), where=denom > 0)
    return grid.x[i] + shift * grid.spacing


def multi_soliton_experiment(
    count: int,
    spacing: float,
    box_length: float,
    t_final: float,
    points: int | None = None,
) -> SolitonTracks:
    """Evolve an equally spaced soliton chain in a box and track the cores.

    Requires spacing > 0 and count * spacing < 0.9 * box_length so the
    chain fits with margin. points defaults to the fewest the grid rule allows. Tracks are
    matched frame to frame by order (the cores never cross in this regime);
    losing a core flags the result with the loss time. The imprinted frame is
    followed by min(TRACK_FRAMES, steps) frames of the run.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if count * spacing >= 0.9 * box_length:
        raise ValueError(
            f"chain of {count} solitons at spacing {spacing} does not fit in "
            f"a {box_length} box with margin"
        )
    if points is None:
        points = fitted_points(box_length)
    grid = Grid1D(points=points, length=box_length)
    offsets = (np.arange(count) - 0.5 * (count - 1)) * spacing
    field = imprint_solitons(grid, offsets)

    first = _find_minima(field.density(), grid)
    if len(first) != count:
        raise RuntimeError(f"expected {count} cores after imprinting, found {len(first)}")
    _, records = split_step_evolve(field, t_final, n_records=TRACK_FRAMES)
    times, rows, lost_at = [0.0], [first], None
    for t, psi in records:
        found = _find_minima(psi.real ** 2 + psi.imag ** 2, grid)
        if len(found) != count:
            lost_at = t
            break
        times.append(t)
        rows.append(found)
    return SolitonTracks(times=times, positions=rows, lost_at=lost_at)
