import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import root

from oracles import gpe_energy, norm_sq
from solq import gpe
from solq.gpe import (
    Grid1D,
    LatticeField,
    _find_minima,
    box_background,
    imprint_solitons,
    multi_soliton_experiment,
    relax_impurity,
    split_step_evolve,
)
from solq.model import ModelParams, well_depth


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(points=300, length=40.0)
    with pytest.raises(ValueError):
        Grid1D(points=128, length=20.0)
    with pytest.raises(ValueError):
        Grid1D(points=256, length=40.0)  # spacing 0.156 > 1/8
    with pytest.raises(ValueError):
        Grid1D(points=256, length=-1.0)
    Grid1D(points=256, length=30.0)  # spacing 0.117 is allowed


def test_wall_geometry():
    g = Grid1D(points=512, length=40.0)
    v = g.wall_potential()
    x = g.x
    assert abs(v[np.argmin(np.abs(x))]) < 1e-10          # flat middle
    iw = np.argmin(np.abs(x - g.wall_center()))
    assert abs(v[iw] - 25.0) < 1.0                        # half height at center
    assert v[np.argmin(np.abs(x - 19.5))] > 45.0          # high in the lip
    assert g.wall_center() == 17.5


def test_background_phase_rotation():
    # the stationary box field at mu = 1 only turns its phase, as e^{-i t};
    # at the default step it is off by 2.6e-6 (Strang splitting error in the
    # walls) and keeps its norm to 4e-15
    g = Grid1D(points=256, length=30.0)
    bg = box_background(g)
    f = LatticeField(grid=g, psi=bg.astype(complex))
    out, _ = split_step_evolve(f, 0.5)
    assert np.max(np.abs(out.psi - bg * np.exp(-0.5j))) < 1e-5
    assert abs(norm_sq(out) - norm_sq(f)) < 1e-12 * norm_sq(f)


def test_real_time_conserves_energy_and_norm():
    g = Grid1D(points=512, length=40.0)
    f = imprint_solitons(g, [0.0])
    dt = 0.1 * g.spacing ** 2
    e0, n0 = gpe_energy(f), norm_sq(f)
    out, _ = split_step_evolve(f, 1000 * dt, dt=dt)
    assert abs(gpe_energy(out) - e0) < 1e-8 * abs(e0)
    assert abs(norm_sq(out) - n0) < 1e-10 * n0


def test_default_step_cap_is_accurate():
    # the default step, half the split-step stability limit, against a
    # quarter-step run recording at the same times: the cores differ by at
    # most 2.9e-7 xi, and the run moves the energy by 2.4e-9 and the norm by
    # 3.0e-13 (relative)
    g = Grid1D(points=512, length=40.0)
    f = imprint_solitons(g, [-3.75, -1.25, 1.25, 3.75])
    t_final, n_records = 5.0, 26
    n_steps = math.ceil(t_final / (gpe.DT_CAP_FACTOR * g.spacing ** 2))
    assert n_steps % n_records == 0
    out, records = split_step_evolve(f, t_final, n_records=n_records)
    _, reference = split_step_evolve(f, t_final, dt=t_final / (4 * n_steps),
                                     n_records=n_records)
    for (t, psi), (t_ref, psi_ref) in zip(records, reference, strict=True):
        assert t == pytest.approx(t_ref, rel=1e-12)
        cores, cores_ref = _find_minima(_density(psi), g), _find_minima(_density(psi_ref), g)
        assert len(cores) == len(cores_ref) == 4
        assert np.max(np.abs(np.subtract(cores, cores_ref))) < 1e-5
    e0, n0 = gpe_energy(f), norm_sq(f)
    assert abs(gpe_energy(out) - e0) < 1e-7 * abs(e0)
    assert abs(norm_sq(out) - n0) < 1e-12 * n0


def test_soliton_phase_jump():
    g = Grid1D(points=1024, length=60.0)
    f = imprint_solitons(g, [0.0])
    x = g.x
    phase_right = np.angle(f.psi[np.argmin(np.abs(x - 2.0))])
    phase_left = np.angle(f.psi[np.argmin(np.abs(x + 2.0))])
    jump = abs(phase_right - phase_left) % (2.0 * math.pi)
    assert abs(jump - math.pi) < 1e-3


def test_alternating_signs_along_a_chain():
    g = Grid1D(points=512, length=40.0)
    f = imprint_solitons(g, [-5.0, 0.0, 5.0])
    x = g.x
    probes = [-7.5, -2.5, 2.5, 7.5]
    signs = [np.sign(f.psi[np.argmin(np.abs(x - p))].real) for p in probes]
    assert signs == [-1.0, 1.0, -1.0, 1.0]


def test_single_soliton_profile():
    g = Grid1D(points=1024, length=60.0)
    f = imprint_solitons(g, [0.0])
    reference = (box_background(g) * np.tanh(g.x)) ** 2
    assert np.max(np.abs(f.density() - reference)) < 0.01


def test_imprinted_chain_is_mirror_symmetric():
    tracks = multi_soliton_experiment(4, 2.5, 40.0, 5.0)
    pos = tracks.positions
    assert np.max(np.abs(pos + pos[:, ::-1])) < 1e-6


def test_chain_tracks_converge_in_the_grid():
    # a 2.5-xi chain at twice the points: every core of every frame within
    # 3.8e-4 xi (the frame times differ by up to 1.1e-3, half a step)
    coarse = multi_soliton_experiment(4, 2.5, 40.0, 5.0, points=512)
    fine = multi_soliton_experiment(4, 2.5, 40.0, 5.0, points=1024)
    assert coarse.lost_at is None and fine.lost_at is None
    assert np.max(np.abs(coarse.positions - fine.positions)) < 1e-3


@pytest.mark.parametrize("kind, name", [
    (gpe.ImpurityStates, "phi0"), (gpe.ImpurityStates, "phi1"),
    (gpe.SolitonTracks, "times"), (gpe.SolitonTracks, "positions"),
])
def test_result_arrays_are_read_only_copies(kind, name):
    given = {
        "phi0": np.ones(4), "phi1": np.ones(4), "energies": (-1.0, -0.5), "bound": (True, True),
        "times": np.arange(3.0), "positions": np.ones((3, 2)), "lost_at": None,
    }
    result = kind(**{f.name: given[f.name] for f in dataclasses.fields(kind)})
    given[name][0] = 7.0
    stored = getattr(result, name)
    assert np.all(stored != 7.0)
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 7.0


def test_single_soliton_stays_put():
    tracks = multi_soliton_experiment(1, 10.0, 40.0, 10.0)
    assert tracks.lost_at is None
    assert np.max(np.abs(tracks.displacements)) < 0.05


def test_background_is_cached_and_flat():
    g = Grid1D(points=512, length=40.0)
    bg = box_background(g)
    assert box_background(g) is bg
    assert not bg.flags.writeable
    inner = np.abs(g.x) < 6.75  # half the near-flat region inside the walls
    assert np.max(np.abs(bg[inner] ** 2 - 1.0)) < 1e-6


def test_divergence_is_reported_with_step_index():
    g = Grid1D(points=256, length=30.0)
    psi = np.ones(256, dtype=complex)
    psi[10] = np.nan
    f = LatticeField(grid=g, psi=psi)
    with pytest.raises(RuntimeError, match="step"):
        split_step_evolve(f, 1.0)
    # a NaN in the frozen soliton stops the impurity relaxation instead of
    # returning NaN orbitals
    box = Grid1D(points=256, length=30.0)
    soliton = imprint_solitons(box, [0.0])
    soliton.psi[10] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        relax_impurity(soliton, ModelParams())


def test_step_size_and_horizon_validation():
    g = Grid1D(points=256, length=30.0)
    f = LatticeField(grid=g, psi=np.ones(256, dtype=complex))
    with pytest.raises(ValueError, match="step cap"):
        split_step_evolve(f, 1.0, dt=1.0)
    with pytest.raises(ValueError):
        split_step_evolve(f, 0.0)
    # a negative step used to run one step of dt = t_final, far past the
    # cap; dt = 0 divided by zero and an infinite horizon overflowed
    for dt in (-1e-4, 0.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            split_step_evolve(f, 1.0, dt=dt)
    for t_final in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t_final must be finite"):
            split_step_evolve(f, t_final)
    box = Grid1D(points=256, length=30.0)
    soliton = imprint_solitons(box, [0.0])
    # t_relax < dt/2 used to relax for zero steps
    with pytest.raises(ValueError, match="zero steps"):
        relax_impurity(soliton, ModelParams(), t_relax=0.004, dt=0.01)
    for t_relax, dt in ((1.0, 0.0), (1.0, -0.01), (float("inf"), 0.01)):
        with pytest.raises(ValueError, match="finite and positive"):
            relax_impurity(soliton, ModelParams(), t_relax=t_relax, dt=dt)


def test_imprint_validation():
    g = Grid1D(points=512, length=40.0)
    with pytest.raises(ValueError):
        imprint_solitons(g, [])
    with pytest.raises(ValueError):
        imprint_solitons(g, [0.0, 0.5])
    with pytest.raises(ValueError):
        imprint_solitons(g, [16.0])
    # cores nearer the wall center (17.5) than IMPRINT_MARGIN = 3.5 wall
    # widths are rejected: the tracker reads a core at 3 widths (14.5) to
    # 5e-5 xi, but does not find one at 2.5 widths
    with pytest.raises(ValueError):
        imprint_solitons(g, [14.5])
    core = g.wall_center() - 3.5
    found = _find_minima(imprint_solitons(g, [core]).density(), g)
    assert len(found) == 1 and abs(found[0] - core) < 1e-3


@pytest.mark.parametrize("points, length", [(256, 30.0), (512, 40.0), (512, 60.0),
                                            (1024, 92.0), (2048, 60.0)])
def test_cores_on_the_wall_foothills_are_not_misread(points, length):
    # a product core at 2.5 wall widths lies where the background has fallen
    # below 1/sqrt(2); read at the edge of the normalized region it would sit
    # 0.17-0.25 xi inward, so it must not be found and a tracked run reports
    # the loss. At 3 widths the stencil is normalized and the core is read to
    # 1e-4 xi (measured 8.5e-5)
    g = Grid1D(points=points, length=length)
    bg = box_background(g)
    for width, expected in ((2.5, 0), (3.0, 1)):
        core = g.wall_center() - width * gpe.WALL_WIDTH
        found = _find_minima((bg * np.tanh(g.x - core)) ** 2, g)
        assert len(found) == expected
        assert np.all(np.abs(found - core) < 1e-4)


def test_chain_must_fit_the_box():
    with pytest.raises(ValueError):
        multi_soliton_experiment(24, 2.5, 40.0, 1.0)
    with pytest.raises(ValueError):
        multi_soliton_experiment(0, 2.5, 40.0, 1.0)


@pytest.fixture(scope="module")
def impurity_60xi():
    """Frozen single soliton and its impurity orbitals on the 60-xi box, keyed
    by grid size."""
    out = {}
    for pts in (1024, 2048):
        g = Grid1D(points=pts, length=60.0)
        f = imprint_solitons(g, [0.0])
        out[pts] = (f, relax_impurity(f, ModelParams()))
    return out


def test_impurity_levels_and_grid_refinement(impurity_60xi):
    results = {pts: st for pts, (_, st) in impurity_60xi.items()}
    f, st = impurity_60xi[2048]
    analytic = -(0.75 ** 2) / (2.0 * 1.56)
    assert abs(st.energies[0] - analytic) < 0.01 * abs(analytic)
    assert st.bound[0]
    # the matched well depth supports no odd level: the first excited
    # candidate relaxes onto a continuum-edge mode with E > 0
    assert not st.bound[1]
    assert st.energies[1] > 0.0

    dx = 60.0 / 2048
    phi0, phi1 = st.phi0, st.phi1
    assert abs(np.sum(phi0 * phi1) * dx) < 1e-10
    x = f.grid.x
    core = np.abs(x) < 5.0

    def sign_flips(values):
        s = np.sign(values[np.abs(values) > 1e-12])
        return np.count_nonzero(np.diff(s) != 0)

    assert sign_flips(phi1[core]) == 1
    assert sign_flips(phi0[core]) == 0

    # ground level insensitive to grid resolution
    e_coarse = results[1024].energies[0]
    assert abs(st.energies[0] - e_coarse) < 1e-3 * abs(e_coarse)


def _plain_strang(psi, grid, n_steps, dt, nonlinear, mass=1.0, imaginary=False,
                  after_step=None, record_at=()):
    """The unfused reference: both half-kinetic FFT pairs in every step."""
    rate = 1.0 if imaginary else 1j
    half_kin = np.exp(-rate * grid.k ** 2 / (2.0 * mass) * (0.5 * dt))
    records = []
    for step in range(1, n_steps + 1):
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi = nonlinear(psi)
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        if after_step is not None:
            psi = after_step(psi)
        if step in record_at:
            records.append(psi.copy())
    return psi, records


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _density(psi):
    return psi.real ** 2 + psi.imag ** 2


def _minima_loop(density, grid):
    """The pointwise scan `_find_minima` vectorizes, kept as its reference."""
    x = grid.x
    bg_sq = box_background(grid) ** 2
    d = np.divide(density, bg_sq, out=np.ones_like(density), where=bg_sq > 0.5)
    found = []
    for i in range(1, len(d) - 1):
        if min(bg_sq[i - 1:i + 2]) <= 0.5:
            continue
        if d[i] <= d[i - 1] and d[i] < d[i + 1] and d[i] < 0.5:
            denom = d[i + 1] - 2.0 * d[i] + d[i - 1]
            shift = 0.0 if denom <= 0 else 0.5 * (d[i - 1] - d[i + 1]) / denom
            found.append(x[i] + shift * grid.spacing)
    return found


def test_find_minima_matches_pointwise_loop():
    # seeded dips plus noise give many minima, ties and flat stretches; the
    # arithmetic is the loop's, so the cores must agree bit for bit
    g = Grid1D(points=1024, length=92.0)
    bg_sq = box_background(g) ** 2
    rng = np.random.default_rng(7)
    for _ in range(20):
        dips = np.exp(-(g.x[:, None] - rng.uniform(-40.0, 40.0, 20)) ** 2
                      / rng.uniform(0.3, 2.0))
        density = bg_sq * (1.0 - 0.9 * dips.max(axis=1)) + 1e-3 * rng.normal(size=g.points)
        density[::97] = density[1::97]  # equal neighbours
        got, want = _find_minima(density, g), _minima_loop(density, g)
        assert len(want) > 5 and np.array_equal(got, want)


def test_fused_evolution_matches_plain_strang_loop():
    g = Grid1D(points=256, length=30.0)
    pot = g.wall_potential()
    dx = g.spacing

    # real time on a box soliton: every record and the final field; a run of
    # fewer steps than n_records records each step once
    f = imprint_solitons(g, [0.0])
    dt = 0.1 * dx ** 2
    for n_steps, n_records in ((300, 7), (5, 7)):
        record_at = {int(round((i + 1) * n_steps / n_records)) for i in range(n_records)}
        out, records = split_step_evolve(f, n_steps * dt, dt=dt, n_records=n_records)
        ref, ref_records = _plain_strang(
            f.psi, g, n_steps, dt,
            lambda p: p * np.exp(-1j * dt * (_density(p) + pot)), record_at=record_at,
        )
        assert len(records) == len(ref_records) == min(n_records, n_steps)
        for (t, psi), psi_ref in zip(records, ref_records):
            assert _rel_err(psi, psi_ref) < 1e-10
        assert _rel_err(out.psi, ref) < 1e-10
        assert records[-1][0] == n_steps * dt


def _stationarity(grid, psi):
    """-1/2 psi'' + (psi^2 + V - 1) psi with the complex spectral psi''."""
    kinetic = np.fft.ifft(0.5 * grid.k ** 2 * np.fft.fft(psi)).real
    return kinetic + (psi ** 2 + grid.wall_potential() - 1.0) * psi


def test_background_matches_scipy_root():
    # an uncached grid: the Newton background is stationary and is the root
    # that MINPACK's hybrid method finds from the same Thomas-Fermi start
    g = Grid1D(points=256, length=28.0)
    bg = box_background.__wrapped__(g)
    assert np.max(np.abs(_stationarity(g, bg))) < 1e-10
    tf = np.sqrt(np.maximum(0.0, 1.0 - g.wall_potential() / 50.0))
    sol = root(lambda p: _stationarity(g, p), tf, method="hybr", options={"xtol": 1e-13})
    assert sol.success
    assert np.max(np.abs(bg - sol.x)) < 1e-10


@pytest.mark.parametrize("points, length", [(512, 60.0), (2048, 60.0), (1024, 92.0)])
def test_background_is_stationary_on_preset_grids(points, length):
    # the figS1 grid, acceptance 7's and the benchmark's impurity grid, and
    # the figS3 (24-soliton chain) grid; the imprinted single soliton too
    # (max|F| 6.2e-12, 7.2e-11 and 9.4e-12)
    g = Grid1D(points=points, length=length)
    assert np.max(np.abs(_stationarity(g, box_background(g)))) < 1e-10
    soliton = imprint_solitons(g, [0.0]).psi.real
    assert np.max(np.abs(_stationarity(g, soliton))) < 1e-10


def test_background_non_convergence_names_the_residual(monkeypatch):
    monkeypatch.setattr(gpe, "NEWTON_MAX_ITER", 2)
    g = Grid1D(points=256, length=28.0)
    with pytest.raises(RuntimeError, match=r"max residual \d\.\d+e[-+]\d+ after 2 Newton"):
        box_background.__wrapped__(g)


def test_relaxed_fields_are_real(impurity_60xi):
    f, st = impurity_60xi[2048]
    assert f.psi.dtype == complex
    assert np.all(f.psi.imag == 0.0)
    assert st.phi0.dtype == st.phi1.dtype == float


def test_relaxed_orbitals_have_parity_and_unit_norm(impurity_60xi):
    # the figS1 grid, and a horizon whose decay e^{-0.4 t} would underflow
    # without the orbitals' periodic renormalization
    box = Grid1D(points=256, length=30.0)
    long_run = relax_impurity(imprint_solitons(box, [0.0]), ModelParams(),
                              t_relax=3000.0, dt=1.0)
    for g, st in ((impurity_60xi[2048][0].grid, impurity_60xi[2048][1]), (box, long_run)):
        flip = (g.points - np.arange(g.points)) % g.points
        for phi, parity in ((st.phi0, 1.0), (st.phi1, -1.0)):
            assert np.all(np.isfinite(phi))
            assert np.max(np.abs(phi[flip] - parity * phi)) <= 1e-14 * np.max(np.abs(phi))
            assert abs(np.sum(phi * phi) * g.spacing - 1.0) < 1e-14


def test_impurity_relaxation_fft_count(monkeypatch):
    # a count, not a timing: both orbitals share each step's real FFT pair,
    # and each block of 100 steps adds two
    g = Grid1D(points=256, length=30.0)
    f = imprint_solitons(g, [0.0])
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, original=original, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    n_steps = 1250
    relax_impurity(f, ModelParams(), t_relax=n_steps * 0.01, dt=0.01)
    assert len(calls) <= 2 * n_steps + n_steps / 25 + 10


def test_fused_relaxations_match_plain_strang_loop():
    # the real-FFT imaginary-time path against the complex plain loop:
    # impurity orbitals, each on its own with parity projection and
    # normalization after every step; the default t_relax at the benchmark's
    # widest gap (nu = 0.78, mass ratio 1.2) needs the orbitals' periodic
    # renormalization: without it phi1 is lost in phi0's rounding
    dt = 0.01
    for params, points, length, t_relax, tol in ((ModelParams(), 512, 40.0, 2.0, 1e-10),
                                                  (ModelParams(nu=0.78, mass_ratio=1.2),
                                                   256, 30.0, 60.0, 1e-12)):
        g = Grid1D(points=points, length=length)
        f = imprint_solitons(g, [0.0])
        st = relax_impurity(f, params, t_relax=t_relax, dt=dt)
        mr = params.mass_ratio
        well = well_depth(params) * f.density() + g.wall_potential()
        flip = (points - np.arange(points)) % points
        x = g.x
        gauss = np.exp(-(x / (2.0 * max(1.0, 1.0 / params.nu))) ** 2)
        for seed, parity, phi in ((gauss, 1.0, st.phi0), (x * gauss, -1.0, st.phi1)):

            def project(p, parity=parity):
                p = 0.5 * (p + parity * p[flip])
                return p / math.sqrt(np.sum(_density(p)) * g.spacing)

            ref, _ = _plain_strang(
                seed.astype(complex), g, int(round(t_relax / dt)), dt,
                lambda p: p * np.exp(-dt * well), mass=mr, imaginary=True, after_step=project,
            )
            assert _rel_err(phi, ref) < tol


def test_impurity_ground_level_matches_eigensolver(impurity_60xi):
    # oracle: the finite-difference Hamiltonian of the same frozen-soliton
    # well plus walls, diagonalized directly
    params = ModelParams()
    f, st = impurity_60xi[2048]
    g = f.grid
    mr = params.mass_ratio
    depth = well_depth(params)
    well = depth * f.density() + g.wall_potential()
    hop = 1.0 / (2.0 * mr * g.spacing ** 2)
    levels = eigh_tridiagonal(
        well + 2.0 * hop, np.full(g.points - 1, -hop),
        eigvals_only=True, select="i", select_range=(0, 1),
    ) - depth
    assert abs(st.energies[0] - levels[0]) < 2e-4 * abs(levels[0])
    # the lowest odd state lies above the plateau in both (their values
    # differ: the relaxed one depends on t_relax)
    assert levels[1] > 0.0
    assert st.energies[1] > 0.0


def test_impurity_energies_are_the_orbitals_rayleigh_quotients(impurity_60xi):
    # oracle: <phi|H|phi>/<phi|phi> - depth with the kinetic term from a
    # complex-FFT derivative, as in oracles.gpe_energy, on the 2048-point
    # default solve and on the figS1 grid at another nu and mass ratio
    default, other = impurity_60xi[2048], ModelParams(nu=0.7, mass_ratio=1.4)
    soliton = imprint_solitons(Grid1D(points=512, length=60.0), [0.0])
    for f, params, st in ((default[0], ModelParams(), default[1]),
                          (soliton, other, relax_impurity(soliton, other))):
        g = f.grid
        well = well_depth(params) * f.density() + g.wall_potential()
        for phi, energy in zip((st.phi0, st.phi1), st.energies, strict=True):
            dphi = np.fft.ifft(1j * g.k * np.fft.fft(phi))
            num = np.sum(np.abs(dphi) ** 2 / (2.0 * params.mass_ratio) + well * phi ** 2)
            assert abs(energy - (num / np.sum(phi ** 2) - well_depth(params))) < 1e-12
