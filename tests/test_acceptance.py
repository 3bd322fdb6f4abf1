"""Release gate: one test per headline requirement, in order.

Each test prints a single `acceptance N <name>: PASS/FAIL (...)` line with
the measured numbers before asserting, so a failing run still reports every
measurement.

The contact limit (test 1) is checked through its curvature: Gamma/gamma =
C12(d)/C11 is even in d and exactly 1 at contact, so 1 - Gamma/gamma =
kappa d^2/2 + O(d^4) with kappa = -C12''(0)/C11. Test 1 compares the rate
engine's kappa at d = 1e-3 with a spectral oracle (kappa = 7.7145 at the
default parameters) built from the mode and orbital functions alone.

Two known deviations are asserted honestly rather than patched around; the
repository does not yet fix the conventions that would settle them:

* the steady-state concurrence optimum over separation sits at d = 1.85,
  below the expected [2, 3] band, and moves with the PV cutoff and with the
  orbital exponent convention (test 6);
* the first excited impurity level is not bound in the well that
  `relax_impurity` solves, although the analytic ladder assumes it is, so
  only the ground level meets the 1% energy check (test 7).
"""

import time

import numpy as np

from solq.bogoliubov import mode_amplitudes, resonant_wavevector
from solq.boundstates import pt_spectrum, wannier_pair
from solq.couplings import RateSet, rate_set, rwa_report
from oracles import analytic_undriven, dicke_matrix, steady_state_closed_form
from solq.dynamics import DensityMatrix4, DriveParams, basis_state, evolve, steady_state
from solq.entanglement import (
    concurrence,
    steady_concurrence_formula,
    undriven_concurrence_formula,
)
from solq.gpe import Boundary, Grid1D, gpe_energy, imprint_solitons, multi_soliton_experiment, relax_impurity
from solq.model import ModelParams, qubit_gap, to_physical

PARAMS = ModelParams()
_RATE_CACHE = {}


def rates_at(d):
    if d not in _RATE_CACHE:
        _RATE_CACHE[d] = rate_set(d, PARAMS)
    return _RATE_CACHE[d]


def report(n, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {n} {label}: {verdict} ({detail})")


def decay_class_init(rng):
    w = rng.dirichlet(np.ones(4))
    mag = 0.9 * np.sqrt(w[1] * w[2])
    phase = np.exp(2j * np.pi * rng.uniform())
    return {"rho_ee": w[0], "rho_ss": w[1], "rho_aa": w[2], "rho_sa": mag * phase}


def parabolic_peak(xs, ys):
    i = int(np.argmax(ys))
    if 0 < i < len(xs) - 1:
        denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
        if denom < 0.0:
            return xs[i] + 0.5 * (ys[i - 1] - ys[i + 1]) / denom * (xs[1] - xs[0])
    return xs[i]


def kernel_curvature_oracle(params):
    """kappa = -C12''(0)/C11 as the spectral second moment of D_k0.

    C12(d) = Re int D(y) D*(y - d) dy is the autocorrelation of the coupling
    density D_k0 = phi0 phi1 tanh (u + v), so C12(d)/C11 = int |D^(q)|^2
    cos(qd) dq / int |D^(q)|^2 dq and kappa = int q^2 |D^|^2 / int |D^|^2.
    D is built from `mode_amplitudes` and `wannier_pair`, not from the rate
    engine's power table, and decays like sech^(2 alpha), so the FFT moment is
    spectrally accurate on a periodic box of 80 xi. The Bogoliubov bracket
    (`bogoliubov.mode_bracket`) is shared with the rate engine, so this test
    does not check it; test_couplings.py's direct-trapezoid oracle writes the
    bracket out on its own.
    """
    k0 = float(resonant_wavevector(qubit_gap(params)))
    x = np.linspace(-40.0, 40.0, 2 ** 14, endpoint=False)
    pair = wannier_pair(params)
    mode = mode_amplitudes(k0, x)
    density = pair.phi0(x) * pair.phi1(x) * np.tanh(x) * (mode.u + mode.v)
    power = np.abs(np.fft.fft(density)) ** 2
    q = 2.0 * np.pi * np.fft.fftfreq(len(x), d=x[1] - x[0])
    return float(np.sum(q * q * power) / np.sum(power))


def test_01_rate_limits():
    t0 = time.perf_counter()
    d_near = 1e-3
    near = rates_at(d_near)
    far = rates_at(20.0)
    curvature = 2.0 * (1.0 - near.Gamma_over_gamma) / d_near ** 2
    kappa = kernel_curvature_oracle(PARAMS)
    # 1 - Gamma/gamma = kappa d^2/2 + O(d^4): with kappa ~ 7.7 the ratio is
    # ~3.9e-6 below 1 at d = 1e-3, so the contact limit is checked through
    # its curvature; the d^4 term shifts it by ~1.8e-6 relative
    curvature_dev = abs(curvature - kappa) / kappa
    far_big, far_eta = abs(far.Gamma_over_gamma), abs(far.eta_over_gamma)
    elapsed = time.perf_counter() - t0
    ok_contact = curvature_dev < 1e-4
    ok_far = far_big < 0.05 and far_eta < 0.05
    report(
        1, "rate limits", ok_contact and ok_far,
        f"2(1-Gamma/gamma)/d^2 @d=1e-3: {curvature:.7f} vs spectral "
        f"kappa {kappa:.7f} (rel dev {curvature_dev:.1e}), "
        f"@d=20: |Gamma/gamma|={far_big:.2e}, |eta/gamma|={far_eta:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert ok_far
    assert ok_contact, (
        f"contact curvature {curvature:.7f} differs from the spectral "
        f"oracle {kappa:.7f} by {curvature_dev:.1e} relative"
    )


def test_02_evolve_matches_decay_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 5.0, 11)
    rates = rates_at(2.5)
    worst = 0.0
    for _ in range(20):
        init = decay_class_init(rng)
        evolved = evolve(DensityMatrix4(dicke_matrix(init)), rates, times)
        reference = analytic_undriven(init, rates, times)
        for got, want in zip(evolved, reference):
            diff = np.abs(got.matrix - want)
            worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8
    report(2, "decay closed forms", ok,
           f"max element deviation {worst:.3e} over 20 random states, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert ok


def test_03_concurrence_formula_matches_wootters():
    t0 = time.perf_counter()
    times = np.linspace(0.0, 5.0, 10)
    worst = 0.0
    for d in (1.0, 2.5):
        rates = rates_at(d)
        traj = evolve(basis_state("eg"), rates, times)
        direct = np.array([concurrence(s).value for s in traj.states])
        formula = undriven_concurrence_formula(rates, times)
        worst = max(worst, float(np.max(np.abs(direct - formula))))
    # shape check: entanglement builds up quickly, then decays away
    dense = np.linspace(0.0, 5.0, 500)
    c = undriven_concurrence_formula(rates_at(2.5), dense)
    peak = int(np.argmax(c))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and 0 < peak < 200 and c[-1] < c[peak]
    report(3, "decay concurrence formula", ok,
           f"max |formula - Wootters| = {worst:.3e}, "
           f"peak at t = {dense[peak]:.2f}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert ok


def test_04_super_and_subradiant_rates():
    t0 = time.perf_counter()
    rates = rates_at(2.5)
    times = np.array([0.0, 0.5, 1.5])
    devs = []
    for label, expected in (("s", 1.0 + rates.Gamma_over_gamma),
                            ("a", 1.0 - rates.Gamma_over_gamma)):
        traj = evolve(basis_state(label), rates, times)
        pops = [st.element(label, label).real for st in traj.states]
        fitted = -np.log(pops[2] / pops[1]) / (times[2] - times[1])
        devs.append(abs(fitted - expected) / expected)
    elapsed = time.perf_counter() - t0
    ok = max(devs) < 1e-6
    report(4, "collective decay rates", ok,
           f"relative fit errors (s, a) = ({devs[0]:.2e}, {devs[1]:.2e}), "
           f"{elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok


def test_05_steady_state_triple_agreement():
    t0 = time.perf_counter()
    d_values = np.linspace(1.0, 5.0, 10)
    omega_values = np.linspace(0.05, 1.0, 10)
    worst_elem = 0.0
    worst_conc = 0.0
    for d in d_values:
        rates = rates_at(d)
        for om in omega_values:
            drive = DriveParams(omega_rabi=om)
            svd = steady_state(rates, drive)
            closed = steady_state_closed_form(rates, drive)
            diff = np.abs(svd.state.matrix - closed)
            worst_elem = max(worst_elem, float(diff.max()))
            dev = abs(concurrence(svd.state).value
                      - steady_concurrence_formula(rates, drive))
            worst_conc = max(worst_conc, dev)
    elapsed = time.perf_counter() - t0
    ok = worst_elem < 1e-10 and worst_conc < 1e-8
    report(5, "steady-state triple agreement", ok,
           f"max element dev {worst_elem:.3e}, max concurrence dev "
           f"{worst_conc:.3e} over a 10x10 grid, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert ok


def test_06_steady_concurrence_peaks():
    t0 = time.perf_counter()
    rates = rates_at(2.5)
    omegas = np.linspace(0.05, 1.0, 191)
    c_om = [steady_concurrence_formula(rates, DriveParams(omega_rabi=om))
            for om in omegas]
    om_star = parabolic_peak(omegas, np.array(c_om))

    d_values = np.linspace(1.0, 4.0, 31)
    drive = DriveParams(omega_rabi=0.35)
    c_d = [steady_concurrence_formula(rates_at(d), drive) for d in d_values]
    d_star = parabolic_peak(d_values, np.array(c_d))
    elapsed = time.perf_counter() - t0

    ok_omega = 0.25 <= om_star <= 0.45
    ok_d = 2.0 <= d_star <= 3.0
    report(6, "steady concurrence peaks", ok_omega and ok_d,
           f"omega* = {om_star:.3f} gamma, d* = {d_star:.3f} xi, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert ok_omega
    # known deviation: at omega = 0.35 C(d) has two lobes, 0.0984 near
    # d = 1.86 and 0.0929 near d = 2.57, so d* = 1.85 < 2. The steady formula
    # matches Wootters to 1e-8 (test 5), so d* comes from the rates alone, and
    # it is not converged in their conventions: the PV cutoff
    # OMEGA_MAX_FACTOR = 20 / 50 / 100 gives d* = 2.01 / 1.85 / 1.46, and the
    # EIGENSTATE exponent (alpha = nu) gives 2.45. Neither the cutoff nor the
    # DEFAULT exponent is derived anywhere, and changing either moves every
    # pinned rate.
    assert ok_d, f"separation optimum {d_star:.3f} outside [2, 3]"


def test_07_impurity_levels_match_analytic_ladder():
    t0 = time.perf_counter()
    grid = Grid1D(points=2048, length=60.0, boundary=Boundary.BOX)
    states = relax_impurity(imprint_solitons(grid, [0.0]), PARAMS)
    ladder = pt_spectrum(PARAMS)
    devs = [abs(states.energies[n] - ladder.energies[n]) / abs(ladder.energies[n])
            for n in range(2)]
    elapsed = time.perf_counter() - t0
    ok = devs[0] < 0.01 and devs[1] < 0.01
    report(7, "impurity level oracle", ok,
           f"relative energy errors (n=0, n=1) = ({devs[0]:.2e}, {devs[1]:.2e}), "
           f"bound = {states.bound}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert devs[0] < 0.01
    # known deviation: relax_impurity solves a sech^2 well of depth
    # nu(nu+1)/(2 m_r), a Poschl-Teller well with lambda = nu that binds only
    # levels n < nu, so at nu = 0.75 the n = 1 candidate relaxes to E = +0.0094
    # against the analytic -0.0200. For nu < 1 no sech^2 well has both
    # E0 = -nu^2/(2 m_r) and E1 = -(nu-1)^2/(2 m_r), yet pt_spectrum,
    # level_count and qubit_gap assume one does (the depth chi_over_g implies,
    # twice this one, binds -0.458 and -0.012). The suite contradicts itself:
    # test_gpe.py::test_impurity_levels_and_grid_refinement and
    # test_cli.py::test_boundstate_dataset pass and assert this level unbound.
    assert devs[1] < 0.01, (
        f"n=1 level error {devs[1]:.2e}: relaxed energy "
        f"{states.energies[1]:+.4f} vs analytic {ladder.energies[1]:+.4f}"
    )


def test_08_interband_coupling_dominates():
    t0 = time.perf_counter()
    rep = rwa_report(PARAMS)
    elapsed = time.perf_counter() - t0
    ok = rep.valid and rep.g00_over_g01 < 1.0 and rep.g11_over_g01 < 1.0
    report(8, "interband dominance", ok,
           f"|g00/g01| = {rep.g00_over_g01:.3f}, |g11/g01| = "
           f"{rep.g11_over_g01:.3f} at k0, {elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok


def test_09_soliton_chain_ordering():
    t0 = time.perf_counter()
    tracks = multi_soliton_experiment(24, 2.5, 100.0 / 1.3, 22.5)
    disp = tracks.displacements
    outer = max(disp[0], disp[-1])
    inner = float(np.max(disp[2:-2]))
    elapsed = time.perf_counter() - t0
    ok = tracks.lost_at is None and inner < outer
    report(9, "soliton chain ordering", ok,
           f"inner-20 max displacement {inner:.3f} xi vs outer pair "
           f"{outer:.3f} xi, {elapsed:.1f}s")
    assert elapsed < 600.0
    assert ok


def test_10_property_sweep_and_unit_mapping():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    rates = rates_at(2.5)

    # density-matrix invariants along a driven trajectory
    traj = evolve(basis_state("gg"), rates, np.linspace(0.0, 8.0, 9),
                  drive=DriveParams(omega_rabi=0.5))
    invariants_ok = True
    for st in traj.states:
        m = st.matrix
        invariants_ok &= abs(np.trace(m).real - 1.0) < 1e-9
        invariants_ok &= float(np.max(np.abs(m - m.conj().T))) < 1e-12
        invariants_ok &= float(np.linalg.eigvalsh(m).min()) > -1e-9

    # concurrence is invariant under local unitaries
    lu_dev = 0.0
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        lu_dev = max(lu_dev, abs(concurrence(u @ rho @ u.conj().T).value
                                 - concurrence(rho).value))

    # quadrature refinement leaves the rates unchanged
    refined = rate_set(2.5, PARAMS, n_omega=3201)
    quad_dev = max(abs(refined.Gamma_over_gamma - rates.Gamma_over_gamma),
                   abs(refined.eta_over_gamma - rates.eta_over_gamma))

    # spatial grid refinement leaves the soliton energy unchanged
    energies = []
    for pts in (512, 1024):
        g = Grid1D(points=pts, length=40.0, boundary=Boundary.BOX)
        energies.append(gpe_energy(imprint_solitons(g, [0.0])))
    grid_dev = abs(energies[1] - energies[0]) / abs(energies[1])

    # headline physical figures are unit choices: separations of 2-3 healing
    # lengths land in the few-micron range once xi is fixed
    phys = ModelParams(physical_xi=1.3e-6, physical_mu=225.0)
    d_low = to_physical(2.0, "length", phys)
    d_high = to_physical(3.0, "length", phys)
    units_ok = 2e-6 <= d_low and d_high <= 5e-6

    elapsed = time.perf_counter() - t0
    ok = (invariants_ok and lu_dev < 1e-9 and quad_dev < 1e-6
          and grid_dev < 1e-3 and units_ok)
    report(10, "property sweep", ok,
           f"LU dev {lu_dev:.2e}, quadrature dev {quad_dev:.2e}, "
           f"grid dev {grid_dev:.2e}, d(2..3 xi) = "
           f"({d_low * 1e6:.2f}, {d_high * 1e6:.2f}) um, {elapsed:.1f}s")
    assert invariants_ok
    assert lu_dev < 1e-9
    assert quad_dev < 1e-6
    assert grid_dev < 1e-3
    assert units_ok
