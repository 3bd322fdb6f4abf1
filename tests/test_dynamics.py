import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import exprel

from solq import dynamics
from solq.couplings import RateSet
from solq.dynamics import (
    Basis,
    DensityMatrix4,
    DriveParams,
    analytic_undriven,
    basis_state,
    build_liouvillian,
    dicke_transform,
    evolve,
    liouvillian_apply,
    steady_state,
    steady_state_closed_form,
)
from solq.entanglement import concurrence

GAMMA = 4.922723591011477e-05


def make_rates(big, eta, d=2.5):
    return RateSet(gamma=GAMMA, Gamma_over_gamma=big, eta_over_gamma=eta,
                   d=d, k0=0.1129586390118519)


def random_density(rng, basis=Basis.COMPUTATIONAL):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix4(rho, basis=basis)


def random_decay_class_init(rng):
    # Dicke-diagonal populations plus an s-a coherence kept inside the
    # positivity cone of its 2x2 block
    w = rng.dirichlet(np.ones(4))
    ee, ss, aa, gg = w
    mag = 0.9 * np.sqrt(ss * aa)
    phase = np.exp(2j * np.pi * rng.uniform())
    return {"rho_ee": ee, "rho_ss": ss, "rho_aa": aa, "rho_sa": mag * phase}


def dicke_matrix_from_init(init):
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = init.get("rho_ee", 0.0)
    m[1, 1] = init.get("rho_ss", 0.0)
    m[2, 2] = init.get("rho_aa", 0.0)
    m[3, 3] = 1.0 - m[0, 0].real - m[1, 1].real - m[2, 2].real
    sa = init.get("rho_sa", 0.0)
    m[1, 2], m[2, 1] = sa, np.conj(sa)
    return DensityMatrix4(m, basis=Basis.DICKE)


# site lowering operators in the product basis ee, eg, ge, gg
SM1 = np.zeros((4, 4)); SM1[2, 0] = 1.0; SM1[3, 1] = 1.0
SM2 = np.zeros((4, 4)); SM2[1, 0] = 1.0; SM2[3, 2] = 1.0
SP1, SP2 = SM1.T, SM2.T


def sandwich_apply(rho, rates, drive):
    """drho/dt written term by term as operator products on the 4x4 matrix."""
    big, eta = rates.Gamma_over_gamma, rates.eta_over_gamma
    h = eta * (SP1 @ SM2 + SP2 @ SM1)
    if drive is not None:
        om1 = drive.omega_rabi
        om2 = om1 if drive.omega_rabi_2 is None else drive.omega_rabi_2
        h = h - 0.5 * (om1 * (SP1 + SM1) + om2 * (SP2 + SM2))
        h = h + drive.detuning * (SP1 @ SM1 + SP2 @ SM2)
    gmat = np.array([[1.0, big], [big, 1.0]])
    sm, sp = (SM1, SM2), (SP1, SP2)
    out = -1j * (h @ rho - rho @ h)
    for i in range(2):
        for j in range(2):
            anti = sp[i] @ sm[j]
            out = out + gmat[i, j] * (sm[j] @ rho @ sp[i]
                                      - 0.5 * (anti @ rho + rho @ anti))
    return out


def sandwich_generator(rates, drive):
    """The 16x16 generator column by column from `sandwich_apply`."""
    lop = np.empty((16, 16), dtype=complex)
    for col in range(16):
        unit = np.zeros(16, dtype=complex)
        unit[col] = 1.0
        lop[:, col] = sandwich_apply(unit.reshape(4, 4), rates, drive).ravel()
    return lop


GENERATOR_CASES = (
    (make_rates(0.3, -0.2), None),
    (make_rates(-0.6, 0.4), DriveParams(omega_rabi=0.5)),
    (make_rates(-0.4, 0.3), DriveParams(omega_rabi=0.7, detuning=0.2, omega_rabi_2=0.25)),
)

NOT_HERMITIAN = np.eye(4, dtype=complex) / 4.0
NOT_HERMITIAN[0, 1] = 0.3
BAD_MATRICES = (
    NOT_HERMITIAN,  # not Hermitian
    np.eye(4, dtype=complex) / 2.0,  # trace 2
    np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),  # negative eigenvalue
)


def test_density_matrix_validation():
    rng = np.random.default_rng(5)
    good = np.array([random_density(rng).matrix for _ in range(5)])
    states = DensityMatrix4._stack(good, Basis.DICKE)
    assert len(states) == 5 and all(st.basis is Basis.DICKE for st in states)
    assert all(np.array_equal(st.matrix, m) for st, m in zip(states, good))
    for bad in BAD_MATRICES:
        with pytest.raises(ValueError) as alone:
            DensityMatrix4(bad)
        # in a stack, the same matrix fails with the same message
        stack = good.copy()
        stack[3] = bad
        with pytest.raises(ValueError) as batched:
            DensityMatrix4._stack(stack, Basis.COMPUTATIONAL)
        assert str(batched.value) == str(alone.value)
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(3, dtype=complex) / 3.0)


def _refuse(*args, **kwargs):
    raise AssertionError("a stored concurrence was recomputed")


def test_trajectories_are_validated_as_one_batch(monkeypatch):
    shapes = []
    svds = []
    check = dynamics._validate_stack
    svd = np.linalg.svd

    def spy(m, basis):
        shapes.append(m.shape)
        return check(m, basis)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_validate_stack", spy)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    times = np.linspace(0.0, 1.0, 7)
    traj = evolve(basis_state("eg"), make_rates(0.3, 0.1), times)
    undriven = analytic_undriven({"rho_ee": 1.0}, make_rates(0.3, 0.1), times)
    assert shapes == [(1, 4, 4), (7, 4, 4), (7, 4, 4)]
    # one concurrence svd per validated batch: per state, evolve, analytic_undriven
    assert svds == shapes
    # every snapshot carries its concurrence; reading it decomposes nothing
    for name in ("eigvals", "eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    for st in traj.states + undriven.states:
        c = concurrence(st).value
        assert c == st.concurrence and 0.0 <= c <= 1.0
        assert dicke_transform(st).concurrence == c
    monkeypatch.undo()
    # a coherence outside the positivity cone fails on the first snapshot
    init = {"rho_ss": 0.2, "rho_aa": 0.2, "rho_sa": 0.5}
    with pytest.raises(ValueError) as alone:
        dicke_matrix_from_init(init)
    with pytest.raises(ValueError) as batched:
        analytic_undriven(init, make_rates(0.3, 0.1), times)
    assert str(batched.value) == str(alone.value)


def test_exprel_matches_scipy():
    x = np.concatenate([[0.0, 1e-12, -1e-12, 1e-6, -1e-6], np.linspace(-8.0, 8.0, 4001)])
    ours = dynamics._exprel(x)
    assert ours[0] == 1.0
    assert np.max(np.abs(ours / exprel(x) - 1.0)) < 1e-14


def test_basis_state_labels():
    assert basis_state("eg").basis is Basis.COMPUTATIONAL
    assert basis_state("s").basis is Basis.DICKE
    assert basis_state("GG").element("gg", "gg") == 1.0
    with pytest.raises(ValueError):
        basis_state("xy")


def test_dicke_transform_is_involutory():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dm = random_density(rng)
        back = dicke_transform(dicke_transform(dm))
        assert back.basis is dm.basis
        assert np.max(np.abs(back.matrix - dm.matrix)) < 1e-14


def test_one_excited_qubit_in_dicke_basis():
    # |eg> = (|s> + |a>)/sqrt(2)
    dm = dicke_transform(basis_state("eg"))
    assert abs(dm.element("s", "s") - 0.5) < 1e-15
    assert abs(dm.element("a", "a") - 0.5) < 1e-15
    assert abs(dm.element("s", "a") - 0.5) < 1e-15
    assert abs(dm.element("e", "e")) < 1e-15


def test_generator_is_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(33)
    rates = make_rates(0.3, -0.2)
    drive = DriveParams(omega_rabi=0.4)
    for _ in range(200):
        dm = random_density(rng)
        out = liouvillian_apply(dm, rates, drive)
        assert abs(np.trace(out).real) < 1e-14
        assert abs(np.trace(out).imag) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14


def test_liouvillian_matches_sandwich_oracle():
    for rates, drive in GENERATOR_CASES:
        lop = build_liouvillian(rates, drive)
        oracle = sandwich_generator(rates, drive)
        for col in range(16):
            assert np.max(np.abs(lop[:, col] - oracle[:, col])) < 1e-15


def test_liouvillian_matrix_matches_apply():
    rng = np.random.default_rng(8)
    rates = make_rates(-0.4, 0.3)
    drive = DriveParams(omega_rabi=0.7, detuning=0.2)
    for _ in range(20):
        dm = random_density(rng)
        direct = liouvillian_apply(dm, rates, drive)
        oracle = sandwich_apply(dm.matrix, rates, drive)
        assert np.max(np.abs(direct - oracle)) < 1e-14
        in_dicke = liouvillian_apply(dicke_transform(dm), rates, drive)
        u = dynamics._U_DICKE
        assert np.max(np.abs(in_dicke - u @ oracle @ u)) < 1e-14


def test_evolve_matches_closed_form_decay():
    rng = np.random.default_rng(14)
    times = np.linspace(0.0, 5.0, 11)
    for big, eta in ((0.3, -0.2), (-0.8, 0.5), (1.0, 0.1)):
        rates = make_rates(big, eta)
        init = random_decay_class_init(rng)
        state0 = dicke_matrix_from_init(init)
        evolved = evolve(dicke_transform(state0), rates, times)
        reference = analytic_undriven(init, rates, times)
        worst = 0.0
        for got, want in zip(evolved, reference):
            diff = np.abs(dicke_transform(got).matrix - want.matrix)
            worst = max(worst, float(diff.max()))
        assert worst < 1e-8


def test_evolve_matches_closed_form_decay_to_roundoff():
    rng = np.random.default_rng(14)
    times = np.linspace(0.0, 5.0, 11)
    for big, eta in ((0.3, -0.2), (-0.8, 0.5), (1.0, 0.1)):
        rates = make_rates(big, eta)
        init = random_decay_class_init(rng)
        evolved = evolve(dicke_transform(dicke_matrix_from_init(init)), rates, times)
        reference = analytic_undriven(init, rates, times)
        for got, want in zip(evolved, reference):
            assert np.max(np.abs(dicke_transform(got).matrix - want.matrix)) < 1e-12


def test_evolve_matches_exponential_on_irregular_grid():
    # every snapshot against one exponential from the start, not the stepping
    rng = np.random.default_rng(29)
    rates, drive = GENERATOR_CASES[2]
    # one long last step takes the exponential through several squarings
    times = np.concatenate(([0.3], 0.3 + np.sort(rng.uniform(0.0, 12.0, 40)), [40.0]))
    state0 = random_density(rng)
    traj = evolve(state0, rates, times, drive=drive)
    lop = sandwich_generator(rates, drive)
    for t, got in zip(times, traj.states):
        want = (expm(lop * (t - times[0])) @ state0.matrix.ravel()).reshape(4, 4)
        assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_evolve_rejects_non_increasing_grid():
    rates = make_rates(0.2, 0.0)
    for grid, index in (([0.0, 0.0, 1.0], 1), ([0.0, 2.0, 1.0], 2), ([1.0, 0.0], 1)):
        with pytest.raises(ValueError) as err:
            evolve(basis_state("eg"), rates, grid)
        assert str(err.value) == f"t_grid is not strictly increasing at index {index}"


def test_superradiant_and_subradiant_rates():
    rates = make_rates(0.6, 0.25)
    times = np.array([0.0, 0.5, 1.5])
    for label, expected in (("s", 1.6), ("a", 0.4)):
        traj = evolve(basis_state(label), rates, times)
        pops = [st.element(label, label).real for st in traj.states]
        fitted = -np.log(pops[2] / pops[1]) / (times[2] - times[1])
        assert abs(fitted - expected) < 1e-6 * expected


def test_decay_is_continuous_at_matched_rates():
    times = np.linspace(0.0, 4.0, 9)
    init = {"rho_ee": 1.0}
    at = analytic_undriven(init, make_rates(1.0, 0.0), times)
    near = analytic_undriven(init, make_rates(1.0 - 1e-9, 0.0), times)
    for a, b in zip(at, near):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-8


def test_analytic_undriven_rejects_unknown_elements():
    with pytest.raises(ValueError):
        analytic_undriven({"rho_eg": 0.1}, make_rates(0.3, 0.0), [0.0, 1.0])
    with pytest.raises(ValueError):
        analytic_undriven({"rho_ee": 0.7, "rho_ss": 0.6}, make_rates(0.3, 0.0),
                          [0.0, 1.0])


def test_trace_preserved_through_integration():
    rates = make_rates(-0.3, 0.28)
    traj = evolve(basis_state("ee"), rates, np.linspace(0.0, 8.0, 5),
                  drive=DriveParams(omega_rabi=0.5))
    for st in traj.states:
        assert abs(np.trace(st.matrix).real - 1.0) < 1e-10


def test_evolve_keeps_initial_basis():
    rates = make_rates(0.2, 0.0)
    traj = evolve(basis_state("s"), rates, [0.0, 1.0])
    assert all(st.basis is Basis.DICKE for st in traj.states)
    traj = evolve(basis_state("eg"), rates, [0.0, 1.0])
    assert all(st.basis is Basis.COMPUTATIONAL for st in traj.states)


def test_evolve_validates_time_grid():
    rates = make_rates(0.2, 0.0)
    with pytest.raises(ValueError):
        evolve(basis_state("gg"), rates, [1.0])


def test_rates_bound_enforced():
    with pytest.raises(ValueError):
        evolve(basis_state("gg"), make_rates(1.2, 0.0), [0.0, 1.0])
    with pytest.raises(ValueError):
        steady_state(make_rates(-1.01, 0.0))


def test_undriven_steady_state_is_ground():
    res = steady_state(make_rates(0.4, -0.1))
    assert res.unique
    assert res.residual < 1e-12
    assert abs(res.state.element("gg", "gg").real - 1.0) < 1e-12


def test_matched_rates_undriven_is_degenerate():
    # at Gamma = gamma the antisymmetric state stops decaying: the generator
    # has a two-dimensional null space
    res = steady_state(make_rates(1.0, 0.0))
    assert not res.unique


def test_driven_steady_state_closed_form_matches_svd():
    for big, eta, om in ((0.3, -0.2, 0.35), (-0.6, 0.4, 0.8), (0.0, 0.0, 0.1)):
        rates = make_rates(big, eta)
        drive = DriveParams(omega_rabi=om)
        svd = steady_state(rates, drive)
        closed = steady_state_closed_form(rates, drive)
        diff = np.abs(dicke_transform(svd.state).matrix - closed.matrix)
        assert diff.max() < 1e-10


def test_closed_form_rejects_asymmetric_or_detuned_drive():
    rates = make_rates(0.3, 0.1)
    with pytest.raises(ValueError):
        steady_state_closed_form(rates, DriveParams(omega_rabi=0.3, detuning=0.05))
    with pytest.raises(ValueError):
        steady_state_closed_form(
            rates, DriveParams(omega_rabi=0.3, omega_rabi_2=0.2)
        )


def test_zero_drive_closed_form_is_ground():
    closed = steady_state_closed_form(make_rates(0.3, 0.1), DriveParams())
    assert abs(closed.element("g", "g").real - 1.0) < 1e-15


def test_asymmetric_drive_still_integrates():
    rates = make_rates(0.25, -0.15)
    drive = DriveParams(omega_rabi=0.4, omega_rabi_2=0.1, detuning=0.3)
    traj = evolve(basis_state("gg"), rates, np.linspace(0.0, 3.0, 4), drive=drive)
    final = traj.states[-1]
    assert abs(np.trace(final.matrix).real - 1.0) < 1e-10
    assert final.element("ee", "ee").real > 0.0
