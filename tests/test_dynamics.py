import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import exprel

from oracles import (
    SM1,
    SM2,
    SP1,
    SP2,
    U_DICKE,
    _exprel,
    analytic_undriven,
    dicke_matrix,
    element,
    evolve_indexed,
    kron_liouvillian,
    liouvillian_apply,
    steady_state_closed_form,
)
from solq import dynamics
from solq.couplings import RateSet
from solq.dynamics import (
    DensityMatrix4,
    DriveParams,
    basis_state,
    build_liouvillian,
    dicke_transform,
    evolve,
    steady_state,
)
from solq.entanglement import concurrence

GAMMA = 4.922723591011477e-05


def make_rates(big, eta, d=2.5):
    return RateSet(gamma=GAMMA, Gamma_over_gamma=big, eta_over_gamma=eta,
                   d=d, k0=0.1129586390118519)


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix4(rho)


def random_decay_class_init(rng):
    # Dicke-diagonal populations plus an s-a coherence kept inside the
    # positivity cone of its 2x2 block
    w = rng.dirichlet(np.ones(4))
    ee, ss, aa, gg = w
    mag = 0.9 * np.sqrt(ss * aa)
    phase = np.exp(2j * np.pi * rng.uniform())
    return {"rho_ee": ee, "rho_ss": ss, "rho_aa": aa, "rho_sa": mag * phase}


def sandwich_apply(rho, rates, drive):
    """drho/dt written term by term as operator products on the 4x4 matrix."""
    big, eta = rates.Gamma_over_gamma, rates.eta_over_gamma
    om = drive.omega_rabi
    h = eta * (SP1 @ SM2 + SP2 @ SM1) - 0.5 * om * (SP1 + SM1 + SP2 + SM2)
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
    (make_rates(0.3, -0.2), DriveParams()),
    (make_rates(-0.6, 0.4), DriveParams(omega_rabi=0.5)),
    (make_rates(-0.4, 0.3), DriveParams(omega_rabi=0.7)),
)

NOT_HERMITIAN = np.eye(4, dtype=complex) / 4.0
NOT_HERMITIAN[0, 1] = 0.3
INF_COHERENCE = np.eye(4, dtype=complex) / 4.0
INF_COHERENCE[1, 2] = INF_COHERENCE[2, 1] = np.inf
BAD_MATRICES = (
    NOT_HERMITIAN,  # not Hermitian
    np.eye(4, dtype=complex) / 2.0,  # trace 2
    np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),  # negative eigenvalue
    np.diag([np.nan, 1.0, 0.0, 0.0]).astype(complex),  # a NaN population
    np.full((4, 4), np.nan, dtype=complex),  # all NaN
    INF_COHERENCE,  # an infinite coherence
)


def test_density_matrix_validation():
    rng = np.random.default_rng(5)
    good = np.array([random_density(rng).matrix for _ in range(5)])
    states = DensityMatrix4._stack(good)
    assert len(states) == 5
    assert all(np.array_equal(st.matrix, m) for st, m in zip(states, good))
    for bad in BAD_MATRICES:
        with pytest.raises(ValueError) as alone:
            DensityMatrix4(bad)
        # in a stack, the same matrix fails with the same message
        stack = good.copy()
        stack[3] = bad
        with pytest.raises(ValueError) as batched:
            DensityMatrix4._stack(stack)
        assert str(batched.value) == str(alone.value)
        assert "\n" not in str(alone.value)
    # a non-finite entry is named, not left to the eigensolver
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is \(?nan"):
        DensityMatrix4(BAD_MATRICES[3])
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is \(?inf"):
        DensityMatrix4(INF_COHERENCE)
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(3, dtype=complex) / 3.0)


def test_validated_states_are_immutable():
    # a state holds a read-only copy: writing into the caller's array once
    # changed the stored matrix to trace 5.75 under its stale concurrence 0
    m = np.eye(4, dtype=complex) / 4.0
    state = DensityMatrix4(matrix=m)
    m[0, 0] = 5.0
    assert np.trace(state.matrix) == 1.0 and state.concurrence == 0.0
    with pytest.raises(ValueError, match="read-only"):
        state.matrix[0, 0] = 5.0
    # and so does every snapshot of a trajectory, a view into one stack
    traj = evolve(basis_state("eg"), make_rates(0.3, 0.1), np.linspace(0.0, 1.0, 5))
    for st in traj.states:
        with pytest.raises(ValueError, match="read-only"):
            st.matrix[0, 0] = 5.0


def test_trajectory_times_are_a_read_only_copy():
    # a float t_grid used to be stored as it was: editing it after the call
    # moved traj.times
    t_grid = np.linspace(0.0, 1.0, 5)
    traj = evolve(basis_state("eg"), make_rates(0.3, 0.1), t_grid)
    t_grid[1] = 0.9
    assert traj.times[1] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        traj.times[1] = 0.9


def _refuse(*args, **kwargs):
    raise AssertionError("a stored concurrence was recomputed")


def test_trajectories_are_validated_as_one_batch(monkeypatch):
    shapes = []
    svds = []
    check = dynamics._validate_stack
    svd = np.linalg.svd

    def spy(m):
        shapes.append(m.shape)
        return check(m)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_validate_stack", spy)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    times = np.linspace(0.0, 1.0, 7)
    traj = evolve(basis_state("eg"), make_rates(0.3, 0.1), times)
    undriven = DensityMatrix4._stack(
        analytic_undriven({"rho_ee": 1.0}, make_rates(0.3, 0.1), times))
    assert shapes == [(1, 4, 4), (7, 4, 4), (7, 4, 4)]
    # one concurrence svd per validated batch: per state, evolve, the closed form
    assert svds == shapes
    # every snapshot carries its concurrence; reading it decomposes nothing
    for name in ("eigvals", "eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    for st in traj.states + undriven:
        c = concurrence(st).value
        assert c == st.concurrence and 0.0 <= c <= 1.0
    monkeypatch.undo()
    # a coherence outside the positivity cone fails on the first snapshot
    init = {"rho_ss": 0.2, "rho_aa": 0.2, "rho_sa": 0.5}
    with pytest.raises(ValueError) as alone:
        DensityMatrix4(dicke_matrix(init))
    with pytest.raises(ValueError) as batched:
        DensityMatrix4._stack(analytic_undriven(init, make_rates(0.3, 0.1), times))
    assert str(batched.value) == str(alone.value)


def test_exprel_matches_scipy():
    x = np.concatenate([[0.0, 1e-12, -1e-12, 1e-6, -1e-6], np.linspace(-8.0, 8.0, 4001)])
    ours = _exprel(x)
    assert ours[0] == 1.0
    assert np.max(np.abs(ours / exprel(x) - 1.0)) < 1e-14


def test_basis_state_labels():
    assert np.array_equal(basis_state("eg").matrix, np.diag([0, 1, 0, 0]))
    # a Dicke label is the rotated product-basis projector
    s = U_DICKE[:, 1]
    assert np.max(np.abs(basis_state("s").matrix - np.outer(s, s))) < 1e-15
    assert abs(element(basis_state("S"), "s", "s") - 1.0) < 1e-15
    assert abs(element(basis_state("a"), "s", "s")) < 1e-15
    assert element(basis_state("GG"), "gg", "gg") == 1.0
    assert element(basis_state("g"), "gg", "gg") == 1.0
    with pytest.raises(ValueError):
        basis_state("xy")


def test_dicke_transform_is_involutory():
    rng = np.random.default_rng(21)
    stack = np.array([random_density(rng).matrix for _ in range(20)])
    back = dicke_transform(dicke_transform(stack))
    assert np.max(np.abs(back - stack)) < 1e-14
    for m, rotated in zip(stack, dicke_transform(stack)):
        assert np.max(np.abs(dicke_transform(m) - rotated)) < 1e-15
        assert np.max(np.abs(rotated - U_DICKE @ m @ U_DICKE)) < 1e-15


def test_one_excited_qubit_in_dicke_basis():
    # |eg> = (|s> + |a>)/sqrt(2)
    dm = basis_state("eg")
    assert abs(element(dm, "s", "s") - 0.5) < 1e-15
    assert abs(element(dm, "a", "a") - 0.5) < 1e-15
    assert abs(element(dm, "s", "a") - 0.5) < 1e-15
    assert abs(element(dm, "e", "e")) < 1e-15
    dicke = dicke_transform(dm.matrix)
    assert abs(dicke[1, 2] - 0.5) < 1e-15 and abs(dicke[0, 0]) < 1e-15


def test_generator_is_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(33)
    rates = make_rates(0.3, -0.2)
    drive = DriveParams(omega_rabi=0.4)
    for _ in range(200):
        dm = random_density(rng)
        out = liouvillian_apply(dm.matrix, rates, drive)
        assert abs(np.trace(out).real) < 1e-14
        assert abs(np.trace(out).imag) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14


def test_liouvillian_matches_sandwich_oracle():
    for rates, drive in GENERATOR_CASES:
        lop = build_liouvillian(rates, drive)
        oracle = sandwich_generator(rates, drive)
        for col in range(16):
            assert np.max(np.abs(lop[:, col] - oracle[:, col])) < 1e-15


def test_liouvillian_is_the_kron_sum_bit_for_bit():
    # the four constant generators combine to exactly the term-by-term sum
    rng = np.random.default_rng(41)
    for n in range(500):
        big = 0.0 if n % 11 == 0 else rng.uniform(-1.0, 1.0)
        eta = 0.0 if n % 7 == 0 else rng.normal() * 10.0 ** rng.integers(-3, 2)
        om = 0.0 if n % 5 == 0 else rng.uniform(-3.0, 3.0)
        rates, drive = make_rates(big, eta), DriveParams(omega_rabi=om)
        assert np.array_equal(build_liouvillian(rates, drive), kron_liouvillian(rates, drive))


def test_generators_are_read_only_and_each_call_is_fresh():
    for lop in (dynamics.L_LOCAL, dynamics.L_COLL, dynamics.L_EX, dynamics.L_SX):
        assert lop.shape == (16, 16)
        with pytest.raises(ValueError, match="read-only"):
            lop[0, 0] = 1.0
    rates, drive = GENERATOR_CASES[1]
    first = build_liouvillian(rates, drive)
    first[...] = 7.0
    assert np.array_equal(build_liouvillian(rates, drive), kron_liouvillian(rates, drive))


def test_evolve_matches_indexed_oracle_bit_for_bit():
    rng = np.random.default_rng(53)
    irregular = np.concatenate(([0.3], 0.3 + np.sort(rng.uniform(0.0, 12.0, 40)), [40.0]))
    cases = (
        (basis_state("gg"), make_rates(-0.4, 0.3), np.linspace(0.0, 30.0, 301),
         DriveParams(omega_rabi=0.7)),
        (DensityMatrix4(0.6 * basis_state("eg").matrix + 0.4 * basis_state("gg").matrix),
         make_rates(0.3, -0.2), np.linspace(0.0, 6.0, 301), DriveParams()),
        (random_density(rng), make_rates(0.8, 0.1), irregular, DriveParams(omega_rabi=0.4)),
    )
    for state0, rates, times, drive in cases:
        traj = evolve(state0, rates, times, drive=drive)
        rho, conc = evolve_indexed(state0, rates, times, drive)
        assert len(traj.states) == len(times)
        for st, want, c in zip(traj.states, rho, conc.tolist()):
            assert np.array_equal(st.matrix, want)
            assert st.concurrence == c


def test_liouvillian_matrix_matches_apply():
    rng = np.random.default_rng(8)
    rates = make_rates(-0.4, 0.3)
    drive = DriveParams(omega_rabi=0.7)
    for _ in range(20):
        dm = random_density(rng)
        direct = liouvillian_apply(dm.matrix, rates, drive)
        oracle = sandwich_apply(dm.matrix, rates, drive)
        assert np.max(np.abs(direct - oracle)) < 1e-14


def test_evolve_matches_closed_form_decay():
    rng = np.random.default_rng(14)
    times = np.linspace(0.0, 5.0, 11)
    for big, eta in ((0.3, -0.2), (-0.8, 0.5), (1.0, 0.1)):
        rates = make_rates(big, eta)
        init = random_decay_class_init(rng)
        evolved = evolve(DensityMatrix4(dicke_matrix(init)), rates, times)
        reference = analytic_undriven(init, rates, times)
        worst = 0.0
        for got, want in zip(evolved.states, reference):
            diff = np.abs(got.matrix - want)
            worst = max(worst, float(diff.max()))
        assert worst < 1e-8


def test_evolve_matches_closed_form_decay_to_roundoff():
    rng = np.random.default_rng(14)
    times = np.linspace(0.0, 5.0, 11)
    for big, eta in ((0.3, -0.2), (-0.8, 0.5), (1.0, 0.1)):
        rates = make_rates(big, eta)
        init = random_decay_class_init(rng)
        evolved = evolve(DensityMatrix4(dicke_matrix(init)), rates, times)
        reference = analytic_undriven(init, rates, times)
        for got, want in zip(evolved.states, reference):
            assert np.max(np.abs(got.matrix - want)) < 1e-12


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
        pops = [element(st, label, label).real for st in traj.states]
        fitted = -np.log(pops[2] / pops[1]) / (times[2] - times[1])
        assert abs(fitted - expected) < 1e-6 * expected


def test_decay_is_continuous_at_matched_rates():
    times = np.linspace(0.0, 4.0, 9)
    init = {"rho_ee": 1.0}
    at = analytic_undriven(init, make_rates(1.0, 0.0), times)
    near = analytic_undriven(init, make_rates(1.0 - 1e-9, 0.0), times)
    assert np.max(np.abs(at - near)) < 1e-8


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
    assert abs(element(res.state, "gg", "gg").real - 1.0) < 1e-12


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
        diff = np.abs(svd.state.matrix - closed)
        assert diff.max() < 1e-10


def test_zero_drive_closed_form_is_ground():
    closed = steady_state_closed_form(make_rates(0.3, 0.1), DriveParams())
    assert abs(closed[3, 3].real - 1.0) < 1e-15

