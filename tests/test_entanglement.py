import math

import numpy as np
import pytest

from oracles import concurrence_closed_forms
from solq.couplings import RateSet
from solq.dynamics import DriveParams, basis_state, evolve, steady_state
from solq.entanglement import (
    concurrence,
    steady_concurrence_formula,
    undriven_concurrence_formula,
)

GAMMA = 4.922723591011477e-05


def make_rates(big, eta):
    return RateSet(gamma=GAMMA, Gamma_over_gamma=big, eta_over_gamma=eta,
                   d=2.5, k0=0.1129586390118519)


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


SY = np.array([[0.0, -1j], [1j, 0.0]])
SY_SY = np.kron(SY, SY)


def wootters_eigvals(rho):
    """Oracle: square roots of the sorted eigenvalues of rho (sy sy) rho* (sy sy).

    Roots of eigenvalue noise put its floor near 1e-9 on full-rank states and
    near 3e-8 where the spin-flip product has zero eigenvalues.
    """
    lam = np.linalg.eigvals(rho @ SY_SY @ rho.conj() @ SY_SY)
    if np.max(np.abs(lam.imag)) > 1e-9:
        raise RuntimeError("spin-flip spectrum came out non-real")
    lam = np.sqrt(np.maximum(np.sort(lam.real)[::-1], 0.0))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def wootters_of_factor(a):
    """Oracle for rho = a a^H of rank r = a.shape[1] < 4 (trace 1).

    The nonzero eigenvalues of rho rho~ are those of t^* t with the r x r
    t = a^T (sy sy) a, and the other 4 - r are exactly zero.
    """
    t = a.T @ SY_SY @ a
    lam = np.linalg.eigvals(t.conj() @ t)
    assert np.max(np.abs(lam.imag)) < 1e-12
    lam = np.sqrt(np.maximum(np.sort(lam.real)[::-1], 0.0))
    return max(0.0, lam[0] - np.sum(lam[1:]))


def random_states(rng, count):
    """Seeded (rho, factor) pairs: full-rank, rank-1, rank-2, X-shaped and
    Werner states, with the trace-1 factor a (rho = a a^H) of the rank-1 and
    rank-2 ones and None for the rest."""
    for _ in range(count):
        for rank in (4, 1, 2):
            a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            a /= np.linalg.norm(a)
            yield a @ a.conj().T, (a if rank < 4 else None)
        w = rng.dirichlet(np.ones(4))
        x = np.diag(w).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            phase = np.exp(2j * np.pi * rng.uniform())
            x[i, j] = rng.uniform() * math.sqrt(w[i] * w[j]) * phase
            x[j, i] = np.conj(x[i, j])
        yield x, None
        p = rng.uniform()
        yield p * bell_phi_plus() + (1.0 - p) * np.eye(4) / 4.0, None


def test_concurrence_matches_eigvals_oracle():
    rng = np.random.default_rng(53)
    for rho, factor in random_states(rng, 40):
        got = concurrence(rho).value
        if factor is None:
            assert abs(got - wootters_eigvals(rho)) < 1e-9
        else:
            assert abs(got - wootters_of_factor(factor)) < 1e-9
            assert abs(got - wootters_eigvals(rho)) < 1e-7


def test_exact_fixtures():
    bells = []
    for i, j, sign in ((0, 3, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 2, -1.0)):
        v = np.zeros(4, dtype=complex)
        v[i], v[j] = 1.0 / math.sqrt(2.0), sign / math.sqrt(2.0)
        bells.append(np.outer(v, v.conj()))
    for rho in bells:
        assert abs(concurrence(rho).value - 1.0) < 1e-14
    for label in ("s", "a"):
        assert abs(concurrence(basis_state(label)).value - 1.0) < 1e-14
    for label in ("ee", "eg", "ge", "gg", "e", "g"):
        assert concurrence(basis_state(label)).value < 1e-14
    rng = np.random.default_rng(59)
    for _ in range(20):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert concurrence(np.outer(v, v.conj())).value < 1e-14


def test_bell_state_is_maximally_entangled():
    res = concurrence(bell_phi_plus())
    assert abs(res.value - 1.0) < 1e-14


def test_product_state_is_separable():
    assert concurrence(basis_state("eg")).value == 0.0
    assert concurrence(basis_state("gg")).value == 0.0


def test_werner_line():
    # C = max(0, (3p - 1)/2) for Werner states built on |Phi+>
    for p, expected in ((0.6, 0.4), (1.0, 1.0), (1.0 / 3.0, 0.0), (0.2, 0.0)):
        rho = p * bell_phi_plus() + (1.0 - p) * np.eye(4) / 4.0
        assert abs(concurrence(rho).value - expected) < 1e-12


def test_dicke_symmetric_state_is_maximally_entangled():
    assert abs(concurrence(basis_state("s")).value - 1.0) < 1e-14
    assert abs(concurrence(basis_state("a")).value - 1.0) < 1e-14


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        rotated = u @ rho @ u.conj().T
        c0 = concurrence(rho).value
        c1 = concurrence(rotated).value
        assert abs(c0 - c1) < 1e-9


def test_closed_forms_match_general_on_x_states():
    rng = np.random.default_rng(29)
    for _ in range(50):
        w = rng.dirichlet(np.ones(4))
        outer = 0.95 * math.sqrt(w[0] * w[3]) * np.exp(2j * np.pi * rng.uniform())
        inner = 0.95 * math.sqrt(w[1] * w[2]) * np.exp(2j * np.pi * rng.uniform())
        m = np.diag(w).astype(complex)
        m[0, 3], m[3, 0] = outer, np.conj(outer)
        m[1, 2], m[2, 1] = inner, np.conj(inner)
        closed = concurrence_closed_forms(m)
        general = concurrence(m)
        assert abs(closed.value - general.value) < 1e-10
        if closed.value > 0.0:
            # the named branch is the one that sets the value
            assert closed.value == getattr(closed, "c_" + closed.branch)


def test_non_x_matrix_is_rejected():
    rates = make_rates(0.3, -0.2)
    driven = steady_state(rates, DriveParams(omega_rabi=0.4)).state
    with pytest.raises(ValueError):
        concurrence_closed_forms(driven.matrix)
    # the general route still handles it
    assert concurrence(driven).value >= 0.0


def test_decay_formula_matches_wootters_of_evolution():
    times = np.linspace(0.0, 4.0, 9)
    for big, eta in ((0.35, 0.2), (-0.7, -0.4)):
        rates = make_rates(big, eta)
        traj = evolve(basis_state("eg"), rates, times)
        wootters = np.array([concurrence(st).value for st in traj.states])
        formula = undriven_concurrence_formula(rates, times)
        assert np.max(np.abs(wootters - formula)) < 1e-12


def test_decay_formula_envelope():
    rng = np.random.default_rng(41)
    times = np.linspace(0.0, 6.0, 200)
    envelope = np.exp(-times) * np.sqrt(np.sinh(times) ** 2 + 1.0)
    for _ in range(30):
        rates = make_rates(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        c = undriven_concurrence_formula(rates, times)
        assert np.all(c <= envelope + 1e-12)


def test_decay_formula_is_finite_at_long_times():
    # sinh(Gamma t) alone overflows from |Gamma| t ~ 710; the formula never
    # forms it, and at Gamma = +-gamma it settles on the subradiant 1/2
    short = np.linspace(0.0, 8.0, 161)
    long = np.array([720.0, 760.0, 3000.0, 1e4, 1e6])
    for big in (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0):
        rates = make_rates(big, 0.37)
        direct = np.exp(-short) * np.sqrt(np.sinh(big * short) ** 2
                                          + np.sin(0.74 * short) ** 2)
        assert np.max(np.abs(undriven_concurrence_formula(rates, short) - direct)) < 1e-15
        c = undriven_concurrence_formula(rates, long)
        assert np.all(np.isfinite(c)) and np.all(c <= 1.0)
        assert abs(c[-1] - (0.5 if abs(big) == 1.0 else 0.0)) < 1e-15


def test_steady_formula_matches_wootters_of_steady_state():
    for big, eta, om in ((0.3, -0.2, 0.35), (-0.5, 0.45, 0.6)):
        rates = make_rates(big, eta)
        drive = DriveParams(omega_rabi=om)
        direct = concurrence(steady_state(rates, drive).state).value
        formula = steady_concurrence_formula(rates, drive)
        assert abs(direct - formula) < 1e-8


def test_steady_formula_requires_symmetric_resonant_drive():
    rates = make_rates(0.3, 0.1)
    with pytest.raises(ValueError):
        steady_concurrence_formula(rates, DriveParams(omega_rabi=0.3, detuning=0.1))
    with pytest.raises(ValueError):
        steady_concurrence_formula(
            rates, DriveParams(omega_rabi=0.3, omega_rabi_2=0.1)
        )


def test_strong_drive_kills_steady_entanglement():
    rates = make_rates(0.7, 0.3)
    # |U| = hypot(Gamma, 2 eta); above Omega^2 = |U| the formula clamps to zero
    strong = steady_concurrence_formula(rates, DriveParams(omega_rabi=1.5))
    assert strong == 0.0


def test_raw_arrays_are_validated():
    with pytest.raises(ValueError):
        concurrence(np.eye(4) / 2.0)
