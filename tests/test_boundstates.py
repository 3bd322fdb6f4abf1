import math

import numpy as np
import pytest
from scipy.integrate import quad

from solq.boundstates import level_count, pt_spectrum, wannier_pair
from solq.model import ExponentConvention, ModelParams


def test_default_spectrum():
    ladder = pt_spectrum(ModelParams())
    assert ladder.count == 2
    assert ladder.qubit_window
    assert abs(ladder.energies[0] + 0.75 ** 2 / (2.0 * 1.56)) < 1e-15
    assert abs(ladder.energies[1] + 0.25 ** 2 / (2.0 * 1.56)) < 1e-15


def test_energies_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        nu = rng.uniform(0.1, 3.0)
        mr = rng.uniform(0.3, 4.0)
        ladder = pt_spectrum(ModelParams(nu=nu, mass_ratio=mr))
        for n, e in enumerate(ladder.energies):
            assert abs(e + (nu - n) ** 2 / (2.0 * mr)) < 1e-13
        # levels below the well parameter are strictly ordered
        below = [e for n, e in enumerate(ladder.energies) if n < nu]
        assert all(a < b for a, b in zip(below, below[1:]))


def test_level_count_window_edges():
    # exactly two levels for 1/3 <= nu < 4/5
    assert level_count(1.0 / 3.0) == 2
    assert level_count(0.33) == 1
    assert level_count(0.799) == 2
    assert level_count(0.8) == 3
    assert level_count(0.75) == 2
    assert level_count(0.9) == 3


def test_qubit_window_flag_tracks_count():
    for nu in np.linspace(0.05, 1.5, 60):
        ladder = pt_spectrum(ModelParams(nu=float(nu)))
        assert ladder.qubit_window == (ladder.count == 2)


def test_orbitals_are_normalized():
    for conv in ExponentConvention:
        pair = wannier_pair(ModelParams(wannier_convention=conv))
        n0, _ = quad(lambda y: pair.phi0(y) ** 2, -40.0, 40.0)
        n1, _ = quad(lambda y: pair.phi1(y) ** 2, -40.0, 40.0)
        assert abs(n0 - 1.0) < 1e-10
        assert abs(n1 - 1.0) < 1e-10


def test_sech_normalization_analytic_point():
    # alpha = 1: integral of sech^2 is 2, so A0 = 1/sqrt(2)
    p = ModelParams(nu=1.0, wannier_convention=ExponentConvention.EIGENSTATE)
    pair = wannier_pair(p)
    assert pair.alpha == 1.0
    assert abs(pair.a0 - 1.0 / math.sqrt(2.0)) < 1e-12


def test_a1_closed_form():
    # the closed form sqrt(1 + 2 alpha) against adaptive quadrature of the
    # unnormalized tanh-weighted profile
    rng = np.random.default_rng(9)
    for _ in range(20):
        nu = rng.uniform(0.3, 2.0)
        pair = wannier_pair(ModelParams(nu=nu))
        norm_sq, err = quad(
            lambda y: (pair.a0 * math.cosh(y) ** (-pair.alpha) * math.tanh(y)) ** 2,
            -40.0, 40.0, epsabs=1e-13, epsrel=1e-12,
        )
        assert err < 1e-9
        assert abs(pair.a1 - 1.0 / math.sqrt(norm_sq)) < 1e-9


def test_default_pair_values():
    pair = wannier_pair(ModelParams())
    assert abs(pair.alpha - 1.14564392373896) < 1e-12
    assert abs(pair.a0 - 0.7369132496828155) < 1e-12
    assert abs(pair.a1 - 1.8141906866363087) < 1e-10


def test_phi1_sign_and_node():
    pair = wannier_pair(ModelParams())
    x = np.linspace(1e-3, 8.5, 200)
    assert np.all(pair.phi1(x) > 0.0)
    assert np.all(pair.phi1(-x) < 0.0)
    assert abs(pair.phi1(0.0)) < 1e-15


def test_rejects_zero_alpha():
    with pytest.raises(ValueError):
        wannier_pair(ModelParams(nu=0.0, wannier_convention=ExponentConvention.EIGENSTATE))
