import math

import numpy as np
import pytest

from solq.model import (
    ExponentConvention,
    ModelParams,
    chi_over_g,
    qubit_gap,
    wannier_alpha,
)


def test_chi_over_g_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        nu = rng.uniform(0.05, 3.0)
        mr = rng.uniform(0.2, 5.0)
        expected = nu * (nu + 1.0) / mr
        assert abs(chi_over_g(ModelParams(nu=nu, mass_ratio=mr)) - expected) < 1e-14 * expected
    assert chi_over_g(ModelParams(nu=0.0)) == 0.0


def test_chi_over_g_reference_point():
    # chi/g = 0.88 at mass ratio 1.56 sits just above the default working point
    assert abs(chi_over_g(ModelParams(nu=0.7739, mass_ratio=1.56)) - 0.88) < 5e-5


def test_default_qubit_gap():
    assert abs(qubit_gap(ModelParams()) - (2.0 * 0.75 - 1.0) / (2.0 * 1.56)) < 1e-15


def test_qubit_gap_sign():
    assert qubit_gap(ModelParams(nu=0.4)) < 0.0
    assert qubit_gap(ModelParams(nu=0.5)) == 0.0
    assert qubit_gap(ModelParams(nu=0.75)) > 0.0


def test_wannier_alpha_conventions():
    nu = 0.75
    assert abs(wannier_alpha(ModelParams(nu=nu)) - math.sqrt(nu * (nu + 1.0))) < 1e-15
    eig = ModelParams(nu=nu, wannier_convention=ExponentConvention.EIGENSTATE)
    assert wannier_alpha(eig) == nu


def test_convention_accepts_strings():
    p = ModelParams(wannier_convention="eigenstate")
    assert p.wannier_convention is ExponentConvention.EIGENSTATE
    with pytest.raises(ValueError):
        ModelParams(wannier_convention="squared")


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nu=-0.1)
    with pytest.raises(ValueError):
        ModelParams(mass_ratio=0.0)
    with pytest.raises(ValueError):
        ModelParams(n0_xi=-1.0)
    # nu = 0 is a legal degenerate point (no well)
    assert ModelParams(nu=0.0).nu == 0.0
