"""Convergence certificates: each numerical constant, refined or widened,
moves what it feeds by less than a tolerance declared here next to the
move measured when the certificate was written.

A certificate that fails stays failing until the program changes; its
tolerance does not move to make it pass.
"""

import math

import numpy as np

from solq import couplings, gpe
from solq.couplings import _table, rate_set
from solq.gpe import Grid1D, _find_minima, imprint_solitons, split_step_evolve
from solq.model import ModelParams
from solq.scenarios import PRESETS

# Y_HALF widened by half, 40 -> 60, at the same spacing (N_Y 501 -> 751) moves
# gamma, Gamma/gamma and eta/gamma at the separations below by at most 4.3e-15,
# in the rate pins' units (relative for gamma, |x| floored at 0.01 for the ratios)
Y_HALF_TOL = 1e-12
# N_GAUSS doubled, 32 -> 64 nodes per PV panel, moves gamma, Gamma/gamma and
# eta/gamma by at most 3.1e-13 in the same units, over the four parameter sets
# and six separations below (16 -> 32 moves them by 2.1e-8)
N_GAUSS_TOL = 1e-12
# DT_CAP_FACTOR halved: ten cores at figS3's 2.5-xi spacing on figS3's grid
# spacing (76.92/1024 xi; a 38.46-xi box of 512 points), at the default step
# and at half of it, to t = 24.5: past figS3's 22.5, and a step count that the
# 20 frames divide, so both runs record at the same times. Every core of each
# frame moves by at most 2.0e-7 xi, while the cores themselves travel up to
# 1.24 xi (a quarter step gives 2.5e-7 xi)
DT_CAP_TOL = 5e-7


def _rates(monkeypatch, y_half, n_y):
    with monkeypatch.context() as m:
        m.setattr(couplings, "Y_HALF", y_half)
        m.setattr(couplings, "N_Y", n_y)
        _table.cache_clear()
        return [rate_set(d, ModelParams()) for d in (0.5, 1.0, 2.5, 6.0)]


def test_y_half_certificate(monkeypatch):
    base = _rates(monkeypatch, couplings.Y_HALF, couplings.N_Y)
    wide = _rates(monkeypatch, 1.5 * couplings.Y_HALF, 1 + 3 * (couplings.N_Y - 1) // 2)
    _table.cache_clear()
    for a, b in zip(base, wide, strict=True):
        assert abs(a.gamma - b.gamma) < Y_HALF_TOL * a.gamma, (a, b)
        for name in ("Gamma_over_gamma", "eta_over_gamma"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) < Y_HALF_TOL * max(abs(x), 0.01), (name, a, b)


def test_n_gauss_certificate(monkeypatch):
    params = (ModelParams(), ModelParams(nu=0.6, mass_ratio=1.3),
              ModelParams(nu=0.78, mass_ratio=2.0), ModelParams(wannier_convention="eigenstate"))

    def rates(n_gauss):
        with monkeypatch.context() as m:
            m.setattr(couplings, "N_GAUSS", n_gauss)
            return [rate_set(d, p) for p in params for d in (0.5, 1.0, 2.2, 2.5, 4.0, 6.0)]

    base, doubled = rates(couplings.N_GAUSS), rates(2 * couplings.N_GAUSS)
    for a, b in zip(base, doubled, strict=True):
        assert abs(a.gamma - b.gamma) < N_GAUSS_TOL * a.gamma, (a, b)
        for name in ("Gamma_over_gamma", "eta_over_gamma"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) < N_GAUSS_TOL * max(abs(x), 0.01), (name, a, b)


def test_dt_cap_certificate():
    figs3 = PRESETS["figS3"].settings
    g = Grid1D(points=512, length=figs3["box_length"] / 2)
    assert g.spacing == figs3["box_length"] / 1024
    field = imprint_solitons(g, (np.arange(10) - 4.5) * figs3["spacing"])
    t_final, n_records = 24.5, 20
    n_steps = math.ceil(t_final / (gpe.DT_CAP_FACTOR * g.spacing ** 2))
    assert n_steps % n_records == 0  # both runs record at the same times
    _, records = split_step_evolve(field, t_final, n_records=n_records)
    _, halved = split_step_evolve(field, t_final, dt=t_final / (2 * n_steps),
                                  n_records=n_records)
    for (t, psi), (t_half, psi_half) in zip(records, halved, strict=True):
        assert t == t_half
        cores = _find_minima(psi.real ** 2 + psi.imag ** 2, g)
        cores_half = _find_minima(psi_half.real ** 2 + psi_half.imag ** 2, g)
        assert len(cores) == len(cores_half) == 10, t
        assert np.max(np.abs(cores - cores_half)) < DT_CAP_TOL, t
