"""Convergence certificates: each numerical constant, refined or widened,
moves what it feeds by less than a tolerance declared here next to the
move measured when the certificate was written.

A certificate that fails stays failing until the program changes; its
tolerance does not move to make it pass.
"""

from solq import couplings
from solq.couplings import _table, rate_set
from solq.model import ModelParams

# Y_HALF widened by half, 40 -> 60, at the same spacing (N_Y 501 -> 751) moves
# gamma, Gamma/gamma and eta/gamma at the separations below by at most 4.3e-15,
# in the rate pins' units (relative for gamma, |x| floored at 0.01 for the ratios)
Y_HALF_TOL = 1e-12


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
