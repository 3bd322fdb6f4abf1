"""Regenerate perfbench/rate_reference.json, the rate pins of the rate_sweep workload.

Run from the repository root:  python3 perfbench/make_reference.py

The table holds Gamma/gamma and eta/gamma from `solq.couplings.rate_set` at the
default model parameters on the separation grid d = D_MIN + j * D_STEP,
j = 0 .. D_COUNT - 1. The rate_sweep workload only asks for separations on this
grid, so its output check is an exact table lookup at the 1e-6 pin tolerance
of the test suite. Regenerate it only when the physics is meant to change.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from solq.couplings import rate_set  # noqa: E402
from solq.model import ModelParams  # noqa: E402

from workloads import D_COUNT, D_MIN, D_STEP, REFERENCE_PATH, grid_separation  # noqa: E402


def main() -> int:
    params = ModelParams()
    d_values = [grid_separation(j) for j in range(D_COUNT)]
    with ThreadPoolExecutor(max_workers=2) as ex:
        rows = list(ex.map(lambda d: rate_set(d, params), d_values))
    table = {
        "model": {"nu": params.nu, "mass_ratio": params.mass_ratio,
                  "n0_xi": params.n0_xi,
                  "wannier_convention": params.wannier_convention.value},
        "d_min": D_MIN,
        "d_step": D_STEP,
        "d": d_values,
        "Gamma_over_gamma": [r.Gamma_over_gamma for r in rows],
        "eta_over_gamma": [r.eta_over_gamma for r in rows],
    }
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(rows)} separations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
