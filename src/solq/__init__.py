"""Dissipative entanglement of dark-soliton qubits through the phonon bath.

The chain goes: impurity orbitals trapped in each soliton (boundstates) ->
orbital/phonon coupling amplitudes (couplings) -> collective emission rates
-> two-qubit Lindblad dynamics and driven steady states (dynamics) ->
concurrence (entanglement). An independent split-step solver (gpe) backs the
structural assumptions (bound orbitals, soliton chain stability).
"""

__version__ = "0.1.0"

from .model import (
    ExponentConvention,
    ModelParams,
    chi_over_g,
    derive_nu,
    from_physical,
    qubit_gap,
    to_physical,
    wannier_alpha,
)
from .boundstates import (
    PtSpectrum,
    WannierPair,
    dipole_element,
    level_count,
    pt_spectrum,
    wannier_pair,
)
from .bogoliubov import (
    BogoliubovMode,
    dispersion,
    group_velocity,
    group_velocity_at,
    mode_amplitudes,
    resonant_wavevector,
)
from .couplings import (
    RateSet,
    RwaReport,
    correlation_panel,
    coupling_amplitude,
    rate_set,
    rwa_report,
)
from .dynamics import (
    DensityMatrix4,
    DriveParams,
    SteadyStateResult,
    Trajectory,
    basis_state,
    build_liouvillian,
    dicke_transform,
    evolve,
    steady_state,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence,
    steady_concurrence_formula,
    undriven_concurrence_formula,
)
from .gpe import (
    Boundary,
    Grid1D,
    ImpurityStates,
    LatticeField,
    SolitonTracks,
    gpe_energy,
    imprint_solitons,
    multi_soliton_experiment,
    relax_impurity,
    split_step_evolve,
)

__all__ = [
    "__version__",
    "ExponentConvention", "ModelParams", "chi_over_g", "derive_nu",
    "from_physical", "qubit_gap", "to_physical", "wannier_alpha",
    "PtSpectrum", "WannierPair", "dipole_element", "level_count",
    "pt_spectrum", "wannier_pair",
    "BogoliubovMode", "dispersion", "group_velocity", "group_velocity_at",
    "mode_amplitudes", "resonant_wavevector",
    "RateSet", "RwaReport", "correlation_panel", "coupling_amplitude",
    "rate_set", "rwa_report",
    "DensityMatrix4", "DriveParams", "SteadyStateResult", "Trajectory",
    "basis_state", "build_liouvillian", "dicke_transform", "evolve",
    "steady_state",
    "ConcurrenceResult", "concurrence", "steady_concurrence_formula",
    "undriven_concurrence_formula",
    "Boundary", "Grid1D", "ImpurityStates", "LatticeField", "SolitonTracks",
    "gpe_energy", "imprint_solitons", "multi_soliton_experiment",
    "relax_impurity", "split_step_evolve",
]
