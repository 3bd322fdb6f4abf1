"""Dissipative entanglement of dark-soliton qubits through the phonon bath.

The chain goes: impurity orbitals trapped in each soliton (boundstates) ->
orbital/phonon coupling amplitudes (couplings) -> collective emission rates
-> two-qubit Lindblad dynamics and driven steady states (dynamics) ->
concurrence (entanglement). An independent split-step solver (gpe) backs the
structural assumptions (bound orbitals, soliton chain stability).
"""

__version__ = "0.1.0"
