"""Amplitude-level simulator for passive error rejection of polarization
qubits sent over a fiber with slowly drifting birefringence.

The sender splits a qubit into a train of time-bin wavepackets; because
the fiber rotates every wavepacket of one train identically, overlapping
neighboring bins at the receiver reassembles the qubit exactly, and
time-gated post-selection keeps (N-1)/N of the probability no matter
what the fiber did.
"""

from .state import (
    Mode,
    PhotonState,
    Polarization,
    QubitSpec,
    new_state,
    random_qubit,
)
from .elements import BsConvention, ConventionError, Element
from .noise import (
    GENERAL,
    HAAR,
    IDENTITY,
    NoiseEnsemble,
    NoiseParams,
    apply_collective_noise,
    dephasing,
    sample_coefficients,
    sample_noise,
)
from .circuits import (
    CHANNEL,
    MAX_STAGES,
    PORT_ALT,
    PORT_MAIN,
    Circuit,
    CircuitError,
    DecoderSpec,
    EncoderSpec,
    apply,
    build_decoder,
    build_encoder,
    check_compatible,
    encoder_spec_for,
    physical_splitter_elements,
    recombiner_elements,
    run,
)
from .circfile import (
    CircuitTextError,
    load_circuit,
    parse_circuit,
    print_circuit,
    shipped_circuit,
)
from .analysis import (
    BRANCHES,
    BranchId,
    BranchReport,
    Correction,
    CorrectionTable,
    analyze,
    correction_table,
    min_fidelity,
    success_probability_sweep,
    total_success,
)
from .qkd import Bb84Config, Bb84Stats, effective_efficiency, simulate_bb84

__version__ = "0.1.0"
