"""teleportlab: teleportation-resource protocols over noisy qudit channels.

Simulates the standard N-level teleportation protocol, the general
resource-protocol formalism with its Choi-level control map, the proof
machinery constraining deterministic faithful correction, and a seeded
derivative-free search over protocol space.
"""

from .qmath import (
    fidelity,
    maximally_entangled,
    partial_trace,
    random_pure,
    random_state,
    schmidt,
    tensor,
    trace_distance,
)
from .channels import (
    ChoiMatrix,
    KrausChannel,
    choi,
    depolarizing,
    depolarizing_locc_simulable,
    identity_channel,
    kraus_from_choi,
    load_channel,
    random_channel,
    rank,
    save_channel,
)
from .teleport import (
    bell_basis,
    correction_unitary,
    qt_protocol,
    teleport,
    teleport_detailed,
)
from .protocol import (
    AncillaResource,
    ResourceProtocol,
    apply_protocol,
    bare_protocol,
    control_map,
    effective_choi,
    entanglement_fidelity,
    load_protocol,
    random_protocol,
    residual,
    save_protocol,
)
from .theorem import (
    cauchy_schwarz_check,
    entanglement_bound,
    nielsen_convertible,
    no_cc_contradiction,
    proof_report,
)
from .optimize import (
    OptimizationConfig,
    OptimizationResult,
    ProtocolParameterization,
    decode,
    optimize,
    qt_parameterization,
    sweep_mu,
    zero_parameterization,
)

__version__ = "0.1.0"

__all__ = [
    "AncillaResource",
    "ChoiMatrix",
    "KrausChannel",
    "OptimizationConfig",
    "OptimizationResult",
    "ProtocolParameterization",
    "ResourceProtocol",
    "apply_protocol",
    "bare_protocol",
    "bell_basis",
    "cauchy_schwarz_check",
    "choi",
    "control_map",
    "correction_unitary",
    "decode",
    "depolarizing",
    "depolarizing_locc_simulable",
    "effective_choi",
    "entanglement_bound",
    "entanglement_fidelity",
    "fidelity",
    "identity_channel",
    "kraus_from_choi",
    "load_channel",
    "load_protocol",
    "maximally_entangled",
    "nielsen_convertible",
    "no_cc_contradiction",
    "optimize",
    "partial_trace",
    "proof_report",
    "qt_parameterization",
    "qt_protocol",
    "random_channel",
    "random_protocol",
    "random_pure",
    "random_state",
    "rank",
    "residual",
    "save_channel",
    "save_protocol",
    "schmidt",
    "sweep_mu",
    "teleport",
    "teleport_detailed",
    "tensor",
    "trace_distance",
    "zero_parameterization",
]
