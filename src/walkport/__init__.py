"""Simulator and exhaustive verifier for bidirectional quantum-walk teleportation."""

from .errors import WalkportError
from .hilbert import RegisterLayout, SparseState, superpose
from .measure import (
    BranchResult,
    CorrectionTable,
    enumerate_branches,
    synthesized_table,
)
from .protocols import (
    PROTOCOL_IDS,
    Payload,
    ProtocolSpec,
    build_initial,
    get_protocol,
    random_payload,
    run_walks,
)

__version__ = "0.1.0"

__all__ = [
    "BranchResult",
    "CorrectionTable",
    "PROTOCOL_IDS",
    "Payload",
    "ProtocolSpec",
    "RegisterLayout",
    "SparseState",
    "WalkportError",
    "build_initial",
    "enumerate_branches",
    "get_protocol",
    "random_payload",
    "run_walks",
    "superpose",
    "synthesized_table",
]
