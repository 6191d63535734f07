"""Simulator and optimization toolkit for coherent-state fingerprinting networks.

Multiple senders encode error-corrected messages onto trains of weak coherent
pulses and interfere them on a balanced beam-splitter tree; a referee reads
threshold detectors to decide which senders hold equal messages.  The package
provides the exact linear-optics model, closed-form click statistics, count
tails and threshold selection, the referee's decision tables, communication
cost accounting, a constrained amplitude optimizer, a Monte Carlo harness,
and a CLI that audits bundled benchmark instances.
"""

__version__ = "0.1.0"

from .core import (
    ChannelModel,
    CountModel,
    DomainError,
    Encoding,
    PatternFractions,
    PatternRegion,
    ProtocolParams,
    Relationship,
    RunConfig,
    enumerate_relationships,
    observed_detectors,
    relationship_profile,
    run_pairing,
    worst_case_regions,
)

__all__ = [
    "__version__",
    "ChannelModel",
    "CountModel",
    "DomainError",
    "Encoding",
    "PatternFractions",
    "PatternRegion",
    "ProtocolParams",
    "Relationship",
    "RunConfig",
    "enumerate_relationships",
    "observed_detectors",
    "relationship_profile",
    "run_pairing",
    "worst_case_regions",
]
