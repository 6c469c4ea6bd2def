"""Deterministic protocol engine for credential-based ownership management and
transfer of consumer IoT devices.

Entities (manufacturer, distributor, wallets) run as state machines over a
simulated verifiable data registry and a mediator-routed encrypted transport;
an adversarial scheduler exercises replay, tamper, and spoof attacks against
the protocol's security properties.
"""

from .agents import (
    AdversaryWallet,
    DistributorAgent,
    ManufacturerAgent,
    WalletAgent,
    establish_connection,
    evaluate_challenge,
    pin_numeric,
)
from .credential import (
    ProofPresentation,
    VerifiableCredential,
    generate_vc,
    present_proof,
    verify_presentation,
)
from .crypto import Rng
from .registry import VerifiableDataRegistry
from .scenarios import BUILTIN_SCENARIOS, builtin_scenario, load_scenario_file, run_scenario
from .simnet import World

__version__ = "0.1.0"

__all__ = [
    "AdversaryWallet",
    "BUILTIN_SCENARIOS",
    "DistributorAgent",
    "ManufacturerAgent",
    "ProofPresentation",
    "Rng",
    "VerifiableCredential",
    "VerifiableDataRegistry",
    "WalletAgent",
    "World",
    "builtin_scenario",
    "establish_connection",
    "evaluate_challenge",
    "generate_vc",
    "load_scenario_file",
    "pin_numeric",
    "present_proof",
    "run_scenario",
    "verify_presentation",
    "__version__",
]
