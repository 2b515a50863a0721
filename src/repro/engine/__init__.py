"""Synchronous protocol-execution engine (Canetti-style model).

Semantics: synchronous rounds over ideally secure bilateral channels plus a
non-equivocating broadcast channel; a rushing adversary that observes honest
messages addressed to corrupted parties before committing the corrupted
parties' messages of the same round; adaptive corruptions that hand over a
party's full view and live machine; hybrid ideal-functionality calls that
resolve within a round and respond with the next inbox.
"""

from .messages import ABORT, Inbox, Message
from .party import (
    OUTPUT_ABORT,
    OUTPUT_DEFAULT,
    OUTPUT_REAL,
    HonestRunner,
    OutputRecord,
    PartyContext,
    PartyMachine,
    PartyView,
)
from .adversary import Adversary, CorruptedParty, RoundInterface
from .protocol import Protocol
from .execution import (
    Execution,
    ExecutionResult,
    ProtocolViolation,
    run_execution,
)

__all__ = [
    "ABORT",
    "Inbox",
    "Message",
    "OUTPUT_ABORT",
    "OUTPUT_DEFAULT",
    "OUTPUT_REAL",
    "HonestRunner",
    "OutputRecord",
    "PartyContext",
    "PartyMachine",
    "PartyView",
    "Adversary",
    "CorruptedParty",
    "RoundInterface",
    "Protocol",
    "Execution",
    "ExecutionResult",
    "ProtocolViolation",
    "run_execution",
]
