"""Symbolic per-protocol cost models: closed forms for transcript costs.

``analysis.complexity`` *measures* what a protocol spends — rounds,
point-to-point messages, broadcasts, functionality responses — by
running honest executions and counting transcript entries.  This module
states the same quantities as **closed forms** in the symbols of the
paper's cost analysis (party count ``n``, release bit-length ``B``, the
Gordon–Katz reveal-round parameter ``R`` = ``gk_round_count(p, m)``),
bound to a concrete protocol instance by :func:`evaluate`.

Claim family E21 asserts that
:func:`~repro.analysis.complexity.measure_cost` matches these
predictions *exactly* (equality, zero tolerance): the engine's honest
executions spend precisely the rounds and messages the paper's protocol
descriptions say they do.  ``repro profile`` prints them next to the
measured costs.

Each formula is written once, as a Python callable over ints;
:func:`evaluate` binds a protocol instance into it with integer
arithmetic only.

Honest-execution counting semantics (``measure_cost``): a transcript
entry with a string sender is a functionality response, one with the
broadcast flag is a single broadcast (however many parties receive it),
anything else is one point-to-point message.  ``rounds_used`` is the
engine's round count through the round in which every honest party
produced output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: Symbol glossary (docs/architecture.md "Cost models").
SYMBOLS: Dict[str, str] = {
    "n": "number of parties",
    "B": "gradual-release bit length (RELEASE_BITS)",
    "R": "Gordon-Katz reveal rounds: 20*p*|Y| (domain variant) or "
         "20*p^2*|Z| (range variant) -- analysis.analytic.gk_round_count",
    "p": "Gordon-Katz 1/p-unfairness parameter",
    "m": "codomain size |Y| (domain variant) / range size |Z| (range)",
}


@dataclass(frozen=True)
class PredictedCost:
    """A protocol's predicted per-honest-execution transcript costs.

    Field-for-field comparable with
    :class:`~repro.analysis.complexity.ProtocolCost` (the measured
    side); all values are exact integers — honest executions are
    deterministic in these quantities, whatever the inputs.
    """

    protocol_name: str
    rounds: int
    point_to_point_messages: int
    broadcasts: int
    functionality_responses: int

    @property
    def total_messages(self) -> int:
        return (
            self.point_to_point_messages
            + self.broadcasts
            + self.functionality_responses
        )


@dataclass(frozen=True)
class CostModel:
    """One protocol family's closed forms plus its symbol binder.

    The four formula callables are polynomial in their integer
    parameters; :func:`evaluate` calls them with the bound values to get
    a prediction.  ``bind`` extracts the parameter values from a live
    protocol instance (e.g. ``R`` from ``GordonKatzProtocol.reveal_rounds``).
    """

    family: str
    params: Tuple[str, ...]
    rounds: Callable
    point_to_point: Callable
    broadcasts: Callable
    functionality: Callable
    bind: Callable


def _release_bits(protocol) -> dict:
    from ..protocols.gradual_release import RELEASE_BITS

    return {"B": getattr(protocol, "release_bits", RELEASE_BITS)}


#: The registry, keyed by protocol class name (subclasses inherit their
#: base's model via the MRO walk in :func:`model_for`).
_MODELS: Dict[str, CostModel] = {
    # ShareGen round + commit round + two reveal rounds; each party
    # sends one share reveal; both parties call ShareGen.
    "Opt2SfeProtocol": CostModel(
        family="Opt2SfeProtocol", params=(),
        rounds=lambda: 4, point_to_point=lambda: 2,
        broadcasts=lambda: 0, functionality=lambda: 2,
        bind=lambda protocol: {},
    ),
    # One functionality round, one exchange round, one output round.
    "SingleRoundProtocol": CostModel(
        family="SingleRoundProtocol", params=(),
        rounds=lambda: 3, point_to_point=lambda: 2,
        broadcasts=lambda: 0, functionality=lambda: 2,
        bind=lambda protocol: {},
    ),
    # B bit-release rounds after setup: each releases one bit per
    # party (2B messages) on top of the initial share exchange (2).
    "GradualReleaseProtocol": CostModel(
        family="GradualReleaseProtocol", params=("B",),
        rounds=lambda B: B + 3, point_to_point=lambda B: 2 * B + 2,
        broadcasts=lambda B: 0, functionality=lambda B: 2,
        bind=_release_bits,
    ),
    # R reveal rounds (Theorems 23/24: R = 20*p*|Y| domain,
    # 20*p^2*|Z| range), two token messages per reveal round, plus the
    # ShareGen round and the output round.
    "GordonKatzProtocol": CostModel(
        family="GordonKatzProtocol", params=("R",),
        rounds=lambda R: R + 2, point_to_point=lambda R: 2 * R,
        broadcasts=lambda R: 0, functionality=lambda R: 2,
        bind=lambda protocol: {"R": protocol.reveal_rounds},
    ),
    # All n parties call ShareGen, then each broadcasts its share.
    "OptNSfeProtocol": CostModel(
        family="OptNSfeProtocol", params=("n",),
        rounds=lambda n: 3, point_to_point=lambda n: 0,
        broadcasts=lambda n: n, functionality=lambda n: n,
        bind=lambda protocol: {"n": protocol.n_parties},
    ),
    # Same shape: the VSS output dealer answers every party, then each
    # broadcasts its (threshold-shared) output share.
    "ThresholdGmwProtocol": CostModel(
        family="ThresholdGmwProtocol", params=("n",),
        rounds=lambda n: 3, point_to_point=lambda n: 0,
        broadcasts=lambda n: n, functionality=lambda n: n,
        bind=lambda protocol: {"n": protocol.n_parties},
    ),
}


def covered_families() -> Tuple[str, ...]:
    """The protocol class names with a registered cost model."""
    return tuple(_MODELS)


def model_for(protocol) -> Optional[CostModel]:
    """The cost model covering this protocol instance, or ``None``.

    Resolution walks the class MRO so protocol subclasses inherit the
    base family's closed forms.
    """
    for cls in type(protocol).__mro__:
        model = _MODELS.get(cls.__name__)
        if model is not None:
            return model
    return None


def covered(protocol) -> bool:
    return model_for(protocol) is not None


def evaluate(protocol) -> PredictedCost:
    """Bind a concrete protocol instance into its model's closed forms.

    The bound parameter values go straight into the formula callables,
    so this is integer arithmetic only.  Raises ``ValueError`` for a
    protocol with no registered model.
    """
    model = model_for(protocol)
    if model is None:
        raise ValueError(
            f"no symbolic cost model for {type(protocol).__name__}; "
            f"covered families: {', '.join(covered_families())}"
        )
    binding = model.bind(protocol)
    args = [binding[name] for name in model.params]
    return PredictedCost(
        protocol_name=protocol.name,
        rounds=int(model.rounds(*args)),
        point_to_point_messages=int(model.point_to_point(*args)),
        broadcasts=int(model.broadcasts(*args)),
        functionality_responses=int(model.functionality(*args)),
    )
