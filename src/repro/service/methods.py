"""Experiment-method implementations behind the JSON-RPC surface.

Each method maps a canonical request (see ``service.canonical``) onto
the *same* analysis entry point the CLI command uses — built from the
same protocol registry, the same strategy spaces, the same seeds — and
exports the result through ``analysis.export``.  That is the service's
core contract: a job's artefact, stripped to its
``deterministic_payload``, is byte-identical to what the equivalent
``repro`` CLI invocation writes with ``--json-out``.

:func:`validate` runs the cheap existence checks (protocol name, claim
spec, budget spelling) at *submission* time, so a typo is an immediate
``INVALID_PARAMS`` instead of a job that fails minutes later.
"""

from __future__ import annotations

from ..analysis.export import (
    assessment_to_dict,
    estimate_to_dict,
    report_to_dict,
)
from ..core.payoff import PayoffVector
from .canonical import ServiceParamError, build_task


def _registry(parties: int):
    from ..cli import _protocol_registry  # lazy: cli imports analysis

    return _protocol_registry(parties)


def _protocol(canon: dict):
    registry = _registry(canon["parties"])
    protocol = registry.get(canon["protocol"])
    if protocol is None:
        raise ServiceParamError(
            f"unknown protocol {canon['protocol']!r}; available: "
            f"{', '.join(sorted(registry))}"
        )
    return protocol


def _gamma(canon: dict) -> PayoffVector:
    return PayoffVector(*canon["gamma"])


def _estimate_utility(runner, canon: dict) -> dict:
    from ..analysis import estimate_utility

    task = build_task(canon)
    estimate = estimate_utility(
        task.protocol,
        task.factory,
        _gamma(canon),
        n_runs=canon["runs"],
        seed=canon["seed"],
        runner=runner,
    )
    return estimate_to_dict(estimate)


def _sweep_strategies(runner, canon: dict) -> dict:
    from ..adversaries import strategy_space_for_protocol
    from ..analysis import assess_protocol

    protocol = _protocol(canon)
    space = strategy_space_for_protocol(protocol)
    assessment = assess_protocol(
        protocol,
        space,
        _gamma(canon),
        canon["runs"],
        seed=canon["seed"],
        runner=runner,
    )
    return assessment_to_dict(assessment)


def _verify_claims(runner, canon: dict) -> dict:
    from ..verify import ClaimConfigError, verify_claims

    try:
        report = verify_claims(
            canon["claims"],
            budget=canon["budget"],
            seed=canon["seed"],
            runner=runner,
        )
    except ClaimConfigError as exc:
        raise ServiceParamError(str(exc))
    return report_to_dict(report)


_HANDLERS = {
    "estimate_utility": _estimate_utility,
    "sweep_strategies": _sweep_strategies,
    "verify_claims": _verify_claims,
}


def run_method(method: str, runner, canon: dict) -> dict:
    """Execute one canonical request on ``runner``; return its artefact."""
    return _HANDLERS[method](runner, canon)


def validate(method: str, canon: dict) -> None:
    """Submission-time existence checks (cheap; no Monte-Carlo work)."""
    if method == "estimate_utility":
        build_task(canon)  # resolves protocol + strategy or raises
    elif method == "sweep_strategies":
        _protocol(canon)
    elif method == "verify_claims":
        from ..verify import ClaimConfigError
        from ..verify.claims import default_registry, resolve_budget

        try:
            resolve_budget(canon["budget"])
            default_registry().select(canon["claims"])
        except ClaimConfigError as exc:
            raise ServiceParamError(str(exc))
