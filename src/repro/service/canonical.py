"""Request canonicalization and content-addressed job keys.

Every experiment method has a declarative parameter schema: required
fields, defaults, and a normalizer per field.  :func:`canonicalize`
folds an incoming JSON-RPC ``params`` object onto that schema — unknown
fields are rejected, omitted optionals take their defaults, and each
value is reduced to one canonical Python form (seed lists become tuples,
tagged seed dicts are decoded through ``runtime.codec``, γ vectors
become 4-tuples of floats).  Two requests that mean the same experiment
therefore canonicalize to the same dict regardless of key order or
explicitly-spelled defaults.

:func:`job_key` then hashes the canonical form through
:func:`~repro.crypto.prf.encode_seed` — the same injective type-tagged
encoder underneath the chunk cache, the run journal, and the codec's
``task_fingerprint`` — into a hex job key.  For ``estimate_utility`` the
key embeds the *task fingerprint itself* (the chunk cache's identity for
the batch), so a service job and a CLI run of the same logical task
share cache entries byte-for-byte; the Hypothesis suite pins this
equality.  ``cache_material`` deliberately excludes ``n_runs`` and γ
(chunks are span-keyed, payoffs fold downstream), so the job key adds
both on top.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..core.payoff import PayoffVector
from ..crypto.prf import encode_seed
from ..runtime.codec import (
    CodecError,
    resolve_strategy,
    tag_value,
    task_fingerprint,
    untag_value,
)
from ..runtime.tasks import ExecutionTask

#: Versions the job-key scheme: bump when canonical forms or key
#: material change, so stale clients cannot collide with new keys.
SERVICE_VERSION = 2

#: The CLI's default γ (see ``cli.build_parser``): γ00,γ01,γ10,γ11.
DEFAULT_GAMMA = (0.0, 0.0, 1.0, 0.5)

#: The experiment (job-submitting) methods, in documentation order.
EXPERIMENT_METHODS = (
    "estimate_utility",
    "sweep_strategies",
    "verify_claims",
)


class ServiceParamError(ValueError):
    """Request params failed validation; maps to JSON-RPC INVALID_PARAMS."""


_REQUIRED = object()


def _reject_bool(name: str, value):
    if isinstance(value, bool):
        raise ServiceParamError(f"{name!r} must not be a boolean")


def _norm_name(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ServiceParamError(f"{name!r} must be a non-empty string")
    return value


def _norm_positive_int(name: str, value) -> int:
    _reject_bool(name, value)
    if not isinstance(value, int) or value < 1:
        raise ServiceParamError(f"{name!r} must be a positive integer")
    return value


def _norm_parties(name: str, value) -> int:
    _reject_bool(name, value)
    if not isinstance(value, int) or value < 2:
        raise ServiceParamError(f"{name!r} must be an integer >= 2")
    return value


def _norm_gamma(name: str, value) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ServiceParamError(
            f"{name!r} must be four numbers [γ00, γ01, γ10, γ11]"
        )
    parts = []
    for x in value:
        _reject_bool(name, x)
        if not isinstance(x, (int, float)):
            raise ServiceParamError(f"{name!r} components must be numbers")
        parts.append(float(x))
    vec = PayoffVector(*parts)
    if not vec.in_gamma_fair():
        raise ServiceParamError(
            f"{name!r} is outside Γfair (need γ01 <= γ00,γ11 <= γ10 "
            "with γ01 < γ10)"
        )
    return tuple(parts)


def _norm_seed(name: str, value):
    """Reduce a JSON seed to the runtime's canonical composite form.

    Accepts the scalar forms (int, str), arrays (composite seeds — the
    ``(seed, label)`` tuples the CLI builds), and the codec's tagged-dict
    form (``{"t": "int", "v": "5"}``) for clients round-tripping seeds
    they read off the wire.  Arrays become tuples recursively, so a JSON
    list and the Python tuple it denotes share one key.
    """
    if isinstance(value, dict):
        try:
            value = untag_value(value)
        except CodecError as exc:
            raise ServiceParamError(f"{name!r}: {exc}")
    value = _listless(name, value)
    try:
        tag_value(value)
    except CodecError as exc:
        raise ServiceParamError(f"{name!r}: {exc}")
    return value


def _listless(name: str, value):
    _reject_bool(name, value)
    if isinstance(value, (list, tuple)):
        return tuple(_listless(name, v) for v in value)
    if isinstance(value, float) and value.is_integer():
        # JSON has one number type; 5.0 over the wire means the int 5.
        return int(value)
    return value


_Normalizer = Callable[[str, object], object]
_Schema = Tuple[Tuple[str, object, _Normalizer], ...]

#: Field order is the canonical (and key-material) order.
METHOD_SCHEMAS: Dict[str, _Schema] = {
    "estimate_utility": (
        ("protocol", _REQUIRED, _norm_name),
        ("strategy", _REQUIRED, _norm_name),
        ("gamma", DEFAULT_GAMMA, _norm_gamma),
        ("runs", 400, _norm_positive_int),
        ("seed", 0, _norm_seed),
        ("parties", 2, _norm_parties),
    ),
    "sweep_strategies": (
        ("protocol", _REQUIRED, _norm_name),
        ("gamma", DEFAULT_GAMMA, _norm_gamma),
        ("runs", 400, _norm_positive_int),
        ("seed", 0, _norm_seed),
        ("parties", 2, _norm_parties),
    ),
    "verify_claims": (
        ("claims", "all", _norm_name),
        ("budget", "medium", _norm_name),
        ("seed", "verify", _norm_seed),
    ),
}


def canonicalize(method: str, params: dict) -> dict:
    """Fold ``params`` onto the method's schema; raise on anything off it.

    Returns a new dict whose keys follow schema order and whose values
    are in canonical form — the input for :func:`job_key_canonical` and
    the shape ``service.methods`` executes from.
    """
    schema = METHOD_SCHEMAS.get(method)
    if schema is None:
        raise KeyError(method)
    if not isinstance(params, dict):
        raise ServiceParamError("params must be an object")
    known = {name for name, _, _ in schema}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ServiceParamError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))}; "
            f"{method} accepts: {', '.join(sorted(known))}"
        )
    canon = {}
    for name, default, norm in schema:
        if name in params:
            canon[name] = norm(name, params[name])
        elif default is _REQUIRED:
            raise ServiceParamError(f"missing required parameter {name!r}")
        else:
            canon[name] = default
    return canon


def build_task(canon: dict) -> ExecutionTask:
    """The ``estimate_utility`` batch a canonical request denotes.

    Resolves the protocol through the CLI registry and the strategy
    through ``runtime.codec``, so the task is *the same object
    graph* a ``repro estimate`` run would execute — which is what makes
    the job key's embedded ``task_fingerprint`` collide with the chunk
    cache's, deduping service jobs against CLI runs for free.
    """
    from ..cli import _protocol_registry  # lazy: cli imports analysis

    registry = _protocol_registry(canon["parties"])
    protocol = registry.get(canon["protocol"])
    if protocol is None:
        raise ServiceParamError(
            f"unknown protocol {canon['protocol']!r}; available: "
            f"{', '.join(sorted(registry))}"
        )
    try:
        factory = resolve_strategy(canon["strategy"])
    except CodecError as exc:
        raise ServiceParamError(str(exc))
    return ExecutionTask(protocol, factory, canon["runs"], seed=canon["seed"])


def _material(canon: dict) -> tuple:
    return tuple((name, value) for name, value in canon.items())


def job_key_canonical(method: str, canon: dict) -> str:
    """Content-addressed job key for an already-canonical request."""
    if method == "estimate_utility":
        fingerprint = task_fingerprint(build_task(canon))
        if fingerprint is None:
            raise ServiceParamError(
                "request has no stable content fingerprint"
            )
        material = ("task", fingerprint, canon["runs"], canon["gamma"])
    else:
        material = ("params", _material(canon))
    return encode_seed(
        ("service-job", SERVICE_VERSION, method, material)
    ).hex()


def job_key(method: str, params: dict) -> str:
    """Canonicalize and key one request (the one-call convenience)."""
    return job_key_canonical(method, canonicalize(method, params))
