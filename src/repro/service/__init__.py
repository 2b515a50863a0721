"""Fairness-as-a-service: the JSON-RPC job server over the batch runtime.

The whole experiment surface — utility estimation, strategy sweeps,
claim verification — exposed as an async job API (``repro serve``).
Requests canonicalize to content-addressed job keys, so identical
submissions (concurrent, repeated, or racing the CLI) collapse to one
execution and return byte-identical ``deterministic_payload``s; a
per-tenant token bucket and a bounded pending-job pool shed overload as
documented JSON-RPC errors instead of falling over.

Module map: ``wire`` (JSON-RPC envelope + error codes), ``canonical``
(param schemas, canonical forms, job keys), ``ratelimit`` (token
bucket), ``jobs`` (the deduplicating pool and its job processes),
``methods`` (experiment implementations), ``server`` (HTTP front end).
"""

from .canonical import (
    EXPERIMENT_METHODS,
    SERVICE_VERSION,
    ServiceParamError,
    canonicalize,
    job_key,
    job_key_canonical,
)
from .jobs import Job, JobPool, PoolClosed, QueueFull
from .ratelimit import TokenBucket
from .server import ServiceServer

__all__ = [
    "EXPERIMENT_METHODS",
    "SERVICE_VERSION",
    "ServiceParamError",
    "canonicalize",
    "job_key",
    "job_key_canonical",
    "Job",
    "JobPool",
    "PoolClosed",
    "QueueFull",
    "TokenBucket",
    "ServiceServer",
]
