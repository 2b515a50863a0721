"""Hypothesis property suite for service request canonicalization.

The job-key contract the service documents: a key is a pure function of
the *meaning* of a request — invariant under JSON key order and under
spelling defaults out explicitly — and injective across requests that
mean different experiments.  For ``estimate_utility`` the key embeds
the codec's ``task_fingerprint`` of the canonical
:class:`~repro.runtime.tasks.ExecutionTask`, which is exactly the
identity the chunk cache and run journal fingerprint, so a service job
and a CLI run of the same logical task collide in the cache (the
dedupe-across-venues property).
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import strategy_space_for_protocol
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import ExecutionTask
from repro.runtime.cache import chunk_key
from repro.runtime.codec import resolve_strategy, task_fingerprint
from repro.service import canonicalize, job_key, job_key_canonical
from repro.service.canonical import DEFAULT_GAMMA, METHOD_SCHEMAS

PROTOCOLS = ("opt-2sfe", "single-round", "gradual-release", "dummy",
             "gk-and-p2", "gk-and-p4")
STRATEGIES = ("passive[0]", "lock-watch[0]", "lock-watch[1]",
              "abort@r3[0]", "lw2")

#: Γfair corners/means to draw gammas from (all satisfy in_gamma_fair).
GAMMAS = (
    list(DEFAULT_GAMMA),
    [0.0, -1.0, 1.0, 0.0],
    [0.25, 0.0, 1.0, 0.75],
    [0.5, -0.5, 2.0, 1.0],
)

seeds = st.recursive(
    st.integers(-(2 ** 31), 2 ** 31) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)

estimate_params = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(PROTOCOLS),
        "strategy": st.sampled_from(STRATEGIES),
    },
    optional={
        "gamma": st.sampled_from(GAMMAS),
        "runs": st.integers(1, 10_000),
        "seed": seeds,
        "parties": st.just(2),
    },
)


def _permuted(params, rng_order):
    items = sorted(params.items())
    rng_order = rng_order % max(1, len(items))
    rotated = items[rng_order:] + items[:rng_order]
    return dict(rotated)


class TestKeyStability:
    @given(estimate_params, st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_key_invariant_under_key_order(self, params, rotation):
        assert job_key("estimate_utility", params) == job_key(
            "estimate_utility", _permuted(params, rotation)
        )

    @given(estimate_params)
    @settings(max_examples=40, deadline=None)
    def test_key_invariant_under_default_elision(self, params):
        """Spelling a default out explicitly never changes the key."""
        explicit = dict(params)
        for name, default, _ in METHOD_SCHEMAS["estimate_utility"]:
            if name in explicit:
                continue
            if name == "gamma":
                explicit[name] = list(default)
            else:
                explicit[name] = default
        assert job_key("estimate_utility", params) == job_key(
            "estimate_utility", explicit
        )

    @given(estimate_params)
    @settings(max_examples=40, deadline=None)
    def test_key_is_round_trip_stable(self, params):
        """Canonicalize → key twice = canonicalize once → key."""
        canon = canonicalize("estimate_utility", params)
        assert job_key_canonical("estimate_utility", canon) == job_key(
            "estimate_utility", params
        )

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_list_and_tuple_seeds_share_a_key(self, seed):
        def tupled(value):
            if isinstance(value, list):
                return tuple(tupled(v) for v in value)
            return value

        base = {"protocol": "opt-2sfe", "strategy": "lock-watch[0]"}
        a = job_key("estimate_utility", dict(base, seed=seed))
        b = job_key("estimate_utility", dict(base, seed=tupled(seed)))
        assert a == b


class TestKeyInjectivity:
    @given(estimate_params, estimate_params)
    @settings(max_examples=60, deadline=None)
    def test_distinct_canonical_requests_get_distinct_keys(self, a, b):
        ca = canonicalize("estimate_utility", a)
        cb = canonicalize("estimate_utility", b)
        ka = job_key_canonical("estimate_utility", ca)
        kb = job_key_canonical("estimate_utility", cb)
        assert (ka == kb) == (ca == cb)

    def test_methods_never_collide(self):
        """The same params under different methods key differently."""
        canon = canonicalize(
            "sweep_strategies", {"protocol": "opt-2sfe", "runs": 64, "seed": 5}
        )
        assert job_key_canonical("sweep_strategies", canon) != (
            job_key_canonical("verify_claims", canon)
        )

    @given(st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_seed_type_distinguishes_keys(self, a, b):
        """An int seed and its string spelling are different requests
        (encode_seed is type-tagged, and the key inherits that)."""
        base = {"protocol": "opt-2sfe", "strategy": "lock-watch[0]"}
        ka = job_key("estimate_utility", dict(base, seed=a))
        kb = job_key("estimate_utility", dict(base, seed=str(b)))
        assert ka != kb


class TestFingerprintEquality:
    """The job key embeds the batch runtime's own cache fingerprint."""

    @given(estimate_params)
    @settings(max_examples=30, deadline=None)
    def test_service_task_matches_direct_task_fingerprint(self, params):
        from repro.service.canonical import build_task

        canon = canonicalize("estimate_utility", params)
        service_task = build_task(canon)

        direct_task = ExecutionTask(
            service_task.protocol,
            resolve_strategy(canon["strategy"]),
            canon["runs"],
            seed=canon["seed"],
        )
        fp = task_fingerprint(service_task)
        assert fp is not None
        assert fp == task_fingerprint(direct_task)

    @given(st.integers(0, 2 ** 31), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_chunk_cache_keys_collide_across_venues(self, seed, span_index):
        """A service-built task and the equivalent library-built task
        produce identical chunk-cache keys span for span — the property
        that lets a warm CLI cache serve service jobs bit-identically."""
        canon = canonicalize("estimate_utility", {
            "protocol": "opt-2sfe",
            "strategy": "lock-watch[0]",
            "runs": 64,
            "seed": seed,
        })
        from repro.service.canonical import build_task

        service_task = build_task(canon)
        protocol = Opt2SfeProtocol(make_swap(16))
        factory = next(f for f in strategy_space_for_protocol(protocol)
                       if f.name == "lock-watch[0]")
        direct_task = ExecutionTask(protocol, factory, 64, seed=seed)

        start, stop = span_index * 16, span_index * 16 + 16
        service_key = chunk_key(service_task, start, stop)
        direct_key = chunk_key(direct_task, start, stop)
        assert service_key is not None
        assert service_key == direct_key

    def test_key_versions_the_scheme(self):
        """Bumping SERVICE_VERSION must move every key (guards against
        silently reusing stale keys after a schema change)."""
        from repro.service import canonical as mod

        params = {"protocol": "opt-2sfe", "strategy": "lock-watch[0]"}
        before = job_key("estimate_utility", params)
        original = mod.SERVICE_VERSION
        mod.SERVICE_VERSION = original + 1
        try:
            after = job_key("estimate_utility", params)
        finally:
            mod.SERVICE_VERSION = original
        assert before != after
