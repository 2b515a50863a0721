"""``runtime.codec`` tests: the chunk-partial codec the stores persist
with, tagged seed values, strategy-name resolution, and the pinned task
fingerprint the service's job keys embed."""

import json
from collections import Counter

import pytest

from repro.adversaries import strategy_space_for_protocol
from repro.core import FairnessEvent
from repro.core.utility import EventCounts
from repro.crypto import Rng
from repro.functions import make_and, make_concat, make_contract_exchange, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    CoinOrderedContractSigning,
    DummyProtocol,
    GordonKatzProtocol,
    GradualReleaseProtocol,
    NaiveContractSigning,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
    UnbalancedOptProtocol,
)
from repro.runtime import ExecutionTask
from repro.runtime.codec import (
    CodecError,
    WireError,
    decode_partial,
    encode_partial,
    resolve_strategy,
    tag_value,
    task_fingerprint,
    untag_value,
)
from repro.service import job_key


class TestPartialCodec:
    def test_int_and_tuple_round_trip(self):
        for part in (0, 17, (1, 2, 3), (0,)):
            assert decode_partial(encode_partial(part)) == part

    def test_bool_rejected(self):
        # bool is an int subclass; letting it through would silently
        # change merge semantics.
        with pytest.raises(WireError):
            encode_partial(True)

    def test_event_counts_round_trip_preserves_key_order(self):
        part = EventCounts()
        # Insertion order matters downstream: estimate_from_counts sums
        # floats in dict order, so the stored form must preserve it.
        part.record(FairnessEvent.E01, frozenset({1}))
        part.record(FairnessEvent.E11, frozenset({0}))
        part.record(FairnessEvent.E01, frozenset({0, 1}))
        part.record(FairnessEvent.E10, frozenset({0}))
        dec = decode_partial(encode_partial(part))
        assert dec == part
        assert list(dec.counts.keys()) == list(part.counts.keys())
        assert list(dec.corruption_counts.keys()) == list(
            part.corruption_counts.keys()
        )

    def test_str_counter_round_trip_preserves_key_order(self):
        part = Counter({"b": 2, "a": 1, "c": 3})
        dec = decode_partial(json.loads(json.dumps(encode_partial(part))))
        assert isinstance(dec, Counter)
        assert list(dec.items()) == list(part.items())

    def test_counter_with_non_str_keys_rejected(self):
        for part in (Counter({1: 2}), Counter({("a",): 1}),
                     Counter({"a": 1.5})):
            with pytest.raises(WireError):
                encode_partial(part)

    def test_wire_form_is_json_safe(self):
        part = EventCounts()
        part.record(FairnessEvent.E00, frozenset({0}))
        wire = encode_partial(part)
        assert json.loads(json.dumps(wire)) == wire

    def test_tag_value_round_trip(self):
        for value in (0, 1, True, False, "0", "text", 2.5, None,
                      (1, "x"), b"\x00\xff", ((0, 1), "nested")):
            assert untag_value(tag_value(value)) == value
        # The int/str/bool distinction survives (encode_seed is
        # type-tagged, so "0", 0, and False must stay distinct).
        assert untag_value(tag_value(0)) is not True
        assert isinstance(untag_value(tag_value("0")), str)
        assert isinstance(untag_value(tag_value(0)), int)
        assert isinstance(untag_value(tag_value(True)), bool)


def _codec_zoo():
    return [
        DummyProtocol(make_swap(8)),
        Opt2SfeProtocol(make_swap(8)),
        GordonKatzProtocol(make_and(), p=2),
        OptNSfeProtocol(make_concat(3, 8)),
        SingleRoundProtocol(make_swap(16)),
        GradualReleaseProtocol(make_and()),
        NaiveContractSigning(make_contract_exchange(16)),
        CoinOrderedContractSigning(make_contract_exchange(16)),
        UnbalancedOptProtocol(make_concat(3, 8)),
        ThresholdGmwProtocol(make_concat(3, 8)),
    ]


class TestResolveStrategy:
    def test_every_protocol_strategy_pair_resolves_by_name(self):
        """Whole-space coverage: every (protocol, strategy) pair the
        search layer can produce rebuilds from its strategy name into a
        task with the same fingerprint and a behaviourally equal
        adversary — the resolution the service builds its tasks with."""
        pairs = 0
        for protocol in _codec_zoo():
            for factory in strategy_space_for_protocol(protocol):
                seed = (3, protocol.name)
                task = ExecutionTask(protocol, factory, n_runs=16, seed=seed)
                again = ExecutionTask(
                    protocol, resolve_strategy(factory.name), n_runs=16,
                    seed=seed,
                )
                assert task_fingerprint(again) == task_fingerprint(task)
                a = factory(Rng("codec-probe"))
                b = again.factory(Rng("codec-probe"))
                assert type(a) is type(b), (protocol.name, factory.name)
                assert a.__dict__ == b.__dict__, (protocol.name, factory.name)
                pairs += 1
        assert pairs > 100  # the space is genuinely broad

    def test_unknown_name_is_a_codec_error(self):
        for name in ("warp[0]", "passive[x]", ""):
            with pytest.raises(CodecError):
                resolve_strategy(name)


class TestPinnedIdentity:
    """Digests pinned from the tree before the codec moved into
    ``runtime.codec``: service job keys and cache entries keyed by them
    must survive refactors byte for byte.  Re-pinned once, when the
    engine-fault element left ``ExecutionTask.cache_material`` (with
    ``CACHE_SCHEMA_VERSION`` 5 and ``SERVICE_VERSION`` 2)."""

    def test_task_fingerprint_is_pinned(self):
        task = ExecutionTask(
            Opt2SfeProtocol(make_swap(8)), resolve_strategy("lock-watch[0]"),
            n_runs=16, seed=(3, "x"),
        )
        assert task_fingerprint(task) == (
            "17157254cfd6e55e09c6c9c1a655373d79c1b64ef21915a6420c292bcff9faea"
        )

    def test_service_job_keys_are_pinned(self):
        assert job_key("estimate_utility", {
            "protocol": "opt-2sfe", "strategy": "lock-watch[0]",
            "runs": 64, "seed": 5,
        }) == "f2cdf6012867fdfbc02e22a2fc7f04fbbefe419a234870b281916ea3885f47a3"
        assert job_key("sweep_strategies", {
            "protocol": "dummy", "runs": 64, "seed": [1, "a"],
        }) == "51c455a5b1ff0c8ff9825af00a35db1926ab7e836011ca3401c31e349694cdf4"

    def test_opaque_task_has_no_fingerprint(self):
        class Opaque:
            n_runs = 8

            def run_chunk(self, start, stop):
                return stop - start

        assert task_fingerprint(Opaque()) is None
