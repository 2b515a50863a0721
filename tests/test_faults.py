"""Engine-level fault injection: deterministic channel/party fault models,
graceful degradation (fallback outputs, HONEST_HUNG classification),
zero-rate no-op guarantees, delayed-delivery semantics, per-attempt
transcript logging, SIGINT handling, and the serial-vs-pool determinism of
faulty batches."""

import random

import pytest

from repro.adversaries import PassiveAdversary, strategy_space_for_protocol
from repro.analysis import (
    fault_sensitivity,
    run_batch,
    to_dict,
)
from repro.core import FairnessEvent, PayoffVector
from repro.core.events import classify
from repro.core.utility import EventCounts, estimate_from_counts
from repro.crypto import Rng
from repro.engine import (
    NO_ENGINE_FAULTS,
    ChannelFaultModel,
    EngineFaults,
    PartyFaultModel,
    run_execution,
)
from repro.engine.party import PartyMachine
from repro.engine.protocol import Protocol
from repro.functions import make_and, make_concat, make_swap
from repro.protocols import (
    DummyProtocol,
    GordonKatzProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
)
from repro.runtime import (
    ExecutionTask,
    ProcessPoolRunner,
    SerialRunner,
)

GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)

def _mixed_faults(seed, loss=0.3, crash=0.2):
    return EngineFaults(
        channel=ChannelFaultModel(
            loss=loss, delay=0.15, duplicate=0.1, broadcast_loss=0.2,
            seed=seed,
        ),
        party=PartyFaultModel(crash_rate=crash, seed=seed),
    )


# -- test protocols ----------------------------------------------------------


class _PingMachine(PartyMachine):
    """Both parties output their own input at round 0; p0 also pings p1.

    The ping is pure extra traffic: honest completion never depends on it,
    which makes the early-exit/delay bookkeeping directly observable.
    """

    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            if self.index == 0:
                ctx.send(1, ("ping", self.input))
            ctx.output(self.input)


class _NeedyMachine(PartyMachine):
    """p1 outputs only once p0's ping arrives; its fallback refuses."""

    def on_round(self, round_no, inbox, ctx):
        if self.index == 0:
            if round_no == 0:
                ctx.send(1, ("ping", self.input))
                ctx.output(self.input)
            return
        payloads = inbox.from_party(0)
        if payloads:
            ctx.output(payloads[0][1])

    def fallback_output(self, ctx):
        if self.index == 1:
            raise RuntimeError("this machine has no default-output path")
        ctx.output_abort()


class _ShoutMachine(PartyMachine):
    """p0 broadcasts its input at round 0; everyone outputs immediately."""

    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            if self.index == 0:
                ctx.broadcast(("shout", self.input))
            ctx.output(self.input)


class _TinyProtocol(Protocol):
    def __init__(self, machine_cls, name, n=2, max_rounds=6):
        self.func = make_swap(4) if n == 2 else make_concat(n, bits=4)
        self.n_parties = n
        self.name = name
        self.max_rounds = max_rounds
        self._cls = machine_cls

    def build_machines(self, rng):
        return [self._cls(i, self.n_parties) for i in range(self.n_parties)]


def ping_protocol(**kw):
    return _TinyProtocol(_PingMachine, "test-ping", **kw)


def needy_protocol(**kw):
    return _TinyProtocol(_NeedyMachine, "test-needy", **kw)


def shout_protocol(n=3, **kw):
    return _TinyProtocol(_ShoutMachine, "test-shout", n=n, **kw)


# -- fault model primitives --------------------------------------------------


class TestChannelFaultModel:
    def test_decisions_are_pure_functions_of_coordinates(self):
        model = ChannelFaultModel(
            loss=0.3, delay=0.3, duplicate=0.3, broadcast_loss=0.4, seed="s"
        )
        for r, s, t, k in [(0, 0, 1, 0), (3, 1, 0, 2), (7, 2, 1, 5)]:
            assert model.bilateral(r, s, t, k) == model.bilateral(r, s, t, k)
            assert model.broadcast(r, s, t, k) == model.broadcast(r, s, t, k)

    def test_distinct_coordinates_vary(self):
        model = ChannelFaultModel(loss=0.5, seed=0)
        actions = {
            model.bilateral(r, 0, 1, k).action
            for r in range(10)
            for k in range(10)
        }
        assert actions == {"deliver", "drop"}

    def test_zero_rates_are_inactive_and_always_deliver(self):
        model = ChannelFaultModel()
        assert not model.active
        assert model.bilateral(0, 0, 1, 0).action == "deliver"
        assert model.broadcast(0, 0, 1, 0).action == "deliver"

    def test_threshold_coupling_nests_drop_sets(self):
        # Same seed, increasing loss: each attempt compares the *same*
        # uniform variate against the two thresholds, so the lower rate's
        # drop set is a subset of the higher rate's.
        low = ChannelFaultModel(loss=0.1, seed="couple")
        high = ChannelFaultModel(loss=0.4, seed="couple")
        coords = [(r, s, 1 - s, k) for r in range(8) for s in (0, 1) for k in range(8)]
        dropped_low = {
            c for c in coords if low.bilateral(*c).action == "drop"
        }
        dropped_high = {
            c for c in coords if high.bilateral(*c).action == "drop"
        }
        assert dropped_low and dropped_low < dropped_high

    def test_delay_bounds_respected(self):
        model = ChannelFaultModel(delay=1.0, max_delay=3, seed=1)
        delays = {
            model.bilateral(r, 0, 1, k).delay
            for r in range(6)
            for k in range(6)
        }
        assert delays <= {1, 2, 3} and len(delays) > 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChannelFaultModel(loss=1.5)
        with pytest.raises(ValueError):
            ChannelFaultModel(duplicate=-0.1)
        with pytest.raises(ValueError):
            ChannelFaultModel(max_delay=0)


class TestPartyFaultModel:
    def test_scheduled_crashes_pin_the_round(self):
        model = PartyFaultModel(scheduled={1: 4})
        assert model.active
        assert model.crash_round(1, max_rounds=10) == 4
        assert model.crash_round(0, max_rounds=10) is None

    def test_zero_rate_never_crashes(self):
        model = PartyFaultModel()
        assert not model.active
        assert model.crash_round(0, max_rounds=10) is None

    def test_certain_crash_lands_in_round_range(self):
        model = PartyFaultModel(crash_rate=1.0, seed=3)
        for party in range(5):
            r = model.crash_round(party, max_rounds=7)
            assert r is not None and 0 <= r < 7

    def test_crash_round_is_deterministic(self):
        model = PartyFaultModel(crash_rate=0.5, seed="det")
        rounds = [model.crash_round(p, 9) for p in range(10)]
        assert rounds == [model.crash_round(p, 9) for p in range(10)]
        assert any(r is not None for r in rounds)
        assert any(r is None for r in rounds)


class TestEngineFaults:
    def test_active_reflects_components(self):
        assert not NO_ENGINE_FAULTS.active
        assert not EngineFaults(
            channel=ChannelFaultModel(), party=PartyFaultModel()
        ).active
        assert EngineFaults(channel=ChannelFaultModel(loss=0.1)).active
        assert EngineFaults(party=PartyFaultModel(scheduled={0: 1})).active

    def test_seeded_resalts_but_preserves_rates(self):
        faults = _mixed_faults("base")
        salted = faults.seeded(b"\x01\x02")
        assert salted.channel.loss == faults.channel.loss
        assert salted.party.crash_rate == faults.party.crash_rate
        assert salted.channel.seed != faults.channel.seed
        assert salted.seeded(b"\x01\x02") == faults.seeded(b"\x01\x02").seeded(
            b"\x01\x02"
        )

    def test_to_dict_records_the_configuration(self):
        out = _mixed_faults("cfg").to_dict()
        assert out["channel"]["loss"] == 0.3
        assert out["party"]["crash_rate"] == 0.2
        assert "seed" in out["channel"] and "seed" in out["party"]
        assert NO_ENGINE_FAULTS.to_dict() == {}

# -- zero-rate faults: strict no-op -----------------------------------------


class TestZeroRateNoOp:
    def test_single_execution_bit_identical(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        zero = EngineFaults(
            channel=ChannelFaultModel(), party=PartyFaultModel()
        )
        plain = run_execution(protocol, (3, 9), PassiveAdversary(), Rng("z"))
        faulted = run_execution(
            protocol, (3, 9), PassiveAdversary(), Rng("z"), faults=zero
        )
        assert plain.outputs == faulted.outputs
        assert plain.transcript == faulted.transcript
        assert plain.rounds_used == faulted.rounds_used
        assert not faulted.crashed and not faulted.hung
        assert not faulted.fault_events

    @pytest.mark.parametrize(
        "faults",
        [
            NO_ENGINE_FAULTS,
            EngineFaults(channel=ChannelFaultModel(), party=PartyFaultModel()),
        ],
        ids=["bare", "zero-rate-models"],
    )
    def test_batch_counts_identical_to_no_faults(self, faults):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[1]
        base = run_batch(protocol, factory, 40, seed=3)
        again = run_batch(protocol, factory, 40, seed=3, faults=faults)
        assert again == base
        assert again.counts[FairnessEvent.HONEST_HUNG] == 0


# -- graceful degradation ----------------------------------------------------


class TestGracefulDegradation:
    @pytest.mark.parametrize(
        "protocol",
        [
            Opt2SfeProtocol(make_swap(8)),
            OptNSfeProtocol(make_concat(3, bits=4)),
            GordonKatzProtocol(make_and(), p=2),
        ],
        ids=["opt-2sfe", "opt-nsfe", "gk"],
    )
    def test_lossy_batches_never_raise(self, protocol):
        factory = strategy_space_for_protocol(protocol)[1]
        faults = _mixed_faults("lossy", loss=0.4)
        counts = run_batch(protocol, factory, 40, seed=7, faults=faults)
        assert counts.total == 40
        assert all(c >= 0 for c in counts.counts.values())

    def test_total_loss_falls_back_instead_of_hanging(self):
        # opt-2sfe needs its channel: with every message dropped, both
        # parties detect the stall and take their fallback path — the run
        # completes without a ProtocolViolation.
        protocol = Opt2SfeProtocol(make_swap(8))
        faults = EngineFaults(channel=ChannelFaultModel(loss=1.0, seed=1))
        result = run_execution(
            protocol, (3, 9), PassiveAdversary(), Rng("total"), faults=faults
        )
        assert not result.hung
        assert result.fault_events.get("dropped", 0) > 0
        assert set(result.outputs) == {0, 1}

    def test_refused_fallback_is_a_hung_party_not_an_error(self):
        protocol = needy_protocol()
        faults = EngineFaults(channel=ChannelFaultModel(loss=1.0, seed=2))
        result = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("hung"), faults=faults
        )
        assert result.hung == {1}
        assert result.fault_events.get("fallback_errors", 0) == 1
        assert 1 not in result.outputs
        assert not result.all_honest_received()
        assert classify(result, protocol.func) is FairnessEvent.HONEST_HUNG

    def test_run_chunk_classifies_hung_runs(self):
        protocol = needy_protocol()
        faults = EngineFaults(channel=ChannelFaultModel(loss=1.0, seed=2))
        task = ExecutionTask(
            protocol, strategy_space_for_protocol(protocol)[0], 10, 0,
            None, faults,
        )
        counts = task.run_chunk(0, 10)
        assert counts.total == 10
        assert counts.counts[FairnessEvent.HONEST_HUNG] == 10

    def test_hung_event_pays_gamma00(self):
        gamma = PayoffVector(0.3, 0.0, 1.0, 0.5)
        assert gamma.value(FairnessEvent.HONEST_HUNG) == gamma.gamma00
        counts = EventCounts()
        for _ in range(4):
            counts.record(FairnessEvent.HONEST_HUNG, frozenset({0}))
        estimate = estimate_from_counts(counts, gamma)
        assert estimate.mean == pytest.approx(0.3)


class TestCrashStop:
    def test_scheduled_crash_is_recorded_and_excluded(self):
        protocol = ping_protocol()
        faults = EngineFaults(party=PartyFaultModel(scheduled={0: 0}))
        result = run_execution(
            protocol, (5, 6), PassiveAdversary(), Rng("crash"), faults=faults
        )
        assert result.crashed == {0}
        assert result.fault_events.get("crashes") == 1
        assert 0 not in result.outputs  # crashed before outputting
        assert result.surviving_honest == {1}
        assert not result.hung  # a crashed party is not a hung one

    def test_crashed_party_sends_nothing(self):
        protocol = ping_protocol()
        faults = EngineFaults(party=PartyFaultModel(scheduled={0: 0}))
        result = run_execution(
            protocol, (5, 6), PassiveAdversary(), Rng("mute"), faults=faults
        )
        assert not any(m.sender == 0 for m in result.transcript)

    def test_post_output_crash_keeps_the_output(self):
        protocol = ping_protocol()
        faults = EngineFaults(party=PartyFaultModel(scheduled={0: 1}))
        result = run_execution(
            protocol, (5, 6), PassiveAdversary(), Rng("late"), faults=faults
        )
        # p0 output in round 0, crashed from round 1 on: the output stands.
        assert 0 in result.outputs and result.outputs[0].value == 5

    def test_all_honest_received_ranges_over_survivors(self):
        protocol = ping_protocol()
        faults = EngineFaults(party=PartyFaultModel(scheduled={0: 0}))
        result = run_execution(
            protocol, (5, 6), PassiveAdversary(), Rng("surv"), faults=faults
        )
        # p1 (the only survivor) output fine, so the predicate holds even
        # though the crashed p0 never produced anything.
        assert result.all_honest_received()


# -- delayed delivery --------------------------------------------------------


class TestDelayedDelivery:
    def test_delay_blocks_early_exit_until_landing(self):
        protocol = ping_protocol()
        lossless = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("d")
        )
        # Both parties output in round 0; the in-flight ping blocks the
        # exit for exactly one extra round.
        assert lossless.rounds_used == 2

        faults = EngineFaults(
            channel=ChannelFaultModel(delay=1.0, max_delay=1, seed=0)
        )
        delayed = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("d"), faults=faults
        )
        # Delayed by one round: one round for the message to land, one for
        # it to be consumed — the early exit must wait for both.
        assert delayed.rounds_used == 3
        assert delayed.fault_events == {"delayed": 1}
        assert delayed.outputs == lossless.outputs

    def test_delayed_message_logged_once_with_annotation(self):
        protocol = ping_protocol()
        faults = EngineFaults(
            channel=ChannelFaultModel(delay=1.0, max_delay=1, seed=0)
        )
        result = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("d"), faults=faults
        )
        pings = [m for m in result.transcript if m.sender == 0]
        assert len(pings) == 1
        assert pings[0].annotation == "delayed+1"
        assert pings[0].delivered  # a delayed message still arrives

    def test_overshooting_delay_becomes_a_drop(self):
        protocol = ping_protocol(max_rounds=1)
        faults = EngineFaults(
            channel=ChannelFaultModel(delay=1.0, max_delay=3, seed=5)
        )
        result = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("o"), faults=faults
        )
        pings = [m for m in result.transcript if m.sender == 0]
        assert len(pings) == 1
        assert pings[0].annotation == "dropped"
        assert not pings[0].delivered
        assert result.fault_events == {"dropped": 1}


# -- per-attempt transcript logging (double-count regression) ----------------


class TestTranscriptAttempts:
    def test_duplicate_logged_once_per_delivered_copy(self):
        protocol = ping_protocol()
        faults = EngineFaults(
            channel=ChannelFaultModel(duplicate=1.0, seed=0)
        )
        result = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("dup"), faults=faults
        )
        pings = [m for m in result.transcript if m.sender == 0]
        assert [m.annotation for m in pings] == [None, "duplicate"]
        assert result.fault_events == {"duplicated": 1}

    def test_dropped_message_logged_exactly_once(self):
        protocol = ping_protocol()
        faults = EngineFaults(channel=ChannelFaultModel(loss=1.0, seed=0))
        result = run_execution(
            protocol, (1, 2), PassiveAdversary(), Rng("drop"), faults=faults
        )
        pings = [m for m in result.transcript if m.sender == 0]
        assert len(pings) == 1
        assert pings[0].annotation == "dropped"

    def test_broadcast_logged_per_receiver_under_channel_faults(self):
        protocol = shout_protocol(n=3)
        faults = EngineFaults(
            channel=ChannelFaultModel(broadcast_loss=0.5, seed="b")
        )
        result = run_execution(
            protocol, (1, 2, 3), PassiveAdversary(), Rng("bc"), faults=faults
        )
        attempts = [m for m in result.transcript if m.broadcast]
        # One broadcast, two receivers: exactly one attempt entry each,
        # with its concrete receiver filled in.
        assert sorted(m.receiver for m in attempts) == [1, 2]
        assert all(
            m.annotation in (None, "dropped") for m in attempts
        )
        delivered = {m.receiver for m in attempts if m.delivered}
        dropped = {m.receiver for m in attempts if not m.delivered}
        assert delivered | dropped == {1, 2}
        assert result.fault_events.get("broadcast_dropped", 0) == len(dropped)

    def test_lossless_broadcast_keeps_single_entry(self):
        protocol = shout_protocol(n=3)
        result = run_execution(
            protocol, (1, 2, 3), PassiveAdversary(), Rng("bc0")
        )
        attempts = [m for m in result.transcript if m.broadcast]
        assert len(attempts) == 1 and attempts[0].receiver is None


# -- determinism: replay, serial vs pool, seeded property sweep --------------


class TestFaultyDeterminism:
    def test_single_execution_replays_bit_identically(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        faults = _mixed_faults("replay")
        runs = [
            run_execution(
                protocol, (3, 9), PassiveAdversary(), Rng("r"), faults=faults
            )
            for _ in range(2)
        ]
        assert runs[0].transcript == runs[1].transcript
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].crashed == runs[1].crashed
        assert runs[0].fault_events == runs[1].fault_events

    def test_chunk_partition_is_invisible_under_faults(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[1]
        task = ExecutionTask(
            protocol, factory, 30, seed=9, input_sampler=None,
            faults=_mixed_faults("chunk"),
        )
        whole = task.run_chunk(0, 30)
        pieces = task.run_chunk(0, 11) + task.run_chunk(11, 30)
        assert whole == pieces

    def test_serial_and_pool_agree_on_faulty_batches(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[2]
        faults = _mixed_faults("pool", loss=0.4)
        serial = run_batch(protocol, factory, 60, seed=11, faults=faults)
        parallel = run_batch(
            protocol, factory, 60, seed=11, faults=faults,
            runner=ProcessPoolRunner(2, chunk_size=13, min_parallel_runs=0),
        )
        assert serial == parallel
        assert (
            serial.counts[FairnessEvent.HONEST_HUNG]
            == parallel.counts[FairnessEvent.HONEST_HUNG]
        )
        assert parallel.total == 60

    def test_random_triples_terminate_and_never_raise(self):
        # Property sweep over 200 random (protocol, adversary, fault_seed)
        # triples: every faulty execution terminates within the round
        # bound and raises nothing out of run_execution.
        protocols = [
            Opt2SfeProtocol(make_swap(8)),
            OptNSfeProtocol(make_concat(3, bits=4)),
            DummyProtocol(make_swap(8)),
            ping_protocol(),
            needy_protocol(),
        ]
        spaces = [strategy_space_for_protocol(p) for p in protocols]
        for trial in range(200):
            rnd = random.Random(trial)
            pi = rnd.randrange(len(protocols))
            protocol = protocols[pi]
            factory = rnd.choice(spaces[pi])
            faults = _mixed_faults(
                ("prop", trial),
                loss=rnd.choice([0.05, 0.2, 0.5]),
                crash=rnd.choice([0.0, 0.1, 0.3]),
            )
            rng = Rng(("prop-run", trial))
            inputs = protocol.func.sample_inputs(rng.fork("inputs"))
            adversary = factory(rng.fork("adversary"))
            result = run_execution(
                protocol, inputs, adversary, rng.fork("exec"), faults=faults
            )
            assert result.rounds_used <= protocol.max_rounds
            assert result.hung <= result.honest
            assert result.crashed <= set(range(protocol.n_parties))


# -- SIGINT handling ---------------------------------------------------------


class _InterruptingTask:
    """A mergeable task whose chunk containing ``boom_at`` raises Ctrl-C."""

    label = "interrupting"

    def __init__(self, n_runs, boom_at):
        self.n_runs = n_runs
        self.boom_at = boom_at

    def run_chunk(self, start, stop):
        if start <= self.boom_at < stop:
            raise KeyboardInterrupt()
        counts = EventCounts()
        for _ in range(start, stop):
            counts.record(FairnessEvent.E11, frozenset({0}))
        return counts


class TestKeyboardInterrupt:
    def test_serial_runner_reraises_with_stats_attached(self):
        runner = SerialRunner(chunk_size=10)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            runner.run([_InterruptingTask(50, boom_at=25)])
        assert runner.last_stats is not None
        assert excinfo.value.run_stats is runner.last_stats
        assert runner.last_stats.backend == "serial"

    def test_pool_runner_cancels_and_reraises_with_stats(self):
        runner = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        tasks = [
            _InterruptingTask(30, boom_at=5),
            _InterruptingTask(30, boom_at=10**9),
        ]
        with pytest.raises(KeyboardInterrupt) as excinfo:
            runner.run(tasks)
        stats = excinfo.value.run_stats
        assert stats is runner.last_stats
        assert stats.backend == "process-pool"
        # Every chunk the interrupt dropped on the floor is accounted for.
        assert stats.cancelled_chunks >= 1

    def test_uninterrupted_pool_runs_have_no_cancellations(self):
        runner = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        task = _InterruptingTask(30, boom_at=10**9)
        values = runner.run([task])
        assert values[0].total == 30
        assert runner.last_stats.cancelled_chunks == 0

    def test_venues_report_identical_cancelled_counts(self):
        """Regression: the serial venue used to drop planned-but-unrun
        spans from the log entirely on Ctrl-C, so its partial RunStats
        silently overstated coverage relative to the pool venue.  Both
        must now account the same interrupt point identically."""

        def tasks():
            return [
                _InterruptingTask(50, boom_at=25),
                _InterruptingTask(30, boom_at=10**9),
            ]

        serial = SerialRunner(chunk_size=10)
        with pytest.raises(KeyboardInterrupt):
            serial.run(tasks())
        pooled = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        with pytest.raises(KeyboardInterrupt):
            pooled.run(tasks())
        assert serial.last_stats.cancelled_chunks > 0
        assert (
            serial.last_stats.cancelled_chunks
            == pooled.last_stats.cancelled_chunks
        )


# -- fault-sensitivity experiment --------------------------------------------


class TestFaultSensitivity:
    def _curve(self):
        protocol = DummyProtocol(make_swap(8))
        factories = strategy_space_for_protocol(protocol)[:2]
        return fault_sensitivity(
            protocol,
            factories,
            GAMMA,
            loss_rates=(0.0, 0.6),
            crash_rates=(0.0,),
            n_runs=20,
            seed=13,
            fault_seed="fs",
        )

    def test_curve_shape_and_baseline(self):
        curve = self._curve()
        assert len(curve.points) == 2
        baseline = curve.baseline
        assert baseline is not None
        assert baseline.loss == 0.0 and baseline.crash_rate == 0.0
        assert baseline.faults is None
        assert curve.erosion(baseline) == 0.0
        lossy = curve.points[1]
        assert lossy.faults is not None and lossy.faults.channel.loss == 0.6
        assert set(curve.hung_fractions()) == {(0.0, 0.0), (0.6, 0.0)}

    def test_export_round_trips_the_fault_config(self):
        payload = to_dict(self._curve())
        assert payload["protocol"].startswith("dummy-fair")
        assert len(payload["points"]) == 2
        base, lossy = payload["points"]
        assert base["faults"] == {} and base["erosion"] == 0.0
        assert lossy["faults"]["channel"]["loss"] == 0.6
        assert {"loss", "crash_rate", "utility", "hung_fraction", "best",
                "estimates", "faults", "erosion"} <= set(lossy)

    def test_empty_strategy_space_rejected(self):
        protocol = DummyProtocol(make_swap(8))
        with pytest.raises(ValueError):
            fault_sensitivity(protocol, [], GAMMA)
