"""Execution-engine semantics: rounds, rushing, corruption, hybrids."""

import pytest

from repro.adversaries.base import MachineDrivingAdversary
from repro.crypto import Rng
from repro.engine import (
    ABORT,
    Adversary,
    Execution,
    Inbox,
    Message,
    OUTPUT_ABORT,
    OUTPUT_DEFAULT,
    OUTPUT_REAL,
    OutputRecord,
    PartyContext,
    PartyMachine,
    Protocol,
    ProtocolViolation,
    run_execution,
)
from repro.engine.party import HonestRunner
from repro.functionalities.base import Functionality
from repro.functions import make_xor


class PingPongMachine(PartyMachine):
    """Round 0: send input to peer.  Round 1: output received value."""

    def on_round(self, round_no, inbox, ctx):
        other = 1 - self.index
        if round_no == 0:
            ctx.send(other, self.input)
        elif round_no == 1:
            payload = inbox.one_from_party(other)
            if payload is None:
                ctx.output_abort()
            else:
                ctx.output(payload)


class PingPongProtocol(Protocol):
    name = "ping-pong"
    n_parties = 2
    max_rounds = 2

    def __init__(self):
        self.func = make_xor()  # placeholder spec

    def build_machines(self, rng):
        return [PingPongMachine(i, 2) for i in range(2)]


class SlowRelayMachine(PartyMachine):
    """Round 0: send input.  Round 2: output what arrived (⊥ if nothing)."""

    def on_round(self, round_no, inbox, ctx):
        other = 1 - self.index
        if round_no == 0:
            ctx.send(other, self.input)
        elif round_no == 1:
            self.received = inbox.one_from_party(other)
        elif round_no == 2:
            if self.received is None:
                ctx.output_abort()
            else:
                ctx.output(self.received)


class SlowRelayProtocol(PingPongProtocol):
    name = "slow-relay"
    max_rounds = 3

    def build_machines(self, rng):
        return [SlowRelayMachine(i, 2) for i in range(2)]


class RngHoldingMachine(PingPongMachine):
    """Keeps a reference to the RNG its runner draws from."""

    def __init__(self, index, n, rng):
        super().__init__(index, n)
        self.rng = rng


class EchoFunctionality(Functionality):
    name = "F_echo"

    def invoke(self, inputs, adversary, rng, n):
        return {i: ("echo", payload) for i, payload in inputs.items()}


class HybridMachine(PartyMachine):
    def on_round(self, round_no, inbox, ctx):
        if round_no == 0:
            ctx.call("F_echo", self.input)
        elif round_no == 1:
            ctx.output(inbox.from_functionality("F_echo"))


class HybridProtocol(Protocol):
    name = "hybrid-echo"
    n_parties = 2
    max_rounds = 2

    def __init__(self):
        self.func = make_xor()

    def build_machines(self, rng):
        return [HybridMachine(i, 2) for i in range(2)]

    def build_functionalities(self, rng):
        return {"F_echo": EchoFunctionality()}


class TestMessagesAndInbox:
    def test_one_from_party(self):
        inbox = Inbox([Message(0, 1, "hello", 0)])
        assert inbox.one_from_party(0) == "hello"
        assert inbox.one_from_party(1) is None

    def test_from_functionality(self):
        inbox = Inbox([Message("F_x", 0, 42, 1)])
        assert inbox.from_functionality("F_x") == 42
        assert inbox.from_functionality("F_y") is None

    def test_broadcasts(self):
        inbox = Inbox(
            [Message(0, None, "b", 0, broadcast=True), Message(0, 1, "p", 0)]
        )
        assert len(inbox.broadcasts()) == 1

    def test_abort_singleton(self):
        import copy

        assert copy.deepcopy(ABORT) is ABORT
        assert repr(ABORT) == "⊥"


class TestPartyContext:
    def test_send_validation(self):
        ctx = PartyContext(0, 2, 0, Rng(1))
        with pytest.raises(ValueError):
            ctx.send(0, "self-message")
        with pytest.raises(ValueError):
            ctx.send(5, "nobody")

    def test_duplicate_func_call_rejected(self):
        ctx = PartyContext(0, 2, 0, Rng(1))
        ctx.call("F", 1)
        with pytest.raises(ValueError):
            ctx.call("F", 2)

    def test_double_output_rejected(self):
        ctx = PartyContext(0, 2, 0, Rng(1))
        ctx.output(1)
        with pytest.raises(RuntimeError):
            ctx.output(2)

    def test_output_record_kinds(self):
        assert OutputRecord(1, OUTPUT_REAL).is_abort is False
        assert OutputRecord(ABORT, OUTPUT_ABORT).is_abort is True
        with pytest.raises(ValueError):
            OutputRecord(1, "bogus")


class TestHonestExecution:
    def test_ping_pong(self):
        result = run_execution(
            PingPongProtocol(), ("a", "b"), Adversary(), Rng(1)
        )
        assert result.outputs[0].value == "b"
        assert result.outputs[1].value == "a"
        assert result.corrupted == set()
        assert result.all_honest_received()

    def test_hybrid_call(self):
        result = run_execution(HybridProtocol(), (10, 20), Adversary(), Rng(1))
        assert result.outputs[0].value == ("echo", 10)
        assert result.outputs[1].value == ("echo", 20)

    def test_early_termination(self):
        result = run_execution(
            PingPongProtocol(), ("a", "b"), Adversary(), Rng(1)
        )
        assert result.rounds_used == 2

    def test_input_arity_checked(self):
        with pytest.raises(ValueError):
            Execution(PingPongProtocol(), ("only-one",), Adversary(), Rng(1))

    def test_missing_output_raises(self):
        class SilentMachine(PartyMachine):
            def on_round(self, round_no, inbox, ctx):
                pass

        class SilentProtocol(PingPongProtocol):
            def build_machines(self, rng):
                return [SilentMachine(i, 2) for i in range(2)]

        with pytest.raises(ProtocolViolation):
            run_execution(SilentProtocol(), (1, 2), Adversary(), Rng(1))


class SilenceAdversary(Adversary):
    """Corrupts party 1 statically and never sends anything."""

    def initial_corruptions(self, n):
        return {1}


class RushingObserver(Adversary):
    """Records the rushing view each round."""

    def __init__(self):
        self.seen = []

    def initial_corruptions(self, n):
        return {1}

    def on_round(self, iface):
        self.seen.append([m.payload for m in iface.rushing_messages()])


class TestAdversarialExecution:
    def test_silent_corruption_aborts_honest(self):
        result = run_execution(
            PingPongProtocol(), ("a", "b"), SilenceAdversary(), Rng(1)
        )
        assert result.corrupted == {1}
        assert result.outputs[0].is_abort
        assert 1 not in result.outputs
        assert not result.all_honest_received()

    def test_rushing_view(self):
        adversary = RushingObserver()
        run_execution(PingPongProtocol(), ("a", "b"), adversary, Rng(1))
        # Round 0: honest p0 sends "a" to corrupted p1 — visible via rushing
        # in the same round.
        assert adversary.seen[0] == ["a"]

    def test_adversary_send_requires_corruption(self):
        class BadAdversary(Adversary):
            def on_round(self, iface):
                iface.send(0, 1, "forged")

        with pytest.raises(PermissionError):
            run_execution(PingPongProtocol(), ("a", "b"), BadAdversary(), Rng(1))

    def test_inbox_access_requires_corruption(self):
        class PeekingAdversary(Adversary):
            def on_round(self, iface):
                iface.inbox(0)

        with pytest.raises(PermissionError):
            run_execution(
                PingPongProtocol(), ("a", "b"), PeekingAdversary(), Rng(1)
            )

    def test_adaptive_corruption_yields_view(self):
        captured = {}

        class AdaptiveAdversary(Adversary):
            def on_round(self, iface):
                if iface.round == 1 and 0 not in iface.corrupted:
                    party = iface.corrupt(0)
                    captured["input"] = party.view.input
                    captured["machine"] = party.runner.machine

        result = run_execution(
            PingPongProtocol(), ("a", "b"), AdaptiveAdversary(), Rng(1)
        )
        assert captured["input"] == "a"
        assert isinstance(captured["machine"], PingPongMachine)
        assert result.corrupted == {0}

    def test_double_corruption_rejected(self):
        class DoubleCorruptor(Adversary):
            def initial_corruptions(self, n):
                return {0}

            def on_round(self, iface):
                if iface.round == 0:
                    iface.corrupt(0)

        with pytest.raises(ValueError):
            run_execution(
                PingPongProtocol(), ("a", "b"), DoubleCorruptor(), Rng(1)
            )

    def test_forged_message_delivered(self):
        class Forger(Adversary):
            def initial_corruptions(self, n):
                return {1}

            def on_round(self, iface):
                if iface.round == 0:
                    iface.send(1, 0, "forged")

        result = run_execution(
            PingPongProtocol(), ("a", "b"), Forger(), Rng(1)
        )
        assert result.outputs[0].value == "forged"

    def test_all_corrupted_runs_to_round_bound(self):
        """Regression: with no honest parties the early-termination check
        used to be vacuously true (``all()`` over an empty set), ending
        the execution after round 1 and cutting the adversary's view
        short.  A fully corrupting adversary must see every round."""

        class CorruptAllAdversary(Adversary):
            def __init__(self):
                self.rounds_seen = []

            def initial_corruptions(self, n):
                return set(range(n))

            def on_round(self, iface):
                self.rounds_seen.append(iface.round)

        protocol = PingPongProtocol()
        adversary = CorruptAllAdversary()
        result = run_execution(protocol, ("a", "b"), adversary, Rng(1))
        assert result.corrupted == {0, 1}
        assert result.honest == set()
        assert result.rounds_used == protocol.max_rounds
        assert adversary.rounds_seen == list(range(protocol.max_rounds))
        assert not result.all_honest_received()


class TestHonestRunner:
    def test_clone_independence(self):
        machine = PingPongMachine(0, 2)
        runner = HonestRunner(machine, Rng(1), 4)
        runner.give_input("x")
        clone = runner.clone()
        clone.step(0, Inbox())
        assert runner.current_round == 0
        assert clone.current_round == 1

    def test_clone_continues_rng_stream_independently(self):
        runner = HonestRunner(PingPongMachine(0, 2), Rng(1), 4)
        runner.rng.randbytes(5)  # leave part of a PRG block buffered
        clone = runner.clone()
        drawn = clone.rng.randbytes(40)
        # Drawing from the clone did not advance the original...
        assert runner.rng.randbytes(40) == drawn
        # ...nor the original the clone.
        assert clone.rng.randbytes(40) == runner.rng.randbytes(40)

    def test_clone_keeps_machine_rng_shared_with_runner(self):
        rng = Rng(2)
        runner = HonestRunner(RngHoldingMachine(0, 2, rng), rng, 4)
        clone = runner.clone()
        assert clone.rng is not runner.rng
        assert clone.machine.rng is clone.rng

    def test_clone_shares_function_spec(self):
        machine = PingPongMachine(0, 2)
        machine.func = make_xor()
        clone = HonestRunner(machine, Rng(1), 4).clone()
        assert clone.machine is not machine
        assert clone.machine.func is machine.func

    def test_coalition_probe_clones_each_probed_runner_once(
        self, monkeypatch
    ):
        clones = []
        original_clone = HonestRunner.clone

        def counting_clone(runner):
            clones.append(runner.index)
            return original_clone(runner)

        monkeypatch.setattr(HonestRunner, "clone", counting_clone)

        class ProbeEveryRound(MachineDrivingAdversary):
            def __init__(self):
                super().__init__({0})
                self.probes = []  # (runners probed, runners cloned)

            def should_abort(self, iface, contexts):
                probed = [
                    i for i, runner in self._runners.items()
                    if runner.output is None
                ]
                before = len(clones)
                self.coalition_probe(iface, contexts)
                self.probes.append((probed, clones[before:]))
                return False

        adversary = ProbeEveryRound()
        run_execution(SlowRelayProtocol(), ("a", "b"), adversary, Rng(1))
        # The round-0 probe has to run the copy past the next round to
        # reach an output, so it exercises the silent completion too.
        assert adversary.probes[0] == ([0], [0])
        for probed, cloned in adversary.probes:
            assert cloned == probed

    def test_simulate_silent_completion(self):
        machine = PingPongMachine(0, 2)
        runner = HonestRunner(machine, Rng(1), 4)
        runner.give_input("x")
        runner.step(0, Inbox())
        record = runner.simulate_silent_completion()
        assert record is not None and record.is_abort
        # The real runner is untouched.
        assert runner.output is None

    def test_view_accumulates(self):
        machine = PingPongMachine(0, 2)
        runner = HonestRunner(machine, Rng(1), 4)
        runner.give_input("x")
        inbox = Inbox([Message(1, 0, "hello", 0)])
        runner.step(0, inbox)
        assert runner.view.received[0].payload == "hello"
        assert runner.view.sent[0].payload == "x"
