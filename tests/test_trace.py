"""Execution-trace rendering tests."""

from repro.adversaries import LockWatchingAborter, PassiveAdversary
from repro.crypto import Rng
from repro.engine import ABORT, Message, run_execution
from repro.engine.trace import (
    describe_message,
    render_transcript,
    summarize_payload,
)
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol


class TestSummarizePayload:
    def test_abort(self):
        assert summarize_payload(ABORT) == "⊥"

    def test_bytes(self):
        text = summarize_payload(b"\xde\xad\xbe\xef" * 8)
        assert text.startswith("bytes[32]:deadbeef")

    def test_tuple_truncation(self):
        text = summarize_payload(tuple(range(10)))
        assert "…" in text and text.startswith("(")

    def test_dict(self):
        assert summarize_payload({1: 2, 3: 4}) == "dict[2]"

    def test_long_repr_truncated(self):
        text = summarize_payload("x" * 200)
        assert len(text) <= 50

    def test_small_values_verbatim(self):
        assert summarize_payload(42) == "42"


class TestDescribeMessage:
    def test_p2p(self):
        message = Message(0, 1, "hello", 3)
        assert describe_message(message) == "p0 → p1: 'hello'"

    def test_broadcast(self):
        message = Message(2, None, 7, 0, broadcast=True)
        assert describe_message(message) == "p2 → ∗: 7"

    def test_functionality_sender(self):
        message = Message("F_sfe", 0, 9, 1)
        assert describe_message(message).startswith("F_sfe → p0")


class TestRenderTranscript:
    def _result(self, adversary):
        protocol = Opt2SfeProtocol(make_swap(8))
        return run_execution(protocol, (3, 9), adversary, Rng("trace"))

    def test_honest_execution(self):
        text = render_transcript(self._result(PassiveAdversary()))
        assert "opt-2sfe[swap8]" in text
        assert "round 0:" in text
        assert "outputs:" in text
        assert "rounds used:" in text

    def test_attacked_execution_shows_claim(self):
        text = render_transcript(self._result(LockWatchingAborter({0})))
        assert "corrupted=[0]" in text
        assert "adversary claim:" in text

    def test_round_cap(self):
        text = render_transcript(self._result(PassiveAdversary()), max_rounds=1)
        assert "rounds total" in text
        assert "round 2:" not in text

    def test_output_kinds_rendered(self):
        result = self._result(LockWatchingAborter({0}))
        text = render_transcript(result)
        assert "[abort]" in text or "[real]" in text

    def test_fault_free_runs_omit_fault_footer(self):
        text = render_transcript(self._result(PassiveAdversary()))
        assert "hung:" not in text

    def test_hung_footer_rendered(self):
        result = self._result(PassiveAdversary())
        result.hung = {0}
        text = render_transcript(result)
        assert "hung: [0]" in text
