"""Execution-trace rendering: human-readable transcripts for debugging.

``render_transcript`` turns an :class:`ExecutionResult` into a round-by-
round text log (senders, receivers, payload summaries, outputs, events);
``summarize_payload`` keeps crypto blobs readable.  Used by the test suite
for failure diagnostics and handy in a REPL::

    from repro.engine.trace import render_transcript
    print(render_transcript(result))
"""

from __future__ import annotations

from typing import List

from .execution import ExecutionResult
from .messages import ABORT, Message

_MAX_PAYLOAD_CHARS = 48


def summarize_payload(payload) -> str:
    """A short, stable, human-readable payload description."""
    if payload is ABORT:
        return "⊥"
    if isinstance(payload, bytes):
        return f"bytes[{len(payload)}]:{payload[:4].hex()}…"
    if isinstance(payload, tuple):
        inner = ", ".join(summarize_payload(p) for p in payload[:4])
        suffix = ", …" if len(payload) > 4 else ""
        return f"({inner}{suffix})"
    if isinstance(payload, dict):
        return f"dict[{len(payload)}]"
    text = repr(payload)
    if len(text) > _MAX_PAYLOAD_CHARS:
        head = text[: _MAX_PAYLOAD_CHARS - 1]
        return head + "…"
    return text


def describe_message(message: Message) -> str:
    sender = (
        f"p{message.sender}"
        if isinstance(message.sender, int)
        else str(message.sender)
    )
    if message.broadcast:
        target = "∗"
    elif message.receiver is None:
        target = "?"
    else:
        target = f"p{message.receiver}"
    return f"{sender} → {target}: {summarize_payload(message.payload)}"


def render_transcript(result: ExecutionResult, max_rounds: int = None) -> str:
    """Round-by-round text rendering of an execution."""
    lines: List[str] = [
        f"execution of {result.protocol_name} "
        f"(n={result.n}, corrupted={sorted(result.corrupted) or '∅'})",
        f"inputs: {summarize_payload(result.inputs)}",
    ]
    by_round = {}
    for message in result.transcript:
        by_round.setdefault(message.round, []).append(message)
    for round_no in sorted(by_round):
        if max_rounds is not None and round_no >= max_rounds:
            lines.append(f"… ({len(by_round)} rounds total)")
            break
        lines.append(f"round {round_no}:")
        for message in by_round[round_no]:
            lines.append(f"  {describe_message(message)}")
    lines.append("outputs:")
    for i in sorted(result.outputs):
        record = result.outputs[i]
        lines.append(
            f"  p{i}: {summarize_payload(record.value)} [{record.kind}]"
        )
    if result.adversary_claim is not None:
        lines.append(
            f"adversary claim: {summarize_payload(result.adversary_claim)}"
        )
    if result.hung:
        lines.append(f"hung: {sorted(result.hung)}")
    lines.append(f"rounds used: {result.rounds_used}")
    return "\n".join(lines)
