"""Message and inbox types for the synchronous execution model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


class _Abort:
    """Singleton sentinel for the ⊥ (abort) value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊥"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


#: The distinguished ⊥ value: honest parties output it on unfair aborts, and
#: hybrid functionality calls return it when the call was aborted.
ABORT = _Abort()


@dataclass(frozen=True)
class Message:
    """A single point-to-point or broadcast message.

    ``sender`` is a party index, or a string for functionality responses
    (the functionality's name).  ``receiver`` is a party index, or ``None``
    for a broadcast.
    """

    sender: Union[int, str]
    receiver: Optional[int]
    payload: object
    round: int
    broadcast: bool = False

    def is_from_party(self, index: int) -> bool:
        return self.sender == index

    def is_from_functionality(self, name: str) -> bool:
        return self.sender == name


@dataclass
class Inbox:
    """All messages delivered to one party at the start of a round."""

    messages: List[Message] = field(default_factory=list)

    def add(self, message: Message) -> None:
        self.messages.append(message)

    def from_party(self, index: int) -> List[object]:
        """Payloads of point-to-point/broadcast messages from party ``index``."""
        return [m.payload for m in self.messages if m.sender == index]

    def one_from_party(self, index: int):
        """The unique payload from ``index``, or ``None`` if absent.

        A silent (aborting) corrupted party simply produces no message, so
        ``None`` is the "nothing arrived" signal honest machines branch on.
        """
        payloads = self.from_party(index)
        if not payloads:
            return None
        return payloads[0]

    def from_functionality(self, name: str):
        """The response payload from hybrid functionality ``name``, if any."""
        payloads = [
            m.payload for m in self.messages if m.sender == name
        ]
        if not payloads:
            return None
        return payloads[0]

    def broadcasts(self) -> List[Message]:
        return [m for m in self.messages if m.broadcast]

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)
