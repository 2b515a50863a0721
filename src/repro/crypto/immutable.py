"""Deep-copy shortcut for immutable value objects.

Lock-watching adversaries clone party runners every round (the coalition
probe).  A clone deep-copies the machine and its RNG and copies the view's
message lists shallowly (messages are frozen, the view append-only).  The
machine's state is dominated by frozen dataclasses (crypto values, the
function spec), which are safe to share across clones; mixing this in
turns their deep copies into identity operations, so copying a machine
costs its mutable fields only.
"""

from __future__ import annotations


class Immutable:
    """Opt-out of deep copying: instances are frozen value objects."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self
