"""How a refusal names the value it refuses."""

from __future__ import annotations

#: a refused value is shown in full up to this many characters, else by its head
SHOWN = 40


def shown(value) -> str:
    """``value`` as a refusal names it: its repr, or for a value longer than
    SHOWN characters its first SHOWN characters (unquoted for an integer) and
    its length, so that the refusal of a long input stays one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= SHOWN:
        return repr(value)
    head = text[:SHOWN] if isinstance(value, int) else repr(text[:SHOWN])
    return f"{head}... ({len(text)} characters)"
