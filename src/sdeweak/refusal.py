"""How a refusal names the value it refuses."""

from __future__ import annotations

#: a refused value is shown in full up to this many bytes, else by its head
SHOWN = 40


def _width(text: str) -> int:
    """The bytes a refusal spends on ``text``: its repr without the quotes, in
    which a control character takes up to four."""
    return len(repr(text)[1:-1].encode())


def shown(value) -> str:
    """``value`` as a refusal names it: its repr, or for a value wider than
    SHOWN bytes its longest head within SHOWN (unquoted for an integer) and
    its length, so that the refusal of a long input stays one short line."""
    text = value if isinstance(value, str) else repr(value)
    if _width(text) <= SHOWN:
        return repr(value)
    cut = SHOWN
    while _width(text[:cut]) > SHOWN:
        cut -= 1
    head = text[:cut] if isinstance(value, int) else repr(text[:cut])
    return f"{head}... ({len(text)} characters)"
