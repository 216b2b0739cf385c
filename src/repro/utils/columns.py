"""Typecodes for the integer index columns of the compact state.

An index column (routing-table positions, peer, user or CID indexes)
holds values below a bound known when the column is built, so its
width follows from that bound: two bytes where every value fits, four
otherwise. A value past the column's width raises ``OverflowError`` on
``append``/``extend``; it is never truncated.
"""

from __future__ import annotations

#: Values of a two-byte column are below this.
_TWO_BYTE_LIMIT = 1 << 16


def index_typecode(limit: int) -> str:
    """The ``array`` typecode for ints in ``range(limit)``: ``"H"``
    (2 bytes) when ``limit <= 65 536``, else ``"I"`` (4 bytes)."""
    return "H" if limit <= _TWO_BYTE_LIMIT else "I"
