"""The flat SDDS record of the paper's Figure 1.

"A record consists of a key, that is the Record Identifier (RI), and of
the Record Content field (RC).  We assume that the key is an
artificially created number and not sensitive information.  The RC
field is a flat, zero-terminated string."
"""

from __future__ import annotations

from dataclasses import dataclass

#: Accounted per-record wire overhead (key, lengths, framing) in bytes.
RECORD_OVERHEAD = 16


@dataclass(frozen=True)
class Record:
    """A flat record: integer RID plus bytes content.

    Content is stored as ``bytes``; the paper's records are 8-bit ASCII
    strings and the encrypted pipeline produces binary data, so bytes
    is the common denominator.
    """

    rid: int
    content: bytes

    def __post_init__(self) -> None:
        if self.rid < 0:
            raise ValueError("record identifier must be non-negative")
        if not isinstance(self.content, bytes):
            raise TypeError("record content must be bytes")

    @property
    def wire_size(self) -> int:
        """Accounted size of this record on the simulated wire."""
        return RECORD_OVERHEAD + len(self.content)
