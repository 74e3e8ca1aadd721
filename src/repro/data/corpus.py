"""Flat-record formatting per the paper's Figure 4.

A directory record is the flat string

    ``<NAME>%%%…%%%415-409-XXXX$$``

where the name field is padded with ``%`` to a fixed width, the phone
number serves as the record identifier, and ``$$`` terminates the
record.  "We processed the records to give us flat records containing
the telephone number as the RID and the name of the subscriber as the
RC."
"""

from __future__ import annotations

import re

#: Width of the padded name field, wide enough for every pool name
#: combination (Figure 4 shows names padded to a common column).
NAME_FIELD_WIDTH = 26

#: The paper's (anonymised) exchange prefix.
PHONE_PREFIX = "415-409-"

_RECORD_RE = re.compile(
    r"^(?P<name>[A-Z0-9&' .-]+?)%*(?P<phone>\d{3}-\d{3}-\d{4})\$\$$"
)


def format_record(name: str, phone: str, width: int = NAME_FIELD_WIDTH) -> str:
    """Render the Figure-4 flat record string."""
    if len(name) > width:
        raise ValueError(
            f"name {name!r} longer than the {width}-column name field"
        )
    return f"{name}{'%' * (width - len(name))}{phone}$$"


def parse_record(text: str) -> tuple[str, str]:
    """Inverse of :func:`format_record`: returns ``(name, phone)``."""
    match = _RECORD_RE.match(text)
    if match is None:
        raise ValueError(f"not a directory record: {text!r}")
    return match.group("name"), match.group("phone")


def phone_to_rid(phone: str) -> int:
    """The paper indexes by telephone number; we use its digits."""
    digits = phone.replace("-", "")
    if not digits.isdigit():
        raise ValueError(f"malformed phone number {phone!r}")
    return int(digits)
