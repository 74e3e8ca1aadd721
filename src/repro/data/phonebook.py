"""The synthetic San Francisco directory generator.

``generate_directory(n, seed)`` produces a deterministic
:class:`Directory` of ``n`` entries shaped like the paper's Figure 4.
The default size matches the paper's 282,965-entry SF White Pages.

The generator is pure: same ``(n, seed)`` always yields the same
directory, so every benchmark and test is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.data import names as _names
from repro.data.corpus import (
    NAME_FIELD_WIDTH,
    PHONE_PREFIX,
    format_record,
    phone_to_rid,
)
from repro.sdds.records import Record

#: The paper's directory size.
SF_DIRECTORY_SIZE = 282_965

#: Share of entries drawn from the Asian surname pool ("heavy presence
#: of Asian names").
ASIAN_SHARE = 0.48


@dataclass(frozen=True)
class PhonebookEntry:
    """One directory entry, pre-rendered in all the forms the
    experiments need."""

    name: str            # e.g. "AKIMOTO YOSHIMI"
    phone: str           # e.g. "415-409-0019"
    rid: int             # integer form of the phone number

    @property
    def last_name(self) -> str:
        return self.name.split(" ", 1)[0]

    @property
    def record_text(self) -> str:
        return format_record(self.name, self.phone)

    def to_record(self) -> Record:
        return Record.from_text(self.rid, self.record_text)


class Directory:
    """A generated directory: entries plus the derived corpora."""

    def __init__(self, entries: list[PhonebookEntry]) -> None:
        self.entries = entries

    @classmethod
    def from_lines(cls, lines) -> "Directory":
        """Load a directory from an external source.

        Accepts either the paper's Figure-4 flat-record format
        (``NAME%%%…415-409-XXXX$$``) or plain ``NAME<TAB>PHONE``
        lines; blank lines are skipped.  This is how a user points
        the experiments at a real phone book instead of the synthetic
        one.
        """
        from repro.data.corpus import parse_record

        entries = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if "\t" in line:
                name, phone = line.split("\t", 1)
                name, phone = name.strip(), phone.strip()
            else:
                name, phone = parse_record(line)
            entries.append(
                PhonebookEntry(
                    name=name, phone=phone, rid=phone_to_rid(phone)
                )
            )
        if not entries:
            raise ValueError("no directory entries found")
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PhonebookEntry]:
        return iter(self.entries)

    def records(self) -> list[Record]:
        return [entry.to_record() for entry in self.entries]

    def sample(self, k: int, seed: int = 0) -> "Directory":
        """A deterministic random sub-directory of ``k`` entries."""
        if k > len(self.entries):
            raise ValueError(
                f"cannot sample {k} from {len(self.entries)} entries"
            )
        rng = random.Random(seed)
        return Directory(rng.sample(self.entries, k))

    def last_names(self) -> list[str]:
        return [entry.last_name for entry in self.entries]


class _NameSampler:
    """Draws names per the Figure-4 record shapes.

    ``style`` selects the corpus: ``"sf"`` (default) mixes heavy
    Asian-name pools into Western ones like the paper's San Francisco
    directory; ``"warsaw"`` draws from long Polish surnames — the
    counterfactual the paper muses about ("the Warsaw phonebook might
    have been a better choice"), with essentially no short names.
    """

    def __init__(self, rng: random.Random, style: str = "sf") -> None:
        if style not in ("sf", "warsaw"):
            raise ValueError(f"unknown directory style {style!r}")
        self._rng = rng
        self._style = style
        if style == "sf":
            self._asian_names = _names.pool_names(_names.ASIAN_SURNAMES)
            self._asian_weights = _names.pool_weights(
                _names.ASIAN_SURNAMES
            )
            self._western_names = _names.pool_names(
                _names.WESTERN_SURNAMES
            )
            self._western_weights = _names.pool_weights(
                _names.WESTERN_SURNAMES
            )
            self._given_names = _names.pool_names(_names.GIVEN_NAMES)
            self._given_weights = _names.pool_weights(_names.GIVEN_NAMES)
        else:
            self._western_names = _names.pool_names(
                _names.POLISH_SURNAMES
            )
            self._western_weights = _names.pool_weights(
                _names.POLISH_SURNAMES
            )
            self._given_names = _names.pool_names(_names.POLISH_GIVEN)
            self._given_weights = _names.pool_weights(_names.POLISH_GIVEN)
        self._shapes = list(_names.SHAPE_WEIGHTS)
        self._shape_weights = list(_names.SHAPE_WEIGHTS.values())

    def surname(self) -> str:
        if self._style == "sf" and self._rng.random() < ASIAN_SHARE:
            return self._rng.choices(
                self._asian_names, self._asian_weights
            )[0]
        return self._rng.choices(
            self._western_names, self._western_weights
        )[0]

    def given(self) -> str:
        return self._rng.choices(self._given_names, self._given_weights)[0]

    def full_name(self) -> str:
        shape = self._rng.choices(self._shapes, self._shape_weights)[0]
        surname = self.surname()
        if shape == "surname_given":
            name = f"{surname} {self.given()}"
        elif shape == "surname_initial":
            name = f"{surname} {self._rng.choice(_names.INITIALS)}"
        elif shape == "surname_given_initial":
            name = (
                f"{surname} {self.given()} "
                f"{self._rng.choice(_names.INITIALS)}"
            )
        elif shape == "surname_given_amp_given":
            name = f"{surname} {self.given()} & {self.given()}"
        else:  # surname_given_given
            name = f"{surname} {self.given()} {self.given()}"
        return name


def generate_directory(
    n: int = SF_DIRECTORY_SIZE, seed: int = 2006, style: str = "sf"
) -> Directory:
    """Generate ``n`` deterministic Figure-4 entries.

    ``style="warsaw"`` produces the paper's counterfactual corpus of
    long Polish surnames (see :class:`_NameSampler`).

    Phone numbers enumerate ``415-409-0000 .. `` and wrap through
    further fake exchanges if ``n`` exceeds 10,000, keeping RIDs unique
    (the paper's numbers were "changed" anyway).
    """
    if n < 1:
        raise ValueError("directory size must be positive")
    rng = random.Random(seed)
    sampler = _NameSampler(rng, style=style)
    entries = []
    for index in range(n):
        exchange, line = divmod(index, 10_000)
        phone = f"{PHONE_PREFIX[:4]}{409 + exchange:03d}-{line:04d}"
        name = sampler.full_name()
        while len(name) > NAME_FIELD_WIDTH:
            name = sampler.full_name()
        entries.append(
            PhonebookEntry(name=name, phone=phone, rid=phone_to_rid(phone))
        )
    return Directory(entries)
