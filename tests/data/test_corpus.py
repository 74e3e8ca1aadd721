"""Record formatting per the paper's Figure 4."""

import pytest

from repro.data.corpus import (
    NAME_FIELD_WIDTH,
    format_record,
    parse_record,
    phone_to_rid,
)
from repro.data.phonebook import PhonebookEntry


class TestFormat:
    def test_figure4_shape(self):
        text = format_record("ADRIAN CORTEZ", "415-409-0271")
        assert text.startswith("ADRIAN CORTEZ%")
        assert text.endswith("415-409-0271$$")
        assert len(text) == NAME_FIELD_WIDTH + 12 + 2

    def test_full_width_name(self):
        name = "X" * NAME_FIELD_WIDTH
        text = format_record(name, "415-409-0000")
        assert "%" not in text

    def test_overlong_name_rejected(self):
        with pytest.raises(ValueError):
            format_record("X" * (NAME_FIELD_WIDTH + 1), "415-409-0000")


class TestParse:
    def test_roundtrip(self):
        text = format_record("AFDAHL E", "415-409-0817")
        assert parse_record(text) == ("AFDAHL E", "415-409-0817")

    def test_roundtrip_with_ampersand(self):
        name = "ABOGADO ALEJANDRO & CATH"
        text = format_record(name, "415-409-1111")
        assert parse_record(text) == (name, "415-409-1111")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_record("not a record")


class TestHelpers:
    def test_last_name(self):
        def last_name(name):
            return PhonebookEntry(name, "415-409-0019", 4154090019).last_name

        assert last_name("AKIMOTO YOSHIMI") == "AKIMOTO"
        assert last_name("YU") == "YU"

    def test_phone_to_rid(self):
        assert phone_to_rid("415-409-0019") == 4154090019

    def test_phone_to_rid_rejects_letters(self):
        with pytest.raises(ValueError):
            phone_to_rid("415-409-ABCD")
