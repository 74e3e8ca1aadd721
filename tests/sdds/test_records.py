"""The flat record type."""

import pytest

from repro.sdds.records import RECORD_OVERHEAD, Record


class TestRecord:
    def test_wire_size(self):
        record = Record(1, b"abc")
        assert record.wire_size == RECORD_OVERHEAD + 3

    def test_negative_rid_rejected(self):
        with pytest.raises(ValueError):
            Record(-1, b"x")

    def test_non_bytes_content_rejected(self):
        with pytest.raises(TypeError):
            Record(1, "text")  # type: ignore[arg-type]

    def test_frozen(self):
        record = Record(1, b"x")
        with pytest.raises(AttributeError):
            record.rid = 2  # type: ignore[misc]

    def test_equality(self):
        assert Record(1, b"x") == Record(1, b"x")
        assert Record(1, b"x") != Record(2, b"x")
