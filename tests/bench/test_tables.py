"""Table rendering."""

from repro.bench.tables import TableResult, render_table


class TestRendering:
    def test_basic_layout(self):
        table = TableResult("Title", ["a", "bee"])
        table.add_row(1, 2.5)
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bee" in lines[2]
        assert "2.50" in text

    def test_number_formats(self):
        table = TableResult("T", ["v"])
        table.add_row(1_234_567)
        table.add_row(0.000123)
        table.add_row(12345.678)
        table.add_row(0)
        text = table.render()
        assert "1,234,567" in text
        assert "0.000123" in text
        assert "12,346" in text

    def test_notes_rendered(self):
        table = TableResult("T", ["v"])
        table.notes.append("hello note")
        assert "note: hello note" in table.render()

    def test_column_alignment(self):
        table = TableResult("T", ["col"])
        table.add_row("x")
        table.add_row("longer-value")
        lines = table.render().splitlines()
        assert len(lines[-1]) == len(lines[-2])

