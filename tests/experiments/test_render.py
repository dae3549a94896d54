"""ASCII rendering helpers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.render import render_table


class TestRenderTable:
    def test_basic_structure(self):
        text = render_table(
            "Title", ["a", "b"], [["x", 1.0], ["y", 2.5]], note="footnote"
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "=" * len("Title")
        assert "a" in lines[2] and "b" in lines[2]
        assert "x" in text and "2.50" in text
        assert text.endswith("footnote")

    def test_column_alignment(self):
        text = render_table("T", ["name", "v"], [["longer-name", 1.0]])
        header, rule, row = text.splitlines()[2:5]
        assert len(header) == len(row)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            render_table("T", ["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ExperimentError):
            render_table("T", [], [])

    def test_float_formatting(self):
        text = render_table("T", ["v"], [[3.14159]])
        assert "3.14" in text
        assert "3.14159" not in text
