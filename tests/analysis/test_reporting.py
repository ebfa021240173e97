"""Tests for the plain-text report formatting helpers."""

from repro.analysis import (
    format_check_marks,
    format_comparison,
    format_percentage_map,
    format_table,
)


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all("|" in line for line in lines if line and "-+-" not in line)
        # Columns aligned: the separator row matches the header width.
        assert len(lines[1]) == len(lines[0])

    def test_title_rendered(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159]], float_format="{:.1f}")
        assert "3.1" in text and "3.14159" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestOtherFormatters:
    def test_percentage_map_with_reference(self):
        text = format_percentage_map(
            {"memory": 45.0, "host": 25.0},
            title="Area",
            reference={"memory": 44.9},
        )
        assert "paper (%)" in text
        assert "memory" in text

    def test_comparison_matrix(self):
        text = format_comparison(
            "Util", {"gemm": {"base": 0.4, "full": 1.0}, "conv": {"base": 0.3}}
        )
        assert "gemm" in text and "full" in text
        assert "nan" in text  # missing conv/full cell

    def test_comparison_with_explicit_columns(self):
        text = format_comparison(
            "Util", {"gemm": {"a": 1.0, "b": 2.0}}, column_order=["b", "a"]
        )
        header = text.splitlines()[2]
        assert header.index("b") < header.index("a")

    def test_check_marks(self):
        text = format_check_marks(
            {"X": {"f1": True, "f2": False, "f3": "2-D"}},
            feature_order=["f1", "f2", "f3"],
        )
        assert "yes" in text and "no" in text and "2-D" in text
