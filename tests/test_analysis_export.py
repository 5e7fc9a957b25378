"""Tests for CSV export."""

import pytest

from repro.analysis.export import rows_to_csv
from repro.errors import MeasurementError


class TestRows:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        text = rows_to_csv(["a", "b"], [[1, 2], [3, 4]], path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"

    def test_ragged_rejected(self):
        with pytest.raises(MeasurementError):
            rows_to_csv(["a", "b"], [[1]])

    def test_no_path_returns_text_only(self):
        text = rows_to_csv(["x"], [[5]])
        assert "x" in text
