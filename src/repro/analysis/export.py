"""CSV export of measurement artifacts.

The offline environment has no plotting stack, so the Figure 3 sweeps
export as CSV for external tooling (``repro fig3 --csv DIR``), one table
per panel and op.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.errors import MeasurementError

__all__ = ["rows_to_csv"]

PathLike = Union[str, Path]


def _write(text: str, path: Optional[PathLike]) -> str:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def rows_to_csv(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    path: Optional[PathLike] = None,
) -> str:
    """Serialize a header + rows table; optionally write it to ``path``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        if len(row) != len(headers):
            raise MeasurementError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        writer.writerow(row)
    return _write(buffer.getvalue(), path)
