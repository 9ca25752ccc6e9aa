"""Deterministic CSV and JSON emission for sweep results.

Identical inputs must produce byte-identical output files, so floats are
formatted explicitly: scientific notation with 15 significant digits in CSV
and 17 (full round-trip precision) in JSON.  Non-finite values serialize as
"inf"/"nan" strings in CSV and null in JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Sequence

_CSV_FLOAT = "{:.14e}"
_JSON_FLOAT = "{:.16e}"


def format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return _CSV_FLOAT.format(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows to RFC-4180-style CSV with a header line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_csv_value(v) for v in row])
    return buf.getvalue()


def _json_value(value) -> str:
    if isinstance(value, float):
        return _JSON_FLOAT.format(value) if math.isfinite(value) else "null"
    return json.dumps(value, ensure_ascii=False)


def json_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows to a JSON array of objects keyed by the header."""
    keys = [f"    {json.dumps(key, ensure_ascii=False)}: " for key in header]
    objects = ["  {\n" + ",\n".join(key + _json_value(value)
                                     for key, value in zip(keys, row)) + "\n  }"
               for row in rows]
    return "[\n" + ",\n".join(objects) + "\n]\n" if objects else "[]\n"
