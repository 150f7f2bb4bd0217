"""The record reader as it was before its per-line work was cut, kept as
the reference that `ssiarch.extension.parse_records` must agree with: the
same records, fields and line numbers, and the same message, line and
column for every error. Nothing in `src/` uses it."""

from __future__ import annotations

from ssiarch.extension import ExtensionError, Record


def reference_parse_records(text: str) -> list[Record]:
    records: list[Record] = []
    current: Record | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ExtensionError("unterminated record header", lineno, len(line))
            current = Record(header=stripped[1:-1].strip(), line=lineno)
            records.append(current)
            continue
        if "=" not in stripped:
            raise ExtensionError("expected 'key = value'", lineno)
        if current is None:
            raise ExtensionError("field outside any record", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in current.fields:
            raise ExtensionError(f"duplicate key {key!r} in record", lineno)
        current.fields[key] = (value.strip(), lineno)
    return records
