"""Text-based extension files for the knowledge base.

Extension files carry additional dependency relations and pattern
mappings (for instance the complete appendix tables, which are not part
of the built-in data). Format: `#` comments, bracketed record headers
(`[dependency]`, `[pattern]`), and `key = value` lines. The same
low-level record reader is reused for simulator scenario files."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from ssiarch.kb import (
    ActorKind,
    DependencyRelation,
    KbError,
    KnowledgeBase,
    NfrKey,
    PatternEntry,
    PatternSource,
    Provenance,
    parse_nfr_key,
)

T = TypeVar("T")


class ExtensionError(Exception):
    """Malformed extension file; carries the offending line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class Record:
    """One bracketed record: its header, where it starts, and its fields
    with the line each value came from."""

    header: str
    line: int
    fields: dict[str, tuple[str, int]] = field(default_factory=dict)


def parse_records(text: str) -> list[Record]:
    """Line-oriented reader shared by extension and scenario files. Only
    LF ends a line, as in the DSL; the CR of a CRLF is trailing space.
    A key and its value are stripped once, as parts of the stripped line."""
    records: list[Record] = []
    current: Record | None = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "[":
            if stripped[-1] != "]":
                raise ExtensionError("unterminated record header", lineno, len(line.rstrip()))
            current = Record(stripped[1:-1].strip(), lineno)
            records.append(current)
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ExtensionError("expected 'key = value'", lineno)
        if current is None:
            raise ExtensionError("field outside any record", lineno)
        key = key.rstrip()
        if key in current.fields:
            raise ExtensionError(f"duplicate key {key!r} in record", lineno)
        current.fields[key] = (value.lstrip(), lineno)
    return records


@dataclass(frozen=True)
class KbDelta:
    """Parsed, validated content of one extension file."""

    dependencies: tuple[DependencyRelation, ...] = ()
    patterns: tuple[PatternEntry, ...] = ()


def read_fields(
    record: Record, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict[str, tuple[str, int]]:
    """The record's fields, once each key is known and each required key
    is present. An unknown key is reported at its own line, and every
    missing key at the record's line."""
    for key, (_, lineno) in record.fields.items():
        if key not in required and key not in optional:
            raise ExtensionError(f"unknown key {key!r} in [{record.header}]", lineno)
    missing = [key for key in required if key not in record.fields]
    if missing:
        raise ExtensionError(
            f"missing keys in [{record.header}]: {', '.join(sorted(missing))}", record.line
        )
    return record.fields


def convert(field: tuple[str, int], parse: Callable[[str], T]) -> T:
    """`parse` applied to a field's text; a KbError or ValueError it
    raises becomes an ExtensionError at the field's line."""
    text, lineno = field
    try:
        return parse(text)
    except (KbError, ValueError) as exc:
        raise ExtensionError(str(exc), lineno) from exc


def _parse_dependency(record: Record) -> DependencyRelation:
    fields = read_fields(record, ("nfr", "depender", "dependee"), ("rationale",))
    nfr = convert(fields["nfr"], parse_nfr_key)
    depender = convert(fields["depender"], ActorKind.from_name)
    dependee = convert(fields["dependee"], ActorKind.from_name)
    try:
        return DependencyRelation(
            depender=depender,
            dependee=dependee,
            nfr=nfr,
            rationale=fields.get("rationale", ("", record.line))[0],
            provenance=Provenance.EXTENSION,
        )
    except KbError as exc:
        raise ExtensionError(str(exc), record.line) from exc


def _parse_nfr_list(text: str) -> frozenset[NfrKey]:
    return frozenset(parse_nfr_key(part) for part in text.split(",") if part.strip())


def _parse_pattern(record: Record) -> PatternEntry:
    fields = read_fields(record, ("name", "source", "nfrs"))
    name = fields["name"][0]
    if not name:
        raise ExtensionError("pattern name must be non-empty", record.line)
    source = convert(fields["source"], PatternSource)
    return PatternEntry(name, source, convert(fields["nfrs"], _parse_nfr_list))


def load_extension(text: str) -> KbDelta:
    """Parse one extension file into a delta; never mutates any KB."""
    dependencies: list[DependencyRelation] = []
    patterns: list[PatternEntry] = []
    seen: set[tuple] = set()
    for record in parse_records(text):
        if record.header == "dependency":
            rel = _parse_dependency(record)
            key = rel.triple
            what = f"dependency {rel}"
            dependencies.append(rel)
        elif record.header == "pattern":
            pat = _parse_pattern(record)
            key = (pat.source, pat.name)
            what = f"pattern {pat.name!r} (catalog {pat.source.value})"
            patterns.append(pat)
        else:
            raise ExtensionError(f"unknown record type [{record.header}]", record.line)
        if key in seen:
            raise ExtensionError(f"duplicate {what} within file", record.line)
        seen.add(key)
    return KbDelta(dependencies=tuple(dependencies), patterns=tuple(patterns))


class MergeCollisionError(KbError):
    """A delta triple duplicates an existing relation with a different rationale."""


def merge(kb: KnowledgeBase, delta: KbDelta) -> KnowledgeBase:
    """New KB with the delta's relations and patterns appended.

    Extensions may only add dependencies and pattern mappings; catalog,
    matrix, and ownership are never overridden. A delta relation whose
    triple already exists is deduplicated when the rationale matches
    (or is empty) and rejected otherwise."""
    by_triple = {rel.triple: rel for rel in kb.dependencies}
    for rel in delta.dependencies:
        existing = by_triple.get(rel.triple)
        if existing is None:
            by_triple[rel.triple] = rel
        elif rel.rationale and rel.rationale != existing.rationale:
            raise MergeCollisionError(
                f"dependency {rel} already present with a different rationale"
            )
    patterns = list(kb.patterns)
    by_ident = {(p.source, p.name): i for i, p in enumerate(patterns)}
    for pat in delta.patterns:
        ident = (pat.source, pat.name)
        if ident in by_ident:
            i = by_ident[ident]
            merged_nfrs = patterns[i].supported_nfrs | pat.supported_nfrs
            patterns[i] = PatternEntry(pat.name, pat.source, merged_nfrs)
        else:
            by_ident[ident] = len(patterns)
            patterns.append(pat)
    return KnowledgeBase(
        catalog=kb.catalog,
        matrix=kb.matrix,
        ownership=kb.ownership,
        dependencies=frozenset(by_triple.values()),
        patterns=tuple(patterns),
    )
