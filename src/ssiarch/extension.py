"""Text-based extension files for the knowledge base.

Extension files carry additional dependency relations and pattern
mappings (for instance the complete appendix tables, which are not part
of the built-in data). Format: `#` comments, bracketed record headers
(`[dependency]`, `[pattern]`), and `key = value` lines. The same
low-level record reader is reused for simulator scenario files."""

from __future__ import annotations

from dataclasses import dataclass, field

from ssiarch.kb import (
    ActorKind,
    DependencyRelation,
    KbError,
    KnowledgeBase,
    PatternEntry,
    PatternSource,
    Provenance,
    parse_nfr_key,
)


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
    """Line-oriented reader shared by extension and scenario files."""
    records: list[Record] = []
    current: Record | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


@dataclass(frozen=True)
class KbDelta:
    """Parsed, validated content of one extension file."""

    dependencies: tuple[DependencyRelation, ...] = ()
    patterns: tuple[PatternEntry, ...] = ()


_DEPENDENCY_KEYS = {"nfr", "depender", "dependee", "rationale"}
_PATTERN_KEYS = {"name", "source", "nfrs"}


def _require(record: Record, key: str) -> tuple[str, int]:
    if key not in record.fields:
        raise ExtensionError(f"missing key {key!r} in [{record.header}]", record.line)
    return record.fields[key]


def _parse_dependency(record: Record) -> DependencyRelation:
    for key, (_, lineno) in record.fields.items():
        if key not in _DEPENDENCY_KEYS:
            raise ExtensionError(f"unknown key {key!r} in [dependency]", lineno)
    nfr_text, nfr_line = _require(record, "nfr")
    depender_text, depender_line = _require(record, "depender")
    dependee_text, dependee_line = _require(record, "dependee")
    rationale = record.fields.get("rationale", ("", record.line))[0]
    try:
        nfr = parse_nfr_key(nfr_text)
    except KbError as exc:
        raise ExtensionError(str(exc), nfr_line) from exc
    try:
        depender = ActorKind.from_name(depender_text)
    except KbError as exc:
        raise ExtensionError(str(exc), depender_line) from exc
    try:
        dependee = ActorKind.from_name(dependee_text)
    except KbError as exc:
        raise ExtensionError(str(exc), dependee_line) from exc
    try:
        return DependencyRelation(
            depender=depender,
            dependee=dependee,
            nfr=nfr,
            rationale=rationale,
            provenance=Provenance.EXTENSION,
        )
    except KbError as exc:
        raise ExtensionError(str(exc), record.line) from exc


def _parse_pattern(record: Record) -> PatternEntry:
    for key, (_, lineno) in record.fields.items():
        if key not in _PATTERN_KEYS:
            raise ExtensionError(f"unknown key {key!r} in [pattern]", lineno)
    name, _ = _require(record, "name")
    source_text, source_line = _require(record, "source")
    nfrs_text, nfrs_line = _require(record, "nfrs")
    if not name:
        raise ExtensionError("pattern name must be non-empty", record.line)
    try:
        source = PatternSource(source_text)
    except ValueError:
        raise ExtensionError(
            f"unknown pattern source {source_text!r} (expected A or B)", source_line
        ) from None
    nfrs = set()
    for part in nfrs_text.split(","):
        if not part.strip():
            continue
        try:
            nfrs.add(parse_nfr_key(part))
        except KbError as exc:
            raise ExtensionError(str(exc), nfrs_line) from exc
    return PatternEntry(name=name, source=source, supported_nfrs=frozenset(nfrs))


def load_extension(text: str) -> KbDelta:
    """Parse one extension file into a delta; never mutates any KB."""
    dependencies: list[DependencyRelation] = []
    patterns: list[PatternEntry] = []
    seen_triples: set[tuple] = set()
    seen_patterns: set[tuple] = set()
    for record in parse_records(text):
        if record.header == "dependency":
            rel = _parse_dependency(record)
            if rel.triple in seen_triples:
                raise ExtensionError(
                    f"duplicate dependency ({rel.depender.code}, {rel.dependee.code}, "
                    f"{rel.nfr.name}) within file",
                    record.line,
                )
            seen_triples.add(rel.triple)
            dependencies.append(rel)
        elif record.header == "pattern":
            pat = _parse_pattern(record)
            if (pat.source, pat.name) in seen_patterns:
                raise ExtensionError(
                    f"duplicate pattern {pat.name!r} (catalog {pat.source.value}) within file",
                    record.line,
                )
            seen_patterns.add((pat.source, pat.name))
            patterns.append(pat)
        else:
            raise ExtensionError(f"unknown record type [{record.header}]", record.line)
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
                f"dependency ({rel.depender.code}, {rel.dependee.code}, "
                f"{rel.nfr.name}) already present with a different rationale"
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
