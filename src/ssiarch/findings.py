"""Diagnostics shared by the DSL, the analyses, and the simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a construct in an input file, for error reporting."""

    line: int  # 1-based
    column: int  # 1-based
    length: int = 0

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1 or self.length < 0:
            raise ValueError(f"invalid span {self.line}:{self.column}+{self.length}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.INFO: 10, Severity.WARNING: 20, Severity.ERROR: 30}


#: Every rule id any component may emit. Emitting a rule outside this set
#: is a defect, and tests enforce membership.
RULE_IDS = frozenset(
    {
        "syntax.lexical",
        "syntax.parse",
        "model.missing-actor",
        "model.unresolved-ref",
        "model.duplicate-id",
        "model.duplicate-wallet",
        "model.unknown-nfr",
        "model.unknown-pattern",
        "model.self-dependency",
        "claims.no-responsibility",
        "claims.secondary",
        "claims.tertiary",
        "claims.ok",
        "claims.ownership",
        "coverage.gap",
        "deps.missing",
        "deps.extra",
        "stats.discrepancy",
        "sim.nfr6.issuance",
        "sim.nfr6.presentation",
        "sim.nfr14.overdisclosure",
        "sim.nfr24.bypass",
        "sim.nfr19.sidechannel",
    }
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a severity, a rule id, the subject it concerns,
    and a human-readable message. Findings from DSL sources carry a span."""

    severity: Severity
    rule: str
    subject: str
    message: str
    span: SourceSpan | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULE_IDS:
            raise ValueError(f"unknown rule id: {self.rule}")
        if not self.message:
            raise ValueError("finding message must be non-empty")


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical report order: most severe first, then rule, then subject."""
    return sorted(findings, key=lambda f: (-f.severity.rank, f.rule, f.subject))
