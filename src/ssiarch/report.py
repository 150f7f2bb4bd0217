"""Report assembly and serialization (json / markdown / human)."""

from __future__ import annotations

import json
from dataclasses import dataclass

import ssiarch
from ssiarch.findings import Finding, Severity, sort_findings


@dataclass(frozen=True)
class Report:
    """One command's output: findings plus a command-specific payload.
    Payloads are JSON-serializable with stable key order, except graph's
    DepGraph, which the CLI emits only as DOT or TSV."""

    command: str
    findings: tuple[Finding, ...]
    payload: dict

    def sorted_findings(self) -> list[Finding]:
        return sort_findings(list(self.findings))


def finding_to_dict(finding: Finding) -> dict:
    doc: dict = {
        "severity": finding.severity.value,
        "rule": finding.rule,
        "subject": finding.subject,
        "message": finding.message,
    }
    if finding.span is not None:
        doc["span"] = {
            "line": finding.span.line,
            "column": finding.span.column,
            "length": finding.span.length,
        }
    return doc


def emit_json(report: Report) -> str:
    doc = {
        "tool_version": ssiarch.__version__,
        "command": report.command,
        "findings": [finding_to_dict(f) for f in report.sorted_findings()],
        "payload": report.payload,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


#: JSON schema for emit_json output, usable with any draft-07 validator.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["tool_version", "command", "findings", "payload"],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        "command": {"type": "string"},
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["severity", "rule", "subject", "message"],
                "additionalProperties": False,
                "properties": {
                    "severity": {"enum": ["error", "warning", "info"]},
                    "rule": {"type": "string"},
                    "subject": {"type": "string"},
                    "message": {"type": "string"},
                    "span": {
                        "type": "object",
                        "required": ["line", "column", "length"],
                        "additionalProperties": False,
                        "properties": {
                            "line": {"type": "integer", "minimum": 1},
                            "column": {"type": "integer", "minimum": 1},
                            "length": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        },
        "payload": {"type": "object"},
    },
}


def _cell(text: str) -> str:
    """Free text as one table cell: `|` would end the cell, CR or LF the row."""
    if "|" in text or "\r" in text or "\n" in text:
        return text.replace("|", "\\|").replace("\r", " ").replace("\n", " ")
    return text


def _markdown_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def emit_markdown(report: Report) -> str:
    lines = [f"# ssiarch {report.command} report", ""]
    lines.append(f"tool version: {ssiarch.__version__}")
    lines.append("")
    findings = report.sorted_findings()
    if findings:
        lines.append("## Findings")
        lines.append("")
        lines.extend(
            _markdown_table(
                ["Severity", "Rule", "Subject", "Message"],
                [[f.severity.value, f.rule, _cell(f.subject), _cell(f.message)] for f in findings],
            )
        )
        lines.append("")
    else:
        lines.append("no findings")
        lines.append("")
    for section, value in report.payload.items():
        lines.append(f"## {section}")
        lines.append("")
        if isinstance(value, list) and value and isinstance(value[0], dict):
            headers = list(value[0].keys())
            lines.extend(
                _markdown_table(
                    headers, [[_cell(str(row.get(h, ""))) for h in headers] for row in value]
                )
            )
        elif isinstance(value, dict):
            lines.extend(
                _markdown_table(
                    ["Key", "Value"], [[_cell(str(k)), _cell(str(v))] for k, v in value.items()]
                )
            )
        elif isinstance(value, list):
            lines.extend(f"- {item}" for item in value)
            if not value:
                lines.append("(empty)")
        else:
            lines.append(str(value))
        lines.append("")
    return "\n".join(lines)


_COLORS = {
    Severity.ERROR: "\x1b[31m",
    Severity.WARNING: "\x1b[33m",
    Severity.INFO: "\x1b[36m",
}
_RESET = "\x1b[0m"
#: C0, DEL and C1 control characters as `\xNN`, so that no subject or
#: message can end a human line or an error line, or drive the terminal.
CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


def emit_human(report: Report, color: bool = True) -> str:
    lines = [f"ssiarch {report.command} (v{ssiarch.__version__})"]
    findings = report.sorted_findings()
    for f in findings:
        where = f" @{f.span}" if f.span is not None else ""
        label = f.severity.value
        if color:
            label = f"{_COLORS[f.severity]}{label}{_RESET}"
        text = f"[{f.rule}] {f.subject}{where}: {f.message}"
        if not text.isprintable():
            text = text.translate(CONTROL_ESCAPES)
        lines.append(f"  {label} {text}")
    if not findings:
        lines.append("  no findings")
    for section, value in report.payload.items():
        lines.append(f"{section}:")
        lines.append(f"  {json.dumps(value, separators=(', ', ': '))}")
    return "\n".join(lines) + "\n"
