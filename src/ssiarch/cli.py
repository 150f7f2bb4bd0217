"""Command-line entry point.

    ssiarch <command> [--model PATH] [--kb PATH ...]
            [--format human|json|dot|tsv|markdown]
            [--fail-on error|warning|info] [--scope kb|model]
            [--diff] [--scenario PATH]

Exit codes: 0 clean, 1 findings at or above --fail-on, 2 usage / file /
parse errors. Set SSIARCH_NO_COLOR to disable ANSI styling in human
output."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from ssiarch.findings import Finding, Severity
from ssiarch.kb import DependencyRelation, KbError, KnowledgeBase, builtin_kb
from ssiarch.report import CONTROL_ESCAPES, Report, emit_human, emit_json, emit_markdown

# Each command imports the modules it runs, so a start-up loads only
# those. Calls go through the module (sim.run_scenario), so a wrapper
# set on a module attribute still sees them.
if TYPE_CHECKING:
    from ssiarch import dsl

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_GRAPH_FORMATS = ("dot", "tsv")


class CliError(Exception):
    """Usage, file, or parse error; maps to exit code 2."""


def _read_file(path: str) -> str:
    try:
        # Decoded as written: text mode would turn a lone CR into LF.
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # undecodable bytes, or a NUL in the path
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_kb(extension_paths: list[str]) -> KnowledgeBase:
    kb = builtin_kb()
    for path in extension_paths:
        from ssiarch.extension import ExtensionError, load_extension, merge
        text = _read_file(path)
        try:
            kb = merge(kb, load_extension(text))
        except (ExtensionError, KbError) as exc:
            raise CliError(f"{path}: {exc}") from exc
    return kb


def _load_model(path: str | None, kb: KnowledgeBase) -> dsl.ResolveResult:
    from ssiarch import dsl
    if path is None:
        raise CliError("this command requires --model")
    result = dsl.load_model(_read_file(path), kb)
    if result.model is None and result.findings and result.findings[0].rule.startswith("syntax."):
        f = result.findings[0]
        raise CliError(f"{path}:{f.span}: {f.message}")
    return result


def _relations_payload(relations, full: bool = False) -> list[dict]:
    """Relations in canonical order as JSON objects; `full` adds the
    rationale and provenance to the (depender, dependee, nfr) triple."""
    rows = []
    for r in sorted(relations, key=DependencyRelation.sort_key):
        row = {"depender": r.depender.code, "dependee": r.dependee.code, "nfr": r.nfr.name}
        if full:
            row.update(rationale=r.rationale, provenance=r.provenance.value)
        rows.append(row)
    return rows


def _cmd_validate(args, kb: KnowledgeBase) -> Report:
    from ssiarch import analysis
    result = _load_model(args.model, kb)
    findings = list(result.findings)
    payload: dict = {}
    if result.model is not None:
        findings.extend(analysis.check_claims(result.model, kb))
        payload = {
            "model": result.model.name,
            "actors": len(result.model.actors),
            "wallets": len(result.model.wallets),
            "explicit_dependencies": len(result.model.explicit_deps),
        }
    return Report("validate", tuple(findings), payload)


def _cmd_coverage(args, kb: KnowledgeBase) -> Report:
    from ssiarch import analysis
    model = None
    if args.scope == "model":
        result = _load_model(args.model, kb)
        if result.model is None:
            return Report("coverage", tuple(result.findings), {})
        model = result.model
    report = analysis.coverage(kb, model)
    findings = tuple(
        Finding(
            Severity.WARNING,
            "coverage.gap",
            nfr.name,
            f"no design pattern supports {kb.label(nfr)}",
        )
        for nfr in sorted(report.uncovered)
    )
    payload = {
        "scope": report.scope,
        "covered": {
            nfr.name: sorted(p for p, _ in pairs) for nfr, pairs in report.covered.items()
        },
        "uncovered": [
            {"key": nfr.name, "name": kb.entry(nfr).name} for nfr in sorted(report.uncovered)
        ],
    }
    return Report("coverage", findings, payload)


def _cmd_deps(args, kb: KnowledgeBase) -> Report:
    if not args.diff:
        return Report("deps", (), {"relations": _relations_payload(kb.dependencies, full=True)})
    from ssiarch import analysis
    # Cross-check only where the authoritative table has rows;
    # derivation over uncatalogued NFRs is not a disagreement.
    derived = analysis.derive_dependencies(kb)
    covered_nfrs = {rel.nfr for rel in kb.dependencies}
    diff = analysis.diff_dependencies(
        kb.dependencies, {rel for rel in derived if rel.nfr in covered_nfrs}
    )
    findings = []
    for rule, relations, phrase in (
        (
            "deps.missing",
            diff.missing_from_derived,
            "authoritative but not derivable from the responsibility matrix",
        ),
        (
            "deps.extra",
            diff.extra_in_derived,
            "derivable but absent from the authoritative relation set",
        ),
    ):
        for rel in sorted(relations, key=DependencyRelation.sort_key):
            findings.append(Finding(Severity.WARNING, rule, rel.nfr.name, f"{rel} is {phrase}"))
    payload = {
        "matched": _relations_payload(diff.matched),
        "missing_from_derived": _relations_payload(diff.missing_from_derived),
        "extra_in_derived": _relations_payload(diff.extra_in_derived),
    }
    return Report("deps", tuple(findings), payload)


def _cmd_stats(args, kb: KnowledgeBase) -> Report:
    from ssiarch import analysis
    stats = analysis.responsibility_stats(kb)
    findings = tuple(
        Finding(Severity.WARNING, "stats.discrepancy", text.split(":", 1)[0], text)
        for text in stats.discrepancies
    )
    payload = {
        "computed": {a.code: stats.primary_counts[a] for a in stats.primary_counts},
        "claimed": {a.code: stats.claimed_counts[a] for a in stats.claimed_counts},
        "primary_nfrs": {
            a.code: [k.name for k in sorted(keys)] for a, keys in stats.primary_nfrs.items()
        },
        "discrepancies": list(stats.discrepancies),
        "constraints": [k.name for k in sorted(analysis.classify_constraints(kb))],
    }
    return Report("stats", findings, payload)


def _cmd_simulate(args, kb: KnowledgeBase) -> Report:
    from ssiarch import sim
    from ssiarch.extension import ExtensionError
    if args.scenario is None:
        raise CliError("simulate requires --scenario")
    text = _read_file(args.scenario)
    try:
        scenarios = sim.load_scenarios(text)
    except ExtensionError as exc:
        raise CliError(f"{args.scenario}: {exc}") from exc
    findings: list[Finding] = []
    summaries = []
    for i, scenario in enumerate(scenarios, start=1):
        trace = sim.run_scenario(scenario)
        findings.extend(sim.check_trace(trace, kb))
        summaries.append(
            {"scenario": i, "outcome": trace.outcome.value, "events": len(trace.events)}
        )
    return Report("simulate", tuple(findings), {"traces": summaries})


def _cmd_graph(args, kb: KnowledgeBase) -> Report:
    """The graph travels in the payload; it is emitted only as DOT or TSV."""
    from ssiarch import graph
    model = None
    if args.scope == "model":
        result = _load_model(args.model, kb)
        if result.model is None:
            messages = "; ".join(f.message for f in result.findings)
            raise CliError(f"model does not resolve: {messages}")
        model = result.model
    return Report("graph", (), {"graph": graph.build_graph(kb.dependencies, kb.ownership, model)})


_HANDLERS = {
    "validate": _cmd_validate,
    "coverage": _cmd_coverage,
    "deps": _cmd_deps,
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
}


def _check_format(args) -> None:
    if args.command == "graph" and args.format not in _GRAPH_FORMATS:
        raise CliError("graph requires --format dot or --format tsv")
    if args.command != "graph" and args.format in _GRAPH_FORMATS:
        raise CliError(f"--format {args.format} applies only to the graph command")


def _emit(report: Report, fmt: str) -> str:
    if fmt in _GRAPH_FORMATS:
        from ssiarch import graph
        emit = graph.to_dot if fmt == "dot" else graph.to_tsv
        return emit(report.payload["graph"])
    if fmt == "json":
        return emit_json(report)
    if fmt == "markdown":
        return emit_markdown(report)
    return emit_human(report, color=os.environ.get("SSIARCH_NO_COLOR") is None)


class _Parser(argparse.ArgumentParser):
    """Writes help to `out`, and raises a usage error as a CliError, which
    `run` writes to `err` like every other input error."""

    out = sys.stdout

    def print_help(self, file=None) -> None:
        self.out.write(self.format_help())

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def build_parser(out=sys.stdout) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ssiarch",
        description="Actor-oriented NFR analysis for DI/SSI architectures.",
    )
    parser.add_argument(
        "command",
        choices=list(_HANDLERS),
    )
    parser.add_argument("--model", help="path to a .ssiarch model file")
    parser.add_argument(
        "--kb",
        action="append",
        default=[],
        metavar="PATH",
        help="KB extension file; may repeat, merged in order",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "dot", "tsv", "markdown"],
        default="human",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="minimum severity that forces a nonzero exit",
    )
    parser.add_argument("--scope", choices=["kb", "model"], default="kb")
    parser.add_argument("--diff", action="store_true", help="deps: diff against derivation")
    parser.add_argument("--scenario", help="scenario file for simulate")
    parser.out = out
    return parser


def run(argv: list[str], out=sys.stdout, err=sys.stderr) -> int:
    try:
        args = build_parser(out).parse_args(argv)
        _check_format(args)
        report = _HANDLERS[args.command](args, _load_kb(args.kb))
    except SystemExit as exc:  # from --help, once the help is written
        return EXIT_USAGE if exc.code else EXIT_OK
    except CliError as exc:
        err.write(f"ssiarch: {str(exc).translate(CONTROL_ESCAPES)}\n")
        return EXIT_USAGE
    out.write(_emit(report, args.format))
    threshold = Severity(args.fail_on).rank
    if any(f.severity.rank >= threshold for f in report.findings):
        return EXIT_FINDINGS
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
