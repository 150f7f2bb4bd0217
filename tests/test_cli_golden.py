"""Golden CLI outputs: the stdout and exit code of every command on the
shipped samples, in every format the command accepts.

Regenerate the files under tests/golden/cli/ from the repository root
with `PYTHONPATH=src python tests/test_cli_golden.py` (only when an
output change is intended)."""

import io
import json
import os
from pathlib import Path

import pytest

from ssiarch.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli"

REPORT_FORMATS = ("human", "json", "markdown")
GRAPH_FORMATS = ("dot", "tsv")
MODELS = ("demo", "invalid_claim")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}

    def add(name: str, argv: list[str], formats) -> None:
        for fmt in formats:
            cases[f"{name}.{fmt}"] = [*argv, "--format", fmt]

    for model in MODELS:
        argv = ["validate", "--model", f"samples/{model}.ssiarch"]
        add(f"validate-{model}", argv, REPORT_FORMATS)
    add("stats", ["stats"], REPORT_FORMATS)
    for diff in ((), ("--diff",)):
        for kb in ((), ("--kb", "samples/extra_deps.kbx")):
            name = "deps" + ("-diff" if diff else "") + ("-extra" if kb else "")
            add(name, ["deps", *diff, *kb], REPORT_FORMATS)
    for kb in ((), ("--kb", "samples/full_coverage.kbx")):
        suffix = "-full" if kb else ""
        add(f"coverage-kb{suffix}", ["coverage", *kb], REPORT_FORMATS)
        for model in MODELS:
            argv = ["coverage", "--scope", "model", "--model", f"samples/{model}.ssiarch", *kb]
            add(f"coverage-{model}{suffix}", argv, REPORT_FORMATS)
    add("simulate-demo", ["simulate", "--scenario", "samples/demo.scenario"], REPORT_FORMATS)
    add("graph-kb", ["graph"], GRAPH_FORMATS)
    add("graph-kb-extra", ["graph", "--kb", "samples/extra_deps.kbx"], GRAPH_FORMATS)
    for model in MODELS:
        add(
            f"graph-{model}",
            ["graph", "--scope", "model", "--model", f"samples/{model}.ssiarch"],
            GRAPH_FORMATS,
        )
    # Format/command mismatches: exit 2 and nothing on stdout.
    add("stats-mismatch", ["stats"], GRAPH_FORMATS)
    add("validate-demo-mismatch", ["validate", "--model", "samples/demo.ssiarch"], GRAPH_FORMATS)
    add("graph-mismatch", ["graph"], REPORT_FORMATS)
    return cases


CASES = _cases()


def _invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue()


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("SSIARCH_NO_COLOR", "1")


def test_golden_matrix_is_complete():
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(exit_codes) == sorted(CASES)
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(f"{n}.out" for n in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, at_root):
    code, out = _invoke(CASES[name])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def _write_goldens() -> None:
    os.chdir(ROOT)
    os.environ["SSIARCH_NO_COLOR"] = "1"
    GOLDEN.mkdir(parents=True, exist_ok=True)
    exit_codes = {}
    for name, argv in sorted(CASES.items()):
        exit_codes[name], out = _invoke(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2) + "\n")


if __name__ == "__main__":
    _write_goldens()
