import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssiarch.cli import run
from ssiarch.findings import Finding, Severity
from ssiarch.report import REPORT_SCHEMA, Report, emit_human, emit_markdown


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_clean_model(datadir):
    code, out, _ = invoke(["validate", "--model", str(datadir / "demo.ssiarch"), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert all(f["severity"] == "info" for f in doc["findings"])


def test_validate_invalid_claim(datadir):
    code, out, _ = invoke(
        ["validate", "--model", str(datadir / "invalid_claim.ssiarch"), "--format", "json"]
    )
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert any(f["rule"] == "claims.no-responsibility" for f in doc["findings"])


def test_validate_malformed_file(tmp_path):
    bad = tmp_path / "bad.ssiarch"
    bad.write_text('system "x" {')
    code, out, err = invoke(["validate", "--model", str(bad)])
    assert code == 2
    assert not out
    assert "bad.ssiarch" in err


def test_missing_file_is_exit_2(tmp_path):
    code, _, err = invoke(["validate", "--model", str(tmp_path / "nope.ssiarch")])
    assert code == 2
    assert "nope.ssiarch" in err


def test_missing_model_argument_is_exit_2():
    code, _, err = invoke(["validate"])
    assert code == 2
    assert "--model" in err


def test_unknown_command_is_exit_2():
    code, _, _ = invoke(["frobnicate"])
    assert code == 2


def test_fail_on_threshold(datadir):
    model = str(datadir / "demo.ssiarch")
    assert invoke(["validate", "--model", model])[0] == 0
    assert invoke(["validate", "--model", model, "--fail-on", "info"])[0] == 1


def test_deps_diff_payload():
    code, out, _ = invoke(["deps", "--diff", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["payload"]["missing_from_derived"] == [
        {"depender": "v", "dependee": "o", "nfr": "NFR4"}
    ]
    assert doc["payload"]["extra_in_derived"] == []
    assert len(doc["payload"]["matched"]) == 7


def test_deps_lists_relations():
    _, out, _ = invoke(["deps", "--format", "json"])
    doc = json.loads(out)
    assert len(doc["payload"]["relations"]) == 8


def test_stats_payload():
    code, out, _ = invoke(["stats", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["payload"]["computed"] == {"o": 12, "i": 6, "v": 4}
    assert doc["payload"]["claimed"] == {"o": 11, "i": 6, "v": 5}
    assert len(doc["payload"]["discrepancies"]) == 2


def test_coverage_with_extension(datadir):
    _, out, _ = invoke(
        ["coverage", "--kb", str(datadir / "full_coverage.kbx"), "--format", "json"]
    )
    doc = json.loads(out)
    gaps = [g["key"] for g in doc["payload"]["uncovered"]]
    assert gaps == ["NFR3", "NFR5", "NFR6", "NFR10", "NFR12", "NFR23"]
    names = [g["name"] for g in doc["payload"]["uncovered"]]
    assert names[0] == "Autonomy"


def test_malformed_extension_is_exit_2(tmp_path):
    bad = tmp_path / "bad.kbx"
    bad.write_text("[dependency]\nnfr = NFR25\ndepender = v\ndependee = o\n")
    code, _, err = invoke(["deps", "--kb", str(bad)])
    assert code == 2
    assert "NFR25" in err


def test_graph_dot_and_tsv(datadir):
    code, dot, _ = invoke(["graph", "--format", "dot"])
    assert code == 0
    golden = (datadir.parent / "tests" / "golden" / "builtin_graph.dot").read_text()
    assert dot == golden
    code, tsv, _ = invoke(["graph", "--format", "tsv"])
    assert code == 0
    assert "v\ti\tD\tNFR2" in tsv.splitlines()


def test_graph_requires_dot_or_tsv():
    code, _, err = invoke(["graph", "--format", "json"])
    assert code == 2
    assert "dot" in err


def test_dot_format_rejected_elsewhere():
    code, _, _ = invoke(["stats", "--format", "dot"])
    assert code == 2


def test_simulate(datadir):
    code, out, _ = invoke(
        ["simulate", "--scenario", str(datadir / "demo.scenario"), "--format", "json"]
    )
    assert code == 1  # the over-disclosure scenario yields an error finding
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [t["outcome"] for t in doc["payload"]["traces"]] == ["granted", "granted"]
    assert any(f["rule"] == "sim.nfr14.overdisclosure" for f in doc["findings"])


def test_simulate_requires_scenario():
    code, _, err = invoke(["simulate"])
    assert code == 2
    assert "--scenario" in err


def test_json_output_is_deterministic(datadir):
    args = ["validate", "--model", str(datadir / "invalid_claim.ssiarch"), "--format", "json"]
    assert invoke(args)[1] == invoke(args)[1]


def test_markdown_output(datadir):
    _, out, _ = invoke(["stats", "--format", "markdown"])
    assert "# ssiarch stats report" in out
    assert "| o | 12 |" in out
    _, out, _ = invoke(["coverage", "--format", "markdown"])
    assert "Autonomy" in out


def test_human_no_color(datadir, monkeypatch):
    monkeypatch.setenv("SSIARCH_NO_COLOR", "1")
    _, out, _ = invoke(["validate", "--model", str(datadir / "invalid_claim.ssiarch")])
    assert "\x1b[" not in out
    monkeypatch.delenv("SSIARCH_NO_COLOR")
    _, out, _ = invoke(["validate", "--model", str(datadir / "invalid_claim.ssiarch")])
    assert "\x1b[" in out


def test_console_entry_point(datadir):
    src = str(datadir.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ssiarch.cli", "stats", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "stats"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--model"],
        ["stats", "--kb"],
        ["simulate", "--scenario"],
    ],
)
def test_undecodable_input_is_exit_2(tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b'system "\xff\xfe" {}\n')
    code, out, err = invoke([*argv, str(bad)])
    assert code == 2
    assert not out
    assert err.startswith(f"ssiarch: cannot read {bad}: ")


def test_lone_cr_in_a_model_file_is_read_as_written(tmp_path, kb):
    from ssiarch.dsl import load_model

    text = (
        'system "x" { actor owner "a\rb" { claims: [NFR1]; } '
        'actor issuer "i" {} actor verifier "v" {} }\n'
    )
    path = tmp_path / "cr.ssiarch"
    path.write_bytes(text.encode("utf-8"))
    result = load_model(text, kb)
    assert result.model is not None and result.findings == []
    code, out, err = invoke(["validate", "--model", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    assert [f["subject"] for f in json.loads(out)["findings"]] == ["a\rb"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--model", "demo.ssiarch", "--format", "human"],
        ["validate", "--model", "demo.ssiarch", "--format", "json"],
        ["coverage", "--scope", "model", "--model", "demo.ssiarch", "--format", "markdown"],
        ["graph", "--scope", "model", "--model", "demo.ssiarch", "--format", "dot"],
        ["simulate", "--scenario", "demo.scenario", "--format", "human"],
        ["simulate", "--scenario", "demo.scenario", "--format", "json"],
        ["deps", "--kb", "extra_deps.kbx", "--format", "json"],
    ],
)
def test_crlf_files_give_the_same_output(datadir, tmp_path, argv):
    sample = next(a for a in argv if "." in a)
    crlf = tmp_path / sample
    crlf.write_bytes((datadir / sample).read_bytes().replace(b"\n", b"\r\n"))
    with_lf = invoke([str(datadir / a) if a == sample else a for a in argv])
    with_crlf = invoke([str(crlf) if a == sample else a for a in argv])
    assert with_crlf == with_lf
    assert with_lf[0] in (0, 1) and with_lf[1]


def test_path_with_nul_is_exit_2():
    code, out, err = invoke(["validate", "--model", "demo\0.ssiarch"])
    assert code == 2
    assert not out
    assert err.startswith("ssiarch: cannot read ")


def test_non_ascii_nfr_digits_are_exit_2(tmp_path):
    for claim in ("NFR²", "NFR١"):
        model = tmp_path / "m.ssiarch"
        model.write_text(
            'system "x" { actor owner "a" { claims: [%s]; } '
            'actor issuer "i" {} actor verifier "v" {} }' % claim,
            encoding="utf-8",
        )
        code, out, err = invoke(["validate", "--model", str(model)])
        assert code == 2
        assert not out
        assert "expected NFR key" in err


def test_overlong_nfr_key_is_a_finding(tmp_path):
    model = tmp_path / "m.ssiarch"
    model.write_text(
        'system "x" { actor owner "a" { claims: [NFR%s]; } '
        'actor issuer "i" {} actor verifier "v" {} }' % ("1" * 5000),
        encoding="utf-8",
    )
    code, out, _ = invoke(["validate", "--model", str(model), "--format", "json"])
    assert code == 1
    assert [f["rule"] for f in json.loads(out)["findings"]] == ["model.unknown-nfr"]


def test_actor_named_system_is_not_graphed(tmp_path):
    model = tmp_path / "m.ssiarch"
    model.write_text(
        'system "x" { actor owner "system" {} actor issuer "i" {} actor verifier "v" {} }',
        encoding="utf-8",
    )
    argv = ["graph", "--scope", "model", "--format", "dot", "--model", str(model)]
    code, out, err = invoke(argv)
    assert code == 2
    assert not out
    assert "reserved" in err


def test_format_mismatch_rejected_before_reading_files(tmp_path):
    missing = str(tmp_path / "missing.ssiarch")
    code, out, err = invoke(["validate", "--model", missing, "--format", "dot"])
    assert code == 2
    assert not out
    assert "--format dot applies only to the graph command" in err
    assert "cannot read" not in err
    code, out, err = invoke(["graph", "--kb", missing, "--format", "json"])
    assert code == 2
    assert not out
    assert "graph requires --format dot or --format tsv" in err
    assert "cannot read" not in err


_COMMANDS = ["validate", "coverage", "deps", "graph", "simulate", "stats"]
_SAMPLE_BYTES = [
    (Path(__file__).resolve().parent.parent / "samples" / name).read_bytes()
    for name in ("demo.ssiarch", "invalid_claim.ssiarch", "demo.scenario", "extra_deps.kbx")
]


@st.composite
def _cli_inputs(draw):
    """argv over the CLI's commands, flags and values, plus the bytes of
    each file it names (None for a missing file)."""
    argv = [draw(st.sampled_from(_COMMANDS))]
    files: dict[str, bytes | None] = {}
    for flag in ("--model", "--kb", "--scenario"):
        if draw(st.booleans()):
            name = f"f{len(files)}"
            files[name] = draw(
                st.one_of(
                    st.none(),
                    st.binary(max_size=64),
                    st.sampled_from(_SAMPLE_BYTES),
                    st.sampled_from(_SAMPLE_BYTES).flatmap(
                        lambda b: st.binary(min_size=1, max_size=4).map(
                            lambda junk: b[: len(b) // 2] + junk + b[len(b) // 2 :]
                        )
                    ),
                )
            )
            argv += [flag, name]
    for flag, values in (
        ("--format", ["human", "json", "dot", "tsv", "markdown", "xml"]),
        ("--fail-on", ["error", "warning", "info"]),
        ("--scope", ["kb", "model"]),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv.append("--diff")
    return argv, files


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cli_inputs())
def test_exit_code_contract(inputs):
    argv, files = inputs
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            if data is not None:
                (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = run(argv, out=out, err=err)
    assert code in (0, 1, 2)


def test_extension_nfr_key_spelling_is_exit_2(tmp_path):
    bad = tmp_path / "bad.kbx"
    bad.write_text("[dependency]\ndepender = v\ndependee = o\nnfr = NFR+1\n", encoding="utf-8")
    code, out, err = invoke(["deps", "--kb", str(bad)])
    assert code == 2
    assert not out
    assert "line 4" in err and "NFR+1" in err


def _cells(row):
    """The cells of a markdown table row, split at unescaped pipes."""
    return re.split(r"(?<!\\)\|", row)[1:-1]


def test_markdown_cells_are_escaped(tmp_path):
    model = tmp_path / "m.ssiarch"
    model.write_text(
        'system "x" { actor owner "a|b" { claims: [NFR1]; } '
        'actor issuer "i" { claims: [NFR2]; } actor verifier "v" {} }',
        encoding="utf-8",
    )
    code, out, _ = invoke(["validate", "--model", str(model), "--format", "markdown"])
    assert code == 0
    lines = out.split("\n")
    start = lines.index("## Findings") + 4  # title, blank, header, rule
    rows = lines[start : lines.index("", start)]
    assert [len(_cells(row)) for row in rows] == [4, 4]
    assert "| a\\|b | owner 'a\\|b' legitimately claims NFR1 (Accessibility) |" in out


def test_markdown_cells_stay_on_one_line():
    finding = Finding(Severity.ERROR, "claims.ok", "a\r\nb", "two\nlines|here")
    out = emit_markdown(Report("validate", (finding,), {"k": {"x\ny": "p|q\r"}}))
    assert "| error | claims.ok | a  b | two lines\\|here |" in out
    assert "| x y | p\\|q  |" in out


#: Modules each command must not load: (argv, forbidden module names).
_LAZY_IMPORTS = [
    (["stats"], ["ssiarch.dsl", "ssiarch.sim", "ssiarch.graph", "ssiarch.extension", "hashlib"]),
    (["validate", "--model", "demo.ssiarch"], ["ssiarch.sim", "ssiarch.graph", "hashlib"]),
    (["graph", "--format", "dot"], ["ssiarch.dsl", "ssiarch.analysis", "ssiarch.sim"]),
    (["simulate", "--scenario", "demo.scenario"], ["ssiarch.dsl", "ssiarch.analysis", "ssiarch.graph"]),
    (["deps"], ["ssiarch.analysis"]),
]


@pytest.mark.parametrize("argv, forbidden", _LAZY_IMPORTS, ids=[a[0] for a, _ in _LAZY_IMPORTS])
def test_command_loads_only_its_modules(datadir, argv, forbidden):
    """A fresh interpreter runs one command; the modules it loaded are
    read from sys.modules afterwards."""
    script = (
        "import io, json, sys\n"
        "from ssiarch import cli\n"
        "code = cli.run(sys.argv[1:], out=io.StringIO())\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = str(datadir.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=datadir, env=env
    )
    code, loaded = json.loads(proc.stdout)
    assert code in (0, 1), proc.stderr
    assert "ssiarch.cli" in loaded
    assert sorted(set(forbidden) & set(loaded)) == []


def test_human_lines_escape_control_characters(kb):
    # A file read in text mode turns CR into LF, which ends a DSL string,
    # so the model text goes straight to the library.
    from ssiarch.analysis import check_claims
    from ssiarch.dsl import load_model

    model = load_model(
        'system "x" { actor owner "a\x1b[2Jb\rc" { claims: [NFR1, NFR2]; } '
        'actor issuer "i" { claims: [NFR2]; } actor verifier "v" {} }',
        kb,
    ).model
    findings = check_claims(model, kb)
    assert len(findings) == 4
    lines = emit_human(Report("validate", tuple(findings), {}), color=False).splitlines()
    assert len(lines) == len(findings) + 1
    assert all(line.isprintable() for line in lines)
    assert sum(" a\\x1b[2Jb\\x0dc @1:14: " in line for line in lines) == 3


def test_human_escapes_c0_del_and_c1():
    finding = Finding(Severity.ERROR, "claims.ok", "a\x7fb\x9bc\x85", "m\x00\tn")
    out = emit_human(Report("validate", (finding,), {}), color=False)
    assert out.splitlines()[1] == "  error [claims.ok] a\\x7fb\\x9bc\\x85: m\\x00\\x09n"


def test_stderr_escapes_control_characters(tmp_path):
    # The record header is quoted verbatim in the error message.
    kbx = tmp_path / "x.kbx"
    kbx.write_text("[x\x1b[2Jy]\n", encoding="utf-8")
    code, out, err = invoke(["deps", "--kb", str(kbx)])
    assert code == 2
    assert not out
    assert err.endswith(": line 1, col 1: unknown record type [x\\x1b[2Jy]\n")
    assert err[:-1].isprintable()
    code, out, err = invoke(["validate", "--model", str(tmp_path / "no\nsuch\x9b")])
    assert code == 2
    assert err.endswith("no\\x0asuch\\x9b: No such file or directory\n")
    assert err[:-1].isprintable()


def test_usage_errors_and_help_use_the_given_streams(capsys):
    """argparse's own messages go through `run`'s streams, never the
    process's: a usage error to `err` as one escaped `ssiarch:` line
    (exit 2), and `--help` to `out` (exit 0)."""
    code, out, err = invoke(["stats", "x\x1b[2Jy"])
    assert code == 2
    assert not out
    assert err == "ssiarch: unrecognized arguments: x\\x1b[2Jy\n"
    code, out, err = invoke(["--help"])
    assert code == 0
    assert out.startswith("usage: ssiarch") and "--scenario" in out
    assert not err
    assert capsys.readouterr() == ("", "")
