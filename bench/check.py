"""Per-op output checks. Each check returns a list of problems; an op
whose list is non-empty counts as failed."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from operator import itemgetter

import jsonschema

from ssiarch.report import REPORT_SCHEMA

_HUMAN_FINDING = re.compile(r"^  \S+ \[([^\]]+)\] ", re.M)
_DOT_EDGE = re.compile(
    r'^  ("(?:[^"\\]|\\.)*"|\w+) -> ("(?:[^"\\]|\\.)*"|\w+) \[label="([DO]):(NFR\d+)"\];$', re.M
)


def _canonical(schema: dict):
    """Map a JSON value to a representative that the schema accepts iff
    it accepts the value: strings checked only for type become "", and
    integers checked only for type and minimum become the minimum.
    Findings collapse to a few representatives, which keeps full schema
    validation of reports with thousands of findings cheap."""
    keys = set(schema)
    if schema.get("type") == "string" and keys == {"type"}:
        return lambda v: "" if isinstance(v, str) else v
    if schema.get("type") == "integer" and keys <= {"type", "minimum"}:
        low = schema.get("minimum", 0)
        return lambda v: low if type(v) is int and v >= low else v
    if schema.get("type") == "object" and "properties" in schema:
        fields = {k: _canonical(sub) for k, sub in schema["properties"].items()}
        return lambda v: (
            {k: fields.get(k, _same)(x) for k, x in v.items()} if isinstance(v, dict) else v
        )
    return _same


def _same(value):
    return value


def _unquote(node: str) -> str:
    return node[1:-1].replace('\\"', '"') if node.startswith('"') else node


def _rules(fmt: str, out: str, doc: dict | None) -> Counter:
    if fmt == "json":
        return Counter(f["rule"] for f in doc["findings"])
    if fmt == "human":
        return Counter(_HUMAN_FINDING.findall(out))
    rules: Counter = Counter()
    lines = out.split("\n")
    if "## Findings" in lines:
        for row in lines[lines.index("## Findings") + 4 :]:
            if not row.startswith("| "):
                break
            rules[row.split(" | ")[1]] += 1
    return rules


class Checker:
    """Checks outputs against the generator's expected answers. Keeps
    the per-model edge digests that pair a DOT export with its TSV twin,
    and counts model-graph edges from an owner to another owner's wallet."""

    def __init__(self, golden_dot: str) -> None:
        self.validator = jsonschema.Draft7Validator(REPORT_SCHEMA)
        self.canonical_finding = _canonical(REPORT_SCHEMA["properties"]["findings"]["items"])
        self.golden_dot = golden_dot
        self.golden_edges = self._dot_edges(golden_dot)
        self.digests: dict[int, str] = {}
        self.cross_owner_wallet_edges = 0

    def check(self, op, code: int | None, out: str, err: str) -> list[str]:
        if code != op.exit:
            return [f"exit {code}, expected {op.exit}: {err.strip()[:200]}"]
        if op.exit == 2:
            problems = [] if err.startswith("ssiarch: ") else ["no usage message on stderr"]
            return problems + (["output on stdout for a rejected input"] if out else [])
        if op.kind == "graph":
            return self._graph(op, out)
        doc = None
        if op.fmt == "json":
            try:
                doc = json.loads(out)
            except ValueError as exc:
                return [f"invalid JSON: {exc}"]
            errors = [e.message for e in self.validator.iter_errors(self._representative(doc))]
            if errors:
                return [f"schema: {errors[0]}"]
            if doc["command"] != op.kind:
                return [f"command {doc['command']!r}, expected {op.kind!r}"]
        problems = []
        if op.rules is not None:
            got = _rules(op.fmt, out, doc)
            if got != Counter(op.rules):
                problems.append(f"finding counts {dict(got)}, expected {op.rules}")
        if doc is not None:
            problems += self._payload(op, doc["payload"])
        elif not out:
            problems.append("empty output")
        return problems

    def _representative(self, doc):
        if not isinstance(doc, dict) or not isinstance(doc.get("findings"), list):
            return doc
        unique = {}
        for finding in doc["findings"]:
            rep = self.canonical_finding(finding)
            unique.setdefault(json.dumps(rep, sort_keys=True), rep)
        return dict(doc, findings=list(unique.values()))

    def _payload(self, op, payload: dict) -> list[str]:
        want = op.expect
        if op.kind == "validate":
            got = {k: payload.get(k) for k in want}
        elif op.kind == "simulate":
            got = {"traces": [[t["outcome"], t["events"]] for t in payload["traces"]]}
        elif op.kind == "stats":
            got = {"primaries": payload["computed"]}
        elif op.kind == "deps" and "diff_total" in want:
            got = {"diff_total": len(payload["matched"]) + len(payload["missing_from_derived"])}
        elif op.kind == "deps":
            got = {"relations": len(payload["relations"])}
        else:
            return []
        return [] if got == want else [f"payload {str(got)[:200]}, expected {str(want)[:200]}"]

    @staticmethod
    def _dot_edges(out: str) -> list[tuple[str, ...]] | None:
        if not out.startswith("digraph deps {\n") or not out.endswith("\n}\n"):
            return None
        edges = _DOT_EDGE.findall(out)
        if len(edges) != out.count(" -> "):
            return None
        if '\n  "' in out or '-> "' in out:  # quoted node ids
            edges = [(_unquote(a), _unquote(b), k, n) for a, b, k, n in edges]
        return edges

    def _graph(self, op, out: str) -> list[str]:
        if op.fmt == "dot":
            edges = self._dot_edges(out)
            if edges is None:
                return ["malformed DOT"]
        else:
            edges = [tuple(line.split("\t")) for line in out.split("\n")[:-1]]
            if out and not out.endswith("\n") or any(len(e) != 4 for e in edges):
                return ["malformed TSV"]
        if op.expect.get("golden"):
            if op.fmt == "dot" and out != self.golden_dot:
                return ["KB-scope DOT differs from the golden file"]
            if edges != self.golden_edges:
                return ["KB-scope edges differ from the golden file"]
            return []
        if not edges:
            return ["no edges"]
        digest = hashlib.sha256("\n".join(map("\t".join, edges)).encode()).hexdigest()
        if self.digests.setdefault(op.expect["model"], digest) != digest:
            return ["DOT and TSV list different edges"]
        ids = op.expect["ids"]
        sources = set(map(itemgetter(0), edges))
        stray = (sources | set(map(itemgetter(1), edges))) - {"system"}.union(*ids.values())
        if stray:
            return [f"undeclared endpoints {sorted(stray)[:5]}"]
        required = {
            (v, o, "D", nfr) for nfr in op.expect["vo_nfrs"] for v in ids["v"] for o in ids["o"]
        }
        missing = required.difference(edges)
        if missing:
            return [f"{len(missing)} (verifier, owner) edges missing, e.g. {min(missing)}"]
        wallet_owner = op.expect["wallet_owner"]
        owners = set(ids["o"])
        self.cross_owner_wallet_edges += sum(
            1
            for src, dst, _, _ in edges
            if dst in wallet_owner and src in owners and wallet_owner[dst] != src
        )
        return []
