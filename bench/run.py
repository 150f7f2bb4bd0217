#!/usr/bin/env python3
"""ssiarch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. One client drives the CLI in a closed loop: each op starts after
the previous one ended. `cold_cli` starts a fresh `python -m ssiarch.cli`
per op; the other workloads call `ssiarch.cli.run` in one worker process.
Every output is checked against the generator's expected answer.

`--trace 0` times the ops for at least one whole pass, S seconds and
100 ops, and reports the end-to-end metrics, scaled to a reference host
speed (host.py). `--trace 1` runs each op of one fixed pass of the
workload untraced and traced, and reports per-layer self times and counts.
The last stdout line is one JSON object: correct, attempted, failed and
metrics. See bench/README.md for the workloads and metrics."""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spawn
from host import REF_NS
from spans import SPAN_NAMES, summarize

STARTED = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "builtin_graph.dot"

MIN_OPS = 100
#: Timed loops stop this long after start even below MIN_OPS, so a run
#: ends well inside the 180-s limit.
WALL_CAP_S = 140
SETUP_PROBES = 11
BARE_PROBES = 7
RECHECK_OPS = 8
CALIB_SPAN = 5

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


@dataclass
class Result:
    code: int | None
    ns: int
    out: str
    err: str
    raised: str | None = None
    rss_kb: int = 0
    calib_ns: int = 0


def _wait(proc: subprocess.Popen):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_process(cmd: list[str], workdir: Path, spawner: Worker | None = None) -> Result:
    """Run one program process to completion; wall time covers its
    whole life, interpreter start included. The process is started by
    `spawner` (bench/spawn.py), or else by this one, whose resident
    size then counts in its peak RSS."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    if spawner is None:
        code, ns, rss_kb = spawn.run(cmd, out_path, err_path, ROOT, ENV)
    else:
        head = spawner.ask({"cmd": cmd, "out": str(out_path), "err": str(err_path)})
        code, ns, rss_kb = head["code"], head["ns"], head["rss_kb"]
    text_out = out_path.read_text(encoding="utf-8", errors="replace")
    text_err = err_path.read_text(encoding="utf-8", errors="replace")
    raised = text_err if "Traceback (most recent call last)" in text_err else None
    return Result(code, ns, text_out, text_err, raised, rss_kb)


class Worker:
    """A helper process of the benchmark that answers one JSON line per
    request: bench/worker.py for the in-process workloads, bench/spawn.py
    to start `cold_cli` ops."""

    def __init__(self, script: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script)],
            cwd=ROOT,
            env=ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited")
        return json.loads(line)

    def run(self, op_id: int, argv: list[str], trace: bool) -> Result:
        head = self.ask({"op": op_id, "argv": argv, "trace": trace})
        out = self.proc.stdout.read(head["out"]).decode("utf-8", errors="replace")
        err = self.proc.stdout.read(head["err"]).decode("utf-8", errors="replace")
        return Result(head["exit"], head["ns"], out, err, head["raised"], calib_ns=head["calib_ns"])

    def dump_spans(self, path: Path) -> None:
        self.ask({"spans": str(path)})

    def close(self) -> int:
        """Stop the process; returns its peak RSS in KiB."""
        self.proc.stdin.close()
        usage = _wait(self.proc)
        self.proc.stdout.close()
        return usage.ru_maxrss

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            _wait(self.proc)


def probe_setup(kbx: list[str], workdir: Path) -> tuple[float, float, int]:
    """Set-up seconds, import milliseconds and calibration nanoseconds of
    one fresh interpreter."""
    res = run_process([sys.executable, str(BENCH / "probe.py"), *kbx], workdir)
    if res.code != 0:
        raise RuntimeError(f"set-up probe failed: {res.err.strip()}")
    doc = json.loads(res.out)
    return doc["setup_ns"] / 1e9, doc["import_ns"] / 1e6, doc["calib_ns"]


class Runner:
    """Runs and checks ops of one workload, cold or in-process."""

    def __init__(self, workload: str, workdir: Path, checker) -> None:
        self.cold = workload == "cold_cli"
        self.workdir = workdir
        self.checker = checker
        self.worker = Worker("spawn.py" if self.cold else "worker.py")
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def run(self, op_id: int, op, trace: bool) -> Result:
        if not self.cold:
            res = self.worker.run(op_id, op.argv, trace)
        elif trace:
            spans_path = self.workdir / f"spans-{op_id}.json"
            cmd = [sys.executable, str(BENCH / "shim.py"), str(spans_path), *op.argv]
            res = run_process(cmd, self.workdir, self.worker)
        else:
            cmd = [sys.executable, "-m", "ssiarch.cli", *op.argv]
            res = run_process(cmd, self.workdir, self.worker)
            self.peak_rss_kb = max(self.peak_rss_kb, res.rss_kb)
        if res.raised:
            problems = [f"raised {res.raised}"]
        else:
            problems = self.checker.check(op, res.code, res.out, res.err)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {op_id} {' '.join(op.argv)}: {problems[0]}", file=sys.stderr)
        return res

    def spans(self, op_ids: range) -> tuple[list, dict[int, dict[str, int]]]:
        """Spans (one list per program process) and per-op counts."""
        if not self.cold:
            path = self.workdir / "spans.json"
            self.worker.dump_spans(path)
            doc = json.loads(path.read_text())
            return [doc["spans"]], {int(k): v for k, v in doc["counts"].items()}
        lists, counts = [], {}
        for op_id in op_ids:
            doc = json.loads((self.workdir / f"spans-{op_id}.json").read_text())
            lists.append([(n, s, e, p, op_id) for n, s, e, p, _ in doc["spans"]])
            counts[op_id] = doc["counts"].get("0", {})
        return lists, counts

    def close(self) -> None:
        rss_kb = self.worker.close()
        if not self.cold:
            self.peak_rss_kb = rss_kb

    def kill(self) -> None:
        self.worker.kill()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed(runner: Runner, ops, seconds: float, probe) -> tuple[dict, dict]:
    """Closed loop over the ops, until `seconds` of op time, MIN_OPS ops
    and one whole pass have run. Every run thus has the pass's op mix,
    plus, when the pass took less than `seconds`, a prefix of the next
    pass, which is itself spread over the size range. A set-up probe runs between ops each time another 1/SETUP_PROBES of the
    op-time budget has passed, so set-up is sampled across the same
    stretch of host speed as the ops.

    Times are scaled to the reference host speed (host.py): an
    in-process op's by the median of the calibrations run before it and
    the CALIB_SPAN ops on either side, so one calibration hit by an
    interrupt does not skew it; a set-up probe's by its own. A `cold_cli`
    op runs in a fresh process, like a probe, so all of them are scaled
    by the median calibration of the run's probes. Returns the metrics
    and, for the printed row only, the same figures unscaled."""
    results: list[Result] = []
    setups: list[tuple[float, int]] = []
    budget = seconds * 1e9
    spent = 0
    while spent < budget or len(results) < max(MIN_OPS, len(ops)):
        if time.monotonic() - STARTED > WALL_CAP_S:
            break
        if len(setups) < SETUP_PROBES and spent >= len(setups) * budget / SETUP_PROBES:
            setup_s, _, calib_ns = probe()
            setups.append((setup_s, calib_ns))
            continue
        j = len(results)
        results.append(runner.run(j, ops[j % len(ops)], False))
        spent += results[-1].ns
    for _ in range(SETUP_PROBES - len(setups)):
        setup_s, _, calib_ns = probe()
        setups.append((setup_s, calib_ns))
    runner.close()
    probe_calib = statistics.median(c for _, c in setups)
    scaled = [r.ns for r in results]
    if runner.cold:
        scaled = [ns * REF_NS / probe_calib for ns in scaled]
    else:
        calib = [r.calib_ns for r in results]
        for j in range(len(scaled)):
            near = calib[max(0, j - CALIB_SPAN) : j + CALIB_SPAN + 1]
            scaled[j] *= REF_NS / statistics.median(near)

    def figures(durations: list[float], setup: list[float]) -> dict:
        ms = [d / 1e6 for d in durations]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (p90(ms), "ms"),
            "ops_per_s": (len(ms) / (sum(durations) / 1e9), "1/s"),
            "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        }

    metrics = figures(scaled, [s * REF_NS / c for s, c in setups])
    unscaled = figures([r.ns for r in results], [s for s, _ in setups])
    unscaled["host_speed"] = (REF_NS / probe_calib, "x")
    return metrics, unscaled


COUNTS = {
    "kb.builtin_kb.calls": ["kb.builtin_kb.calls"],
    "extension.parse_records.records": ["extension.parse_records.records"],
    "dsl.tokenize.tokens": ["dsl.tokenize.tokens"],
    "dsl.resolve.findings": ["dsl.resolve.findings"],
    "analysis.check_claims.findings": ["analysis.check_claims.findings"],
    "analysis.derive_dependencies.calls": ["analysis.derive_dependencies.calls"],
    "graph.edges": ["graph.build_graph.edges"],
    "graph.out_bytes": ["graph.to_dot.out_bytes", "graph.to_tsv.out_bytes"],
    "sim.run_scenario.calls": ["sim.run_scenario.calls"],
    "sim.findings": ["sim.check_trace.findings"],
    "report.out_bytes": [
        "report.emit_json.out_bytes",
        "report.emit_markdown.out_bytes",
        "report.emit_human.out_bytes",
    ],
}
SELF_MS = ("kb.builtin_kb", "cli.run", "extension.load_extension", "extension.merge")


def traced(runner: Runner, ops, workdir: Path, import_ms: float) -> tuple[dict, list[str]]:
    """Each op of one pass runs untraced and traced, in alternating
    order, so both see the same process state; then the first few ops
    run traced again and their counts must match exactly."""
    problems = []
    n = len(ops)
    plain, with_trace, cross = [], [], 0
    for j, op in enumerate(ops):
        for trace in (True, False) if j % 2 else (False, True):
            before = runner.checker.cross_owner_wallet_edges
            ns = runner.run(j, op, trace).ns
            if trace:
                with_trace.append(ns)
                cross += runner.checker.cross_owner_wallet_edges - before
            else:
                plain.append(ns)
    for j, op in enumerate(ops[:RECHECK_OPS]):
        runner.run(n + j, op, True)
    lists, counts = runner.spans(range(n + min(n, RECHECK_OPS)))
    runner.close()
    for j in range(min(n, RECHECK_OPS)):
        if counts.get(j) != counts.get(n + j):
            problems.append(f"op {j}: counts differ between two traced runs of the same input")

    # Every layer span must nest under the op's one cli.run span, so the
    # layer self times split that span's time between them.
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    roots: dict[int, list[str]] = {}
    for spans in lists:
        own, op_roots = summarize([s for s in spans if s[4] < n])
        for name, ns in own.items():
            self_ns[name] += ns
        roots.update(op_roots)
    bad = [j for j in range(n) if roots.get(j) != ["cli.run"]]
    if bad:
        first = sorted(set(roots.get(bad[0], [])))
        problems.append(
            f"{len(bad)} of {n} traced ops lack a single cli.run root span"
            f" (op {bad[0]} has roots {first})"
        )
    total: dict[str, int] = {}
    for op_counts in (counts.get(j, {}) for j in range(n)):
        for key, value in op_counts.items():
            total[key] = total.get(key, 0) + value

    metrics: dict[str, tuple[float, str]] = {}
    bare = [
        run_process([sys.executable, "-c", "pass"], workdir).ns / 1e6 for _ in range(BARE_PROBES)
    ]
    metrics["process.import_ms"] = (import_ms, "ms")
    metrics["process.bare_interpreter_ms"] = (statistics.median(bare), "ms")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
    for name in SPAN_NAMES:
        if name not in SELF_MS:
            metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for name, keys in COUNTS.items():
        metrics[name] = (sum(total.get(k, 0) for k in keys), "count")
    metrics["graph.cross_owner_wallet_edges"] = (cross, "count")
    tokenize_bytes = total.get("dsl.tokenize.bytes", 0)
    per_byte = self_ns["dsl.tokenize"] / tokenize_bytes if tokenize_bytes else 0
    metrics["dsl.tokenize.ns_per_byte"] = (per_byte, "ns/B")
    edges = total.get("graph.build_graph.edges", 0)
    graph_ns = sum(self_ns[f"graph.{f}"] for f in ("build_graph", "to_dot", "to_tsv"))
    metrics["graph.ns_per_edge"] = (graph_ns / edges if edges else 0, "ns/edge")
    overhead = statistics.median(with_trace) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "ssiarch" / "cli.py", GOLDEN, ROOT / "samples" / "demo.ssiarch"):
        if not needed.is_file():
            missing = needed.relative_to(ROOT)
            print(f"bench: {missing} is missing; run from a source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    from check import Checker
    from gen import WORKLOADS, generate
    from ssiarch.kb import builtin_kb

    if args.workload not in WORKLOADS:
        choices = ", ".join(WORKLOADS)
        print(f"bench: unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = None
    try:
        ops, kbx = generate(args.workload, args.seed, builtin_kb(), ROOT, workdir)
        probe = functools.partial(probe_setup, kbx, workdir)
        runner = Runner(args.workload, workdir, Checker(GOLDEN.read_text(encoding="utf-8")))
        if args.trace:
            import_ms = statistics.median(probe()[1] for _ in range(SETUP_PROBES))
            metrics, problems = traced(runner, ops, workdir, import_ms)
            unscaled = {}
        else:
            (metrics, unscaled), problems = timed(runner, ops, args.seconds, probe), []
    finally:
        if runner is not None:
            runner.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    rate = runner.failed / runner.attempted
    if unscaled:
        raw = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in unscaled.items())
        print(f"{args.workload} unscaled: {raw}")
    row = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{args.workload}: {row}  error_rate={rate:.4g} ({runner.attempted} ops)")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and not problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
