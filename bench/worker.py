"""In-process CLI runner for the benchmark's closed loop.

Reads one JSON request per stdin line, `{"op": id, "argv": [...],
"trace": bool}`, calls `ssiarch.cli.run` and answers on stdout with a
JSON header line `{"exit", "ns", "calib_ns", "raised", "out", "err"}`
followed by the raw stdout and stderr bytes of the call; `calib_ns` is
the host-speed calibration (host.py) run just before the op. A request
`{"spans": path}` writes the spans and counts recorded so far to path.
The process serves one op at a time, so its peak RSS is the program's.
Before each op it runs a full garbage collection, so the collections
that fall inside an op depend on that op alone, not on the ops before
it."""

from __future__ import annotations

import gc
import json
import sys
import time

from ssiarch import cli

import spans
from host import calibrate


class Capture:
    """Text sink that keeps what the CLI writes without copying it."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def data(self) -> bytes:
        return "".join(self.parts).encode("utf-8")


def main() -> None:
    tracer = spans.Tracer()
    reply = sys.stdout.buffer
    for line in sys.stdin:
        request = json.loads(line)
        if "spans" in request:
            with open(request["spans"], "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
            reply.write(b"{}\n")
            reply.flush()
            continue
        if request["trace"] != tracer.installed:
            tracer.install() if request["trace"] else tracer.uninstall()
        tracer.op = request["op"]
        out, err = Capture(), Capture()
        raised = None
        gc.collect()  # start each op with a clean heap, as a fresh CLI process would
        calib_ns = calibrate()
        start = time.perf_counter_ns()
        try:
            code = cli.run(request["argv"], out=out, err=err)
        except Exception as exc:  # a raising op is a failed op, not a dead benchmark
            code, raised = None, repr(exc)
        elapsed = time.perf_counter_ns() - start
        out_bytes, err_bytes = out.data(), err.data()
        del out, err
        header = {"exit": code, "ns": elapsed, "calib_ns": calib_ns, "raised": raised}
        header.update(out=len(out_bytes), err=len(err_bytes))
        reply.write(json.dumps(header).encode() + b"\n")
        reply.write(out_bytes)
        reply.write(err_bytes)
        reply.flush()


if __name__ == "__main__":
    main()
