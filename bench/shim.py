"""Traced cold CLI op: `python shim.py SPANS_PATH ARGV...` installs the
benchmark's span wrappers, runs `ssiarch.cli.run(ARGV)` like
`python -m ssiarch.cli` would, and writes the spans and counts to
SPANS_PATH before exiting with the CLI's exit code."""

import json
import sys

from ssiarch import cli

import spans

tracer = spans.Tracer()
tracer.install()
code = cli.run(sys.argv[2:])
tracer.uninstall()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
sys.exit(code)
