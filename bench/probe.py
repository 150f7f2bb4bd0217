"""Set-up probe, run in a fresh interpreter: times `import ssiarch.cli`,
building the built-in KB and merging the given `.kbx` files, and prints
`{"import_ns": ..., "setup_ns": ..., "calib_ns": ...}`. Interpreter start
is excluded; `calib_ns` is the median of three host-speed calibrations
(host.py) run after set-up."""

import time

start = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import ssiarch.cli  # noqa: E402,F401

imported = time.perf_counter_ns()

from ssiarch.extension import load_extension, merge  # noqa: E402
from ssiarch.kb import builtin_kb  # noqa: E402

kb = builtin_kb()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        kb = merge(kb, load_extension(fh.read()))
done = time.perf_counter_ns()

from host import calibrate  # noqa: E402

calib_ns = sorted(calibrate() for _ in range(3))[1]
print(json.dumps({"import_ns": imported - start, "setup_ns": done - start, "calib_ns": calib_ns}))
