"""Host-speed calibration.

The benchmark host is shared, and its speed for the same pure-Python
work swings by up to 1.7x in spells of seconds to minutes. `calibrate`
times a fixed loop of the kind of work the program does: a character
scan that builds small tuples, as a tokenizer does, and lookups spread
over a dict of some megabytes, so that the loop feels memory contention
as the program's large inputs do. The benchmark runs it right next to
each op, in the op's own process, and scales the op's wall time by
`REF_NS / calibration`. Times are therefore reported at the speed of a
host on which the loop takes `REF_NS`: a change to the program moves
them, a slow spell on the host mostly does not. The table adds about
6 MB to the resident size of every process that imports this module."""

import time

#: Median `calibrate()` time on the reference host: a 2-vCPU shared Linux
#: VM (Intel Xeon, 2.1 GHz), Python 3.11.7.
REF_NS = 4_500_000

_TABLE = {f"key{i * 7919 % 100_003}": i & 255 for i in range(60_000)}
_KEYS = list(_TABLE)
_TEXT = "".join(
    f'  actor owner "{k}" {{ claims: [NFR{i % 30}]; }}\n' for i, k in enumerate(_KEYS[:100])
)


def calibrate() -> int:
    """Wall nanoseconds of one pass of the fixed calibration loop."""
    start = time.perf_counter_ns()
    tokens = []
    for i, ch in enumerate(_TEXT[:4000]):
        if ch.isalnum() or ch in "{};[]":
            tokens.append((ch, i))
    total = 0
    for j in range(0, 60_000, 6):
        total += _TABLE[_KEYS[j * 40_503 % 60_000]]
    "".join(ch for ch, _ in tokens)
    return time.perf_counter_ns() - start
