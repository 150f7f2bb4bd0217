"""Starts and times the benchmark's program processes.

`run` starts one command, waits for it and returns its exit code, its
wall nanoseconds (interpreter start included) and its peak RSS in KiB.
Linux counts in a child's peak RSS the pages of the process it was
forked from, so the benchmark client, which holds the generator and the
checker, does not start `cold_cli` ops itself: this file, run as a small
long-lived process, starts them, and their peak RSS is their own. It
reads one JSON request per stdin line, `{"cmd", "out", "err"}`, runs
the command with stdout and stderr sent to those paths, and answers
with one JSON line `{"code", "ns", "rss_kb"}`."""

import json
import os
import subprocess
import sys
import time


def run(cmd: list[str], out_path: str, err_path: str, cwd=None, env=None) -> tuple[int, int, int]:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        code, ns, rss_kb = run(request["cmd"], request["out"], request["err"])
        sys.stdout.write(json.dumps({"code": code, "ns": ns, "rss_kb": rss_kb}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
