"""Run the squeezetransfer CLI once in this fresh process and record timings.

Usage: python3 child.py RESULT.json TRACE.json|- CLI-ARG...

Writes to RESULT.json the exit status, the time spent inside
sweep.main(argv) and this process's peak resident set size.  With a
TRACE.json path, the package's public functions are wrapped (see
calltrace.py) after the import and the trace is written there.
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    """High-water resident set size of this process's own address space.

    Not ru_maxrss: Linux carries that across exec from the forking parent,
    so it would report the benchmark's RSS whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(result_path: str, trace_path: str, cli: list[str]) -> int:
    from squeezetransfer import sweep

    trace = None
    if trace_path != "-":
        import calltrace

        trace = calltrace.CallTrace().install()
    begin = time.perf_counter()
    status = sweep.main(cli)
    end = time.perf_counter()
    result = {
        "exit": status,
        "main_s": end - begin,
        "peak_rss_kib": peak_rss_kib(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if trace is not None:
        trace.dump(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
