"""One timed CLI command in a fresh interpreter, tracing off.

    python3 bench/child.py RESULT.json [CLI ARGS...]

times ``import flunowcast.cli`` (the set-up a user pays on every command),
then ``cli.main(CLI ARGS)`` when arguments are given, and writes the exit
code, both times and the process's peak resident memory to RESULT.json.
The package must be importable, for example with ``PYTHONPATH=src``.
"""

import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this program image, in MB.

    ``ru_maxrss`` keeps the high-water mark of the image before ``exec``,
    which is the forked benchmark process; ``VmHWM`` starts afresh at
    ``exec``, so it measures the command alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import flunowcast.cli as cli
    t1 = time.perf_counter()
    record = {"setup_s": t1 - t0}
    if argv:
        c1 = time.process_time()
        code = cli.main(argv)
        record["wall_s"] = time.perf_counter() - t1
        record["cpu_s"] = time.process_time() - c1
        record["exit_code"] = code
    record["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
