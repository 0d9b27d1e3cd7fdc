"""Run one dqwalk CLI invocation in this fresh interpreter and report it.

Usage: python3 bench/child.py SPANS -- <dqwalk arguments>

SPANS is a file to write the run's spans to, which turns tracing on, or
`-` for an untraced run.  The last line of standard output is one JSON
object:

* ready: monotonic clock when `dqwalk.cli` was imported and its parser
  built (the caller subtracts its own clock at spawn for set-up time);
* wall_s: time from entering `cli.main` until it returned, by which point
  the output file is written;
* exit_code: what `cli.main` returned;
* peak_rss_mb: peak resident memory of this process plus that of its
  largest pool worker, if it started any;
* counters: the tracer's counters (traced runs only).

The exit code is the CLI's.  Run it with `src` on PYTHONPATH.
"""

import json
import resource
import sys
import time

import dqwalk.cli as cli

cli.build_parser()
READY = time.monotonic()


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py SPANS -- <dqwalk arguments>")
    entry, tracer = cli.main, None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        entry = tracing.install(tracer)
    begin = time.monotonic()
    exit_code = entry(argv)
    wall_s = time.monotonic() - begin
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    report = {
        "ready": READY,
        "wall_s": wall_s,
        "exit_code": exit_code,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        tracer.save(spans_path)
        report["counters"] = tracer.counters
    print(json.dumps(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
