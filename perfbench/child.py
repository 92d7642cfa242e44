"""One benchmarked CLI invocation, run in a fresh interpreter.

    python3 perfbench/child.py TIMING_FILE SRC_DIR TRACE [CLI ARGS...]

Imports causalatom.cli from SRC_DIR, runs cli.main on the CLI arguments and
writes its timestamps (time.monotonic, which is system-wide, so the parent
can subtract its spawn time) to TIMING_FILE as JSON.  With TRACE=1 the
public functions are wrapped first and the spans go into the same file.
The exit code is the CLI's.
"""

import json
import os
import sys
import time


def main() -> int:
    timing_file, src, trace = sys.argv[1], os.path.abspath(sys.argv[2]), sys.argv[3] == "1"
    cli_argv = sys.argv[4:]
    sys.path.insert(0, src)
    import causalatom.cli as cli
    t_imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: causalatom imported from {cli.__file__}, not {src}\n")
        return 3
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    t_main0 = time.monotonic()
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    sys.stderr.flush()
    t_main1 = time.monotonic()
    record = {"t_imported": t_imported, "t_main0": t_main0, "t_main1": t_main1, "rc": rc}
    if tracer is not None:
        record.update(tracer.dump())
    with open(timing_file, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
