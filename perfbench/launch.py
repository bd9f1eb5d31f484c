"""Run one hessianlab CLI call in this process, as the `hessianlab` console
script does, and record when the program was ready to run.

    python3 launch.py STAMP TRACE CLI_ARG...

STAMP is a JSON file written when the call ends. It holds `ready`, the
system-wide monotonic clock reading after `hessianlab.cli` is imported and
before `main` runs, and, with TRACE=1, the layer spans and counts of the
call (see spans.py). TRACE=0 wraps nothing. The exit code is the CLI's.
"""

import json
import sys
import time


def main():
    stamp_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from hessianlab import cli

    stamp = {"ready": time.monotonic()}
    entry = cli.main
    if trace:
        import spans

        tracer = spans.Tracer()
        entry = spans.install(tracer)
    try:
        return entry(cli_args)
    finally:
        if trace:
            stamp["spans"] = tracer.spans
            stamp["counts"] = dict(tracer.counts)
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)


if __name__ == "__main__":
    sys.exit(main())
