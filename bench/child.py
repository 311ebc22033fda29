"""Child processes of the benchmark.

``child.py setup ARGS_JSON``
    Time the first import of the package plus the derivation of the
    master keys named in ARGS_JSON, in this fresh process; print
    ``{"setup_s": ...}``.
``child.py cli TRACE_OUT ARGV...``
    Run ``wideblock.cli.main(ARGV)`` under the layer tracer and write the
    tracer's snapshot to TRACE_OUT; exit with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time

from common import derive, import_wideblock


def setup(args: dict) -> int:
    start = time.perf_counter()
    wb = import_wideblock()
    for mode, master in args.get("masters", {}).items():
        derive(wb, mode, bytes.fromhex(master))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def traced_cli(trace_out: str, argv: list[str]) -> int:
    import_wideblock()
    from layertrace import Tracer

    from wideblock import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as f:
            json.dump(tracer.snapshot(), f)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(json.loads(sys.argv[2])))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
