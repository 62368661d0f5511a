"""Start ``repro serve``/``repro worker`` with the layer wrappers installed.

Usage::

    python3 stackbench/launch.py LEDGER.json serve --port 0 ...

The wrappers of :mod:`stackbench.spans` are installed but record
nothing until the process receives ``SIGUSR1``.  When the server stops,
its ledger (per-layer calls, inclusive and self time, counters) is
written to ``LEDGER.json``.
"""

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    ledger_path, cli_args = argv[0], argv[1:]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from stackbench.spans import Tracer

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.enable())
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.disable()
        with open(ledger_path, "w") as fh:
            json.dump(tracer.ledger(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
