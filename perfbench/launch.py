"""Run one ``repro-fi`` command with the benchmark's layer spans armed.

    python3 perfbench/launch.py --events OUT.json <repro-fi arguments...>

The traced twin of ``python -m repro.cli <arguments...>``: it times the
program's import as the ``import`` layer, wraps the layers' public
functions (see ``layers.py``), runs the command, and writes the recorded
spans to OUT.json when the command returns (for ``serve``: on SIGTERM).
"""

from __future__ import annotations

import json
import sys
import time

start_ns = time.perf_counter_ns()
import repro.cli  # noqa: E402  (the import is what is being timed)

end_ns = time.perf_counter_ns()

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--events":
        print(__doc__, file=sys.stderr)
        return 2
    events_path, command = argv[1], argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    tracer.mark("import", start_ns, end_ns, layer="import")
    tracer.enabled = True
    try:
        return repro.cli.main(command)
    finally:
        tracer.enabled = False
        with open(events_path, "w") as stream:
            json.dump(tracer.recorder.events(), stream)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
