"""Run one ``orbivertex`` command under the tracer.

Usage: python3 bench/cli_child.py <orbivertex arguments...>

The command's output goes to stdout as usual; the trace record goes to
stderr as one JSON line after ``tracer.TRACE_MARK``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
from orbivertex import cli  # noqa: E402


def main(argv) -> int:
    trace = tracer.Tracer()
    with trace:
        code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(tracer.TRACE_MARK + json.dumps(trace.raw()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
