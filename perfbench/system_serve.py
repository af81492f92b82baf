"""Traced launcher of ``repro serve`` for the traced ``serve-mixed`` pass.

Installs the span wrappers of ``tracer.py``, runs the CLI's ``serve``
command in this process, and writes the server's spans and counters
when a ``shutdown`` verb ends it::

    python3 perfbench/system_serve.py SPANS COUNTS -- <repro serve args>
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, counts_path, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, "server")
        with open(counts_path, "w", encoding="utf-8") as out:
            json.dump(dict(tracer.counts), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
