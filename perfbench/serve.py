"""Traced diagnosis server: wraps the serving path's public calls in
spans, then runs the ``python -m repro`` command line unchanged.

Usage::

    python3 perfbench/serve.py SPANS.json RUN_ID diagnose serve \
        --dictionary bench=DICT.json --db DB.sqlite --port 0

Stop it with SIGINT; the spans are written to ``SPANS.json`` as the
server exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (the benchmark's own tracer)


def main() -> int:
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = spans.Tracer(run_id)
    spans.instrument_diagnosis(tracer)
    from repro.cli import main as repro_main
    try:
        code = repro_main(argv)
    finally:
        Path(out).write_text(json.dumps({"spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
