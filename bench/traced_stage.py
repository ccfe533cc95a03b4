"""Run one procsem CLI invocation in this process, recording spans.

Usage: python traced_stage.py SPANS_OUT STAGE_ID PROCSEM_ARG...

The invocation's stdout, stderr and exit code are those of ``procsem``;
its spans and counters are written to SPANS_OUT as one JSON object once
the invocation has ended.
"""

from __future__ import annotations

import json
import sys

import procsem.cli

from spans import ROOT_KEY, Tracer, install, restore


def main(argv: list[str]) -> int:
    spans_out, stage_id, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    patches = install(tracer)
    try:
        code = tracer.wrap(ROOT_KEY, procsem.cli.main)(args)
    finally:
        restore(patches)
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"stage": stage_id, "spans": tracer.spans, "counts": tracer.counts},
                handle,
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
