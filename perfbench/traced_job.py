"""Run one CLI job under the tracer and write its spans as JSON.

    python perfbench/traced_job.py SPANS.json -- <wavetrains CLI arguments>

Exits with the CLI's own status.  The spans file holds the span list, the
number of warnings that reached the user (shown on stderr) and the cost of
one traced call, calibrated in this process after the job.
"""

from __future__ import annotations

import json
import sys
import warnings

from tracer import Tracer, call_cost_s, instrument


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced_job.py SPANS.json -- CLI-ARGS...")
    from wavetrains import cli

    tracer = Tracer()
    instrument(tracer)
    shown = 0
    show_original = warnings.showwarning

    def counting_showwarning(*args, **kwargs):
        nonlocal shown
        shown += 1
        show_original(*args, **kwargs)

    warnings.showwarning = counting_showwarning
    status = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "warnings": shown, "call_cost_s": call_cost_s()}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
