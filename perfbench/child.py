"""One symgap CLI invocation in a fresh process, timed from the inside.

    python3 child.py SRC_DIR RESULT_JSON MODE [CLI ARGS...]

MODE is `probe` (import `symgap.cli`, build the parser, stop), `run` (also
call `cli.main(CLI ARGS)`) or `trace` (the same, with the layer tracer
installed after set-up).  Timestamps are CLOCK_MONOTONIC (`time.monotonic`),
which the parent shares, so the parent can subtract its spawn time from
`t_ready` to get the set-up time.
"""
import sys
import time

src, result_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
sys.path.insert(0, src)

import symgap.cli as cli  # noqa: E402

cli.build_parser()
t_ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

result = {"t_ready": t_ready}
if mode != "probe":
    tracer = None
    if mode == "trace":
        from layer_trace import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    t0 = time.monotonic()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        error = traceback.format_exc()
    t1 = time.monotonic()
    result.update(
        exit_code=code,
        error=error,
        wall_s=t1 - t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(result_path[: -len(".json")] + ".spans.json")

with open(result_path, "w") as fh:
    json.dump(result, fh)
