"""One benchmark session: a fresh interpreter that runs queries in turn.

Usage: python bench/worker.py [SPANS_PATH]

Imports foulkes.cli before anything else, prints one "ready" line with
the import time, reads one JSON list of argv lists from stdin and runs
each through ``foulkes.cli.main`` with stdout captured, printing one
JSON line per query (exit code, stdout, latency). Caches start cold and
warm up as the session goes on. With SPANS_PATH the layer wrappers are
installed and the spans are written there when the session ends.
"""

import sys
import time

# Timed first, so that no module the package shares with this script
# is already loaded.
_t0 = time.perf_counter()
import foulkes.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import speed  # noqa: E402

# Host speed probes: a few right after the import, then one before any
# query that starts this long after the last probe.
PROBES_AT_START = 5
PROBE_EVERY_S = 0.05


def _run(main, argv: list[str]) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported as a failed query, the session goes on
            code = f"exception: {exc!r}"
    return code, out.getvalue()


def main() -> int:
    spans_path = sys.argv[1] if len(sys.argv) > 1 else None
    recorder = None
    if spans_path:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    reply = sys.stdout
    probes = [speed.probe() for _ in range(PROBES_AT_START)]
    reply.write(json.dumps({"ready": True, "import_s": IMPORT_S, "probe_s": probes}) + "\n")
    reply.flush()
    queries = json.loads(sys.stdin.readline())
    last_probe = time.perf_counter()
    for i, argv in enumerate(queries):
        probes = []
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed.probe())
            last_probe = time.perf_counter()
        if recorder:
            recorder.query = i
        t = time.perf_counter()
        code, stdout = _run(foulkes.cli.main, argv)
        latency = time.perf_counter() - t
        reply.write(
            json.dumps({"code": code, "stdout": stdout, "latency_s": latency, "probe_s": probes})
        )
        reply.write("\n")
        reply.flush()
    if recorder:
        spans.dump(recorder, spans_path, IMPORT_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
