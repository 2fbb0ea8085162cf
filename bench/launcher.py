"""Traced one-shot query: python bench/launcher.py SPANS_PATH ARGS...

Does what ``python -m foulkes.cli ARGS...`` does, with the layer
wrappers installed first; the spans are written to SPANS_PATH at exit.
"""

import sys
import time

# Timed first, so that no module the package shares with this script
# is already loaded.
_t0 = time.perf_counter()
import foulkes.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import spans  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.query = 0
    try:
        return foulkes.cli.main(argv)
    finally:
        spans.dump(recorder, spans_path, IMPORT_S)


if __name__ == "__main__":
    sys.exit(main())
