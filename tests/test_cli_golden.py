"""Byte-for-byte CLI output, pinned by the benchmark's golden table.

bench/golden.json maps an argv (joined by spaces) to the exit code and
the sha256 of the stdout the CLI printed for it. This replays a fast
subset in-process: every table and lr query, decompose up to |nu| = 10,
oracle and compare up to |nu| = 7, and every query that must fail.
The file is only read here; it is written by bench/record_golden.py.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from foulkes import cli
from foulkes.partitions import parse_partition

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "golden.json"

# Largest |nu| replayed per subcommand; table and lr are always replayed.
MAX_SIZE = {"decompose": 10, "oracle": 7, "compare": 7}


def _replayed(golden: dict[str, list]) -> list[str]:
    keys = []
    for key, (code, _) in golden.items():
        command, *rest = key.split(" ")
        if code or command not in MAX_SIZE:
            keys.append(key)
        elif sum(parse_partition(rest[0])) <= MAX_SIZE[command]:
            keys.append(key)
    return keys


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", _replayed(GOLDEN))
def test_stdout_matches_golden(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(key.split(" "))
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [code, digest] == GOLDEN[key]
