"""Byte-for-byte CLI output, pinned by the benchmark's golden table.

bench/golden.json maps an argv (joined by spaces) to the exit code and
the sha256 of the stdout the CLI printed for it. This replays every
key in-process, so each formula_sweep and oracle_sweep query is pinned
byte for byte. The file is only read here; it is written by
bench/record_golden.py.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from foulkes import cli

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "golden.json"

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", list(GOLDEN))
def test_stdout_matches_golden(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(key.split(" "))
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert [code, digest] == GOLDEN[key]
