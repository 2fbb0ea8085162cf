"""Command-line surface: rendering, exit codes, determinism."""

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import foulkes
from foulkes import cli, partitions
from foulkes.expansions import SchurExpansion
from foulkes.formulas import METHODS, TABLE_NU_KINDS, decompose, table_row_class
from foulkes.oracle import oracle_plethysm_e2, oracle_plethysm_s2
from foulkes.partitions import generate_partitions, parse_partition
from test_acceptance import _auto_covered

DECOMPOSE_21_TEXT = """\
nu: 2,1
inner: s2
method: two-row
terms:
  5,1  1
  4,2  1
  3,2,1  1
constituents: 3
multiplicity: 3
dimension: 30
"""

DECOMPOSE_21_CSV = """\
lambda;mult;table1_class
5,1;1;
4,2;1;
3,2,1;1;
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "decompose", "2,1")
        assert code == 0
        assert out == DECOMPOSE_21_TEXT
        assert err == ""

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "2,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "nu": [2, 1],
            "inner": "s2",
            "terms": [
                {"lambda": [5, 1], "mult": 1},
                {"lambda": [4, 2], "mult": 1},
                {"lambda": [3, 2, 1], "mult": 1},
            ],
            "method": "two-row",
        }
        assert list(payload) == ["nu", "inner", "terms", "method"]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "2,1", "--format", "csv")
        assert code == 0
        assert out == DECOMPOSE_21_CSV

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "decompose", "3,1", "--format", "json")
        second = run(capsys, "decompose", "3,1", "--format", "json")
        assert first == second

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "decompose", "2", "--dual", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["inner"] == "e2"
        assert payload["terms"] == [
            {"lambda": [2, 2], "mult": 1},
            {"lambda": [1, 1, 1, 1], "mult": 1},
        ]

    def test_empty_partition(self, capsys):
        code, out, _ = run(capsys, "decompose", "-")
        assert code == 0
        assert "method: one-row" in out

    @pytest.mark.parametrize("command", ["decompose", "compare"])
    @pytest.mark.parametrize("method", METHODS)
    def test_empty_partition_under_every_method(self, capsys, command, method):
        code, out, _ = run(capsys, command, "-", "--method", method)
        assert code == 0
        assert "method: one-row" in out

    def test_method_choices(self, capsys):
        for method, nu in [
            ("two-row", "3,2"),
            ("two-column", "2,2,1"),
            ("hook-first", "3,1,1"),
            ("hook-second", "3,1,1"),
            ("base", "4"),
        ]:
            code, out, _ = run(capsys, "decompose", nu, "--method", method)
            assert code == 0, (method, nu)

    def test_wrong_method_for_shape_exits_2(self, capsys):
        code, _, err = run(capsys, "decompose", "3,1,1,1,1", "--method", "two-row")
        assert code == 2
        assert "error" in err

    def test_unsupported_shape_exits_2(self, capsys):
        code, _, err = run(capsys, "decompose", "3,2,1")
        assert code == 2
        assert "error" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "decompose", "1,3")
        assert code == 2
        assert "error" in err

    def test_timings_go_to_stderr(self, capsys):
        plain = run(capsys, "decompose", "2,1")
        timed = run(capsys, "decompose", "2,1", "--timings")
        assert timed[1] == plain[1]
        assert timed[2].startswith("timings:")
        assert plain[2] == ""


class TestExhaustedResources:
    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_one_line_and_exit_3(self, capsys, monkeypatch, error):
        def exhausted(nu, method, inner):
            raise error("first line\nsecond line")

        monkeypatch.setattr(cli, "decompose", exhausted)
        code, out, err = run(capsys, "decompose", "3,1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestOversizedPartition:
    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "2^999999999"),
            ("decompose", "2^999999999"),
            ("compare", "2^999999999"),
            ("lr", "4,2", "2^999999999", "2,2"),
        ],
    )
    def test_exponent_token_exits_3_in_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: partition size 1999999998 exceeds the parse limit 1000000\n"


# Partitions inside the parse limit but far longer than any token the
# fuzz test below builds: each error echoes at most the first 40
# characters of the partition or token it names.
class TestLongPartitionErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "3,2^400000"),
            ("decompose", "3,2^400000", "--method", "two-row"),
            ("decompose", "3,2^400000", "--method", "base"),
            ("decompose", "1^400000,2"),
            ("oracle", "1^400000,2"),
            ("compare", "1^400000,2"),
            ("lr", "1^500000,2", "1", "1"),
        ],
    )
    def test_exits_2_with_a_short_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n") and len(err.encode()) < 200, len(err)


# int() refuses more than 4300 digits by default; every entry point
# reads a digit string of any length the same way
LONG_DIGITS = [4000, 5000, 20000]


class TestLongDigitStrings:
    @pytest.mark.parametrize("length", LONG_DIGITS)
    def test_decompose_exits_3(self, capsys, length):
        code, out, err = run(capsys, "decompose", "9" * length)
        assert (code, out) == (3, "")
        assert err == (
            f"error: partition size {'9' * 40}... exceeds the parse limit 1000000\n"
        )

    @pytest.mark.parametrize("length", LONG_DIGITS)
    def test_table_exits_3(self, capsys, length):
        code, out, err = run(capsys, "table", "9" * length, "--kind", "n-2,2")
        assert (code, out) == (3, "")
        assert err == f"error: table n = {'9' * 40}... exceeds the limit 25\n"

    @pytest.mark.parametrize("length", LONG_DIGITS)
    def test_env_cap_of_any_length_is_read(self, capsys, monkeypatch, length):
        expected = run(capsys, "oracle", "2,1")
        monkeypatch.setenv("FOULKES_MAX_N", "9" * length)
        assert run(capsys, "oracle", "2,1") == expected
        monkeypatch.setenv("FOULKES_MAX_N", "0" * length + "2")
        code, _, err = run(capsys, "oracle", "2,1")
        assert code == 3 and "exceeds the oracle cap 2;" in err

    def test_echoed_tokens_are_cut_short(self, capsys, monkeypatch):
        junk = "x" * 5000
        code, _, err = run(capsys, "decompose", f"3,{junk}")
        assert (code, err) == (2, f"error: bad partition token '{'x' * 40}...'\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", junk, "--kind", "n-2,2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"foulkes table: error: argument n: invalid 'int' value: '{'x' * 40}...'\n"
        )
        monkeypatch.setenv("FOULKES_MAX_N", junk)
        code, _, err = run(capsys, "oracle", "2,1")
        assert (code, err) == (
            2,
            f"error: FOULKES_MAX_N must be an integer in the digits 0-9, "
            f"got '{'x' * 40}...'\n",
        )


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


# argparse echoes the arguments it refuses whole; the CLI shows each as
# the package's own errors do and keeps the line short however many
# there are
class TestUsageErrors:
    X = "x" * 100_000
    AB = "a b " * 20_000

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("decompose", "2,1", "--method", X), f"'{X[:40]}...'"),
            (("decompose", "2,1", X), f"unrecognized arguments: {X[:40]}...\n"),
            ((X,), f"argument command: invalid choice: '{X[:40]}...'"),
            (("decompose", "2,1", "--method", AB), f"'{AB[:40]}...'"),
            (("decompose", "2,1", *["x"] * 20_000), "unrecognized arguments: x x x "),
            (("decompose", "2,1", *["\uff13"] * 20_000), "arguments: \uff13 \uff13 "),
            (("decompose", "2,1", f"--method={X}"), f"'{X[:40]}...'"),
            (("compare", "2", "--format", X), f"'{X[:40]}...'"),
            (("oracle", "2", "--inner", AB), f"'{AB[:40]}...'"),
            (("table", "4", "--kind", X), f"'{X[:40]}...'"),
            (("decompose", "2", f"--dual={X}"), f"'{X[:40]}...'"),
        ],
        ids=[
            "method",
            "extra",
            "command",
            "method-with-spaces",
            "many-extras",
            "many-three-byte-extras",
            "method-equals",
            "compare-format",
            "oracle-inner",
            "table-kind",
            "dual-equals",
        ],
    )
    def test_exits_2_with_one_short_line(self, capsys, argv, shown):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200, len(err.encode())
        assert shown in err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ("decompose", "2,1", "extra"),
                "foulkes: error: unrecognized arguments: extra\n",
            ),
            (
                ("decompose", "2,1", "extra1", "a\nb"),
                "foulkes: error: unrecognized arguments: extra1 a\\nb\n",
            ),
            (
                ("decompose", "2,1", "--dual=yes"),
                "foulkes decompose: error: argument --dual: "
                "ignored explicit argument 'yes'\n",
            ),
            (
                ("oracle", "2", "--inner", "x" * 40),
                "foulkes oracle: error: argument --inner: "
                f"invalid choice: '{'x' * 40}' (choose from ",
            ),
        ],
        ids=["extra", "extras", "dual-equals", "inner-40"],
    )
    def test_short_arguments_are_echoed_whole(self, capsys, argv, err):
        code, got = usage_error(capsys, *argv)
        assert code == 2 and got.startswith(err) and got.count("\n") == 1


class TestOracle:
    def test_matches_formula_terms(self, capsys):
        _, formula_out, _ = run(capsys, "decompose", "2,1", "--format", "json")
        _, oracle_out, _ = run(capsys, "oracle", "2,1", "--format", "json")
        a, b = json.loads(formula_out), json.loads(oracle_out)
        assert a["terms"] == b["terms"]
        assert b["method"] == "oracle"

    def test_inner_e2(self, capsys):
        code, out, _ = run(capsys, "oracle", "1", "--inner", "e2", "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"] == [{"lambda": [1, 1], "mult": 1}]

    def test_resource_bound_exits_3(self, capsys):
        code, _, err = run(capsys, "oracle", "3,1,1,1,1,1,1,1,1,1")
        assert code == 3
        assert "error" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FOULKES_MAX_N", "4")
        code, _, _ = run(capsys, "oracle", "3,1")
        assert code == 0
        code, _, _ = run(capsys, "oracle", "4,1")
        assert code == 3

    def test_env_cap_invalid_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FOULKES_MAX_N", "many")
        code, _, err = run(capsys, "oracle", "2,1")
        assert code == 2
        assert "FOULKES_MAX_N" in err

    def test_env_cap_outside_ascii_digits_exits_2(self, capsys, monkeypatch):
        # int() would read '1_0' as 10; a minus before Arabic-Indic or
        # fullwidth digits is not a negative number in the digits 0-9
        for raw in ["1_0", "-\u0663", "-\uff13"]:
            monkeypatch.setenv("FOULKES_MAX_N", raw)
            code, out, err = run(capsys, "oracle", "2,1")
            assert code == 2 and out == ""
            assert err == (
                "error: FOULKES_MAX_N must be an integer in the digits 0-9, "
                f"got {raw!r}\n"
            )

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_env_cap_negative_exits_2(self, capsys, monkeypatch, command):
        # a negative cap is a bad setting, not a size |nu| = 0 exceeds
        monkeypatch.setenv("FOULKES_MAX_N", "-1")
        code, out, err = run(capsys, command, "-")
        assert code == 2 and out == ""
        assert err == (
            "error: FOULKES_MAX_N must be an integer in the digits 0-9, got '-1'\n"
        )


class TestCompare:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "2,2"),
            ("compare", "2,1,1"),
            ("compare", "4,1", "--method", "hook-second"),
            ("compare", "2,1", "--dual"),
        ],
    )
    def test_agreement_exits_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "status: agree" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "compare", "2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["diff"] == []
        assert payload["formula_terms"] == payload["oracle_terms"]

    # The oracle gives s_4 + s_(2,2) for nu = (2). This formula differs on
    # (4) in value, has (3,1) only on its side and lacks (2,2); the diff
    # lists exactly those, in canonical order.
    @staticmethod
    def _force_formula(monkeypatch):
        monkeypatch.setattr(
            cli,
            "decompose",
            lambda nu, method, inner: (SchurExpansion({(4,): 2, (3, 1): 1}), "two-row"),
        )

    def test_forced_disagreement_exits_1(self, capsys, monkeypatch):
        self._force_formula(monkeypatch)
        code, out, _ = run(capsys, "compare", "2")
        assert code == 1
        assert out == (
            "nu: 2\n"
            "inner: s2\n"
            "method: two-row\n"
            "status: disagree\n"
            "diff:\n"
            "  4  formula=2  oracle=1\n"
            "  3,1  formula=1  oracle=0\n"
            "  2,2  formula=0  oracle=1\n"
            "constituents: 2\n"
        )

    def test_forced_disagreement_json(self, capsys, monkeypatch):
        self._force_formula(monkeypatch)
        code, out, _ = run(capsys, "compare", "2", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["agree"] is False
        assert payload["diff"] == [
            {"lambda": [4], "formula": 2, "oracle": 1},
            {"lambda": [3, 1], "formula": 1, "oracle": 0},
            {"lambda": [2, 2], "formula": 0, "oracle": 1},
        ]

    def test_oracle_cap_checked_before_the_formula(self, capsys, monkeypatch):
        def formula(nu, method, inner):
            raise AssertionError(f"formula run for {nu}")

        monkeypatch.setattr(cli, "decompose", formula)
        code, out, err = run(capsys, "compare", "10,10")
        assert code == 3 and out == ""
        assert err == (
            "error: |nu| = 20 exceeds the oracle cap 9; "
            "raise max_weight (or FOULKES_MAX_N for the CLI) to override\n"
        )


class TestTable:
    def test_n4_hook_kind_verify(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--kind", "n-2,1,1", "--verify")
        assert code == 0
        assert "verified: 6/6" in out
        assert out.count("2-odd") == 6

    def test_n5_row_kind_verify(self, capsys):
        code, out, _ = run(capsys, "table", "5", "--kind", "n-2,2", "--verify")
        assert code == 0
        assert "verified:" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_forced_mismatch_exits_1(self, capsys, monkeypatch, fmt):
        # The table of (2,1,1) has six rows, each of multiplicity 1. This
        # formula has (8) only on its side, differs on (6,1,1) in value,
        # agrees on four rows and lacks (3,3,2); the mismatches are
        # exactly those three, in canonical order.
        formula = {(8,): 2, (6, 1, 1): 2, (5, 3): 1, (5, 2, 1): 1}
        formula.update({(4, 3, 1): 1, (4, 2, 1, 1): 1})
        monkeypatch.setattr(
            cli, "decompose", lambda nu: (SchurExpansion(formula), "two-column")
        )
        argv = ("table", "4", "--kind", "n-2,1,1", "--verify", "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert payload["verified"] is False
            assert payload["mismatches"] == [
                {"lambda": [8], "table": 0, "formula": 2},
                {"lambda": [6, 1, 1], "table": 1, "formula": 2},
                {"lambda": [3, 3, 2], "table": 1, "formula": 0},
            ]
        elif fmt == "csv":
            assert out == (
                "lambda;mult;table1_class;verified\n"
                "6,1,1;1;2-odd-equal;check\n"
                "5,3;1;2-odd-distinct;check\n"
                "5,2,1;1;2-odd-distinct;check\n"
                "4,3,1;1;2-odd-distinct;check\n"
                "4,2,1,1;1;2-odd-equal;check\n"
                "3,3,2;1;2-odd-equal;check\n"
            )
        else:
            assert out == (
                "n: 4\n"
                "kind: n-2,1,1\n"
                "nu: 2,1,1\n"
                "rows:\n"
                "  6,1,1  1  2-odd-equal\n"
                "  5,3  1  2-odd-distinct\n"
                "  5,2,1  1  2-odd-distinct\n"
                "  4,3,1  1  2-odd-distinct\n"
                "  4,2,1,1  1  2-odd-equal\n"
                "  3,3,2  1  2-odd-equal\n"
                "verified: MISMATCH\n"
                "  8  table=0  formula=2\n"
                "  6,1,1  table=1  formula=2\n"
                "  3,3,2  table=1  formula=0\n"
            )

    def test_n_outside_ascii_digits_is_a_usage_error(self, capsys):
        # argparse's type=int would read '1_0' as 10
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "1_0", "--kind", "n-2,2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument n: invalid 'int' value: '1_0'" in captured.err

    def test_too_small_n_exits_2(self, capsys):
        code, _, err = run(capsys, "table", "3", "--kind", "n-2,2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", ["26", "100000000000000000000"])
    @pytest.mark.parametrize("kind", TABLE_NU_KINDS)
    def test_n_above_cap_exits_3_before_enumerating(self, capsys, monkeypatch, n, kind):
        # the memo behind every partition generator, whichever route
        # the table takes to it
        def enumerate_partitions(size, cap, gap):
            raise AssertionError(f"partitions of {size} enumerated")

        monkeypatch.setattr(partitions, "_bounded", enumerate_partitions)
        code, out, err = run(capsys, "table", n, "--kind", kind, "--verify")
        assert code == 3
        assert out == ""
        assert err == f"error: table n = {n} exceeds the limit 25\n"

    @pytest.mark.parametrize("kind", TABLE_NU_KINDS)
    def test_n20_forms_no_partition_of_2n(self, capsys, monkeypatch, kind):
        # each row is built from a partition of (2n - s) / 2, s the sum of
        # its odd parts, so the memo behind every partition generator is
        # never asked for more than n, let alone for 2n = 40
        sizes = set()
        bounded = partitions._bounded

        def recording(size, cap, gap):
            sizes.add(size)
            return bounded(size, cap, gap)

        monkeypatch.setattr(partitions, "_bounded", recording)
        code, out, _ = run(capsys, "table", "20", "--kind", kind, "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 20
        assert max(sizes) == 20

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--kind", "n-2,1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["nu"] == [2, 1, 1]
        assert len(payload["rows"]) == 6
        assert all(row["mult"] == 1 for row in payload["rows"])

    def test_csv_has_class_column(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--kind", "n-2,1,1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda;mult;table1_class"
        assert "5,3;1;2-odd-distinct" in lines


def _text_rows(out: str, block: str) -> tuple[list, list[str]]:
    """The (lambda, mult, class) rows of a text block, and the lines
    after it; a row with no class cell has the class ''."""
    lines = out.splitlines()
    rest = lines[lines.index(block) + 1 :]
    count = next((i for i, line in enumerate(rest) if not line.startswith("  ")), None)
    rows = []
    for line in rest[:count]:
        lam, mult, *cls = line[2:].split("  ")
        rows.append((parse_partition(lam), int(mult), *(cls or [""])))
    return rows, rest[count:] if count is not None else []


def _csv_rows(out: str, verify: bool) -> list:
    """The (lambda, mult, class) rows of a CSV output, after checking
    its header and, under --verify, that every row reads ok."""
    header, *lines = out.splitlines()
    assert header == "lambda;mult;table1_class" + (";verified" if verify else "")
    rows = []
    for line in lines:
        lam, mult, cls, *verified = line.split(";")
        assert verified == (["ok"] if verify else [])
        rows.append((parse_partition(lam), int(mult), cls))
    return rows


def _outputs(capsys, *argv) -> dict[str, str]:
    """argv's stdout in each of the three formats, each exiting 0."""
    outs = {}
    for fmt in ("text", "csv", "json"):
        code, outs[fmt], _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
    return outs


class TestRowsAcrossFormats:
    """The text and CSV rows read back as exactly the JSON rows: the
    same shapes, in the same order, with the same multiplicities and
    Table 1 classes."""

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("n", range(4, 13))
    @pytest.mark.parametrize("kind", TABLE_NU_KINDS)
    def test_table(self, capsys, kind, n, verify):
        argv = ("table", str(n), "--kind", kind, *(["--verify"] if verify else []))
        outs = _outputs(capsys, *argv)
        expected = [
            (tuple(row["lambda"]), row["mult"], row["class"])
            for row in json.loads(outs["json"])["rows"]
        ]
        rows, after = _text_rows(outs["text"], "rows:")
        assert rows == expected
        size = len(expected)
        assert after == ([f"verified: {size}/{size}"] if verify else [])
        assert _csv_rows(outs["csv"], verify) == expected

    # every nu of 6, through decompose where a closed formula covers it
    # (all but 3,2,1) and through the oracle
    @pytest.mark.parametrize("inner", ["s2", "e2"])
    @pytest.mark.parametrize(
        "command, nu",
        [
            (command, ",".join(map(str, nu)))
            for command in ("decompose", "oracle")
            for nu in generate_partitions(6)
            if command == "oracle" or nu != (3, 2, 1)
        ],
    )
    def test_expansion(self, capsys, command, nu, inner):
        dual = ("--dual",) if command == "decompose" else ("--inner", "e2")
        outs = _outputs(capsys, command, nu, *(dual if inner == "e2" else ()))
        payload = json.loads(outs["json"])
        assert payload["inner"] == inner
        expected = [(tuple(t["lambda"]), t["mult"], "") for t in payload["terms"]]
        rows, after = _text_rows(outs["text"], "terms:")
        assert rows == expected
        assert after[0] == f"constituents: {len(expected)}"
        assert _csv_rows(outs["csv"], False) == expected


class TestLr:
    def test_prints_coefficient(self, capsys):
        code, out, _ = run(capsys, "lr", "3,2,1", "2,1", "2,1")
        assert code == 0
        assert out == "2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "lr", "3,2,1", "2,1", "2,1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "lambda": [3, 2, 1],
            "mu": [2, 1],
            "nu": [2, 1],
            "coefficient": 2,
        }

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "lr", "4", "2,1", "1")
        assert code == 0
        assert out == "0\n"

    def test_long_row(self, capsys):
        code, out, err = run(capsys, "lr", "3000", "1500", "1500")
        assert code == 0
        assert out == "1\n"
        assert err == ""


# The private modules that load on first use: the argparse fallback,
# Table 1 with its closed forms, the Murnaghan-Nakayama strip engine
# with the power-sum basis change, and the two Littlewood-Richardson
# engines, the strip kernel of schur_multiply and the filling count of
# lr_coefficient.
LAZY_MODULES = (
    "foulkes._usage",
    "foulkes._table1",
    "foulkes._characters",
    "foulkes._chains",
    "foulkes._fillings",
)

# What a load row watches: the private modules; foulkes.cli, which a
# process that runs it as __main__ must not import by name (from
# _usage, say), as that compiles and runs cli.py a second time; and
# standard modules. argparse (with gettext and locale) serves only -h,
# usage errors and the spellings only it reads. No path needs json,
# fractions (with decimal and numbers) or typing: every payload goes
# through cli._json, the oracle runs in integers, and names only
# annotations use are imported for type checkers alone.
WATCHED = LAZY_MODULES + ("foulkes.cli", "argparse", "gettext", "locale", "json")
WATCHED += ("fractions", "decimal", "numbers", "typing")


def loaded_modules(argv):
    """Run argv in a fresh python -S process (so no site hook imports
    anything first) as python -m foulkes.cli does, or for argv None
    import foulkes.cli alone, with COLUMNS=80; return its exit code,
    stdout, stderr and the set of WATCHED modules an atexit hook finds
    loaded at its exit."""
    src = str(Path(foulkes.__file__).resolve().parents[1])
    hook = (
        "import atexit, sys\n"
        f"atexit.register(lambda: print(*[m for m in {WATCHED!r}"
        " if m in sys.modules], file=sys.stderr))\n"
    )
    if argv is None:
        script = "import foulkes.cli\n"
    else:
        script = (
            "import runpy\n"
            f"sys.argv = ['foulkes', *{argv!r}]\n"
            "runpy.run_module('foulkes.cli', run_name='__main__')\n"
        )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", hook + script],
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
        capture_output=True,
        text=True,
    )
    *err, report = proc.stderr.split("\n")[:-1]
    err = "".join(line + "\n" for line in err)
    return proc.returncode, proc.stdout, err, set(report.split())


_FORMULA = {"foulkes._chains"}
_ORACLE = {"foulkes._characters"}
_TABLE = {"foulkes._table1"}
_LR = {"foulkes._fillings"}
_ARGPARSE = {"foulkes._usage", "argparse", "gettext", "locale"}

# Each argv with its exit code and exactly the WATCHED modules it
# loads; argv None is import foulkes.cli alone. Every formula query
# multiplies through the strip kernel, table --verify included; only
# -h, usage errors and the spellings only argparse reads load argparse.
LOADS = [
    (None, 0, {"foulkes.cli"}),
    (["decompose", "2,1", "--format", "json"], 0, _FORMULA),
    (["decompose", "7,5", "--format", "json"], 0, _FORMULA),
    (["decompose", "3,1", "--dual"], 0, _FORMULA),
    (["decompose", "3,1", "--method", "auto", "--dual", "--format", "csv"], 0, _FORMULA),
    (["oracle", "2,1", "--format", "json"], 0, _ORACLE),
    (["oracle", "3,1"], 0, _ORACLE),
    (["oracle", "3,1", "--format", "json"], 0, _ORACLE),
    (["oracle", "3,1", "--inner", "e2", "--format", "json"], 0, _ORACLE),
    (["oracle", "4,4"], 0, _ORACLE),
    (["compare", "3,2"], 0, _ORACLE | _FORMULA),
    (["compare", "2,1", "--format", "json"], 0, _ORACLE | _FORMULA),
    (
        ["compare", "2,1", "--method", "two-row", "--dual", "--format", "json"],
        0,
        _ORACLE | _FORMULA,
    ),
    (["table", "4", "--kind", "n-2,2"], 0, _TABLE),
    (["table", "6", "--kind", "n-2,2", "--format", "json"], 0, _TABLE),
    (["table", "8", "--kind", "n-2,2"], 0, _TABLE),
    (["table", "8", "--kind", "n-2,2", "--verify"], 0, _TABLE | _FORMULA),
    (
        ["table", "6", "--kind", "n-2,2", "--verify", "--format", "csv"],
        0,
        _TABLE | _FORMULA,
    ),
    (["lr", "2,1", "1", "1"], 0, _LR),
    (["lr", "4,2", "2,1", "2,1"], 0, _LR),
    (["lr", "4,2", "2", "2,2", "--format", "json"], 0, _LR),
    (["lr", "4,2", "2", "2,2", "--format", "text"], 0, _LR),
    (["decompose", "-h"], 0, _ARGPARSE),
    (["decompose", "3,1", "--form", "json"], 0, _ARGPARSE | _FORMULA),
    (["decompose", "2,1", "extra"], 2, _ARGPARSE),
]


@pytest.mark.parametrize(
    "argv, code, loaded", LOADS, ids=[" ".join(argv or ["import"]) for argv, *_ in LOADS]
)
def test_loads(argv, code, loaded):
    got_code, out, err, got = loaded_modules(argv)
    assert (got_code, got) == (code, loaded), err
    if not code:
        assert (err, bool(out)) == ("", argv is not None)


def test_benchmark_names_resolve_after_import():
    # bench/spans wraps the functions of TARGETS and reads the memos of
    # MEMOS right after import foulkes.cli, before any query: each must
    # be there by then, in the module named, a memo with cache_info
    root = Path(__file__).resolve().parents[1]
    script = (
        "import foulkes.cli, sys, spans\n"
        "for modname, names in spans.TARGETS.values():\n"
        "    for name in names:\n"
        "        assert callable(getattr(sys.modules[modname], name)), name\n"
        "for modname, name in spans.MEMOS.values():\n"
        "    assert hasattr(getattr(sys.modules[modname], name), 'cache_info'), name\n"
        "print(sum(len(names) for _, names in spans.TARGETS.values()) * len(spans.MEMOS))\n"
    )
    path = os.pathsep.join([str(root / "src"), str(root / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


# Every query the benchmark workloads generate, with its exit code.
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)
GOLDEN_JSON_QUERIES = [
    key.split(" ")
    for key, (code, _) in GOLDEN.items()
    if key.split(" ")[0] in ("decompose", "oracle") and "--format json" in key and not code
]


# From - and 1 on, whose outputs s_() and s_(2) (or s_(1,1)) have one term.
COVERED_JSON_QUERIES = [
    ["decompose", ",".join(map(str, nu)) or "-", *dual, "--format", "json"]
    for n in range(10)
    for nu in generate_partitions(n)
    if _auto_covered(nu)
    for dual in ([], ["--dual"])
]


class TestJsonBytes:
    """decompose and oracle print their JSON through cli._json; it must
    equal json.dumps of the parsed payload byte for byte and carry the
    library's terms."""

    @pytest.mark.parametrize(
        "argv",
        GOLDEN_JSON_QUERIES
        + COVERED_JSON_QUERIES
        + [
            ["decompose", "-", "--method", "base", "--format", "json"],
            ["oracle", "-", "--format", "json"],
            ["oracle", "1", "--inner", "e2", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_equals_json_dumps(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n"
        args = cli._build_parser().parse_args(argv)
        nu = parse_partition(args.nu)
        if args.command == "decompose":
            exp, method = decompose(nu, args.method, args.inner)
        else:
            method = "oracle"
            exp = (oracle_plethysm_s2 if args.inner == "s2" else oracle_plethysm_e2)(nu)
        assert payload == {
            "nu": list(nu),
            "inner": args.inner,
            "terms": [{"lambda": list(lam), "mult": m} for lam, m in exp.items()],
            "method": method,
        }

    def test_empty_expansion(self):
        out = cli._expansion_output((), "s2", "one-row", SchurExpansion(), "json")
        payload = {"nu": [], "inner": "s2", "terms": [], "method": "one-row"}
        assert cli._json(out) == json.dumps(payload)


_ROW_CLASSES = (
    "all-even",
    "2-odd-distinct",
    "2-odd-equal",
    "4-odd-distinct",
    "4-odd-one-pair",
    "4-odd-two-pairs",
    "other",
)
# Every string a JSON payload carries: the inners, the method names
# (with the oracle's), the table kinds and the table row classes.
_CLI_NAMES = ("s2", "e2", "oracle") + METHODS + TABLE_NU_KINDS + _ROW_CLASSES
_PAYLOAD_KEYS = st.sampled_from(
    ["nu", "inner", "method", "agree", "terms", "lambda", "mult", "class", "n", "kind"]
)
# A partition as the library holds it, and an expansion of one degree.
_TUPLES = st.lists(st.integers(min_value=1), max_size=5).map(tuple)
_EXPANSIONS = st.integers(0, 6).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(list(generate_partitions(n))), st.integers(), max_size=6
    )
).map(SchurExpansion)
_PAYLOADS = st.recursive(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.sampled_from(_CLI_NAMES),
        _TUPLES,
        _EXPANSIONS,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_PAYLOAD_KEYS, inner, max_size=4)
    ),
    max_leaves=20,
)


def _terms(exp):
    return [{"lambda": list(lam), "mult": m} for lam, m in exp.items()]


class TestJsonWriter:
    """Every subcommand prints its JSON payload with cli._json, which must
    equal json.dumps on every value a payload can hold, a partition
    written as a list and an expansion as its list of terms (the golden
    table pins the bytes of every JSON output)."""

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_equals_json_dumps(self, payload):
        assert cli._json(payload) == json.dumps(payload, default=_terms)

    def test_names_are_plain_ascii(self):
        assert METHODS == (
            "auto",
            "two-row",
            "two-column",
            "hook-first",
            "hook-second",
            "base",
        )
        assert TABLE_NU_KINDS == ("n-2,1,1", "n-2,2")
        classes = {
            table_row_class(lam) for n in range(9) for lam in generate_partitions(2 * n)
        }
        assert classes == set(_ROW_CLASSES)
        for name in _CLI_NAMES:
            assert json.dumps(name) == f'"{name}"' == cli._json(name)


class TestClosedPipe:
    def test_reader_gone_exits_1_without_traceback(self):
        src = str(Path(foulkes.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "foulkes.cli", "oracle", "4,3", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Closed before the child has finished starting up, so its one
        # write finds no reader.
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_1_with_one_line(self):
        src = str(Path(foulkes.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "foulkes.cli", "decompose", "2,1"],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b"error: cannot write output: No space left on device\n"


# Pieces of a partition token: small parts and repeats, the empty
# partition, spaces, junk, and long digit runs both above the parse
# limit and, under leading zeros, small. Joined by commas, a token's
# size stays at 18 cells or below unless it is past the parse limit, so
# every covered shape it spells is quick to expand.
_SMALL = st.sampled_from("123")
_PIECES = st.one_of(
    _SMALL,
    st.builds("{}^{}".format, _SMALL, st.sampled_from(["0", "1", "2", "", "x"])),
    st.sampled_from(
        ["", "-", " ", "^", "0", "x", "_1", "+2", "-1", "1.5", "\u0663", "\uff12", "\n"]
    ),
    st.integers(7, 6000).map(lambda n: "9" * n),
    st.integers(1, 6000).map(lambda n: "0" * n + "2"),
)
_TOKENS = st.lists(_PIECES, max_size=3).map(",".join)
# Words argparse refuses and echoes: short text, and runs far longer
# than an error line, with and without spaces.
_WORDS = st.one_of(
    st.text(max_size=50),
    st.integers(41, 100_000).map("x".__mul__),
    st.integers(11, 20_000).map("a b ".__mul__),
)
_OPTIONS = st.sampled_from(
    [
        ("decompose", "2,1", "--method"),
        ("decompose", "2,1", "--format"),
        ("compare", "2", "--method"),
        ("oracle", "2", "--inner"),
        ("table", "4", "--kind"),
    ]
)
_SPELLINGS = [
    "3,1",
    "2",
    "4",
    "-",
    "-1",
    "--",
    "-h",
    "--method",
    "two-row",
    "--dual",
    "--inner",
    "e2",
    "--format",
    "json",
    "--form",
    "--format=json",
    "--timings",
    "--kind",
    "n-2,2",
    "--verify",
]
_ARGVS = st.one_of(
    st.tuples(st.just("decompose"), _TOKENS, st.sampled_from([(), ("--dual",)])).map(
        lambda a: [a[0], a[1], *a[2]]
    ),
    st.tuples(st.sampled_from(["oracle", "compare"]), _TOKENS).map(list),
    st.tuples(
        st.just("table"),
        st.one_of(_TOKENS, st.sampled_from("456789")),
        st.just("--kind"),
        st.sampled_from(TABLE_NU_KINDS),
    ).map(list),
    st.tuples(st.just("lr"), _TOKENS, _TOKENS, _TOKENS).map(list),
    st.tuples(_OPTIONS, _WORDS).map(lambda a: [*a[0], a[1]]),
    st.tuples(
        st.sampled_from(["decompose", "oracle", "compare"]),
        st.one_of(
            st.lists(_WORDS, min_size=1, max_size=5),
            st.integers(1, 20_000).map(lambda n: ["x"] * n),
        ),
    ).map(lambda a: [a[0], "2", *a[1]]),
    _WORDS.map(lambda word: [word]),
    # spellings only argparse reads, in any order: an abbreviation, an
    # --option=value, an option before the partition, a repeated option,
    # '--', a lone '-' and '-1'; and -h
    st.tuples(
        st.sampled_from(["decompose", "oracle", "compare", "table", "lr"]),
        st.lists(st.sampled_from(_SPELLINGS), max_size=7),
    ).map(lambda a: [a[0], *a[1]]),
)


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_ARGVS)
    @example(["decompose", "3,1", "--timings"])
    @example(["decompose", "3,1", "--tim"])
    def test_every_argv_ends_in_a_defined_exit_and_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert time.perf_counter() - start < 10, argv
        assert code in (0, 1, 2, 3), (argv, code)
        text = err.getvalue()
        assert text == "" or (text.count("\n") == 1 and text.endswith("\n")), text
        assert len(text) < 200, text
        assert "Traceback" not in text
        # --timings, or an abbreviation argparse takes for it, adds one
        # line to stderr after a query that succeeds
        namespace = _argparse_reads(argv)
        if code in (0, 1) and namespace is not None and namespace.get("timings"):
            assert text.startswith("timings: "), (argv, code, text)
        else:
            assert bool(text) == (code in (2, 3)), (argv, code, text)


def _argparse_reads(argv):
    """vars() of argparse's namespace for argv, or None when argparse
    exits instead (a usage error, or -h)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestReader:
    """main reads a well-formed argv with cli._read_argv and leaves the
    rest to argparse: the two must agree wherever the reader answers."""

    def test_reads_every_benchmark_query_as_argparse_does(self):
        argvs = [key.split(" ") for key in GOLDEN]
        unread = [argv for argv in argvs if cli._read_argv(argv) is None]
        assert unread == []
        differ = [
            argv
            for argv in argvs
            if vars(cli._read_argv(argv)) != _argparse_reads(argv)
        ]
        assert differ == []

    @settings(max_examples=300, deadline=None)
    @given(_ARGVS)
    def test_agrees_with_argparse(self, argv):
        # None from argparse (it exits) must meet None from the reader
        namespace = cli._read_argv(argv)
        if namespace is not None:
            assert vars(namespace) == _argparse_reads(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "2,1", "--form", "json"],
            ["decompose", "2,1", "--format=json"],
            ["decompose", "--dual", "2,1"],
            ["decompose", "--", "2,1"],
            ["decompose", "-1"],
            ["decompose", "2,1", "-h"],
            ["table", "--kind", "n-2,2", "4"],
            ["table", "4"],
            ["table", "1_0", "--kind", "n-2,2"],
            ["lr", "3", "--format", "json", "2", "1"],
            ["oracle", "2", "--inner"],
            ["oracle", "2", "--inner", "-"],
            ["compare", "2", "--format", "csv"],
            ["decompose", "2,1", "extra"],
            ["decompose"],
            [],
        ],
        ids=repr,
    )
    def test_leaves_other_forms_to_argparse(self, argv):
        assert cli._read_argv(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "-"],
            ["decompose", "2,1", "--format", "json", "--format", "csv"],
            ["decompose", "2,1", "--timings", "--dual", "--timings"],
            ["table", " 5 ", "--verify", "--kind", "n-2,1,1"],
            ["lr", "", "2", "1", "--format", "json"],
        ],
        ids=repr,
    )
    def test_reads_plain_forms(self, argv):
        namespace = cli._read_argv(argv)
        assert namespace is not None
        assert vars(namespace) == _argparse_reads(argv)


# What -h prints at 80 columns, for the program and each subcommand.
_HELP = {
    "": """\
usage: foulkes [-h] {decompose,oracle,compare,table,lr} ...

Decompose the plethysms s_nu(s_(2)) and s_nu(s_(1,1)) into Schur functions,
exactly.

positional arguments:
  {decompose,oracle,compare,table,lr}
    decompose           evaluate a closed formula for nu
    oracle              expand by brute force, no closed formula
    compare             run formula and oracle, diff the results
    table               closed multiplicity table for depth-two nu
    lr                  one Littlewood-Richardson coefficient

options:
  -h, --help            show this help message and exit
""",
    "decompose": """\
usage: foulkes decompose [-h]
                         [--method {auto,two-row,two-column,hook-first,hook-second,base}]
                         [--dual] [--format {text,json,csv}] [--timings]
                         nu

positional arguments:
  nu                    partition, e.g. 3,1 or 2^2,1 or - for empty

options:
  -h, --help            show this help message and exit
  --method {auto,two-row,two-column,hook-first,hook-second,base}
  --dual                expand s_nu(s_(1,1)) instead
  --format {text,json,csv}
  --timings             print timings to stderr
""",
    "oracle": """\
usage: foulkes oracle [-h] [--inner {s2,e2}] [--format {text,json,csv}]
                      [--timings]
                      nu

positional arguments:
  nu

options:
  -h, --help            show this help message and exit
  --inner {s2,e2}
  --format {text,json,csv}
  --timings
""",
    "compare": """\
usage: foulkes compare [-h]
                       [--method {auto,two-row,two-column,hook-first,hook-second,base}]
                       [--dual] [--format {text,json}] [--timings]
                       nu

positional arguments:
  nu

options:
  -h, --help            show this help message and exit
  --method {auto,two-row,two-column,hook-first,hook-second,base}
  --dual
  --format {text,json}
  --timings
""",
    "table": """\
usage: foulkes table [-h] --kind {n-2,1,1,n-2,2} [--verify]
                     [--format {text,json,csv}]
                     n

positional arguments:
  n

options:
  -h, --help            show this help message and exit
  --kind {n-2,1,1,n-2,2}
  --verify              cross-check the formula
  --format {text,json,csv}
""",
    "lr": """\
usage: foulkes lr [-h] [--format {text,json}] lambda mu nu

positional arguments:
  lambda
  mu
  nu

options:
  -h, --help            show this help message and exit
  --format {text,json}
""",
}


@pytest.mark.parametrize("command", list(_HELP), ids=lambda c: c or "foulkes")
def test_help_prints_the_pinned_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "-h"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (0, _HELP[command], "")


# A golden query of each subcommand and of each exit code, and a usage
# error, which argparse ends with SystemExit.
ENTRY_QUERIES = [
    ["decompose", "3", "--format", "json"],
    ["oracle", "6", "--inner", "e2", "--format", "text"],
    ["compare", "6", "--dual", "--format", "json"],
    ["table", "10", "--kind", "n-2,1,1", "--verify", "--format", "text"],
    ["lr", "1,1,1,1", "2", "2", "--format", "text"],
    ["decompose", "3,2,1"],
    ["oracle", "10"],
    ["decompose", "2,1", "extra"],
]


def _in_process(capsys, argv):
    """cli.main(argv) in this process: exit code, stdout, stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _after_atexit_hook(script):
    """Run script in a fresh interpreter after an atexit hook that
    prints whether the collector's objects are frozen by then. The hook
    prints only if the process is not cut short (as os._exit would)."""
    src = str(Path(foulkes.__file__).resolve().parents[1])
    hook = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('atexit: frozen', gc.get_freeze_count() > 0,"
        " file=sys.stderr))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", hook + script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )


class TestEntry:
    """python -m foulkes.cli and the installed foulkes command enter at
    cli.run, which freezes the collector on its way out; cli.main, which
    callers in one process call again and again, leaves it alone."""

    @pytest.mark.parametrize("argv", ENTRY_QUERIES, ids=" ".join)
    def test_main_leaves_the_collector_alone(self, capsys, argv):
        state = (gc.isenabled(), gc.get_freeze_count())
        code = _in_process(capsys, argv)[0]
        assert (gc.isenabled(), gc.get_freeze_count()) == state
        key = " ".join(argv)
        assert code == (GOLDEN[key][0] if key in GOLDEN else 2)  # 2: usage error

    @pytest.mark.parametrize("argv", ENTRY_QUERIES, ids=" ".join)
    def test_module_run_prints_what_main_prints(self, capsys, argv):
        # the __main__ block as python -m runs it
        code, out, err = _in_process(capsys, argv)
        proc = _after_atexit_hook(
            "import runpy\n"
            f"sys.argv = ['foulkes', *{argv!r}]\n"
            "runpy.run_module('foulkes.cli', run_name='__main__')\n"
        )
        assert proc.stdout == out
        assert proc.stderr == err + "atexit: frozen True\n"
        assert proc.returncode == code

    def test_run_freezes_on_an_exception(self):
        proc = _after_atexit_hook(
            "import foulkes.cli\n"
            "def main():\n"
            "    raise RuntimeError('boom')\n"
            "foulkes.cli.main = main\n"
            "foulkes.cli.run()\n"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.endswith("RuntimeError: boom\natexit: frozen True\n")

    def test_installed_command_calls_the_main_block_entry(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        main_test = "__name__ == '__main__'"
        (block,) = [
            node
            for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == main_test
        ]
        (statement,) = block.body
        entry = statement.value.func.id
        assert entry != "main" and callable(getattr(cli, entry))
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            script = re.search(r'^foulkes = "(.*)"$', text, re.MULTILINE).group(1)
        else:
            script = tomllib.loads(text)["project"]["scripts"]["foulkes"]
        assert script == f"foulkes.cli:{entry}"
