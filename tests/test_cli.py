"""Command-line surface: rendering, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import foulkes
from foulkes import cli, partitions
from foulkes.expansions import SchurExpansion
from foulkes.formulas import METHODS, TABLE_NU_KINDS, decompose, table_row_class
from foulkes.oracle import oracle_plethysm_e2, oracle_plethysm_s2
from foulkes.partitions import generate_partitions, parse_partition

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
        ids=["extras", "dual-equals", "inner-40"],
    )
    def test_short_arguments_are_echoed_whole(self, capsys, argv, err):
        code, got = usage_error(capsys, *argv)
        assert code == 2 and got.startswith(err)


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
        assert out.splitlines()[3:] == [
            "status: disagree",
            "diff:",
            "  4  formula=2  oracle=1",
            "  3,1  formula=1  oracle=0",
            "  2,2  formula=0  oracle=1",
            "constituents: 2",
        ]

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
            rows = out.splitlines()[1:]
            assert len(rows) == 6 and all(row.endswith(";check") for row in rows)
        else:
            assert out.splitlines()[-4:] == [
                "verified: MISMATCH",
                "  8  table=0  formula=2",
                "  6,1,1  table=1  formula=2",
                "  3,3,2  table=1  formula=0",
            ]

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


def test_import_loads_no_fraction_or_json_module():
    # fractions (with decimal and numbers) and json load only on the
    # paths that use them. -S keeps site hooks from importing any.
    src = str(Path(foulkes.__file__).resolve().parents[1])
    code = (
        "import sys, foulkes.cli\n"
        "print(*sorted({'fractions', 'decimal', 'numbers', 'json'}"
        " & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "\n"


# Every query the benchmark workloads generate, with its exit code.
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)
GOLDEN_JSON_QUERIES = [
    key.split(" ")
    for key, (code, _) in GOLDEN.items()
    if key.split(" ")[0] in ("decompose", "oracle") and "--format json" in key and not code
]


def _covered(nu):
    """Shapes the auto dispatch covers: two rows, two columns or a hook."""
    return len(nu) <= 2 or nu[0] <= 2 or nu[1] == 1


# From - and 1 on, whose outputs s_() and s_(2) (or s_(1,1)) have one term.
COVERED_JSON_QUERIES = [
    ["decompose", ",".join(map(str, nu)) or "-", *dual, "--format", "json"]
    for n in range(10)
    for nu in generate_partitions(n)
    if _covered(nu)
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


@pytest.mark.parametrize("command", ["decompose", "oracle"])
def test_json_output_loads_no_json_module(command):
    # -S keeps site hooks from importing json before the CLI runs
    src = str(Path(foulkes.__file__).resolve().parents[1])
    code = (
        "import sys, foulkes.cli\n"
        f"foulkes.cli.main([{command!r}, '2,1', '--format', 'json'])\n"
        "print('json' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    line, loaded = proc.stdout.splitlines()
    assert line.startswith('{"nu": [2, 1], ')
    assert loaded == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "2,1", "--format", "json"],
        ["oracle", "3,1", "--format", "json"],
        ["compare", "2,1", "--format", "json"],
        ["table", "6", "--kind", "n-2,2", "--format", "json"],
        ["lr", "4,2", "2", "2,2", "--format", "json"],
    ],
    ids=" ".join,
)
def test_json_commands_load_no_fraction_or_json_module(argv):
    # the oracle runs in integers and every payload goes through cli._json,
    # so no subcommand needs fractions, decimal or json; -S keeps site
    # hooks from importing any of them before the CLI runs
    src = str(Path(foulkes.__file__).resolve().parents[1])
    code = (
        "import sys, foulkes.cli\n"
        f"code = foulkes.cli.main({argv!r})\n"
        "print(code, *sorted({'fractions', 'decimal', 'json'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    line, status = proc.stdout.splitlines()
    assert line.startswith("{")
    assert status == "0"  # exit code 0 and none of the three modules


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


def _run_isolated(argv):
    """Run cli.main(argv) in a fresh -S interpreter (so no site hook
    imports anything first); return its exit code, stdout, stderr and
    which of argparse, gettext and locale it loaded."""
    src = str(Path(foulkes.__file__).resolve().parents[1])
    code = (
        "import sys, foulkes.cli\n"
        "try:\n"
        f"    code = foulkes.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "loaded = sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
        "print(code, *loaded, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
        capture_output=True,
        text=True,
        check=True,
    )
    *err, status = proc.stderr.split("\n")[:-1]
    code, *loaded = status.split(" ")
    return int(code), proc.stdout, "".join(line + "\n" for line in err), loaded


# Each subcommand with every one of its options spelled in full.
@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "3,1", "--method", "auto", "--dual", "--format", "csv"],
        ["oracle", "3,1", "--inner", "e2", "--format", "json"],
        ["compare", "2,1", "--method", "two-row", "--dual", "--format", "json"],
        ["table", "6", "--kind", "n-2,2", "--verify", "--format", "csv"],
        ["lr", "4,2", "2", "2,2", "--format", "text"],
    ],
    ids=" ".join,
)
def test_well_formed_query_loads_no_argparse(argv):
    code, out, err, loaded = _run_isolated(argv)
    assert (code, err, loaded) == (0, "", [])
    assert out


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["decompose", "2,1", "extra"],
            2,
            "",
            "foulkes: error: unrecognized arguments: extra\n",
        ),
        (["decompose", "-h"], 0, _HELP["decompose"], ""),
    ],
    ids=["usage-error", "help"],
)
def test_usage_error_and_help_load_argparse(argv, code, out, err):
    got_code, got_out, got_err, loaded = _run_isolated(argv)
    assert (got_code, got_out, got_err) == (code, out, err)
    assert "argparse" in loaded
