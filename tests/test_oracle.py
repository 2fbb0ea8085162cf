"""Brute-force plethysm expansion.

The oracle goes through the power-sum basis and never touches the
closed formulas or the Littlewood-Richardson machinery, so agreement
elsewhere in the suite is meaningful.  Here we pin its own small
outputs and internal algebra.
"""

import ast
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import foulkes
from foulkes.errors import ResourceBoundError
from foulkes.expansions import (
    PowerSumExpansion,
    SchurExpansion,
    omega_schur,
    total_dimension,
)
from foulkes.oracle import (
    DEFAULT_MAX_WEIGHT,
    _multiply_out,
    oracle_plethysm_e2,
    oracle_plethysm_s2,
)
from foulkes.partitions import generate_partitions, irreducible_dimension


# The substitutions p_r -> p_r[s_2] and p_r -> p_r[s_(1,1)] as power-sum
# expansions: the reference for the integer brackets of _multiply_out.
def p_plethysm_h2(r):
    """p_r composed with h_2 = s_(2): (p_r * p_r + p_2r) / 2."""
    return PowerSumExpansion({(r, r): Fraction(1, 2), (2 * r,): Fraction(1, 2)})


def p_plethysm_e2(r):
    """p_r composed with e_2 = s_(1,1): (p_r * p_r - p_2r) / 2."""
    return PowerSumExpansion({(r, r): Fraction(1, 2), (2 * r,): Fraction(-1, 2)})


class TestPowerSumSubstitution:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_h2_route(self, r):
        f = p_plethysm_h2(r)
        assert f[(r, r)] == Fraction(1, 2)
        assert f[(2 * r,)] == Fraction(1, 2)
        assert len(f) == 2

    @pytest.mark.parametrize("r", range(1, 7))
    def test_e2_route(self, r):
        f = p_plethysm_e2(r)
        assert f[(r, r)] == Fraction(1, 2)
        assert f[(2 * r,)] == Fraction(-1, 2)
        assert len(f) == 2

    @pytest.mark.parametrize("r", range(1, 7))
    def test_sum_and_difference(self, r):
        # h2 + e2 = p1*p1 and h2 - e2 = p2, composed with p_r.
        both = p_plethysm_h2(r) + p_plethysm_e2(r)
        assert dict(both.items()) == {(r, r): Fraction(1)}
        gap = p_plethysm_h2(r) - p_plethysm_e2(r)
        assert dict(gap.items()) == {(2 * r,): Fraction(1)}

    @pytest.mark.parametrize("n", range(0, 8))
    def test_integer_multiply_out_matches_factor_product(self, n):
        # The oracle multiplies out 2 * p_r(h_2) or 2 * p_r(e_2) in
        # integers; the product of the PowerSumExpansion factors is the
        # reference. Both go through the power-sum product, so this
        # checks the scaling of the brackets;
        # test_multiply_out_matches_subset_expansion checks the product.
        for mu in generate_partitions(n):
            for factor, sign in ((p_plethysm_h2, 1), (p_plethysm_e2, -1)):
                reference = PowerSumExpansion({(): 1})
                for r in mu:
                    reference = reference * (2 * factor(r))
                assert PowerSumExpansion(_multiply_out(mu, sign)) == reference, mu

    @pytest.mark.parametrize("n", range(0, 9))
    def test_multiply_out_matches_subset_expansion(self, n):
        # prod_r (p_r p_r + sign * p_2r) term by term: the parts of mu in
        # a subset S double, the others pair, and the term has weight
        # sign^|S|; shares no code with the power-sum product
        for mu in generate_partitions(n):
            for sign in (1, -1):
                reference = Counter()
                for doubled in itertools.product((False, True), repeat=len(mu)):
                    parts = []
                    for r, d in zip(mu, doubled):
                        parts.extend((2 * r,) if d else (r, r))
                    key = tuple(sorted(parts, reverse=True))
                    reference[key] += sign ** sum(doubled)
                expected = {key: c for key, c in reference.items() if c}
                assert dict(_multiply_out(mu, sign)) == expected, (mu, sign)


class TestSmallExpansions:
    def test_single_cell(self):
        assert dict(oracle_plethysm_s2((1,)).items()) == {(2,): 1}
        assert dict(oracle_plethysm_e2((1,)).items()) == {(1, 1): 1}

    def test_size_two(self):
        assert dict(oracle_plethysm_s2((2,)).items()) == {(4,): 1, (2, 2): 1}
        assert dict(oracle_plethysm_s2((1, 1)).items()) == {(3, 1): 1}
        assert dict(oracle_plethysm_e2((2,)).items()) == {
            (2, 2): 1,
            (1, 1, 1, 1): 1,
        }
        assert dict(oracle_plethysm_e2((1, 1)).items()) == {(2, 1, 1): 1}

    def test_empty(self):
        assert dict(oracle_plethysm_s2(()).items()) == {(): 1}
        assert dict(oracle_plethysm_e2(()).items()) == {(): 1}

    def test_three_cells(self):
        assert dict(oracle_plethysm_s2((2, 1)).items()) == {
            (5, 1): 1,
            (4, 2): 1,
            (3, 2, 1): 1,
        }


class TestInvariants:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_duality(self, n):
        for nu in generate_partitions(n):
            assert omega_schur(oracle_plethysm_s2(nu)) == oracle_plethysm_e2(nu)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dimension_identity(self, n):
        scale = math.factorial(2 * n) // (2**n * math.factorial(n))
        for nu in generate_partitions(n):
            for fn in (oracle_plethysm_s2, oracle_plethysm_e2):
                assert total_dimension(fn(nu)) == scale * irreducible_dimension(nu)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_nonnegative_and_homogeneous(self, n):
        for nu in generate_partitions(n):
            f = oracle_plethysm_s2(nu)
            assert f.degree == 2 * n
            assert all(mult > 0 for _, mult in f.items())


class TestResourceCap:
    def test_default_cap_value(self):
        assert DEFAULT_MAX_WEIGHT == 9

    def test_over_cap_rejected(self):
        with pytest.raises(ResourceBoundError):
            oracle_plethysm_s2((3,) + (1,) * 9)
        with pytest.raises(ResourceBoundError):
            oracle_plethysm_e2((10,))

    def test_cap_override(self):
        f = oracle_plethysm_s2((10,), max_weight=10)
        assert f.degree == 20
        assert f[(20,)] == 1
        assert all(mult >= 0 for _, mult in f.items())

    def test_under_cap_allowed(self):
        assert oracle_plethysm_s2((9,), max_weight=None).degree == 18

    def test_tight_cap_rejects(self):
        with pytest.raises(ResourceBoundError):
            oracle_plethysm_s2((3, 1), max_weight=3)

    @pytest.mark.parametrize("oracle", [oracle_plethysm_s2, oracle_plethysm_e2])
    def test_negative_cap_is_a_value_error(self, oracle):
        # not ResourceBoundError: no size exceeds a negative cap
        with pytest.raises(ValueError, match="max_weight") as info:
            oracle((), max_weight=-1)
        assert not isinstance(info.value, ResourceBoundError)


def test_cold_oracle_12_memory():
    # A cold oracle (12), s2 then e2, in one fresh interpreter stays
    # under 40 MB max RSS (59 MB when every degree-24 column was built).
    script = (
        "import resource\n"
        "from foulkes.oracle import oracle_plethysm_e2, oracle_plethysm_s2\n"
        "oracle_plethysm_s2((12,), max_weight=12)\n"
        "oracle_plethysm_e2((12,), max_weight=12)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(foulkes.__file__).resolve().parents[1])
    # Linux carries a parent's peak RSS into the ru_maxrss of a child it
    # starts by fork or vfork and exec, so under pytest the interpreter
    # would read this process' peak. A shell forks it instead (the exit
    # after it keeps the shell from exec'ing it in place).
    proc = subprocess.run(
        ["sh", "-c", '"$0" -c "$1"; exit $?', sys.executable, script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    # ru_maxrss is in bytes on macOS, in kilobytes elsewhere
    unit = 1 if sys.platform == "darwin" else 1024
    max_rss_mb = int(proc.stdout) * unit / 2**20
    assert max_rss_mb < 40, f"{max_rss_mb:.1f} MB"


def test_cold_oracle_loads_no_fractions():
    # the oracle runs in integers end to end: s_nu's power sums over
    # |nu|!, the brackets and the basis change
    script = (
        "import sys\n"
        "from foulkes.oracle import oracle_plethysm_e2, oracle_plethysm_s2\n"
        "from foulkes.partitions import generate_partitions\n"
        "for nu in generate_partitions(8):\n"
        "    oracle_plethysm_s2(nu), oracle_plethysm_e2(nu)\n"
        "print(*sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    src = str(Path(foulkes.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "\n"


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative ones without dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["oracle.py", "expansions.py"])
def test_oracle_route_imports_neither_lr_nor_formulas(module):
    path = Path(foulkes.__file__).with_name(module)
    for name in imported_modules(path):
        parts = name.split(".")
        if parts[0] == "foulkes":
            parts = parts[1:]
        assert parts[:1] not in (["lr"], ["formulas"]), (module, name)


def test_package_imports_only_the_standard_library():
    # the package is stdlib-only: every import, lazy ones included, names
    # a standard module, __future__ or the package itself
    src = Path(foulkes.__file__).parent
    own = {"", "foulkes"} | {path.stem for path in src.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"__future__"} | own
    for path in sorted(src.glob("*.py")):
        for name in imported_modules(path):
            assert name.split(".")[0] in allowed, (path.name, name)
