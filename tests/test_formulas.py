"""Closed decomposition formulas and the classification table.

Cross-checks against the brute-force oracle live in the acceptance
suite; this file covers frozen small outputs, shape preconditions,
internal consistency between formula variants, and the table
statistics on hand-checked rows.
"""

import math
import sys
from collections import Counter

import pytest

import foulkes.cli
from foulkes import (
    _characters,
    _table1,
    clear_caches,
    expansions,
    formulas,
    lr,
    oracle_plethysm_e2,
    oracle_plethysm_s2,
)
from foulkes.errors import InvalidShapeError, UnsupportedShapeError
from foulkes.expansions import SchurExpansion, omega_schur, total_dimension
from foulkes.formulas import (
    METHODS,
    TABLE_NU_KINDS,
    decompose,
    induce_product,
    omega_dual,
    phi_hook,
    phi_hook_depth1_closed,
    phi_one_column,
    phi_one_row,
    phi_two_column,
    phi_two_one_column_closed,
    phi_two_row,
    table_multiplicity,
    table_nu,
    table_row_class,
)
from foulkes.lr import schur_multiply
from foulkes.partitions import (
    conjugate,
    count_even_shifts,
    double,
    double_hook,
    generate_distinct_partitions,
    generate_partitions,
)


class TestBaseCases:
    def test_one_row_small(self):
        assert dict(phi_one_row(0).items()) == {(): 1}
        assert dict(phi_one_row(1).items()) == {(2,): 1}
        assert dict(phi_one_row(2).items()) == {(4,): 1, (2, 2): 1}
        assert dict(phi_one_row(3).items()) == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}

    def test_one_column_small(self):
        assert dict(phi_one_column(0).items()) == {(): 1}
        assert dict(phi_one_column(1).items()) == {(2,): 1}
        assert dict(phi_one_column(2).items()) == {(3, 1): 1}
        assert dict(phi_one_column(3).items()) == {(4, 1, 1): 1, (3, 3): 1}

    @pytest.mark.parametrize("n", range(0, 9))
    def test_one_row_is_doubled_partitions(self, n):
        f = phi_one_row(n)
        assert set(f.support()) == {double(a) for a in generate_partitions(n)}
        assert all(m == 1 for _, m in f.items())

    @pytest.mark.parametrize("n", range(0, 9))
    def test_one_column_is_double_hooks(self, n):
        f = phi_one_column(n)
        assert set(f.support()) == {
            double_hook(a) for a in generate_distinct_partitions(n)
        }
        assert all(m == 1 for _, m in f.items())

    def test_negative_rejected(self):
        with pytest.raises(InvalidShapeError):
            phi_one_row(-1)
        with pytest.raises(InvalidShapeError):
            phi_one_column(-1)
        with pytest.raises(InvalidShapeError):
            phi_one_column(-2)


class TestTwoRow:
    def test_frozen_examples(self):
        assert dict(phi_two_row(2, 1).items()) == {(3, 1): 1}
        assert dict(phi_two_row(3, 1).items()) == {
            (5, 1): 1,
            (4, 2): 1,
            (3, 2, 1): 1,
        }

    def test_r_zero_degenerates(self):
        for n in range(1, 7):
            assert phi_two_row(n, 0) == phi_one_row(n)

    def test_shape_validation(self):
        with pytest.raises(InvalidShapeError):
            phi_two_row(3, 2)  # (1, 2) is not weakly decreasing
        with pytest.raises(InvalidShapeError):
            phi_two_row(2, -1)
        with pytest.raises(InvalidShapeError):
            phi_two_row(-1, 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_nonnegative(self, n):
        for r in range(0, n // 2 + 1):
            assert all(m > 0 for _, m in phi_two_row(n, r).items())


class TestTwoColumn:
    def test_frozen_example(self):
        assert dict(phi_two_column(4, 1).items()) == {
            (6, 1, 1): 1,
            (5, 3): 1,
            (5, 2, 1): 1,
            (4, 3, 1): 1,
            (4, 2, 1, 1): 1,
            (3, 3, 2): 1,
        }
        assert total_dimension(phi_two_column(4, 1)) == 315

    def test_r_zero_degenerates(self):
        for n in range(1, 7):
            assert phi_two_column(n, 0) == phi_one_column(n)

    def test_shape_validation(self):
        with pytest.raises(InvalidShapeError):
            phi_two_column(3, 2)  # needs 2r <= n
        with pytest.raises(InvalidShapeError):
            phi_two_column(2, -1)

    @pytest.mark.parametrize("n", range(-1, 9))
    def test_same_domain_as_two_row(self, n):
        # phi_two_row and phi_two_column share one body: n >= 1, 0 <= 2r <= n
        for r in range(-1, n + 2):
            defined = []
            for phi in (phi_two_row, phi_two_column):
                try:
                    phi(n, r)
                    defined.append(True)
                except InvalidShapeError:
                    defined.append(False)
            assert defined == [n >= 1 and 0 <= 2 * r <= n] * 2, (n, r)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_conjugate_of_two_row_labels(self, n):
        # nu = (2^r, 1^(n-2r)) is the conjugate of (n-r, r); the expansions
        # differ, but both must live in degree 2n with positive terms.
        for r in range(0, n // 2 + 1):
            f = phi_two_column(n, r)
            assert f.degree == 2 * n
            assert all(m > 0 for _, m in f.items())


class TestHook:
    def test_variants_agree(self):
        for n in range(1, 8):
            for r in range(0, n):
                assert phi_hook(n, r, "first") == phi_hook(n, r, "second"), (n, r)

    def test_degenerate_ends(self):
        for n in range(1, 8):
            assert phi_hook(n, 0, "first") == phi_one_row(n)
            assert phi_hook(n, n - 1, "first") == phi_one_column(n)

    def test_shape_validation(self):
        with pytest.raises(InvalidShapeError):
            phi_hook(3, 3, "first")
        with pytest.raises(InvalidShapeError):
            phi_hook(3, -1, "first")
        with pytest.raises(ValueError):
            phi_hook(3, 1, "third")

    def test_zero_size(self):
        with pytest.raises(InvalidShapeError):
            phi_hook(0, 0, "first")


class TestClosedCorollaries:
    def test_depth_one_frozen(self):
        assert dict(phi_hook_depth1_closed(4).items()) == {
            (7, 1): 1,
            (6, 2): 1,
            (5, 3): 1,
            (5, 2, 1): 1,
            (4, 3, 1): 1,
            (4, 2, 2): 1,
            (3, 2, 2, 1): 1,
        }
        assert total_dimension(phi_hook_depth1_closed(4)) == 315
        # read off the all-even and 2-odd-distinct rows of Table 1 only
        assert _table1._table("n-1,1", 4)[1] == {
            (7, 1): "2-odd-distinct",
            (6, 2): "all-even",
            (5, 3): "2-odd-distinct",
            (5, 2, 1): "2-odd-distinct",
            (4, 3, 1): "2-odd-distinct",
            (4, 2, 2): "all-even",
            (3, 2, 2, 1): "2-odd-distinct",
        }

    @pytest.mark.parametrize("n", range(2, 13))
    def test_depth_one_matches_two_row(self, n):
        assert phi_hook_depth1_closed(n) == phi_two_row(n, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_double_column_matches(self, n):
        assert phi_two_one_column_closed(n) == phi_two_column(n, 1)

    @pytest.mark.parametrize("size", range(11))
    def test_addable_pairs_definition(self, size):
        # every t, not only the double hooks phi_two_one_column_closed
        # passes: the lam of |t| + 2 containing t whose two new cells
        # lie in distinct columns and are not the cells just past the
        # arm and the leg of one leading diagonal hook of t
        for t in generate_partitions(size):
            heights = [sum(1 for part in t if part > i) for i in range(len(t))]
            hook_ends = [
                {(i, t[i]), (heights[i], i)} for i in range(len(t)) if t[i] > i
            ]
            want = set()
            for lam in generate_partitions(size + 2):
                padded = t + (0,) * (len(lam) - len(t))
                if len(padded) > len(lam) or any(p < q for p, q in zip(lam, padded)):
                    continue
                cells = {
                    (r, c) for r, part in enumerate(lam) for c in range(padded[r], part)
                }
                (_, c1), (_, c2) = cells
                if c1 != c2 and cells not in hook_ends:
                    want.add(lam)
            assert _table1._addable_pairs(t) == want, t

    def test_small_shapes_rejected(self):
        with pytest.raises(InvalidShapeError):
            phi_hook_depth1_closed(1)
        with pytest.raises(InvalidShapeError):
            phi_two_one_column_closed(1)


class TestTable:
    def test_kinds_constant(self):
        assert TABLE_NU_KINDS == ("n-2,1,1", "n-2,2")

    def test_row_class_examples(self):
        assert table_row_class((6, 4, 2)) == "all-even"
        assert table_row_class((5, 3)) == "2-odd-distinct"
        assert table_row_class((3, 3, 2)) == "2-odd-equal"
        assert table_row_class((7, 5, 3, 1)) == "4-odd-distinct"
        assert table_row_class((5, 3, 3, 1)) == "4-odd-one-pair"
        assert table_row_class((3, 3, 1, 1)) == "4-odd-two-pairs"
        assert table_row_class((5, 1, 1, 1, 1, 1)) == "other"
        assert table_row_class((3, 3, 3, 1)) == "other"
        assert table_row_class((1, 1, 1, 1)) == "other"

    def test_rows_by_definition(self):
        # Table 1's rows from the number of odd parts and of distinct
        # odd values, no more than two of each value
        def row(lam):
            odd = Counter(p for p in lam if p % 2)
            count, values = sum(odd.values()), len(odd)
            if count == 0:
                return "all-even"
            if count == 2:
                return "2-odd-distinct" if values == 2 else "2-odd-equal"
            if count == 4 and max(odd.values()) <= 2:
                names = {4: "4-odd-distinct", 3: "4-odd-one-pair", 2: "4-odd-two-pairs"}
                return names[values]
            return "other"

        for n in range(11):
            for lam in generate_partitions(2 * n):
                assert _table1._table_row(lam) == row(lam), lam

    @pytest.mark.parametrize(
        "kind, n",
        [("n-2,1,1", n) for n in range(3, 13)] + [("n-2,2", n) for n in range(4, 13)],
    )
    def test_scan_matches_table_multiplicity(self, kind, n):
        # the rows that phi_hook_depth1_closed and the table command
        # read, against the public function on every partition of 2n
        table, rows = _table1._table(kind, n)
        want = {lam: table_multiplicity(lam, kind, n) for lam in generate_partitions(2 * n)}
        assert table == SchurExpansion(want)
        assert rows == {lam: table_row_class(lam) for lam in table}

    @pytest.mark.parametrize(
        "kind, n",
        [
            (kind, n)
            for kind, least in (("n-1,1", 2), ("n-2,1,1", 3), ("n-2,2", 4))
            for n in range(least, 17)
        ],
    )
    def test_rows_built_directly_equal_the_filtered_scan(self, kind, n):
        # the reference scans every partition of 2n: its row, and that
        # row's multiplicity where it is not zero
        want, want_rows = {}, {}
        for lam in generate_partitions(2 * n):
            row = _table1._table_row(lam)
            mult = _table1._row_multiplicity(lam, row, kind)
            if mult:
                want[lam], want_rows[lam] = mult, row
        table, rows = _table1._table(kind, n)
        assert table == SchurExpansion(want)
        assert rows == want_rows

    @pytest.mark.parametrize(
        "kind, nu, least",
        [
            ("n-1,1", lambda n: (n - 1, 1), 2),
            ("n-2,1,1", lambda n: (n - 2, 1, 1), 3),
            ("n-2,2", lambda n: (n - 2, 2), 4),
        ],
        ids=["n-1,1", "n-2,1,1", "n-2,2"],
    )
    def test_no_zero_row_is_priced(self, kind, nu, least, monkeypatch):
        # _table prices only the Table 1 rows of the lam that the formula
        # route finds for its nu, n up to 12: never the 2-odd-equal row
        # of n-2,2, the 4-odd-two-pairs row of n-2,1,1, or the
        # 2-odd-equal and 4-odd rows of n-1,1
        rule = _table1._row_multiplicity
        priced, found = set(), set()

        def spy(lam, row, kind):
            priced.add(row)
            return rule(lam, row, kind)

        monkeypatch.setattr(_table1, "_row_multiplicity", spy)
        for n in range(least, 13):
            _table1._table(kind, n)
            found.update(map(_table1._table_row, decompose(nu(n))[0].support()))
        assert priced == found

    def test_frozen_multiplicities(self):
        assert table_multiplicity((5, 3), "n-2,1,1", 4) == 1
        assert table_multiplicity((6, 1, 1), "n-2,1,1", 4) == 1
        assert table_multiplicity((5, 3), "n-2,2", 4) == 0
        assert table_multiplicity((7, 1), "n-2,1,1", 4) == 0
        assert table_multiplicity((4, 4), "n-2,1,1", 4) == 0
        assert table_multiplicity((8,), "n-2,1,1", 4) == 0

    def test_hand_checked_n4_hook_rows(self):
        # The six constituents of the n=4, nu=(2,1,1) decomposition, each
        # with multiplicity one; every other partition of 8 gives zero.
        expected = {
            (6, 1, 1): 1,
            (5, 3): 1,
            (5, 2, 1): 1,
            (4, 3, 1): 1,
            (4, 2, 1, 1): 1,
            (3, 3, 2): 1,
        }
        for lam in generate_partitions(8):
            assert table_multiplicity(lam, "n-2,1,1", 4) == expected.get(lam, 0)

    def test_table_nu(self):
        assert table_nu("n-2,1,1", 3) == (1, 1, 1)
        assert table_nu("n-2,1,1", 6) == (4, 1, 1)
        assert table_nu("n-2,2", 4) == (2, 2)
        with pytest.raises(InvalidShapeError):
            table_nu("n-2,2", -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            table_multiplicity((4, 2), "bogus", 3)
        with pytest.raises(InvalidShapeError):
            table_multiplicity((2, 2), "n-2,1,1", 2)
        with pytest.raises(InvalidShapeError):
            table_multiplicity((4, 2), "n-2,2", 3)
        with pytest.raises(InvalidShapeError):
            table_multiplicity((4, 2), "n-2,1,1", 4)  # size 6, needs 8


class TestDualAndProduct:
    def test_omega_dual_base(self):
        assert dict(omega_dual(phi_one_row(2)).items()) == {
            (2, 2): 1,
            (1, 1, 1, 1): 1,
        }

    @pytest.mark.parametrize("n", range(0, 7))
    def test_omega_dual_conjugates_labels(self, n):
        f = phi_one_row(n)
        g = omega_dual(f)
        assert {conjugate(lam) for lam in f.support()} == set(g.support())

    def test_induce_product_matches_schur_multiply(self):
        f = SchurExpansion({(2,): 1, (1, 1): 1})
        g = SchurExpansion({(2, 1): 1})
        assert induce_product(f, g) == schur_multiply(f, g)


class TestDecompose:
    @pytest.mark.parametrize(
        "nu, method",
        [
            ((), "one-row"),
            ((3, 2), "two-row"),
            ((1, 1, 1), "two-column"),
            ((3, 1, 1), "hook-first"),
        ],
    )
    def test_auto_routing(self, nu, method):
        assert decompose(nu)[1] == method

    def test_routes_to_the_named_formula(self):
        assert decompose((3, 2)) == (phi_two_row(5, 2), "two-row")
        assert decompose((2, 2, 1), "two-column") == (
            phi_two_column(5, 2),
            "two-column",
        )
        assert decompose((3, 1, 1), "hook-second") == (
            phi_hook(5, 2, "second"),
            "hook-second",
        )
        assert decompose((1, 1, 1), "base") == (phi_one_column(3), "one-column")

    # The bench spans and the traced formula_sweep run wrap these
    # module attributes, so decompose must look each one up there.
    @pytest.mark.parametrize("inner", ["s2", "e2"])
    @pytest.mark.parametrize(
        "nu, method, wrapper, args",
        [
            ((4, 2), "auto", "phi_two_row", (6, 2)),
            ((2, 2, 1), "two-column", "phi_two_column", (5, 2)),
            ((3, 1, 1), "hook-first", "phi_hook", (5, 2, "first")),
            ((3, 1, 1), "hook-second", "phi_hook", (5, 2, "second")),
            ((4,), "base", "phi_one_row", (4,)),
            ((1, 1, 1), "base", "phi_one_column", (3,)),
        ],
    )
    def test_reaches_the_module_level_wrapper(
        self, monkeypatch, nu, method, wrapper, args, inner
    ):
        original = getattr(formulas, wrapper)
        calls = []

        def spy(*a):
            calls.append(a)
            return original(*a)

        monkeypatch.setattr(formulas, wrapper, spy)
        result, _ = decompose(nu, method, inner)
        assert calls == [args]
        expected = original(*args)
        assert result == (omega_schur(expected) if inner == "e2" else expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_partition_takes_base_case(self, method):
        assert decompose((), method) == (phi_one_row(0), "one-row")

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedShapeError):
            decompose((3, 2, 1))

    # The shape each named method covers, written out here apart from
    # the dispatcher's own rules.
    SHAPE_RULES = {
        "two-row": lambda nu: len(nu) <= 2,
        "two-column": lambda nu: nu[0] <= 2,
        "hook-first": lambda nu: len(nu) < 2 or nu[1] <= 1,
        "hook-second": lambda nu: len(nu) < 2 or nu[1] <= 1,
        "base": lambda nu: len(nu) == 1 or nu[0] == 1,
    }

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_method_on_every_shape(self, n):
        assert set(self.SHAPE_RULES) == set(METHODS) - {"auto"}
        for nu in generate_partitions(n):
            got = {}
            for method in METHODS:
                try:
                    got[method] = decompose(nu, method)
                except UnsupportedShapeError:
                    got[method] = None
            for method, covers in self.SHAPE_RULES.items():
                assert (got[method] is not None) == covers(nu), (nu, method)
                if got[method] is not None and method != "base":
                    assert got[method][1] == method
            if got["base"] is not None:
                assert got["base"][1] == ("one-row" if len(nu) == 1 else "one-column")
            # auto is the first of two-row, two-column and hook-first that
            # covers nu, result and label, and raises when none does
            first = [got[m] for m in ("two-row", "two-column", "hook-first")]
            assert got["auto"] == next(filter(None, first), None), nu

    @pytest.mark.parametrize(
        "nu, method",
        [
            ((3, 1, 1), "two-row"),
            ((3, 1), "two-column"),
            ((2, 2), "hook-first"),
            ((2, 1), "base"),
        ],
    )
    def test_method_that_does_not_fit(self, nu, method):
        with pytest.raises(UnsupportedShapeError):
            decompose(nu, method)

    def test_unknown_method_or_inner(self):
        with pytest.raises(ValueError):
            decompose((2, 1), "three-row")
        with pytest.raises(ValueError):
            decompose((2, 1), inner="h3")

    @pytest.mark.parametrize("nu", [(2,), (2, 1), (1, 1, 1), (3, 1, 1), (2, 2, 1)])
    def test_e2_is_omega_of_s2(self, nu):
        formula, method = decompose(nu)
        assert decompose(nu, inner="e2") == (omega_schur(formula), method)


def _memos():
    """Every functools.cache memo among the globals of the loaded
    foulkes modules."""
    return [
        value
        for name, module in list(sys.modules.items())
        if name == "foulkes" or name.startswith("foulkes.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]


def _misses():
    return (
        formulas._factor_product.cache_info().misses,
        lr._product_terms.cache_info().misses,
    )


def check_factor_dimension(a, b, kind):
    """The dimension identity of one factor product: its terms' degrees
    add up to C(2n, 2a) times the degrees of its two factors, n = a + b.
    The CI runs it on every product with a + b = 16."""
    base = {"h": phi_one_row, "e": phi_one_column}
    want = (
        math.comb(2 * (a + b), 2 * a)
        * total_dimension(base[kind[0]](a))
        * total_dimension(base[kind[1]](b))
    )
    assert total_dimension(formulas._factor_product(a, b, kind)) == want, (a, b, kind)


@pytest.mark.parametrize("total", range(13))
def test_factor_product_dimension_identity(total):
    # a >= b for the symmetric kinds, as the sums pass them
    for kind in ("hh", "ee", "he"):
        for a in range(total + 1):
            if kind == "he" or 2 * a >= total:
                check_factor_dimension(a, total - a, kind)


class TestMemos:
    @pytest.mark.parametrize("kind", ["hh", "ee", "he"])
    def test_factor_product_equals_fresh_product(self, kind):
        # the bases rebuilt through the validating constructor
        fresh = {
            "h": lambda n: SchurExpansion(
                {double(a): 1 for a in generate_partitions(n)}
            ),
            "e": lambda n: SchurExpansion(
                {double_hook(a): 1 for a in generate_distinct_partitions(n)}
            ),
        }
        for a in range(11):
            for b in range(11 - a):
                want = schur_multiply(fresh[kind[0]](a), fresh[kind[1]](b))
                assert formulas._factor_product(a, b, kind) == want

    @pytest.mark.parametrize("nu", [(5, 3), (6,), (2, 2, 1, 1), (1,) * 5, (4, 1, 1)])
    def test_dual_adds_no_miss(self, nu):
        decompose(nu)
        misses = _misses()
        decompose(nu, inner="e2")
        assert _misses() == misses

    @pytest.mark.parametrize("phi", [phi_two_row, phi_two_column])
    @pytest.mark.parametrize("n, r", [(6, 0), (7, 1), (8, 3)])
    def test_neighbouring_r_share_a_product(self, phi, n, r):
        formulas._factor_product.cache_clear()
        formulas._signed_sum.cache_clear()
        phi(n, r)
        before = formulas._factor_product.cache_info()
        phi(n, r + 1)
        after = formulas._factor_product.cache_info()
        # one new product, and the other term taken from the memo
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)

    def test_clear_caches_empties_every_memo(self):
        clear_caches()
        shapes = [(3, 2), (2, 2, 1), (3, 1, 1), (4,)]
        results = [(decompose(nu), oracle_plethysm_s2(nu)) for nu in shapes]
        # omega's conjugates and the command line's memos fill too
        assert decompose((3, 2), inner="e2")
        assert foulkes.cli.main(["compare", "2,2,1"]) == 0
        assert foulkes.cli.main(["decompose", "3,1", "--format", "json"]) == 0
        # an abbreviation, which only the argparse parser reads
        assert foulkes.cli.main(["decompose", "3,1", "--form", "json"]) == 0
        memos = _memos()
        assert formulas._factor_product in memos and lr._product_terms in memos
        assert formulas._signed_sum in memos
        assert lr._shape in memos
        assert expansions._conjugate_memo in memos
        assert _characters._strip_table in memos
        assert _characters._class_sums in memos
        assert _characters._masks in memos and _characters._index in memos
        assert foulkes.cli._json_term_head in memos
        assert foulkes.cli._build_parser in memos
        assert all(memo.cache_info().currsize for memo in memos)
        clear_caches()
        assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
        assert [(decompose(nu), oracle_plethysm_s2(nu)) for nu in shapes] == results


# Every public size or index argument: a call taking the argument alone,
# a value it accepts, and the largest int below its range.
_SIZE_ARGUMENTS = {
    "generate_partitions.n": (generate_partitions, 3, -1),
    "generate_distinct_partitions.n": (generate_distinct_partitions, 3, -1),
    "phi_one_row.n": (phi_one_row, 4, -1),
    "phi_one_column.n": (phi_one_column, 4, -1),
    "phi_two_row.n": (lambda n: phi_two_row(n, 0), 4, 0),
    "phi_two_row.r": (lambda r: phi_two_row(4, r), 1, -1),
    "phi_two_column.n": (lambda n: phi_two_column(n, 0), 4, 0),
    "phi_two_column.r": (lambda r: phi_two_column(4, r), 1, -1),
    "phi_hook.n": (lambda n: phi_hook(n, 0), 4, 0),
    "phi_hook.r": (lambda r: phi_hook(4, r), 1, -1),
    "phi_hook_depth1_closed.n": (phi_hook_depth1_closed, 4, 1),
    "phi_two_one_column_closed.n": (phi_two_one_column_closed, 4, 1),
    "table_nu.n-2,1,1": (lambda n: table_nu("n-2,1,1", n), 4, 2),
    "table_nu.n-2,2": (lambda n: table_nu("n-2,2", n), 4, 3),
    "table_multiplicity.n": (lambda n: table_multiplicity((4, 4), "n-2,2", n), 4, 3),
    "oracle_plethysm_s2.max_weight": (
        lambda cap: oracle_plethysm_s2((2, 1), max_weight=cap),
        3,
        -1,
    ),
    "oracle_plethysm_e2.max_weight": (
        lambda cap: oracle_plethysm_e2((2, 1), max_weight=cap),
        3,
        -1,
    ),
}

# Every public name argument, as a call taking the name alone.
_NAME_ARGUMENTS = {
    "decompose.method": lambda method: decompose((2, 1), method=method),
    "decompose.inner": lambda inner: decompose((2, 1), inner=inner),
    "phi_hook.variant": lambda variant: phi_hook(4, 1, variant),
    "table_nu.kind": lambda kind: table_nu(kind, 4),
    "table_multiplicity.kind": lambda kind: table_multiplicity((4, 4), kind, 4),
}


class TestArgumentRules:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("argument", list(_SIZE_ARGUMENTS))
    def test_size_is_an_int_in_range(self, argument, warm):
        # a memo keyed on 4 also answers 4.0, so the check has to come
        # first: the answer must not depend on what ran before
        call, good, low = _SIZE_ARGUMENTS[argument]
        clear_caches()
        if warm:
            call(good)
        for value, error in [
            (float(good), TypeError),
            (str(good), TypeError),
            (low, InvalidShapeError),
        ]:
            with pytest.raises(error):
                call(value)

    @pytest.mark.parametrize("argument", list(_NAME_ARGUMENTS))
    def test_long_name_gets_a_short_message(self, argument):
        with pytest.raises(ValueError) as info:
            _NAME_ARGUMENTS[argument]("x" * 100_000)
        message = str(info.value)
        assert message.endswith(f"got '{'x' * 40}...'") and len(message) < 200

    @pytest.mark.parametrize("argument", list(_NAME_ARGUMENTS))
    def test_name_of_another_type_is_refused(self, argument):
        with pytest.raises(ValueError, match="got NoneType$"):
            _NAME_ARGUMENTS[argument](None)

    def test_size_message(self):
        with pytest.raises(InvalidShapeError) as info:
            table_nu("n-2,2", 3)
        assert str(info.value) == "n for kind 'n-2,2' must be at least 4, got 3"

    @pytest.mark.parametrize("values", [[" 1 "], [1.0], ["1"]])
    def test_shift_values_are_ints(self, values):
        # int() once read " 1 " as 1
        with pytest.raises(TypeError):
            count_even_shifts((5, 3, 1), values)
        with pytest.raises(TypeError):
            count_even_shifts((5, 3, 1), [1], values)
