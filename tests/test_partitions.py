"""Partition primitives.

Expected values here are either tiny enough to verify by hand or are
checked against an independent recomputation inside the test (the
pentagonal-number recurrence for partition counts, brute-force tableau
enumeration for dimensions).
"""

import math
import time
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, strategies as st

from foulkes.errors import (
    EmptyIncludeSetError,
    PartitionParseError,
    RepeatedPartsError,
    ResourceBoundError,
)
from foulkes import partitions
from foulkes.formulas import table_multiplicity
from foulkes.partitions import (
    _MAX_PARSED_SIZE,
    _clip_int,
    _conjugate,
    _parse_digits,
    as_partition,
    centralizer_order,
    conjugate,
    count_even_shifts,
    distinct_part_count,
    double,
    double_hook,
    drop_count,
    format_partition,
    generate_distinct_partitions,
    generate_partitions,
    irreducible_dimension,
    parse_partition,
    repeated_part_count,
)


def partitions_of(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.sampled_from(list(generate_partitions(n)))
    )


@cache
def partition_count(n):
    # Euler's pentagonal recurrence, independent of the generator.
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def brute_syt_count(lam):
    # Grow standard tableaux cell by cell; slow but definitionally direct.
    def go(rows):
        if rows == lam:
            return 1
        total = 0
        for i in range(len(lam)):
            if rows[i] < lam[i] and (i == 0 or rows[i - 1] > rows[i]):
                total += go(rows[:i] + (rows[i] + 1,) + rows[i + 1 :])
        return total

    return go((0,) * len(lam))



def _diagonal_hook_lengths(lam):
    """Hook lengths of the leading diagonal cells (i, i), top left first."""
    conj = conjugate(lam)
    d = sum(1 for i in range(len(lam)) if lam[i] > i)
    return tuple(lam[i] + conj[i] - 2 * i - 1 for i in range(d))

class TestGeneration:
    def test_exhaustive_n4(self):
        assert list(generate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero_and_negative(self):
        assert list(generate_partitions(0)) == [()]
        with pytest.raises(ValueError):
            generate_partitions(-1)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_counts_match_pentagonal_recurrence(self, n):
        assert len(list(generate_partitions(n))) == partition_count(n)

    def test_count_p8(self):
        assert partition_count(8) == 22

    @pytest.mark.parametrize("n", range(0, 11))
    def test_canonical_descending_order(self, n):
        parts = list(generate_partitions(n))
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert lam == as_partition(lam)
            assert sum(lam) == n

    def test_distinct_subset(self):
        for n in range(0, 11):
            everything = set(generate_partitions(n))
            strict = list(generate_distinct_partitions(n))
            assert set(strict) <= everything
            for lam in strict:
                assert len(set(lam)) == len(lam)
        assert len(list(generate_distinct_partitions(10))) == 10

    def test_distinct_n5(self):
        assert list(generate_distinct_partitions(5)) == [(5,), (4, 1), (3, 2)]


class TestDoubling:
    def test_double_examples(self):
        assert double(()) == ()
        assert double((3, 1)) == (6, 2)

    def test_double_hook_examples(self):
        assert double_hook(()) == ()
        assert double_hook((1,)) == (2,)
        assert double_hook((2,)) == (3, 1)
        assert double_hook((2, 1)) == (3, 3)
        assert double_hook((3, 1)) == (4, 3, 1)
        assert double_hook((5, 2, 1)) == (6, 4, 4, 1, 1)

    def test_double_hook_rejects_repeats(self):
        with pytest.raises(RepeatedPartsError):
            double_hook((2, 2))

    @pytest.mark.parametrize("n", range(0, 21))
    def test_double_hook_properties(self, n):
        # double_hook(alpha) is (alpha_1, ..., alpha_k | alpha_1 - 1, ...,
        # alpha_k - 1) in Frobenius coordinates: k diagonal cells, and
        # diagonal cell i has arm alpha_i and leg alpha_i - 1
        seen = set()
        for alpha in generate_distinct_partitions(n):
            mu = double_hook(alpha)
            assert sum(mu) == 2 * n
            assert mu not in seen
            seen.add(mu)
            assert _diagonal_hook_lengths(mu) == double(alpha)
            conj = conjugate(mu)
            k = len(alpha)
            assert sum(1 for i, p in enumerate(mu) if p > i) == k, alpha
            assert [mu[i] - i - 1 for i in range(k)] == list(alpha), alpha
            assert [conj[i] - i - 1 for i in range(k)] == [a - 1 for a in alpha], alpha

    @pytest.mark.parametrize("n", range(0, 8))
    def test_double_hook_image_characterization(self, n):
        # mu = double_hook(alpha) for some strict alpha exactly when every
        # diagonal cell of mu has arm one longer than leg.  (Having all
        # diagonal hook lengths even is necessary but NOT sufficient: (4)
        # has the single even hook 4 yet is not in the image.)
        image = {double_hook(a) for a in generate_distinct_partitions(n)}
        for mu in generate_partitions(2 * n):
            conj = conjugate(mu)
            d = sum(1 for i, p in enumerate(mu) if p > i)
            balanced = all(mu[i] - i == (conj[i] - i) + 1 for i in range(d))
            assert (mu in image) == balanced, mu

    def test_even_hooks_do_not_characterize_image(self):
        hooks = _diagonal_hook_lengths((4,))
        assert all(h % 2 == 0 for h in hooks)
        assert (4,) not in {double_hook(a) for a in generate_distinct_partitions(2)}


def conjugate_by_rows(lam):
    """The conjugate built row by row from the bottom: row i of lam,
    i >= 1, adds lam[i-1] - lam[i] columns of height i."""
    conj = []
    for i in range(len(lam), 0, -1):
        conj.extend([i] * (lam[i - 1] - (lam[i] if i < len(lam) else 0)))
    return tuple(conj)


class TestConjugate:
    def test_examples(self):
        assert conjugate(()) == ()
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate((1, 1, 1)) == (3,)

    @given(partitions_of(14))
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    def test_column_walk_matches_row_walk(self):
        # _conjugate walks the column heights; the row-by-row
        # construction is the reference, on every partition of n <= 20
        for n in range(21):
            for lam in generate_partitions(n):
                assert _conjugate(lam) == conjugate_by_rows(lam), lam
                assert _conjugate(_conjugate(lam)) == lam, lam

    def test_diagonal_hooks(self):
        assert _diagonal_hook_lengths((4, 3, 1)) == (6, 2)
        assert _diagonal_hook_lengths((6, 4, 4, 1, 1)) == (10, 4, 2)
        assert _diagonal_hook_lengths(()) == ()

    @given(partitions_of(14))
    def test_diagonal_hooks_sum_to_size(self, lam):
        assert sum(_diagonal_hook_lengths(lam)) == sum(lam)


class TestStatistics:
    def test_distinct_part_count(self):
        assert distinct_part_count(()) == 0
        assert distinct_part_count((4, 4, 2, 1, 1)) == 3

    def test_repeated_part_count(self):
        assert repeated_part_count(()) == 0
        assert repeated_part_count((4, 4, 2, 1, 1)) == 2
        assert repeated_part_count((3, 2, 1)) == 0

    def test_drop_count(self):
        # A part "drops" when it exceeds its successor by at least 2,
        # with an implicit trailing zero.
        assert drop_count(()) == 0
        assert drop_count((3,)) == 1
        assert drop_count((2, 1)) == 0
        assert drop_count((5, 3, 1)) == 2
        assert drop_count((1,)) == 0
        assert drop_count((2, 2, 2)) == 1

    @given(partitions_of(14))
    def test_drop_count_bounds(self, lam):
        assert 0 <= drop_count(lam) <= len(set(lam))

    def test_count_even_shifts_examples(self):
        # For (6,2) with include {4}, only the shift k=1 lands on 6 while
        # keeping 2+2k=4 out of the part set.
        assert count_even_shifts((6, 2), (4,), (2,)) == 1
        assert count_even_shifts((5, 3), (3,), (2,)) == 2
        assert count_even_shifts((5, 3), (2,), (1,)) == 0
        assert count_even_shifts((5, 3), (1, 2), ()) == 0
        assert count_even_shifts((), (1,), ()) == 0

    def test_count_even_shifts_repeats_count_once(self):
        assert count_even_shifts((3, 3, 3), (3,), ()) == 1

    def test_count_even_shifts_rejects_empty_include(self):
        with pytest.raises(EmptyIncludeSetError):
            count_even_shifts((3, 1), (), (2,))

    @given(
        partitions_of(12),
        st.sets(st.integers(-4, 8), min_size=1, max_size=3),
        st.sets(st.integers(-4, 8), max_size=3),
    )
    def test_count_even_shifts_matches_direct_scan(self, lam, include, exclude):
        # every shift 2k that can move min(include) onto a part, k up to
        # (max(lam) + 4) / 2 <= max(lam) + 2
        values = set(lam)
        top = max(values, default=0)
        direct = sum(
            1
            for k in range(top + 3)
            if all(x + 2 * k in values for x in include)
            and not any(y + 2 * k in values for y in exclude)
        )
        assert count_even_shifts(lam, tuple(include), tuple(exclude)) == direct

    def test_count_even_shifts_cost_is_in_the_distinct_parts(self):
        # a scan over every shift up to the largest part never ends on
        # these; one test per distinct part returns at once
        start = time.perf_counter()
        assert count_even_shifts((10**18,), {2}) == 1
        assert count_even_shifts((10**18, 10**18 - 2, 4, 2), {2, 4}, {6}) == 2
        assert table_multiplicity((2 * 10**18,), "n-2,2", 10**18) == 0
        assert time.perf_counter() - start < 1


class TestDimension:
    def test_small_cases(self):
        assert irreducible_dimension(()) == 1
        assert irreducible_dimension((1,)) == 1
        assert irreducible_dimension((2, 1)) == 2
        assert irreducible_dimension((4, 3, 1)) == 70

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force_tableaux(self, n):
        for lam in generate_partitions(n):
            assert irreducible_dimension(lam) == brute_syt_count(lam)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sum_of_squares(self, n):
        total = sum(irreducible_dimension(lam) ** 2 for lam in generate_partitions(n))
        assert total == math.factorial(n)

    @given(partitions_of(12))
    def test_conjugation_invariance(self, lam):
        assert irreducible_dimension(lam) == irreducible_dimension(conjugate(lam))

    @pytest.mark.parametrize(
        "lams",
        [
            *(generate_partitions(n) for n in range(15)),
            [(30,), (1,) * 30, tuple(range(9, 0, -1))],
        ],
        ids=[*(f"n={n}" for n in range(15)), "row-column-staircase"],
    )
    def test_first_column_hooks_match_the_cell_hook_product(self, lams):
        # _dimension reads only the first column's hook lengths; the
        # reference multiplies the hook length of every cell
        def by_cells(lam):
            conj = _conjugate(lam)
            denom = 1
            for i, row in enumerate(lam):
                for j in range(row):
                    denom *= row - j + conj[j] - i - 1
            return math.factorial(sum(lam)) // denom

        for lam in lams:
            assert partitions._dimension(lam) == by_cells(lam), lam


class TestCentralizer:
    def test_examples(self):
        assert centralizer_order(()) == 1
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((3,)) == 3
        assert centralizer_order((2, 1, 1)) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_equation(self, n):
        fact = math.factorial(n)
        assert sum(fact // centralizer_order(mu) for mu in generate_partitions(n)) == fact


class TestParsing:
    def test_parse_forms(self):
        assert parse_partition("3,1") == (3, 1)
        assert parse_partition("4^2,1") == (4, 4, 1)
        assert parse_partition("2^3") == (2, 2, 2)
        assert parse_partition("") == ()
        assert parse_partition("-") == ()
        assert parse_partition(" 3 , 1 ") == (3, 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "1,3", "0", "-2", "a", "3,,1", "2^0", "2^-1", "1.5", "3 1",
            # int() would take these: underscores, a sign, non-ASCII digits
            "1_1", "3^0_2", "+3", "2^+2", "\u0663,1", "\uff12,1",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(PartitionParseError):
            parse_partition(bad)

    @pytest.mark.parametrize(
        "text", ["2^999999999", "1,1^999999999", str(_MAX_PARSED_SIZE + 1)]
    )
    def test_size_checked_before_expansion(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBoundError, match="exceeds the parse limit"):
                parse_partition(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("length", [4000, 4301, 5000, 20000])
    def test_digit_strings_of_any_length(self, length):
        # int() refuses more than 4300 digits by default; the parser reads
        # every length the same way and echoes 40 characters at most
        nines = "9" * length
        assert _parse_digits(nines) == 10**length - 1
        assert parse_partition("0" * length + "3,2") == (3, 2)
        assert parse_partition(f"2^{'0' * length}2") == (2, 2)
        with pytest.raises(ResourceBoundError) as exc:
            parse_partition(nines)
        assert str(exc.value) == (
            f"partition size {'9' * 40}... exceeds the parse limit {_MAX_PARSED_SIZE}"
        )
        with pytest.raises(PartitionParseError) as exc:
            parse_partition(f"3,{nines}x")
        assert str(exc.value) == f"bad partition token '{'9' * 40}...'"

    @pytest.mark.parametrize(
        "digits",
        ["0", "7", "9" * 40, "1" + "0" * 40, str(2**3000), "1234567890" * 600],
    )
    def test_clipped_numbers_keep_their_first_digits(self, digits):
        shown = digits if len(digits) <= 40 else digits[:40] + "..."
        assert _clip_int(_parse_digits(digits)) == shown
        signed = "-" + digits
        shown = signed if len(signed) <= 40 else signed[:40] + "..."
        if digits != "0":
            assert _clip_int(-_parse_digits(digits)) == shown

    def test_order_checked_on_the_tokens(self, monkeypatch):
        # the order check reads the tokens as written: it neither
        # expands a repeat first nor hands the parts to as_partition
        def refuse(parts):
            raise AssertionError("parse_partition called as_partition")

        monkeypatch.setattr(partitions, "as_partition", refuse)
        assert parse_partition("3,2^2,1") == (3, 2, 2, 1)
        tracemalloc.start()
        try:
            with pytest.raises(PartitionParseError) as exc:
                parse_partition("1^999998,2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "bad partition token '2': exceeds the part before it"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "text, token",
        [
            ("1,2", "2"),
            ("3,1,2,5", "2"),
            ("2^3, 3^2", "3^2"),
            (f"1,{'0' * 60}2", "0" * 40 + "..."),
        ],
    )
    def test_order_error_names_the_first_token_out_of_order(self, text, token):
        with pytest.raises(PartitionParseError) as exc:
            parse_partition(text)
        assert str(exc.value) == (
            f"bad partition token {token!r}: exceeds the part before it"
        )

    def test_size_limit_is_inclusive(self):
        half = _MAX_PARSED_SIZE // 2
        assert parse_partition(str(_MAX_PARSED_SIZE)) == (_MAX_PARSED_SIZE,)
        assert parse_partition(f"{half}^2") == (half, half)

    def test_format(self):
        assert format_partition(()) == "-"
        assert format_partition((4, 4, 1)) == "4,4,1"

    @given(partitions_of(12))
    def test_roundtrip(self, lam):
        assert parse_partition(format_partition(lam)) == lam


class TestValidation:
    def test_as_partition_rejects(self):
        # one check, and one message, for a part below 1 and for a rise
        cases = [((0,), "0"), ((2, 0), "2,0"), ((1, 2), "1,2"), ((3, -1), "3,-1")]
        for parts, shown in cases:
            with pytest.raises(ValueError) as exc:
                as_partition(parts)
            assert str(exc.value) == (
                f"parts must be positive and weakly decreasing, got {shown}"
            )

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: as_partition((1,) * 10**6 + (2,)),
                ValueError,
                "parts must be positive and weakly decreasing, got "
                + "1," * 20
                + "...",
            ),
            (
                # str() refuses ints of more than 4300 digits by default
                lambda: as_partition((5, -(10**5000))),
                ValueError,
                "parts must be positive and weakly decreasing, got 5,-1"
                + "0" * 36
                + "...",
            ),
            (
                lambda: double_hook((1,) * 10**5),
                RepeatedPartsError,
                "parts must be distinct, got " + "1," * 20 + "...",
            ),
        ],
    )
    def test_long_input_gets_a_short_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == message and len(message) < 200

    @pytest.mark.parametrize("parts", [(2.5, 1.9), (2.0,), "321", ("3", "1"), (2.5,)])
    def test_as_partition_rejects_non_integer_parts(self, parts):
        # parts were once truncated or parsed by int(): (2.5, 1.9) gave
        # (2, 1) and "321" gave (3, 2, 1)
        with pytest.raises(ValueError):
            as_partition(parts)

    def test_as_partition_accepts_integer_types(self):
        assert as_partition([3, True]) == (3, 1)
        assert as_partition(range(3, 0, -1)) == (3, 2, 1)
