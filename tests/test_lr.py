"""Littlewood-Richardson coefficients and Schur products.

The package has two independent engines (a skew-tableau counter and a
strip-chain product expander).  This file checks both against a third,
deliberately naive enumeration that tries every assignment of entries
to skew cells and filters by the tableau axioms.  Slow, but it is the
definition, so it anchors everything else.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from foulkes import clear_caches, formulas
from foulkes.expansions import SchurExpansion, total_dimension
from foulkes.formulas import phi_one_column, phi_one_row
from foulkes.lr import _product_terms, _shape, lr_coefficient, schur_multiply
from foulkes.partitions import conjugate, generate_partitions, irreducible_dimension


def brute_lr(lam, mu, nu):
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    padded_mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam) or any(m > l for m, l in zip(padded_mu, lam)):
        return 0
    cells = [
        (i, j) for i, row in enumerate(lam) for j in range(padded_mu[i], row)
    ]
    if not cells:
        return 1 if not nu else 0
    if not nu:
        return 0
    k = len(nu)
    count = 0
    for assignment in itertools.product(range(1, k + 1), repeat=len(cells)):
        grid = dict(zip(cells, assignment))
        tally = Counter(assignment)
        if [tally.get(e, 0) for e in range(1, k + 1)] != list(nu):
            continue
        if any(
            grid[(i, j)] > grid[(i, j + 1)] for (i, j) in cells if (i, j + 1) in grid
        ):
            continue
        if any(
            grid[(i, j)] >= grid[(i + 1, j)] for (i, j) in cells if (i + 1, j) in grid
        ):
            continue
        word = []
        for i, row in enumerate(lam):
            word.extend(
                grid[(i, j)] for j in range(row - 1, padded_mu[i] - 1, -1)
            )
        seen = [0] * (k + 1)
        for e in word:
            seen[e] += 1
            if e > 1 and seen[e] > seen[e - 1]:
                break
        else:
            count += 1
    return count


def chain_product_terms(a, b):
    """s_a * s_b by walking every chain of strips depth-first, one chain
    at a time, with no merging: the reference for the merged levels of
    _product_terms, in its (shapes, coefficients) format."""
    if not b:
        return (a,), (1,)
    counts = {}
    last = len(b) - 1

    def place(entry, shape, prev):
        # prev holds the (row, cells) pairs of the previous strip.
        need = b[entry]
        nrows = len(shape)
        rows = [0]
        caps = [need]
        for r in range(1, nrows + 1):
            gap = shape[r - 1] - (shape[r] if r < nrows else 0)
            if gap:
                rows.append(r)
                caps.append(gap)
        # room[i]: cells the addable rows from i on can take together
        room = [0] * (len(rows) + 1)
        for i in range(len(rows) - 1, 0, -1):
            room[i] = room[i + 1] + caps[i]
        # lattice[i]: most cells this strip may hold through row rows[i]
        if entry:
            lattice = []
            above = j = 0
            for r in rows:
                while j < len(prev) and prev[j][0] < r:
                    above += prev[j][1]
                    j += 1
                lattice.append(min(above, need))
        else:
            lattice = [need] * len(rows)
        new = list(shape) + [0]
        strip = []

        def fill(i, remaining, placed):
            if not remaining:
                shape2 = tuple(new) if new[-1] else tuple(new[:-1])
                if entry == last:
                    counts[shape2] = counts.get(shape2, 0) + 1
                else:
                    place(entry + 1, shape2, tuple(strip))
                return
            cap = min(lattice[i] - placed, caps[i])
            low = max(remaining - room[i + 1], 0)
            r = rows[i]
            for s in range(cap, low - 1, -1):
                if s:
                    new[r] += s
                    strip.append((r, s))
                    fill(i + 1, remaining - s, placed + s)
                    new[r] -= s
                    strip.pop()
                else:
                    fill(i + 1, remaining, placed)

        fill(0, need, 0)

    place(0, a, ())
    order = sorted(counts, reverse=True)
    return tuple(order), tuple(counts[lam] for lam in order)


class TestAgainstBruteForce:
    def test_frozen_values(self):
        assert brute_lr((3, 2, 1), (2, 1), (2, 1)) == 2
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
        assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
        assert lr_coefficient((2, 2, 1, 1), (2, 1), (2, 1)) == 1

    @pytest.mark.parametrize("n", range(0, 6))
    def test_exhaustive_small(self, n):
        for lam in generate_partitions(n):
            for a in range(0, n + 1):
                for mu in generate_partitions(a):
                    for nu in generate_partitions(n - a):
                        assert lr_coefficient(lam, mu, nu) == brute_lr(lam, mu, nu), (
                            lam,
                            mu,
                            nu,
                        )


class TestEnginesAgree:
    @pytest.mark.parametrize("total", range(0, 12))
    def test_product_terms_match_coefficient_engine(self, total):
        for a in range(0, total + 1):
            for mu in generate_partitions(a):
                for nu in generate_partitions(total - a):
                    terms = dict(zip(*_product_terms(((mu, 1),), nu)))
                    for lam in generate_partitions(total):
                        assert terms.get(lam, 0) == lr_coefficient(lam, mu, nu), (
                            lam,
                            mu,
                            nu,
                        )


class TestMergedChains:
    """_product_terms merges the chains that reach the same state; the
    depth-first walk that counts every chain on its own must agree."""

    def test_matches_chain_walk_on_factor_product_pairs(self):
        base = {"h": phi_one_row, "e": phi_one_column}
        pairs = {
            (mu, nu)
            for kind in ("hh", "ee", "he")
            for a in range(11)
            for b in range(11 - a)
            for mu in base[kind[0]](a).support()
            for nu in base[kind[1]](b).support()
        }
        for mu, nu in sorted(pairs):
            for a, b in ((mu, nu), (nu, mu)):
                assert _product_terms(((a, 1),), b) == chain_product_terms(a, b), (
                    a,
                    b,
                )


class TestCompactMemo:
    """_product_terms stores each product as parallel tuples: shapes
    shared through _shape, and int coefficients."""

    def test_shapes_are_shared_and_ordered(self):
        f, g = phi_one_row(4), phi_one_column(3)
        product = schur_multiply(f, g)
        for mu in f.support():
            for nu in g.support():
                for a, b in ((mu, nu), (nu, mu)):
                    shapes, coefficients = _product_terms(((a, 1),), b)
                    assert len(shapes) == len(coefficients)
                    assert shapes == tuple(sorted(set(shapes), reverse=True))
                    assert all(type(c) is int for c in coefficients)
                    assert all(lam is _shape(lam) for lam in shapes)
        # an equal tuple built elsewhere maps to the shared copy
        lam = product.support()[0]
        assert _shape(tuple(list(lam))) is lam
        # so do the keys of a product and of the factor-product memo
        assert all(lam is _shape(lam) for lam in product._terms)
        he = formulas._factor_product(3, 2, "he")
        assert he and all(lam is _shape(lam) for lam in he._terms)

    def test_memo_bytes_per_term(self):
        # Every group that the factor products with a + b <= 10 need,
        # keyed as schur_multiply passes them.
        clear_caches()
        base = {"h": phi_one_row, "e": phi_one_column}
        kinds = [
            (a, b, kind)
            for kind in ("hh", "ee", "he")
            for a in range(11)
            for b in range(11 - a)
        ]
        keys = sorted(
            {
                key
                for a, b, kind in kinds
                for key in strip_groups(base[kind[0]](a), base[kind[1]](b))
            }
        )
        tracemalloc.start()
        try:
            for key in keys:
                _product_terms(*key)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        terms = sum(len(_product_terms(*key)[0]) for key in keys)
        # about 48 B per term; a fresh tuple per term costs about 155 B
        assert grown / terms < 60, (grown, terms)
        # the groups are exactly what the factor products look up
        misses = _product_terms.cache_info().misses
        for a, b, kind in kinds:
            formulas._factor_product(a, b, kind)
        info = _product_terms.cache_info()
        assert (info.misses, info.currsize) == (misses, len(keys))


def strip_groups(f, g):
    """The (sources, strips) keys of _product_terms that f * g needs:
    per pair the factor with fewer rows makes the strips (ties to the
    one that sorts lower), and the pairs with one strip shape sum their
    weights per source, dropping the sources whose weights cancel."""
    groups = {}
    for mu, cf in f.items():
        for nu, cg in g.items():
            if (len(nu), nu) <= (len(mu), mu):
                source, strips = mu, nu
            else:
                source, strips = nu, mu
            group = groups.setdefault(strips, Counter())
            group[source] += cf * cg
    return [
        (tuple(sorted(((a, w) for a, w in group.items() if w), reverse=True)), strips)
        for strips, group in groups.items()
        if any(group.values())
    ]


@st.composite
def weighted_groups(draw):
    """Up to six distinct sources of one size with int weights in
    -3..3 (zero excluded), sorted as a group key, and a strip shape b,
    with |source| + |b| <= 10."""
    n = draw(st.integers(0, 10))
    b = draw(st.sampled_from(list(generate_partitions(draw(st.integers(0, 10 - n))))))
    group = draw(
        st.dictionaries(
            st.sampled_from(list(generate_partitions(n))),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    return tuple(sorted(group.items(), reverse=True)), b


class TestWeightedGroups:
    """One _product_terms call sums w * s_a * s_b over a whole group of
    weighted sources a; it must equal the sum of the one-source chain
    walks, and the coefficient engine, term by term."""

    @given(weighted_groups())
    def test_matches_weighted_sum_of_chain_walks(self, key):
        sources, b = key
        shapes, coefficients = _product_terms(sources, b)
        assert shapes == tuple(sorted(set(shapes), reverse=True))
        assert all(type(c) is int and c for c in coefficients)
        assert all(lam is _shape(lam) for lam in shapes)
        expected = Counter()
        for a, w in sources:
            for lam, c in zip(*chain_product_terms(a, b)):
                expected[lam] += w * c
        got = dict(zip(shapes, coefficients))
        assert got == {lam: c for lam, c in expected.items() if c}
        total = sum(sources[0][0]) + sum(b)
        for lam in generate_partitions(total):
            assert got.get(lam, 0) == sum(
                w * lr_coefficient(lam, a, b) for a, w in sources
            ), (lam, sources, b)

    def test_cancelling_weights_leave_no_zero(self):
        # s_2 s_1 - s_11 s_1 = (s_3 + s_21) - (s_21 + s_111)
        assert _product_terms((((2,), 1), ((1, 1), -1)), (1,)) == (
            ((3,), (1, 1, 1)),
            (1, -1),
        )
        # with no strips the group is its own expansion
        assert _product_terms((((2, 1), 2),), ()) == (((2, 1),), (2,))

    def test_symmetric_pairs_merge_and_zero_sources_drop(self):
        # (s_21 + s_3)(s_21 - s_3): the pairs (21, 3) and (3, 21) both
        # make strips of (3) from (2, 1), with weights -1 and +1
        f = SchurExpansion({(2, 1): 1, (3,): 1})
        g = SchurExpansion({(2, 1): 1, (3,): -1})
        clear_caches()
        product = schur_multiply(f, g)
        info = _product_terms.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert sorted(strip_groups(f, g)) == [
            ((((2, 1), 1),), (2, 1)),
            ((((3,), -1),), (3,)),
        ]
        for key in strip_groups(f, g):
            _product_terms(*key)
        assert _product_terms.cache_info().misses == 2
        expected = {
            lam: lr_coefficient(lam, (2, 1), (2, 1)) - lr_coefficient(lam, (3,), (3,))
            for lam in generate_partitions(6)
        }
        assert dict(product.items()) == {lam: c for lam, c in expected.items() if c}


@st.composite
def deep_weighted_groups(draw):
    """Up to six distinct sources of one size with int weights in -3..3
    (zero excluded), and any strip shape b, with |source| + |b| <= 12;
    sources may have more rows than b."""
    k = draw(st.integers(1, 12))
    b = draw(st.sampled_from(generate_partitions(k)))
    n = draw(st.integers(0, 12 - k))
    group = draw(
        st.dictionaries(
            st.sampled_from(list(generate_partitions(n))),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    return tuple(sorted(group.items(), reverse=True)), b


class TestStripKernel:
    """One loop places every strip cell by cell, on the rows below the
    top cell of the strip before. Every strip shape against every source
    of the size, a = () and deeper ones included, past the
    |a| + |b| <= 11 of TestEnginesAgree."""

    @pytest.mark.parametrize("total", range(1, 14))
    def test_matches_chain_walk(self, total):
        for k in range(1, total + 1):
            for b in generate_partitions(k):
                for a in generate_partitions(total - k):
                    assert _product_terms(((a, 1),), b) == chain_product_terms(
                        a, b
                    ), (a, b)

    def test_matches_coefficient_engine_at_12(self):
        lams = generate_partitions(12)
        for k in range(1, 13):
            for b in generate_partitions(k):
                for a in generate_partitions(12 - k):
                    terms = dict(zip(*_product_terms(((a, 1),), b)))
                    for lam in lams:
                        assert terms.get(lam, 0) == lr_coefficient(lam, a, b), (
                            lam,
                            a,
                            b,
                        )

    @given(deep_weighted_groups())
    # first strips of one and two cells, rows 0 and 1 of the sources open
    @example(((((2, 1), 2), ((1, 1, 1), -1)), (1, 1, 1)))
    @example(((((3,), 1), ((2, 1), 3), ((1, 1, 1), -2)), (2, 2, 1)))
    # and strips of three cells over sources of different lengths
    @example(((((3,), -1), ((2, 1), 2)), (3, 3)))
    def test_weighted_groups(self, key):
        sources, b = key
        got = dict(zip(*_product_terms(sources, b)))
        expected = Counter()
        for a, w in sources:
            for lam, c in zip(*chain_product_terms(a, b)):
                expected[lam] += w * c
        assert got == {lam: c for lam, c in expected.items() if c}
        for lam in generate_partitions(sum(sources[0][0]) + sum(b)):
            assert got.get(lam, 0) == sum(
                w * lr_coefficient(lam, a, b) for a, w in sources
            ), (lam, sources, b)

    def test_hand_checked_last_strips(self):
        # s_2 * s_11 = s_31 + s_211: the second strip's cell may not go
        # on row 1, where the first strip's cell is
        assert _product_terms((((2,), 1),), (1, 1)) == (((3, 1), (2, 1, 1)), (1, 1))
        # s_1 * s_22: both cells of the last strip need a row below the
        # second cell of the first, so (3, 2) and (2, 2, 1) only
        assert _product_terms((((1,), 1),), (2, 2)) == (((3, 2), (2, 2, 1)), (1, 1))
        # a first strip of two cells on the empty shape: both on row 0
        assert _product_terms((((), 1),), (2,)) == (((2,),), (1,))
        # strips of three and four cells, each product read off Pieri's
        # rule for the other factor times a one-row Schur function
        assert _product_terms((((), 1),), (3, 3)) == (((3, 3),), (1,))
        assert _product_terms((((2, 1), 1),), (3,)) == (
            ((5, 1), (4, 2), (4, 1, 1), (3, 2, 1)),
            (1, 1, 1, 1),
        )
        assert _product_terms((((2, 2), 1),), (4,)) == (
            ((6, 2), (5, 2, 1), (4, 2, 2)),
            (1, 1, 1),
        )
        # s_3 * s_33, as s_33 * s_3: one horizontal strip of 3 cells on
        # (3, 3), so none on row 1
        assert _product_terms((((3,), 1),), (3, 3)) == (
            ((6, 3), (5, 3, 1), (4, 3, 2), (3, 3, 3)),
            (1, 1, 1, 1),
        )
        # s_2 * s_44, as s_44 * s_2: one horizontal strip of 2 cells on
        # (4, 4), so none on row 1
        assert _product_terms((((2,), 1),), (4, 4)) == (
            ((6, 4), (5, 4, 1), (4, 4, 2)),
            (1, 1, 1),
        )


class TestOperandOrder:
    """schur_multiply hands _product_terms the factor with fewer rows as
    the strip side; the product must not depend on the order given."""

    def test_swap_matches_coefficient_engine(self):
        # factors whose terms have different row counts in both directions
        f, g = phi_one_row(4), phi_one_column(6)
        expected = SchurExpansion(
            {
                lam: sum(
                    cf * cg * lr_coefficient(lam, mu, nu)
                    for mu, cf in f.items()
                    for nu, cg in g.items()
                )
                for lam in generate_partitions(20)
            }
        )
        assert schur_multiply(f, g) == schur_multiply(g, f) == expected

    def test_swapped_product_reuses_memo(self):
        f = SchurExpansion({(3, 1, 1): 1, (3, 2): 2})
        g = SchurExpansion({(4, 2): 1, (5, 1): -1})
        first = schur_multiply(f, g)
        misses = _product_terms.cache_info().misses
        assert schur_multiply(g, f) == first
        assert _product_terms.cache_info().misses == misses


class TestPieri:
    def test_row_times_row(self):
        product = schur_multiply(
            SchurExpansion({(4,): 1}), SchurExpansion({(4,): 1})
        )
        assert dict(product.items()) == {
            (8,): 1,
            (7, 1): 1,
            (6, 2): 1,
            (5, 3): 1,
            (4, 4): 1,
        }

    def test_hand_checked_square(self):
        product = schur_multiply(
            SchurExpansion({(2, 1): 1}), SchurExpansion({(2, 1): 1})
        )
        assert dict(product.items()) == {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        }

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_one_row_factor_adds_horizontal_strips(self, n, k):
        for mu in generate_partitions(n):
            product = schur_multiply(
                SchurExpansion({mu: 1}), SchurExpansion({(k,): 1})
            )
            expected = set()
            for lam in generate_partitions(n + k):
                padded = tuple(mu) + (0,) * (len(lam) - len(mu))
                if len(mu) > len(lam):
                    continue
                if any(m > l for m, l in zip(padded, lam)):
                    continue
                # horizontal strip: at most one new cell per column
                conj_l, conj_m = conjugate(lam), conjugate(mu)
                padded_cm = tuple(conj_m) + (0,) * (len(conj_l) - len(conj_m))
                if all(c - d <= 1 for c, d in zip(conj_l, padded_cm)):
                    expected.add(lam)
            assert set(product.support()) == expected, (mu, k)
            assert all(m == 1 for _, m in product.items())

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_one_column_factor_adds_vertical_strips(self, n, k):
        for mu in generate_partitions(n):
            product = schur_multiply(
                SchurExpansion({mu: 1}), SchurExpansion({(1,) * k: 1})
            )
            column = schur_multiply(
                SchurExpansion({conjugate(mu): 1}), SchurExpansion({(k,): 1})
            )
            mirrored = {conjugate(lam) for lam in column.support()}
            assert set(product.support()) == mirrored, (mu, k)


class TestSymmetries:
    @pytest.mark.parametrize("total", range(0, 9))
    def test_factor_swap(self, total):
        for a in range(0, total + 1):
            for mu in generate_partitions(a):
                for nu in generate_partitions(total - a):
                    assert _product_terms(((mu, 1),), nu) == _product_terms(
                        ((nu, 1),), mu
                    )

    @pytest.mark.parametrize("total", range(0, 8))
    def test_conjugation(self, total):
        for a in range(0, total + 1):
            for mu in generate_partitions(a):
                for nu in generate_partitions(total - a):
                    for lam in generate_partitions(total):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            conjugate(lam), conjugate(mu), conjugate(nu)
                        )

    @pytest.mark.parametrize("total", range(1, 8))
    def test_dimension_identity(self, total):
        for a in range(0, total + 1):
            for mu in generate_partitions(a):
                for nu in generate_partitions(total - a):
                    product = schur_multiply(
                        SchurExpansion({mu: 1}), SchurExpansion({nu: 1})
                    )
                    expected = (
                        math.comb(total, a)
                        * irreducible_dimension(mu)
                        * irreducible_dimension(nu)
                    )
                    assert total_dimension(product) == expected

    def test_associativity_samples(self):
        shapes = [(2, 1), (3,), (1, 1), (2, 2)]
        for a, b, c in itertools.combinations(shapes, 3):
            fa = SchurExpansion({a: 1})
            fb = SchurExpansion({b: 1})
            fc = SchurExpansion({c: 1})
            assert schur_multiply(schur_multiply(fa, fb), fc) == schur_multiply(
                fa, schur_multiply(fb, fc)
            )

    def test_bilinearity(self):
        f = SchurExpansion({(2, 1): 2, (3,): 1})
        g = SchurExpansion({(3,): 1, (1, 1, 1): -1})
        h = SchurExpansion({(2,): 1})
        assert schur_multiply(f + g, h) == schur_multiply(f, h) + schur_multiply(g, h)

    def test_identity_element(self):
        one = SchurExpansion({(): 1})
        f = SchurExpansion({(3, 1): 2})
        assert schur_multiply(one, f) == f
        assert schur_multiply(f, one) == f

    def test_zero_annihilates(self):
        assert not schur_multiply(SchurExpansion(), SchurExpansion({(2,): 1}))


class TestCoefficientEdgeCases:
    def test_size_mismatch_is_zero(self):
        assert lr_coefficient((3, 1), (2,), (3,)) == 0

    def test_non_containment_is_zero(self):
        assert lr_coefficient((2, 2), (3,), (1,)) == 0

    def test_empty_inner(self):
        assert lr_coefficient((3, 1), (3, 1), ()) == 1
        assert lr_coefficient((3, 1), (), (3, 1)) == 1

    def test_long_row_needs_no_deep_recursion(self):
        # 1500 cells to fill, more than the default recursion limit
        assert lr_coefficient((3000,), (1500,), (1500,)) == 1
        assert lr_coefficient((1500, 1500), (1500,), (1500,)) == 1
