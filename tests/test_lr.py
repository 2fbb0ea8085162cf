"""Littlewood-Richardson coefficients and Schur products.

The package has two independent engines (a skew-tableau counter and a
strip-chain product expander).  This file checks both against a third,
deliberately naive enumeration that tries every assignment of entries
to skew cells and filters by the tableau axioms.  Slow, but it is the
definition, so it anchors everything else.

The strip kernel is read directly, through group_terms, and checked
once per property: against the coefficient engine, against a
chain-by-chain walk and on hand-checked values. Only TestCompactMemo
reads the memo lr._product_terms that schur_multiply puts in front of
it.
"""

import itertools
import math
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from foulkes import clear_caches, formulas, lr
from foulkes._chains import product_terms
from foulkes.expansions import SchurExpansion, total_dimension
from foulkes.formulas import phi_one_column, phi_one_row
from foulkes.lr import lr_coefficient, schur_multiply
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
    the strip kernel, in its (shapes, coefficients) format."""
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




def group_terms(sources, b):
    """The sum of w * s_a * s_b over the (a, w) in sources, from one
    call of the strip kernel on a product of the one strip shape b."""
    shapes, coefficients = product_terms(((sources, b),))
    return tuple(shapes), coefficients


def weighted_chain_terms(sources, b):
    """The sum of w * s_a * s_b over the (a, w) in sources, as a dict of
    its non-zero terms, from one chain walk per source."""
    expected = Counter()
    for a, w in sources:
        for lam, c in zip(*chain_product_terms(a, b)):
            expected[lam] += w * c
    return {lam: c for lam, c in expected.items() if c}


def sized_pairs(total):
    """Every pair (a, b) of partitions with |a| + |b| = total, either
    of them possibly empty."""
    return [
        (a, b)
        for k in range(total + 1)
        for b in generate_partitions(k)
        for a in generate_partitions(total - k)
    ]


# every factor product h_a[s_2] h_b[s_2], e_a[s_2] e_b[s_2] and
# h_a[s_2] e_b[s_2] with a + b <= 10, as formulas._factor_product's key
FACTOR_PRODUCTS = [
    (a, b, kind) for kind in ("hh", "ee", "he") for a in range(11) for b in range(11 - a)
]


def factors_of(a, b, kind):
    """The two factors of the factor product (a, b, kind)."""
    base = {"h": phi_one_row, "e": phi_one_column}
    return base[kind[0]](a), base[kind[1]](b)


def factor_product_pairs():
    """Every pair of terms the factor products multiply, in both
    orders."""
    pairs = set()
    for f, g in itertools.starmap(factors_of, FACTOR_PRODUCTS):
        for mu in f.support():
            for nu in g.support():
                pairs |= {(mu, nu), (nu, mu)}
    return sorted(pairs)


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
    @pytest.mark.parametrize("total", range(0, 13))
    def test_product_terms_match_coefficient_engine(self, total):
        lams = generate_partitions(total)
        for a, b in sized_pairs(total):
            terms = dict(zip(*group_terms(((a, 1),), b)))
            for lam in lams:
                assert terms.get(lam, 0) == lr_coefficient(lam, a, b), (lam, a, b)


def product_key(f, g):
    """The key of _product_terms that f * g looks up: per pair the
    factor with fewer rows makes the strips (ties to the one that sorts
    lower), and the pairs with one strip shape form one group that sums
    their weights per source, dropping the sources whose weights
    cancel; the groups are sorted on their strip shape."""
    groups = {}
    for mu, cf in f.items():
        for nu, cg in g.items():
            if (len(nu), nu) <= (len(mu), mu):
                source, strips = mu, nu
            else:
                source, strips = nu, mu
            group = groups.setdefault(strips, Counter())
            group[source] += cf * cg
    return tuple(
        (tuple(sorted(((a, w) for a, w in group.items() if w), reverse=True)), strips)
        for strips, group in sorted(groups.items())
        if any(group.values())
    )


# (s_21 + s_3)(s_21 - s_3): the pairs (21, 3) and (3, 21) both make
# strips of (3) from (2, 1), with weights -1 and +1, so they cancel
SYMMETRIC_PAIRS = (
    SchurExpansion({(2, 1): 1, (3,): 1}),
    SchurExpansion({(2, 1): 1, (3,): -1}),
)


class TestCompactMemo:
    """lr._product_terms memoizes the kernel: one entry per product,
    swapped factors included, stored as parallel tuples of shapes
    shared through lr._shape and int coefficients."""

    def test_shapes_are_shared_and_ordered(self):
        f, g = phi_one_row(4), phi_one_column(3)
        product = schur_multiply(f, g)
        for mu in f.support():
            for nu in g.support():
                for a, b in ((mu, nu), (nu, mu)):
                    shapes, coefficients = lr._product_terms(((((a, 1),), b),))
                    assert (shapes, coefficients) == group_terms(((a, 1),), b)
                    assert all(type(c) is int for c in coefficients)
                    assert all(lam is lr._shape(lam) for lam in shapes)
        # an equal tuple built elsewhere maps to the shared copy
        lam = product.support()[0]
        assert lr._shape(tuple(list(lam))) is lam
        # so do the keys of a product and of the factor-product memo
        assert all(lam is lr._shape(lam) for lam in product._terms)
        he = formulas._factor_product(3, 2, "he")
        assert he and all(lam is lr._shape(lam) for lam in he._terms)

    def test_memo_bytes_per_term(self):
        # Every product key of the factor products, as schur_multiply
        # builds them.
        clear_caches()
        keys = sorted(
            {product_key(*factors_of(*product)) for product in FACTOR_PRODUCTS}
        )
        tracemalloc.start()
        try:
            for key in keys:
                lr._product_terms(key)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        terms = sum(len(lr._product_terms(key)[0]) for key in keys)
        # about 59 B per term; a fresh tuple per term costs about 108 B
        assert grown / terms < 60, (grown, terms)
        # the keys are exactly what the factor products look up
        misses = lr._product_terms.cache_info().misses
        for product in FACTOR_PRODUCTS:
            formulas._factor_product(*product)
        info = lr._product_terms.cache_info()
        assert (info.misses, info.currsize) == (misses, len(keys))

    def test_symmetric_pairs_merge_and_zero_sources_drop(self):
        # the product's one entry has this key (test_one_entry_per_product)
        assert product_key(*SYMMETRIC_PAIRS) == (
            ((((2, 1), 1),), (2, 1)),
            ((((3,), -1),), (3,)),
        )

    @pytest.mark.parametrize(
        "f, g",
        [
            # whose two groups it sums
            SYMMETRIC_PAIRS,
            # three strip shapes, two of whose chains share a tail
            # (TestMergedProducts.test_strip_shapes_sharing_tails)
            (
                SchurExpansion({(4, 2, 2): 2, (3, 2, 1, 1, 1): -1}),
                SchurExpansion({(2, 2, 2): 1, (3, 1, 1, 1): 3}),
            ),
            # each factor makes the strips of some pairs
            (
                SchurExpansion({(3, 1, 1): 1, (3, 2): 2}),
                SchurExpansion({(4, 2): 1, (5, 1): -1}),
            ),
        ],
        ids=["symmetric-pairs", "sharing-tails", "swapped-factors"],
    )
    def test_one_entry_per_product(self, f, g):
        clear_caches()
        product = schur_multiply(f, g)
        assert schur_multiply(g, f) == product
        # one miss in either order, on the key product_key describes
        lr._product_terms(product_key(f, g))
        info = lr._product_terms.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


@st.composite
def weighted_groups(draw):
    """Up to six distinct sources of one size with int weights in -3..3
    (zero excluded), sorted as a group key, and any strip shape b, the
    empty one included, with |source| + |b| <= 12; sources may have
    more rows than b."""
    k = draw(st.integers(0, 12))
    b = draw(st.sampled_from(generate_partitions(k)))
    n = draw(st.integers(0, 12 - k))
    group = draw(
        st.dictionaries(
            st.sampled_from(generate_partitions(n)),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    return tuple(sorted(group.items(), reverse=True)), b


class TestStripKernel:
    """A one-cell strip goes straight onto each row below the top cell
    of the strip before, and one loop places every larger strip cell by
    cell on those rows. Every strip shape against every source of the
    size, a = () and deeper ones included, and every pair the factor
    products multiply, against the chain-by-chain walk; weighted groups
    of sources against both references."""

    @pytest.mark.parametrize("total", [*range(1, 14), "factor-products"])
    def test_matches_chain_walk(self, total):
        if total == "factor-products":
            pairs = factor_product_pairs()
        else:
            pairs = sized_pairs(total)
        for a, b in pairs:
            assert group_terms(((a, 1),), b) == chain_product_terms(a, b), (a, b)

    @given(weighted_groups())
    # first strips of one and two cells, rows 0 and 1 of the sources open
    @example(((((2, 1), 2), ((1, 1, 1), -1)), (1, 1, 1)))
    @example(((((3,), 1), ((2, 1), 3), ((1, 1, 1), -2)), (2, 2, 1)))
    # and strips of three cells over sources of different lengths
    @example(((((3,), -1), ((2, 1), 2)), (3, 3)))
    # one-cell strips placed directly: kept (keep 1) and last (keep 0)
    @example(((((3, 1), 2), ((2, 2), -1), ((2, 1, 1), 3)), (1, 1)))
    @example(((((3,), 1), ((2, 1), -2), ((1, 1, 1), 1)), (2, 1, 1)))
    @example(((((2, 2), 1), ((2, 1, 1), -1), ((1, 1, 1, 1), 2)), (3, 1)))
    # s_2 s_11 - s_11 s_11: the two sources cancel on (2, 1, 1)
    @example(((((2,), 1), ((1, 1), -1)), (1, 1)))
    @example(((((), 1),), (1,)))
    @example(((((), 1),), (1, 1, 1)))
    def test_weighted_groups(self, key):
        sources, b = key
        shapes, coefficients = group_terms(sources, b)
        assert shapes == tuple(sorted(set(shapes), reverse=True))
        assert all(type(c) is int and c for c in coefficients)
        got = dict(zip(shapes, coefficients))
        assert got == weighted_chain_terms(sources, b)
        for lam in generate_partitions(sum(sources[0][0]) + sum(b)):
            assert got.get(lam, 0) == sum(
                w * lr_coefficient(lam, a, b) for a, w in sources
            ), (lam, sources, b)

    @pytest.mark.parametrize("total", range(1, 11))
    def test_one_cell_strips_from_weighted_sources(self, total):
        # every strip shape ending in one-cell strips, against all the
        # sources of the size at once, their weights cycling through
        # -2, 1, 3, -1, 2
        for k in range(1, total + 1):
            for b in generate_partitions(k):
                if b[-1] != 1:
                    continue
                sources = tuple(
                    (a, (-2, 1, 3, -1, 2)[i % 5])
                    for i, a in enumerate(generate_partitions(total - k))
                )
                got = dict(zip(*group_terms(sources, b)))
                assert got == weighted_chain_terms(sources, b), (sources, b)

    @pytest.mark.parametrize(
        "sources, b, terms",
        [
            # s_2 s_1 - s_11 s_1 = (s_3 + s_21) - (s_21 + s_111)
            ((((2,), 1), ((1, 1), -1)), (1,), (((3,), (1, 1, 1)), (1, -1))),
            # with no strips the group is its own expansion
            ((((2, 1), 2),), (), (((2, 1),), (2,))),
            # s_2 * s_11 = s_31 + s_211: the second strip's cell may not go
            # on row 1, where the first strip's cell is
            ((((2,), 1),), (1, 1), (((3, 1), (2, 1, 1)), (1, 1))),
            # s_1 * s_22: both cells of the last strip need a row below the
            # second cell of the first, so (3, 2) and (2, 2, 1) only
            ((((1,), 1),), (2, 2), (((3, 2), (2, 2, 1)), (1, 1))),
            # a first strip of two cells on the empty shape: both on row 0
            ((((), 1),), (2,), (((2,),), (1,))),
            # strips of three and four cells, each product read off Pieri's
            # rule for the other factor times a one-row Schur function
            ((((), 1),), (3, 3), (((3, 3),), (1,))),
            (
                (((2, 1), 1),),
                (3,),
                (((5, 1), (4, 2), (4, 1, 1), (3, 2, 1)), (1, 1, 1, 1)),
            ),
            ((((2, 2), 1),), (4,), (((6, 2), (5, 2, 1), (4, 2, 2)), (1, 1, 1))),
            # s_3 * s_33, as s_33 * s_3: one horizontal strip of 3 cells on
            # (3, 3), so none on row 1
            (
                (((3,), 1),),
                (3, 3),
                (((6, 3), (5, 3, 1), (4, 3, 2), (3, 3, 3)), (1, 1, 1, 1)),
            ),
            # s_2 * s_44, as s_44 * s_2: one horizontal strip of 2 cells on
            # (4, 4), so none on row 1
            ((((2,), 1),), (4, 4), (((6, 4), (5, 4, 1), (4, 4, 2)), (1, 1, 1))),
        ],
    )
    def test_hand_checked_values(self, sources, b, terms):
        assert group_terms(sources, b) == terms


def lr_product(f, g):
    """f * g from lr_coefficient, term by term over every lam."""
    total = (f.degree or 0) + (g.degree or 0)
    return SchurExpansion(
        {
            lam: sum(
                cf * cg * lr_coefficient(lam, mu, nu)
                for mu, cf in f.items()
                for nu, cg in g.items()
            )
            for lam in generate_partitions(total)
        }
    )


@st.composite
def signed_factors(draw):
    """Two expansions of up to four terms with int weights in -3..3
    (zero excluded), of sizes p and q with p + q <= 9. When p == q, g
    may be f with some weights negated, so that the pairs (mu, nu) and
    (nu, mu) of opposite signs cancel in their group."""
    p = draw(st.integers(0, 9))
    q = draw(st.integers(0, 9 - p))

    def terms(n):
        return draw(
            st.dictionaries(
                st.sampled_from(generate_partitions(n)),
                st.integers(-3, 3).filter(bool),
                min_size=1,
                max_size=4,
            )
        )

    f = terms(p)
    if p == q and draw(st.booleans()):
        g = {mu: w * draw(st.sampled_from((-1, 1))) for mu, w in f.items()}
    else:
        g = terms(q)
    return SchurExpansion(f), SchurExpansion(g)


class TestMergedProducts:
    """One kernel call runs every strip group of a product, and
    chains of different strip shapes merge once the strips they still
    have to add coincide; every lam must still get what the coefficient
    engine gives, whichever factor is given first."""

    def test_strip_shapes_sharing_tails(self):
        # groups with strips (2, 2, 2), from (4, 2, 2) and (3, 2, 1, 1, 1),
        # (4, 2, 2), from (3, 1, 1, 1), and (3, 1, 1, 1): after one strip
        # the first two both have (2, 2) to add
        f = SchurExpansion({(4, 2, 2): 2, (3, 2, 1, 1, 1): -1})
        g = SchurExpansion({(2, 2, 2): 1, (3, 1, 1, 1): 3})
        product = schur_multiply(f, g)
        assert [strips for _, strips in product_key(f, g)] == [
            (2, 2, 2),
            (3, 1, 1, 1),
            (4, 2, 2),
        ]
        assert product == lr_product(f, g)
        # and each group on its own sums to the same product
        acc = Counter()
        for sources, strips in product_key(f, g):
            for lam, c in zip(*group_terms(sources, strips)):
                acc[lam] += c
        assert product == SchurExpansion(dict(acc))

    @given(signed_factors())
    # strips from both factors, sources of one, two and three rows
    @example(
        (
            SchurExpansion({(3,): 1, (2, 1): -2, (1, 1, 1): 1}),
            SchurExpansion({(2,): 2, (1, 1): -1}),
        )
    )
    @example(SYMMETRIC_PAIRS)
    # a factor of degree 0 is a group without strips
    @example((SchurExpansion({(): -2}), SchurExpansion({(2, 2): 1, (3, 1): 2})))
    # factors whose terms have different row counts in both directions;
    # lr_product sums 20 coefficients for each of the 627 shapes of 20,
    # about 0.5 s, past hypothesis's default deadline
    @example((phi_one_row(4), phi_one_column(6)))
    @settings(deadline=None)
    def test_signed_products_match_coefficient_engine(self, factors):
        f, g = factors
        product = schur_multiply(f, g)
        assert product == schur_multiply(g, f) == lr_product(f, g)
        assert all(c for _, c in product.items())


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
        for mu, nu in sized_pairs(total):
            assert group_terms(((mu, 1),), nu) == group_terms(((nu, 1),), mu)

    @pytest.mark.parametrize("total", range(0, 8))
    def test_conjugation(self, total):
        for mu, nu in sized_pairs(total):
            for lam in generate_partitions(total):
                assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                    conjugate(lam), conjugate(mu), conjugate(nu)
                )

    @pytest.mark.parametrize("total", range(1, 8))
    def test_dimension_identity(self, total):
        for mu, nu in sized_pairs(total):
            product = schur_multiply(SchurExpansion({mu: 1}), SchurExpansion({nu: 1}))
            expected = (
                math.comb(total, sum(mu))
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

    def test_long_column_in_linear_time(self):
        # a lattice word's letter at position idx is at most idx + 1; a
        # cell that tried every entry up to len(nu) would scan O(len(nu))
        # entries at each backtrack step, quadratic on one column
        start = time.perf_counter()
        assert lr_coefficient((1,) * 40000, (1,) * 20000, (1,) * 20000) == 1
        assert time.perf_counter() - start < 5
