"""Expansion containers, symmetric-group characters, basis changes."""

import math
import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from foulkes import expansions, formulas
from foulkes.errors import (
    DegreeMismatchError,
    InvalidShapeError,
    NonIntegerCoefficientError,
    ResourceBoundError,
    UnsupportedShapeError,
)
from foulkes.expansions import (
    PowerSumExpansion,
    SchurExpansion,
    _add_strips,
    _class_sums,
    _position,
    mn_character,
    omega_schur,
    powersum_to_schur,
    schur_to_powersum,
    total_dimension,
)
from foulkes.formulas import (
    decompose,
    phi_hook,
    phi_two_column,
    phi_two_row,
    table_multiplicity,
)
from foulkes.lr import lr_coefficient, schur_multiply
from foulkes.oracle import oracle_plethysm_s2
from foulkes.partitions import (
    centralizer_order,
    conjugate,
    generate_partitions,
    irreducible_dimension,
)
from test_partitions import conjugate_by_rows

# Character tables of S3 and S4, rows and columns both in canonical
# (reverse-lexicographic) order.  These match the standard printed
# tables: row (n) is trivial, row (1^n) is sign, and the value at the
# identity column (1^n) is the dimension.
S3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [-1, 0, 2],
    (1, 1, 1): [1, -1, 1],
}
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [-1, 0, -1, 1, 3],
    (2, 2): [0, -1, 2, 0, 2],
    (2, 1, 1): [1, 0, -1, -1, 3],
    (1, 1, 1, 1): [-1, 1, 1, -1, 1],
}


@cache
def removal_character(lam, mu):
    """Reference chi^lam_mu: the Murnaghan-Nakayama rule run backwards,
    removing a mu[0]-cell border strip from lam on beta numbers and
    recursing on mu[1:]. Shares no code with the package's column
    memo, which adds strips instead."""
    if not mu:
        return 1
    k = mu[0]
    ell = len(lam)
    betas = tuple(lam[i] + ell - 1 - i for i in range(ell))
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(
            v - (ell - 1 - j) for j, v in enumerate(new) if v - (ell - 1 - j) > 0
        )
        term = removal_character(new_lam, mu[1:])
        total += -term if height % 2 else term
    return total


def _sorted_bead_strips(rho, k):
    """Reference for _add_strips: move each bead up by k, re-sort the
    whole bead set, and count the beads jumped one by one. Returns the
    positions of sign +1, then those of sign -1, as _add_strips does."""
    ell = len(rho) + k
    betas = [part + ell - 1 - i for i, part in enumerate(rho + (0,) * k)]
    bset = set(betas)
    position = _position(sum(rho) + k)
    out = []
    for b in betas:
        top = b + k
        if top in bset:
            continue
        jumped = sum(1 for c in betas if b < c < top)
        new = sorted((bset - {b}) | {top}, reverse=True)
        lam = tuple(v - (ell - 1 - j) for j, v in enumerate(new) if v > ell - 1 - j)
        out.append((position[lam], jumped % 2))
    return tuple(i for i, odd in out if not odd), tuple(i for i, odd in out if odd)


def partitions_of(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.sampled_from(list(generate_partitions(n)))
    )


class TestSchurExpansion:
    def test_merges_and_prunes(self):
        f = SchurExpansion([((2, 1), 1), ((2, 1), 2), ((3,), 0)])
        assert dict(f.items()) == {(2, 1): 3}
        assert (3,) not in f
        assert f[(3,)] == 0

    def test_rejects_mixed_degree(self):
        with pytest.raises(DegreeMismatchError):
            SchurExpansion({(2,): 1, (3,): 1})

    def test_mixed_degree_message_is_short(self):
        # a few thousand distinct sizes, each echoed in full before
        terms = {(k,): 1 for k in range(1, 3001)}
        with pytest.raises(DegreeMismatchError) as info:
            SchurExpansion(terms)
        shown = ",".join(map(str, range(1, 3001)))[:40] + "..."
        assert str(info.value) == f"mixed degrees {shown}"

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SchurExpansion({(2,): 1.5})

    def test_rejects_non_integer_parts(self):
        # (2.5,) was once truncated to the key (2,)
        with pytest.raises(ValueError):
            SchurExpansion({(2.5,): 1})

    def test_items_canonical_order(self):
        f = SchurExpansion({(2, 2): 1, (4,): 2, (3, 1): 1})
        assert list(f.items()) == [((4,), 2), ((3, 1), 1), ((2, 2), 1)]

    def test_arithmetic(self):
        f = SchurExpansion({(2,): 1})
        g = SchurExpansion({(1, 1): 3})
        assert dict((f + g).items()) == {(2,): 1, (1, 1): 3}
        assert not (f - f)
        assert dict((-f).items()) == {(2,): -1}
        assert dict((2 * f).items()) == {(2,): 2}
        assert dict((f * -1).items()) == {(2,): -1}
        assert f + g == g + f

    def test_add_rejects_mixed_degree(self):
        with pytest.raises(DegreeMismatchError):
            SchurExpansion({(2,): 1}) + SchurExpansion({(3,): 1})

    def test_sub_rejects_mixed_degree(self):
        with pytest.raises(DegreeMismatchError):
            SchurExpansion({(2,): 1}) - SchurExpansion({(3,): 1})

    def test_rejects_non_partition_key(self):
        with pytest.raises(ValueError):
            SchurExpansion({(1, 2): 1})

    def test_zero_behaviour(self):
        zero = SchurExpansion()
        assert len(zero) == 0
        assert not zero
        assert zero.degree is None
        assert zero + SchurExpansion({(2,): 1}) == SchurExpansion({(2,): 1})
        assert SchurExpansion({(2,): 1}).degree == 2

    def test_equality_ignores_construction_order(self):
        a = SchurExpansion([((3, 1), 1), ((2, 2), 1)])
        b = SchurExpansion([((2, 2), 1), ((3, 1), 1)])
        assert a == b
        assert a != SchurExpansion({(3, 1): 1})


def schur_dicts(n):
    return st.dictionaries(
        st.sampled_from(list(generate_partitions(n))), st.integers(-3, 3), max_size=6
    )


class TestTrustedArithmetic:
    """+, -, unary -, scaling and omega_schur skip revalidation; each
    must still equal the validating constructor on the same dict."""

    @given(
        st.integers(0, 6).flatmap(lambda n: st.tuples(schur_dicts(n), schur_dicts(n))),
        st.integers(-3, 3),
    )
    def test_matches_validating_constructor(self, dicts, k):
        da, db = dicts
        a, b = SchurExpansion(da), SchurExpansion(db)
        keys = set(da) | set(db)
        cases = [
            (a + b, {lam: da.get(lam, 0) + db.get(lam, 0) for lam in keys}),
            (a - b, {lam: da.get(lam, 0) - db.get(lam, 0) for lam in keys}),
            (-a, {lam: -c for lam, c in da.items()}),
            (k * a, {lam: k * c for lam, c in da.items()}),
            (a * k, {lam: k * c for lam, c in da.items()}),
            (omega_schur(a), {conjugate(lam): c for lam, c in da.items()}),
        ]
        for got, expected in cases:
            want = SchurExpansion(expected)
            assert got == want
            assert got.items() == want.items()
            assert got.degree == want.degree

    def test_cancelling_sum_leaves_no_zero_key(self):
        f = SchurExpansion({(2,): 1, (1, 1): 2})
        g = SchurExpansion({(2,): -1, (1, 1): 1})
        assert dict((f + g).items()) == {(1, 1): 3}
        assert (2,) not in f + g
        assert len(f - f) == 0 and (f - f) == SchurExpansion()
        assert len(f + (-f)) == 0
        assert len(0 * f) == 0


class TestTrustedOwnership:
    """_trusted keeps the dict it is given, so every path through it
    must hand over a dict of its own: the result shares its terms with
    no operand and holds no zero, and the operands and memos read the
    same afterwards."""

    @staticmethod
    def check(result, *operands):
        assert all(result._terms is not f._terms for f in operands)
        assert all(result._terms.values())

    def test_schur_arithmetic(self):
        f = SchurExpansion({(2,): 1, (1, 1): 2})
        g = SchurExpansion({(2,): -1, (1, 1): 1})
        zero = SchurExpansion()
        self.check(f + g, f, g)
        self.check(f - g, f, g)
        self.check(f - f, f)
        self.check(f + zero, f, zero)
        self.check(zero - f, f, zero)
        self.check(-f, f)
        self.check(3 * f, f)
        self.check(f * 1, f)
        self.check(0 * f, f)
        self.check(omega_schur(f), f)
        assert f - f == SchurExpansion() and len(f + g) == 1
        assert f == SchurExpansion({(2,): 1, (1, 1): 2})
        assert g == SchurExpansion({(2,): -1, (1, 1): 1})

    def test_powersum_arithmetic(self):
        p = PowerSumExpansion({(2,): 1, (1, 1): Fraction(1, 2)})
        q = PowerSumExpansion({(2,): -1})
        self.check(p + q, p, q)
        self.check(p - p, p)
        self.check(-p, p)
        self.check(p * Fraction(2, 3), p)
        self.check(p * 1, p)
        self.check(p * p, p)
        self.check(p * q, p, q)
        assert p == PowerSumExpansion({(2,): 1, (1, 1): Fraction(1, 2)})
        assert q == PowerSumExpansion({(2,): -1})

    def test_schur_multiply_with_cancelling_weights(self):
        # (s_2 - s_11)(s_2 + s_11): the cross pairs make one group whose
        # weights cancel, and s_22 cancels between s_2^2 and s_11^2
        f = SchurExpansion({(2,): 1, (1, 1): -1})
        g = SchurExpansion({(2,): 1, (1, 1): 1})
        product = schur_multiply(f, g)
        self.check(product, f, g)
        assert product == SchurExpansion(
            {(4,): 1, (3, 1): 1, (2, 1, 1): -1, (1, 1, 1, 1): -1}
        )
        # s_21 (s_2 - s_11): the groups of strips (2) and (1, 1) cancel
        # on (3, 2), (3, 1, 1) and (2, 2, 1)
        h = SchurExpansion({(2, 1): 1})
        product = schur_multiply(h, f)
        expected = {
            lam: lr_coefficient(lam, (2, 1), (2,)) - lr_coefficient(lam, (2, 1), (1, 1))
            for lam in generate_partitions(5)
        }
        self.check(product, h, f)
        assert dict(product.items()) == {lam: c for lam, c in expected.items() if c}
        assert product == SchurExpansion({(4, 1): 1, (2, 1, 1, 1): -1})
        assert f == SchurExpansion({(2,): 1, (1, 1): -1})
        unit = SchurExpansion({(): 1})
        self.check(schur_multiply(h, unit), h, unit)

    def test_basis_changes(self):
        f = schur_to_powersum((2, 1))
        g = schur_to_powersum((2, 1))
        self.check(f, g)
        back = powersum_to_schur(f)
        self.check(back, f)
        assert back == SchurExpansion({(2, 1): 1})
        self.check(powersum_to_schur(f - g), f, g)
        assert f == g == schur_to_powersum((2, 1))

    @pytest.mark.parametrize(
        "nu, method",
        [
            ((4,), "two-row"),
            ((3, 2), "auto"),
            ((1, 1, 1, 1), "two-column"),
            ((2, 2, 1), "auto"),
            ((3, 1, 1), "auto"),
            ((3, 1, 1), "hook-second"),
        ],
    )
    def test_decompose(self, nu, method):
        n = sum(nu)
        factors = [
            formulas._factor_product(a, n - a, kind)
            for a in range(n + 1)
            for kind in ("hh", "ee", "he")
        ]
        before = [dict(f._terms) for f in factors]
        s2, _ = decompose(nu, method)
        e2, _ = decompose(nu, method, "e2")
        self.check(s2, *factors)
        self.check(e2, s2, *factors)
        assert [f._terms for f in factors] == before

    @pytest.mark.parametrize("nu", [(3, 3), (2, 2, 2), (4, 1, 1), (5,), (1,) * 5])
    def test_memo_values_stay_put(self, nu):
        first, method = decompose(nu)
        terms = dict(first._terms)
        e2, _ = decompose(nu, inner="e2")
        again, _ = decompose(nu)
        assert first == again and first._terms == terms
        assert e2 == omega_schur(again)
        assert decompose(nu, inner="e2")[0] == e2


class TestPowerSumExpansion:
    def test_coerces_to_fraction(self):
        f = PowerSumExpansion({(2,): 1})
        assert f[(2,)] == Fraction(1)
        assert isinstance(f[(2,)], Fraction)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            PowerSumExpansion({(2,): 0.5})

    @pytest.mark.parametrize("value", ["1/2", " 7 ", "3", Decimal("0.1")], ids=repr)
    def test_rejects_str_and_decimal(self, value):
        with pytest.raises(TypeError, match="must be exact"):
            PowerSumExpansion({(2,): value})
        with pytest.raises(TypeError, match="must be exact"):
            PowerSumExpansion({(2,): 1}) * value
        with pytest.raises(TypeError, match="must be exact"):
            value * PowerSumExpansion({(2,): 1})

    def test_accepts_int_bool_and_fraction(self):
        f = PowerSumExpansion({(2,): True, (1, 1): Fraction(1, 2)})
        assert f.items() == (((2,), Fraction(1)), ((1, 1), Fraction(1, 2)))
        assert all(type(c) is Fraction for _, c in f.items())
        assert (f * 2)[(2,)] == 2 and (f * False) == PowerSumExpansion()
        assert (Fraction(1, 3) * f)[(1, 1)] == Fraction(1, 6)

    def test_product_concatenates_indices(self):
        f = PowerSumExpansion({(2,): Fraction(1, 2)})
        g = PowerSumExpansion({(2, 1): Fraction(1, 3), (3,): 1})
        product = f * g
        assert product[(2, 2, 1)] == Fraction(1, 6)
        assert product[(3, 2)] == Fraction(1, 2)
        assert len(product) == 2

    def test_scalar_product(self):
        f = PowerSumExpansion({(2, 1): Fraction(1, 3)})
        assert (3 * f)[(2, 1)] == 1
        assert (f * Fraction(1, 2))[(2, 1)] == Fraction(1, 6)

    def test_product_is_commutative_on_samples(self):
        f = PowerSumExpansion({(2,): Fraction(1, 2), (1, 1): Fraction(-1, 2)})
        g = PowerSumExpansion({(3,): Fraction(1, 3), (1, 1, 1): Fraction(1, 6)})
        assert f * g == g * f

    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.dictionaries(
                st.sampled_from(list(generate_partitions(n))),
                st.fractions(-3, 3, max_denominator=6),
                max_size=6,
            )
        )
    )
    def test_trusted_matches_validating_constructor(self, d):
        # _trusted keeps the dict it is given, so it gets a copy of d
        got, want = PowerSumExpansion._trusted(dict(d)), PowerSumExpansion(d)
        assert got == want
        assert got.items() == want.items()
        assert got.degree == want.degree


def powersum_dicts(n):
    return st.dictionaries(
        st.sampled_from(list(generate_partitions(n))),
        st.fractions(-3, 3, max_denominator=6),
        max_size=6,
    )


class TestTrustedPowerSumArithmetic:
    """Power-sum +, -, unary -, scaling and the product skip
    revalidation; each must still equal the validating constructor on
    the same plain dict arithmetic."""

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(powersum_dicts(n), powersum_dicts(n))
        ),
        st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
    )
    def test_matches_validating_constructor(self, dicts, k):
        df, dg = dicts
        f, g = PowerSumExpansion(df), PowerSumExpansion(dg)
        keys = set(df) | set(dg)
        product = [
            (tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
            for m1, c1 in df.items()
            for m2, c2 in dg.items()
        ]
        cases = [
            (f + g, {mu: df.get(mu, 0) + dg.get(mu, 0) for mu in keys}),
            (f - g, {mu: df.get(mu, 0) - dg.get(mu, 0) for mu in keys}),
            (-f, {mu: -c for mu, c in df.items()}),
            (k * f, {mu: k * c for mu, c in df.items()}),
            (f * k, {mu: k * c for mu, c in df.items()}),
            (f * g, product),
        ]
        for got, expected in cases:
            want = PowerSumExpansion(expected)
            assert got == want
            assert got.items() == want.items()
            assert got.degree == want.degree
            assert all(isinstance(c, Fraction) for _, c in got.items())


BASES = [
    pytest.param(SchurExpansion, int, id="schur"),
    pytest.param(PowerSumExpansion, Fraction, id="powersum"),
]


@pytest.mark.parametrize("cls, coefficient_type", BASES)
class TestExpansionContract:
    """What both bases promise alike, and what keeps them apart."""

    @staticmethod
    def sample(cls):
        return cls({(2, 2): 1, (4,): 2, (3, 1): -1})

    def test_missing_coefficient_type(self, cls, coefficient_type):
        missing = self.sample(cls)[(1, 1, 1, 1)]
        assert missing == 0
        assert type(missing) is coefficient_type
        assert type(cls()[(2,)]) is coefficient_type

    def test_cross_type_equality_is_false(self, cls, coefficient_type):
        other = PowerSumExpansion if cls is SchurExpansion else SchurExpansion
        f, g = cls({(2,): 1}), other({(2,): 1})
        assert not f == g and f != g
        assert not g == f and g != f
        assert cls() != other()

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_cross_type_arithmetic_raises(self, cls, coefficient_type, op):
        other = PowerSumExpansion if cls is SchurExpansion else SchurExpansion
        f, g = cls({(2,): 1}), other({(2,): 1})
        with pytest.raises(TypeError):
            op(f, g)
        with pytest.raises(TypeError):
            op(g, f)

    def test_unhashable(self, cls, coefficient_type):
        with pytest.raises(TypeError):
            hash(self.sample(cls))
        with pytest.raises(TypeError):
            hash(cls())

    def test_float_scaling_rejected(self, cls, coefficient_type):
        f = self.sample(cls)
        with pytest.raises(TypeError):
            f * 2.0
        with pytest.raises(TypeError):
            0.5 * f

    def test_repr_names_class(self, cls, coefficient_type):
        assert repr(self.sample(cls)).startswith(cls.__name__ + "(")
        assert repr(cls()) == cls.__name__ + "({})"

    def test_trusted_returns_own_class(self, cls, coefficient_type):
        f = cls._trusted({(2, 1): coefficient_type(3), (3,): coefficient_type(0)})
        assert type(f) is cls
        assert f == cls({(2, 1): 3})
        assert type(-f) is cls and type(f + f) is cls and type(2 * f) is cls

    def test_zero_scaling_and_self_difference_are_empty(self, cls, coefficient_type):
        f = self.sample(cls)
        for zero in (0 * f, f * 0, f - f, f + (-f)):
            assert len(zero) == 0
            assert not zero
            assert zero == cls()
            assert zero.degree is None

    def test_membership_and_iteration_canonical(self, cls, coefficient_type):
        f = self.sample(cls)
        assert list(f) == [(4,), (3, 1), (2, 2)]
        assert list(f) == [lam for lam, _ in f.items()]
        assert tuple(f) == f.support()
        assert (3, 1) in f and [3, 1] in f
        assert (2, 1, 1) not in f
        assert (5,) not in f
        assert all(type(c) is coefficient_type for _, c in f.items())


class TestMnCharacter:
    @pytest.mark.parametrize("lam,row", S3_TABLE.items())
    def test_s3_table(self, lam, row):
        cols = list(generate_partitions(3))
        assert [mn_character(lam, mu) for mu in cols] == row

    @pytest.mark.parametrize("lam,row", S4_TABLE.items())
    def test_s4_table(self, lam, row):
        cols = list(generate_partitions(4))
        assert [mn_character(lam, mu) for mu in cols] == row

    def test_rejects_non_integer_parts(self):
        # once truncated to mn_character((1, 1), (2,)) == -1
        with pytest.raises(ValueError):
            mn_character((1.5, 1.2), (2,))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_trivial_and_sign_rows(self, n):
        for mu in generate_partitions(n):
            assert mn_character((n,), mu) == 1
            parity = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == parity

    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_column_is_dimension(self, n):
        for lam in generate_partitions(n):
            assert mn_character(lam, (1,) * n) == irreducible_dimension(lam)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_orthogonality(self, n):
        fact = math.factorial(n)
        parts = list(generate_partitions(n))
        for lam in parts:
            for rho in parts:
                inner = sum(
                    mn_character(lam, mu)
                    * mn_character(rho, mu)
                    * (fact // centralizer_order(mu))
                    for mu in parts
                )
                assert inner == (fact if lam == rho else 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugation_twists_by_sign(self, n):
        for lam in generate_partitions(n):
            for mu in generate_partitions(n):
                sign = (-1) ** (n - len(mu))
                assert mn_character(conjugate(lam), mu) == sign * mn_character(lam, mu)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_strip_removal(self, n):
        parts = generate_partitions(n)
        for mu in parts:
            got = [mn_character(lam, mu) for lam in parts]
            assert got == [removal_character(lam, mu) for lam in parts], mu

    def test_size_mismatch(self):
        with pytest.raises(DegreeMismatchError) as info:
            mn_character((2, 1), (2, 2))
        assert str(info.value) == "|2,1| != |2,2|"

    @pytest.mark.parametrize("mu", [(20,), (10, 10), (5, 5, 5, 5)])
    def test_sparse_column(self, mu):
        # most lam of 20 have value 0 on these cycle types, so most
        # lookups fall between two of the column's stored positions
        parts = generate_partitions(20)
        assert 2 * len(expansions._chi(mu)[0]) < len(parts)
        got = [mn_character(lam, mu) for lam in parts]
        assert got == [removal_character(lam, mu) for lam in parts]
        assert mn_character((18, 1, 1), (20,)) == 1
        assert mn_character((10, 10), (20,)) == 0


# Each error echoes at most the first 40 characters of a partition.
ONES = "1," * 20 + "..."
THREE_TWOS = "3," + "2," * 19 + "..."


class TestLongPartitionMessages:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: mn_character((1,) * 10**5, (2,)),
                DegreeMismatchError,
                f"|{ONES}| != |2|",
            ),
            (
                lambda: mn_character((), (1,) * 10**5),
                DegreeMismatchError,
                f"|-| != |{ONES}|",
            ),
            (
                lambda: decompose((3,) + (2,) * 10**5, method="base"),
                UnsupportedShapeError,
                f"base form needs a single row or column, got {THREE_TWOS}",
            ),
            (
                lambda: decompose((3,) + (2,) * 10**5),
                UnsupportedShapeError,
                f"{THREE_TWOS} has more than two rows, more than two columns, "
                "and is not a hook",
            ),
            (
                lambda: decompose((3,) + (2,) * 10**5, method="two-row"),
                UnsupportedShapeError,
                f"{THREE_TWOS} has more than two rows",
            ),
        ],
    )
    def test_message_is_short(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message and len(message) < 200


# 10**5000 as an error line shows it: str() refuses more than 4300 digits
BIG = "1" + "0" * 39 + "..."


class TestHugeIntMessages:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: oracle_plethysm_s2((10**5000,)),
                ResourceBoundError,
                f"|nu| = {BIG} exceeds the oracle cap 9; "
                "raise max_weight (or FOULKES_MAX_N for the CLI) to override",
            ),
            (
                lambda: oracle_plethysm_s2((), max_weight=-(10**5000)),
                InvalidShapeError,
                "max_weight must be at least 0, got -1" + "0" * 38 + "...",
            ),
            (
                lambda: SchurExpansion({(10**5000,): 1}) + SchurExpansion({(1,): 1}),
                DegreeMismatchError,
                f"cannot combine degrees {BIG} and 1",
            ),
            (
                lambda: phi_two_row(10**5000, -1),
                InvalidShapeError,
                f"need 0 <= 2r <= n, got n={BIG}, r=-1",
            ),
            (
                lambda: phi_two_column(10**5000, 10**5000),
                InvalidShapeError,
                f"need 0 <= 2r <= n, got n={BIG}, r={BIG}",
            ),
            (
                lambda: phi_hook(10**5000, -1),
                InvalidShapeError,
                f"need 0 <= r <= n-1, got n={BIG}, r=-1",
            ),
            (
                lambda: table_multiplicity((2,), "n-2,2", 10**5000),
                InvalidShapeError,
                "lam must have size 2" + "0" * 39 + "..., got 2",
            ),
        ],
    )
    def test_message_is_clipped(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message and len(message) < 200


class TestAddStrips:
    @pytest.mark.parametrize("total", range(1, 15))
    def test_matches_sorted_beads(self, total):
        for k in range(1, total + 1):
            for rho in generate_partitions(total - k):
                assert _add_strips(rho, k) == _sorted_bead_strips(rho, k), (rho, k)

    def test_table_rows_fill_in_any_order(self):
        rng = random.Random(1409)
        expansions._strip_table.cache_clear()
        for m in range(11):
            shapes = generate_partitions(m)
            for k in range(1, 11):
                table = expansions._strip_table(m, k)
                assert table == [None] * len(shapes)
                order = list(range(len(shapes)))
                rng.shuffle(order)
                column = [0] * len(generate_partitions(m + k))
                # a zero entry adds nothing and leaves its row unfilled
                expansions._add_strip_layer([(order[0], 0)], m, k, column)
                assert table[order[0]] is None and not any(column)
                for j in order:
                    expansions._add_strip_layer([(j, 1)], m, k, column)
                want = [_sorted_bead_strips(rho, k) for rho in shapes]
                assert table == want, (m, k)
                expected = [0] * len(column)
                for plus, minus in want:
                    for i in plus:
                        expected[i] += 1
                    for i in minus:
                        expected[i] -= 1
                assert column == expected, (m, k)

    def test_examples(self):
        # (2, 1) plus a 3-cell strip; (2, 2, 2) moves the bead of the
        # first empty row above the bead of row 1, which grows by a cell.
        shapes = generate_partitions(6)
        plus, minus = _add_strips((2, 1), 3)
        assert [shapes[i] for i in plus] == [(5, 1), (2, 1, 1, 1, 1)]
        assert [shapes[i] for i in minus] == [(3, 3), (2, 2, 2)]
        shapes = generate_partitions(3)
        plus, minus = _add_strips((), 3)
        assert [shapes[i] for i in plus] == [(3,), (1, 1, 1)]
        assert [shapes[i] for i in minus] == [(2, 1)]


class TestBasisChange:
    def test_schur_21_in_powersums(self):
        f = schur_to_powersum((2, 1))
        assert f[(1, 1, 1)] == Fraction(1, 3)
        assert f[(3,)] == Fraction(-1, 3)
        assert f[(2, 1)] == 0
        assert len(f) == 2

    @pytest.mark.parametrize("n", range(0, 7))
    def test_roundtrip(self, n):
        for nu in generate_partitions(n):
            back = powersum_to_schur(schur_to_powersum(nu))
            assert back == SchurExpansion({nu: 1}), nu

    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_coefficient_is_dim_over_factorial(self, n):
        for nu in generate_partitions(n):
            f = schur_to_powersum(nu)
            expected = Fraction(irreducible_dimension(nu), math.factorial(n))
            assert f[(1,) * n] == expected

    def test_non_schur_positive_input_rejected(self):
        with pytest.raises(NonIntegerCoefficientError):
            powersum_to_schur(PowerSumExpansion({(1,): Fraction(1, 2)}))

    def test_power_sum_itself_expands_integrally(self):
        # p_2 = s_2 - s_(1,1)
        f = powersum_to_schur(PowerSumExpansion({(2,): 1}))
        assert dict(f.items()) == {(2,): 1, (1, 1): -1}

    def test_degree_mixed_input_rejected(self):
        with pytest.raises(DegreeMismatchError):
            PowerSumExpansion({(2,): 1, (1,): 1})


def fraction_dot_products(f):
    """Reference basis change: one Fraction dot product per s_lam."""
    if not f:
        return {}
    out = {}
    for lam in generate_partitions(f.degree):
        total = sum(
            (c * removal_character(lam, mu) for mu, c in f.items()), Fraction(0)
        )
        if total:
            out[lam] = total
    return out


@st.composite
def integer_powersum_combinations(draw):
    """An integer combination of power sums of degree 0-12 that draws up
    to three cycle types for every largest part."""
    n = draw(st.integers(0, 12))
    by_largest = {}
    for mu in generate_partitions(n):
        by_largest.setdefault(mu[:1], []).append(mu)
    combo = {}
    for group in by_largest.values():
        for mu in draw(st.lists(st.sampled_from(group), max_size=3)):
            combo[mu] = draw(st.integers(-4, 4))
    return combo


class TestIntegerBasisChange:
    """powersum_to_schur scales by one common denominator and divides
    once; it must agree with Fraction dot products exactly."""

    @given(integer_powersum_combinations())
    def test_grouped_by_largest_part(self, combo):
        f = PowerSumExpansion(combo)
        got = powersum_to_schur(f)
        assert dict(got.items()) == fraction_dot_products(f)
        assert all(type(c) is int for _, c in got.items())

    @given(integer_powersum_combinations())
    def test_int_valued_input_matches_fraction_valued(self, combo):
        # the oracle passes int coefficients, built through _trusted,
        # which keeps the dict it is given: so a copy of combo
        got = powersum_to_schur(PowerSumExpansion._trusted(dict(combo)))
        assert got.items() == powersum_to_schur(PowerSumExpansion(combo)).items()
        assert all(type(c) is int for _, c in got.items())

    @pytest.mark.parametrize("n", range(0, 8))
    def test_class_sums_are_schur_over_factorial(self, n):
        denom = math.factorial(n)
        for nu in generate_partitions(n):
            sums = _class_sums(nu)
            got = powersum_to_schur(PowerSumExpansion._trusted(dict(sums)))
            assert got == SchurExpansion({nu: denom}), nu
            assert schur_to_powersum(nu) == PowerSumExpansion(
                {mu: Fraction(c, denom) for mu, c in sums}
            )

    @given(st.integers(0, 8).flatmap(schur_dicts))
    def test_recovers_integer_combination(self, combo):
        f = PowerSumExpansion()
        for nu, k in combo.items():
            f = f + k * schur_to_powersum(nu)
        got = powersum_to_schur(f)
        assert got == SchurExpansion(combo)
        assert dict(got.items()) == fraction_dot_products(f)
        assert all(type(c) is int for _, c in got.items())

    @pytest.mark.parametrize(
        "terms,message",
        [
            ({(1,): Fraction(1, 2)}, "coefficient of s_(1,) is 1/2"),
            ({(2,): Fraction(1, 4), (1, 1): Fraction(1, 4)}, "coefficient of s_(2,) is 1/2"),
            ({(2,): Fraction(1, 3), (1, 1): Fraction(2, 3)}, "coefficient of s_(1, 1) is 1/3"),
            ({(3,): Fraction(-2, 3)}, "coefficient of s_(3,) is -2/3"),
            # p_(1,1) / 2 = (s_(2) + s_(1,1)) / 2: both remainders are non-zero
            # and the first in reverse-lex order is reported.
            ({(1, 1): Fraction(1, 2)}, "coefficient of s_(2,) is 1/2"),
        ],
    )
    def test_remainder_message(self, terms, message):
        with pytest.raises(NonIntegerCoefficientError) as info:
            powersum_to_schur(PowerSumExpansion(terms))
        assert str(info.value) == message


class TestOmega:
    def test_conjugates_labels(self):
        f = SchurExpansion({(3, 1): 2, (2, 2): 1})
        assert dict(omega_schur(f).items()) == {(2, 2): 1, (2, 1, 1): 2}

    @given(partitions_of(10))
    def test_involution(self, lam):
        f = SchurExpansion({lam: 1})
        assert omega_schur(omega_schur(f)) == f

    def test_zero(self):
        assert omega_schur(SchurExpansion()) == SchurExpansion()

    @pytest.mark.parametrize("inner", ["s2", "e2"])
    def test_whole_expansions_match_row_conjugates(self, inner):
        # every covered nu of size <= 8: the memoized conjugates equal
        # the row-by-row reference, and omega undoes itself
        for n in range(9):
            for nu in generate_partitions(n):
                if len(nu) > 2 and nu[0] > 2 and nu[1] > 1:
                    continue
                f, _ = decompose(nu, inner=inner)
                want = {conjugate_by_rows(lam): c for lam, c in f.items()}
                assert dict(omega_schur(f).items()) == want, nu
                assert omega_schur(omega_schur(f)) == f, nu

    def test_memo_holds_only_the_shapes_met(self):
        f = oracle_plethysm_s2((3, 2, 1))
        expansions._conjugate_memo.cache_clear()
        omega_schur(f)
        assert expansions._conjugate_memo.cache_info().currsize == len(f)


class TestTotalDimension:
    def test_examples(self):
        assert total_dimension(SchurExpansion()) == 0
        assert total_dimension(SchurExpansion({(2, 1): 2})) == 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_regular_character(self, n):
        f = SchurExpansion(
            {lam: irreducible_dimension(lam) for lam in generate_partitions(n)}
        )
        assert total_dimension(f) == math.factorial(n)


@pytest.mark.parametrize(
    "fn, args",
    [
        (omega_schur, (PowerSumExpansion({(2,): Fraction(1, 2)}),)),
        (total_dimension, (PowerSumExpansion({(2,): Fraction(1, 2)}),)),
        (powersum_to_schur, (SchurExpansion({(2,): 1}),)),
        (powersum_to_schur, (SchurExpansion(),)),
        (schur_multiply, (SchurExpansion({(1,): 1}), PowerSumExpansion({(1,): 1}))),
        (schur_multiply, (PowerSumExpansion({(1,): 1}), SchurExpansion({(1,): 1}))),
    ],
    ids=[
        "omega_schur",
        "total_dimension",
        "powersum_to_schur",
        "powersum_to_schur-empty",
        "schur_multiply-second",
        "schur_multiply-first",
    ],
)
def test_wrong_basis_raises(fn, args):
    # read in the other basis, the coefficients would give wrong values
    with pytest.raises(TypeError, match="^expected a "):
        fn(*args)
