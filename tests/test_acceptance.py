"""Acceptance suite.

Fourteen criteria, every comparison exact with tolerance zero.  Each
test body is timed; criterion 11 aggregates the recorded durations
into the performance envelope, so it must run last (it is defined
last, after criteria 12 to 14, and pytest preserves definition order).
conftest.py prints a per-criterion verdict line at the end of the run.
"""

import collections
import functools
import itertools
import math
import operator
import time
from contextlib import contextmanager

import pytest

from foulkes.expansions import SchurExpansion, omega_schur, total_dimension
from foulkes.formulas import (
    decompose,
    induce_product,
    phi_hook,
    phi_hook_depth1_closed,
    phi_one_column,
    phi_one_row,
    phi_two_column,
    phi_two_one_column_closed,
    phi_two_row,
    table_multiplicity,
)
from foulkes.lr import lr_coefficient, schur_multiply
from foulkes.oracle import oracle_plethysm_e2, oracle_plethysm_s2
from foulkes.partitions import conjugate, generate_partitions, irreducible_dimension

_DURATIONS: list[tuple[int, int, float]] = []


@contextmanager
def _timed(criterion: int, n: int):
    start = time.perf_counter()
    yield
    _DURATIONS.append((criterion, n, time.perf_counter() - start))


def _oracle_s2(nu):
    # Criteria 1-4 run three steps past the oracle's default cap.
    return oracle_plethysm_s2(nu, max_weight=12)


def _expected_total(n, nu):
    return math.factorial(2 * n) // (2**n * math.factorial(n)) * irreducible_dimension(nu)


def _two_row_cases(n):
    return [((n - r, r) if r else (n,), r) for r in range(0, n // 2 + 1)]


def _two_column_cases(n):
    return [((2,) * r + (1,) * (n - 2 * r), r) for r in range(0, n // 2 + 1)]


def _hook_cases(n):
    return [((n - r,) + (1,) * r, r) for r in range(0, n)]


@pytest.mark.parametrize("n", range(1, 13))
def test_criterion_1_base_cases(n):
    with _timed(1, n):
        assert phi_one_row(n) == _oracle_s2((n,))
        assert phi_one_column(n) == _oracle_s2((1,) * n)


@pytest.mark.parametrize("n", range(1, 13))
def test_criterion_2_two_row(n):
    with _timed(2, n):
        for nu, r in _two_row_cases(n):
            assert phi_two_row(n, r) == _oracle_s2(nu), (n, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_criterion_3_two_column(n):
    with _timed(3, n):
        for nu, r in _two_column_cases(n):
            assert phi_two_column(n, r) == _oracle_s2(nu), (n, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_criterion_4_hook(n):
    with _timed(4, n):
        for nu, r in _hook_cases(n):
            reference = _oracle_s2(nu)
            assert phi_hook(n, r, "first") == reference, (n, r, "first")
            assert phi_hook(n, r, "second") == reference, (n, r, "second")


@pytest.mark.parametrize("n", range(2, 13))
def test_criterion_5_closed_corollaries(n):
    with _timed(5, n):
        assert phi_hook_depth1_closed(n) == phi_two_row(n, 1)
        assert phi_two_one_column_closed(n) == phi_two_column(n, 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_criterion_6_table_hook_kind(n):
    with _timed(6, n):
        reference = phi_hook(n, 2, "first")
        for lam in generate_partitions(2 * n):
            assert table_multiplicity(lam, "n-2,1,1", n) == reference[lam], (n, lam)


@pytest.mark.parametrize("n", range(4, 13))
def test_criterion_6_table_row_kind(n):
    with _timed(6, n):
        reference = phi_two_row(n, 2)
        for lam in generate_partitions(2 * n):
            assert table_multiplicity(lam, "n-2,2", n) == reference[lam], (n, lam)


@pytest.mark.parametrize("n", range(1, 12))
def test_criterion_7_omega_duality(n):
    # two steps past the oracle's default cap
    with _timed(7, n):
        for nu in generate_partitions(n):
            s2 = oracle_plethysm_s2(nu, max_weight=11)
            assert omega_schur(s2) == oracle_plethysm_e2(nu, max_weight=11), nu


@pytest.mark.parametrize("n", range(1, 9))
def test_criterion_8_dimension_identity(n):
    with _timed(8, n):
        for nu, r in _two_row_cases(n):
            assert total_dimension(phi_two_row(n, r)) == _expected_total(n, nu)
        for nu, r in _two_column_cases(n):
            assert total_dimension(phi_two_column(n, r)) == _expected_total(n, nu)
        for nu, r in _hook_cases(n):
            assert total_dimension(phi_hook(n, r, "first")) == _expected_total(n, nu)


def test_criterion_8_spot_totals():
    with _timed(8, 4):
        assert total_dimension(phi_two_row(3, 1)) == 30
        assert total_dimension(phi_hook(4, 2, "first")) == 315
        assert total_dimension(phi_two_row(4, 1)) == 315


@pytest.mark.parametrize("n", range(1, 9))
def test_criterion_9_nonnegativity(n):
    with _timed(9, n):
        for _, r in _two_row_cases(n):
            assert all(m > 0 for _, m in phi_two_row(n, r).items())
        for _, r in _two_column_cases(n):
            assert all(m > 0 for _, m in phi_two_column(n, r).items())
        for _, r in _hook_cases(n):
            for variant in ("first", "second"):
                assert all(m > 0 for _, m in phi_hook(n, r, variant).items())
        if n >= 2:
            assert all(m > 0 for _, m in phi_hook_depth1_closed(n).items())
            assert all(m > 0 for _, m in phi_two_one_column_closed(n).items())
        if n >= 3:
            for lam in generate_partitions(2 * n):
                assert table_multiplicity(lam, "n-2,1,1", n) >= 0
        if n >= 4:
            for lam in generate_partitions(2 * n):
                assert table_multiplicity(lam, "n-2,2", n) >= 0


@pytest.mark.parametrize("total", range(2, 7))
def test_criterion_10_induced_products(total):
    with _timed(10, total):
        for a in range(1, total):
            for nu in generate_partitions(a):
                for mu in generate_partitions(total - a):
                    direct = induce_product(
                        oracle_plethysm_s2(nu), oracle_plethysm_s2(mu)
                    )
                    recombined = SchurExpansion()
                    for lam in generate_partitions(total):
                        c = lr_coefficient(lam, nu, mu)
                        if c:
                            recombined = recombined + c * oracle_plethysm_s2(lam)
                    assert direct == recombined, (nu, mu)


def _grow_row(lam, k):
    """lam with k cells added to its first row."""
    return ((lam[0] if lam else 0) + k,) + lam[1:]


def _brion_violations(plethysm, shapes):
    """Brion's monotonicity (Manuscripta Math. 80, 1993): the multiplicity
    of lam + (2) in s_(nu + (1))[s_2] is at least that of lam in
    s_nu[s_2], + adding to the first row. By omega, in s_nu[s_(1,1)]
    the two cells go to the first column instead. plethysm(nu, inner)
    is the decomposition; returns the number of (nu, inner, lam)
    checked and the list of violations."""
    checked, bad = 0, []
    for nu in shapes:
        for inner in ("s2", "e2"):
            small, big = plethysm(nu, inner), plethysm(_grow_row(nu, 1), inner)
            for lam, m in small.items():
                grown = _grow_row(lam, 2) if inner == "s2" else lam + (1, 1)
                checked += 1
                if big[grown] < m:
                    bad.append((nu, inner, lam))
    return checked, bad


def _auto_covered(nu):
    """The shapes decompose's auto method covers: at most two rows, at
    most two columns, or a hook."""
    return len(nu) <= 2 or nu[0] <= 2 or nu[1] <= 1


@pytest.mark.parametrize("n", range(0, 12))
def test_criterion_12_brion_monotonicity_formulas(n):
    # every auto-covered nu whose nu + (1) is covered too, through the
    # closed formulas, so the LR products run up to |nu + (1)| = 12
    with _timed(12, n):
        shapes = [
            nu
            for nu in generate_partitions(n)
            if _auto_covered(nu) and _auto_covered(_grow_row(nu, 1))
        ]
        checked, bad = _brion_violations(
            lambda nu, inner: decompose(nu, inner=inner)[0], shapes
        )
        assert checked and not bad, bad


@pytest.mark.parametrize("n", range(0, 11))
def test_criterion_12_brion_monotonicity_oracle(n):
    # every nu with |nu| <= 10, so the oracle runs up to |nu + (1)| = 11
    oracle = {"s2": oracle_plethysm_s2, "e2": oracle_plethysm_e2}
    with _timed(12, n):
        checked, bad = _brion_violations(
            lambda nu, inner: oracle[inner](nu, max_weight=11), generate_partitions(n)
        )
        assert checked and not bad, bad


# Criterion 13 specialises both sides at x = (1, q, ..., q^(K-1)) and
# compares integer polynomials in q, held as coefficient lists. It reads
# only the formula output, generate_partitions and conjugation: no
# oracle, no Littlewood-Richardson coefficient, no character.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_add(a, b, scale=1):
    """a + scale * b."""
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += scale * c
    return _trim(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


@functools.cache
def _alphabet_series(k, inner, dual, top):
    """h_0..h_top (dual: e_0..e_top) of the alphabet s_2 or e_2 turns
    x = (1, q, ..., q^(k-1)) into: q^(i+j) for i <= j < k (i < j for
    e_2), read off prod 1/(1 - y t) (dual: prod (1 + y t))."""
    series = [[1]] + [[] for _ in range(top)]
    for i in range(k):
        for j in range(i if inner == "s2" else i + 1, k):
            shift = [0] * (i + j)
            # dividing by 1 - y t runs upwards through the new series,
            # multiplying by 1 + y t downwards through the old one
            for d in range(top, 0, -1) if dual else range(1, top + 1):
                series[d] = _poly_add(series[d], shift + series[d - 1])
    return series


def _plethysm_specialised(nu, inner, k):
    """s_nu[s_2] (or s_nu[e_2]) at x = (1, q, ..., q^(k-1)): Jacobi-Trudi
    in the h_d of the alphabet, or its dual in the e_d when nu has more
    rows than columns, with the minors memoized on their columns."""
    dual = len(nu) > (nu[0] if nu else 0)
    rows = conjugate(nu) if dual else nu
    series = _alphabet_series(k, inner, dual, sum(nu))

    @functools.cache
    def minor(cols):
        i = len(rows) - len(cols)
        if i == len(rows):
            return [1]
        total = []
        for sign, col in zip(itertools.cycle((1, -1)), cols):
            d = rows[i] - i + col
            if d >= 0 and series[d]:
                rest = minor(tuple(c for c in cols if c != col))
                total = _poly_add(total, _poly_mul(series[d], rest), sign)
        return total

    return minor(tuple(range(len(rows))))


@functools.cache
def _schur_specialised(lam, k):
    """s_lam(1, q, ..., q^(k-1)) for lam with at most k rows, by the
    q-hook-content formula (Macdonald I.3 Ex. 1): q^n(lam) times the
    product over the cells of (1 - q^(k + content)) / (1 - q^hook)."""
    cols = conjugate(lam)
    tops, bottoms = collections.Counter(), collections.Counter()
    for i, row in enumerate(lam):
        for j in range(row):
            tops[k + j - i] += 1
            bottoms[row - j + cols[j] - i - 1] += 1
    common = tops & bottoms
    poly = [0] * sum(i * row for i, row in enumerate(lam)) + [1]
    for e in (tops - common).elements():
        poly = _poly_add(poly, [0] * e + poly, -1)
    for e in (bottoms - common).elements():
        # divide by 1 - q^e, which must leave no remainder
        for d in range(e, len(poly)):
            poly[d] += poly[d - e]
        assert not any(poly[len(poly) - e :]), (lam, k)
        poly = poly[: len(poly) - e]
    return poly


def check_principal_specialisation(nu, inner):
    """Criterion 13 for one covered nu and one inner, at the smallest K
    with (K+1)^2 > 2|nu|: a lam of 2|nu| with more than K rows has at
    most K columns, so one of the two inners sees it (s_nu[e_2] is omega
    of s_nu[s_2]). CI also runs it on its own at |nu| = 20, with
    PYTHONPATH=src:tests and ``from test_acceptance import ...``."""
    k = math.isqrt(2 * sum(nu))
    right = []
    for lam, mult in decompose(nu, inner=inner)[0].items():
        if len(lam) <= k:
            right = _poly_add(right, _schur_specialised(lam, k), mult)
    left = _plethysm_specialised(nu, inner, k)
    assert left == right, (nu, inner, k)
    # s_nu of that many letters is nonzero exactly when nu has no more
    # rows than letters
    letters = k * (k + 1) // 2 if inner == "s2" else k * (k - 1) // 2
    assert bool(left) == (len(nu) <= letters), (nu, inner, k)


@pytest.mark.parametrize("n", range(0, 14))
def test_criterion_13_principal_specialisation(n):
    # both inners of every auto-covered nu
    with _timed(13, n):
        for nu in generate_partitions(n):
            if _auto_covered(nu):
                for inner in ("s2", "e2"):
                    check_principal_specialisation(nu, inner)


# Criterion 14 checks the formulas against each other by Littlewood's
# identity for p_2 = h_2 - e_2 (as alphabets). The difference rule
# s_nu[A - B] = sum c^nu_{mu,rho} s_mu[A] (-1)^|rho| s_rho'[B]
# (Macdonald I.5 and I.8) gives
#   s_nu[p_2] = sum c^nu_{mu,rho} (-1)^|rho| s_mu[s_2] s_rho'[s_11],
# and the left side has a closed rule (Littlewood, The Theory of Group
# Characters, 1950; Chen, Garsia and Remmel, Contemp. Math. 34, 1984):
# the multiplicity of s_lam is sigma_2(lam) c^nu_{lam0,lam1} when lam
# has an empty 2-core, else 0, with (lam0, lam1) the 2-quotient and
# sigma_2 the domino sign. The left side reads lr_coefficient, the right
# side decompose and schur_multiply, the other LR engine. For a covered
# nu every mu and rho' with c^nu_{mu,rho} != 0 is covered too.


def _two_quotient(lam):
    """(sigma_2(lam), (lam0, lam1)) when lam has an empty 2-core, else
    None, from a 2-runner abacus.

    With an even number N >= len(lam) of beads at lam_i + N - i, the
    2-core is empty when each runner holds N/2 of them, and the beads
    2q + j of runner j, listed downwards, give the parts of lam_j as q
    less the number of beads below. sigma_2 is the sign of the
    permutation that lists the beads runner by runner, each downwards,
    taken relative to the empty partition's: (-1)^m(m+1)/2 with m = N/2.
    """
    m = (len(lam) + 1) // 2
    parts = lam + (0,) * (2 * m - len(lam))
    beads = [p + 2 * m - 1 - i for i, p in enumerate(parts)]
    runners = [[b // 2 for b in beads if b % 2 == j] for j in (0, 1)]
    if len(runners[0]) != m:
        return None
    # each pair of an even bead below an odd one is one inversion
    inversions = sum(e < o for e in beads if e % 2 == 0 for o in beads if o % 2)
    quotient = tuple(
        tuple(q - (m - 1 - i) for i, q in enumerate(runner) if q > m - 1 - i)
        for runner in runners
    )
    return (-1) ** ((inversions - m * (m + 1) // 2) % 2), quotient


def _p2_plethysm(nu):
    """s_nu[p_2] by the abacus rule and lr_coefficient."""
    terms = {}
    for lam in generate_partitions(2 * sum(nu)):
        found = _two_quotient(lam)
        if found:
            sign, (lam0, lam1) = found
            terms[lam] = sign * lr_coefficient(nu, lam0, lam1)
    return SchurExpansion(terms)


def _p2_by_difference(nu):
    """s_nu[p_2] by the difference rule, from decompose and
    schur_multiply only."""
    n = sum(nu)

    def inside(mu):
        return len(mu) <= len(nu) and all(map(operator.le, mu, nu))

    total = SchurExpansion()
    for a in range(n + 1):
        for mu in filter(inside, generate_partitions(a)):
            for rho in filter(inside, generate_partitions(n - a)):
                c = schur_multiply(SchurExpansion({mu: 1}), SchurExpansion({rho: 1}))[nu]
                if c:
                    term = schur_multiply(
                        decompose(mu)[0], decompose(conjugate(rho), inner="e2")[0]
                    )
                    total = total + c * (-1) ** (n - a) * term
    return total


@pytest.mark.parametrize("n", range(0, 10))
def test_criterion_14_littlewood_p2_identity(n):
    with _timed(14, n):
        for nu in generate_partitions(n):
            if _auto_covered(nu):
                assert _p2_plethysm(nu) == _p2_by_difference(nu), nu


def test_criterion_11_performance_envelope():
    if not _DURATIONS:
        pytest.skip("no timing records; run the full acceptance module")
    small = sum(dt for _, n, dt in _DURATIONS if n <= 6)
    full = sum(dt for _, _, dt in _DURATIONS)
    assert small < 60.0, f"n<=6 portion took {small:.1f}s"
    assert full < 600.0, f"full sweep took {full:.1f}s"
