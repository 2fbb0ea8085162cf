"""Exact expansions in the Schur and power-sum bases.

SchurExpansion carries integer multiplicities, PowerSumExpansion exact
rational coefficients (fractions.Fraction; the oracle also hands
powersum_to_schur int-valued ones). Both are one class body,
_Expansion: immutable, homogeneous (every index partition has one
common size) and free of zero coefficients. The subclasses differ only
in _coerce, the coefficient rule, plus the power-sum product; results
of their arithmetic skip revalidation through _trusted.

Symmetric group character values come from the Murnaghan-Nakayama rule
run forwards: the column chi^lam_mu over every lam, which is the Schur
expansion of p_mu, is p_mu[0] times the column of mu[1:], each shape in
it growing by every mu[0]-cell border strip. That strip step is one
function, _add_strip_layer, which adds or subtracts each value along
the +1 and the -1 shapes of a strip row, with no multiply.
powersum_to_schur calls it once per largest part instead of once per
term: it sums the columns of the rests of every mu with that largest
part and adds the strips to that sum, so it never builds a column of
the full degree.

The strip engine (the strip tables on bead masks, s_nu in power sums
over |nu|! and the exact division that ends an integer basis change)
and the bodies of the two basis changes live in foulkes._characters,
which loads on first use: _chi imports the strip step on a miss, and
mn_character, schur_to_powersum and powersum_to_schur stay here as
entry points that import the module when called, so a process that
only runs the closed formulas never compiles it. Columns are memoized
here, in _chi, on the cycle type mu alone; schur_to_powersum divides
the integer power sums of s_nu (_class_sums) out into Fractions and the
oracle uses them as they are. The memos are process-global,
foulkes.clear_caches() empties them, and a concurrent duplicate
computation is harmless.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from functools import cache

from .errors import DegreeMismatchError
from .partitions import (
    Partition,
    _clip_int,
    _clip_parts,
    _conjugate,
    _dimension,
    as_partition,
    generate_partitions,
)

# typing is not imported at run time; the names only annotations use
# are imported for type checkers alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


# fractions (and the decimal and numbers modules it loads) is imported
# where a power-sum coefficient is made, so the Schur-only routes and
# the command line start without it. Fraction() would also parse a str
# and take a float or Decimal; only a Rational is exact by type.
def _as_fraction(value) -> Fraction:
    from fractions import Fraction
    from numbers import Rational

    if not isinstance(value, Rational):
        raise TypeError("power-sum coefficients must be exact (int or Fraction)")
    return Fraction(value)


class _Expansion:
    """An immutable finite combination of one basis, indexed by
    partitions of one common size, with no zero coefficients.

    The two bases share this body and differ only in _coerce, the rule
    that turns a constructor coefficient or a scalar into a stored one.
    The constructor validates every index partition, every coefficient
    and the common degree. Results built from values that are already
    valid skip that: +, -, unary -, scaling and the power-sum product
    go through _trusted, which keeps the dict it is given when it holds
    no zero coefficient. + and - still raise DegreeMismatchError on
    operands of two different degrees, and TypeError on operands of two
    different bases.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[Partition, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for lam, coeff in items:
            lam = as_partition(lam)
            data[lam] = data.get(lam, 0) + self._coerce(coeff)
        self._terms = {lam: c for lam, c in data.items() if c}
        sizes = {sum(lam) for lam in self._terms}
        if len(sizes) > 1:
            raise DegreeMismatchError(f"mixed degrees {_clip_parts(sorted(sizes))}")

    @classmethod
    def _trusted(cls, terms: dict[Partition, object]):
        """Wrap a dict whose keys are partitions of one size and whose
        values are already of the basis' coefficient type, checking
        nothing.

        The expansion keeps terms itself, not a copy. Only a dict that
        holds a zero coefficient is copied, less its zeros: deleting
        them in place would keep the table at its full size, and the
        alternating sums, whose memo holds them, cancel about a fifth
        of their terms. So terms must be a dict that nothing else holds
        or touches again, as at every call: _combine's copy of self's
        terms, the comprehensions of unary -, scaling, schur_to_powersum,
        powersum_to_schur and omega_schur, the dict literals of
        oracle._multiply_out, and the dicts that the power-sum product,
        _characters._divide_exactly, lr.schur_multiply, oracle._oracle,
        the two builders in formulas (_base and _signed_sum) and the two
        in _table1 (phi_two_one_column_closed and _table) fill.
        """
        if not all(terms.values()):
            terms = {lam: c for lam, c in terms.items() if c}
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @property
    def degree(self) -> int | None:
        """Common size of the index partitions, or None when zero."""
        for lam in self._terms:
            return sum(lam)
        return None

    def coefficient(self, lam: Iterable[int]):
        return self._terms.get(as_partition(lam), self._coerce(0))

    def __getitem__(self, lam: Iterable[int]):
        return self.coefficient(lam)

    def __contains__(self, lam) -> bool:
        return as_partition(lam) in self._terms

    def items(self) -> tuple[tuple[Partition, object], ...]:
        """(partition, coefficient) pairs in canonical (reverse-lex) order."""
        terms = self._terms
        # sorting the keys alone compares each pair of shapes once
        return tuple([(lam, terms[lam]) for lam in sorted(terms, reverse=True)])

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._terms == other._terms
        return NotImplemented

    def _combine(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.degree, other.degree
        if a is not None and b is not None and a != b:
            raise DegreeMismatchError(
                f"cannot combine degrees {_clip_int(a)} and {_clip_int(b)}"
            )
        data = dict(self._terms)
        for lam, c in other._terms.items():
            data[lam] = data.get(lam, 0) + sign * c
        return self._trusted(data)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._trusted({lam: -c for lam, c in self._terms.items()})

    def __mul__(self, scalar):
        k = self._coerce(scalar)
        return self._trusted({lam: k * c for lam, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(f"{lam}: {c}" for lam, c in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class SchurExpansion(_Expansion):
    """A finite integer combination of Schur functions of one degree.

    Coefficients and scalars must be integers (operator.index). Besides
    the arithmetic, omega_schur, powersum_to_schur and
    lr.schur_multiply build theirs through _trusted.
    """

    __slots__ = ()
    _coerce = staticmethod(operator.index)


class PowerSumExpansion(_Expansion):
    """A finite rational combination of power sums of one degree.

    Coefficients and scalars become Fractions, and a float is rejected.
    Besides the arithmetic, schur_to_powersum builds its Fraction-valued
    ones through _trusted, and the oracle int-valued ones: brackets it
    multiplies together, which keeps the coefficients ints, and sums it
    passes to powersum_to_schur, which reads any coefficient through its
    numerator and denominator. Two power-sum expansions multiply as
    p_mu * p_nu = p_(mu union nu); the degrees add.
    """

    __slots__ = ()
    _coerce = staticmethod(_as_fraction)

    def __mul__(self, other):
        if not isinstance(other, PowerSumExpansion):
            return super().__mul__(other)
        data: dict[Partition, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                data[key] = data.get(key, 0) + c1 * c2
        return self._trusted(data)


def _check_basis(basis: type, *values) -> None:
    """Raise TypeError unless every value is an expansion of basis: read
    in the other basis, its coefficients give wrong numbers silently."""
    for f in values:
        if not isinstance(f, basis):
            raise TypeError(f"expected a {basis.__name__}, got {type(f).__name__}")


@cache
def _chi(mu: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The column chi^lam_mu over every lam of |mu|, i.e. the Schur
    expansion of p_mu, as the positions in generate_partitions(|mu|) of
    the lam with a non-zero value, ascending, and those values."""
    if not mu:
        return (0,), (1,)
    from ._characters import _add_strip_layer

    column = [0] * len(generate_partitions(sum(mu)))
    _add_strip_layer(zip(*_chi(mu[1:])), sum(mu[1:]), mu[0], column)
    nonzero = [i for i, value in enumerate(column) if value]
    return tuple(nonzero), tuple(column[i] for i in nonzero)


def mn_character(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Value of the irreducible character chi^lam on cycle type mu.

    Murnaghan-Nakayama rule; raises DegreeMismatchError unless both
    partitions have the same size. The first value for a new cycle
    type of size n computes its whole column, which enumerates the
    partitions of n.

    >>> mn_character((2, 1), (1, 1, 1)), mn_character((2, 1), (3,))
    (2, -1)
    """
    from . import _characters

    return _characters.mn_character(lam, mu)


def schur_to_powersum(nu: Iterable[int]) -> PowerSumExpansion:
    """s_nu as a rational combination of power sums.

    The coefficient of p_mu is chi^nu_mu divided by the centralizer
    order of mu. The first call for a size n computes the character
    column of every cycle type of n, which enumerates the partitions
    of n. The integer numerators are memoized per nu (_class_sums), so
    the s2 and e2 oracles of one nu share them.

    >>> schur_to_powersum((2, 1))
    PowerSumExpansion({(3,): -1/3, (1, 1, 1): 1/3})
    """
    from . import _characters

    return _characters.schur_to_powersum(nu)


def powersum_to_schur(f: PowerSumExpansion) -> SchurExpansion:
    """Convert a power-sum expansion to the Schur basis.

    The coefficient of s_lam is the sum of f(mu) * chi^lam_mu. It is
    computed in integers: every f(mu) is scaled by the lcm D of their
    denominators and one exact division by D ends each integer total.
    An f whose coefficients are ints, as the oracle passes, has D = 1,
    and its non-zero totals are wrapped as they are, with no division.
    Since p_mu = p_mu[0] * p_mu[1:], the terms are grouped by their
    largest part r: the scaled columns of their rests mu[1:] (degree
    n - r) are summed first, and every non-zero entry of that sum then
    gets its r-cell border strips once, so no degree-n column is built.
    Raises NonIntegerCoefficientError at the first s_lam in reverse-lex
    order whose division leaves a remainder, which means f was not an
    integral Schur combination to begin with.

    >>> powersum_to_schur(PowerSumExpansion({(1, 1): 1}))
    SchurExpansion({(2,): 1, (1, 1): 1})
    """
    from . import _characters

    return _characters.powersum_to_schur(f)


# Conjugates of the shapes omega_schur has met. It fills lazily: a table
# of every partition of a degree would enumerate about 10^6 of them for
# decompose 30 --method base --dual.
_conjugate_memo = cache(_conjugate)


def omega_schur(f: SchurExpansion) -> SchurExpansion:
    """Apply the omega involution: conjugate every index partition.

    Each conjugate comes from _conjugate_memo, a process-global memo of
    the shapes met so far; clear_caches() empties it.
    """
    _check_basis(SchurExpansion, f)
    return SchurExpansion._trusted(
        {_conjugate_memo(lam): c for lam, c in f._terms.items()}
    )


def total_dimension(f: SchurExpansion) -> int:
    """Dimension of the character f expands, i.e. sum of mult * dim.
    A sum needs no order, so the terms are read unsorted."""
    _check_basis(SchurExpansion, f)
    return sum(c * _dimension(lam) for lam, c in f._terms.items())
