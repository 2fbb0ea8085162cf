"""Exact expansions in the Schur and power-sum bases.

SchurExpansion carries integer multiplicities, PowerSumExpansion exact
rational coefficients (fractions.Fraction). Both are immutable,
homogeneous (every index partition has one common size) and drop zero
coefficients on construction. Symmetric group character values come
from the Murnaghan-Nakayama border-strip recursion, memoized on the
(shape, remaining cycle type) pair; the memo is process-global and a
concurrent duplicate computation is harmless.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Iterator, Mapping

from .errors import DegreeMismatchError, NonIntegerCoefficientError
from .partitions import (
    Partition,
    _conjugate,
    as_partition,
    centralizer_order,
    generate_partitions,
    irreducible_dimension,
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("power-sum coefficients must be exact (int or Fraction)")
    return Fraction(value)


def _collect(terms, coerce) -> dict:
    data: dict[Partition, object] = {}
    items = terms.items() if isinstance(terms, Mapping) else terms
    for lam, coeff in items:
        lam = as_partition(lam)
        c = coerce(coeff)
        if not c:
            continue
        if lam in data:
            merged = data[lam] + c
            if merged:
                data[lam] = merged
            else:
                del data[lam]
        else:
            data[lam] = c
    sizes = {sum(lam) for lam in data}
    if len(sizes) > 1:
        raise DegreeMismatchError(f"mixed index partition sizes {sorted(sizes)}")
    return data


class SchurExpansion:
    """A finite integer combination of Schur functions of one degree.

    The constructor validates every index partition, every coefficient
    and the common degree. Results built inside the package from values
    that are already valid skip that: +, -, unary -, integer scaling,
    omega_schur and lr.schur_multiply go through _trusted, which only
    drops zero coefficients. + and - still raise DegreeMismatchError on
    operands of two different degrees.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        self._terms = _collect(terms, operator.index)

    @classmethod
    def _trusted(cls, terms: dict[Partition, int]) -> "SchurExpansion":
        """Wrap a dict whose keys are partitions of one size and whose
        values are ints, dropping zero coefficients and checking nothing."""
        self = cls.__new__(cls)
        self._terms = {lam: c for lam, c in terms.items() if c}
        return self

    @property
    def degree(self) -> int | None:
        """Common size of the index partitions, or None when zero."""
        for lam in self._terms:
            return sum(lam)
        return None

    def coefficient(self, lam: Iterable[int]) -> int:
        return self._terms.get(as_partition(lam), 0)

    def __getitem__(self, lam: Iterable[int]) -> int:
        return self.coefficient(lam)

    def __contains__(self, lam) -> bool:
        return as_partition(lam) in self._terms

    def items(self) -> tuple[tuple[Partition, int], ...]:
        """(partition, coefficient) pairs in canonical (reverse-lex) order."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SchurExpansion):
            return self._terms == other._terms
        return NotImplemented

    def _compatible(self, other: "SchurExpansion") -> None:
        a, b = self.degree, other.degree
        if a is not None and b is not None and a != b:
            raise DegreeMismatchError(f"cannot combine degrees {a} and {b}")

    def _combine(self, other: "SchurExpansion", sign: int) -> "SchurExpansion":
        self._compatible(other)
        data = dict(self._terms)
        for lam, c in other._terms.items():
            data[lam] = data.get(lam, 0) + sign * c
        return SchurExpansion._trusted(data)

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "SchurExpansion":
        return SchurExpansion._trusted({lam: -c for lam, c in self._terms.items()})

    def __mul__(self, scalar: int) -> "SchurExpansion":
        if not isinstance(scalar, int):
            return NotImplemented
        return SchurExpansion._trusted(
            {lam: scalar * c for lam, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(f"{lam}: {c}" for lam, c in self.items())
        return f"SchurExpansion({{{inner}}})"


class PowerSumExpansion:
    """A finite rational combination of power sums of one degree."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        self._terms = _collect(terms, _as_fraction)

    @property
    def degree(self) -> int | None:
        for mu in self._terms:
            return sum(mu)
        return None

    def coefficient(self, mu: Iterable[int]) -> Fraction:
        return self._terms.get(as_partition(mu), Fraction(0))

    def __getitem__(self, mu: Iterable[int]) -> Fraction:
        return self.coefficient(mu)

    def items(self) -> tuple[tuple[Partition, Fraction], ...]:
        return tuple(sorted(self._terms.items(), reverse=True))

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, PowerSumExpansion):
            return self._terms == other._terms
        return NotImplemented

    def _compatible(self, other: "PowerSumExpansion") -> None:
        a, b = self.degree, other.degree
        if a is not None and b is not None and a != b:
            raise DegreeMismatchError(f"cannot combine degrees {a} and {b}")

    def __add__(self, other: "PowerSumExpansion") -> "PowerSumExpansion":
        if not isinstance(other, PowerSumExpansion):
            return NotImplemented
        self._compatible(other)
        data = dict(self._terms)
        for mu, c in other._terms.items():
            data[mu] = data.get(mu, Fraction(0)) + c
        return PowerSumExpansion(data)

    def __sub__(self, other: "PowerSumExpansion") -> "PowerSumExpansion":
        if not isinstance(other, PowerSumExpansion):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "PowerSumExpansion":
        return (-1) * self

    def __mul__(self, other):
        # p_mu * p_nu = p_(sorted concatenation); degrees add.
        if isinstance(other, PowerSumExpansion):
            data: dict[Partition, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    key = tuple(sorted(m1 + m2, reverse=True))
                    data[key] = data.get(key, Fraction(0)) + c1 * c2
            return PowerSumExpansion(data)
        scalar = _as_fraction(other)
        return PowerSumExpansion(
            {mu: scalar * c for mu, c in self._terms.items()}
        )

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __repr__(self) -> str:
        inner = ", ".join(f"{mu}: {c}" for mu, c in self.items())
        return f"PowerSumExpansion({{{inner}}})"


@cache
def _chi(lam: Partition, mu: Partition) -> int:
    """Character value via border-strip removal on beta numbers."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
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
        term = _chi(new_lam, rest)
        if term:
            total += -term if height % 2 else term
    return total


def mn_character(lam: Iterable[int], mu: Iterable[int]) -> int:
    """Value of the irreducible character chi^lam on cycle type mu.

    Murnaghan-Nakayama recursion; raises DegreeMismatchError unless both
    partitions have the same size.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise DegreeMismatchError(f"|{lam}| != |{mu}|")
    return _chi(lam, mu)


def schur_to_powersum(nu: Iterable[int]) -> PowerSumExpansion:
    """s_nu as a rational combination of power sums.

    The coefficient of p_mu is chi^nu_mu divided by the centralizer
    order of mu.
    """
    nu = as_partition(nu)
    n = sum(nu)
    data = {}
    for mu in generate_partitions(n):
        ch = _chi(nu, mu)
        if ch:
            data[mu] = Fraction(ch, centralizer_order(mu))
    return PowerSumExpansion(data)


def powersum_to_schur(f: PowerSumExpansion) -> SchurExpansion:
    """Convert a power-sum expansion to the Schur basis.

    The coefficient of s_lam is the sum of f(mu) * chi^lam_mu. It is
    computed in integers: every f(mu) is scaled by the lcm D of their
    denominators, each s_lam total is an integer dot product with the
    character values, and one exact division by D ends it. Raises
    NonIntegerCoefficientError if a division leaves a remainder, which
    means f was not an integral Schur combination to begin with.
    """
    n = f.degree
    if n is None:
        return SchurExpansion()
    denom = lcm(*(c.denominator for c in f._terms.values()))
    scaled = [
        (mu, c.numerator * (denom // c.denominator)) for mu, c in f._terms.items()
    ]
    out: dict[Partition, int] = {}
    for lam in generate_partitions(n):
        total = 0
        for mu, coeff in scaled:
            ch = _chi(lam, mu)
            if ch:
                total += coeff * ch
        if total:
            quotient, remainder = divmod(total, denom)
            if remainder:
                raise NonIntegerCoefficientError(
                    f"coefficient of s_{lam} is {Fraction(total, denom)}"
                )
            out[lam] = quotient
    return SchurExpansion._trusted(out)


def omega_schur(f: SchurExpansion) -> SchurExpansion:
    """Apply the omega involution: conjugate every index partition."""
    return SchurExpansion._trusted(
        {_conjugate(lam): c for lam, c in f._terms.items()}
    )


def total_dimension(f: SchurExpansion) -> int:
    """Dimension of the character f expands, i.e. sum of mult * dim."""
    return sum(c * irreducible_dimension(lam) for lam, c in f.items())
