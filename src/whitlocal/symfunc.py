"""Partitions and symmetric function values.

Schur polynomials are computed in two steps.  _weights counts the
Gelfand-Tsetlin patterns of a partition by weight, through the branching
rule over interlacing partitions (Macdonald, Symmetric Functions and Hall
Polynomials, I 5); the counts depend on no values.  schur then evaluates
sum count * x^w once, through LaurentPoly.monomial_sum, at single-term
values: variables, their inverses and nonzero rationals.  A zero value is
dropped, since s_lam(x, 0) = s_lam(x); a value of several terms is refused.
The cache of _weights is this module's only process-wide state: every
representation, partition and suite in a process shares it.

A second, independent route through the bialternant quotient of
alternants is kept for cross-checking; it requires distinct variable
names because it divides by the Vandermonde determinant exactly.

A Schur value at fewer nonzero values than the partition has parts is
zero; the library returns that zero rather than raising, matching the
support convention used by the spherical Whittaker values built on top.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .exactalg import InexactDivision, LaurentPoly, TruncatedSeries


class Partition(tuple):
    """A weakly decreasing tuple of nonnegative integers, trailing zeros dropped."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts {parts} are not weakly decreasing")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts {parts} contain a negative entry")
        return super().__new__(cls, parts)

    def padded(self, n: int) -> tuple[int, ...]:
        """The parts followed by zeros up to length n >= len(self).

        Every caller pads to at least the length: schur returns zero first
        when the partition is too long, partitions_of(w, n) yields at most n
        parts, and the bialternant oracle refuses a longer partition first.
        """
        return self + (0,) * (n - len(self))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"


def partitions_of(weight: int, max_length: int) -> Iterator[Partition]:
    """All partitions of the given weight into at most max_length parts.

    Emitted in lexicographically descending order: (k) first, then (k-1,1), ...
    Weight 0 gives the empty partition at any length; a negative weight, or
    a positive one at a length below 1, gives none.
    """

    def rec(remaining: int, cap: int, slots: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        if slots == 0:
            return
        top = min(cap, remaining)
        for first in range(top, 0, -1):
            # the rest must fit under this part in the remaining slots
            if first * slots < remaining:
                continue
            prefix.append(first)
            yield from rec(remaining - first, first, slots - 1, prefix)
            prefix.pop()

    yield from rec(weight, weight, max_length, [])


def partitions_up_to(max_weight: int, max_length: int) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight into at most max_length parts."""
    for w in range(max_weight + 1):
        yield from partitions_of(w, max_length)


def _det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion with memoized column subsets.

    Only the bialternant oracle uses it, on n x n matrices for n variables,
    so this stays small.
    """
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    cache: dict[tuple[int, ...], LaurentPoly] = {}

    # the row being expanded is always n - len(cols), so cols alone keys the cache
    def minor(row: int, cols: tuple[int, ...]) -> LaurentPoly:
        if not cols:
            return LaurentPoly.one()
        got = cache.get(cols)
        if got is not None:
            return got
        total = LaurentPoly.zero()
        sign = 1
        for idx, col in enumerate(cols):
            entry = matrix[row][col]
            if not entry.is_zero():
                rest = minor(row + 1, cols[:idx] + cols[idx + 1:])
                term = entry * rest
                total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[cols] = total
        return total

    return minor(0, tuple(range(n)))


@cache
def _weights(nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The Gelfand-Tsetlin patterns with top row nu, counted by weight.

    s_nu(x_1..x_k) = sum over {w: count} of count * x_1^(w_1)...x_k^(w_k),
    where k = len(nu): by the branching rule, s_nu is the sum over mu
    interlacing nu of s_mu(x_1..x_(k-1)) * x_k^(|nu| - |mu|), down to
    s_(a)(x_1) = x_1^a.  The counts depend on no values, so the cache is
    shared by every call in the process; callers never mutate its dicts.
    """
    if len(nu) <= 1:
        return {nu: 1}
    out: dict[tuple[int, ...], int] = {}
    total = sum(nu)
    # every mu with nu_1 >= mu_1 >= nu_2 >= ... >= mu_(k-1) >= nu_k
    for mu in product(*map(range, nu[1:], [a + 1 for a in nu])):
        d = total - sum(mu)
        for w, count in _weights(mu).items():
            key = (*w, d)
            out[key] = out.get(key, 0) + count
    return out


def schur(lam: Partition, xs: Sequence) -> LaurentPoly:
    """Schur polynomial value s_lam(xs) at single-term values or zeros.

    A zero value is dropped, since s_lam(x, 0) = s_lam(x); the value is zero
    when the partition has more parts than there are nonzero values.  The
    rest is LaurentPoly.monomial_sum over the counted patterns of _weights,
    which refuses a value of more than one term.
    """
    values = [v for v in map(LaurentPoly.coerce, xs) if not v.is_zero()]
    if len(lam) > len(values):
        return LaurentPoly.zero()
    return LaurentPoly.monomial_sum(values, _weights(lam.padded(len(values))))


def _divide_by_difference(f: LaurentPoly, a: str, b: str) -> LaurentPoly:
    """Exact division of f by (a - b) for variables a, b.

    Synthetic division in the variable a; raises InexactDivision when the
    remainder (f with a replaced by b) is nonzero.
    """
    by_deg = f.coefficients_in(a)
    if not by_deg:
        return LaurentPoly.zero()
    degrees = sorted(by_deg)
    if degrees[0] < 0 or not all(isinstance(d, int) for d in degrees):
        raise InexactDivision(f"{a} occurs with negative or fractional exponent")
    kmax = degrees[-1]
    coeffs = [by_deg.get(k, LaurentPoly.zero()) for k in range(kmax + 1)]
    bvar = LaurentPoly.var(b)
    quot = [LaurentPoly.zero()] * kmax
    carry = LaurentPoly.zero()
    for k in range(kmax, 0, -1):
        carry = coeffs[k] + carry * bvar
        quot[k - 1] = carry
    remainder = coeffs[0] + carry * bvar
    if not remainder.is_zero():
        raise InexactDivision(f"division by ({a} - {b}) leaves remainder {remainder}")
    avar = LaurentPoly.var(a)
    total = LaurentPoly.zero()
    for k, c in enumerate(quot):
        if not c.is_zero():
            total = total + c * avar ** k
    return total


def schur_bialternant_oracle(lam: Partition, names: Sequence[str]) -> LaurentPoly:
    """Independent Schur value via the quotient of alternants.

    det(x_i^(lam_j + n - j)) divided exactly by the Vandermonde determinant
    prod_{i<j} (x_i - x_j).  Needs distinct variable names.
    """
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("bialternant oracle needs distinct variable names")
    if len(lam) > n:
        raise ValueError(
            f"partition {lam} has more parts than the {n} supplied variables"
        )
    exps = [part + n - j for j, part in enumerate(lam.padded(n), start=1)]
    matrix = [
        [LaurentPoly.var(names[i], exps[j]) if exps[j] else LaurentPoly.one() for j in range(n)]
        for i in range(n)
    ]
    numerator = _det(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            numerator = _divide_by_difference(numerator, names[i], names[j])
    return numerator


def cauchy_schur_side(n: int, m: int, var: str, order: int) -> TruncatedSeries:
    """The Schur expansion sum_lam s_lam(a) s_lam(b) t^|lam| up to the order."""
    avals = [LaurentPoly.var(f"a{i}") for i in range(1, n + 1)]
    bvals = [LaurentPoly.var(f"b{j}") for j in range(1, m + 1)]
    coeffs = [LaurentPoly.zero() for _ in range(order + 1)]
    for w in range(order + 1):
        for lam in partitions_of(w, min(n, m)):
            coeffs[w] = coeffs[w] + schur(lam, avals) * schur(lam, bvals)
    return TruncatedSeries(var, coeffs)
