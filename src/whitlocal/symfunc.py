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

An independent route checks schur without dividing: alternant forms
a_(lam+delta) = det(x_i^(lam_j + n - j)) as its Leibniz sum, and the
bialternant formula s_lam = a_(lam+delta) / a_delta (Macdonald I 3) is
checked multiplied through, s_lam * a_delta == a_(lam+delta), where a_delta
is the Vandermonde determinant.  The Laurent polynomials over Q have no zero
divisors, so the product check is as strong as the quotient.  It needs
distinct variable names, or both alternants vanish.

A Schur value at fewer nonzero values than the partition has parts is
zero; the library returns that zero rather than raising, matching the
support convention used by the spherical Whittaker values built on top.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .exactalg import LaurentPoly, TruncatedSeries, sum_of_products


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
        parts, and alternant refuses a longer partition first.
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


def alternant(lam: Partition, names: Sequence[str]) -> LaurentPoly:
    """The alternant a_(lam+delta) = det(x_i^(lam_j + n - j)) in n distinct variables.

    The Leibniz sum over the n! permutations: each signed term is formed
    directly by LaurentPoly({...}), with no polynomial product.  At the
    empty partition it is the Vandermonde determinant a_delta.  Repeated
    names are refused, since both alternants would vanish and
    s_lam * a_delta == a_(lam+delta) would hold whatever s_lam is; so is a
    partition longer than the names.
    """
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("alternant needs distinct variable names")
    if len(lam) > n:
        raise ValueError(
            f"partition {lam} has more parts than the {n} supplied variables"
        )
    exps = [part + n - j for j, part in enumerate(lam.padded(n), start=1)]
    # row i of a term holds x_i's exponent; exps decrease, so an inversion is an ascent
    return LaurentPoly({
        tuple(zip(names, row)): (-1) ** sum(a < b for a, b in combinations(row, 2))
        for row in permutations(exps)
    })


def cauchy_schur_side(n: int, m: int, var: str, order: int) -> TruncatedSeries:
    """The Schur expansion sum_lam s_lam(a) s_lam(b) t^|lam| up to the order."""
    avals = [LaurentPoly.var(f"a{i}") for i in range(1, n + 1)]
    bvals = [LaurentPoly.var(f"b{j}") for j in range(1, m + 1)]
    return TruncatedSeries(var, [
        sum_of_products((schur(lam, avals), schur(lam, bvals)) for lam in partitions_of(w, min(n, m)))
        for w in range(order + 1)
    ])
