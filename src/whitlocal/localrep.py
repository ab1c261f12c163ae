"""Local data at a finite place: unramified representations, congruence
subgroup indices, and additive character sums.

An unramified representation is carried entirely by its Satake parameters.
Parameters are stored as single-term LaurentPolys so that every symmetric
function evaluation downstream (Hecke eigenvalues, spherical values) works
uniformly whether a parameter is a named variable, the inverse of one, or
an exact rational.

The congruence subgroup of level m fixes the bottom row of an invertible
matrix to (0, ..., 0, *) modulo the m-th power of the maximal ideal.  Its
index in the full maximal compact has the closed form

    [K : K_0(m)] = p^((n-1)(m-1)) * (p^n - 1) / (p - 1)    for m >= 1

and 1 for m = 0.  A brute-force count of the lines in (o/p^m)^n, over all
p^(m*n) vectors, is provided as an independent oracle for small cases.

The additive character sum over a box of level-m residues is p^(r*m) or 0
by orthogonality.  Its independent oracle computes the same sum exactly in
the cyclotomic ring Z[zeta_q], q = p^m, without orthogonality.  For q a
power of the prime l, Z[zeta_q] = Z[x]/Phi_q(x) with

    Phi_q(x) = sum_{j<l} x^(j*q/l)

(Washington, Introduction to Cyclotomic Fields, ch. 2), so an element is a
list of phi(q) = q - q/l integer coordinates in the basis 1, x, ...,
x^(phi(q)-1), and x^e for phi(q) <= e < q reduces in one step to
-sum_{j<l-1} x^(e - phi(q) + j*q/l).  A float root-of-unity sum,
``character_sum_numeric``, is kept for display only.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence, Union

from .exactalg import LaurentPoly, RESIDUE_CARDINALITY_VAR, qpow

ENUMERATION_LIMIT = 2 ** 24

# numeric residue cardinalities are tested for primality by trial division,
# which takes up to sqrt(p) steps, so they are bounded
MAX_RESIDUE_CARDINALITY = 2 ** 40


class EnumerationTooLarge(ValueError):
    """A brute-force enumeration would exceed the configured size bound."""


class RankMismatch(ValueError):
    """Ranks of the supplied data do not line up."""


def _validate_p(p: Union[int, str]) -> Union[int, str]:
    if isinstance(p, str):
        if p != RESIDUE_CARDINALITY_VAR:
            raise ValueError(
                f"symbolic residue cardinality must be named {RESIDUE_CARDINALITY_VAR!r}, got {p!r}"
            )
        return p
    require_prime_power(p)
    return p


def _require_size(n) -> None:
    """Raise ValueError unless the matrix size n is an int >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"matrix size must be an integer >= 2, got {n!r}")


def require_level(m) -> None:
    """Raise ValueError unless the level exponent m is a nonnegative int."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"level exponent must be a nonnegative int, got {m!r}")


def _validate_box(m: int, valuations: Sequence[int]) -> list[int]:
    """The valuations of a level-m residue box, checked."""
    require_level(m)
    vals = [int(v) for v in valuations]
    if any(v < 0 for v in vals):
        raise ValueError("valuations must be nonnegative")
    return vals


def _coerce_param(x) -> LaurentPoly:
    p = LaurentPoly.coerce(x)
    if p.is_zero() or p.is_unit():
        return p
    raise ValueError(
        f"Satake parameters must be single-term values, got {p.to_text()}"
    )


class UnramifiedRep:
    """An unramified representation given by its Satake parameters."""

    __slots__ = ("rank", "satake", "_schur")

    def __init__(self, rank: int, satake: Sequence):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        params = tuple(_coerce_param(x) for x in satake)
        if len(params) != rank:
            raise RankMismatch(
                f"rank {rank} representation needs {rank} Satake parameters, "
                f"got {len(params)}"
            )
        self.rank = rank
        self.satake = params
        # partition -> Schur value at the Satake parameters, filled by schur()
        self._schur = {}

    @classmethod
    def symbolic(cls, rank: int, prefix: str = "a") -> "UnramifiedRep":
        """Parameters named prefix1..prefixN, which are never q itself.

        zeta._check_symbols refuses q as a Satake symbol of a lattice sum.
        """
        return cls(rank, [LaurentPoly.var(f"{prefix}{i}") for i in range(1, rank + 1)])

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(p.variables() for p in self.satake))

    def satake_product(self) -> LaurentPoly:
        return math.prod(self.satake, start=LaurentPoly.one())

    def schur(self, lam) -> LaurentPoly:
        """s_lam at the Satake parameters, evaluated once per representation."""
        value = self._schur.get(lam)
        if value is None:
            # imported here so that index and charsum skip symfunc
            from .symfunc import schur

            value = self._schur[lam] = schur(lam, self.satake)
        return value


def contragredient(rep: UnramifiedRep) -> UnramifiedRep:
    """The contragredient: inverted Satake parameters in reversed order.

    A zero parameter has no inverse, and inverting it raises DivisionByZero.
    """
    return UnramifiedRep(rep.rank, [p ** -1 for p in reversed(rep.satake)])


# every weight and index call checks its p, and a suite makes dozens of them, at
# up to 2^20 trial divisions each near the bound; typed, so that a float equal to
# a cached int is still refused
@lru_cache(maxsize=None, typed=True)
def _smallest_prime_factor(p) -> int:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"residue cardinality must be an integer >= 2, got {p!r}")
    if p > MAX_RESIDUE_CARDINALITY:
        raise ValueError(
            f"residue cardinality {p} exceeds the bound {MAX_RESIDUE_CARDINALITY} "
            f"of the trial-division prime test"
        )
    d = 2
    while d * d <= p:
        if p % d == 0:
            return d
        d += 1
    return p


def require_prime_power(p) -> None:
    """Raise ValueError unless p is a prime power."""
    rest = p
    r = _smallest_prime_factor(p)
    while rest % r == 0:
        rest //= r
    if rest != 1:
        raise ValueError(f"residue cardinality must be a prime power, got {p}")


def require_prime(p) -> None:
    """Raise ValueError unless p is prime."""
    if _smallest_prime_factor(p) != p:
        raise ValueError(f"residue cardinality must be prime, got {p}")


def _refuse_enumeration(p: int, e: int, what: str) -> None:
    """Refuse p^e > ENUMERATION_LIMIT, before forming p^e, as "{what} the bound ..."."""
    # p >= 2, so e bits or more already exceed the bound: no huge power is formed
    if e >= ENUMERATION_LIMIT.bit_length() or p ** e > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(f"{what} the bound {ENUMERATION_LIMIT}")


def congruence_index(n: int, p: int, m: int) -> int:
    """Index of the level-m bottom-row congruence subgroup in GL_n(o).

    m = 0 gives the full group, index 1.  p must be a prime power.  An index
    with more decimal digits than ``str`` prints by default raises ValueError
    before any power is formed.
    """
    _require_size(n)
    require_prime_power(p)
    require_level(m)
    if m == 0:
        return 1
    # the index lies in [p^e, 2 p^e) for e = (n-1)m, so its digits are known first
    digits = sys.int_info.default_max_str_digits
    if (n - 1) * m * math.log10(p) + math.log10(2) > digits:
        raise ValueError(
            f"the index at n={n}, p={p}, m={m} would have more than {digits} digits"
        )
    return p ** ((n - 1) * (m - 1)) * (p ** n - 1) // (p - 1)


def congruence_index_bruteforce(n: int, p: int, m: int) -> int:
    """Count the index directly as the number of lines in (o/p^m)^n.

    K_0(m) is the stabilizer of the line through e_n under right
    multiplication on row vectors, and GL_n(o) acts transitively on the
    lines, so the index is the number of primitive vectors modulo p^m (not
    every entry divisible by p) over the number of units.  Guarded by a hard
    size bound on the p^(m*n) vectors; p must be prime here so that a vector
    is primitive when some entry is nonzero mod p, and a p that is not prime
    raises ValueError.
    """
    _require_size(n)
    require_prime(p)
    require_level(m)
    if m == 0:
        return 1
    _refuse_enumeration(p, m * n, f"p^(m*n) = {p}^{m * n} exceeds")
    q = p ** m
    multiples = set(range(0, q, p))
    primitive = sum(1 for v in product(range(q), repeat=n) if not multiples.issuperset(v))
    units = sum(1 for x in range(q) if x not in multiples)
    if primitive % units:
        raise ArithmeticError("the unit count does not divide the primitive vector count")
    return primitive // units


def character_sum(p: Union[int, str], m: int, valuations: Sequence[int]) -> LaurentPoly:
    """Sum of the additive character over a box of level-m residues.

    For each coordinate the character beta -> psi(u_i * beta) is summed
    over beta in m^(-m)o / o, where u_i has the given valuation.  By
    orthogonality the sum is p^m per coordinate when the coordinate
    character is trivial (valuation >= m) and 0 otherwise, hence p^(r*m)
    or 0 overall.  The character psi has conductor zero.  A numeric p must
    be a prime power.
    """
    p = _validate_p(p)
    vals = _validate_box(m, valuations)
    r = len(vals)
    if all(v >= m for v in vals):
        if isinstance(p, str):
            return qpow(r * m)
        return LaurentPoly.const(Fraction(p) ** (r * m))
    return LaurentPoly.zero()


def _add_root_of_unity(coords: list[int], e: int, c: int, step: int) -> None:
    """Add c * x^e, 0 <= e < q, to coords in the power basis of Z[x]/Phi_q.

    step is q/l; len(coords) is phi(q) = (l-1)*step.  An exponent at or past
    phi(q) is (l-1)*step + t, and x^((l-1)*step) = -sum_{j<l-1} x^(j*step).
    """
    phi = len(coords)
    if e < phi:
        coords[e] += c
    else:
        for i in range(e - phi, phi, step):
            coords[i] -= c


def _one_coordinate_terms(q: int, u: int, step: int, phi: int) -> list[tuple[int, int]]:
    """The nonzero coordinates (j, c) of sum_{b mod q} x^(b*u) modulo Phi_q."""
    coords = [0] * phi
    for b in range(q):
        _add_root_of_unity(coords, b * u % q, 1, step)
    return [(j, c) for j, c in enumerate(coords) if c]


def character_sum_cyclotomic(p: int, m: int, valuations: Sequence[int]) -> tuple[int, ...]:
    """The character sum as an exact element of Z[zeta_q], q = p^m.

    Returns the phi(q) integer coordinates of sum_b zeta_q^(sum_i b_i p^(v_i))
    over b in (Z/q)^r in the basis 1, x, ..., x^(phi(q)-1) of Z[x]/Phi_q(x);
    q = 1 (m = 0) is the ring Z.  The sum is the product of r one-coordinate
    sums, each built from its q terms without using orthogonality, so the
    work is O(r*q) plus the products of the nonzero coordinates.  p must be
    a prime power.  Raises EnumerationTooLarge, before any power of p is
    formed, when q exceeds ENUMERATION_LIMIT.
    """
    require_prime_power(p)
    vals = _validate_box(m, valuations)
    _refuse_enumeration(p, m, f"q = p^m = {p}^{m} residues exceed")
    if m == 0:
        return (1,)
    q = p ** m
    step = q // _smallest_prime_factor(p)
    phi = q - step
    total = [1] + [0] * (phi - 1)
    for v in vals:
        terms = _one_coordinate_terms(q, pow(p, v, q), step, phi)
        next_total = [0] * phi
        for i, a in enumerate(total):
            if a:
                for j, c in terms:
                    _add_root_of_unity(next_total, (i + j) % q, a * c, step)
        total = next_total
    return tuple(total)


def character_sum_numeric(p: int, m: int, valuations: Sequence[int]) -> complex:
    """Brute-force numeric character sum over all residue tuples.

    Sums exp(2 pi i * sum_i b_i p^(v_i) / p^m) over b in (Z/p^m)^r without
    using orthogonality.  Only the ``numericOracle`` display field of the
    ``charsum`` command reads it; no check compares it.  p must be a prime
    power.  Raises EnumerationTooLarge, before summing, when (p^m)^r exceeds
    ENUMERATION_LIMIT.
    """
    require_prime_power(p)
    vals = _validate_box(m, valuations)
    _refuse_enumeration(
        p, m * len(vals), f"(p^m)^r = ({p}^{m})^{len(vals)} residue tuples exceed"
    )
    q = p ** m
    total = 0j
    tau = 2j * cmath.pi
    for phase in _box_phases(q, [pow(p, v, q) for v in vals]):
        total += cmath.exp(tau * phase / q)
    return total


def _box_phases(q: int, units: list[int]) -> Iterator[int]:
    """sum_i b_i * units[i] mod q for b in (Z/q)^r, r = len(units).

    The tuples b come in the lexicographic order of
    ``product(range(q), repeat=r)``, but the last coordinate runs over
    range(q) itself: product first stores range(q) as a tuple, 2^24 ints at
    the enumeration bound for r = 1.  The leading r - 1 coordinates still go
    through product, which for r >= 2 stores at most ENUMERATION_LIMIT^(1/2)
    ints.
    """
    if not units:
        yield 0
        return
    *lead, last = units
    for head in product(range(q), repeat=len(lead)):
        base = sum(bi * u for bi, u in zip(head, lead))
        for b in range(q):
            yield (base + b * last) % q
