"""Whittaker function values on the torus for unramified representations.

The normalized spherical Whittaker function, evaluated at the diagonal
point with prime-power exponents mu = (m_1, ..., m_n), is

    W(pi^mu) = delta_B^(1/2)(pi^mu) * s_(mu - m_n*1)(alpha) * (prod alpha_i)^(m_n)

when mu is dominant (m_1 >= ... >= m_n), and 0 otherwise.  Here alpha are
the Satake parameters, s is a Schur polynomial, and

    delta_B^(1/2)(pi^mu) = prod_i q^(-m_i (n + 1 - 2i) / 2),

which is why half powers of the residue cardinality q appear.  The shifted
partition mu - m_n*1 has nonnegative parts exactly when mu is dominant, so
the formula covers cocharacters with negative entries.

The level-m twisted vector averages right translates of the spherical
vector against an additive character over a level-m residue box.  On torus
points only the last simple-root coordinate of the conjugated unipotent
survives, so the average collapses by character orthogonality to

    W^(m)(pi^mu) = q^((n-1) m) * [mu_(n-1) >= m] * W(pi^(mu, 0)),

with mu of length n-1 evaluated inside the rank-n group.  The constant
q^((n-1)m) printed alongside some published derivations is q^((n-2)m);
``twist_constants`` exposes both so reports can show the ratio.

The Schur values come from ``UnramifiedRep.schur``, which evaluates each
once per representation.  The lattice sum in ``zeta`` checks every
Whittaker value it uses against the Schur value it must reduce to, and
both draw on that cache, so the check costs no second evaluation; this
module itself keeps no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import LaurentPoly, qpow
from .localrep import RankMismatch, UnramifiedRep
from .symfunc import Partition


@dataclass(frozen=True)
class TorusCocharacter:
    """Integer exponent vector for a diagonal prime-power torus point."""

    exps: tuple[int, ...]

    def __init__(self, exps: Iterable[int]):
        exps = tuple(int(e) for e in exps)
        object.__setattr__(self, "exps", exps)

    @property
    def length(self) -> int:
        return len(self.exps)

    @property
    def weight(self) -> int:
        return sum(self.exps)

    def is_dominant(self) -> bool:
        return all(a >= b for a, b in zip(self.exps, self.exps[1:]))

    def padded(self, extra_zeros: int) -> "TorusCocharacter":
        return TorusCocharacter(self.exps + (0,) * extra_zeros)

    def reversed_negated(self) -> "TorusCocharacter":
        """The exponent vector of w0 * g^(-1) * w0 for diagonal g."""
        return TorusCocharacter(tuple(-e for e in reversed(self.exps)))

    def __iter__(self):
        return iter(self.exps)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exps) + ")"


def _coerce_cochar(mu) -> TorusCocharacter:
    if isinstance(mu, TorusCocharacter):
        return mu
    return TorusCocharacter(mu)


def delta_half(mu: TorusCocharacter) -> LaurentPoly:
    """The square root of the Borel modulus character at the torus point.

    delta_B^(1/2)(pi^mu) = q^(-sum_i m_i (n + 1 - 2i) / 2).
    """
    mu = _coerce_cochar(mu)
    n = mu.length
    e = -Fraction(sum(m * (n + 1 - 2 * i) for i, m in enumerate(mu.exps, start=1)), 2)
    return qpow(e)


def spherical_value(rep: UnramifiedRep, mu) -> LaurentPoly:
    """Value of the normalized spherical Whittaker function at a torus point.

    Zero off the dominant cone; at the identity cocharacter the value is 1.
    """
    mu = _coerce_cochar(mu)
    if mu.length != rep.rank:
        raise RankMismatch(
            f"cocharacter length {mu.length} does not match rank {rep.rank}"
        )
    if not mu.is_dominant():
        return LaurentPoly.zero()
    m_last = mu.exps[-1]
    lam = Partition(tuple(m - m_last for m in mu.exps))
    value = delta_half(mu) * rep.schur(lam)
    if m_last:
        value = value * rep.satake_product() ** m_last
    return value


def contragredient_value(rep: UnramifiedRep, mu) -> LaurentPoly:
    """Whittaker value of the dual model W~(g) = W(w0 (g^t)^(-1)).

    On diagonal points this is the spherical value of the same rep at the
    reversed, negated cocharacter; it must agree with the spherical value
    of the contragredient representation at mu itself.
    """
    mu = _coerce_cochar(mu)
    return spherical_value(rep, mu.reversed_negated())


def twist_constants(rank: int, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(published constant, computed constant) for the level-m twist.

    Character orthogonality over the (rank-1)-coordinate residue box gives
    q^((rank-1) m); the constant printed in the published derivation is
    q^((rank-2) m).  Both are returned so callers can report the ratio.
    """
    if rank < 2:
        raise ValueError("twisted vectors need rank >= 2")
    if m < 0:
        raise ValueError("the twist level must be nonnegative")
    return qpow((rank - 2) * m), qpow((rank - 1) * m)


def twisted_value(rep: UnramifiedRep, mu, m: int) -> LaurentPoly:
    """Torus value of the level-m twisted Whittaker vector.

    mu has length rank-1; the value lives at the embedded point (mu, 0).
    Vanishes unless mu_(rank-1) >= m; otherwise equals the spherical value
    at (mu, 0) times the orthogonality constant.  The additive character
    has conductor 0.
    """
    mu = _coerce_cochar(mu)
    n = rep.rank
    if mu.length != n - 1:
        raise RankMismatch(
            f"twisted values take a length {n - 1} cocharacter, got length {mu.length}"
        )
    if m < 0:
        raise ValueError("the twist level must be nonnegative")
    if mu.exps and mu.exps[-1] < m:
        return LaurentPoly.zero()
    if not mu.exps and m > 0:
        # rank 1 has no constrained coordinate; keep the rank guard honest
        raise ValueError("twisted vectors need rank >= 2")
    base = spherical_value(rep, mu.padded(1))
    if base.is_zero():
        return base
    return qpow((n - 1) * m) * base
