"""Whittaker function values on the torus for unramified representations.

The normalized spherical Whittaker function, evaluated at the diagonal
point with prime-power exponents mu = (m_1, ..., m_n), a tuple of ints, is

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

from fractions import Fraction

from .exactalg import LaurentPoly, qpow
from .localrep import UnramifiedRep
from .symfunc import Partition


def delta_half(mu: tuple[int, ...]) -> LaurentPoly:
    """The square root of the Borel modulus character at the torus point.

    delta_B^(1/2)(pi^mu) = q^(-sum_i m_i (n + 1 - 2i) / 2).
    """
    n = len(mu)
    e = -Fraction(sum(m * (n + 1 - 2 * i) for i, m in enumerate(mu, start=1)), 2)
    return qpow(e)


def spherical_value(rep: UnramifiedRep, mu: tuple[int, ...]) -> LaurentPoly:
    """Value of the normalized spherical Whittaker function at a torus point.

    Zero off the dominant cone; at the identity cocharacter the value is 1.
    mu has length rep.rank: the command line compares the lengths before it
    builds the representation, and the lattice sum, twisted_value and the
    contragredient suite build mu at the rank.
    """
    if any(a < b for a, b in zip(mu, mu[1:])):
        return LaurentPoly.zero()
    m_last = mu[-1]
    lam = Partition(m - m_last for m in mu)
    value = delta_half(mu) * rep.schur(lam)
    if m_last:
        value = value * rep.satake_product() ** m_last
    return value


def contragredient_value(rep: UnramifiedRep, mu: tuple[int, ...]) -> LaurentPoly:
    """Whittaker value of the dual model W~(g) = W(w0 (g^t)^(-1)).

    On diagonal points this is the spherical value of the same rep at the
    reversed, negated cocharacter, the exponents of w0 * g^(-1) * w0; it
    must agree with the spherical value of the contragredient
    representation at mu itself.
    """
    return spherical_value(rep, tuple(-e for e in reversed(mu)))


def twist_constants(rank: int, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(published constant, computed constant) for the level-m twist.

    Character orthogonality over the (rank-1)-coordinate residue box gives
    q^((rank-1) m); the constant printed in the published derivation is
    q^((rank-2) m).  Both are returned so callers can report the ratio.
    The caller has checked rank >= 2 and m >= 0.
    """
    return qpow((rank - 2) * m), qpow((rank - 1) * m)


def twisted_value(rep: UnramifiedRep, mu: tuple[int, ...], m: int) -> LaurentPoly:
    """Torus value of the level-m twisted Whittaker vector.

    The value lives at the embedded point (mu, 0).  Vanishes unless
    mu_(rank-1) >= m; otherwise equals the spherical value at (mu, 0) times
    the orthogonality constant.  The additive character has conductor 0.
    mu has length rank-1 and rank >= 2: the command line compares the length
    before it builds the representation, and the lattice sum passes length
    rank-1 at rank >= 2.
    """
    n = rep.rank
    if m < 0:
        raise ValueError("the twist level must be nonnegative")
    if mu and mu[-1] < m:
        return LaurentPoly.zero()
    return qpow((n - 1) * m) * spherical_value(rep, (*mu, 0))
