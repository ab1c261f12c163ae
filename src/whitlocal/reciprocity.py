"""The spectral parameter transform and the matrix identities behind it.

For rank parameter n, the transform on a pair of complex parameters is

    s' = (1 + (n-1) w - s) / n,        w' = ((n+1) s + w - 1) / n.

It is an involution with unique fixed point (1/2, 1/2), and it satisfies
the two linear exponent identities

    n (s' - 1/2) = n (1/2 - s) + (n-1)(s + w - 1),
    s' + w' - 1  = s + w - 1,

which is exactly what makes the two normalized integral sides trade places.
The ``involution`` suite checks all of this over exact polynomials in the
symbols s, w, never numerically.

The matrix side lives on (n+1) x (n+1) symbolic matrices: the order-two
Weyl element that swaps the last two coordinates conjugates the column of
unipotents above coordinate n into the column above coordinate n+1, and a
cusp-invariance step factors a scaled block diagonal through that element;
the ``weyl`` and ``cusp`` suites check both.
"""

from __future__ import annotations

from typing import Sequence

from .exactalg import LaurentPoly, sum_of_products

S_VAR = "s"
W_VAR = "w"


class ParamPair:
    """A pair of spectral parameters together with the rank parameter n."""

    __slots__ = ("s", "w", "n")

    def __init__(self, s, w, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"the rank parameter must be an integer >= 2, got {n!r}")
        self.s = LaurentPoly.coerce(s)
        self.w = LaurentPoly.coerce(w)
        self.n = n

    @classmethod
    def symbolic(cls, n: int) -> "ParamPair":
        return cls(LaurentPoly.var(S_VAR), LaurentPoly.var(W_VAR), n)


def dual_params(pair: ParamPair) -> ParamPair:
    """Apply the parameter transform, exactly."""
    n = pair.n
    s, w = pair.s, pair.w
    one = LaurentPoly.one()
    s_new = (one + (n - 1) * w - s) / n
    w_new = ((n + 1) * s + w - one) / n
    return ParamPair(s_new, w_new, n)


class SymbolicMatrix:
    """A square matrix of LaurentPoly entries with exact arithmetic."""

    __slots__ = ("size", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(LaurentPoly.coerce(e) for e in row) for row in rows)
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        self.size = size
        self.rows = rows

    @classmethod
    def scalar(cls, size: int, value) -> "SymbolicMatrix":
        value = LaurentPoly.coerce(value)
        return cls([
            [value if i == j else LaurentPoly.zero() for j in range(size)]
            for i in range(size)
        ])

    @classmethod
    def block_diag(cls, *blocks) -> "SymbolicMatrix":
        mats = [b if isinstance(b, SymbolicMatrix) else SymbolicMatrix([[b]]) for b in blocks]
        size = sum(m.size for m in mats)
        rows = [[LaurentPoly.zero()] * size for _ in range(size)]
        offset = 0
        for m in mats:
            for i in range(m.size):
                for j in range(m.size):
                    rows[offset + i][offset + j] = m.rows[i][j]
            offset += m.size
        return cls(rows)

    def __mul__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("matrix sizes differ")
        cols = list(zip(*other.rows))
        return SymbolicMatrix([[sum_of_products(zip(row, col)) for col in cols]
                               for row in self.rows])

    def substitute(self, name: str, value) -> "SymbolicMatrix":
        return SymbolicMatrix([
            [e.substitute(name, value) for e in row] for row in self.rows
        ])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolicMatrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    __hash__ = None

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(e.to_text() for e in row) for row in self.rows
        ) + "]"


def swap_last_two(size: int) -> SymbolicMatrix:
    """The order-two Weyl element exchanging the last two coordinates."""
    if size < 2:
        raise ValueError("need size >= 2 to swap the last two coordinates")
    rows = list(SymbolicMatrix.scalar(size, 1).rows)
    rows[-2], rows[-1] = rows[-1], rows[-2]
    return SymbolicMatrix(rows)


def column_unipotent(size: int, col: int, names: Sequence[str]) -> SymbolicMatrix:
    """Identity plus a column of symbols above the diagonal in one column.

    Entry (i, col) is names[i] for i = 1..len(names), 1-based.
    """
    m = SymbolicMatrix.scalar(size, 1)
    rows = [list(r) for r in m.rows]
    for i, name in enumerate(names):
        rows[i][col - 1] = LaurentPoly.var(name)
    return SymbolicMatrix(rows)
