"""Reference kernel: the dict-of-Monomial exactalg that packed keys replaced.

This is the implementation ``whitlocal.exactalg`` had before its terms were
keyed by packed exponent ints.  It is kept as a differential oracle for
tests/test_exactalg.py and is not part of the package.  Its rational
function type and series_expand are gone, as they are from the package;
the rest is unchanged.  Its original description follows (of the rational
function type, for the record).

Everything downstream (Schur polynomials, spherical Whittaker values, local
zeta series, parameter bookkeeping) computes inside three immutable types
defined here:

  Monomial        a finite product of variable powers.  Exponents are
                  integers, except on the designated residue-cardinality
                  variable ``q`` where half-integers are allowed; this is
                  where modulus-character square roots like delta_B^(1/2)
                  live, so no floating point ever enters.
  LaurentPoly     a finite Fraction-linear combination of Monomials,
                  stored as a dict with zero coefficients never present.
  RationalFunction
                  a quotient of two LaurentPolys kept in a canonical form
                  (the lexicographically least monomial of the denominator
                  has coefficient 1).  Equality is decided by
                  cross-multiplication; no multivariate gcd is attempted.
  TruncatedSeries a power series in one distinguished variable, truncated
                  at a fixed order, whose coefficients are LaurentPolys
                  not mentioning that variable.

All values are immutable and all operations are pure: they return new
objects and never mutate their inputs.  Serialization (text and JSON) is
deterministic because terms are always emitted in the canonical monomial
order.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

# Only this variable may carry half-integer exponents.
RESIDUE_CARDINALITY_VAR = "q"

Scalar = Union[int, Fraction]


class UnboundVariable(KeyError):
    """A variable needed during evaluation has no binding."""


class DivisionByZero(ZeroDivisionError):
    """A zero value was raised to a negative power or used as a divisor."""


class NegativeUnderHalfExponent(ValueError):
    """A negative rational sits under a half-integer exponent in exact mode."""


class InexactSquareRoot(ValueError):
    """A half-integer exponent was evaluated at a rational with no exact root."""


class VariableMismatch(ValueError):
    """Two truncated series over different distinguished variables were mixed."""


class NotExpandable(ValueError):
    """A rational function has no power-series expansion in the given variable."""


class InexactDivision(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _norm_exp(e) -> Scalar:
    """Normalize an exponent to int, or to Fraction with denominator 2."""
    if isinstance(e, int):
        return e
    f = Fraction(e)
    if f.denominator == 1:
        return int(f)
    if f.denominator == 2:
        return f
    raise ValueError(f"exponent {e!r} is not an integer or half-integer")


class Monomial:
    """An immutable product of variable powers, e.g. q^(-1/2) * a1^2.

    Stored as a tuple of (name, exponent) pairs sorted by name, with zero
    exponents dropped.  That tuple doubles as the canonical sort key used
    everywhere for deterministic ordering.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[str, Scalar]] | Mapping[str, Scalar] = ()):
        if isinstance(exps, Mapping):
            exps = exps.items()
        merged: dict[str, Scalar] = {}
        for name, e in exps:
            if not isinstance(name, str) or not name:
                raise ValueError(f"variable name must be a nonempty string, got {name!r}")
            e = _norm_exp(e)
            cur = merged.get(name, 0)
            merged[name] = _norm_exp(cur + e)
        cleaned = []
        for name in sorted(merged):
            e = merged[name]
            if e == 0:
                continue
            if not isinstance(e, int) and name != RESIDUE_CARDINALITY_VAR:
                raise ValueError(
                    f"half-integer exponent on {name!r}; only "
                    f"{RESIDUE_CARDINALITY_VAR!r} may carry half powers"
                )
            cleaned.append((name, e))
        self.exps: tuple[tuple[str, Scalar], ...] = tuple(cleaned)
        self._hash = hash(self.exps)

    def degree_in(self, name: str) -> Scalar:
        for v, e in self.exps:
            if v == name:
                return e
        return 0

    def without(self, name: str) -> "Monomial":
        return Monomial(p for p in self.exps if p[0] != name)

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self.exps:
            return other
        if not other.exps:
            return self
        return Monomial(self.exps + other.exps)

    def __pow__(self, k: int) -> "Monomial":
        if not isinstance(k, int):
            raise TypeError("monomial powers must be integers")
        return Monomial((v, e * k) for v, e in self.exps)

    def inverse(self) -> "Monomial":
        return self ** -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other: "Monomial") -> bool:
        return self.exps < other.exps

    def __le__(self, other: "Monomial") -> bool:
        return self.exps <= other.exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


_ONE_MONOMIAL = Monomial()


def _text_exp(e: Scalar) -> str:
    if isinstance(e, int):
        return str(e) if e >= 0 else f"({e})"
    return f"({e.numerator}/{e.denominator})"


class LaurentPoly:
    """A multivariate Laurent polynomial with Fraction coefficients.

    The zero polynomial is the empty dict; a stored coefficient is never
    zero, so structural equality of the dicts is arithmetic equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mon, c in terms.items():
                c = Fraction(c)
                if c:
                    prev = cleaned.get(mon)
                    if prev is None:
                        cleaned[mon] = c
                    else:
                        s = prev + c
                        if s:
                            cleaned[mon] = s
                        else:
                            del cleaned[mon]
        self.terms: dict[Monomial, Fraction] = cleaned
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({_ONE_MONOMIAL: Fraction(1)})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({_ONE_MONOMIAL: Fraction(c)})

    @classmethod
    def var(cls, name: str, exp: Scalar = 1) -> "LaurentPoly":
        return cls({Monomial([(name, exp)]): Fraction(1)})

    @classmethod
    def monomial(cls, mon: Monomial, coeff=1) -> "LaurentPoly":
        return cls({mon: Fraction(coeff)})

    @staticmethod
    def coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        if isinstance(x, str):
            return LaurentPoly.var(x)
        if isinstance(x, Monomial):
            return LaurentPoly.monomial(x)
        raise TypeError(f"cannot interpret {x!r} as a Laurent polynomial")

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff the polynomial is a single nonzero term (hence invertible)."""
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONOMIAL in self.terms)

    def constant_coefficient(self) -> Fraction:
        return self.terms.get(_ONE_MONOMIAL, Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.constant_coefficient()

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for mon in self.terms:
            out.update(mon.variables())
        return frozenset(out)

    def min_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no monomials")
        return min(self.terms)

    def coefficients_in(self, name: str) -> dict[Scalar, "LaurentPoly"]:
        """Split into coefficients of powers of one variable.

        Returns {exponent: coefficient} where each coefficient no longer
        mentions the variable.
        """
        buckets: dict[Scalar, dict[Monomial, Fraction]] = {}
        for mon, c in self.terms.items():
            e = mon.degree_in(name)
            buckets.setdefault(e, {})[mon.without(name)] = c
        return {e: LaurentPoly(b) for e, b in buckets.items()}

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        try:
            other = LaurentPoly.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mon, c in other.terms.items():
            s = out.get(mon, Fraction(0)) + c
            if s:
                out[mon] = s
            else:
                out.pop(mon, None)
        return LaurentPoly(out) if out else LaurentPoly()

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({mon: -c for mon, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        try:
            other = LaurentPoly.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return LaurentPoly.coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        try:
            other = LaurentPoly.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Fraction] = {}
        for mon_a, ca in a.items():
            for mon_b, cb in b.items():
                mon = mon_a * mon_b
                s = out.get(mon, Fraction(0)) + ca * cb
                if s:
                    out[mon] = s
                else:
                    del out[mon]
        return LaurentPoly(out) if out else LaurentPoly()

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        """Division by an exact scalar only; invert units with ``** -1``."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("polynomial powers must be integers")
        if k < 0:
            if not self.is_unit():
                raise DivisionByZero(
                    "negative powers are only defined for single-term polynomials"
                )
            ((mon, c),) = self.terms.items()
            return LaurentPoly({mon ** k: Fraction(1) / c ** (-k)})
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted((m.exps, c) for m, c in self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- substitution and evaluation --------------------------------------

    def substitute(self, name: str, value) -> "LaurentPoly":
        """Replace one variable by a polynomial value.

        If the variable occurs with a negative or half-integer exponent the
        value must be a single-term unit (or a nonzero constant) so the
        power stays inside the ring.
        """
        value = LaurentPoly.coerce(value)
        out = LaurentPoly()
        for mon, c in self.terms.items():
            e = mon.degree_in(name)
            if e == 0:
                out = out + LaurentPoly({mon: c})
                continue
            rest = LaurentPoly({mon.without(name): c})
            if isinstance(e, int):
                out = out + rest * value ** e
            else:
                # half-integer exponent: the value must itself be a power of q
                if not value.is_unit():
                    raise ValueError(
                        "cannot substitute a non-unit under a half-integer exponent"
                    )
                ((vm, vc),) = value.terms.items()
                if vc != 1 or not vm.variables() <= {RESIDUE_CARDINALITY_VAR}:
                    raise ValueError(
                        "half-integer exponents only support substitution by "
                        f"powers of {RESIDUE_CARDINALITY_VAR!r}"
                    )
                new_exp = _norm_exp(Fraction(vm.degree_in(RESIDUE_CARDINALITY_VAR)) * e)
                out = out + rest * qpow(new_exp)
        return out

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Evaluate exactly at a full set of rational variable bindings.

        A binding that is not an int or Fraction raises TypeError.  Half
        exponents require an exact square root and raise InexactSquareRoot
        otherwise.
        """
        names = self.variables()
        missing = [v for v in names if v not in bindings]
        if missing:
            raise UnboundVariable(f"no binding for {sorted(missing)!r}")
        inexact = sorted(v for v in names if not isinstance(bindings[v], (int, Fraction)))
        if inexact:
            raise TypeError(f"bindings for {inexact!r} are not rational")
        total = Fraction(0)
        for mon, c in self.terms.items():
            acc = c
            for v, e in mon.exps:
                acc = acc * _rational_power(Fraction(bindings[v]), e, v)
            total += acc
        return total

    # -- serialization ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].exps)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``3/2*q^(-1/2)*a1^2 + 1``."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (mon, c) in enumerate(self.sorted_terms()):
            body = "*".join(
                v if e == 1 else f"{v}^{_text_exp(e)}" for v, e in mon.exps
            )
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if i == 0:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f" + {piece}" if c > 0 else f" - {piece}")
        return "".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"

    _TERM_RE = re.compile(
        r"^(?P<coeff>-?\d+(?:/\d+)?)?"
        r"(?P<vars>(?:\*?[A-Za-z_][A-Za-z0-9_]*(?:\^(?:-?\d+|\(-?\d+(?:/\d+)?\)))?)*)$"
    )
    _FACTOR_RE = re.compile(
        r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(?:(-?\d+)|\((-?\d+(?:/\d+)?)\)))?"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form back into a polynomial."""
        s = text.strip()
        if s == "0":
            return cls.zero()
        s = s.replace(" - ", " + -")
        total = cls.zero()
        for raw in s.split(" + "):
            raw = raw.strip()
            if not raw:
                raise ValueError(f"empty term in {text!r}")
            neg = raw.startswith("-")
            if neg:
                raw = raw[1:]
            m = cls._TERM_RE.match(raw)
            if not m or (m.group("coeff") is None and not m.group("vars")):
                raise ValueError(f"cannot parse term {raw!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if neg:
                coeff = -coeff
            exps = []
            for name, int_exp, frac_exp in cls._FACTOR_RE.findall(m.group("vars")):
                if int_exp:
                    exps.append((name, int(int_exp)))
                elif frac_exp:
                    exps.append((name, Fraction(frac_exp)))
                else:
                    exps.append((name, 1))
            total = total + cls({Monomial(exps): coeff})
        return total

    def to_json_obj(self) -> list:
        return [
            {
                "coeff": str(c),
                "exps": {v: str(e) for v, e in mon.exps},
            }
            for mon, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "LaurentPoly":
        total: dict[Monomial, Fraction] = {}
        for term in obj:
            mon = Monomial((v, _norm_exp(Fraction(e))) for v, e in term["exps"].items())
            total[mon] = total.get(mon, Fraction(0)) + Fraction(term["coeff"])
        return cls(total)


def _rational_power(base: Fraction, e: Scalar, name: str) -> Fraction:
    if isinstance(e, int):
        if e >= 0:
            return base ** e
        if base == 0:
            raise DivisionByZero(f"zero binding for {name!r} under negative power")
        return base ** e
    # half-integer exponent: need an exact square root of base
    if base < 0:
        raise NegativeUnderHalfExponent(
            f"binding for {name!r} is negative under a half-integer exponent"
        )
    num_r = math.isqrt(base.numerator)
    den_r = math.isqrt(base.denominator)
    if num_r * num_r != base.numerator or den_r * den_r != base.denominator:
        raise InexactSquareRoot(
            f"binding {base} for {name!r} has no exact square root"
        )
    root = Fraction(num_r, den_r)
    k = e.numerator  # denominator is 2, so base^e = root^numerator
    if k < 0 and root == 0:
        raise DivisionByZero(f"zero binding for {name!r} under negative power")
    return root ** k


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def qpow(e) -> LaurentPoly:
    """Shorthand for a power of the residue-cardinality variable q."""
    e = _norm_exp(Fraction(e))
    if e == 0:
        return LaurentPoly.one()
    return LaurentPoly.var(RESIDUE_CARDINALITY_VAR, e)


class TruncatedSeries:
    """A power series in one distinguished variable, truncated at a fixed order.

    coeffs[k] is the coefficient of var^k and never mentions var itself.
    Arithmetic truncates to the shorter order of the two operands.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence):
        if not isinstance(var, str) or not var:
            raise ValueError("series variable must be a nonempty string")
        coeffs = tuple(LaurentPoly.coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the order-0 coefficient")
        for k, c in enumerate(coeffs):
            if var in c.variables():
                raise ValueError(
                    f"coefficient of {var}^{k} mentions the series variable"
                )
        self.var = var
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, var: str, order: int) -> "TruncatedSeries":
        return cls(var, [LaurentPoly.one()] + [LaurentPoly.zero()] * order)

    @classmethod
    def from_poly(cls, p, var: str, order: int) -> "TruncatedSeries":
        """Read a polynomial as a series, truncating degrees beyond the order."""
        p = LaurentPoly.coerce(p)
        coeffs = [LaurentPoly.zero() for _ in range(order + 1)]
        for e, c in p.coefficients_in(var).items():
            if not isinstance(e, int) or e < 0:
                raise NotExpandable(
                    f"{var} occurs with exponent {e}, so this is not a power series"
                )
            if e <= order:
                coeffs[e] = c
        return cls(var, coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.var, self.coeffs[: order + 1])

    def _align(self, other) -> tuple["TruncatedSeries", "TruncatedSeries"]:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a TruncatedSeries, got {type(other).__name__}")
        if other.var != self.var:
            raise VariableMismatch(
                f"series in {self.var!r} combined with series in {other.var!r}"
            )
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = TruncatedSeries.from_poly(LaurentPoly.coerce(other), self.var, self.order)
        a, b = self._align(other)
        return TruncatedSeries(a.var, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.var, [-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = TruncatedSeries.from_poly(LaurentPoly.coerce(other), self.var, self.order)
        a, b = self._align(other)
        return TruncatedSeries(a.var, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            if self.var not in other.variables():
                return TruncatedSeries(self.var, [c * other for c in self.coeffs])
            other = TruncatedSeries.from_poly(other, self.var, self.order)
        a, b = self._align(other)
        n = a.order
        out = [LaurentPoly.zero() for _ in range(n + 1)]
        for i, ci in enumerate(a.coeffs):
            if ci.is_zero():
                continue
            for j in range(0, n - i + 1):
                cj = b.coeffs[j]
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return TruncatedSeries(a.var, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        if not isinstance(k, int) or k < 0:
            raise TypeError("series powers must be nonnegative integers")
        result = TruncatedSeries.one(self.var, self.order)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

    def is_one(self) -> bool:
        return self.coeffs[0] == LaurentPoly.one() and all(
            c.is_zero() for c in self.coeffs[1:]
        )

    def to_text(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({c.to_text()})*{self.var}^{k}" if k else f"({c.to_text()})")
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f" + O({self.var}^{self.order + 1})"

    __str__ = to_text

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.to_text()})"

    def to_json_obj(self) -> dict:
        return {
            "var": self.var,
            "order": self.order,
            "coeffs": [c.to_text() for c in self.coeffs],
        }


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact coefficient agreement up to the shorter of the two orders."""
    if not isinstance(a, TruncatedSeries) or not isinstance(b, TruncatedSeries):
        raise TypeError("series_equal compares two TruncatedSeries")
    if a.var != b.var:
        raise VariableMismatch(f"series in {a.var!r} compared with series in {b.var!r}")
    n = min(a.order, b.order)
    return all(a.coeffs[k] == b.coeffs[k] for k in range(n + 1))


def geometric_series(ratio: LaurentPoly, var: str, order: int) -> TruncatedSeries:
    """Expansion of 1/(1 - ratio*var) without going through division."""
    ratio = LaurentPoly.coerce(ratio)
    coeffs = [LaurentPoly.one()]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncatedSeries(var, coeffs)
