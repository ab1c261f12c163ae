"""Exact arithmetic substrate for the whole library.

Everything downstream (Schur polynomials, spherical Whittaker values, local
zeta series, parameter bookkeeping) computes inside these immutable types:

  LaurentPoly     a finite rational linear combination of monomials, stored
                  as a dict from packed exponent keys (below) to
                  coefficients, with zero coefficients never present.  A
                  coefficient is an int when it is integral and a Fraction
                  only when it is not.  Outside the kernel a monomial is a
                  tuple of (name, exponent) pairs sorted by name, with zero
                  exponents dropped.  Exponents are integers, except on the
                  designated residue-cardinality variable ``q`` where
                  half-integers are allowed; this is where modulus-character
                  square roots like delta_B^(1/2) live, so no floating point
                  ever enters.
  TruncatedSeries a power series in one distinguished variable, truncated
                  at a fixed order, whose coefficients are LaurentPolys
                  not mentioning that variable.
  RationalFunction
                  a numerator and a denominator as written, for emission
                  only: it has no arithmetic.

There is no series inversion: an identity "this series equals 1/den" is
checked by multiplying the series by den, truncated, and comparing with 1.

Packed keys.  Each variable owns a FIELD_BITS-wide signed field of one
Python int, at the slot the intern table gives its name: the key of
prod v^e_v is sum e_v * 2^(FIELD_BITS * slot_v).  The field of ``q`` holds
twice its exponent, so half powers of q are integers too.  The product of
two monomials is then the sum of their keys: one integer addition, with no
merge, sort or validation.  The intern table maps names to slots in order
of first use (``q`` always holds slot 0); it is this module's only
process-wide state, and it checks a name against the identifier grammar of the text
form, [A-Za-z_][A-Za-z0-9_]*, once, when the name enters the table.

Field bound.  A field may hold values up to EXPONENT_LIMIT in absolute
value (so |exponent| < 2^31, and < 2^30 on q).  Every polynomial carries an
upper bound on its largest field; before a product starts, the operands'
bounds (made exact if their sum is too large) must add up to at most the
limit, or ExponentOutOfRange is raised.  So a field never carries into its
neighbour.

Sums of monomial products.  LaurentPoly.monomial_sum(values, weights)
builds sum count * prod values_i^(w_i) over a {w: count} map at
single-term values, the form of a Schur value by pattern counts; it is
how symfunc evaluates schur, and it makes no polynomial product: each
term's key is sum w_i * key_i.  It refuses any value that is not a single
term, and checks the largest weight total times the largest field of a
value against the limit before it forms any key, so the packed keys stay
inside this module.

Keys are put in canonical (name, exponent) order only where order or
names matter: text and JSON emission and sorted_terms.  One decoder,
_ordered, serves all three.  It cuts the used slots, in name order, into
groups of _GROUP and decodes each distinct group value once, into a dict
entry that holds the group's sort chunks, its factor text and its
(name, exponent) pairs as values and as text; a key is then read by one mask and one lookup per
group, not by one shift and compare per slot.  Each key sorts by one int,
a chunk per used slot in name order, so a sort makes no per-term tuple.
_ranked, which variables and the emitters use, scans only the slots up to
the highest one the keys use, so names interned after a polynomial's
variables cost its decoding nothing.  coefficients_in reads a single
slot's field, as the TruncatedSeries constructor does, and substitute
goes through coefficients_in.  There is no parser and no evaluator.

All values are immutable and all operations are pure: they return new
objects and never mutate their inputs.  Serialization (text and JSON) is
deterministic because terms are always emitted in the canonical monomial
order.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

# Only this variable may carry half-integer exponents.
RESIDUE_CARDINALITY_VAR = "q"

Scalar = Union[int, Fraction]
# a monomial: (name, exponent) pairs sorted by name, zero exponents dropped
Exps = tuple[tuple[str, Scalar], ...]

FIELD_BITS = 32
# the largest absolute value a field may hold; q's field holds twice its exponent
EXPONENT_LIMIT = (1 << (FIELD_BITS - 1)) - 1

_MASK = (1 << FIELD_BITS) - 1
_HALF = 1 << (FIELD_BITS - 1)

# The intern table: the slot of each variable name, and the names by slot.
_SLOTS: dict[str, int] = {RESIDUE_CARDINALITY_VAR: 0}
_NAMES: list[str] = [RESIDUE_CARDINALITY_VAR]


class DivisionByZero(ZeroDivisionError):
    """A zero value was raised to a negative power or used as a divisor."""


class VariableMismatch(ValueError):
    """Two truncated series in different variables or to different orders were multiplied."""


class InexactDivision(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class ExponentOutOfRange(ValueError):
    """An exponent would leave its packed field (beyond EXPONENT_LIMIT)."""


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


def _coeff(c) -> Scalar:
    """A coefficient as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# -- packed keys ------------------------------------------------------------


def _slot(name) -> int:
    """The field slot of a variable name, interning a new name."""
    slot = _SLOTS.get(name)
    if slot is None:
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise ValueError(
                f"variable name must match [A-Za-z_][A-Za-z0-9_]*, got {name!r}"
            )
        _NAMES.append(name)
        # append and index are atomic, so threads interning one name agree on its slot
        slot = _SLOTS.setdefault(name, _NAMES.index(name))
    return slot


def _bias(slot: int) -> int:
    """_HALF in every field up to the slot: adding it makes those fields nonnegative."""
    return _HALF * ((1 << (FIELD_BITS * (slot + 1))) - 1) // _MASK


def _fields(key: int) -> list[tuple[int, int]]:
    """(slot, field) for every nonzero field of a packed key, lowest slot first."""
    out = []
    slot = 0
    while key:
        f = ((key + _HALF) & _MASK) - _HALF
        if f:
            out.append((slot, f))
            key -= f
        key >>= FIELD_BITS
        slot += 1
    return out


def _exponent(name: str, f: int) -> Scalar:
    """The exponent a field stands for: half of it on q."""
    if name != RESIDUE_CARDINALITY_VAR:
        return f
    return f >> 1 if not f & 1 else Fraction(f, 2)


def _check_field(slot: int, f: int) -> None:
    if abs(f) > EXPONENT_LIMIT:
        held = " (twice its exponent)" if slot == 0 else ""
        raise ExponentOutOfRange(
            f"the exponent field of {_NAMES[slot]!r} would hold {f}{held}, "
            f"beyond the limit {EXPONENT_LIMIT}"
        )


def _product_span(a: Iterable[int], b: Iterable[int]) -> int:
    """The largest field of any product of a key of a and a key of b.

    Raises ExponentOutOfRange, before any product is formed, when one of
    those fields would leave its range.
    """
    ranges = []
    for keys in (a, b):
        r: dict[int, list[int]] = {}  # slot -> [lowest, highest] field, 0 included
        for key in keys:
            for slot, f in _fields(key):
                lo_hi = r.setdefault(slot, [0, 0])
                if f < lo_hi[0]:
                    lo_hi[0] = f
                elif f > lo_hi[1]:
                    lo_hi[1] = f
        ranges.append(r)
    ra, rb = ranges
    span = 0
    for slot in ra.keys() | rb.keys():
        lo_a, hi_a = ra.get(slot, (0, 0))
        lo_b, hi_b = rb.get(slot, (0, 0))
        for f in (lo_a + lo_b, hi_a + hi_b):
            _check_field(slot, f)
            span = max(span, abs(f))
    return span


def _power_span(key: int, k: int) -> int:
    """The largest field of the k-th power of a key; raises beyond the limit."""
    span = 0
    for slot, f in _fields(key):
        _check_field(slot, f * k)
        span = max(span, abs(f * k))
    return span


def _to_field(name: str, e: Scalar) -> int:
    """The field that holds exponent e of an interned name, range-checked."""
    if name == RESIDUE_CARDINALITY_VAR:
        f = int(2 * e)
    elif isinstance(e, int):
        f = e
    else:
        raise ValueError(
            f"half-integer exponent on {name!r}; only "
            f"{RESIDUE_CARDINALITY_VAR!r} may carry half powers"
        )
    _check_field(_SLOTS[name], f)
    return f


def _ranked(keys) -> tuple[list[str], list[int], int]:
    """How to decode a set of keys in canonical order.

    Returns the names of the slots the keys use, sorted; the field shift of
    each of them, in that order; and the bias that makes every field
    nonnegative.  Only the slots up to the highest one a key uses are
    scanned: the key of largest absolute value is one that uses it, and
    its bit length lies in that slot's field.
    """
    n = max(map(abs, keys), default=0).bit_length() // FIELD_BITS + 1
    bias = _bias(n - 1)
    hi, lo = 0, -1
    for key in keys:
        u = key + bias
        hi |= u
        lo &= u
    # a slot is unused when every key holds _HALF there after the bias
    used = sorted(
        (_NAMES[slot], FIELD_BITS * slot)
        for slot in range(n)
        if (hi >> (FIELD_BITS * slot) & _MASK) != _HALF
        or (lo >> (FIELD_BITS * slot) & _MASK) != _HALF
    )
    return [name for name, _ in used], [shift for _, shift in used], bias


# A sort key has one chunk per used slot, a bit wider than a field, so that
# _GAP, the chunk of a zero field with a nonzero one after it, is above every
# biased field.
_CHUNK_BITS = FIELD_BITS + 1
_GAP = 1 << FIELD_BITS
# the used slots, in name order, that one dict lookup decodes
_GROUP = 3


def _ordered(terms: Mapping[int, Scalar]) -> tuple[list[int], dict[int, tuple], int, list[int]]:
    """The keys in canonical order, and how to decode them.

    Returns the group masks in name order, the decoded groups, the bias
    and the sorted keys.  The used slots in name order are cut into groups
    of _GROUP; a group's value in a key is ``(key + bias) & mask``, and
    decoded[value] is (sort chunk when a later field is nonzero, sort chunk
    when none is, factor text, (name, exponent) pairs, (name, exponent
    text) pairs).  A factor text holds "*name^exponent" per nonzero field.  decoded holds every group
    value of every key, so a key costs one lookup per group.

    Each key sorts by one int of _CHUNK_BITS-bit chunks, one per used slot
    in name order: a nonzero field's chunk is its biased value, in
    1 .. 2^FIELD_BITS - 1; a zero field's chunk is _GAP when a later field
    is nonzero and 0 when none is.  So a tuple that ends sorts before one
    that goes on, and an absent name after a present one, as in the
    canonical (name, exponent) order; q's field orders like its exponent.
    """
    names, shifts, bias = _ranked(terms)
    # each used slot's name, field shift and sort chunk position
    slots = [(name, shift, _CHUNK_BITS * (len(names) - 1 - j))
             for j, (name, shift) in enumerate(zip(names, shifts))]
    masks = [sum(_MASK << shift for _, shift, _ in slots[i:i + _GROUP])
             for i in range(0, len(slots), _GROUP)]
    # decoded before the sort, so that no entry is allocated among the sort
    # keys, where it would keep their memory from reuse once they are freed
    decoded = {v: _decode(v, slots) for mask in masks
               for v in {(key + bias) & mask for key in terms}}
    backwards = masks[::-1]

    def sort_key(key: int) -> int:
        u = key + bias
        out = 0
        for mask in backwards:
            out += decoded[u & mask][not out]
        return out

    return masks, decoded, bias, sorted(terms, key=sort_key)


def _decode(v: int, slots: list[tuple[str, int, int]]) -> tuple:
    """The entry of _ordered's decoded for one group value.

    A slot of another group holds 0 in v, a zero field of the group _HALF.
    """
    later, last, text, pairs, texts = 0, 0, "", (), ()
    for name, shift, at in slots:
        b = v >> shift & _MASK
        if b == _HALF:
            later |= _GAP << at
        elif b:
            last = later = later | b << at
            e = _exponent(name, b - _HALF)
            # e.g. "*a1", "*a1^2", "*a1^(-2)", "*q^(1/2)"
            text += (f"*{name}" if e == 1 else f"*{name}^{e}" if type(e) is int and e > 0
                     else f"*{name}^({e})")
            pairs += ((name, e),)
            texts += ((name, str(e)),)
    return later, last, text, pairs, texts


_new = object.__new__


def _poly(terms: dict[int, Scalar], span: int) -> "LaurentPoly":
    """A LaurentPoly around a dict that is already clean: nonzero, normalized."""
    p = _new(LaurentPoly)
    p.terms = terms
    p._span = span
    return p


class LaurentPoly:
    """A multivariate Laurent polynomial with rational coefficients.

    The zero polynomial is the empty dict; a stored coefficient is never
    zero, so structural equality of the dicts is arithmetic equality.
    ``terms`` maps packed keys to coefficients; ``_span`` bounds the
    absolute value of every field of every key.
    """

    __slots__ = ("terms", "_span")

    def __init__(self, terms: Mapping[Exps, Scalar] | None = None):
        total = LaurentPoly.zero()
        for exps, c in (terms or {}).items():
            term = LaurentPoly.const(c)
            for name, e in exps:
                term = term * LaurentPoly.var(name, e)
            total = total + term
        self.terms: dict[int, Scalar] = total.terms
        self._span = total._span

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly({}, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _poly({0: 1}, 0)

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        c = _coeff(c)
        return _poly({0: c} if c else {}, 0)

    @classmethod
    def var(cls, name: str, exp: Scalar = 1) -> "LaurentPoly":
        # built directly: decoding a key costs one shift per slot below it
        slot = _slot(name)
        f = _to_field(name, _norm_exp(exp))
        return _poly({f << (FIELD_BITS * slot): 1}, abs(f))

    @staticmethod
    def coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot interpret {x!r} as a Laurent polynomial")

    @staticmethod
    def monomial_sum(values: Sequence[LaurentPoly], weights: Mapping[tuple, int]) -> LaurentPoly:
        """sum over {w: count} of count * prod_i values_i^(w_i), at single-term values.

        A weight has one nonnegative entry per value.  A value that is not
        a single term raises ValueError.  Before any key is formed, the
        largest weight total times the largest field of a value must be
        within EXPONENT_LIMIT, or ExponentOutOfRange is raised.
        """
        span = 0
        for v in values:
            if not v.is_unit():
                raise ValueError(f"monomial_sum takes single-term values, got {v.to_text()}")
            span = max(span, v._span)
        bound = max(map(sum, weights)) * span
        if bound > EXPONENT_LIMIT:
            raise ExponentOutOfRange(f"a field of the sum may reach {bound}, beyond {EXPONENT_LIMIT}")
        keys = [next(iter(v.terms)) for v in values]
        coeffs = [v.terms[key] for v, key in zip(values, keys)]
        out: dict[int, Scalar] = {}
        for w, count in weights.items():
            key = sum(map(mul, keys, w))
            out[key] = out.get(key, 0) + count * prod(map(pow, coeffs, w))
        return _poly({key: _coeff(c) for key, c in out.items() if c}, bound)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff the polynomial is a single nonzero term (hence invertible)."""
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_coefficient(self) -> Fraction:
        return Fraction(self.terms.get(0, 0))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.constant_coefficient()

    def variables(self) -> frozenset[str]:
        if not self.terms:
            return frozenset()
        return frozenset(_ranked(self.terms)[0])

    def coefficients_in(self, name: str) -> dict[Scalar, "LaurentPoly"]:
        """Split into coefficients of powers of one variable.

        Returns {exponent: coefficient} where each coefficient no longer
        mentions the variable.
        """
        slot = _SLOTS.get(name)
        if slot is None:
            return {0: self} if self.terms else {}
        bias = _bias(slot)
        shift = FIELD_BITS * slot
        buckets: dict[int, dict[int, Scalar]] = {}
        for key, c in self.terms.items():
            f = ((key + bias) >> shift & _MASK) - _HALF
            buckets.setdefault(f, {})[key - (f << shift)] = c
        return {_exponent(name, f): _poly(b, self._span) for f, b in buckets.items()}

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
        get = out.get
        for key, c in other.terms.items():
            s = get(key, 0) + c
            if s:
                out[key] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[key]
        return _poly(out, max(self._span, other._span))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _poly({key: -c for key, c in self.terms.items()}, self._span)

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
            return LaurentPoly.zero()
        span = self._span + other._span
        if span > EXPONENT_LIMIT:
            span = _product_span(self.terms, other.terms)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b_items = b.items()
        out: dict[int, Scalar] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b_items:
                key = ka + kb
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        # a Fraction coefficient may have summed to an integer: demote it
        if Fraction in set(map(type, out.values())):
            for key, c in out.items():
                if type(c) is not int and c.denominator == 1:
                    out[key] = c.numerator
        return _poly(out, span)

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
            ((key, c),) = self.terms.items()
            span = _power_span(key, k)
            return _poly({key * k: _coeff(Fraction(1) / c ** (-k))}, span)
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

    __hash__ = None

    def __reduce__(self):
        # no command pickles a polynomial (a worker gets a suite name and a
        # SuiteConfig, and returns a SuiteReport of strings and ints), but
        # pickle would otherwise copy the slots, whose packed keys name
        # variables by this process's intern order; by name they load anywhere
        return LaurentPoly, (dict(self.sorted_terms()),)

    # -- substitution ---------------------------------------------------

    def substitute(self, name: str, value) -> "LaurentPoly":
        """Replace one variable by a polynomial value.

        The variable must occur with integer exponents only, or ValueError
        is raised; where one is negative the value must be a single-term
        unit (or a nonzero constant) so the power stays inside the ring.
        """
        value = LaurentPoly.coerce(value)
        parts = self.coefficients_in(name)
        for e in parts:
            if not isinstance(e, int):
                raise ValueError(f"cannot substitute for {name!r} under the exponent {e}")
        out = LaurentPoly()
        for e, c in parts.items():
            out = out + c * value ** e
        return out

    # -- serialization ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exps, Scalar]]:
        masks, decoded, bias, keys = _ordered(self.terms)
        return [(sum([decoded[(key + bias) & mask][3] for mask in masks], ()), self.terms[key])
                for key in keys]

    def to_text(self) -> str:
        """Canonical text form, e.g. ``3/2*q^(-1/2)*a1^2 + 1``."""
        if not self.terms:
            return "0"
        masks, decoded, bias, keys = _ordered(self.terms)
        terms = self.terms
        parts: list[str] = []
        for key in keys:
            u = key + bias
            factors = "".join([decoded[u & mask][2] for mask in masks])
            c = terms[key]
            mag = abs(c)
            piece = factors[1:] if mag == 1 and factors else f"{mag}{factors}"
            if parts:
                parts.append(f" + {piece}" if c > 0 else f" - {piece}")
            else:
                parts.append(piece if c > 0 else f"-{piece}")
        return "".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"

    def to_json_obj(self) -> list:
        masks, decoded, bias, keys = _ordered(self.terms)
        return [{"coeff": str(self.terms[key]),
                 "exps": dict(sum([decoded[(key + bias) & mask][4] for mask in masks], ()))}
                for key in keys]


def qpow(e) -> LaurentPoly:
    """Shorthand for a power of the residue-cardinality variable q."""
    return LaurentPoly.var(RESIDUE_CARDINALITY_VAR, e)


class RationalFunction:
    """A numerator and a denominator as written, for emission only.

    No arithmetic, no normalization and no equality: a quotient is checked
    by multiplying through by its denominator, never by dividing.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        self.num = num
        self.den = den

    def to_json_obj(self) -> dict:
        return {"num": self.num.to_json_obj(), "den": self.den.to_json_obj()}


class TruncatedSeries:
    """A power series in one distinguished variable, truncated at a fixed order.

    coeffs[k] is the coefficient of var^k and never mentions var itself.
    Two series multiply only in the same variable and to the same order.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence):
        slot = _slot(var)
        coeffs = tuple(LaurentPoly.coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the order-0 coefficient")
        # the field of var in each key, read as coefficients_in reads it
        bias, shift = _bias(slot), FIELD_BITS * slot
        for k, c in enumerate(coeffs):
            if any((key + bias) >> shift & _MASK != _HALF for key in c.terms):
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

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, LaurentPoly):
            return TruncatedSeries(self.var, [c * other for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a TruncatedSeries, got {type(other).__name__}")
        if other.var != self.var or other.order != self.order:
            raise VariableMismatch(
                f"series in {self.var!r} to order {self.order} times "
                f"series in {other.var!r} to order {other.order}"
            )
        n = self.order
        out = [LaurentPoly.zero() for _ in range(n + 1)]
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j in range(0, n - i + 1):
                cj = other.coeffs[j]
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return TruncatedSeries(self.var, out)

    __rmul__ = __mul__

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
