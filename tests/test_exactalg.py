"""Exact arithmetic core: ring laws, round trips, truncated series."""

import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactalg_reference as ref
from series_helpers import from_poly, same_series
from whitlocal import exactalg
from whitlocal.exactalg import (
    DivisionByZero,
    EXPONENT_LIMIT,
    ExponentOutOfRange,
    LaurentPoly,
    RationalFunction,
    TruncatedSeries,
    VariableMismatch,
    qpow,
    sum_of_products,
)
from whitlocal.reciprocity import SymbolicMatrix

X = LaurentPoly.var("x")
Y = LaurentPoly.var("y")


def _term(exps: dict, c=1) -> LaurentPoly:
    return LaurentPoly({tuple(exps.items()): c})


def packed(r: ref.LaurentPoly) -> LaurentPoly:
    """The packed polynomial equal to a reference one."""
    return LaurentPoly({m.exps: c for m, c in r.terms.items()})


def _powers(ratio: LaurentPoly, var: str, order: int) -> TruncatedSeries:
    """1/(1 - ratio*var) through the order, from the list of powers of ratio."""
    return TruncatedSeries(var, [ratio ** k for k in range(order + 1)])


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def monomial_exps(draw, with_q=True, nonneg=False):
    low = 0 if nonneg else -3
    exps = {}
    for v in ("x", "y"):
        e = draw(st.integers(low, 3))
        if e:
            exps[v] = e
    if with_q:
        half = draw(st.integers(2 * low, 6))
        if half:
            exps["q"] = Fraction(half, 2)
    return exps


@st.composite
def polys(draw, with_q=True, nonneg=False):
    total = LaurentPoly.zero()
    for _ in range(draw(st.integers(0, 5))):
        c = draw(fractions)
        total = total + _term(draw(monomial_exps(with_q, nonneg)), c)
    return total


class TestRingLaws:
    @settings(max_examples=200)
    @given(polys(), polys(), polys())
    def test_add_mul_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200)
    @given(polys())
    def test_identities_and_negation(self, a):
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a + (-a) == LaurentPoly.zero()
        assert a - a == LaurentPoly.zero()
        assert a * LaurentPoly.zero() == LaurentPoly.zero()

    @given(polys())
    def test_scalar_division(self, a):
        assert (a / 3) * 3 == a
        with pytest.raises(DivisionByZero):
            a / 0

    @pytest.mark.parametrize("s", [3, Fraction(-2, 3)])
    def test_a_scalar_operand_on_either_side(self, s):
        p = X + 1
        c = LaurentPoly.const(s)
        assert p + s == s + p == p + c
        assert p - s == p - c and s - p == c - p
        assert p * s == s * p == p * c
        assert p / s == p * LaurentPoly.const(1 / Fraction(s))
        assert p == p + 0 and LaurentPoly.const(s) == s

    def test_a_foreign_operand_is_refused(self):
        # LaurentPoly.coerce refuses it for + - *; / and == leave it to Python
        p = X + 1
        for apply in (lambda: p + "x", lambda: "x" + p, lambda: p - "x", lambda: "x" - p,
                      lambda: p * "x", lambda: "x" * p, lambda: p / "x", lambda: p * 1.5):
            with pytest.raises(TypeError):
                apply()
        with pytest.raises(TypeError, match="cannot interpret 'x' as a Laurent polynomial"):
            p + "x"
        assert (p == "x") is False
        assert (p != "x") is True

    def test_unit_negative_power(self):
        u = _term({"x": 2, "q": Fraction(-1, 2)}, Fraction(3, 4))
        assert u ** -1 * u == LaurentPoly.one()
        # a base of several terms has no power at all, not even a positive one
        for k in (-1, 0, 2):
            with pytest.raises(ValueError, match="single-term bases"):
                (X + Y) ** k

    def test_zero_base_powers(self):
        zero = LaurentPoly.zero()
        assert zero ** 0 == LaurentPoly.one()
        assert zero ** 3 == zero
        with pytest.raises(DivisionByZero):
            zero ** -1

    def test_as_fraction_reads_constants_only(self):
        assert LaurentPoly.zero().as_fraction() == 0
        assert LaurentPoly.const(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
        for p in (X, X + 1, qpow(Fraction(1, 2))):
            with pytest.raises(ValueError, match="is not a constant"):
                p.as_fraction()


# The w-names are interned by the examples that first draw them, mid-test,
# and in no particular order, so slot order and name order differ; X and Y
# sort before every lowercase name.
ORACLE_NAMES = ("x", "y", "q", "X", "Y") + tuple(f"w{i}" for i in range(8))
# fields at the limit: biased, +EXPONENT_LIMIT is 2^32 - 1 and -EXPONENT_LIMIT is 1
LIMIT_FIELDS = (EXPONENT_LIMIT, EXPONENT_LIMIT - 1, 1 - EXPONENT_LIMIT, -EXPONENT_LIMIT)


@st.composite
def term_lists(draw, max_terms=5, names=ORACLE_NAMES, at_limit=False):
    """(exponents, coefficient) pairs, with negative and half-q exponents.

    A term has up to 6 names, so runs of absent names lie between present
    ones.  With at_limit, a field may also hold one of LIMIT_FIELDS, so the
    terms can be rendered and sorted but not multiplied.
    """
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {}
        for name in draw(st.lists(st.sampled_from(names), max_size=6, unique=True)):
            # the field: twice the exponent on q, the exponent elsewhere
            if at_limit and draw(st.booleans()):
                f = draw(st.sampled_from(LIMIT_FIELDS))
            else:
                f = draw(st.integers(-6, 6) if name == "q" else st.integers(-3, 3))
            exps[name] = Fraction(f, 2) if name == "q" else f
        terms.append((exps, draw(fractions)))
    return terms


def build(kernel, terms):
    total = kernel.LaurentPoly.zero()
    for exps, c in terms:
        # the packed kernel keys a term by its exponent tuple, the reference by a Monomial
        key = tuple(exps.items()) if kernel is exactalg else ref.Monomial(exps.items())
        total = total + kernel.LaurentPoly({key: c})
    return total


def both(terms):
    return build(exactalg, terms), build(ref, terms)


def same_outcome(new_fn, ref_fn, text=lambda v: v.to_text()):
    """Both kernels give the same text, or raise exceptions of the same name."""
    try:
        want = text(ref_fn())
    except Exception as exc:  # noqa: BLE001 - compared by name below
        with pytest.raises(Exception) as got:
            new_fn()
        assert type(got.value).__name__ == type(exc).__name__
        return
    assert text(new_fn()) == want


class TestAgainstReference:
    """The packed kernel against the dict-of-Monomial kernel it replaced.

    Text is canonical, so equal text means equal values in equal order.
    """

    @settings(max_examples=200)
    @given(term_lists(), term_lists(), st.integers(0, 3))
    def test_sums_products_powers(self, ta, tb, k):
        (a, ra), (b, rb) = both(ta), both(tb)
        assert a.to_text() == ra.to_text()
        assert (a + b).to_text() == (ra + rb).to_text()
        assert (a - b).to_text() == (ra - rb).to_text()
        assert (a * b).to_text() == (ra * rb).to_text()
        # a power of several terms is built by products; __pow__ refuses it
        power = LaurentPoly.one()
        for _ in range(k):
            power = power * a
        assert power.to_text() == (ra ** k).to_text()
        assert (a / 3).to_text() == (ra / 3).to_text()
        if len(a.terms) <= 1:
            assert (a ** k).to_text() == power.to_text()
            same_outcome(lambda: a ** -k, lambda: ra ** -k)
        else:
            with pytest.raises(ValueError, match="single-term bases"):
                a ** k

    @settings(max_examples=200)
    @given(st.lists(st.tuples(term_lists(max_terms=3), term_lists(max_terms=3)), max_size=4),
           st.sampled_from(("drawn", "cancelled", "integral")))
    def test_sum_of_products(self, drawn, twist):
        pairs = [(both(ta), both(tb)) for ta, tb in drawn]
        if twist == "cancelled":
            # each product and its negative: the sum cancels in full
            pairs += [((-a, -ra), (b, rb)) for (a, ra), (b, rb) in pairs]
        elif twist == "integral" and pairs:
            # a/7 * b and 6a/7 * b, with a and b scaled to integer
            # coefficients: Fraction products whose sum is integral
            (a, ra), (b, rb) = pairs[0]
            a, ra, b, rb = a * 60, ra * 60, b * 60, rb * 60
            pairs = [((a / 7, ra / 7), (b, rb)),
                     ((a * Fraction(6, 7), ra * Fraction(6, 7)), (b, rb))]
        got = sum_of_products((a, b) for (a, _), (b, _) in pairs)
        want = ref.LaurentPoly.zero()
        for (_, ra), (_, rb) in pairs:
            want = want + ra * rb
        assert got.to_text() == want.to_text()
        # the bound is the largest of the pairs that have no zero operand
        assert got._span == max((a._span + b._span for (a, _), (b, _) in pairs
                                 if a.terms and b.terms), default=0)
        # a Fraction coefficient that sums to an integer is stored as an int
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
        if twist == "cancelled":
            assert got.is_zero()
        elif twist == "integral":
            assert all(type(c) is int for c in got.terms.values())

    @settings(max_examples=100)
    @given(st.integers(0, 3), st.data())
    def test_series_products(self, order, data):
        names = tuple(name for name in ORACLE_NAMES if name != "X")
        sides = [[both(data.draw(term_lists(max_terms=3, names=names))) for _ in range(order + 1)]
                 for _ in range(2)]
        a, b = (TruncatedSeries("X", [p for p, _ in side]) for side in sides)
        ra, rb = (ref.TruncatedSeries("X", [r for _, r in side]) for side in sides)
        assert [c.to_text() for c in (a * b).coeffs] == [c.to_text() for c in (ra * rb).coeffs]

    @settings(max_examples=100)
    @given(st.integers(1, 3), st.data())
    def test_matrix_products(self, size, data):
        entries = [[[both(data.draw(term_lists(max_terms=2))) for _ in range(size)]
                    for _ in range(size)] for _ in range(2)]
        a, b = (SymbolicMatrix([[p for p, _ in row] for row in m]) for m in entries)
        ra, rb = ([[r for _, r in row] for row in m] for m in entries)
        got = a * b
        for i in range(size):
            for j in range(size):
                want = ref.LaurentPoly.zero()
                for k in range(size):
                    want = want + ra[i][k] * rb[k][j]
                assert got.rows[i][j].to_text() == want.to_text()

    @given(term_lists(max_terms=1), st.integers(1, 4))
    def test_negative_powers_of_units(self, t, k):
        a, ra = both(t)
        same_outcome(lambda: a ** -k, lambda: ra ** -k)
        if a.is_unit():
            assert (a ** -k * a ** k) == LaurentPoly.one()

    @settings(max_examples=200)
    @given(term_lists(), term_lists(max_terms=2), st.sampled_from(ORACLE_NAMES))
    def test_substitute(self, t, tv, name):
        (a, ra), (v, rv) = both(t), both(tv)
        if len(v.terms) > 1:
            # a value of several terms is refused before anything else
            with pytest.raises(ValueError, match="single-term or zero value"):
                a.substitute(name, v)
        elif all(isinstance(m.degree_in(name), int) for m in ra.terms):
            same_outcome(lambda: a.substitute(name, v), lambda: ra.substitute(name, rv))
        else:
            # only an integer power of the name may be substituted
            with pytest.raises(ValueError, match="under the exponent"):
                a.substitute(name, v)

    @given(term_lists(), st.sampled_from(ORACLE_NAMES + ("unseen",)))
    def test_coefficients_in(self, t, name):
        a, ra = both(t)
        got = {e: c.to_text() for e, c in a.coefficients_in(name).items()}
        assert got == {e: c.to_text() for e, c in ra.coefficients_in(name).items()}

    @settings(max_examples=200)
    @given(term_lists(at_limit=True))
    def test_text_json_and_parse(self, t):
        a, ra = both(t)
        assert a.to_json_obj() == ra.to_json_obj()
        assert ref.LaurentPoly.parse(a.to_text()) == ra
        assert ref.LaurentPoly.from_json_obj(a.to_json_obj()) == ra

    @settings(max_examples=200)
    @given(term_lists(at_limit=True))
    def test_min_monomial_and_sort_order(self, t):
        a, ra = both(t)
        assert a.sorted_terms() == [(m.exps, c) for m, c in ra.sorted_terms()]
        # the first sorted term is the least monomial
        mons = [exps for exps, _ in a.sorted_terms()]
        if ra.terms:
            assert mons[0] == ra.min_monomial().exps
        assert sorted(reversed(mons)) == mons
        assert a.variables() == ra.variables()


def test_rendering_the_4x4_denominator_adds_under_4_mb():
    # Sorting the 16,145 terms must not build a tuple per term, which adds
    # about 7.5 MB.  The peak is the child's VmHWM: ru_maxrss of a child
    # also counts the memory of the process that started it.
    code = ("from whitlocal.localrep import UnramifiedRep\n"
            "from whitlocal.zeta import l_factor_denominator\n"
            "def peak_kb():\n"
            "    return int(next(line.split()[1] for line in open('/proc/self/status')\n"
            "                    if line.startswith('VmHWM:')))\n"
            "den = l_factor_denominator(UnramifiedRep.symbolic(4, 'a'),\n"
            "                           UnramifiedRep.symbolic(4, 'b'), 'X')\n"
            "assert len(den.terms) == 16145\n"
            "before = peak_kb()\n"
            "text = den.to_text()\n"
            "print(peak_kb() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 4 * 1024


# x and y take slots 1 and 2, then argv[1] unrelated names take the slots above
RANKED_PROBE = """
import json, sys
from fractions import Fraction
from whitlocal import exactalg
from whitlocal.exactalg import FIELD_BITS, LaurentPoly, qpow
x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
for i in range(int(sys.argv[1])):
    LaurentPoly.var(f"fresh{i}")
p = (x * y ** -2 - 7 * x ** 3 + qpow(Fraction(-3, 2)) * y) * (qpow(Fraction(1, 2)) + y)
bias = exactalg._ranked(p.terms)[2]
top = max(exactalg._SLOTS[name] for name in "qxy")
print(json.dumps({"narrow": bias.bit_length() <= FIELD_BITS * (top + 1),
                  "text": p.to_text(), "sorted": repr(p.sorted_terms()),
                  "variables": sorted(p.variables())}))
"""


def test_decoding_scans_only_the_slots_the_keys_use():
    # names interned after a polynomial's variables must not widen its bias
    fresh, crowded = (
        json.loads(subprocess.run([sys.executable, "-c", RANKED_PROBE, str(n)],
                                  capture_output=True, text=True, check=True).stdout)
        for n in (0, 400)
    )
    assert crowded["narrow"] and fresh["narrow"]
    assert crowded == fresh
    assert fresh["variables"] == ["q", "x", "y"]


def test_pickles_by_variable_name(monkeypatch):
    p = packed(ref.LaurentPoly.parse("2*q^(1/2)*x - 1/3*y^(-1)"))
    blob = pickle.dumps(p)
    # another process may have given y the slot that x has here
    monkeypatch.setattr(exactalg, "_SLOTS", {"q": 0})
    monkeypatch.setattr(exactalg, "_NAMES", ["q"])
    LaurentPoly.var("y")
    back = pickle.loads(blob)
    assert back.to_text() == "2*q^(1/2)*x - 1/3*y^(-1)"
    assert back.sorted_terms()[0][0] == (("q", Fraction(1, 2)), ("x", 1))


def test_pickles_a_power_at_the_field_limit():
    # a product of var factors would be refused here: x^L * y^L sums to 2L
    p = 3 * (X * Y) ** EXPONENT_LIMIT - qpow(Fraction(-EXPONENT_LIMIT, 2))
    back = pickle.loads(pickle.dumps(p))
    assert back == p
    assert back.to_text() == p.to_text()
    assert back._span == EXPONENT_LIMIT


class TestExponentField:
    def test_just_inside_the_field(self):
        # a product is admitted when its operands' bounds sum to the limit
        top = LaurentPoly.var("x", EXPONENT_LIMIT - 1) * X
        assert top.to_text() == f"x^{EXPONENT_LIMIT}"
        low = LaurentPoly.var("x", 1 - EXPONENT_LIMIT) * LaurentPoly.var("x", -1)
        assert low.to_text() == f"x^(-{EXPONENT_LIMIT})"
        assert qpow(Fraction(EXPONENT_LIMIT, 2)).to_text() == f"q^({EXPONENT_LIMIT}/2)"
        assert (LaurentPoly.var("x", 2 ** 30 - 1) ** 2).to_text() == f"x^{2 ** 31 - 2}"
        # a single-term power is checked field by field: x*y*z carries a
        # summed bound of 3, but each field of its power is 800000000
        xyz = X * Y * LaurentPoly.var("z")
        assert (xyz ** 800000000).to_text() == "x^800000000*y^800000000*z^800000000"

    def test_a_refused_field_of_q_says_it_holds_twice_the_exponent(self):
        with pytest.raises(ExponentOutOfRange, match=r"^the exponent field of 'q' would hold "
                           r"2147483648 \(twice its exponent\), beyond the limit 2147483647$"):
            qpow(2 ** 30)
        with pytest.raises(ExponentOutOfRange, match=r"^the exponent field of 'x' would hold "
                           r"2147483648, beyond the limit 2147483647$"):
            LaurentPoly.var("x", 2 ** 31)

    def test_just_outside_the_field(self):
        refused = "a field of the product may reach"
        with pytest.raises(ExponentOutOfRange, match=refused):
            LaurentPoly.var("x", EXPONENT_LIMIT - 1) * X * Y
        top = LaurentPoly.var("x", EXPONENT_LIMIT)
        with pytest.raises(ExponentOutOfRange, match=refused):
            top * X
        with pytest.raises(ExponentOutOfRange, match=refused):
            LaurentPoly.var("x", -EXPONENT_LIMIT) * LaurentPoly.var("x", -1)
        # the square of a sum is a product: its summed bound is 2^31
        total = LaurentPoly.var("x", 2 ** 30) + 1
        with pytest.raises(ExponentOutOfRange, match=refused):
            total * total
        with pytest.raises(ExponentOutOfRange, match="'x'"):
            LaurentPoly.var("x", EXPONENT_LIMIT + 1)
        with pytest.raises(ExponentOutOfRange, match="'q'"):
            qpow(Fraction(EXPONENT_LIMIT + 1, 2))
        with pytest.raises(ExponentOutOfRange, match="'x'"):
            LaurentPoly.var("x", 2 ** 30) ** -2
        with pytest.raises(ExponentOutOfRange, match="'y'"):
            (X * Y ** 2) ** 2 ** 30

    def test_var_is_built_without_decoding_a_key(self, monkeypatch):
        # decoding costs one shift per slot, so a variable at a high slot
        # would cost time in the number of names interned before it
        names = [f"v{i}" for i in range(200)]
        with monkeypatch.context() as m:
            m.setattr(exactalg, "_power_span", None)
            built = [LaurentPoly.var(name, -2) for name in names] + [qpow(Fraction(3, 2))]
        assert built == [packed(ref.LaurentPoly.parse(f"{name}^(-2)")) for name in names] + [
            packed(ref.LaurentPoly.parse("q^(3/2)"))
        ]
        with pytest.raises(ValueError, match="half-integer"):
            LaurentPoly.var("v1", Fraction(1, 2))

    def test_constructor_refuses_what_var_refuses(self):
        # each term's fields are summed per slot, so repeated names multiply
        assert LaurentPoly({(("x", 2), ("q", Fraction(1, 2)), ("x", -1)): 3}) == (
            3 * qpow(Fraction(1, 2)) * X)
        assert LaurentPoly({(("x", EXPONENT_LIMIT), ("x", -1)): 1}) == LaurentPoly.var(
            "x", EXPONENT_LIMIT - 1)
        # no product is formed, so no summed bound applies, and the bound it
        # carries is its largest field: 1 for x/y and 0 for a constant
        assert LaurentPoly({(("x", EXPONENT_LIMIT), ("y", EXPONENT_LIMIT)): 1}) == (
            (X * Y) ** EXPONENT_LIMIT)
        almost = LaurentPoly.var("x", EXPONENT_LIMIT - 1)
        assert (LaurentPoly({(("x", 1), ("y", -1)): 1}) * almost).to_text() == (
            f"x^{EXPONENT_LIMIT}*y^(-1)")
        assert (LaurentPoly({(): 3}) * (almost * X)).to_text() == f"3*x^{EXPONENT_LIMIT}"
        # terms with one key collect, and a Fraction that sums to an integer is an int
        collected = LaurentPoly({(("x", 1), ("y", 1)): Fraction(1, 2), (("y", 1), ("x", 1)): Fraction(3, 2),
                                 (("x", 1),): 1, (("x", 2), ("x", -1)): -1})
        assert collected == 2 * X * Y
        assert [type(c) for c in collected.terms.values()] == [int]
        with pytest.raises(ValueError, match="half-integer"):
            LaurentPoly({(("x", Fraction(1, 2)),): 1})
        with pytest.raises(ExponentOutOfRange):
            LaurentPoly({(("x", EXPONENT_LIMIT + 1),): 1})
        with pytest.raises(ExponentOutOfRange):
            LaurentPoly({(("x", EXPONENT_LIMIT), ("x", 1)): 1})
        with pytest.raises(ValueError, match="variable name"):
            LaurentPoly({(("3x", 1),): 1})

    def test_a_bound_is_a_value_error(self):
        assert issubclass(ExponentOutOfRange, ValueError)

    @pytest.mark.parametrize("name", ["3x", "x*y", "", "x y", "\u00e9"])
    def test_names_outside_the_grammar_are_refused(self, name):
        with pytest.raises(ValueError):
            LaurentPoly.var(name)
        with pytest.raises(ValueError):
            TruncatedSeries(name, [1])


class TestSumOfProducts:
    def test_only_a_zero_operand_escapes_the_bound(self):
        top = LaurentPoly.var("x", EXPONENT_LIMIT)
        # a zero that carries the largest bound
        zero = top - top
        assert zero.is_zero() and zero._span == EXPONENT_LIMIT
        refused = "a field of the product may reach"
        for pair in ((zero, top), (top, zero)):
            assert sum_of_products([pair]).is_zero()
            assert (pair[0] * pair[1]).is_zero()
            with pytest.raises(ExponentOutOfRange, match=refused):
                sum_of_products([pair, (top, X)])
            with pytest.raises(ExponentOutOfRange, match=refused):
                sum_of_products([(top, X), pair])

    def test_pairs_are_read_one_at_a_time(self):
        def pairs():
            yield X, Y
            yield LaurentPoly.var("x", EXPONENT_LIMIT), X
            raise AssertionError("a pair after the refused one was read")

        with pytest.raises(ExponentOutOfRange):
            sum_of_products(pairs())

    def test_empty_sums_and_integral_fractions(self):
        empty = sum_of_products([])
        assert empty.is_zero() and empty._span == 0
        half = LaurentPoly.const(Fraction(1, 2))
        got = sum_of_products([(half, X), (X, half), (Y, Y ** -1)])
        assert got == X + 1
        assert [type(c) for c in got.terms.values()] == [int, int]


class TestMonomialSum:
    def test_sums_counted_products_of_single_terms(self):
        half = LaurentPoly.const(Fraction(-1, 2))
        got = LaurentPoly.monomial_sum([X, Y ** -1, half], {(2, 0, 0): 2, (1, 1, 1): 3, (0, 0, 2): 4})
        assert got == 2 * X ** 2 - Fraction(3, 2) * X * Y ** -1 + 1
        # a Fraction coefficient that sums to an integer is stored as an int
        assert type(got.terms[0]) is int

    def test_equal_products_collect(self):
        minus = LaurentPoly.const(-1)
        assert LaurentPoly.monomial_sum([X, minus], {(1, 0): 1, (1, 1): 1}).is_zero()
        assert LaurentPoly.monomial_sum([X, X], {(1, 0): 2, (0, 1): 3}) == 5 * X

    def test_refuses_values_that_are_not_one_term(self):
        for value in (X + Y, LaurentPoly.zero()):
            with pytest.raises(ValueError, match="single-term"):
                LaurentPoly.monomial_sum([X, value], {(1, 0): 1})

    def test_the_field_bound_holds_at_the_limit(self):
        top = LaurentPoly.var("x", EXPONENT_LIMIT)
        assert LaurentPoly.monomial_sum([top, Y], {(1, 0): 1}) == top
        with pytest.raises(ExponentOutOfRange):
            LaurentPoly.monomial_sum([LaurentPoly.var("x", 2 ** 30)], {(2,): 1})
        # a constant holds no field, so it takes any power
        assert LaurentPoly.monomial_sum([LaurentPoly.one()], {(EXPONENT_LIMIT + 1,): 1}) == 1


class TestTextAndJson:
    @settings(max_examples=200)
    @given(polys())
    def test_text_round_trip(self, a):
        assert packed(ref.LaurentPoly.parse(a.to_text())) == a

    @given(polys())
    def test_json_round_trip(self, a):
        text = json.dumps(a.to_json_obj())
        assert packed(ref.LaurentPoly.from_json_obj(json.loads(text))) == a

    def test_canonical_examples(self):
        p = LaurentPoly.one() + _term({"a1": 2, "q": Fraction(-1, 2)}, Fraction(3, 2))
        assert p.to_text() == "1 + 3/2*a1^2*q^(-1/2)"
        assert packed(ref.LaurentPoly.parse("1 + 3/2*a1^2*q^(-1/2)")) == p
        assert packed(ref.LaurentPoly.parse("-x + 2")) == LaurentPoly.const(2) - X
        assert packed(ref.LaurentPoly.parse("0")) == LaurentPoly.zero()

    def test_text_is_deterministic(self):
        p = X * Y + qpow(Fraction(1, 2)) * X - LaurentPoly.const(Fraction(1, 3))
        assert p.to_text() == packed(ref.LaurentPoly.parse(p.to_text())).to_text()


class TestSubstituteEvaluate:
    @given(polys(with_q=False, nonneg=True), polys(with_q=False, nonneg=True))
    def test_substitution_is_linear(self, f, g):
        for val in (Y * Fraction(-2, 3), LaurentPoly.const(2), LaurentPoly.zero()):
            got = (f + g).substitute("x", val)
            assert got == f.substitute("x", val) + g.substitute("x", val)

    def test_substitute_polynomial(self):
        f = X ** 2 + X + LaurentPoly.one()
        assert f.substitute("x", Y * 2) == Y * Y * 4 + Y * 2 + LaurentPoly.one()
        assert f.substitute("x", 0) == LaurentPoly.one()
        # a value of several terms is refused, even where every power is positive
        with pytest.raises(ValueError, match="single-term or zero value"):
            f.substitute("x", Y + LaurentPoly.one())

    def test_substitute_negative_power_needs_unit(self):
        f = LaurentPoly.var("x", -1)
        assert f.substitute("x", Y * 2) == LaurentPoly.var("y", -1) / 2
        with pytest.raises(DivisionByZero):
            f.substitute("x", 0)
        with pytest.raises(ValueError, match="single-term or zero value"):
            f.substitute("x", Y + LaurentPoly.one())

    def test_substitute_under_a_half_exponent_is_refused(self):
        # even a power of q may not replace q under a half-integer exponent
        for f in (qpow(Fraction(3, 2)), X * qpow(Fraction(-1, 2)) + Y):
            with pytest.raises(ValueError, match="under the exponent"):
                f.substitute("q", qpow(2))
        assert (qpow(2) * X).substitute("q", qpow(Fraction(1, 2))) == qpow(1) * X

    # Evaluation is the reference kernel's: the packed values it evaluates
    # reach it through their canonical text.
    @given(polys(), polys())
    def test_evaluate_is_multiplicative(self, f, g):
        bindings = {"x": Fraction(2, 3), "y": Fraction(-3), "q": Fraction(9, 4)}
        fg, rf, rg = (ref.LaurentPoly.parse(p.to_text()) for p in (f * g, f, g))
        assert fg.evaluate(bindings) == rf.evaluate(bindings) * rg.evaluate(bindings)

    def test_evaluate_exact_square_root(self):
        p = ref.LaurentPoly.parse(qpow(Fraction(1, 2)).to_text())
        assert p.evaluate({"q": Fraction(1, 4)}) == Fraction(1, 2)
        assert p.evaluate({"q": 9}) == 3
        with pytest.raises(ref.InexactSquareRoot):
            p.evaluate({"q": 2})
        with pytest.raises(ref.NegativeUnderHalfExponent):
            p.evaluate({"q": -4})

    def test_evaluate_float_mode(self):
        # evaluation is exact only: a float or complex binding is refused
        p = ref.LaurentPoly.parse((qpow(Fraction(1, 2)) * X).to_text())
        with pytest.raises(TypeError):
            p.evaluate({"q": 2.0, "x": 3})
        with pytest.raises(TypeError):
            p.evaluate({"q": 4, "x": 3 + 0j})
        assert p.evaluate({"q": 4, "x": 3}) == 6

    def test_evaluate_zero_under_negative_power(self):
        p = ref.LaurentPoly.parse(LaurentPoly.var("x", -2).to_text())
        with pytest.raises(ref.DivisionByZero):
            p.evaluate({"x": 0})


class TestRationalFunction:
    def test_json_round_trip(self):
        # a quotient as written: nothing is normalized or cancelled
        rf = RationalFunction(X + Y, LaurentPoly.one() * 2 - X * Y)
        obj = rf.to_json_obj()
        assert obj == {
            "num": [{"coeff": "1", "exps": {"x": "1"}}, {"coeff": "1", "exps": {"y": "1"}}],
            "den": [{"coeff": "2", "exps": {}}, {"coeff": "-1", "exps": {"x": "1", "y": "1"}}],
        }
        assert packed(ref.LaurentPoly.from_json_obj(obj["num"])) == rf.num
        assert packed(ref.LaurentPoly.from_json_obj(obj["den"])) == rf.den


class TestTruncatedSeries:
    def test_coefficients_must_not_mention_var(self):
        with pytest.raises(ValueError):
            TruncatedSeries("x", [X])
        # a scalar factor is a coefficient too: a series is never a polynomial in var
        with pytest.raises(ValueError, match="mentions the series variable"):
            TruncatedSeries.one("x", 3) * X

    def test_from_poly_rejects_negative_powers(self):
        x_inv = LaurentPoly.var("x", -1)
        with pytest.raises(ValueError, match="not a power series"):
            from_poly(x_inv, "x", 3)
        for factor in (x_inv, x_inv + Y):
            with pytest.raises(ValueError, match="mentions the series variable"):
                TruncatedSeries.one("x", 3) * factor

    def test_product_needs_the_same_order(self):
        a = _powers(Y, "x", 5)
        b = TruncatedSeries.one("x", 3)
        with pytest.raises(VariableMismatch, match="'x' to order 5 times series in 'x' to order 3"):
            a * b
        with pytest.raises(VariableMismatch, match="order 3 times .* order 5"):
            b * a
        assert same_series(a * TruncatedSeries.one("x", 5), a)

    def test_scalar_multiplication(self):
        half = LaurentPoly.const(Fraction(1, 2))
        s = _powers(LaurentPoly.one(), "x", 4) * half
        assert s.coeffs[3] == half
        assert (s * LaurentPoly.const(2)).coeffs[3] == LaurentPoly.one()
        # a scalar factor is a LaurentPoly on the right, never on the left
        # and never a bare number
        with pytest.raises(TypeError):
            LaurentPoly.const(2) * s
        for number in (2, Fraction(1, 2)):
            with pytest.raises(TypeError):
                s * number
            with pytest.raises(TypeError):
                number * s

    def test_is_one_reads_every_coefficient(self):
        assert TruncatedSeries.one("x", 2).is_one()
        for k in range(3):
            coeffs = [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero()]
            coeffs[k] += Y
            assert not TruncatedSeries("x", coeffs).is_one()

    def test_product_needs_same_variable(self):
        a = TruncatedSeries.one("x", 2)
        b = TruncatedSeries.one("t", 2)
        with pytest.raises(VariableMismatch, match="'x' to order 2 times series in 't'"):
            a * b
        assert not same_series(a, b)

    def test_json_round_trip(self):
        s = _powers(qpow(Fraction(-1, 2)) * Y, "x", 3)
        obj = s.to_json_obj()
        assert obj == {
            "var": "x",
            "order": 3,
            "coeffs": ["1", "q^(-1/2)*y", "q^(-1)*y^2", "q^(-3/2)*y^3"],
        }
        back = TruncatedSeries(obj["var"],
                               [packed(ref.LaurentPoly.parse(c)) for c in obj["coeffs"]])
        assert same_series(back, s)


def _times(series: TruncatedSeries, den: LaurentPoly) -> TruncatedSeries:
    return series * from_poly(den, series.var, series.order)


class TestSeriesExpand:
    """Expansions of num/den, checked as the program checks them: times den."""

    def test_geometric(self):
        assert _times(_powers(Y, "x", 6), LaurentPoly.one() - X * Y).is_one()

    def test_long_division_oracle(self):
        # (1 - x^2) / (1 - x) = 1 + x
        series = from_poly(LaurentPoly.one() + X, "x", 6)
        want = from_poly(LaurentPoly.one() - X ** 2, "x", 6)
        assert same_series(_times(series, LaurentPoly.one() - X), want)

    def test_two_factor_denominator(self):
        z = LaurentPoly.var("z")
        coeffs = []
        for k in range(5):
            want = LaurentPoly.zero()
            for i in range(k + 1):
                want = want + Y ** i * z ** (k - i)
            coeffs.append(want)
        den = (LaurentPoly.one() - X * Y) * (LaurentPoly.one() - X * z)
        assert _times(TruncatedSeries("x", coeffs), den).is_one()
        # a wrong coefficient shows up in the product
        coeffs[3] = coeffs[3] + Y
        assert not _times(TruncatedSeries("x", coeffs), den).is_one()

    @given(polys(with_q=False, nonneg=True), st.integers(0, 5))
    def test_expand_times_denominator_recovers_numerator(self, num, order):
        den = LaurentPoly.one() - X * Y
        series = from_poly(num, "x", order)
        assert same_series(_times(series, den), from_poly(num * den, "x", order))

    def test_half_exponent_coefficients_survive(self):
        # q^(-1/2) / (1 - q^(1/2) x) = sum_k q^((k-1)/2) x^k
        series = TruncatedSeries("x", [qpow(Fraction(k - 1, 2)) for k in range(4)])
        got = _times(series, LaurentPoly.one() - qpow(Fraction(1, 2)) * X)
        assert same_series(got, from_poly(qpow(Fraction(-1, 2)), "x", 3))
