"""Ground ring tests: exact Laurent arithmetic, bar involution, text format."""

import hypothesis.strategies as st
from hypothesis import given

from qmatalg.laurent import (
    ONE,
    Q,
    QINV,
    ZERO,
    ExactDivisionError,
    LaurentInt,
    _add_into,
    _add_product,
    _add_term,
    format_laurent,
    lau_div_exact,
    parse_laurent,
)

import pytest


def L(text):
    return parse_laurent(text)


laurents = st.builds(
    lambda d: LaurentInt(d),
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)


def test_mul_difference_of_squares():
    assert L("q - 1") * L("q + 1") == L("q^2 - 1")


def test_bar_swaps_exponents():
    assert L("q^2 + 3*q").bar() == L("q^-2 + 3*q^-1")
    assert ONE.bar() == ONE


def test_eval_q1_of_symmetric_difference():
    assert L("q^2 - 2 + q^-2").eval_q1() == 0
    assert L("5*q^3 - 2*q^-1").eval_q1() == 3


def test_add_cancels_to_zero():
    assert L("q - 1") + L("1 - q") == ZERO
    assert not (L("q") - Q)


def test_coefficients_exceed_64_bits():
    # (1 + q)^80 has central coefficient C(80, 40) > 2^64; exactness must survive.
    p = ONE
    for _ in range(80):
        p = p * L("1 + q")
    assert p.terms[40] > 2**64
    assert p.eval_q1() == 2**80


def test_q_constants():
    assert Q * QINV == ONE
    assert LaurentInt.q_power(-3) == L("q^-3")
    assert LaurentInt.from_int(-7) == L("- 7")


def test_constants_hash_as_their_ints():
    # a constant compares equal to its int, so sets and dicts must merge them
    assert hash(ONE) == hash(1) and hash(ZERO) == hash(0)
    assert hash(L("- 7")) == hash(-7)
    assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
    assert len({Q, QINV, ONE, L("1 + q")}) == 4


def test_format_examples():
    assert format_laurent(L("q^2 - 2 + q^-2")) == "q^2 - 2 + q^-2"
    assert format_laurent(ZERO) == "0"
    assert format_laurent(-Q) == "-q"
    assert format_laurent(L("2*q^5 + q - 3 + 4*q^-2")) == "2*q^5 + q - 3 + 4*q^-2"


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_laurent("q +")
    with pytest.raises(ValueError):
        parse_laurent("2q")
    with pytest.raises(ValueError):
        parse_laurent("")
    # stacked signs, and a term after a term with no sign between them
    for bad in ["- -1", "--q", "1 - - 1", "+-q", "q q", "2 q", "q*q", "q^ 2"]:
        with pytest.raises(ValueError, match="position"):
            parse_laurent(bad)


def test_the_exponent_bound_is_pinned():
    makers = (lambda e: LaurentInt({e: 1}), LaurentInt.q_power,
              lambda e: parse_laurent(f"q^{e}"))
    for make in makers:
        for e in (2**31, -(2**31)):
            with pytest.raises(OverflowError):
                make(e)
        for e in (2**31 - 1, -(2**31 - 1)):
            assert make(e).terms == {e: 1}


def test_div_exact_basic():
    a = L("q^2 - 1")
    assert lau_div_exact(a, L("q - 1")) == L("q + 1")
    assert lau_div_exact(a, L("q + 1")) == L("q - 1")
    with pytest.raises(ExactDivisionError):
        lau_div_exact(L("q + 1"), L("2"))
    with pytest.raises(ExactDivisionError):
        lau_div_exact(L("q^2 + 1"), L("q + 1"))


def test_div_exact_laurent_shift():
    a = L("q^-3 - q^-5")
    b = L("q^-4")
    assert lau_div_exact(a, b) == L("q - q^-1")


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents, laurents, st.integers(-9, 9))
def test_int_operands_and_cancellation(a, b, n):
    c = LaurentInt.from_int(n)
    results = [a + n, n + a, a - n, n - a, a - b, (a - b) + b]
    assert results[:4] == [a + c, c + a, a - c, c - a]
    assert (a - b) + b == a
    for r in results:
        assert isinstance(r, LaurentInt)
        assert 0 not in r.terms.values()


def test_parse_drops_cancelled_terms():
    assert parse_laurent("q - q").terms == {}
    assert parse_laurent("2*q^3 - q^3 - q^3").terms == {}


@given(laurents, laurents)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(laurents, laurents)
def test_eval_q1_is_homomorphism(a, b):
    assert (a * b).eval_q1() == a.eval_q1() * b.eval_q1()
    assert (a + b).eval_q1() == a.eval_q1() + b.eval_q1()


@given(laurents)
def test_text_round_trip(a):
    assert parse_laurent(format_laurent(a)) == a


@given(laurents, laurents)
def test_div_exact_inverts_mul(a, b):
    if b:
        assert lau_div_exact(a * b, b) == a


@given(laurents, laurents, laurents, st.sampled_from(["absent", "given", "cancelling"]))
def test_add_product_is_adding_the_product(a, b, c, prev_kind):
    prev = {"absent": None, "given": c, "cancelling": -(a * b)}[prev_kind]
    terms = {"before": Q}
    if prev:
        terms["key"] = prev
    terms["after"] = QINV
    plain = dict(terms)
    _add_term(plain, "key", a * b)
    inputs = [a, b, c] + ([prev] if prev is not None else [])
    before = [list(x.terms.items()) for x in inputs]
    _add_product(terms, "key", a, b)
    # same keys in the same order, with equal sums
    assert list(terms.items()) == list(plain.items())
    assert [list(x.terms.items()) for x in inputs] == before
    if "key" in terms:
        assert terms["key"] is not prev
        assert 0 not in terms["key"].terms.values()
    if not prev and not a * b:
        assert "key" not in terms
    if prev_kind == "cancelling":
        assert "key" not in terms


@given(laurents, laurents, st.integers(-9, 9))
def test_add_is_the_termwise_sum(a, b, n):
    before = [dict(a.terms), dict(b.terms)]
    want = {e: a.terms.get(e, 0) + b.terms.get(e, 0) for e in set(a.terms) | set(b.terms)}
    got = a + b
    assert got.terms == {e: c for e, c in want.items() if c}
    assert 0 not in got.terms.values()
    assert (a + -a).terms == {}
    assert (n + a).terms == (a + LaurentInt.from_int(n)).terms
    # neither operand is written, and the sum shares no dict with them
    assert [a.terms, b.terms] == before
    assert got.terms is not a.terms and got.terms is not b.terms


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6),
       laurents)
def test_add_into_adds_in_place(out, a):
    want = (LaurentInt(out) + a).terms
    assert _add_into(out, a.terms) is out
    assert out == want
