"""Normal-form engine tests.

Confluence of the oriented rewrite system is never assumed.  It is proven
by resolving every overlap of two rules (the diamond lemma), and exercised
three more ways: multiply must be associative on random triples, the
count of normal words per degree must match the commutative monomial grid
(and the hook-tableau sum), and products of basis words must span each
graded component at full rank.  Two-letter normal forms derived by hand
are frozen below, and every defining relation is additionally checked in
its unsolved orientation, where the left side is often already normal and
the right side has to collapse onto it.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qmatalg import qalgebra
from qmatalg.exactla import CoeffMatrix, rank
from qmatalg.hookcomb import dims_check, verify_presentation_flatness
from qmatalg.invariants import classical_presentation
from qmatalg.laurent import ONE, Q, QINV, LaurentInt, _add_term
from qmatalg.qalgebra import (
    AlgebraPresentation,
    GenIndex,
    NCElement,
    _add_word_products,
    _misoriented,
    _unresolved_overlaps,
    format_element,
    graded_basis,
    is_normal,
    multiply,
    normal_form,
    normal_form_stats,
    parse_element,
    presentation_M,
    presentation_Mbar,
    presentation_Mtilde,
    presentation_P,
)
from qmatalg.rmat_hecke import hecke_check

QMQI = Q - QINV


def gen(pres, fam, a, b):
    return pres.generator(fam, a, b)


def word_of(pres, fam, *entries):
    return NCElement.from_word(tuple(pres.gen_id(fam, a, b) for a, b in entries))


def nf(e, pres):
    return normal_form(e, pres)


M11 = presentation_M(1, 1, 1, 1)
MB11 = presentation_Mbar(1, 1, 1, 1)
MT11 = presentation_Mtilde(1, 1, 1, 1)
MT20 = presentation_Mtilde(2, 0, 2, 0)
P1011 = presentation_P(1, 0, 1, 0, 1, 1)
P1111 = presentation_P(1, 1, 1, 1, 1, 1)

ALL_PRES = [
    M11,
    MB11,
    MT11,
    presentation_M(2, 0, 2, 0),
    presentation_Mbar(2, 1, 1, 2),
    presentation_Mtilde(2, 1, 2, 1),
    P1011,
    P1111,
    presentation_P(2, 0, 2, 0, 2, 0),
]


# ------------------------------------------------------- frozen normal forms


def test_two_letter_M():
    assert nf(word_of(M11, "T", (2, 1), (1, 1)), M11) == word_of(M11, "T", (1, 1), (2, 1)).scaled(Q)
    assert nf(word_of(M11, "T", (1, 2), (1, 1)), M11) == word_of(M11, "T", (1, 1), (1, 2)).scaled(Q)
    assert nf(word_of(M11, "T", (1, 2), (1, 2)), M11).is_zero()
    expected = word_of(M11, "T", (1, 1), (2, 2)) - word_of(M11, "T", (2, 1), (1, 2)).scaled(QMQI)
    assert nf(word_of(M11, "T", (2, 2), (1, 1)), M11) == expected


def test_two_letter_Mbar():
    got = nf(word_of(MB11, "Tb", (2, 1), (1, 1)), MB11)
    assert got == word_of(MB11, "Tb", (1, 1), (2, 1)).scaled(QINV)
    got = nf(word_of(MB11, "Tb", (1, 2), (1, 1)), MB11)
    assert got == word_of(MB11, "Tb", (1, 1), (1, 2)).scaled(QINV)
    expected = word_of(MB11, "Tb", (1, 1), (2, 2)) + word_of(MB11, "Tb", (2, 1), (1, 2)).scaled(QMQI)
    assert nf(word_of(MB11, "Tb", (2, 2), (1, 1)), MB11) == expected


def test_two_letter_Mtilde():
    # same column matches M, same row matches Mbar
    assert nf(word_of(MT11, "Tt", (2, 1), (1, 1)), MT11) == word_of(MT11, "Tt", (1, 1), (2, 1)).scaled(Q)
    assert nf(word_of(MT11, "Tt", (1, 2), (1, 1)), MT11) == word_of(MT11, "Tt", (1, 1), (1, 2)).scaled(QINV)
    # doubly descending pair swaps plainly; the correction moved to the mixed case
    assert nf(word_of(MT20, "Tt", (2, 2), (1, 1)), MT20) == word_of(MT20, "Tt", (1, 1), (2, 2))
    expected = word_of(MT20, "Tt", (2, 1), (1, 2)) - word_of(MT20, "Tt", (1, 1), (2, 2)).scaled(QMQI)
    assert nf(word_of(MT20, "Tt", (1, 2), (2, 1)), MT20) == expected


def test_two_letter_P_cross():
    lhs = multiply(gen(P1011, "Tb", 1, 1), gen(P1011, "T", 1, 1), P1011)
    expected = NCElement.from_word(
        (P1011.gen_id("T", 1, 1), P1011.gen_id("Tb", 1, 1)), QINV
    ) - NCElement.from_word((P1011.gen_id("T", 1, 2), P1011.gen_id("Tb", 1, 2)), QMQI)
    assert lhs == expected
    # odd shared column inverts the constant and brings a sign
    got = multiply(gen(P1011, "Tb", 1, 2), gen(P1011, "T", 1, 2), P1011)
    assert got == NCElement.from_word(
        (P1011.gen_id("T", 1, 2), P1011.gen_id("Tb", 1, 2)), -Q
    )
    # distinct columns swap plainly
    got = multiply(gen(P1011, "Tb", 1, 2), gen(P1011, "T", 1, 1), P1011)
    assert got == NCElement.from_word((P1011.gen_id("T", 1, 1), P1011.gen_id("Tb", 1, 2)))
    # no higher column, no correction tail
    p = presentation_P(1, 0, 1, 0, 1, 0)
    got = multiply(gen(p, "Tb", 1, 1), gen(p, "T", 1, 1), p)
    assert got == NCElement.from_word((p.gen_id("T", 1, 1), p.gen_id("Tb", 1, 1)), QINV)


# ------------------------------------------- relations in printed orientation


def _par(i, even):
    return 0 if i <= even else 1


def _sg(e):
    return 1 if e % 2 == 0 else -1


def _qpow(e):
    return LaurentInt.q_power(e)


def _check_matrix_relations(pres, fam, er, ec, nrows, ncols, kind):
    """All defining relations of one matrix family, unsolved orientation."""
    w = lambda *ent: word_of(pres, fam, *ent)
    rows = range(1, nrows + 1)
    cols = range(1, ncols + 1)
    colsign = -1 if kind == "Mb" else 1
    rowsign = 1 if kind == "M" else -1
    for a in rows:
        for b in cols:
            if (_par(a, er) + _par(b, ec)) % 2:
                assert nf(w((a, b), (a, b)), pres).is_zero()
    for c in cols:
        for a in rows:
            for b in rows:
                if a <= b:
                    continue
                eps = _sg((_par(a, er) + _par(c, ec)) * (_par(b, er) + _par(c, ec)))
                qc = _qpow(colsign * (1 if _par(c, ec) == 0 else -1))
                lhs = w((a, c), (b, c))
                rhs = w((b, c), (a, c)).scaled(eps * qc)
                assert nf(lhs - rhs, pres).is_zero()
    for a in rows:
        for b in cols:
            for c in cols:
                if b <= c:
                    continue
                eps = _sg((_par(a, er) + _par(c, ec)) * (_par(a, er) + _par(b, ec)))
                qa = _qpow(rowsign * (1 if _par(a, er) == 0 else -1))
                lhs = w((a, b), (a, c))
                rhs = w((a, c), (a, b)).scaled(eps * qa)
                assert nf(lhs - rhs, pres).is_zero()
    for a in rows:
        for b in rows:
            if a <= b:
                continue
            for c in cols:
                for d in cols:
                    if c == d:
                        continue
                    eps = _sg((_par(a, er) + _par(c, ec)) * (_par(b, er) + _par(d, ec)))
                    lhs = w((a, c), (b, d))
                    rhs = w((b, d), (a, c)).scaled(eps)
                    tail_sign = _sg(_par(a, er) * (_par(b, er) + _par(d, ec)) + _par(b, er) * _par(d, ec))
                    tail = w((b, c), (a, d)).scaled(tail_sign * QMQI)
                    if kind == "M":
                        if c > d:
                            rhs = rhs + tail
                    elif kind == "Mb":
                        if c > d:
                            rhs = rhs - tail
                    else:
                        if c < d:
                            rhs = rhs + tail
                    assert nf(lhs - rhs, pres).is_zero()


@pytest.mark.parametrize("k,l,r,s", [(1, 1, 1, 1), (2, 1, 1, 2)])
def test_relations_M(k, l, r, s):
    pres = presentation_M(k, l, r, s)
    _check_matrix_relations(pres, "T", k, r, k + l, r + s, "M")


@pytest.mark.parametrize("k,l,r,s", [(1, 1, 1, 1), (2, 1, 1, 2), (0, 2, 0, 2), (2, 2, 2, 2)])
def test_relations_Mbar(k, l, r, s):
    pres = presentation_Mbar(k, l, r, s)
    _check_matrix_relations(pres, "Tb", k, r, k + l, r + s, "Mb")


@pytest.mark.parametrize("k,l,r,s", [(1, 1, 1, 1), (2, 0, 2, 0)])
def test_M_rules_on_Tb_generators_fail_the_Mbar_relations(k, l, r, s):
    # Mbar without the bar: M's rules put on Mbar's generators
    params = (k, l, r, s)
    unbarred = AlgebraPresentation(
        "Mbar", params, presentation_Mbar(*params).generators, presentation_M(*params).rules
    )
    with pytest.raises(AssertionError):
        _check_matrix_relations(unbarred, "Tb", k, r, k + l, r + s, "Mb")


@pytest.mark.parametrize("k,l,r,s", [(1, 1, 1, 1), (2, 1, 1, 2)])
def test_relations_Mtilde(k, l, r, s):
    pres = presentation_Mtilde(k, l, r, s)
    _check_matrix_relations(pres, "Tt", k, r, k + l, r + s, "Mt")


@pytest.mark.parametrize(
    "k,l,r,s,m,n", [(1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 2, 1), (2, 0, 1, 1, 1, 1), (1, 2, 2, 1, 2, 2)]
)
def test_relations_P(k, l, r, s, m, n):
    pres = presentation_P(k, l, r, s, m, n)
    _check_matrix_relations(pres, "T", k, m, k + l, m + n, "M")
    _check_matrix_relations(pres, "Tb", r, m, r + s, m + n, "Mb")
    ncols = m + n
    for a in range(1, k + l + 1):
        for b in range(1, r + s + 1):
            for i in range(1, ncols + 1):
                for j in range(1, ncols + 1):
                    lhs = NCElement.from_word((pres.gen_id("Tb", b, j), pres.gen_id("T", a, i)))
                    pa, pb = _par(a, k), _par(b, r)
                    pi, pj = _par(i, m), _par(j, m)
                    if j != i:
                        eps = _sg((pa + pi) * (pb + pj))
                        rhs = NCElement.from_word(
                            (pres.gen_id("T", a, i), pres.gen_id("Tb", b, j))
                        ).scaled(eps)
                    else:
                        eps = _sg((pa + pi) * (pb + pi))
                        rhs = NCElement.from_word(
                            (pres.gen_id("T", a, i), pres.gen_id("Tb", b, i)),
                            eps * _qpow(-1 if pi == 0 else 1),
                        )
                        for jj in range(i + 1, ncols + 1):
                            cj = -_sg(pb * (pa + pi) + pa * _par(jj, m)) * QMQI
                            rhs = rhs + NCElement.from_word(
                                (pres.gen_id("T", a, jj), pres.gen_id("Tb", b, jj)), cj
                            )
                    assert nf(lhs - rhs, pres).is_zero()


NONZERO_PAIRS = [(a, b) for a in range(3) for b in range(3) if a + b >= 1]


def test_every_rule_rewrites_into_smaller_words():
    grid = [(k, l, r, s) for (k, l) in NONZERO_PAIRS for (r, s) in NONZERO_PAIRS]
    presentations = [b(*p) for p in grid for b in (presentation_M, presentation_Mbar, presentation_Mtilde)]
    presentations += [presentation_P(*p, m, n) for p in grid for (m, n) in NONZERO_PAIRS]
    assert len(presentations) == 3 * 64 + 512
    bad = [(pres.kind, pres.params, hit) for pres in presentations for hit in _misoriented(pres.rules)]
    assert bad == []
    # a rule whose right side keeps its own left word must be caught
    lhs, rhs = next((lhs, rhs) for lhs, rhs in P1111.rules.items() if rhs)
    broken = dict(P1111.rules)
    broken[lhs] = rhs + ((ONE, lhs),)
    assert _misoriented(broken) == [(lhs, lhs)]


def test_every_overlap_resolves():
    grid = [(k, l, r, s) for (k, l) in NONZERO_PAIRS for (r, s) in NONZERO_PAIRS]
    param_grid = [p + mn for p in grid for mn in NONZERO_PAIRS]
    presentations = [b(*p) for p in grid for b in (presentation_M, presentation_Mbar, presentation_Mtilde)]
    presentations += [presentation_P(*p) for p in param_grid[::7]]
    total = 0
    for pres in presentations:
        count, bad = _unresolved_overlaps(pres)
        assert bad == [], (pres.kind, pres.params)
        total += count
    assert total > 0


def test_a_flipped_tail_sign_leaves_an_overlap_unresolved():
    pres = presentation_M(2, 1, 2, 1)
    count, bad = _unresolved_overlaps(pres)
    assert count > 0 and bad == []
    # the first rule with a q - q^-1 tail that some overlap xab or abc runs through
    firsts = {a for a, _ in pres.rules}
    seconds = {b for _, b in pres.rules}
    lhs = next(
        (a, b) for (a, b), rhs in pres.rules.items()
        if len(rhs) == 2 and (a in seconds or b in firsts)
    )
    (swap_c, swap), (tail_c, tail) = pres.rules[lhs]
    rules = dict(pres.rules)
    rules[lhs] = ((swap_c, swap), (-tail_c, tail))
    broken = AlgebraPresentation(pres.kind, pres.params, pres.generators, rules)
    assert _unresolved_overlaps(broken)[1]


def test_bar_duality_of_constants():
    m = presentation_M(1, 2, 2, 1)
    mb = presentation_Mbar(1, 2, 2, 1)
    assert set(m.rules) == set(mb.rules)
    for key, rhs in m.rules.items():
        brhs = mb.rules[key]
        assert [w for _, w in rhs] == [w for _, w in brhs]
        for (c, _), (cb, _) in zip(rhs, brhs):
            assert cb == c.bar()


def test_rules_classical_limit():
    # at q = 1 every rule degenerates to plain supercommutation
    for pres in ALL_PRES:
        for (i, j), rhs in pres.rules.items():
            if i == j:
                assert rhs == ()
                continue
            swaps = [(c, w) for c, w in rhs if w == (j, i)]
            assert len(swaps) == 1
            eps = swaps[0][0].eval_q1()
            assert eps == _sg(pres.generators[i].parity * pres.generators[j].parity)
            for c, w in rhs:
                if w != (j, i):
                    assert c.eval_q1() == 0


# --------------------------------------------------------- bases and counts


def test_graded_basis_frozen():
    assert graded_basis(M11, 0) == [()]
    assert graded_basis(M11, 1) == [(0,), (1,), (2,), (3,)]
    assert graded_basis(M11, 2) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3),
    ]
    one_row = presentation_M(1, 0, 1, 0)
    for n in range(5):
        assert graded_basis(one_row, n) == [(0,) * n]
    assert graded_basis(P1011, (1, 1)) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert graded_basis(P1011, (0, 0)) == [()]


def test_graded_basis_words_are_normal():
    for pres in ALL_PRES:
        degrees = [(1, 1), (2, 1)] if pres.kind == "P" else [2, 3]
        for d in degrees:
            basis = graded_basis(pres, d)
            assert len(set(basis)) == len(basis)
            for w in basis:
                assert is_normal(w, pres)
                assert nf(NCElement.from_word(w), pres) == NCElement.from_word(w)


def test_flatness_reports():
    for pres in [M11, MB11, MT11, presentation_M(2, 1, 1, 2)]:
        rep = verify_presentation_flatness(pres, 3)
        assert rep["pass"], rep
        assert len(rep["degrees"]) == 4
    rep = verify_presentation_flatness(P1111, 2)
    assert rep["pass"], rep


def test_flatness_rejects_a_negative_degree():
    # range(0) would otherwise report an empty check as a pass
    for pres in (M11, P1111):
        with pytest.raises(ValueError, match="max_degree"):
            verify_presentation_flatness(pres, -1)
    # a single-family graded basis has no negative degree either, and a bool
    # is an int to Python, but not a degree: graded_basis(M, True) gave degree 1
    for degree in (-1, True, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"^degree must be a nonnegative integer, got {re.escape(repr(degree))}$"):
            graded_basis(presentation_M(1, 0, 1, 0), degree)


@pytest.mark.parametrize("int_first", [True, False], ids=["int-first", "bool-first"])
@pytest.mark.parametrize("build, sizes", [
    (presentation_M, (1, 0, 1, 0)), (presentation_Mbar, (1, 0, 1, 0)),
    (presentation_Mtilde, (1, 0, 1, 0)), (presentation_P, (1, 0, 1, 0, 1, 0)),
], ids=["M", "Mbar", "Mtilde", "P"])
def test_a_bool_size_raises_in_either_call_order(build, sizes, int_first):
    # True == 1 and hashes like it, so an untyped cache handed the bool call
    # the int call's presentation, or cached params (True, 0, ...) for both
    build.cache_clear()
    bad = (True,) + sizes[1:]
    if int_first:
        build(*sizes)
    with pytest.raises(ValueError, match=re.escape("must be two integers, got (True,0)")):
        build(*bad)
    assert build(*sizes).params == sizes
    assert all(type(v) is int for v in build(*sizes).params)


def test_a_non_int_size_raises_value_error():
    calls = [
        (lambda: presentation_M(1.5, 0, 1, 0), "M: index range rows must be two integers, got (1.5,0)"),
        (lambda: hecke_check(True, 0), "V: index range letters must be two integers, got (True,0)"),
        (lambda: dims_check(True, 1, 1, 1, 1),
         "dims: index range rows (k, l) must be two integers, got (True,1)"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def _product_span_rank(pres, left_deg, right_deg, target_deg):
    lbasis = graded_basis(pres, left_deg)
    rbasis = graded_basis(pres, right_deg)
    tbasis = graded_basis(pres, target_deg)
    cols = []
    for wl in lbasis:
        for wr in rbasis:
            prod = multiply(NCElement.from_word(wl), NCElement.from_word(wr), pres)
            cols.append(prod.terms)
    return rank(CoeffMatrix.from_columns(cols, tbasis)), len(tbasis)


def test_products_span_graded_components():
    # a collapse here would mean the rewrite system loses dimensions
    for pres in [M11, MB11, MT11]:
        got, want = _product_span_rank(pres, 1, 1, 2)
        assert got == want
        got, want = _product_span_rank(pres, 2, 1, 3)
        assert got == want
    got, want = _product_span_rank(P1111, (1, 0), (0, 1), (1, 1))
    assert got == want
    got, want = _product_span_rank(P1111, (0, 1), (1, 0), (1, 1))
    assert got == want


# ------------------------------------------------------------------ errors


def test_degenerate_presentations_rejected():
    with pytest.raises(ValueError):
        presentation_M(0, 0, 1, 1)
    with pytest.raises(ValueError):
        presentation_Mtilde(1, 1, 0, 0)
    with pytest.raises(ValueError):
        presentation_P(1, 1, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        presentation_M(-1, 2, 1, 1)


def test_foreign_word_rejected():
    e = NCElement.from_word((17,))
    with pytest.raises(ValueError):
        normal_form(e, M11)


def test_multiply_rejects_a_foreign_word_on_either_side():
    good = word_of(M11, "T", (1, 1))
    for bad in ((17,), (-1,)):
        for left, right in ((NCElement.from_word(bad), good), (good, NCElement.from_word(bad))):
            with pytest.raises(ValueError, match="outside presentation"):
                multiply(left, right, M11)


def test_a_raw_agenda_is_rewritten_like_its_element_and_consumed():
    e = parse_element(
        "Tb[2,1] T[2,1] Tb[1,2] T[1,1] + (q + q^-1) * Tb[2,2] T[2,2] Tb[1,1] T[1,1]"
        " - T[2,1] T[1,1] Tb[1,2] Tb[2,1] + T[1,1] T[2,1] Tb[1,2] Tb[2,1]",
        P1111,
    )
    before = [(w, dict(c.terms)) for w, c in e.terms.items()]
    agenda = {w: dict(c.terms) for w, c in e.terms.items()}
    got, steps = normal_form_stats(agenda, P1111)
    assert agenda == {}
    want, want_steps = normal_form_stats(e, P1111)
    assert (list(got.terms.items()), steps) == (list(want.terms.items()), want_steps)
    assert steps > 4 and len(got.terms) > 2
    # the element path copies its input: e is unchanged and shares no dict with the result
    assert [(w, dict(c.terms)) for w, c in e.terms.items()] == before
    inputs = {id(c.terms) for c in e.terms.values()}
    assert not inputs & {id(c.terms) for c in want.terms.values()}


def test_unknown_generator_rejected():
    with pytest.raises(KeyError):
        M11.gen_id("T", 3, 1)
    with pytest.raises(KeyError):
        M11.gen_id("Tb", 1, 1)


def test_vector_outside_basis_rejected():
    basis = graded_basis(M11, 2)
    with pytest.raises(ValueError):
        CoeffMatrix.from_columns([NCElement.from_word((0,)).terms], basis)


def test_parse_errors():
    with pytest.raises(ValueError, match="empty element text"):
        parse_element("", M11)
    for bad in ["q +", "T[3,1]", "(q", "q)", "T[1,1] garbage", "Tb[1,1]",
                # stacked signs: none of these is -q, -T[1,1] or 2
                "--q", "- - T[1,1]", "1 - - 1",
                "T[1,1] * 2", "(q) (q) T[1,1]", "T[1,1] (q)", "q ^ 2", "()", "() T[1,1]",
                "((q))", "2 q", "q*q", "qT[1,1]", "T[1, 1]", "T[1,1] + (q", "q^3 * T[1,1] +",
                "q^2147483648 * T[1,1]", "(q^-2147483648) T[1,1]"]:
        with pytest.raises(ValueError, match="position"):
            parse_element(bad, M11)


def test_a_parse_error_names_the_position_and_text_of_the_bad_term():
    with pytest.raises(ValueError, match=r"^bad term at position 7: '- - T\[1,1\]'$"):
        parse_element("T[2,1] - - T[1,1]", M11)
    with pytest.raises(ValueError, match=r"^bad term at position 7: '\+ \(\) T\[2,1\]': "):
        parse_element("T[1,1] + () T[2,1]", M11)
    with pytest.raises(ValueError, match=r"^bad term at position 0: 'q\^2147483648': exponent"):
        parse_element("q^2147483648 - T[1,1]", M11)


def test_parse_accepts_each_form_of_a_term():
    t11, t21 = (M11.gen_id("T", a, 1) for a in (1, 2))
    cases = {
        "q^-1 T[1,1]": {(t11,): QINV},
        "+q + T[1,1]": {(): Q, (t11,): ONE},
        "-(q + 1) * T[1,1]": {(t11,): -Q - ONE},
        "2*q*T[1,1]": {(t11,): 2 * Q},
        "q^2-2+q^-2": {(): Q * Q - 2 + QINV * QINV},
        "(q^-1 - q)T[1,1]T[2,1]": {(t11, t21): QINV - Q},
        "0 + T[1,1]": {(t11,): ONE},
        "T[1,1] - T[1,1]": {},
        "(q - q^-1)": {(): QMQI},
        "2T[1,1] - 0": {(t11,): 2 * ONE},
    }
    for text, terms in cases.items():
        assert parse_element(text, M11) == NCElement(terms), text


def test_parse_rejects_a_star_without_a_coefficient_and_a_word():
    for bad in ["2 *", "q*", "(q + 1) *", "T[1,1] - q^-1 *", "* T[1,1]", "T[1,1] + * T[2,1]"]:
        with pytest.raises(ValueError, match="position"):
            parse_element(bad, M11)
    assert parse_element("2 * T[1,1]", M11) == parse_element("2 T[1,1]", M11)
    assert parse_element("(q + 1)", M11) == NCElement({(): Q + ONE})


# ------------------------------------------------------------- text format


def test_format_frozen_strings():
    e = nf(word_of(M11, "T", (2, 1), (1, 1)), M11)
    assert format_element(e, M11) == "q * T[1,1] T[2,1]"
    assert format_element(NCElement.zero(), M11) == "0"
    assert format_element(NCElement.one(), M11) == "1"
    s = "q^-1 * T[1,1] Tb[1,1] - Tb[1,2] T[2,1]"
    assert format_element(parse_element(s, P1111), P1111) == s
    e = nf(word_of(M11, "T", (2, 2), (1, 1)), M11)
    assert format_element(e, M11) == "T[1,1] T[2,2] + (-q + q^-1) * T[2,1] T[1,2]"


def test_parse_accepts_plain_scalars():
    e = parse_element("q + 1", M11)
    assert e == NCElement({(): Q + ONE})


# ------------------------------------------------------- randomized checks


@st.composite
def pres_and_word(draw, max_len=6):
    pres = draw(st.sampled_from(ALL_PRES))
    n = draw(st.integers(0, max_len))
    word = tuple(draw(st.integers(0, pres.ngens - 1)) for _ in range(n))
    return pres, word


def _laurent(draw):
    return LaurentInt(draw(st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=2)))


@st.composite
def pres_and_element(draw, max_terms=3, max_len=4):
    pres = draw(st.sampled_from(ALL_PRES))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        n = draw(st.integers(0, max_len))
        word = tuple(draw(st.integers(0, pres.ngens - 1)) for _ in range(n))
        terms[word] = _laurent(draw)
    return pres, NCElement(terms)


@settings(max_examples=150, deadline=None)
@given(pres_and_word())
def test_normal_form_idempotent(pw):
    pres, word = pw
    first = nf(NCElement.from_word(word), pres)
    assert nf(first, pres) == first
    for w in first.terms:
        assert is_normal(w, pres)


@settings(max_examples=150, deadline=None)
@given(pres_and_word())
def test_normal_form_homogeneous(pw):
    # rewriting preserves length, family counts and total parity
    pres, word = pw
    fams = [g.family for g in pres.generators]
    stats = lambda w: (
        len(w),
        sum(1 for g in w if fams[g] == "Tb"),
        sum(pres.generators[g].parity for g in w) % 2,
    )
    out = nf(NCElement.from_word(word), pres)
    for w in out.terms:
        assert stats(w) == stats(word)


@settings(max_examples=150, deadline=None)
@given(pres_and_word())
def test_step_budget_cubic(pw):
    pres, word = pw
    _, steps = normal_form_stats(NCElement.from_word(word), pres)
    assert steps <= 24 * len(word) ** 3 + 24


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_multiply_associative(data):
    pres = data.draw(st.sampled_from(ALL_PRES))
    words = [
        tuple(
            data.draw(st.integers(0, pres.ngens - 1))
            for _ in range(data.draw(st.integers(0, 3)))
        )
        for _ in range(3)
    ]
    a, b, c = (NCElement.from_word(w) for w in words)
    left = multiply(multiply(a, b, pres), c, pres)
    right = multiply(a, multiply(b, c, pres), pres)
    assert left == right


@settings(max_examples=150, deadline=None)
@given(pres_and_element())
def test_text_round_trip(pe):
    pres, e = pe
    assert parse_element(format_element(e, pres), pres) == e


@settings(max_examples=100, deadline=None)
@given(pres_and_element())
def test_normal_form_linear(pe):
    pres, e = pe
    total = NCElement.zero()
    for w, c in e.terms.items():
        total = total + nf(NCElement.from_word(w, c), pres)
    assert nf(e, pres) == total


@st.composite
def p_and_scaled_products(draw):
    pres = draw(st.sampled_from([P1011, P1111]))

    def normal_element():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(0, 3))
            terms[tuple(draw(st.integers(0, pres.ngens - 1)) for _ in range(n))] = _laurent(draw)
        return nf(NCElement(terms), pres)

    return pres, [(_laurent(draw), normal_element(), normal_element()) for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(p_and_scaled_products())
def test_one_agenda_of_products_normalizes_like_the_sum_of_products(data):
    # the oracle multiplies and scales each product on its own
    pres, products = data

    def snapshot():
        return [(dict(c.terms), [(w, dict(x.terms)) for e in (u, v) for w, x in e.terms.items()])
                for c, u, v in products]

    before = snapshot()
    agenda = {}
    for c, u, v in products:
        _add_word_products(agenda, u, v, c)
    got = nf(agenda, pres)
    want = NCElement.zero()
    for c, u, v in products:
        want = want + multiply(u, v, pres).scaled(c)
    assert got == want
    assert agenda == {}
    assert snapshot() == before


# ------------------------------------------------ the in-place rewrite runs


def _reference_normal_form_stats(e, pres):
    """The plain agenda loop: every rewrite step pops a word, rescans it from
    the left and pushes each term of the rule back into the agenda."""
    grid = pres._grid
    agenda = dict(e.terms)
    out = {}
    steps = 0
    while agenda:
        word, coeff = agenda.popitem()
        pos = -1
        for p in range(len(word) - 1):
            rhs = grid[word[p]][word[p + 1]]
            if rhs is not None:
                pos = p
                break
        if pos < 0:
            _add_term(out, word, coeff)
            continue
        steps += 1
        head = word[:pos]
        tail = word[pos + 2:]
        for rc, rw in rhs:
            _add_term(agenda, head + rw + tail, coeff * rc)
    return NCElement._raw(out), steps


ORACLE_PRES = ALL_PRES + [classical_presentation(p) for p in ALL_PRES]


def _assert_matches_reference(e, pres):
    got, steps = normal_form_stats(e, pres)
    want, want_steps = _reference_normal_form_stats(e, pres)
    assert steps == want_steps
    assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def pres_and_rearrangements(draw, max_len=6):
    """Sums over rearrangements of one word and over other words, so that
    rewrite runs meet words still waiting in the agenda."""
    pres = draw(st.sampled_from(ORACLE_PRES))
    letters = st.integers(0, pres.ngens - 1)
    word = draw(st.lists(letters, max_size=max_len))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.one_of(st.permutations(word), st.lists(letters, max_size=max_len)))
        coeff = LaurentInt(
            draw(st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), min_size=1, max_size=2))
        )
        terms[tuple(w)] = coeff
    return pres, NCElement(terms)


@settings(max_examples=250, deadline=None)
@given(pres_and_rearrangements())
def test_in_place_runs_match_the_agenda_loop(pe):
    pres, e = pe
    _assert_matches_reference(e, pres)


def test_a_run_that_reaches_a_pending_word_merges_into_it():
    # T[2,1] T[1,1] T[1,1] swaps into T[1,1] T[2,1] T[1,1], which is still
    # in the agenda; rewriting on past it would redo that word's step
    e = word_of(M11, "T", (1, 1), (2, 1), (1, 1)) + word_of(M11, "T", (2, 1), (1, 1), (1, 1))
    _, steps = normal_form_stats(e, M11)
    assert steps == 2
    _assert_matches_reference(e, M11)


def _looping_presentation(rules):
    gens = [GenIndex("T", 1, col, 0) for col in (1, 2, 3)]
    return AlgebraPresentation("loop", (), gens, rules)


def test_step_limit_stops_a_rule_system_that_never_terminates(monkeypatch):
    monkeypatch.setattr(qalgebra, "_STEP_LIMIT", 1000)
    swap = ((ONE, (1, 0)),)
    # two single-term swaps undo each other: the loop stays in one run
    runs = _looping_presentation({(1, 0): ((ONE, (0, 1)),), (0, 1): swap})
    # a two-term rule sends the word back through the agenda every round
    rounds = _looping_presentation({(1, 0): ((ONE, (0, 1)), (ONE, (2, 2))), (0, 1): swap})
    for pres in (runs, rounds):
        with pytest.raises(RuntimeError, match="step limit"):
            normal_form_stats(NCElement.from_word((1, 0)), pres)
