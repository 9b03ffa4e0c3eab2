"""Tests for the invariant layer.

The frozen expansions were derived by hand from the defining sum for X_ab
and the permutation expansion of the minors.  Kernel dimensions are checked
twice: against hand-frozen values and against the independent hook-shape
count from hookcomb; ideal dimensions come from a different matrix than the
kernel dimensions they must match, and are checked against the brute-force
span of every u*g*v.  The homomorphism property of psi and the
well-definedness of the signed place action are property-tested.  The
degrees that sft_check settles at q = 1 are checked against the generic
path they replace, and the q = 1 merge product against the rewriting
engine over the q = 1 presentations.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qmatalg import invariants
from qmatalg.exactla import CoeffMatrix, _span_matrix, nullspace, pivot_columns, rank
from qmatalg.hookcomb import kernel_dim_prediction
from qmatalg.invariants import (
    _Context,
    _classical_rules_ok,
    _context,
    _critical_minors,
    _ideal_dims_at_q1,
    _merge_product,
    _params,
    _psi_columns,
    _psi_lands_in_invariants,
    _span_dim,
    build_X,
    classical_check,
    classical_limit,
    classical_presentation,
    classical_psi,
    fft_check,
    ideal_dims,
    kernel_psi_basis,
    psi,
    quantum_minor,
    sergeev_polynomial,
    sft_check,
    symmetric_group_action,
    verify_X_relations,
)
from qmatalg.laurent import ONE, Q, QINV, ZERO, LaurentInt
from qmatalg.qalgebra import (
    AlgebraPresentation,
    NCElement,
    format_element,
    graded_basis,
    multiply,
    normal_form,
    parse_element,
    presentation_M,
    presentation_Mbar,
    presentation_Mtilde,
    presentation_P,
)
from qmatalg.uqaction import (
    ELOWER,
    ERAISE,
    K,
    _row_sector,
    _word_weight,
    act,
    chevalley_generators,
    is_invariant,
)

P11 = (1, 1, 1, 1, 1, 1)
P22 = (1, 1, 1, 1, 2, 2)
PM1 = (2, 0, 2, 0, 1, 0)
PAIRS = [(a, b) for a in range(3) for b in range(3) if a + b >= 1]
PARAM_GRID = [(k, l, r, s, m, n) for (k, l) in PAIRS for (r, s) in PAIRS for (m, n) in PAIRS]


def pres_pair(params):
    k, l, r, s, m, n = params
    return presentation_Mtilde(k, l, r, s), presentation_P(k, l, r, s, m, n)


def test_params_validation():
    assert _params([1, 0, 1, 0, 1, 0]) == (1, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        _params((0, 0, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        _params((1, 1, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        _params((1, 1, 1, 1, -1, 2))
    with pytest.raises(ValueError):
        build_X(1, 1, (1, 1, 1, 1))
    # a bool is an int to Python, but not a size
    with pytest.raises(ValueError, match="^k must be a nonnegative integer, got True$"):
        fft_check((True, 0, 1, 0, 1, 0), 1)
    with pytest.raises(ValueError, match="^m must be a nonnegative integer, got True$"):
        classical_check((1, 0, 1, 0, True, 0))


def test_build_X_frozen():
    mt, p = pres_pair(P11)
    assert format_element(build_X(1, 1, P11), p) == "T[1,1] Tb[1,1] + T[1,2] Tb[1,2]"
    # row 2 is odd, so the i = 2 summand flips sign
    assert format_element(build_X(2, 1, P11), p) == "T[2,1] Tb[1,1] - T[2,2] Tb[1,2]"
    _, p10 = pres_pair((1, 0, 1, 0, 1, 0))
    assert format_element(build_X(1, 1, (1, 0, 1, 0, 1, 0)), p10) == "T[1,1] Tb[1,1]"


def test_build_X_errors():
    for a, b in [(0, 1), (3, 1), (1, 0), (1, 3)]:
        with pytest.raises(ValueError):
            build_X(a, b, P11)
    # a bool is an int to Python, but not a row index
    with pytest.raises(ValueError, match=r"^row index a=True not in 1\.\.2$"):
        build_X(True, 1, P11)
    with pytest.raises(ValueError, match=r"^row index b=True not in 1\.\.2$"):
        build_X(1, True, P11)


def test_a_degree_must_be_a_nonnegative_integer():
    # a bool is an int to Python, but not a degree: fft_check(p, True)
    # would report degrees 0 and 1
    mt = presentation_Mtilde(1, 0, 1, 0)
    p = (1, 0, 1, 0, 1, 0)
    calls = [
        ("max_degree", lambda d: fft_check(p, d)),
        ("max_degree", lambda d: sft_check(p, d)),
        ("max_degree", lambda d: sft_check(PM1, d, minor_ideal=True)),
        ("degree", lambda d: kernel_psi_basis(p, d)),
        ("max_degree", lambda d: ideal_dims([], mt, d)),
    ]
    for name, call in calls:
        for d in (True, False, 1.0, "1", None, -1):
            message = f"^{name} must be a nonnegative integer, got {re.escape(repr(d))}$"
            with pytest.raises(ValueError, match=message):
                call(d)
        assert call(1) is not None


def test_build_X_invariant():
    for params in [P11, (2, 0, 1, 1, 1, 2)]:
        k, l, r, s, m, n = params
        _, p = pres_pair(params)
        for a in range(1, k + l + 1):
            for b in range(1, r + s + 1):
                assert is_invariant(build_X(a, b, params), p)


def test_psi_frozen():
    mt, p = pres_pair(P11)
    assert psi(NCElement.one(), P11) == NCElement.one()
    for gid, g in enumerate(mt.generators):
        e = NCElement.from_word((gid,))
        assert psi(e, P11) == build_X(g.row, g.col, P11)
    # substitution then normalization agrees with multiplying the images
    e = normal_form(parse_element("Tt[2,1] Tt[1,1]", mt), mt)
    expected = multiply(build_X(2, 1, P11), build_X(1, 1, P11), p)
    assert psi(e, P11) == expected


def test_psi_rejects_foreign_words():
    e = NCElement.from_word((7,))
    with pytest.raises(ValueError):
        psi(e, (1, 0, 1, 0, 1, 0))


def test_each_tuple_builds_its_presentations_once():
    # a caller's P and Mtilde are psi's own, so they share one letter table
    # and one rule grid; psi maps each letter to its X itself, and every
    # constructor keeps only the tuple it built last
    _context.cache_clear()
    for t in [P11, (2, 1, 1, 0, 1, 1), PM1, (1, 0, 2, 1, 2, 0), P11]:
        assert invariants.classical_check(t)["overall_pass"] is True
        ctx = _context(t)
        assert ctx.p is presentation_P(*t)
        assert ctx.mt is presentation_Mtilde(*t[:4])
        for i, x in enumerate(ctx.x_elements):
            assert ctx.word_image((i,)) is x
        g = ctx.mt.generators[-1]
        assert build_X(g.row, g.col, t) is ctx.x_elements[-1]
    for constructor in (presentation_M, presentation_Mbar, presentation_Mtilde, presentation_P):
        assert constructor.cache_info().currsize <= 1


def test_classical_check_degenerates_P_once(monkeypatch):
    # the report's q = 1 P is classical psi's own, built on a fresh context
    kinds = []
    original = invariants.classical_presentation

    def counted(pres):
        kinds.append(pres.kind)
        return original(pres)

    monkeypatch.setattr(invariants, "classical_presentation", counted)
    _context.cache_clear()
    assert invariants.classical_check((2, 1, 2, 1, 1, 1))["overall_pass"] is True
    assert sorted(kinds) == sorted(["M", "Mbar", "Mtilde", "P"]), kinds


ELEMENT_PARAMS = [(1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 2, 0), (2, 0, 1, 1, 1, 1)]


@st.composite
def params_and_element_pair(draw):
    params = draw(st.sampled_from(ELEMENT_PARAMS))
    mt, _ = pres_pair(params)
    coeffs = st.sampled_from([ONE, Q, QINV, Q + QINV, ONE - Q])

    def element():
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            word = tuple(
                draw(st.lists(st.integers(0, mt.ngens - 1), max_size=2))
            )
            terms.append((word, draw(coeffs)))
        return normal_form(NCElement(terms), mt)

    return params, element(), element()


@given(params_and_element_pair())
@settings(max_examples=60, deadline=None)
def test_psi_is_a_homomorphism(data):
    params, e1, e2 = data
    mt, p = pres_pair(params)
    lhs = psi(multiply(e1, e2, mt), params)
    rhs = multiply(psi(e1, params), psi(e2, params), p)
    assert lhs == rhs
    assert psi(e1 + e2, params) == psi(e1, params) + psi(e2, params)


def test_verify_X_relations():
    for params in [
        (1, 0, 1, 0, 1, 0),
        (1, 1, 1, 1, 1, 1),
        (2, 0, 2, 0, 1, 0),
        (1, 1, 1, 1, 2, 2),
        (1, 2, 2, 1, 1, 1),
        (0, 1, 1, 0, 1, 1),
    ]:
        assert verify_X_relations(params), params


# Each mutant below must make verify_X_relations reject, so that C04 can fail.


def test_verify_X_relations_needs_the_bracket_tail(monkeypatch):
    # a lower first (and second) row index exists at (2,0,2,0,1,0), so the
    # bracket relations have a (q - q^-1) tail, which the mutant drops
    params = (2, 0, 2, 0, 1, 0)
    assert verify_X_relations(params) is True
    monkeypatch.setattr(invariants, "Q_MINUS_QINV", ZERO)
    assert verify_X_relations(params) is False


def test_verify_X_relations_rejects_a_sign_flipped_X_term(monkeypatch):
    # Mtilde(1,0,1,0) has one generator and no rules, so only the exchange
    # relations can reject X_11 = T[1,1] Tb[1,1] - T[1,2] Tb[1,2]
    params = (1, 0, 1, 0, 2, 0)
    assert verify_X_relations(params) is True
    mt, p = pres_pair(params)
    (x,) = _context(params).x_elements
    word = (p.gen_id("T", 1, 2), p.gen_id("Tb", 1, 2))
    flipped = x - NCElement.from_word(word, x.terms[word] * 2)
    assert flipped != x
    fresh = invariants._Context(mt, p, [flipped], multiply)
    monkeypatch.setattr(invariants, "_context", lambda pt: fresh)
    assert verify_X_relations(params) is False


def test_verify_X_relations_rejects_an_inverted_same_row_q_power(monkeypatch):
    # inverting both powers fails on the T side first; inverting only the
    # +1 power leaves the T side right, so the Tb side must reject it
    tuples = [(1, 0, 1, 0, 1, 0), (1, 1, 1, 1, 1, 1), (2, 1, 2, 1, 1, 1)]
    assert all(verify_X_relations(params) is True for params in tuples)
    original = invariants._q_power_of_index
    for inverted in [(-1, 1), (1,)]:
        monkeypatch.setattr(invariants, "_q_power_of_index",
                            lambda parity, e: original(parity, -e if e in inverted else e))
        assert all(verify_X_relations(params) is False for params in tuples), inverted


def _barred_tilde(mt):
    """mt with the coefficient of one single-term rule barred (q -> q^-1)."""
    rules = dict(mt.rules)
    lhs = next(lhs for lhs, rhs in rules.items() if len(rhs) == 1 and rhs[0][0] != rhs[0][0].bar())
    ((c, w),) = rules[lhs]
    rules[lhs] = ((c.bar(), w),)
    return AlgebraPresentation(mt.kind, mt.params, mt.generators, rules)


def test_verify_X_relations_rejects_a_barred_tilde_rule(monkeypatch):
    # the X's are right, but one single-term rule of the tilde presentation
    # has its coefficient barred (q -> q^-1), so psi no longer respects it
    params = (2, 0, 2, 0, 1, 0)
    assert verify_X_relations(params) is True
    mt, p = pres_pair(params)
    barred = _barred_tilde(mt)
    fresh = invariants._Context(barred, p, _context(params).x_elements, multiply)
    assert invariants._rules_hold(mt.rules, fresh.word_image)
    assert not invariants._rules_hold(barred.rules, fresh.word_image)
    monkeypatch.setattr(invariants, "_context", lambda pt: fresh)
    assert verify_X_relations(params) is False


def test_verify_X_relations_rejects_a_negated_Tb_side_bracket_tail(monkeypatch):
    # k + l = 1 leaves no lower T row, so only the Tb-side bracket has a
    # (q - q^-1) tail, and only its return can reject the negated tail
    params = (1, 0, 2, 0, 1, 0)
    _context.cache_clear()
    try:
        assert verify_X_relations(params) is True
        monkeypatch.setattr(invariants, "Q_MINUS_QINV", -invariants.Q_MINUS_QINV)
        assert verify_X_relations(params) is False
    finally:
        _context.cache_clear()


def test_the_super_sign_is_needed(monkeypatch):
    # every X of (1,0,1,0,1,1) is even, so a sign-blind mutant passes there;
    # (1,1,1,1,1,1) has odd X's and odd letters on both sides
    params = (1, 1, 1, 1, 1, 1)
    _context.cache_clear()
    assert verify_X_relations(params) is True  # the X's are built with the real signs
    assert invariants.classical_check(params)["checks"]["classical_X_supercommute"] is True
    monkeypatch.setattr(invariants, "_sign", lambda e: 1)
    assert verify_X_relations(params) is False
    assert invariants.classical_check(params)["checks"]["classical_X_supercommute"] is False

def test_odd_X_squares_to_zero():
    _, p = pres_pair(P11)
    for a, b in [(1, 2), (2, 1)]:
        x = build_X(a, b, P11)
        assert multiply(x, x, p).is_zero()


def test_quantum_minor_frozen():
    mt, _ = pres_pair(PM1)
    minor = quantum_minor((1, 2), (2, 1), "Mtilde", PM1)
    raw = parse_element("Tt[1,2] Tt[2,1] - q^-1 * Tt[1,1] Tt[2,2]", mt)
    assert minor == normal_form(raw, mt)
    m_pres = presentation_M(2, 0, 2, 0)
    m_minor = quantum_minor((1, 2), (1, 2), "M", PM1)
    assert m_minor == parse_element("T[1,1] T[2,2] - q^-1 * T[2,1] T[1,2]", m_pres)
    single = quantum_minor((2,), (1,), "M", PM1)
    assert single == m_pres.generator("T", 2, 1)


def test_quantum_minor_errors():
    with pytest.raises(ValueError):
        quantum_minor((), (), "M", PM1)
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (1,), "M", PM1)
    with pytest.raises(ValueError):
        quantum_minor((2, 1), (1, 2), "M", PM1)
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (2, 1), "M", PM1)
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (1, 2), "Mtilde", PM1)
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (1, 2), "Mbar", PM1)
    with pytest.raises(ValueError):
        quantum_minor((1, 3), (2, 1), "Mtilde", PM1)
    # a bool or a float index would otherwise be read as the int it equals
    for rows in ((True, 2), (1.0, 2)):
        with pytest.raises(ValueError, match="minor indices must be integers"):
            quantum_minor(rows, (2, 1), "Mtilde", PM1)
    with pytest.raises(ValueError, match="minor indices must be integers"):
        quantum_minor((1, 2), (2, True), "Mtilde", PM1)


def test_minors_lie_in_kernel_of_psi():
    # every minor of size m+1 dies under psi when n = 0
    assert psi(quantum_minor((1, 2), (2, 1), "Mtilde", PM1), PM1).is_zero()
    p30 = (3, 0, 3, 0, 1, 0)
    for rows in [(1, 2), (1, 3), (2, 3)]:
        for cols in [(2, 1), (3, 1), (3, 2)]:
            assert psi(quantum_minor(rows, cols, "Mtilde", p30), p30).is_zero()
    p32 = (3, 0, 3, 0, 2, 0)
    big = quantum_minor((1, 2, 3), (3, 2, 1), "Mtilde", p32)
    assert psi(big, p32).is_zero()


def test_kernel_psi_basis_frozen():
    basis = kernel_psi_basis(PM1, 2)
    assert len(basis) == 1
    mt, _ = pres_pair(PM1)
    dom = graded_basis(mt, 2)
    minor = quantum_minor((1, 2), (2, 1), "Mtilde", PM1)
    # the kernel is spanned by the quantum minor relation
    assert rank(CoeffMatrix.from_columns([dict(zip(dom, basis[0])), minor.terms], dom)) == 1
    with pytest.raises(ValueError):
        kernel_psi_basis(PM1, -1)


def test_kernel_psi_basis_when_the_target_is_empty():
    # no bidegree-(2,2) words in P: psi is zero there, so its kernel is everything
    for params in ((1, 0, 1, 0, 0, 1), (1, 0, 2, 2, 0, 1), (2, 0, 0, 1, 1, 0)):
        assert not graded_basis(presentation_P(*params), (2, 2))
        dim_ker = sft_check(params, 2)["degrees"][2]["dim_ker"]
        assert dim_ker > 0
        assert len(kernel_psi_basis(params, 2)) == dim_ker


def test_untouched_rows_change_neither_kernel_nor_rank():
    # the oracles keep a row for every basis word, touched or not
    for params, N in ((P11, 2), (PM1, 2), ((2, 0, 1, 1, 1, 1), 1), ((1, 0, 1, 0, 2, 1), 2)):
        ctx = _context(params)
        _, images = _psi_columns(ctx, N)
        tgt = graded_basis(ctx.p, (N, N))
        assert tgt
        full = CoeffMatrix.from_columns(images, tgt)
        assert kernel_psi_basis(params, N) == nullspace(full)
        assert _span_dim(images) == rank(full)
    with pytest.raises(ValueError):
        CoeffMatrix.from_columns(images + [{("foreign",): ONE}], tgt)
    for params, top in ((PM1, 4), ((3, 0, 3, 0, 1, 0), 3), ((2, 0, 1, 1, 1, 0), 3)):
        mt = _context(params).mt
        minors = _critical_minors(params)
        letters = [NCElement.from_word((x,)) for x in range(mt.ngens)]
        spanning = [(len(next(iter(g.terms))), g) for g in minors]
        dims = []
        for N in range(top + 1):
            # the columns of ideal_dims: each element h of H times each normal
            # word of degree N - deg h, then each letter times each h of
            # degree N-1; the pivots among those left products join H
            right = [
                multiply(h, NCElement.from_word(w), mt)
                for d, h in spanning if d <= N for w in graded_basis(mt, N - d)
            ]
            cols = right + [multiply(x, h, mt) for d, h in spanning if d == N - 1 for x in letters]
            terms = [c.terms for c in cols]
            pivots = pivot_columns(CoeffMatrix.from_columns(terms, graded_basis(mt, N)))
            assert pivot_columns(_span_matrix(terms)) == pivots
            spanning += [(N, cols[j]) for j in pivots if j >= len(right)]
            dims.append(len(pivots))
        assert ideal_dims(minors, mt, top) == dims
        assert dims[-1] > 0


def test_sorted_touched_words_keep_graded_basis_order():
    # _span_matrix sorts the words its columns touch; its ranks, pivots and
    # kernels equal those over the whole basis only if that is basis order
    for params in ((1, 1, 1, 1, 2, 1), (2, 1, 1, 1, 1, 1), (1, 0, 2, 0, 1, 1), PM1):
        ctx = _context(params)
        for d1 in range(4):
            for d2 in range(4):
                basis = graded_basis(ctx.p, (d1, d2))
                assert basis == sorted(basis)
            _, images = _psi_columns(ctx, d1)
            touched = set().union(*images)
            keys = [w for w in graded_basis(ctx.p, (d1, d1)) if w in touched]
            assert sorted(touched) == keys
            assert _span_matrix(images) == CoeffMatrix.from_columns(images, keys)
        for N in range(5):
            basis = graded_basis(ctx.mt, N)
            assert basis == sorted(basis)


def test_psi_and_the_E_action_keep_the_row_sector():
    # blocking the psi and E matrices by (T rows, Tb rows) rests on this
    psi_terms = e_terms = 0
    for params in PARAM_GRID[::23]:
        ctx = _context(params)
        m, n = params[4:]
        egens = [x for x in chevalley_generators(m, n) if x.kind in (ERAISE, ELOWER)]
        for N in range(3):
            # psi(Tt_ab) = X_ab sums T_ai Tb_bi: Tt rows become T rows, Tt columns Tb rows
            for w in graded_basis(ctx.mt, N):
                gens = [ctx.mt.generators[g] for g in w]
                sector = (tuple(sorted(g.row for g in gens)), tuple(sorted(g.col for g in gens)))
                for word in ctx.word_image(w).terms:
                    assert _row_sector(word, ctx.p) == sector
                    psi_terms += 1
            for w in graded_basis(ctx.p, (N, N)):
                if any(_word_weight(w, ctx.p, m, n)):
                    continue
                for x in egens:
                    for word in act(x, NCElement.from_word(w), ctx.p).terms:
                        assert _row_sector(word, ctx.p) == _row_sector(w, ctx.p)
                        e_terms += 1
    assert psi_terms > 0 and e_terms > 0


def test_kernel_dims_match_prediction():
    tables = [
        (PM1, [0, 0, 1, 4, 10]),
        ((1, 1, 1, 1, 0, 1), [0, 0, 4, 8]),
    ]
    for params, dims in tables:
        for degree, expected in enumerate(dims):
            basis = kernel_psi_basis(params, degree)
            assert len(basis) == expected
            assert len(basis) == kernel_dim_prediction(*params, degree)


def test_kernel_zero_when_column_space_is_large():
    # m >= min(k,r) and n >= min(l,s) force independent X monomials
    cases = [
        ((2, 0, 2, 0, 2, 0), 3),
        ((1, 1, 1, 1, 1, 1), 3),
        ((2, 1, 1, 1, 1, 1), 2),
    ]
    for params, max_degree in cases:
        for degree in range(max_degree + 1):
            assert kernel_dim_prediction(*params, degree) == 0
            assert not kernel_psi_basis(params, degree)


def _ugv_span_dim(generators, pres, degree):
    """Brute-force oracle for ideal_dims: the rank of every u*g*v with u, v
    basis words of complementary degrees."""
    cols = []
    for g in generators:
        if g.is_zero():
            continue
        dg = len(next(iter(g.terms)))
        for du in range(degree - dg + 1):
            for u in graded_basis(pres, du):
                ug = multiply(NCElement.from_word(u), g, pres)
                for v in graded_basis(pres, degree - dg - du):
                    cols.append(multiply(ug, NCElement.from_word(v), pres).terms)
    return rank(CoeffMatrix.from_columns(cols, graded_basis(pres, degree))) if cols else 0


def test_ideal_dims_frozen():
    mt, _ = pres_pair(PM1)
    minor = quantum_minor((1, 2), (2, 1), "Mtilde", PM1)
    dims = ideal_dims([minor], mt, 4)
    assert dims == [0, 0, 1, 4, 10]
    # matches the kernel of psi degree by degree
    for d in range(5):
        assert dims[d] == len(kernel_psi_basis(PM1, d))
    assert ideal_dims([], mt, 2) == [0, 0, 0]
    assert ideal_dims([NCElement.zero()], mt, 2) == [0, 0, 0]
    _, p = pres_pair(PM1)
    with pytest.raises(ValueError):
        ideal_dims([minor], p, 2)
    with pytest.raises(ValueError):
        ideal_dims([minor], mt, -1)


def test_ideal_dims_rejects_a_non_homogeneous_generator():
    mt = presentation_Mtilde(2, 0, 2, 0)
    g = NCElement([((0, 1), ONE), ((2,), ONE)])
    text = format_element(normal_form(g, mt), mt)
    # whichever term comes first, and at every degree the span reaches
    for gens in ([g], [NCElement([((2,), ONE), ((0, 1), ONE)])], [NCElement.zero(), g]):
        for max_degree in range(4):
            with pytest.raises(ValueError, match="not homogeneous") as err:
                ideal_dims(gens, mt, max_degree)
            assert text in str(err.value)


@pytest.mark.parametrize(
    "params, max_degree",
    [
        ((2, 0, 2, 0, 1, 0), 6),
        ((2, 0, 3, 0, 1, 0), 5),
        ((3, 0, 2, 0, 1, 0), 5),
        ((3, 0, 3, 0, 1, 0), 4),
        ((3, 0, 3, 0, 2, 0), 4),
    ],
)
def test_ideal_dims_match_the_ugv_span(params, max_degree):
    mt, _ = pres_pair(params)
    minors = _critical_minors(params)
    assert minors
    expected = [_ugv_span_dim(minors, mt, d) for d in range(max_degree + 1)]
    assert any(expected)
    assert ideal_dims(minors, mt, max_degree) == expected


@pytest.mark.parametrize(
    "pres", [presentation_Mtilde(2, 0, 2, 0), presentation_M(2, 1, 1, 1), presentation_Mbar(1, 1, 1, 1)]
)
def test_ideal_dims_of_one_sided_generators_match_the_ugv_span(pres):
    # for some letters and for t0 t1 + t1 t0 a one-sided ideal is smaller
    # than the two-sided one; for the minors it is not, so those cannot tell
    sym = normal_form(NCElement([((0, 1), ONE), ((1, 0), ONE)]), pres)
    for gens in [[NCElement.from_word((x,))] for x in range(pres.ngens)] + [[sym]]:
        assert ideal_dims(gens, pres, 3) == [_ugv_span_dim(gens, pres, d) for d in range(4)]
    if (pres.kind, pres.params) == ("M", (2, 1, 1, 1)):
        # T[1,1] T[3,2]: its own left products are not enough, degree 4
        # needs a letter times a left product of degree 3
        gens = [NCElement.from_word((0, 5))]
        expected = [_ugv_span_dim(gens, pres, d) for d in range(5)]
        assert expected == [0, 0, 1, 10, 30]
        assert ideal_dims(gens, pres, 4) == expected


def _random_generators(pres, rng):
    """One to three homogeneous generators of degrees 1 to 3, each a sum of
    one to three normal words with small Laurent coefficients."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        words = graded_basis(pres, rng.randint(1, 3))
        terms = rng.sample(words, min(len(words), rng.randint(1, 3)))
        gens.append(NCElement({w: rng.choice([ONE, -ONE, Q, QINV, Q + ONE]) for w in terms}))
    return gens


@pytest.mark.parametrize("build", [presentation_M, presentation_Mtilde, presentation_Mbar])
@pytest.mark.parametrize("sizes", [(2, 1, 1, 1), (1, 2, 1, 1)])
def test_ideal_dims_of_random_mixed_degree_generators_match_the_ugv_span(build, sizes):
    # several of these sets need H to grow past the generators' own left products
    pres = build(*sizes)
    rng = random.Random(f"{pres.kind}{sizes}")
    for _ in range(3):
        gens = _random_generators(pres, rng)
        assert ideal_dims(gens, pres, 4) == [_ugv_span_dim(gens, pres, d) for d in range(5)]


@pytest.mark.parametrize("build", [presentation_M, presentation_Mtilde, presentation_Mbar])
@pytest.mark.parametrize("sizes", [(2, 1, 1, 1), (1, 2, 1, 1)])
def test_the_q1_ideal_mod_p_never_exceeds_the_generic_ideal(build, sizes):
    # the seeded generator sets of the ugv test above: every column of the
    # q = 1 loop is the q = 1 limit of an element of the generic ideal
    pres = build(*sizes)
    cpres = classical_presentation(pres)
    assert _classical_rules_ok(cpres)
    rng = random.Random(f"{pres.kind}{sizes}")
    for _ in range(3):
        gens = [normal_form(g, pres) for g in _random_generators(pres, rng)]
        generic = ideal_dims(gens, pres, 4)
        assert all(a <= b for a, b in zip(_ideal_dims_at_q1(gens, cpres, 4), generic, strict=True))
    # a generator that vanishes at q = 1 drops out there, not generically
    gens = [normal_form(NCElement.from_word((0, 1), Q - QINV), pres)]
    assert ideal_dims(gens, pres, 3)[2] == 1
    assert _ideal_dims_at_q1(gens, cpres, 3) == [0, 0, 0, 0]


def test_ideal_dims_with_mixed_degree_generators():
    # a generator inside the ideal of another, a zero one and a repeat
    mt, _ = pres_pair(PM1)
    minor = quantum_minor((1, 2), (2, 1), "Mtilde", PM1)
    gens = [multiply(minor, mt.generator("Tt", 1, 1), mt), NCElement.zero(), minor, minor]
    expected = [_ugv_span_dim(gens, mt, d) for d in range(6)]
    assert expected == [0, 0, 1, 4, 10, 20]
    assert ideal_dims(gens, mt, 5) == expected


def test_ideal_of_the_degree_4_kernel_equals_the_kernel_up_to_degree_6():
    # with n = 1 the kernel starts in degree 4, where (m+1)(n+1) = 4; being
    # in the kernel, its degree-4 vectors generate all of it up to degree 6
    params = (2, 1, 2, 1, 1, 1)
    mt, _ = pres_pair(params)
    dom = graded_basis(mt, 4)
    gens = [NCElement(dict(zip(dom, v))) for v in kernel_psi_basis(params, 4)]
    assert len(gens) == 16
    dims = ideal_dims(gens, mt, 6)
    assert dims == [0, 0, 0, 0, 16, 80, 240]
    assert dims == [rec["dim_ker"] for rec in sft_check(params, 6)["degrees"]]


def test_fft_check_reports():
    rep = fft_check(P22, 1)
    assert set(rep) == {"params", "degrees", "unbalanced", "overall_pass"}
    assert rep["params"] == list(P22)
    rec = rep["degrees"][1]
    assert set(rec) == {"N", "dim_inv", "dim_img", "dim_ker", "dim_pred", "ideal_dim", "pass"}
    assert rec["dim_inv"] == 4 and rec["dim_img"] == 4
    assert rep["overall_pass"] is True
    assert all(u["dim_inv"] == 0 for u in rep["unbalanced"])
    json.dumps(rep)

    rep = fft_check((1, 0, 1, 0, 1, 0), 3)
    assert [d["dim_inv"] for d in rep["degrees"]] == [1, 1, 1, 1]
    assert rep["overall_pass"] is True

    rep = fft_check(PM1, 2)
    rec = rep["degrees"][2]
    assert rec["dim_inv"] == rec["dim_img"] == 9
    assert rec["dim_ker"] == rec["dim_pred"] == 1
    assert rep["overall_pass"] is True


def _k_exponent(x, w, p):
    """The e with x(w) = q^e w; fails unless x scales the word w."""
    ((got, c),) = act(x, NCElement.from_word(w), p).terms.items()
    ((e, coeff),) = c.terms.items()
    assert got == w and coeff == 1
    return e


@pytest.mark.parametrize("params", [P11, (1, 0, 1, 0, 2, 0), (2, 1, 1, 1, 1, 2)])
def test_an_unbalanced_word_has_a_nonzero_K_weight(params):
    # the lemma behind fft_check's unbalanced records: T_ai carries column
    # weight +e_i and T~_bi carries -e_i, so a word of bidegree (d1, d2)
    # has total weight d1 - d2, some K_a scales it by q^e with e != 0, and
    # no K-invariant element lives in an unbalanced bidegree
    _, p = pres_pair(params)
    ks = [x for x in chevalley_generators(params[4], params[5]) if x.kind == K]
    for d1 in range(4):
        for d2 in range(4 - d1):
            if d1 != d2:
                for w in graded_basis(p, (d1, d2)):
                    assert any(_k_exponent(x, w, p) for x in ks), (params, d1, d2, w)

def test_fft_check_rejects_negative_degree():
    with pytest.raises(ValueError):
        fft_check(P22, -1)


def test_sft_check_counts_the_kernel_by_rank():
    # dim_ker comes from rank-nullity; it must agree with the kernel basis
    for params, max_degree, minor_ideal in ((PM1, 4, True), ((1, 1, 1, 1, 0, 1), 3, False)):
        rep = sft_check(params, max_degree, minor_ideal)
        assert list(rep) == ["params", "degrees", "overall_pass"]
        assert rep["params"] == list(params)
        assert [rec["N"] for rec in rep["degrees"]] == list(range(max_degree + 1))
        for N, rec in enumerate(rep["degrees"]):
            assert list(rec) == ["N", "dim_inv", "dim_img", "dim_ker", "dim_pred",
                                 "ideal_dim", "pass"]
            assert rec["dim_inv"] is None and rec["dim_img"] is None
            assert rec["dim_ker"] == len(kernel_psi_basis(params, N))
            assert rec["dim_ker"] == rec["dim_pred"] == kernel_dim_prediction(*params, N)
            assert rec["ideal_dim"] == (rec["dim_ker"] if minor_ideal else None)
            assert rec["pass"] is True
        assert rep["overall_pass"] is True


def test_sft_check_rejects_bad_requests():
    with pytest.raises(ValueError, match="minor-ideal"):
        sft_check((1, 1, 1, 1, 1, 1), 2, minor_ideal=True)
    # odd rows, where the increasing-row minors miss generators, and a
    # minor size m + 1 above min(k, r), where there are no minors at all
    for params in ((1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 2, 0), (0, 2, 0, 2, 1, 0), (1, 0, 1, 0, 1, 0)):
        with pytest.raises(ValueError, match="minor-ideal"):
            sft_check(params, 3, minor_ideal=True)
    with pytest.raises(ValueError):
        sft_check(PM1, -1)


def test_a_kernel_off_the_prediction_fails_each_degree(monkeypatch):
    # one more predicted kernel vector than exists fails every degree of
    # both reports, through the one record that compares them.  The FFT
    # sandwich settles dim_img and dim_inv, not the prediction, so fft_check
    # still settles every degree at q = 1; in sft_check no lower end meets
    # the prediction, so it makes no q = 1 attempt, which could only prove
    # a failing degree
    original = invariants.kernel_dim_prediction
    monkeypatch.setattr(invariants, "kernel_dim_prediction", lambda *a: original(*a) + 1)
    calls = _watch_q1(monkeypatch)
    exact = _watch_exact_fft(monkeypatch)
    fft = fft_check(P11, 1)
    assert exact == []
    for rep in (fft, sft_check(PM1, 2, minor_ideal=True)):
        assert [d["pass"] for d in rep["degrees"]] == [False] * len(rep["degrees"])
        assert all(d["dim_pred"] == d["dim_ker"] + 1 for d in rep["degrees"])
        assert rep["overall_pass"] is False
    assert calls == []


def _generic_sft(monkeypatch, *args, **kwargs):
    """sft_check with every degree taken from the generic rank."""
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_kernel_at_q1", lambda *a: None)
        return sft_check(*args, **kwargs)


def _watch_ideal_dims(monkeypatch):
    """Record the arguments of every generic ideal_dims run of sft_check."""
    runs = []
    original = invariants.ideal_dims

    def watched(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, "ideal_dims", watched)
    return runs


def _watch_q1(monkeypatch):
    """Record (N, lower, result) of every q = 1 attempt of sft_check."""
    calls = []
    original = invariants._kernel_at_q1

    def watched(ctx, N, lower):
        got = original(ctx, N, lower)
        calls.append((N, lower, got))
        return got

    monkeypatch.setattr(invariants, "_kernel_at_q1", watched)
    return calls


def _exact_fft(monkeypatch, *args):
    """fft_check with the q = 1 sandwich off: every degree takes the exact
    path."""
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_psi_lands_in_invariants", lambda ctx: False)
        return fft_check(*args)


def _watch_exact_fft(monkeypatch):
    """Record the degree N of every exact-path invariant basis that
    fft_check computes, the balanced bidegree (N, N)."""
    degrees = []
    original = invariants.invariant_subspace

    def watched(pres, bidegree):
        if bidegree[0] == bidegree[1]:
            degrees.append(bidegree[0])
        return original(pres, bidegree)

    monkeypatch.setattr(invariants, "invariant_subspace", watched)
    return degrees


@pytest.mark.parametrize("params, max_degree", [(p, 2) for p in PARAM_GRID[::7]]
                         + [((2, 1, 2, 1, 2, 1), 3)])
def test_fft_reports_settled_at_q1_equal_the_exact_path(monkeypatch, params, max_degree):
    # every degree of these tuples closes at q = 1, and the report is the
    # one the exact path gives
    exact = _watch_exact_fft(monkeypatch)
    got = fft_check(params, max_degree)
    assert exact == []
    assert got == _exact_fft(monkeypatch, params, max_degree)
    assert exact == list(range(max_degree + 1))
    assert got["overall_pass"] is True


def test_fft_ends_forced_apart_take_the_exact_path(monkeypatch):
    # with the lower end one short in every degree the sandwich never
    # closes: every degree takes the exact path, and the report is unchanged
    params = (1, 1, 1, 1, 2, 1)
    want = fft_check(params, 3)
    original = invariants._psi_rank_at_q1

    def one_short(ctx, N):
        size, rank_p = original(ctx, N)
        return size, rank_p - 1

    monkeypatch.setattr(invariants, "_psi_rank_at_q1", one_short)
    exact = _watch_exact_fft(monkeypatch)
    assert fft_check(params, 3) == want
    assert exact == [0, 1, 2, 3]


def _watch_sandwich(monkeypatch):
    """Record the degree of every q = 1 upper end fft_check computes."""
    degrees = []
    original = invariants._invariant_dim_bound_at_q1

    def watched(cp, N):
        degrees.append(N)
        return original(cp, N)

    monkeypatch.setattr(invariants, "_invariant_dim_bound_at_q1", watched)
    return degrees


def _negated_tail(p):
    """p with the q - q^-1 tail coefficient of its first multi-term rule
    negated; the rule is unchanged at q = 1, where the tail vanishes."""
    rules = dict(p.rules)
    lhs = next(lhs for lhs, rhs in rules.items() if len(rhs) > 1)
    head, *tail = rules[lhs]
    rules[lhs] = (head, *((-c, w) for c, w in tail))
    return AlgebraPresentation(p.kind, p.params, p.generators, rules)


def test_a_negated_tail_of_P_fails_the_containment_premise(monkeypatch):
    # the action no longer respects the mutated rule, so psi is not proven
    # to land in the invariants and no degree is settled at q = 1, though
    # the q = 1 rules are still free supercommutation
    ctx = _context(P11)
    mutant = _Context(ctx.mt, _negated_tail(ctx.p), ctx.x_elements, multiply)
    assert _classical_rules_ok(mutant.classical().p)
    assert _psi_lands_in_invariants(ctx)
    assert not _psi_lands_in_invariants(mutant)
    monkeypatch.setattr(invariants, "_context", lambda pt: mutant)
    tried = _watch_sandwich(monkeypatch)
    exact = _watch_exact_fft(monkeypatch)
    rep = fft_check(P11, 2)
    assert tried == [] and exact == [0, 1, 2]
    assert rep == _exact_fft(monkeypatch, P11, 2)


def test_a_non_invariant_X_fails_the_containment_premise(monkeypatch):
    # X_11 replaced by the word T[1,1] Tb[1,1], of weight zero but moved by
    # the E's: psi no longer lands in the invariants, which only the
    # structural premise sees, since the two ends of the sandwich still
    # meet in degree 1; so every degree takes the exact path, which fails
    # from degree 1 on
    ctx = _context(P11)
    p = ctx.p
    word = NCElement.from_word((p.gen_id("T", 1, 1), p.gen_id("Tb", 1, 1)))
    xs = [word if i == 0 else x for i, x in enumerate(ctx.x_elements)]
    mutant = _Context(ctx.mt, p, xs, multiply)
    assert not is_invariant(word, p)
    assert not _psi_lands_in_invariants(mutant)
    # trusted without the premise, the closed sandwich would pass degree 1
    assert invariants._fft_degree(mutant, 1, True) == (4, 4, 4, True)
    monkeypatch.setattr(invariants, "_context", lambda pt: mutant)
    tried = _watch_sandwich(monkeypatch)
    exact = _watch_exact_fft(monkeypatch)
    rep = fft_check(P11, 2)
    assert tried == [] and exact == [0, 1, 2]
    assert rep == _exact_fft(monkeypatch, P11, 2)
    assert [d["pass"] for d in rep["degrees"]] == [True, False, False]


def test_a_rule_that_mixes_column_weights_fails_the_containment_premise(monkeypatch):
    # gl(1|0) has no raising or lowering E, so the E's respect any rule and
    # every X, of weight zero, is invariant: only the column-weight check,
    # the K's half of the premise, sees a q - q^-1 tail of another weight
    # on a rule of P, which vanishes at q = 1
    ctx = _context(PM1)
    p = ctx.p
    rules = dict(p.rules)
    lhs = next(iter(rules))
    rules[lhs] += ((Q - QINV, lhs[:1]),)
    mutant = _Context(ctx.mt, AlgebraPresentation(p.kind, p.params, p.generators, rules),
                      ctx.x_elements, multiply)
    assert _word_weight(lhs, p, 1, 0) != _word_weight(lhs[:1], p, 1, 0)
    assert not any(x.kind in (ERAISE, ELOWER) for x in chevalley_generators(1, 0))
    assert _classical_rules_ok(mutant.classical().p)
    assert all(is_invariant(x, mutant.p) for x in mutant.x_elements)
    assert not _psi_lands_in_invariants(mutant)
    # trusted without the premise, the closed sandwich would pass degree 2
    assert invariants._fft_degree(mutant, 2, True) == (10, 9, 9, True)
    monkeypatch.setattr(invariants, "_context", lambda pt: mutant)
    tried = _watch_sandwich(monkeypatch)
    exact = _watch_exact_fft(monkeypatch)
    rep = fft_check(PM1, 3)
    assert tried == [] and exact == [0, 1, 2, 3]
    assert [d["pass"] for d in rep["degrees"]] == [True, True, False, False]


def test_sft_check_requires_the_generators_in_the_kernel(monkeypatch):
    # Tt[1,1] Tt[2,2] spans an ideal of the kernel's dimensions, but psi
    # does not kill it, so it is not the kernel; nor is its ideal a lower
    # end at q = 1, so only the degrees predicted 0 try q = 1, against 0,
    # and the others take the generic rank
    mt = presentation_Mtilde(2, 0, 2, 0)
    fake = multiply(mt.generator("Tt", 1, 1), mt.generator("Tt", 2, 2), mt)
    monkeypatch.setattr(invariants, "_critical_minors", lambda p: [fake])
    calls = _watch_q1(monkeypatch)
    rep = sft_check(PM1, 7, minor_ideal=True)
    assert calls == [(0, 0, 0), (1, 0, 0)]
    assert rep == _generic_sft(monkeypatch, PM1, 7, minor_ideal=True)
    assert [rec["ideal_dim"] for rec in rep["degrees"]] == [0, 0, 1, 4, 10, 20, 35, 56]
    assert all(rec["ideal_dim"] == rec["dim_ker"] for rec in rep["degrees"])
    assert all(rec["pass"] is False for rec in rep["degrees"])
    assert rep["overall_pass"] is False


SANDWICH_GRID = [
    (PM1, 6, True), ((3, 0, 2, 0, 1, 0), 4, True), ((2, 0, 3, 0, 1, 0), 4, True),
    ((3, 0, 3, 0, 2, 0), 4, True), (PM1, 4, False), (P11, 3, False), ((1, 1, 1, 1, 1, 0), 4, False),
    ((0, 2, 0, 2, 1, 0), 3, False), ((2, 1, 1, 1, 1, 1), 3, False), ((1, 2, 2, 1, 2, 1), 2, False),
]


@pytest.mark.parametrize("params, max_degree, minor_ideal", SANDWICH_GRID)
def test_sft_reports_equal_the_generic_path(monkeypatch, params, max_degree, minor_ideal):
    calls = _watch_q1(monkeypatch)
    runs = _watch_ideal_dims(monkeypatch)
    got = sft_check(params, max_degree, minor_ideal)
    # the q = 1 minor ideal closes every degree, so the generic one never runs
    assert runs == []
    assert got == _generic_sft(monkeypatch, params, max_degree, minor_ideal)
    assert len(runs) == minor_ideal
    assert got["overall_pass"] is True
    # the q = 1 minor ideal is tried in every degree, the prediction 0
    # elsewhere, and every attempt here closes
    tried = [N for N, _, _ in calls]
    pred = [rec["dim_pred"] for rec in got["degrees"]]
    assert tried == [N for N in range(max_degree + 1) if minor_ideal or pred[N] == 0]
    assert all(result == lower for _, lower, result in calls)


@pytest.mark.parametrize("params, max_degree", [(p, d) for p, d, minor in SANDWICH_GRID if minor])
def test_the_q1_minor_ideal_mod_p_equals_the_generic_one(params, max_degree):
    mt = _context(params).mt
    minors = _critical_minors(params)
    cmt = classical_presentation(mt)
    assert _ideal_dims_at_q1(minors, cmt, max_degree) == ideal_dims(minors, mt, max_degree)


def test_a_minor_that_vanishes_at_q1_falls_back_to_the_generic_ideal(monkeypatch):
    # one minor times q - q^-1 spans the same generic ideal and psi still
    # kills it, but it vanishes at q = 1: the q = 1 end drops below the
    # prediction from degree 2 on, where no q = 1 attempt is made, the
    # generic rank gives dim_ker and the generic ideal, run once for all
    # degrees, gives ideal_dim
    params = (3, 0, 3, 0, 1, 0)
    whole = sft_check(params, 4, minor_ideal=True)
    monkeypatch.setattr(invariants, "_critical_minors", lambda p: [
        g.scaled(Q - QINV) if i == 0 else g for i, g in enumerate(_critical_minors(p))])
    runs = _watch_ideal_dims(monkeypatch)
    calls = _watch_q1(monkeypatch)
    rep = sft_check(params, 4, minor_ideal=True)
    assert rep == whole
    assert rep["overall_pass"] is True
    assert len(runs) == 1
    assert calls == [(0, 0, 0), (1, 0, 0)]


def test_a_generating_set_missing_a_minor_falls_back(monkeypatch):
    # eight of the nine 2-minors of (3,0,3,0,1,0) span less than the kernel
    # from degree 2 on: the ends do not meet there, and dim_ker is the
    # generic one
    whole = sft_check((3, 0, 3, 0, 1, 0), 4, minor_ideal=True)
    monkeypatch.setattr(invariants, "_critical_minors", lambda p: _critical_minors(p)[1:])
    calls = _watch_q1(monkeypatch)
    runs = _watch_ideal_dims(monkeypatch)
    rep = sft_check((3, 0, 3, 0, 1, 0), 4, minor_ideal=True)
    # the q = 1 minor ideal is the lower end; where it is short of the
    # prediction no q = 1 attempt is made, and the generic ideal, the same
    # here, runs once for ideal_dim
    assert calls == [(0, 0, 0), (1, 0, 0)]
    assert len(runs) == 1
    assert [rec["dim_ker"] for rec in rep["degrees"]] == [rec["dim_ker"] for rec in whole["degrees"]]
    assert [rec["ideal_dim"] < rec["dim_ker"] for rec in rep["degrees"]] == [False, False, True, True, True]
    assert rep == _generic_sft(monkeypatch, (3, 0, 3, 0, 1, 0), 4, minor_ideal=True)
    assert rep["overall_pass"] is False


def test_a_map_that_breaks_a_tilde_rule_gives_no_lower_end(monkeypatch):
    # psi still kills the minor, but it breaks a barred tilde rule, so it is
    # no homomorphism there and the minor ideal need not lie in its kernel:
    # only the degrees predicted 0 try q = 1, and no degree passes, since
    # ideal = kernel is proven only for an ideal inside the kernel
    mt, p = pres_pair(PM1)
    mutant = _Context(_barred_tilde(mt), p, _context(PM1).x_elements, multiply)
    monkeypatch.setattr(invariants, "_context", lambda pt: mutant)
    calls = _watch_q1(monkeypatch)
    runs = _watch_ideal_dims(monkeypatch)
    rep = sft_check(PM1, 4, minor_ideal=True)
    # no q = 1 minor ideal either: the generic ideal runs for its report
    assert calls == [(0, 0, 0), (1, 0, 0)]
    assert len(runs) == 1
    assert rep == _generic_sft(monkeypatch, PM1, 4, minor_ideal=True)
    assert [rec["pass"] for rec in rep["degrees"]] == [False] * 5
    assert rep["overall_pass"] is False


def test_a_rank_that_drops_at_q1_does_not_close(monkeypatch):
    # X_11 times q - 1 keeps every generic rank, but its q = 1 limit is 0,
    # so each degree from 1 on has a q = 1 kernel and falls back
    ctx = _context(P11)
    xs = [x.scaled(Q - ONE) if i == 0 else x for i, x in enumerate(ctx.x_elements)]
    mutant = _Context(ctx.mt, ctx.p, xs, multiply)
    assert not mutant.classical().x_elements[0]
    want = sft_check(P11, 3)
    monkeypatch.setattr(invariants, "_context", lambda p: mutant)
    calls = _watch_q1(monkeypatch)
    assert sft_check(P11, 3) == want
    assert calls == [(0, 0, 0), (1, 0, None), (2, 0, None), (3, 0, None)]


def test_a_q1_tilde_rule_that_is_not_supercommutation_makes_no_q1_attempt(monkeypatch):
    # the q = 1 premise reads the classical context's q = 1 Mtilde as well
    # as its q = 1 P: with one sign of a q = 1 tilde rule flipped, the merge
    # product is not phi of the generic one there, so no degree tries
    # q = 1, and every value is the generic one
    want = sft_check(PM1, 5, minor_ideal=True)
    original = invariants.classical_presentation

    def flipped(pres):
        cp = original(pres)
        if pres.kind != "Mtilde":
            return cp
        rules = dict(cp.rules)
        lhs = next(lhs for lhs, rhs in rules.items() if rhs)
        (c, w), = rules[lhs]
        rules[lhs] = ((-c, w),)
        return AlgebraPresentation(cp.kind, cp.params, cp.generators, rules)

    _context.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "classical_presentation", flipped)
            calls = _watch_q1(patch)
            runs = _watch_ideal_dims(patch)
            assert not _classical_rules_ok(_context(PM1).classical().mt)
            assert sft_check(PM1, 5, minor_ideal=True) == want
    finally:
        _context.cache_clear()
    assert calls == []
    assert len(runs) == 1


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1, 1, 1), (0, 2, 0, 2, 1, 0), (1, 0, 1, 0, 0, 2),
                                   (2, 1, 1, 1, 1, 1), (1, 2, 2, 1)])
def test_the_merge_product_equals_the_rewriting_engine(sizes):
    # every product of normal words of total degree <= 3, odd letters
    # repeated across the two factors included, with int coefficients, in
    # the q = 1 P of each six sizes and the q = 1 Mtilde of four, against
    # the engine's q = 1 normal form read through eval_q1
    build = presentation_P if len(sizes) == 6 else presentation_Mtilde
    cp = classical_presentation(build(*sizes))
    if cp.kind == "P":
        words = [w for N in range(4) for d in range(N + 1) for w in graded_basis(cp, (d, N - d))]
    else:
        words = [w for N in range(4) for w in graded_basis(cp, N)]
    coeffs = [1, -1, 3, 2]

    def engine(a, b):
        want = multiply(NCElement(a), NCElement(b), cp)
        return {w: c.eval_q1() for w, c in want.terms.items()}

    zero = 0
    for i, u in enumerate(words):
        a = {u: coeffs[i % 4]}
        for j, v in enumerate(words):
            if len(u) + len(v) <= 3:
                b = {v: coeffs[j % 3]}
                want = engine(a, b)
                assert _merge_product(a, b, cp) == want, (u, v)
                zero += not want
    assert zero > 0 or not any(g.parity for g in cp.generators)
    # sums of words, whose products merge and cancel
    pairs = list(zip(words[1:], words[2:]))
    for u, v in pairs[::7]:
        a = {u: 1, v: -1}
        assert _merge_product(a, a, cp) == engine(a, a), (u, v)


def test_classical_limit():
    e = NCElement.from_word((0, 1), Q - QINV)
    assert classical_limit(e).is_zero()
    e = NCElement.from_word((0,), Q + QINV + ONE)
    assert classical_limit(e) == NCElement.from_word((0,), 3)


def test_classical_presentation_supercommutes():
    cm = presentation_M(2, 0, 2, 0)
    cp = classical_presentation(cm)
    t21 = cp.generator("T", 2, 1)
    t11 = cp.generator("T", 1, 1)
    assert multiply(t21, t11, cp) == multiply(t11, t21, cp)
    # the q = 1 rules are bare swaps: single term, coefficient +-1
    for rhs in cp.rules.values():
        assert len(rhs) <= 1
        for c, _ in rhs:
            assert c.terms in ({0: 1}, {0: -1})


def test_classical_X_elements_supercommute():
    k, l, r, s, m, n = P11
    cp = classical_presentation(presentation_P(*P11))
    xs = {}
    for a in range(1, k + l + 1):
        for b in range(1, r + s + 1):
            xs[a, b] = classical_limit(build_X(a, b, P11))
    for (a, b), x1 in xs.items():
        for (c, d), x2 in xs.items():
            sign = -1 if ((a > k) + (b > r)) * ((c > k) + (d > r)) % 2 else 1
            lhs = multiply(x1, x2, cp)
            rhs = multiply(x2, x1, cp).scaled(sign)
            assert lhs == rhs, ((a, b), (c, d))


@pytest.mark.parametrize(
    "params",
    [
        (1, 1, 1, 1, 1, 1),
        (2, 0, 2, 0, 1, 0),
        (2, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 2, 1),
        (2, 1, 2, 1, 1, 1),
        (1, 2, 1, 1, 1, 1),
        (1, 1, 1, 1, 0, 2),
    ],
)
def test_classical_psi_is_the_q1_limit_of_psi(params):
    # setting q = 1 commutes with the substitution, on normal words and on
    # the left side of every rule
    mt = _context(params).mt
    words = [w for N in range(4) for w in graded_basis(mt, N)] + list(mt.rules)
    for w in words:
        e = NCElement.from_word(w)
        assert classical_psi(e, params) == classical_limit(psi(e, params)), w


def test_sergeev_polynomial_frozen():
    cm = classical_presentation(presentation_M(2, 0, 2, 0))
    assert sergeev_polynomial(((1,),), (2,), (1,), 2, 0) == cm.generator("T", 2, 1)
    column = sergeev_polynomial(((1,), (2,)), (1, 2), (1, 2), 2, 0)
    assert column == parse_element("T[1,1] T[2,2] - T[2,1] T[1,2]", cm)
    cm11 = classical_presentation(presentation_M(1, 1, 1, 1))
    row = sergeev_polynomial(((1, 2),), (1, 2), (1, 2), 1, 1)
    assert row == parse_element("T[1,1] T[2,2] + T[2,1] T[1,2]", cm11)


def test_sergeev_polynomial_errors():
    with pytest.raises(ValueError):
        sergeev_polynomial(((1,), (2,)), (1, 1), (1, 2), 2, 0)
    with pytest.raises(ValueError):
        sergeev_polynomial(((1, 2),), (2, 2), (1, 2), 1, 1)
    with pytest.raises(ValueError):
        sergeev_polynomial(((1, 2),), (2, 1), (1, 2), 2, 0)
    with pytest.raises(ValueError):
        sergeev_polynomial(((1,), (2, 3)), (1, 2, 2), (1, 2, 2), 2, 1)
    with pytest.raises(ValueError):
        sergeev_polynomial(((1,), (1,)), (1, 2), (1, 2), 2, 0)



def test_sergeev_polynomial_rejects_an_index_that_is_not_an_int():
    # True and 1.0 equal 1, but neither is a letter or a box number
    for tableau, I, J in [(((1,),), (True,), (1,)), (((1,),), (1,), (1.0,)),
                          (((True,),), (1,), (1,)), (((1.0,),), (1,), (1,))]:
        with pytest.raises(ValueError):
            sergeev_polynomial(tableau, I, J, 1, 0)
    with pytest.raises(ValueError):
        sergeev_polynomial(((1,),), (3,), (1,), 2, 0)


def test_sergeev_column_shape_in_classical_kernel():
    # the (m+1)-box column polynomial dies under the q = 1 substitution
    cases = [
        ((2, 0, 2, 0, 1, 0), ((1,), (2,)), (1, 2)),
        ((3, 0, 3, 0, 2, 0), ((1,), (2,), (3,)), (1, 2, 3)),
    ]
    for params, tableau, seq in cases:
        k = params[0]
        poly = sergeev_polynomial(tableau, seq, seq, k, 0)
        assert not poly.is_zero()
        assert classical_psi(poly, params).is_zero()


@st.composite
def two_perms_and_sequence(draw):
    size = draw(st.integers(1, 5))
    g = tuple(draw(st.permutations(list(range(1, size + 1)))))
    h = tuple(draw(st.permutations(list(range(1, size + 1)))))
    even_count = draw(st.integers(0, 4))
    seq = tuple(draw(st.integers(1, 4)) for _ in range(size))
    return g, h, seq, even_count


@given(two_perms_and_sequence())
@settings(max_examples=200, deadline=None)
def test_symmetric_group_action_is_a_representation(data):
    g, h, seq, even_count = data
    size = len(g)
    sign_h, h_seq = symmetric_group_action(h, seq, even_count)
    sign_g, gh_seq = symmetric_group_action(g, h_seq, even_count)
    composed = tuple(g[h[x] - 1] for x in range(size))
    sign_c, c_seq = symmetric_group_action(composed, seq, even_count)
    assert c_seq == gh_seq
    assert sign_c == sign_g * sign_h
    # place action: entry at position perm^{-1}(a) lands at position a
    ginv = [0] * size
    for x in range(size):
        ginv[g[x] - 1] = x + 1
    _, g_seq = symmetric_group_action(g, seq, even_count)
    assert g_seq == tuple(seq[ginv[a] - 1] for a in range(size))


def test_symmetric_group_action_rejects_a_non_permutation():
    for perm in [(1, 1, 3), (2, 1), (1, 2, 4), (1, 2, 3, 4)]:
        with pytest.raises(ValueError):
            symmetric_group_action(perm, (1, 2, 3), 1)


def test_symmetric_group_action_rejects_an_index_that_is_not_an_int():
    for perm, even_count in [((True,), 1), ((1.0,), 1), ((2, True), 1), ((1,), True), ((1,), 1.0)]:
        with pytest.raises(ValueError):
            symmetric_group_action(perm, (1,) * len(perm), even_count)


def test_params_accept_any_six_sequence():
    a = build_X(1, 1, [1, 0, 1, 0, 1, 0])
    b = build_X(1, 1, (1, 0, 1, 0, 1, 0))
    assert a == b
