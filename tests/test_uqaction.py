"""Action tests.

The letter rule is checked against an independent oracle: the vector
representation's matrices (diagonal K's, matrix units for the E's, and the
antipode monomials multiplied out), kept here with the parity polynomials
that read letter images off them, and frozen from hand calculations.  The
substantive checks are behavioral: the action must satisfy the two-term
coproduct rule on random products, send both sides of every defining
relation to the same normal form, and leave the X elements invariant, also
when the letter rule is mutated; the Cartan-sector operator identities are
verified as exact matrix equations on graded components, whose matrices,
unrolled over half-words, must equal the letter-by-letter construction.
"""

import re
import sys
from collections import Counter
from functools import lru_cache, partial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qmatalg import uqaction
from qmatalg.exactla import CoeffMatrix, nullspace
from qmatalg.laurent import ONE, ZERO, LaurentInt, Q, QINV
from qmatalg.qalgebra import (
    NCElement,
    _half_bases,
    _index_parity,
    _q_power_of_index,
    _sign,
    graded_basis,
    multiply,
    normal_form,
    presentation_M,
    presentation_Mtilde,
    presentation_P,
)
from qmatalg.uqaction import (
    ELOWER,
    ERAISE,
    K,
    KINV,
    ChevalleyGen,
    _act_word,
    _action_matrix,
    _part,
    _require_P,
    _row_sector,
    _unroll,
    _validate_gen,
    _word_weight,
    act,
    act_on_generator,
    chevalley_generators,
    invariant_subspace,
    is_invariant,
    verify_operator_relations,
)

NONZERO_PAIRS = [(a, b) for a in range(3) for b in range(3) if a + b >= 1]
PARAM_GRID = [
    (k, l, r, s, m, n)
    for (k, l) in NONZERO_PAIRS
    for (r, s) in NONZERO_PAIRS
    for (m, n) in NONZERO_PAIRS
]
P11 = presentation_P(1, 1, 1, 1, 1, 1)
P20 = presentation_P(2, 0, 2, 0, 2, 0)
P22 = presentation_P(1, 1, 1, 1, 2, 2)
ACT_PRES = [P11, P20, presentation_P(1, 0, 1, 0, 2, 1), presentation_P(2, 0, 1, 1, 1, 1)]


def E(kind, b, m):
    return ChevalleyGen(kind, b, 1 if b == m else 0)


def KA(a):
    return ChevalleyGen("K", a, 0)


def KI(a):
    return ChevalleyGen("Kinv", a, 0)


def build_X(a, b, pres):
    k, l, r, s, m, n = pres.params
    pa = 0 if a <= k else 1
    pb = 0 if b <= r else 1
    terms = []
    for i in range(1, m + n + 1):
        pi_ = 0 if i <= m else 1
        sg = 1 if (pa * (pb + pi_)) % 2 == 0 else -1
        terms.append(((pres.gen_id("T", a, i), pres.gen_id("Tb", b, i)), sg * ONE))
    return NCElement(terms)


def entries(mat):
    return [[str(e) for e in row] for row in mat.rows]


# ----------------------------------------------------------------- matrices
# The vector representation pi and pi(S(x)), the derivation the closed-form
# letter rule replaced, kept as the oracle's matrices.


def _antipode(x):
    """(sign, monomial) of S(x): S(K_a) = K_a^-1, S(E_{a,a+1}) =
    -E_{a,a+1} K_a^-1 K_{a+1}, S(E_{a+1,a}) = -K_a K_{a+1}^-1 E_{a+1,a}."""
    a = x.index
    ka = ChevalleyGen(K, a, 0)
    kainv = ChevalleyGen(KINV, a, 0)
    if x.kind == K:
        return 1, (kainv,)
    if x.kind == KINV:
        return 1, (ka,)
    kb = ChevalleyGen(K, a + 1, 0)
    kbinv = ChevalleyGen(KINV, a + 1, 0)
    if x.kind == ERAISE:
        return -1, (x, kainv, kb)
    if x.kind == ELOWER:
        return -1, (ka, kbinv, x)
    raise ValueError(f"unknown generator kind {x.kind!r}")


@lru_cache(maxsize=None)
def pi_matrix(x, m, n):
    """Vector representation on the column alphabet."""
    _validate_gen(x, m, n)
    sz = m + n
    rows = [[ZERO] * sz for _ in range(sz)]
    if x.kind in (K, KINV):
        for i in range(sz):
            rows[i][i] = ONE
        a = x.index
        rows[a - 1][a - 1] = _q_power_of_index(_index_parity(a, m), -1 if x.kind == KINV else 1)
    elif x.kind == ERAISE:
        rows[x.index - 1][x.index] = ONE
    else:
        rows[x.index][x.index - 1] = ONE
    return CoeffMatrix(rows)


@lru_cache(maxsize=None)
def pi_antipode_matrix(x, m, n):
    """pi(S(x)), assembled by multiplying the antipode monomial's matrices."""
    _validate_gen(x, m, n)
    sign, monomial = _antipode(x)
    sz = m + n
    acc = CoeffMatrix.identity(sz)
    for factor in monomial:
        acc = acc @ pi_matrix(factor, m, n)
    if sign < 0:
        acc = acc.scale(-1)
    return acc


def test_pi_matrix_frozen():
    assert entries(pi_matrix(KA(1), 1, 1)) == [["q", "0"], ["0", "1"]]
    assert entries(pi_matrix(KA(2), 1, 1)) == [["1", "0"], ["0", "q^-1"]]
    assert entries(pi_matrix(KI(1), 1, 1)) == [["q^-1", "0"], ["0", "1"]]
    assert entries(pi_matrix(E("Eraise", 1, 1), 1, 1)) == [["0", "1"], ["0", "0"]]
    assert entries(pi_matrix(E("Elower", 1, 1), 1, 1)) == [["0", "0"], ["1", "0"]]
    assert entries(pi_antipode_matrix(E("Eraise", 1, 2), 2, 0)) == [["0", "-q"], ["0", "0"]]
    assert entries(pi_antipode_matrix(E("Elower", 1, 1), 1, 1)) == [["0", "0"], ["-q", "0"]]


def test_pi_matrix_errors():
    g = P11.generators[0]
    with pytest.raises(ValueError):
        act_on_generator(KA(3), g, P11)
    with pytest.raises(ValueError):
        act_on_generator(E("Eraise", 2, 1), g, P11)
    with pytest.raises(ValueError):
        # parity says the boundary index, alphabet says otherwise
        act_on_generator(ChevalleyGen("Eraise", 1, 1), P20.generators[0], P20)


def test_act_on_generator_rejects_a_letter_of_another_presentation():
    # T[2,2] has no id in P(1,0,1,0,2,0), an Mtilde letter none in any P,
    # and T[1,1] of P(0,1,0,1,1,0) is odd where P(1,0,1,0,1,0)'s is even
    p2, p1 = presentation_P.__wrapped__(2, 0, 2, 0, 2, 0), presentation_P(1, 0, 1, 0, 2, 0)
    tt = presentation_Mtilde(1, 0, 1, 0).generators[0]
    odd = presentation_P.__wrapped__(0, 1, 0, 1, 1, 0).generators[0]
    cases = [(KA(1), p2.generators[p2.gen_id("T", 2, 2)], p1), (E("Eraise", 1, 2), tt, p1),
             (E("Elower", 1, 2), tt, p1), (KA(1), odd, presentation_P(1, 0, 1, 0, 1, 0))]
    for x, g, pres in cases:
        with pytest.raises(ValueError, match="is not a generator of P"):
            act_on_generator(x, g, pres)


def test_pi_antipode_frozen():
    # a Tb letter is a vector of the dual module: K_a scales column a by
    # q_a^-1, and the E's move it against the T letters' direction
    def image(x, pres, col, to):
        g = pres.generators[pres.gen_id("Tb", 1, col)]
        return str(act_on_generator(x, g, pres).terms[(pres.gen_id("Tb", 1, to),)])

    assert [image(KA(a), P11, a, a) for a in (1, 2)] == ["q^-1", "q"]
    assert [image(KI(a), P11, a, a) for a in (1, 2)] == ["q", "q^-1"]
    assert [image(KA(1), P11, 2, 2), image(KI(2), P11, 1, 1)] == ["1", "1"]
    assert image(E("Eraise", 1, 2), P20, 1, 2) == "-q"
    assert image(E("Elower", 1, 2), P20, 2, 1) == "-q^-1"
    assert image(E("Eraise", 1, 1), P11, 1, 2) == "-q^-1"
    # the odd E[2,1] picks up (-1)^[x] on top of -q_2^-1 = -q
    assert image(E("Elower", 1, 1), P11, 2, 1) == "q"


def test_counit_on_identity():
    one = NCElement.one()
    assert act(KA(1), one, P11) == one
    assert act(E("Eraise", 1, 1), one, P11).is_zero()
    assert act(E("Elower", 1, 1), one, P11).is_zero()


# ------------------------------------------------------- generator action


def test_act_on_generator_frozen():
    g = lambda fam, a, b: P11.generators[P11.gen_id(fam, a, b)]
    er, el = E("Eraise", 1, 1), E("Elower", 1, 1)
    word = lambda fam, a, b, c: NCElement.from_word((P11.gen_id(fam, a, b),), c)
    assert act_on_generator(er, g("T", 1, 1), P11).is_zero()
    assert act_on_generator(er, g("T", 1, 2), P11) == word("T", 1, 1, ONE)
    assert act_on_generator(el, g("T", 1, 1), P11) == word("T", 1, 2, ONE)
    assert act_on_generator(er, g("Tb", 1, 1), P11) == word("Tb", 1, 2, -QINV)
    assert act_on_generator(el, g("Tb", 1, 2), P11) == word("Tb", 1, 1, Q)
    # K acts by q_j^{±delta}
    assert act_on_generator(KA(1), g("T", 1, 1), P11) == word("T", 1, 1, Q)
    assert act_on_generator(KA(2), g("T", 1, 2), P11) == word("T", 1, 2, QINV)
    assert act_on_generator(KA(2), g("Tb", 1, 2), P11) == word("Tb", 1, 2, Q)
    assert act_on_generator(KA(1), g("T", 2, 2), P11) == word("T", 2, 2, ONE)
    # a generator is the plain tuple of its fields, so that tuple names it too
    assert act_on_generator(el, ("T", 1, 1, 0), P11) == word("T", 1, 2, ONE)


# the parity-polynomial letter rule that act_on_generator's closed form
# replaced, kept as its oracle (it validates nothing)
def _reference_act_on_generator(x, g, pres):
    """Action of a single Chevalley generator on one P generator."""
    k, l, r, s, m, n = _require_P(pres)
    i = g.col
    ip = _index_parity(i, m)
    rowp = (g.parity + ip) % 2
    xp = x.parity
    terms = []
    if g.family == "T":
        mat = pi_matrix(x, m, n)
        for c in range(1, m + n + 1):
            entry = mat[c - 1, i - 1]
            if not entry:
                continue
            cp = _index_parity(c, m)
            e = xp * (rowp + ip + xp) + (rowp + cp) * (cp + ip)
            terms.append(((pres.gen_id("T", g.row, c),), _sign(e) * entry))
    else:
        mat = pi_antipode_matrix(x, m, n)
        for d in range(1, m + n + 1):
            entry = mat[i - 1, d - 1]
            if not entry:
                continue
            dp = _index_parity(d, m)
            e = xp * (rowp + ip + xp) + (rowp + dp) * (dp + ip) + ip * (dp + ip)
            terms.append(((pres.gen_id("Tb", g.row, d),), _sign(e) * entry))
    return NCElement(terms)


def _oracle_counts(tuples):
    """(pairs, images): every generator on every letter of every tuple, each
    letter image with the same terms in the same order as the oracle's."""
    pairs = images = 0
    for params in tuples:
        pres = presentation_P.__wrapped__(*params)
        for x in chevalley_generators(*params[4:]):
            for g in pres.generators:
                got = act_on_generator(x, g, pres)
                want = _reference_act_on_generator(x, g, pres)
                assert list(got.terms.items()) == list(want.terms.items()), (params, x, g)
                pairs += 1
                images += len(want.terms)
    return pairs, images


def test_act_on_generator_matches_the_parity_polynomial_oracle():
    # T letters take no sign, Tb letters (-1)^([x](1 + [d])) on pi(S(x));
    # the grid's alphabets have at most four columns, the three tuples past
    # it five columns with the odd E at b = 3 and b = 2, and three odd ones
    assert _oracle_counts(PARAM_GRID) == (44928, 33408)
    assert _oracle_counts([(1, 1, 1, 1, 3, 2), (1, 1, 1, 1, 2, 3), (1, 1, 1, 1, 0, 3)]) == (840, 552)


def test_act_requires_P():
    m = presentation_M(1, 1, 1, 1)
    with pytest.raises(ValueError):
        act(KA(1), NCElement.one(), m)


def test_act_mismatched_alphabet():
    with pytest.raises(ValueError):
        act(KA(3), NCElement.one(), P11)
    with pytest.raises(ValueError):
        act(ChevalleyGen("Eraise", 2, 1), NCElement.one(), P20)


def test_act_rejects_a_generator_id_outside_the_presentation():
    # a negative id would index the letter table from the end
    pres = presentation_P(1, 0, 1, 0, 2, 0)
    for bad in ((-1,), (pres.ngens,)):
        for x in (E("Elower", 1, 2), KA(1)):
            with pytest.raises(ValueError, match="outside presentation"):
                act(x, NCElement.from_word(bad), pres)


# ------------------------------------------------------------- properties


@st.composite
def pres_gen_word(draw, max_len=4):
    pres = draw(st.sampled_from(ACT_PRES))
    m, n = pres.params[4], pres.params[5]
    x = draw(st.sampled_from(chevalley_generators(m, n)))
    length = draw(st.integers(0, max_len))
    word = tuple(draw(st.integers(0, pres.ngens - 1)) for _ in range(length))
    return pres, x, word


@settings(max_examples=120, deadline=None)
@given(pres_gen_word())
def test_K_acts_diagonally(pxw):
    pres, x, word = pxw
    if x.kind not in ("K", "Kinv"):
        x = KA(x.index)
    m = pres.params[4]
    e = normal_form(NCElement.from_word(word), pres)
    got = act(x, e, pres)
    wt = 0
    for gid in word:
        g = pres.generators[gid]
        if g.col == x.index:
            step = 1 if g.col <= m else -1
            wt += step if g.family == "T" else -step
    if x.kind == "Kinv":
        wt = -wt
    assert got == e.scaled(LaurentInt.q_power(wt))


@settings(max_examples=100, deadline=None)
@given(pres_gen_word(max_len=3), pres_gen_word(max_len=3))
def test_module_superalgebra_rule(pxw, pyw):
    pres, x, wa = pxw
    _, _, wb = pyw
    wb = tuple(g % pres.ngens for g in wb)
    if x.kind not in ("Eraise", "Elower"):
        return
    a, b = NCElement.from_word(wa), NCElement.from_word(wb)
    lhs = act(x, multiply(a, b, pres), pres)
    u = x.index
    pa = sum(pres.generators[g].parity for g in wa) % 2
    sg = 1 if (x.parity * pa) % 2 == 0 else -1
    if x.kind == "Eraise":
        kb = act(KA(u), act(KI(u + 1), b, pres), pres)
        rhs = multiply(act(x, a, pres), kb, pres) + multiply(a, act(x, b, pres), pres).scaled(sg)
    else:
        ka = act(KI(u), act(KA(u + 1), a, pres), pres)
        rhs = multiply(act(x, a, pres), b, pres) + multiply(ka, act(x, b, pres), pres).scaled(sg)
    assert lhs == rhs


def test_action_respects_relations():
    for pres in [P11, presentation_P(1, 0, 1, 0, 2, 1)]:
        m, n = pres.params[4], pres.params[5]
        gens = chevalley_generators(m, n)
        for (i, j), rhs in pres.rules.items():
            lhs_el = NCElement.from_word((i, j))
            rhs_el = NCElement(list((w, c) for c, w in rhs))
            for x in gens:
                assert act(x, lhs_el, pres) == act(x, rhs_el, pres)


# ------------------------------------------------------------- invariance


def test_X_elements_invariant():
    p = presentation_P(1, 0, 1, 0, 2, 0)
    assert is_invariant(build_X(1, 1, p), p)
    assert not is_invariant(p.generator("T", 1, 1), p)
    assert is_invariant(NCElement.one(), p)
    for a in (1, 2):
        for b in (1, 2):
            assert is_invariant(build_X(a, b, P11), P11)
    assert is_invariant(build_X(1, 1, P22), P22)
    assert is_invariant(build_X(2, 1, P22), P22)


def _drop_the_raising_minus(x, g, exp, image):
    if image and g.family == "Tb" and x.kind == ERAISE:
        image = image[0], -image[1]
    return exp, image


def _drop_the_lowering_parity_sign(x, g, exp, image):
    if image and g.family == "Tb" and x.kind == ELOWER and x.parity:
        image = image[0], -image[1]
    return exp, image


def _unnegate_the_dual_k_exponent(x, g, exp, image):
    return (-exp if g.family == "Tb" else exp), image


@pytest.mark.parametrize(
    "mutate",
    [_drop_the_raising_minus, _drop_the_lowering_parity_sign, _unnegate_the_dual_k_exponent],
    ids=["raising-Tb-sign", "lowering-Tb-parity-sign", "Tb-K-exponent"],
)
def test_invariance_catches_a_mutated_letter_rule(mutate, monkeypatch):
    # C03's check itself, not only the oracle, rejects a wrong letter rule;
    # (1,1,1,1,1,1) has the odd E[2,1], without which the parity-sign
    # mutant is invisible.  Each presentation is built here, bypassing the
    # constructor's cache, so no letter table filled earlier hides the mutant
    rows = [(a, b) for a in (1, 2) for b in (1, 2)]
    pres = presentation_P.__wrapped__(1, 1, 1, 1, 1, 1)
    assert all(is_invariant(build_X(a, b, pres), pres) for a, b in rows)
    original = uqaction._letter_rule
    monkeypatch.setattr(uqaction, "_letter_rule", lambda x, g, m: mutate(x, g, *original(x, g, m)))
    pres = presentation_P.__wrapped__(1, 1, 1, 1, 1, 1)
    assert not all(is_invariant(build_X(a, b, pres), pres) for a, b in rows)


def test_products_of_invariants_invariant():
    x11, x21 = build_X(1, 1, P11), build_X(2, 1, P11)
    assert is_invariant(multiply(x11, x21, P11), P11)
    assert is_invariant(multiply(x21, x21, P11), P11)


def test_invariant_subspace_dims():
    assert len(invariant_subspace(P11, (0, 0))) == 1
    p10 = presentation_P(1, 0, 1, 0, 1, 0)
    assert len(invariant_subspace(p10, (1, 0))) == 0
    assert len(invariant_subspace(p10, (1, 1))) == 1
    assert len(invariant_subspace(P22, (1, 1))) == 4


def test_invariant_subspace_vectors_are_invariant():
    # each invariant lives on the zero-weight words of one (T rows, Tb rows) sector
    for pres, bidegree in ((P11, (1, 1)), (P11, (2, 2)), (P22, (1, 1))):
        invariants = invariant_subspace(pres, bidegree)
        assert invariants
        for e in invariants:
            assert is_invariant(e, pres)
            assert len({_row_sector(w, pres) for w in e.terms}) == 1
            m, n = pres.params[4:]
            assert all(_word_weight(w, pres, m, n) == (0,) * (m + n) for w in e.terms)


# the whole-word construction that invariant_subspace replaced, kept verbatim
# as its oracle
def _reference_invariant_subspace(pres, bidegree):
    """Basis of the invariants inside one graded component, as NCElements.

    K-invariance forces zero column weight, so the kernel is computed on the
    zero-weight words only, sector by sector (sorted): the E's never change
    row indices or families, hence they preserve the (T rows, Tb rows)
    multiset pair.  Each invariant lives on the words of one sector.
    """
    k, l, r, s, m, n = _require_P(pres)
    egens = [x for x in chevalley_generators(m, n) if x.kind in (ERAISE, ELOWER)]
    zero_wt = tuple([0] * (m + n))
    sectors = {}
    for w in graded_basis(pres, bidegree):
        if _word_weight(w, pres, m, n) == zero_wt:
            sectors.setdefault(_row_sector(w, pres), []).append(w)
    order = sorted(sectors)
    words = [w for key in order for w in sectors[key]]
    # one lazy stream of images per E over all the words, sector after
    # sector, so the columns are held one sector at a time; map binds each
    # E now, where a generator expression would act with the last one
    streams = [map(partial(_act_word, x, pres=pres), words) for x in egens]
    out = []
    for key in order:
        domain = sectors[key]
        # column j stacks the E-images of domain[j], keyed (E index, word);
        # only words hit by the action give rows, so a sector with none (no
        # E's, or nothing hit) is a matrix with no rows: all of it invariant
        cols = []
        for _ in domain:
            col = {}
            for e, stream in enumerate(streams):
                raw = {w: LaurentInt(d) for w, d in next(stream).items()}
                for w1, c in normal_form(NCElement._raw(raw), pres).terms.items():
                    col[e, w1] = c
            cols.append(col)
        keys = sorted(set().union(*cols))
        for vec in nullspace(CoeffMatrix.from_columns(cols, keys)):
            out.append(NCElement._raw({w: e for w, e in zip(domain, vec) if e}))
    return out


def _term_lists(elements):
    return [list(e.terms.items()) for e in elements]


def test_invariant_subspace_matches_the_whole_word_oracle():
    # same invariants in the same order, each with the same words in the
    # same order and the same coefficients
    cases = [(p, (d1, d2)) for p in PARAM_GRID[::5] for d1 in range(3) for d2 in range(3)]
    cases += [(p, (3, 3)) for p in ((1, 1, 1, 1, 2, 1), (2, 1, 2, 1, 2, 1), (1, 1, 1, 1, 2, 2))]
    hits = 0
    for params, bidegree in cases:
        pres = presentation_P(*params)
        want = _term_lists(_reference_invariant_subspace(pres, bidegree))
        assert _term_lists(invariant_subspace(pres, bidegree)) == want, (params, bidegree)
        hits += len(want)
    assert hits > 2000


def test_unrolling_over_two_parts_matches_the_letter_by_letter_action():
    # every cut u|v of every normal word up to total degree 4, cuts inside
    # the T part included; each part carries its raw, unnormalized image
    pres = presentation_P(1, 1, 1, 1, 2, 1)
    m, n = pres.params[4:]
    words = [w for d1 in range(5) for d2 in range(5 - d1) for w in graded_basis(pres, (d1, d2))]
    egens = [x for x in chevalley_generators(m, n) if x.kind in (ERAISE, ELOWER)]
    assert any(x.parity for x in egens)

    def part(x, h):
        raw = _act_word(x, h, pres)
        letters = [_part(x, (gid,), pres) for gid in h]
        return len(h), sum(t[1] for t in letters), sum(t[2] for t in letters), tuple(raw.items())

    for x in egens:
        for w in words:
            whole = _act_word(x, w, pres)
            for cut in range(len(w) + 1):
                assert _unroll(x, w, (part(x, w[:cut]), part(x, w[cut:]))) == whole, (x, w, cut)


def test_an_unbalanced_bidegree_has_no_invariants():
    # T-words weigh +d1 in total and Tb-words -d2, so no word of (3, 1) has zero weight
    assert invariant_subspace(P22, (3, 1)) == []
    assert invariant_subspace(P22, (0, 2)) == []


def test_a_negative_bidegree_raises():
    with pytest.raises(ValueError):
        invariant_subspace(P11, (-1, 1))
    with pytest.raises(ValueError):
        invariant_subspace(P11, (1, -1))


@pytest.mark.parametrize("bidegree", [(1,), (1, 1, 1), 2, None, (True, True), (True, 1),
                                      (1.0, 1), (1, "1"), (-1, 1)])
def test_a_bidegree_must_be_a_pair_of_nonnegative_integers(bidegree):
    # (True, True) gave one invariant, (1.0, 1) raised TypeError and (1,) a
    # failed unpacking
    message = f"^bidegree must be a pair of nonnegative integers, got {re.escape(repr(bidegree))}$"
    for call in (invariant_subspace, verify_operator_relations, graded_basis):
        with pytest.raises(ValueError, match=message):
            call(P11, bidegree)


def test_operator_relations_reports():
    rep = verify_operator_relations(P11, (1, 1))
    assert rep["checks"] == {"R1": True, "R2": True, "R3": True}
    # three column letters, so R3 also brackets E's of different roots (a != b)
    cases = [(P11, (1, 1)), (P20, (1, 1)), (P11, (2, 0)),
             (presentation_P(1, 1, 1, 1, 2, 1), (1, 1)), (presentation_P(1, 1, 1, 1, 1, 2), (1, 1))]
    for pres, bidegree in cases:
        rep = verify_operator_relations(pres, bidegree)
        assert rep["pass"], rep["failures"]
        # the column alphabet is read from the presentation
        assert (rep["m"], rep["n"]) == pres.params[4:]


# Each mutant of one operator matrix below must fail the relations it breaks,
# so that verify_operator_relations can fail.


@pytest.mark.parametrize(
    "target, mutate, checks",
    [
        (E("Eraise", 1, 2), lambda mat: mat.scale(Q), {"R1": True, "R2": True, "R3": False}),
        (E("Eraise", 1, 2), lambda mat: mat + CoeffMatrix.identity(mat.nrows),
         {"R1": True, "R2": False, "R3": True}),
        (KA(1), lambda mat: mat.scale(Q), {"R1": False, "R2": False, "R3": False}),
    ],
    ids=["E-scaled-by-q", "E-plus-identity", "K-scaled-by-q"],
)
def test_operator_relations_reject_a_mutated_matrix(target, mutate, checks, monkeypatch):
    # E[1,2] is even at (m, n) = (2, 1) and E[3,2] odd, so [1, E[3,2]] = 0 and
    # adding the identity to E[1,2] leaves R3 intact; scaling E[1,2] by q
    # keeps every K-conjugation but not the bracket
    pres = presentation_P(1, 1, 1, 1, 2, 1)
    assert verify_operator_relations(pres, (1, 1))["pass"]
    original = uqaction._action_matrix

    def mutated(x, pres, bidegree):
        mat = original(x, pres, bidegree)
        return mutate(mat) if x == target else mat

    monkeypatch.setattr(uqaction, "_action_matrix", mutated)
    rep = verify_operator_relations(pres, (1, 1))
    assert rep["checks"] == checks
    assert rep["pass"] is False and rep["failures"]


def test_operator_relations_bracket_raising_and_lowering_es_of_different_roots(monkeypatch):
    # with E[1,2] acting as E[2,3], its bracket with E[3,2] is a Cartan
    # element, not zero, so the a != b case of R3 must report it
    pres = presentation_P(1, 1, 1, 1, 2, 1)
    original = uqaction._action_matrix
    swap = {E("Eraise", 1, 2): E("Eraise", 2, 2)}
    monkeypatch.setattr(uqaction, "_action_matrix",
                        lambda x, pres, bidegree: original(swap.get(x, x), pres, bidegree))
    rep = verify_operator_relations(pres, (1, 1))
    assert "R3: [E[1,2], E[3,2]] mismatch" in rep["failures"]


# ------------------------------------------------- per-presentation part table


def test_each_part_is_built_once_per_presentation(monkeypatch):
    # the module-level presentations' tables are filled by earlier tests,
    # so this counts on presentations built here, bypassing the
    # constructor's cache; two of them, each with its own table.  A call
    # that finds no part for its word in the table builds one
    built = Counter()
    original = uqaction._part

    def counted(x, h, pres):
        if h not in pres._letter_images.get(x, {}):
            built[x, h, id(pres)] += 1
        return original(x, h, pres)

    monkeypatch.setattr(uqaction, "_part", counted)
    fresh = [presentation_P.__wrapped__(1, 1, 1, 1, 2, 2) for _ in range(2)]
    gens = chevalley_generators(2, 2)
    egens = [x for x in gens if x.kind in (ERAISE, ELOWER)]
    parts = lambda pres: {(x, h) for x, h, p in built if p == id(pres)}
    for pres in fresh:
        letters = [(g,) for g in range(pres.ngens)]
        twords, bwords = _half_bases(pres, (2, 2))
        first = invariant_subspace(pres, (2, 2))
        assert first and invariant_subspace(pres, (2, 2)) == first
        assert parts(pres) == {(x, h) for x in egens for h in letters + twords + bwords}
        # the matrices at (2, 1) add the K's and reuse the E-parts of the T-words
        assert verify_operator_relations(pres, (2, 1))["pass"]
        assert parts(pres) == ({(x, h) for x in egens for h in bwords}
                           | {(x, h) for x in gens for h in letters + twords})
        assert parts(pres) == {(x, h) for x, table in pres._letter_images.items() for h in table}
    assert set(built.values()) == {1}


def test_the_letter_table_keeps_no_presentation_alive():
    pres = presentation_P(1, 1, 1, 1, 1, 1)
    before = sys.getrefcount(pres)
    assert invariant_subspace(pres, (2, 2))
    assert verify_operator_relations(pres, (1, 1))["pass"]
    assert sys.getrefcount(pres) == before


# the letter-by-letter construction of the operator matrices that the
# half-word one replaced, kept as its oracle
def _reference_action_matrix(x, pres, bidegree):
    basis = graded_basis(pres, bidegree)
    images = [normal_form(_act_word(x, w, pres), pres).terms for w in basis]
    return CoeffMatrix.from_columns(images, basis)


def test_action_matrix_matches_act_on_each_basis_word():
    # every generator, K's and odd E's included, on every component of
    # total degree at most 3; the two five-column tuples put the odd E at b = 3 and b = 2
    tuples = PARAM_GRID[::7] + [(1, 1, 1, 1, 3, 2), (1, 1, 1, 1, 2, 3)]
    odd = dims = 0
    for params in tuples:
        pres = presentation_P(*params)
        for x in chevalley_generators(*params[4:]):
            odd += x.parity
            for bidegree in [(d1, d2) for d1 in range(4) for d2 in range(4 - d1)]:
                want = _reference_action_matrix(x, pres, bidegree)
                assert _action_matrix(x, pres, bidegree) == want, (params, x, bidegree)
                dims += want.nrows
    assert odd and dims


def test_chevalley_generators_reject_bad_column_counts():
    # an empty column alphabet gave no generators, and a bool count was an int
    for m, n, message in ((-1, 0, "must be nonempty, got (-1,0)"), (0, 0, "must be nonempty, got (0,0)"),
                          (True, 1, "must be two integers, got (True,1)"),
                          (1, 0.5, "must be two integers, got (1,0.5)")):
        with pytest.raises(ValueError, match=re.escape(f"U_q(gl(m|n)): index range cols {message}")):
            chevalley_generators(m, n)
    assert len(chevalley_generators(1, 0)) == 2
