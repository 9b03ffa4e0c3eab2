"""Tests for the R-matrix and Hecke layer.

Frozen entries come from the case-by-case definition of the operators; the
quadratic, braid, far-commutation and Yang-Baxter identities are checked as
exact matrix identities.  verify_frt ties the R-matrix to the quadratic rule
table of the square presentation, which was itself tested independently, so
the two encodings of the exchange relations confirm each other.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qmatalg.exactla import CoeffMatrix, CoeffVector, rank
from qmatalg import rmat_hecke
from qmatalg.laurent import ONE, Q, QINV, ZERO
from qmatalg.rmat_hecke import (
    hecke_act,
    r_inverse_matrix,
    r_matrix,
    rcheck_operator,
    sym_skew_bases,
    tensor_index,
    verify_braid,
    verify_frt,
    verify_hecke_quadratic,
)

QMQ = Q - QINV


def unit_vector(size, pos, coeff=ONE):
    return CoeffVector([coeff if i == pos else ZERO for i in range(size)])


def test_tensor_index():
    assert tensor_index((1, 1), 2) == 0
    assert tensor_index((2, 1), 2) == 2
    assert tensor_index((1, 2, 2), 2) == 3
    with pytest.raises(ValueError):
        tensor_index((3, 1), 2)


@pytest.mark.parametrize("letters", [(True, 2), (1.0, 2), (2, "1")])
def test_tensor_index_rejects_a_letter_that_is_not_an_int(letters):
    # a bool is an int to Python, but True is no letter 1
    with pytest.raises(ValueError, match="not an integer"):
        tensor_index(letters, 2)


def test_r_matrix_frozen():
    assert r_matrix(1, 0) == CoeffMatrix([[Q]])
    assert r_inverse_matrix(1, 0) == CoeffMatrix([[QINV]])
    # an odd letter flips the power: q_1 = q^{-1}, so the inverse entry is q
    assert r_matrix(0, 1) == CoeffMatrix([[QINV]])
    assert r_inverse_matrix(0, 1) == CoeffMatrix([[Q]])
    rm = r_matrix(1, 1)
    assert rm.rows[tensor_index((1, 2), 2)][tensor_index((2, 1), 2)] == -QMQ
    assert rm.rows[tensor_index((1, 1), 2)][tensor_index((1, 1), 2)] == Q
    assert rm.rows[tensor_index((2, 2), 2)][tensor_index((2, 2), 2)] == QINV
    assert rm.rows[tensor_index((1, 2), 2)][tensor_index((1, 2), 2)] == ONE
    assert rm.rows[tensor_index((2, 1), 2)][tensor_index((1, 2), 2)] == ZERO


def test_r_matrix_errors():
    with pytest.raises(ValueError):
        r_matrix(0, 0)
    with pytest.raises(ValueError):
        rcheck_operator(-1, 2)


def test_r_inverse_is_inverse():
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        rm = r_matrix(m, n)
        ri = r_inverse_matrix(m, n)
        ident = CoeffMatrix.identity((m + n) ** 2)
        assert rm @ ri == ident
        assert ri @ rm == ident


def test_yang_baxter_even_case():
    # on a purely even module the flip carries no signs, so the usual
    # conjugation builds R13 and the Yang-Baxter identity is a direct check
    d = 2
    rm = r_matrix(2, 0)
    ident = CoeffMatrix.identity(d)
    flip_rows = [[ZERO] * (d * d) for _ in range(d * d)]
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            flip_rows[tensor_index((j, i), d)][tensor_index((i, j), d)] = ONE
    flip12 = CoeffMatrix(flip_rows).kron(ident)
    r12 = rm.kron(ident)
    r23 = ident.kron(rm)
    r13 = flip12 @ r23 @ flip12
    assert r12 @ r13 @ r23 == r23 @ r13 @ r12


def test_rcheck_frozen_cases():
    rc = rcheck_operator(1, 1)
    col = tensor_index((1, 2), 2)
    assert [rc.rows[i][col] for i in range(4)] == [ZERO, ZERO, ONE, ZERO]
    assert rc.rows[tensor_index((2, 2), 2)][tensor_index((2, 2), 2)] == -QINV
    assert rc.rows[tensor_index((1, 1), 2)][tensor_index((1, 1), 2)] == Q
    col = tensor_index((2, 1), 2)
    assert rc.rows[tensor_index((1, 2), 2)][col] == ONE
    assert rc.rows[col][col] == QMQ


def test_rcheck_matches_hecke_act():
    for k, l in [(1, 1), (2, 1)]:
        d = k + l
        rc = rcheck_operator(k, l)
        for col in range(d * d):
            image = hecke_act([1], unit_vector(d * d, col), k, l, 2)
            assert list(image) == [rc.rows[i][col] for i in range(d * d)]


def graded_flip(k, l):
    d = k + l
    rows = [[ZERO] * (d * d) for _ in range(d * d)]
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            sign = -1 if i > k and j > k else 1
            rows[tensor_index((j, i), d)][tensor_index((i, j), d)] = ONE * sign
    return CoeffMatrix(rows)


def test_rcheck_is_the_graded_flip_times_r_but_on_the_mixed_diagonal():
    # Rcheck - P R is 2(q - q^-1) on the diagonal at v_b x v_a for every even
    # letter a and odd letter b, and zero everywhere else; P R satisfies the
    # Hecke quadratic exactly when that gap is empty
    for k in range(4):
        for l in range(4 - k):
            if k + l == 0:
                continue
            d = k + l
            gap = [[ZERO] * (d * d) for _ in range(d * d)]
            for a in range(1, k + 1):
                for b in range(k + 1, d + 1):
                    pos = tensor_index((b, a), d)
                    gap[pos][pos] = QMQ * 2
            pr = graded_flip(k, l) @ r_matrix(k, l)
            assert rcheck_operator(k, l) - pr == CoeffMatrix(gap), (k, l)
            ident = CoeffMatrix.identity(d * d)
            quadratic = ((pr - ident.scale(Q)) @ (pr + ident.scale(QINV))).is_zero()
            assert quadratic == (k * l == 0), (k, l)


def test_quadratic_and_braid_relations():
    for k in range(4):
        for l in range(4 - k):
            if k + l == 0:
                continue
            assert verify_hecke_quadratic(k, l), (k, l)
            assert verify_braid(k, l), (k, l)


def test_hecke_act_empty_word_is_identity():
    v = CoeffVector([ONE, Q, ZERO, QINV, ONE - Q, ZERO, ONE, ZERO])
    assert hecke_act([], v, 1, 1, 3) == v


def test_hecke_act_errors():
    with pytest.raises(ValueError):
        hecke_act([1], CoeffVector([ONE, ZERO]), 1, 1, 2)
    size = 2**2
    with pytest.raises(ValueError):
        hecke_act([0], unit_vector(size, 0), 1, 1, 2)
    with pytest.raises(ValueError):
        hecke_act([2], unit_vector(size, 0), 1, 1, 2)
    with pytest.raises(ValueError):
        hecke_act([], CoeffVector([]), 1, 1, 0)


def test_hecke_act_rejects_a_slot_or_power_that_is_not_an_int():
    vec = unit_vector(2**2, 0)
    for word in ([True], [1.0]):
        with pytest.raises(ValueError, match="slot index"):
            hecke_act(word, vec, 1, 1, 2)
    for r in (2.0, True):
        with pytest.raises(ValueError, match="tensor power"):
            hecke_act([], CoeffVector([ONE, ZERO]), 1, 1, r)


def test_hecke_act_requires_laurent_coordinates():
    # the vector is checked on entry, whether or not any slot acts on it
    for word in ([1], []):
        with pytest.raises(TypeError):
            hecke_act(word, [1, 0, 0, 0], 1, 1, 2)


HECKE_CASES = [(1, 1, 3), (2, 1, 3), (2, 0, 3), (1, 1, 4)]


@st.composite
def hecke_vector(draw):
    k, l, r = draw(st.sampled_from(HECKE_CASES))
    size = (k + l) ** r
    coeffs = st.sampled_from([ONE, Q, QINV, ONE + Q, Q - QINV])
    entries = [ZERO] * size
    for _ in range(draw(st.integers(1, 3))):
        entries[draw(st.integers(0, size - 1))] = draw(coeffs)
    return k, l, r, CoeffVector(entries)


@given(hecke_vector())
@settings(max_examples=60, deadline=None)
def test_hecke_operator_relations(data):
    k, l, r, v = data
    for i in range(1, r):
        hv = hecke_act([i], v, k, l, r)
        hhv = hecke_act([i], hv, k, l, r)
        # H_i^2 = (q - q^{-1}) H_i + 1
        assert hhv == CoeffVector([QMQ * a + b for a, b in zip(hv, v)])
    for i in range(1, r - 1):
        assert hecke_act([i, i + 1, i], v, k, l, r) == hecke_act(
            [i + 1, i, i + 1], v, k, l, r
        )
    for i in range(1, r):
        for j in range(i + 2, r):
            assert hecke_act([i, j], v, k, l, r) == hecke_act([j, i], v, k, l, r)


def test_sym_skew_bases_counts_and_eigenvalues():
    for k in range(3):
        for l in range(3 - k):
            if k + l == 0:
                continue
            d = k + l
            sym, skew = sym_skew_bases(k, l)
            assert len(sym) == k * (k + 1) // 2 + l * (l - 1) // 2 + k * l
            assert len(sym) + len(skew) == d * d
            assert rank(CoeffMatrix(sym + skew)) == d * d
            for v in sym:
                assert hecke_act([1], v, k, l, 2) == CoeffVector([Q * e for e in v])
            for v in skew:
                assert hecke_act([1], v, k, l, 2) == CoeffVector([-QINV * e for e in v])


def test_sym_basis_frozen_1_1():
    sym, _ = sym_skew_bases(1, 1)
    assert len(sym) == 2
    assert list(sym[0]) == [ONE, ZERO, ZERO, ZERO]
    # v1 x v2 + q v2 x v1: the mixed pair carries sign (-1)^{0*1} = +1
    assert list(sym[1]) == [ZERO, ONE, Q, ZERO]


def test_frt_cross_check():
    for k, l in [(1, 1), (2, 0), (2, 1), (2, 2)]:
        assert verify_frt(k, l), (k, l)


def test_frt_rejects_a_sign_flipped_swap_entry(monkeypatch):
    # negate the entry of R at v_1 x v_2, column v_2 x v_1: its q - q^{-1}
    # swap term, so that verify_frt can fail
    original = rmat_hecke.r_matrix

    def flipped(m, n):
        rows = [list(row) for row in original(m, n).rows]
        i, j = tensor_index((1, 2), m + n), tensor_index((2, 1), m + n)
        rows[i][j] = -rows[i][j]
        return CoeffMatrix(rows)

    monkeypatch.setattr(rmat_hecke, "r_matrix", flipped)
    for k, l in [(2, 0), (1, 1), (0, 2), (2, 1)]:
        assert verify_frt(k, l) is False, (k, l)
