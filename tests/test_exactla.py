"""Exact linear algebra tests.

The rank oracle evaluates the matrix at a few scattered rational points:
rank at any specialization is a lower bound for the generic-q rank, and on
random non-adversarial matrices the maximum over several points attains it.
The kernel check M @ v == 0 is exact and unconditional.  The unit-pivot
elimination is also cross-checked against plain Bareiss elimination
(``_echelon``) on sparse matrices rich in units +-q^e, and its unit phase
against a plain-scan Gauss-Jordan reference (``_reference_unit_phase``).
The sparse Bareiss and back substitution are pinned to the dense ones they
replaced (``_dense_echelon``, ``_dense_echelon_kernel``): the same pivots,
echelon rows and kernel vectors.  The back substitution that scaled each
vector by every Bareiss pivot left of its free column is kept as
``_every_pivot_nullspace``: the vectors solved with the skip rule have its
supports and are proportional to its vectors.
"""

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qmatalg import exactla
from qmatalg.exactla import (
    _PRIME,
    CoeffMatrix,
    CoeffVector,
    _back_substitute,
    _echelon,
    _pivots_mod_p,
    _unit_phase,
    nullspace,
    pivot_columns,
    rank,
)
from qmatalg.laurent import ONE, Q, ZERO, LaurentInt, _add_term, lau_div_exact, parse_laurent


def L(text):
    return parse_laurent(text)


def M(rows):
    return CoeffMatrix([[L(e) if isinstance(e, str) else e for e in r] for r in rows])


small_laurents = st.builds(
    lambda d: LaurentInt(d),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3),
)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda nr: st.integers(1, max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(small_laurents, min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            ).map(CoeffMatrix)
        )
    )


units = st.builds(LaurentInt.q_power, st.integers(-3, 3), st.sampled_from([1, -1]))
non_units = st.sampled_from(
    [L("2*q"), L("q + 1"), L("q^2 - q^-2"), L("-3*q^-1"), L("q - q^-1")]
)
# mostly zeros, then units, then non-units
unit_rich_entries = st.sampled_from([0, 0, 0, 1, 1, 2]).flatmap(
    lambda k: (st.just(ZERO), units, non_units)[k]
)
non_unit_entries = st.one_of(st.just(ZERO), non_units)


def sparse_matrices(entries, nrows, ncols):
    return st.tuples(nrows, ncols).flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(CoeffMatrix)
    )


unit_rich_matrices = st.one_of(
    sparse_matrices(unit_rich_entries, st.integers(1, 8), st.integers(1, 8)),
    sparse_matrices(unit_rich_entries, st.integers(6, 12), st.integers(1, 4)),
    sparse_matrices(unit_rich_entries, st.integers(1, 4), st.integers(6, 12)),
    sparse_matrices(non_unit_entries, st.integers(1, 5), st.integers(1, 5)),
)


def eval_rank(matrix, q_value):
    """Plain Fraction Gaussian elimination after substituting q = q_value."""
    rows = [
        [
            sum(Fraction(c) * Fraction(q_value) ** e for e, c in entry.terms.items())
            for entry in row
        ]
        for row in matrix.rows
    ]
    rk = 0
    ncols = matrix.ncols
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rk += 1
        r += 1
    return rk


def test_rank_proportional_rows():
    assert rank(M([["q", "1"], ["q^2", "q"]])) == 1


def test_rank_identity_and_zero():
    assert rank(CoeffMatrix.identity(4)) == 4
    assert rank(CoeffMatrix.zeros(3, 5)) == 0


def test_nullspace_golden():
    ker = nullspace(M([["q", "- 1"]]))
    assert ker == [CoeffVector([ONE, L("q")])]


def test_nullspace_of_full_rank_is_empty():
    assert nullspace(CoeffMatrix.identity(3)) == []


def test_nullspace_normalization_strips_content():
    # both entries share a factor 2*q^3; the basis vector must not
    ker = nullspace(M([["2*q^4", "- 2*q^3"]]))
    assert ker == [CoeffVector([ONE, L("q")])]


def test_column_span_dim():
    # vectors as rows: the rank is the dimension of their span
    v1 = CoeffVector([L("q"), L("q^2")])
    v2 = CoeffVector([ONE, L("q")])
    v3 = CoeffVector([ZERO, ONE])
    assert rank(CoeffMatrix([v1, v2])) == 1
    assert rank(CoeffMatrix([v1, v3])) == 2
    assert rank(CoeffMatrix([])) == 0


def test_column_span_dim_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="ragged matrix"):
        rank(CoeffMatrix([CoeffVector([ONE, ZERO]), CoeffVector([Q])]))
    with pytest.raises(ValueError, match="ragged matrix"):
        rank(CoeffMatrix([CoeffVector([ONE]), CoeffVector([ZERO, ONE])]))


def test_add_and_sub_reject_shape_mismatch():
    wide, narrow = M([["1", "1"]]), M([["1"]])
    for a, b in [(wide, narrow), (narrow, wide), (wide, M([["1", "1"], ["1", "1"]]))]:
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
    assert wide + wide == M([["2", "2"]]) and (wide - wide).is_zero()


def test_from_columns():
    keys = ["a", "b", "c"]
    m = CoeffMatrix.from_columns([{"a": Q, "c": ONE}, {}, {"b": L("q^-2")}], keys)
    # column j holds columns[j], rows follow keys, omitted keys read ZERO
    assert m == M([["q", "0", "0"], ["0", "0", "q^-2"], ["1", "0", "0"]])
    assert CoeffMatrix.from_columns([{"a": Q}], ["c", "a"]) == M([["0"], ["q"]])
    with pytest.raises(ValueError):
        CoeffMatrix.from_columns([{"a": ONE, "d": ONE}], keys)
    with pytest.raises(TypeError):
        CoeffMatrix.from_columns([{"a": 1}], ["a"])
    assert rank(CoeffMatrix.from_columns([], keys)) == 0
    # an explicit ZERO is stored like an omitted key
    assert CoeffMatrix.from_columns([{"a": Q, "b": ZERO}], keys) == CoeffMatrix.from_columns([{"a": Q}], keys)
    # rows is a dense view of tuples of LaurentInt, and it rebuilds the matrix
    assert CoeffMatrix(m.rows) == m
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert all(isinstance(e, LaurentInt) for r in m.rows for e in r)
    assert m[1, 0] == ZERO and m[1, 2] == L("q^-2")
    with pytest.raises(IndexError):
        m[0, 3]


def test_getitem_rejects_an_out_of_range_row_like_a_column():
    m = M([["q", "1"], ["0", "q^-1"]])
    assert m[1, 1] == L("q^-1")
    for i, j, which in [(-1, 0, "row"), (2, 0, "row"), (5, 0, "row"),
                        (0, -1, "column"), (0, 2, "column")]:
        with pytest.raises(IndexError, match=f"^{which} index out of range$"):
            m[i, j]


def test_from_columns_leaves_untouched_rows_empty():
    keys = ["a", "b", "c", "d"]
    cols = [{"a": Q, "c": ONE}, {"c": L("q^-2")}, {"a": ONE, "c": Q}]
    m = CoeffMatrix.from_columns(cols, keys)
    # rows b and d are untouched
    assert m[1, 0] == ZERO and m[3, 2] == ZERO
    dense = CoeffMatrix(m.rows)
    assert m == dense and dense == m
    assert rank(m) == rank(dense) == 2
    assert nullspace(m) == nullspace(dense)
    assert m.transpose().transpose() == m and (m - dense).is_zero()


def test_matrix_without_rows_keeps_its_columns():
    assert CoeffMatrix.zeros(0, 5).ncols == 5
    assert CoeffMatrix.from_columns([{}, {}], []).ncols == 2
    assert CoeffMatrix.zeros(0, 3) != CoeffMatrix.zeros(0, 5)
    # no constraint rows: every unit vector is in the kernel
    units = [CoeffVector(r) for r in CoeffMatrix.identity(3).rows]
    assert nullspace(CoeffMatrix.zeros(0, 3)) == units
    assert CoeffMatrix.zeros(0, 3).transpose() == CoeffMatrix.zeros(3, 0)
    assert CoeffMatrix.zeros(2, 0) @ CoeffMatrix.zeros(0, 3) == CoeffMatrix.zeros(2, 3)
    assert CoeffMatrix.zeros(0, 3).scale(Q) - CoeffMatrix.zeros(0, 3) == CoeffMatrix.zeros(0, 3)
    assert CoeffMatrix.zeros(0, 3).rows == () and CoeffMatrix.zeros(2, 0).rows == ((), ())
    assert CoeffMatrix(CoeffMatrix.zeros(2, 0).rows) == CoeffMatrix.zeros(2, 0)


def test_matmul_and_kron():
    a = M([["q", "0"], ["0", "q^-1"]])
    b = M([["0", "1"], ["1", "0"]])
    assert (a @ b) == M([["0", "q"], ["q^-1", "0"]])
    k = a.kron(b)
    assert k.nrows == 4 and k[(0, 1)] == L("q") and k[(3, 2)] == L("q^-1")


@settings(deadline=None)
@given(matrices())
def test_rank_nullity(m):
    ker = nullspace(m)
    assert rank(m) + len(ker) == m.ncols


@settings(deadline=None)
@given(matrices())
def test_kernel_vectors_are_exact(m):
    for v in nullspace(m):
        out = m @ v
        assert all(not e for e in out)


@settings(deadline=None)
@given(matrices())
def test_rank_matches_transpose(m):
    assert rank(m) == rank(m.transpose())
    assert m.transpose().transpose() == m
    assert CoeffMatrix(m.rows) == m


@settings(deadline=None)
@given(matrices(max_dim=4))
def test_rank_against_evaluation_oracle(m):
    lower = max(eval_rank(m, Fraction(p, r)) for p, r in [(7, 3), (13, 5), (101, 17)])
    assert rank(m) == lower


def _q1_columns(m):
    """The columns of m at q = 1, as sparse {row: int} mappings."""
    return [{i: row[j].eval_q1() for i, row in enumerate(m.rows) if row[j].eval_q1()}
            for j in range(m.ncols)]


@settings(deadline=None)
@given(st.one_of(matrices(), unit_rich_matrices))
def test_rank_mod_p_at_q1_is_at_most_the_rank(m):
    # q -> 1 and then mod p are ring maps, which cannot raise a rank; these
    # matrices' minors at q = 1 are far below p, so it is the rank over Q
    cols = _q1_columns(m)
    pivots = _pivots_mod_p(cols)
    assert len(pivots) == eval_rank(m, 1) <= rank(m)
    # in column order, each pivot independent of the columns before it
    assert pivots == sorted(pivots)
    assert all(len(_pivots_mod_p(cols[: j + 1])) == i + 1 for i, j in enumerate(pivots))


def _rank_mod_p(columns):
    return len(_pivots_mod_p(columns))


def test_rank_mod_p_drops_where_p_divides_a_minor():
    # a lower bound only: the 1 x 1 minor p and the 2 x 2 minor p vanish mod p
    assert _rank_mod_p([{0: _PRIME}]) == 0
    assert _rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: 1 + _PRIME}]) == 1
    assert _rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: 2}]) == 2
    # keys of any hashable kind, numbered as they are first seen
    assert _rank_mod_p([{"b": 2, "a": 4}, {"a": 2, "b": 1}, {"c": -1}]) == 2
    assert _rank_mod_p([]) == 0 and _rank_mod_p([{}, {}]) == 0


def test_pivots_mod_p_can_differ_from_the_pivots_over_Q():
    # column 0 is p, nonzero over Q but zero mod p, so the first pivot mod p
    # is column 1; over Q column 0 alone is independent
    cols = [{0: _PRIME}, {0: 1}]
    assert _pivots_mod_p(cols) == [1]
    assert rank(CoeffMatrix.from_columns([{0: LaurentInt.from_int(_PRIME)}], [0])) == 1
    # and pivot_columns takes both columns where mod p only the second counts
    wide = [{0: _PRIME}, {1: 1}]
    assert _pivots_mod_p(wide) == [1]
    lifted = [{k: LaurentInt.from_int(c) for k, c in col.items()} for col in wide]
    assert pivot_columns(CoeffMatrix.from_columns(lifted, [0, 1])) == [0, 1]


@settings(deadline=None, max_examples=200)
@given(unit_rich_matrices)
def test_unit_pivoting_agrees_with_bareiss_oracle(m):
    rk = rank(m)
    assert rk == len(_echelon(m._rows)[1])
    ker = nullspace(m)
    assert rk + len(ker) == m.ncols
    for v in ker:
        assert all(not e for e in m @ v)
    # pivoting is deterministic, so the basis repeats exactly
    assert nullspace(m) == ker


@settings(deadline=None, max_examples=200)
@given(unit_rich_matrices)
def test_pivot_columns_are_a_column_basis(m):
    cols = pivot_columns(m)
    assert len(cols) == rank(m)
    assert cols == sorted(set(cols))
    # independent under the plain Bareiss oracle, so they span the column space
    picked = [{j: e for j, e in row.items() if j in cols} for row in m._rows]
    assert len(_echelon(picked)[1]) == len(cols)


def test_pivot_columns_of_matrices_without_entries():
    assert pivot_columns(CoeffMatrix([], 3)) == []
    assert pivot_columns(CoeffMatrix([[], []], 0)) == []


def _is_unit(e):
    """True for the units +-q^k of Z[q, q^-1]."""
    if len(e.terms) != 1:
        return False
    (c,) = e.terms.values()
    return c == 1 or c == -1


def _reference_unit_phase(rows):
    """The unit phase as a plain scan: each pivot scans every row for the
    shortest one holding a unit, and clears the pivot column from every
    other row, earlier unit rows included (Gauss-Jordan)."""
    active = [dict(r) for r in rows if r]
    units = []
    while True:
        best = None
        for i, row in enumerate(active):
            if best is not None and len(row) >= len(active[best[0]]):
                continue
            p = min((j for j, e in row.items() if _is_unit(e)), default=None)
            if p is not None:
                best = (i, p)
        if best is None:
            return units, active
        i, p = best
        row = active.pop(i)
        ((k, c),) = row[p].terms.items()
        inv = LaurentInt._raw({-k: c})
        row = {j: inv * e for j, e in row.items()}
        for other in [r for _, r in units] + active:
            f = other.pop(p, None)
            if f is None:
                continue
            f = -f
            for j, e in row.items():
                if j != p:
                    _add_term(other, j, f * e)
        active = [r for r in active if r]
        units.append((p, row))


def _normalize_dense(vec):
    """A full-length kernel vector, normalized as nullspace does it: divided
    by the gcd of its integer coefficients and by q to its lowest exponent,
    signed by the first nonzero entry's leading coefficient."""
    content = 0
    shift = None
    for v in vec:
        for e, c in v.terms.items():
            content = gcd(content, c)
            shift = e if shift is None else min(shift, e)
    if content == 0:
        return vec
    lead = next(v for v in vec if v)
    sign = 1 if lead.terms[lead.max_exp()] > 0 else -1
    content *= sign
    return [
        LaurentInt._raw({e - shift: c // content for e, c in v.terms.items()})
        for v in vec
    ]


def _reference_nullspace(m):
    """Kernel basis through the reference unit rows, lifted in pivot order:
    a Gauss-Jordan unit row holds no other pivot column, so any order reads
    only residual columns."""
    units, residual = _reference_unit_phase(m._rows)
    ech, pivots = _echelon(residual)
    solved = list(zip(pivots, ech))
    bound = {p for p, _ in units}.union(pivots)
    basis = []
    for f in [c for c in range(m.ncols) if c not in bound]:
        vec = _back_substitute({f: ONE}, solved)
        for p, row in units:
            vec[p] = -sum((e * vec[j] for j, e in row.items() if j != p and j in vec), ZERO)
        dense = [vec.get(c, ZERO) for c in range(m.ncols)]
        basis.append(CoeffVector(_normalize_dense(dense)))
    return basis


@settings(deadline=None, max_examples=300)
@given(unit_rich_matrices)
def test_unit_phase_matches_the_plain_scan(m):
    units, residual = _unit_phase(m._rows)
    ref_units, ref_residual = _reference_unit_phase(m._rows)
    # the same pivots in the same order, and the same residual rows in order
    assert [p for p, _ in units] == [p for p, _ in ref_units]
    assert residual == ref_residual
    # forward elimination: a unit row holds no earlier pivot column
    for k, (p, row) in enumerate(units):
        assert row[p] == ONE
        assert not any(earlier in row for earlier, _ in units[:k])
    # the lifted values are unique, so the kernel vectors are identical
    assert nullspace(m) == _reference_nullspace(m)


def test_a_unit_row_keeps_a_later_pivot_column():
    # row 0 pivots on column 0 and keeps column 1, row 1's later pivot; the
    # kernel lift must set x_1 before it reads it for x_0
    m = M([["1", "1", "0", "0"], ["0", "1", "1", "1"]])
    units, residual = _unit_phase(m._rows)
    assert [p for p, _ in units] == [0, 1] and residual == []
    assert units[0][1] == {0: ONE, 1: ONE}
    ker = nullspace(m)
    assert len(ker) == 2
    for v in ker:
        assert all(not e for e in m @ v)


def test_the_sign_comes_from_the_lowest_column():
    # the free column 1 enters the sparse vector before the pivot column 0,
    # whose entry -q^2 fixes the sign: the first key would flip it
    m = M([["q", "q^3"]])
    vec = _back_substitute({1: ONE}, exactla._eliminate(m))
    assert list(vec.items()) == [(1, ONE), (0, L("-q^2"))]
    assert nullspace(m) == [CoeffVector([Q * Q, -ONE])]
    assert nullspace(m) == _reference_nullspace(m)


def test_fill_in_reaches_the_column_index():
    # clearing column 0 fills column 1 into row 1, which row 2's pivot on
    # column 1 must then clear
    m = M([["1", "1", "0", "0"], ["1", "0", "2", "2"], ["0", "1", "2", "0"]])
    units, residual = _unit_phase(m._rows)
    assert [p for p, _ in units] == [0, 1]
    assert residual == [{2: L("4"), 3: L("2")}] == _reference_unit_phase(m._rows)[1]


# The dense Bareiss elimination and back substitution that the sparse ones
# replaced, kept as the reference they must reproduce exactly.


def _dense_echelon(rows):
    """Fraction-free row echelon form; returns (rows, pivot column list).

    One-step Bareiss: entries stay in the ring, each elimination divides by
    the previous pivot exactly (Sylvester identity guarantees divisibility).
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = ONE
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            if ric:
                for j in range(c, ncols):
                    row_i[j] = lau_div_exact(piv * row_i[j] - ric * row_r[j], prev)
            else:
                for j in range(c, ncols):
                    if row_i[j]:
                        row_i[j] = lau_div_exact(piv * row_i[j], prev)
        pivots.append(c)
        prev = piv
        r += 1
    return rows, pivots


def _dense_echelon_kernel(ech, pivots, ncols):
    """Kernel of an echelon form, one vector per free column, by
    fraction-free back substitution."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        # bottom-up: rows below a pivot row have zeros left of their own
        # pivot, so scaling the whole vector keeps them satisfied
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            if p > free:
                continue
            row = ech[i]
            t = ZERO
            for j in range(p + 1, ncols):
                if row[j] and vec[j]:
                    t = t + row[j] * vec[j]
            # a row the vector does not reach is solved by x_p = 0
            if not t:
                continue
            piv = row[p]
            vec = [piv * x for x in vec]
            vec[p] = -t
        basis.append(vec)
    return basis


def _dense_nullspace(m):
    """nullspace as it ran on a dense copy of the residual over the columns
    that are not unit pivots, re-indexed."""
    units, residual = _unit_phase(m._rows)
    unit_cols = {p for p, _ in units}
    cols = [c for c in range(m.ncols) if c not in unit_cols]
    ech, pivots = _dense_echelon([[row.get(c, ZERO) for c in cols] for row in residual])
    basis = []
    for res in _dense_echelon_kernel(ech, pivots, len(cols)):
        vec = [ZERO] * m.ncols
        for c, x in zip(cols, res):
            vec[c] = x
        for p, row in reversed(units):
            t = ZERO
            for j, e in row.items():
                if j != p and vec[j]:
                    t = t + e * vec[j]
            vec[p] = -t
        basis.append(CoeffVector(_normalize_dense(vec)))
    return basis


@settings(deadline=None, max_examples=200)
@given(st.one_of(matrices(), unit_rich_matrices))
def test_sparse_bareiss_reproduces_the_dense_one(m):
    dense_ech, dense_pivots = _dense_echelon(m.rows)
    ech, pivots = _echelon(m._rows)
    assert pivots == dense_pivots
    assert [[row.get(j, ZERO) for j in range(m.ncols)] for row in ech] == dense_ech
    free = [c for c in range(m.ncols) if c not in pivots]
    solved = list(zip(pivots, ech))
    vecs = [_back_substitute({f: ONE}, solved) for f in free]
    sparse_ker = [[v.get(j, ZERO) for j in range(m.ncols)] for v in vecs]
    assert sparse_ker == _dense_echelon_kernel(dense_ech, dense_pivots, m.ncols)
    # the input rows are left as they were
    assert CoeffMatrix(m.rows) == m
    # after the unit phase, in the matrix's own columns, against the dense
    # copy over the re-indexed non-pivot columns
    units, residual = _unit_phase(m._rows)
    cols = [c for c in range(m.ncols) if c not in {p for p, _ in units}]
    _, res_pivots = _dense_echelon([[row.get(c, ZERO) for c in cols] for row in residual])
    assert pivot_columns(m) == sorted([p for p, _ in units] + [cols[i] for i in res_pivots])
    assert rank(m) == len(units) + len(res_pivots)
    assert nullspace(m) == _dense_nullspace(m)


def _every_pivot_nullspace(m):
    """nullspace as it was before the skip rule: each vector is scaled by the
    pivot of every Bareiss row left of its free column, whether or not the
    row reaches it.  Returns (rank, pivot columns, kernel basis)."""
    units, residual = _unit_phase(m._rows)
    ech, pivots = _echelon(residual)
    bound = {p for p, _ in units}.union(pivots)
    basis = []
    for f in [c for c in range(m.ncols) if c not in bound]:
        vec = {f: ONE}
        for p, row in reversed(units + [(p, r) for p, r in zip(pivots, ech) if p < f]):
            t = sum((e * vec[j] for j, e in row.items() if j != p and j in vec), ZERO)
            vec = {j: row[p] * x for j, x in vec.items()}
            if t:
                vec[p] = -t
        dense = [vec.get(c, ZERO) for c in range(m.ncols)]
        basis.append(CoeffVector(_normalize_dense(dense)))
    return len(units) + len(pivots), sorted([p for p, _ in units] + pivots), basis


@settings(deadline=None, max_examples=300)
@given(st.one_of(matrices(), unit_rich_matrices))
def test_nullspace_is_proportional_to_the_every_pivot_reference(m):
    ref_rank, ref_pivots, ref_ker = _every_pivot_nullspace(m)
    assert rank(m) == ref_rank and pivot_columns(m) == ref_pivots
    ker = nullspace(m)
    assert len(ker) == len(ref_ker)
    for a, b in zip(ker, ref_ker):
        assert [bool(x) for x in a] == [bool(y) for y in b]
        n = len(a)
        assert all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def test_a_row_the_vector_never_reaches_scales_nothing():
    # two blocks: the second vector never reaches the first block's row, so
    # it is not scaled by that row's pivot 1 + q
    m = M([["1 + q", "2", "0", "0"], ["0", "0", "1 + q", "2"]])
    assert nullspace(m) == [
        CoeffVector([L("2"), L("-q - 1"), ZERO, ZERO]),
        CoeffVector([ZERO, ZERO, L("2*q + 2"), L("-q^2 - 2*q - 1")]),
    ]
    # the every-pivot reference carries that factor
    scaled = CoeffVector([ZERO, ZERO, L("2*q^2 + 4*q + 2"), L("-q^3 - 3*q^2 - 3*q - 1")])
    assert _every_pivot_nullspace(m)[2][1] == scaled


def test_a_row_whose_sum_cancels_is_solved_by_zero():
    # the vector reaches row 0 in columns 1 and 2, where 2 x_1 + 2 x_2 = 0
    m = M([["1 + q", "2", "2"], ["0", "1 + q", "1 + q"]])
    ech, pivots = _echelon(m._rows)
    solved = list(zip(pivots, ech))
    partial = _back_substitute({2: ONE}, solved[1:])
    assert partial.keys() == {1, 2} and sum((ech[0][j] * partial[j] for j in (1, 2)), ZERO) == ZERO
    # so row 0 sets no x_0 and scales nothing
    assert _back_substitute({2: ONE}, solved) == partial
    (v,) = nullspace(m)
    assert v[0] == ZERO and all(not e for e in m @ v)


def _skip_bareiss_rows(vec, solved):
    """A broken back substitution: every Bareiss row (pivot not 1) is
    skipped, also where its sum over the vector is nonzero."""
    return _back_substitute(vec, [(p, row) for p, row in solved if row[p] == ONE])


def test_skipping_a_row_with_a_nonzero_sum_breaks_the_kernel(monkeypatch):
    blocks = M([["1 + q", "2", "0", "0"], ["0", "0", "1 + q", "2"]])
    cancels = M([["1 + q", "2", "2"], ["0", "1 + q", "1 + q"]])
    monkeypatch.setattr(exactla, "_back_substitute", _skip_bareiss_rows)
    for m in (blocks, cancels):
        assert any(any(m @ v) for v in nullspace(m))
