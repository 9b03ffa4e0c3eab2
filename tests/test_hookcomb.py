"""Hook-combinatorics tests against brute-force oracles.

The oracles here enumerate fillings and exponent grids directly so they
share no code with the implementation.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import partitions as sympy_partitions

from qmatalg.hookcomb import (
    contains_rectangle,
    dims_check,
    emit_dimension_table,
    enumerate_hook_partitions,
    hook_tableaux_dim,
    howe_dim_sum,
    kernel_dim_prediction,
    supermatrix_monomial_count,
)


# ---------------------------------------------------------------- oracles


def oracle_partitions(k, l, size):
    found = set()
    if size == 0:
        return {()}
    for pdict in sympy_partitions(size):
        lam = tuple(
            sorted(
                (part for part, mult in pdict.items() for _ in range(mult)),
                reverse=True,
            )
        )
        if len(lam) <= k or lam[k] <= l:
            found.add(lam)
    return found


def oracle_tableaux(lam, k, l):
    """Count fillings by filtering the full cartesian product."""
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    count = 0
    for values in itertools.product(range(1, k + l + 1), repeat=len(cells)):
        fill = dict(zip(cells, values))
        good = True
        for (r, c), v in fill.items():
            left = fill.get((r, c - 1))
            above = fill.get((r - 1, c))
            if left is not None and (v < left or (v == left and left > k)):
                good = False
                break
            if above is not None and (v < above or (v == above and above <= k)):
                good = False
                break
        if good:
            count += 1
    return count


def oracle_monomials(k, l, r, s, size):
    rows = [0] * k + [1] * l
    cols = [0] * r + [1] * s
    # an odd cell holds exponent 0 or 1, an even cell any exponent
    caps = [1 if pa != pb else size for pa in rows for pb in cols]

    def grids(i, budget):
        # every filling of cells i.. whose exponents sum to budget
        if i == len(caps):
            if budget == 0:
                yield ()
            return
        for e in range(min(caps[i], budget) + 1):
            for rest in grids(i + 1, budget - e):
                yield (e,) + rest

    return sum(1 for _ in grids(0, size))


# ----------------------------------------------------------- frozen values


def test_enumerate_hook_partitions_small():
    assert enumerate_hook_partitions(2, 0, 3) == [(3,), (2, 1)]
    assert enumerate_hook_partitions(1, 1, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert enumerate_hook_partitions(2, 2, 0) == [()]
    # descending lex order
    lams = enumerate_hook_partitions(3, 2, 6)
    assert lams == sorted(lams, reverse=True)


def test_tableaux_dims_frozen():
    assert hook_tableaux_dim((2,), 1, 1) == 2
    assert hook_tableaux_dim((1, 1), 1, 1) == 2
    assert hook_tableaux_dim((2, 1), 1, 1) == 2
    assert hook_tableaux_dim((3, 1), 2, 0) == 3
    assert hook_tableaux_dim((2, 2), 2, 0) == 1
    assert hook_tableaux_dim((1, 1, 1), 2, 0) == 0


def test_howe_sum_frozen():
    assert howe_dim_sum(1, 1, 1, 1, 2) == 8
    assert howe_dim_sum(2, 0, 2, 0, 3) == 20
    assert supermatrix_monomial_count(1, 1, 1, 1, 2) == 8
    assert supermatrix_monomial_count(2, 0, 2, 0, 3) == 20


def test_kernel_prediction_frozen():
    assert [kernel_dim_prediction(2, 0, 2, 0, 1, 0, d) for d in range(5)] == [
        0,
        0,
        1,
        4,
        10,
    ]
    assert [kernel_dim_prediction(1, 1, 1, 1, 0, 1, d) for d in range(4)] == [
        0,
        0,
        4,
        8,
    ]


def test_contains_rectangle():
    assert contains_rectangle((3, 2), 2, 2)
    assert not contains_rectangle((3, 1), 2, 2)
    assert contains_rectangle((1,), 1, 1)
    assert contains_rectangle((), 0, 5)


def test_dimension_table_shape():
    table = emit_dimension_table(1, 1, 1, 1, 2)
    assert table["total"] == 8
    assert table["size"] == 2
    shapes = [tuple(p["shape"]) for p in table["partitions"]]
    assert shapes == [(2,), (1, 1)]
    for p in table["partitions"]:
        assert p["dim_left"] == p["dim_right"] == 2


def test_dims_check_compares_the_monomial_grid_with_the_howe_sum():
    rep = dims_check(1, 1, 1, 1, 2)
    assert [(rec["monomial_count"], rec["howe_sum"]) for rec in rep["sizes"]] == [
        (1, 1), (4, 4), (8, 8)]
    assert rep["sizes"][2]["partitions"] == emit_dimension_table(1, 1, 1, 1, 2)["partitions"]
    assert rep["overall_pass"] is True


def test_dims_check_never_passes_an_empty_check():
    with pytest.raises(ValueError, match="max_degree"):
        dims_check(1, 1, 1, 1, -1)
    with pytest.raises(ValueError, match=re.escape("index range rows (k, l) must be nonempty")):
        dims_check(0, 0, 0, 0, 2)
    with pytest.raises(ValueError, match=re.escape("index range cols (r, s) must be nonempty")):
        dims_check(1, 0, 0, 0, 2)


def test_contains_rectangle_rejects_a_negative_side():
    with pytest.raises(ValueError):
        contains_rectangle((2, 1), -1, 1)
    with pytest.raises(ValueError):
        contains_rectangle((2, 1), 1, -1)


def test_a_part_that_is_not_a_positive_int_is_not_a_partition():
    # a bool part counted as 1 and a float part as its value
    for lam in ((True,), (1.5,), (2, True), (0,)):
        with pytest.raises(ValueError, match="not a partition"):
            hook_tableaux_dim(lam, 2, 0)
        with pytest.raises(ValueError, match="not a partition"):
            contains_rectangle(lam, 1, 1)


def test_howe_dim_sum_rejects_a_negative_alphabet():
    with pytest.raises(ValueError):
        howe_dim_sum(-1, 0, 1, 0, 2)
    # a negative degree is an empty graded piece, not an error
    assert howe_dim_sum(1, 0, 1, 0, -1) == 0


def test_hook_tableaux_dim_rejects_a_negative_alphabet():
    with pytest.raises(ValueError):
        hook_tableaux_dim((2, 1), -1, 0)
    with pytest.raises(ValueError):
        hook_tableaux_dim((2, 1), 1, -1)
    # and a shape whose parts increase
    with pytest.raises(ValueError, match="not a partition"):
        hook_tableaux_dim((1, 2), 1, 1)


def test_kernel_dim_prediction_rejects_a_negative_rectangle():
    with pytest.raises(ValueError):
        kernel_dim_prediction(2, 0, 2, 0, -1, 0, 2)
    with pytest.raises(ValueError):
        kernel_dim_prediction(2, 0, 2, 0, 1, -1, 2)
    assert kernel_dim_prediction(2, 0, 2, 0, 1, 0, -1) == 0


def test_the_other_counters_reject_a_negative_alphabet():
    with pytest.raises(ValueError):
        enumerate_hook_partitions(-1, 1, 2)
    with pytest.raises(ValueError):
        supermatrix_monomial_count(1, 1, -1, 1, 2)
    with pytest.raises(ValueError):
        emit_dimension_table(1, 1, 1, -1, 2)
    assert enumerate_hook_partitions(1, 1, -1) == []
    assert supermatrix_monomial_count(1, 1, 1, 1, -1) == 0


# each public entry point with valid arguments and the name of each: an
# alphabet size or rectangle side, the degree "size", or None for the shape
ENTRY_POINTS = [
    (enumerate_hook_partitions, (2, 1, 3), ("k", "l", "size")),
    (hook_tableaux_dim, ((2, 1), 2, 1), (None, "k", "l")),
    (howe_dim_sum, (1, 1, 1, 1, 2), ("k", "l", "r", "s", "size")),
    (supermatrix_monomial_count, (1, 1, 1, 1, 2), ("k", "l", "r", "s", "size")),
    (contains_rectangle, ((2, 1), 1, 1), (None, "height", "width")),
    (kernel_dim_prediction, (2, 1, 2, 1, 1, 1, 4), ("k", "l", "r", "s", "m", "n", "size")),
    (emit_dimension_table, (1, 1, 1, 1, 2), ("k", "l", "r", "s", "size")),
]


@pytest.mark.parametrize("fn, args, names", ENTRY_POINTS, ids=[e[0].__name__ for e in ENTRY_POINTS])
def test_a_size_must_be_a_nonnegative_integer(fn, args, names):
    fn(*args)
    for i, name in enumerate(names):
        if name is None:
            continue
        for bad in (True, False, 1.5, 2.0, "1", None, -1):
            bent = args[:i] + (bad,) + args[i + 1:]
            if name != "size":
                want = f"^{name} must be a nonnegative integer, got {re.escape(repr(bad))}$"
            elif bad == -1:
                # a negative degree is an empty graded piece, not an error
                fn(*bent)
                continue
            else:
                want = f"^size must be an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=want):
                fn(*bent)


# -------------------------------------------------------------- properties


@given(
    k=st.integers(0, 2),
    l=st.integers(0, 2),
    size=st.integers(0, 6),
)
def test_enumeration_matches_oracle(k, l, size):
    # the recursion emits parts largest first: descending lex order, unsorted
    assert enumerate_hook_partitions(k, l, size) == sorted(oracle_partitions(k, l, size), reverse=True)


@given(
    k=st.integers(0, 2),
    l=st.integers(0, 2),
    lam=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
)
@settings(max_examples=40, deadline=None)
def test_tableaux_match_oracle(k, l, lam):
    assert hook_tableaux_dim(lam, k, l) == oracle_tableaux(lam, k, l)


@given(
    k=st.integers(0, 2),
    l=st.integers(0, 2),
    r=st.integers(0, 2),
    s=st.integers(0, 2),
    size=st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_monomial_count_matches_oracle(k, l, r, s, size):
    assert supermatrix_monomial_count(k, l, r, s, size) == oracle_monomials(
        k, l, r, s, size
    )


@given(
    k=st.integers(0, 2),
    l=st.integers(0, 2),
    size=st.integers(0, 5),
    m=st.integers(0, 2),
    n=st.integers(0, 2),
)
@settings(max_examples=30, deadline=None)
def test_kernel_at_most_total(k, l, size, m, n):
    assert 0 <= kernel_dim_prediction(k, l, k, l, m, n, size) <= howe_dim_sum(
        k, l, k, l, size
    )
