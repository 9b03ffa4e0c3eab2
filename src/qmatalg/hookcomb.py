"""Hook partitions, hook semistandard tableaux, and dimension bookkeeping.

A partition lambda is a (k, l)-hook partition when lambda_{k+1} <= l, i.e.
its diagram fits in the union of k rows and l columns.  Hook semistandard
tableaux over the split alphabet 1 < ... < k < 1' < ... < l' (the first k
letters even, the last l odd) fill the diagram so that

  * rows weakly increase left to right and columns weakly increase downward,
  * even letters strictly increase down columns,
  * odd letters strictly increase along rows.

Counting them gives the graded dimensions that every flatness and kernel
check in the rest of the package is measured against.  `dims_check`, the
`qmatalg dims` report, compares their Howe sum with the monomial count
size by size, and `verify_presentation_flatness` reads its records to
check the PBW basis count of each presentation against both.
"""

from __future__ import annotations

from math import comb

from .qalgebra import _check_ranges, _is_int, _nonnegative_int, graded_basis


def _check_sizes(size=0, /, **sizes):
    """Each named alphabet size or rectangle side must be a nonnegative
    integer (a bool is not one).  The degree `size` must be an integer; a
    negative one counts 0, so it is not rejected."""
    for name, value in sizes.items():
        _nonnegative_int(value, name)
    if not _is_int(size):
        raise ValueError(f"size must be an integer, got {size!r}")


def enumerate_hook_partitions(k: int, l: int, size: int) -> list[tuple[int, ...]]:
    """All (k, l)-hook partitions of `size`, lexicographically descending."""
    _check_sizes(size, k=k, l=l)
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(max_part, remaining), 0, -1):
            # rows past the k-th must fit in l columns
            if len(prefix) >= k and part > l:
                continue
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(size, size if size else 0, [])
    return out


def _hook_cell_ok(filling, r, c, v, k: int) -> bool:
    """May letter v sit in cell (r, c) of a hook semistandard tableau, given
    the letters of `filling` ({(row, col): letter}) left of it and above it?
    Letters 1..k are even; the rule is the one in the module docstring."""
    left = filling.get((r, c - 1))
    if left is not None:
        if v < left or (v == left and v > k):
            return False
    above = filling.get((r - 1, c))
    if above is not None:
        if v < above or (v == above and v <= k):
            return False
    return True


def _partition(lam):
    """lam as a tuple of positive integer parts (a bool is not one), weakly
    decreasing."""
    lam = tuple(lam)
    if not all(_is_int(p) and p > 0 for p in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise ValueError(f"not a partition: {lam}")
    return lam


def hook_tableaux_dim(lam, k: int, l: int) -> int:
    """Number of hook semistandard tableaux of shape lam over alphabet (k, l)."""
    _check_sizes(k=k, l=l)
    lam = _partition(lam)
    if len(lam) > k and lam[k] > l:
        return 0
    nletters = k + l
    count = 0
    # cells in row-major order; value v is even iff v <= k
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    filling = {}

    def rec(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        for v in range(1, nletters + 1):
            if _hook_cell_ok(filling, r, c, v, k):
                filling[(r, c)] = v
                rec(idx + 1)
        filling.pop((r, c), None)

    rec(0)
    return count


def _howe_shapes(k: int, l: int, r: int, s: int, size: int, rect=None):
    """Yield (lam, dim_left, dim_right) for the shapes of `size` that are
    hook for both alphabets, with their (k,l) and (r,s) tableau counts.

    With rect = (height, width), only shapes containing that rectangle are
    yielded; the others are skipped before any tableau is counted.
    """
    for lam in enumerate_hook_partitions(k, l, size):
        if len(lam) > r and lam[r] > s:
            continue
        if rect is not None and not contains_rectangle(lam, *rect):
            continue
        dl = hook_tableaux_dim(lam, k, l)
        yield lam, dl, dl if (r, s) == (k, l) else hook_tableaux_dim(lam, r, s)


def howe_dim_sum(k: int, l: int, r: int, s: int, size: int) -> int:
    """Sum of dim(k,l) * dim(r,s) over shapes hook for both alphabets."""
    _check_sizes(size, k=k, l=l, r=r, s=s)
    return sum(dl * dr for _, dl, dr in _howe_shapes(k, l, r, s, size))


def supermatrix_monomial_count(k: int, l: int, r: int, s: int, size: int) -> int:
    """Number of exponent grids of total degree `size` on a (k+l) x (r+s)
    matrix whose (a, b) cell is odd (multiplicity 0 or 1) iff the parities
    of a and b differ, and even (unbounded) otherwise."""
    _check_sizes(size, k=k, l=l, r=r, s=s)
    n_odd = k * s + l * r
    n_even = k * r + l * s
    total = 0
    for j in range(min(n_odd, size) + 1):
        rest = size - j
        if n_even == 0:
            even_ways = 1 if rest == 0 else 0
        else:
            even_ways = comb(rest + n_even - 1, n_even - 1)
        total += comb(n_odd, j) * even_ways
    return total


def contains_rectangle(lam, height: int, width: int) -> bool:
    """Does the diagram of lam contain the height x width rectangle?"""
    _check_sizes(height=height, width=width)
    lam = _partition(lam)
    return len(lam) >= height and (height == 0 or lam[height - 1] >= width)


def kernel_dim_prediction(
    k: int, l: int, r: int, s: int, m: int, n: int, size: int
) -> int:
    """Predicted kernel dimension in degree `size`: the Howe sum restricted
    to shapes containing the (m+1) x (n+1) rectangle."""
    _check_sizes(size, k=k, l=l, r=r, s=s, m=m, n=n)
    return sum(dl * dr for _, dl, dr in _howe_shapes(k, l, r, s, size, (m + 1, n + 1)))


def emit_dimension_table(k: int, l: int, r: int, s: int, size: int) -> dict:
    """JSON-ready dimension table for one degree."""
    _check_sizes(size, k=k, l=l, r=r, s=s)
    partitions = [
        {"shape": list(lam), "dim_left": dl, "dim_right": dr}
        for lam, dl, dr in _howe_shapes(k, l, r, s, size)
    ]
    return {
        "params": {"k": k, "l": l, "r": r, "s": s},
        "size": size,
        "partitions": partitions,
        "total": sum(p["dim_left"] * p["dim_right"] for p in partitions),
    }


def dims_check(k: int, l: int, r: int, s: int, max_degree: int) -> dict:
    """Degree-by-degree report of the dimension identity: for each size up
    to max_degree, the monomial count of the (k+l) x (r+s) supermatrix grid
    against the Howe sum of emit_dimension_table, with its shapes."""
    _nonnegative_int(max_degree, "max_degree")
    _check_ranges("dims", ("rows (k, l)", (k, l)), ("cols (r, s)", (r, s)))
    sizes = []
    for size in range(max_degree + 1):
        table = emit_dimension_table(k, l, r, s, size)
        count = supermatrix_monomial_count(k, l, r, s, size)
        sizes.append({"size": size, "monomial_count": count, "howe_sum": table["total"],
                      "partitions": table["partitions"], "pass": count == table["total"]})
    return {"params": [k, l, r, s], "sizes": sizes,
            "overall_pass": all(rec["pass"] for rec in sizes)}


def verify_presentation_flatness(pres, max_degree):
    """Compare the PBW basis count of pres with the closed forms, degree by
    degree up to max_degree.  A single-family count must equal both the
    monomial grid and the Howe sum of its dims_check record; a P count in
    bidegree (d_T, d_Tb) must equal the product of the monomial grids of
    its T rows and its Tb rows over the shared columns."""
    rows = []
    if pres.kind == "P":
        k, l, r, s, m, n = pres.params
        grid_t, grid_b = ([rec["monomial_count"] for rec in dims_check(*ab, m, n, max_degree)["sizes"]]
                          for ab in ((k, l), (r, s)))
        for total in range(max_degree + 1):
            for d1 in range(total + 1):
                d2 = total - d1
                count = len(graded_basis(pres, (d1, d2)))
                grid = grid_t[d1] * grid_b[d2]
                rows.append({"degree": [d1, d2], "basis_count": count, "grid_count": grid,
                             "pass": count == grid})
    else:
        for rec in dims_check(*pres.params, max_degree)["sizes"]:
            count = len(graded_basis(pres, rec["size"]))
            grid, howe = rec["monomial_count"], rec["howe_sum"]
            rows.append({"degree": rec["size"], "basis_count": count, "grid_count": grid,
                         "howe_count": howe, "pass": count == grid == howe})
    return {"kind": pres.kind, "params": list(pres.params), "degrees": rows,
            "pass": all(row["pass"] for row in rows)}
