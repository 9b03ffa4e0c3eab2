"""Exact linear algebra over Z[q, q^-1].

Rank, nullspace and span dimensions are computed by elimination in two
phases, and every division performed is exact in the Laurent ring, so
results are generic-q ranks with no specialization and no rounding.

1. Unit phase: it copies the matrix's sparse {col: entry} rows.  While
   some row holds a unit +-q^e (one term, coefficient +-1), the shortest
   such row (earliest on ties) is scaled by the inverse of its leftmost
   unit, which is again +-q^-e, so the division is exact and entries do
   not grow.  That column is then cleared from the rows not yet pivoted
   on, and not from earlier pivot rows (forward elimination): rank and
   pivot columns never read those rows, and the kernel lift runs through
   them in reverse pivot order.  Every step is an invertible row
   operation over Z[q, q^-1], so rank and kernel are unchanged.
2. Residual phase: the rows left over hold no unit and no unit pivot
   column; fraction-free (Bareiss) elimination runs on those same sparse
   rows, in the matrix's own column indices.

Elimination ends in one list of solved (pivot column, row) pairs, the unit
rows and then the Bareiss rows (_eliminate); the rank is its length.  Its
pivot columns are a column basis (pivot_columns): on the eliminated matrix
they form a block-triangular submatrix with a nonsingular diagonal, and row
operations keep column dependencies, so the same columns of the input are
independent, rank-many of them.  Kernel vectors come from one
back-substitution loop (_back_substitute), one per free column, last pivot
first; a row whose sum over the vector is zero sets x_p = 0 and scales
nothing, so each vector is scaled only by the pivots of the rows it
reaches.  Each is normalized while still sparse and only then expanded to
full length: divided by the gcd of its integer coefficients and by the
lowest common power of q, and sign-fixed so the first nonzero entry has a
positive leading (highest-exponent) coefficient.  No polynomial gcd is
taken beyond that.  Pivoting is deterministic, so kernel bases are
reproducible for golden tests; they span the same space as plain Bareiss
would, but the pivot columns may differ, so the individual vectors may too
(when the free columns coincide, each vector agrees up to a Q(q) scalar).

A span matrix (columns that are sparse elements of one graded component)
has one row per key its columns touch, in sorted order (_span_matrix): a
row no column touches would be dropped by the unit phase anyway.

One elimination is not exact over Z[q, q^-1]: _pivots_mod_p takes integer
columns, such as a matrix at q = 1, and gives their pivot columns over F_p,
p = 2^61 - 1; their count, the rank mod p, is only a lower bound on the
rank over Q and over Q(q).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .laurent import ONE, ZERO, LaurentInt, _add_product, _add_scaled, _mul_into, lau_div_exact


class CoeffVector:
    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not all(isinstance(e, LaurentInt) for e in entries):
            raise TypeError("CoeffVector entries must be LaurentInt")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, CoeffVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "CoeffVector([" + ", ".join(str(e) for e in self.entries) + "])"


class CoeffMatrix:
    """LaurentInt entries stored as sparse rows, one {column: entry} dict per
    row with no zeros; `rows` is a dense read-only view of tuples.  The
    column count is stored, so a matrix with no rows keeps it; given dense
    rows, it defaults to the first row's length."""

    __slots__ = ("_rows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        if not all(isinstance(e, LaurentInt) for r in rows for e in r):
            raise TypeError("CoeffMatrix entries must be LaurentInt")
        self._rows = [{j: e for j, e in enumerate(r) if e} for r in rows]
        self.ncols = ncols

    @classmethod
    def _raw(cls, rows, ncols):
        """Wrap sparse rows with no zero entries, uncopied."""
        obj = object.__new__(cls)
        obj._rows = rows
        obj.ncols = ncols
        return obj

    @property
    def rows(self):
        return tuple(tuple(r.get(j, ZERO) for j in range(self.ncols)) for r in self._rows)

    @property
    def nrows(self):
        return len(self._rows)

    @classmethod
    def identity(cls, n):
        return cls._raw([{i: ONE} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._raw([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, columns, keys):
        """Matrix whose column j holds the sparse mapping columns[j].

        Each column maps keys to LaurentInt entries (an NCElement's terms,
        say); there is one row per key, in the order of keys, and a key a
        column omits is ZERO.  A key outside keys raises ValueError.  Span
        matrices pass only the keys their columns touch (_span_matrix).
        """
        row_of = {key: i for i, key in enumerate(keys)}
        rows = [{} for _ in row_of]
        for j, col in enumerate(columns):
            for key, e in col.items():
                i = row_of.get(key)
                if i is None:
                    raise ValueError(f"key {key} outside the given keys")
                if not isinstance(e, LaurentInt):
                    raise TypeError("CoeffMatrix entries must be LaurentInt")
                if e:
                    rows[i][j] = e
        return cls._raw(rows, len(columns))

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= i < len(self._rows):
            raise IndexError("row index out of range")
        if not 0 <= j < self.ncols:
            raise IndexError("column index out of range")
        return self._rows[i].get(j, ZERO)

    def __eq__(self, other):
        return isinstance(other, CoeffMatrix) and self.ncols == other.ncols and self._rows == other._rows

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        rows = zip(self._rows, other._rows)
        return CoeffMatrix._raw([_add_scaled(dict(ra), rb, ONE) for ra, rb in rows], self.ncols)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return CoeffMatrix._raw([{j: c * e for j, e in r.items()} if c else {} for r in self._rows], self.ncols)

    def __matmul__(self, other):
        if isinstance(other, CoeffVector):
            column = CoeffMatrix([[e] for e in other], 1)
            return CoeffVector(e for (e,) in (self @ column).rows)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        brows = other._rows
        out = []
        for r in self._rows:
            row = {}
            for k, a in r.items():
                _add_scaled(row, brows[k], a)
            out.append(row)
        return CoeffMatrix._raw(out, other.ncols)

    def transpose(self):
        return CoeffMatrix.from_columns(self._rows, range(self.ncols))

    def kron(self, other):
        """Kronecker product, row index (i1, i2), column index (j1, j2)."""
        n2 = other.ncols
        out = [
            {j1 * n2 + j2: a * b for j1, a in r1.items() for j2, b in r2.items()}
            for r1 in self._rows
            for r2 in other._rows
        ]
        return CoeffMatrix._raw(out, self.ncols * n2)

    def is_zero(self):
        return not any(self._rows)

    def __repr__(self):
        return f"CoeffMatrix({self.nrows}x{self.ncols})"


def _span_matrix(columns):
    """The matrix whose column j holds the sparse mapping columns[j], with
    one row per key some column touches, in sorted order.

    Sorted order is graded_basis order on normal words (both are
    lexicographic), and the elimination skips empty rows and keeps the order
    of the rest, so ranks, pivots and kernels equal those over the whole
    basis.
    """
    return CoeffMatrix.from_columns(columns, sorted(set().union(*columns)))


def _echelon(rows):
    """Fraction-free row echelon form of sparse {col: entry} rows, left
    unmodified; returns (rows, pivot column list) in their own columns.

    One-step Bareiss: the pivot is the leftmost column any remaining row
    holds, in the first such row; every later row is multiplied by it and
    divided by the previous pivot exactly (Sylvester identity).
    """
    rows = list(rows)
    pivots = []
    prev = ONE
    for r in range(len(rows)):
        c = min((min(row) for row in rows[r:] if row), default=None)
        if c is None:
            break
        pr = next(i for i in range(r, len(rows)) if c in rows[i])
        rows[r], rows[pr] = rows[pr], rows[r]
        row_r = rows[r]
        piv = row_r[c]
        for i in range(r + 1, len(rows)):
            row_i = rows[i]
            ric = row_i.get(c)
            if ric is None:
                rows[i] = {j: lau_div_exact(piv * e, prev) for j, e in row_i.items()}
                continue
            new = {}
            for j in row_r.keys() | row_i.keys():
                e = lau_div_exact(piv * row_i.get(j, ZERO) - ric * row_r.get(j, ZERO), prev)
                if e:
                    new[j] = e
            rows[i] = new
        pivots.append(c)
        prev = piv
    return rows, pivots


def _leftmost_unit(row):
    """The leftmost column of a sparse row whose entry is a unit +-q^k of
    Z[q, q^-1] (one term, coefficient +-1), or None."""
    lead = None
    for j, e in row.items():
        if len(e.terms) == 1 and (lead is None or j < lead):
            (c,) = e.terms.values()
            if c == 1 or c == -1:
                lead = j
    return lead


def _unit_phase(rows):
    """Sparse forward elimination on unit pivots (the module docstring gives
    the pivot rule) over copies of the sparse rows.

    Returns (units, residual): units is a list of (pivot column, row) in
    pivot order, with row[pivot] == 1 and no earlier pivot column in the
    row (it may hold later ones); residual holds the remaining nonzero rows
    in input order, which contain no unit and no pivot column.

    No row is rescanned per pivot: each active row's leftmost unit is
    cached and recomputed only when the row changes, a heap of (length,
    row index) over the rows with a unit picks the pivot row (an entry is
    stale once its row is gone, has another length or lost its units), and
    an index of the rows that may hold each column limits the clearing to
    them (an index entry is stale once the row no longer holds the column).
    """
    active = {i: dict(r) for i, r in enumerate(rows) if r}
    lead = {i: _leftmost_unit(r) for i, r in active.items()}
    heap = [(len(r), i) for i, r in active.items() if lead[i] is not None]
    heapify(heap)
    holders = {}
    for i, r in active.items():
        for j in r:
            holders.setdefault(j, []).append(i)
    units = []
    while heap:
        n, i = heappop(heap)
        row = active.get(i)
        if row is None or len(row) != n or lead[i] is None:
            continue
        p = lead[i]
        del active[i]
        ((k, c),) = row[p].terms.items()
        inv = LaurentInt._raw({-k: c})
        row = {j: inv * e for j, e in row.items()}
        # every entry of an active row is indexed, so holders[j] exists
        for h in holders.pop(p):
            other = active.get(h)
            f = None if other is None else other.pop(p, None)
            if f is None:
                continue
            f = -f
            for j, e in row.items():
                if j != p:
                    if j not in other:
                        holders[j].append(h)
                    _add_product(other, j, f, e)
            if not other:
                del active[h]
                continue
            lead[h] = _leftmost_unit(other)
            if lead[h] is not None:
                heappush(heap, (len(other), h))
        units.append((p, row))
    return units, list(active.values())


def _eliminate(matrix):
    """Unit phase, then Bareiss on the residual rows, all sparse and in the
    matrix's own column indices.

    Returns the solved (pivot column, row) pairs: the unit rows in pivot
    order, then the Bareiss echelon rows of the residual with their pivots.
    """
    units, residual = _unit_phase(matrix._rows)
    ech, pivots = _echelon(residual)
    return units + list(zip(pivots, ech))


def rank(matrix: CoeffMatrix) -> int:
    """Rank over the fraction field Q(q), computed exactly."""
    return len(_eliminate(matrix))


def pivot_columns(matrix: CoeffMatrix) -> list[int]:
    """Indices of rank(matrix) independent columns, ascending: the unit
    pivots and the Bareiss pivots, which together span the column space."""
    return sorted(p for p, _ in _eliminate(matrix))


_PRIME = (1 << 61) - 1


def _pivots_mod_p(columns):
    """Pivot column indices, in column order, over F_p, p = 2^61 - 1, of the
    integer matrix whose column j is the sparse mapping columns[j]
    ({key: int}); their count is the rank mod p.

    Each column is reduced, leftmost entry first, by the stored rows with
    the same leading position (each scaled to lead with 1); if anything is
    left, the column is a pivot and what is left is stored as a new row.
    So a column is a pivot exactly when it is not a combination mod p of
    the columns before it.  Keys are numbered in the order they are first
    seen, which fixes the positions.

    Only a lower bound: reduction mod p is a ring map Z -> F_p that sends
    every minor to the same minor of the reduced matrix, so a minor that is
    nonzero mod p is nonzero over Z, and the rank mod p is at most the rank
    over Q.  For the q = 1 specialization of a matrix over Z[q, q^-1] it is
    at most the rank over Q(q) in turn, for the same reason.  The pivots
    themselves can differ from those over Q: a column that vanishes mod p
    is never one here.
    """
    position = {}
    rows = {}
    pivots = []
    for col, entries in enumerate(columns):
        vec = {}
        for key, c in entries.items():
            c %= _PRIME
            if c:
                vec[position.setdefault(key, len(position))] = c
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, _PRIME)
                rows[lead] = {j: c * inv % _PRIME for j, c in vec.items()}
                pivots.append(col)
                break
            f = vec[lead]
            for j, c in row.items():
                e = (vec.get(j, 0) - f * c) % _PRIME
                if e:
                    vec[j] = e
                else:
                    del vec[j]
    return pivots


def _normalize_kernel_vector(vec):
    """A nonzero sparse vector {column: LaurentInt} divided by the gcd of
    its integer coefficients and by q to its lowest exponent, signed so
    that the entry in its lowest column has a positive leading coefficient."""
    content = 0
    shift = None
    for v in vec.values():
        for e, c in v.terms.items():
            content = gcd(content, c)
            shift = e if shift is None else min(shift, e)
    lead = vec[min(vec)]
    if lead.terms[lead.max_exp()] < 0:
        content = -content
    return {j: LaurentInt._raw({e - shift: c // content for e, c in v.terms.items()})
            for j, v in vec.items()}


def _back_substitute(vec, solved):
    """Solve the (pivot column, row) pairs of solved into the sparse vector
    vec, last pair first: row[p] x_p = -sum_{j != p} row[j] x_j, summed on
    one raw dict, fraction-free.  A row whose sum is zero is solved by
    x_p = 0 and scales nothing; otherwise vec is multiplied by row[p] unless
    that is 1.  A row reads only columns vec holds or later pairs' pivots,
    and a Bareiss row right of vec's free column reads none of them."""
    for p, row in reversed(solved):
        acc = {}
        for j, e in row.items():
            x = vec.get(j)
            if x is not None:
                _mul_into(acc, e.terms, x.terms)
        if not acc:
            continue
        piv = row[p]
        if piv != ONE:
            vec = {j: piv * x for j, x in vec.items()}
        vec[p] = LaurentInt._raw({e: -c for e, c in acc.items()})
    return vec


def nullspace(matrix: CoeffMatrix) -> list[CoeffVector]:
    """Exact kernel basis, one vector per free column; M @ v == 0 exactly.

    Each vector is solved on one sparse dict through the Bareiss rows and
    then the unit rows, last pivot first: each unit row reads
    x_p + sum_{j != p} row[j] x_j = 0, and every such j is a column of the
    residual or a later unit pivot.
    """
    solved = _eliminate(matrix)
    bound = {p for p, _ in solved}
    basis = []
    for f in range(matrix.ncols):
        if f in bound:
            continue
        vec = _normalize_kernel_vector(_back_substitute({f: ONE}, solved))
        basis.append(CoeffVector([vec.get(c, ZERO) for c in range(matrix.ncols)]))
    return basis
