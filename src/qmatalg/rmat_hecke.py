"""R-matrices on the natural module, the braided swap operator, and the
induced Hecke algebra action on tensor powers.

Conventions: the basis of V^{k|l} is v_1..v_{k+l} with the first k letters
even; the tensor basis of a power is ordered lexicographically and a tuple
(a_1,..,a_r) flattens to sum (a_t - 1) d^{r-t}.  Matrices act on coordinate
columns, so column (c,d) of r_matrix holds the image of v_c x v_d.  With
the graded flip P(v_i x v_j) = (-1)^{[i][j]} v_j x v_i, the checked operator
equals P r_matrix on a purely even or purely odd alphabet.  On a mixed one
they differ in exactly one entry per even letter a and odd letter b: the
diagonal entry at v_b x v_a, which is q - q^{-1} in the checked operator
and -(q - q^{-1}) in P r_matrix, and there P r_matrix fails the Hecke
quadratic.  The checked operator's two eigenvalues q and -q^{-1} split
V x V into the quantum symmetric and antisymmetric squares returned by
sym_skew_bases.
"""

from itertools import product

from .exactla import CoeffMatrix, CoeffVector
from .hookcomb import hook_tableaux_dim
from .laurent import LaurentInt, ONE, Q, QINV, Q_MINUS_QINV, ZERO
from .qalgebra import (
    NCElement,
    _check_ranges,
    _index_parity,
    _is_int,
    _q_power_of_index,
    _sign,
    normal_form,
    presentation_M,
)


def tensor_index(letters, dim):
    """Flatten a tuple of 1-based letters to its lexicographic position."""
    pos = 0
    for x in letters:
        if not _is_int(x) or not 1 <= x <= dim:
            raise ValueError(f"letter {x!r} is not an integer in 1..{dim}")
        pos = pos * dim + (x - 1)
    return pos


def r_matrix(m, n) -> CoeffMatrix:
    """R-matrix of the natural module: diagonal 1 off the letter diagonal,
    q_a on it, and one strictly upper swap entry q_b - q_b^{-1} per pair."""
    _check_ranges("V", ("letters", (m, n)))
    d = m + n
    rows = [[ZERO] * (d * d) for _ in range(d * d)]
    for a in range(1, d + 1):
        pa = _index_parity(a, m)
        rows[tensor_index((a, a), d)][tensor_index((a, a), d)] = _q_power_of_index(pa, 1)
        for b in range(a + 1, d + 1):
            pb = _index_parity(b, m)
            rows[tensor_index((a, b), d)][tensor_index((a, b), d)] = ONE
            rows[tensor_index((b, a), d)][tensor_index((b, a), d)] = ONE
            # q_b - q_b^{-1} = (-1)^{[b]} (q - q^{-1})
            rows[tensor_index((a, b), d)][tensor_index((b, a), d)] = (
                Q_MINUS_QINV * _sign(pb)
            )
    return CoeffMatrix(rows)


def r_inverse_matrix(m, n) -> CoeffMatrix:
    """Inverse of r_matrix, which is its bar (q -> q^-1) taken entrywise."""
    return CoeffMatrix([[e.bar() for e in row] for row in r_matrix(m, n).rows])


def rcheck_operator(k, l) -> CoeffMatrix:
    """The braided swap on V x V.

    Case split on the letters of v_i x v_j: strictly increasing pairs swap
    with the parity sign, equal letters are eigenvectors with eigenvalue
    (-1)^{[i]} q_i, and strictly decreasing pairs pick up the extra
    (q - q^{-1}) straightening term.
    """
    _check_ranges("V", ("letters", (k, l)))
    d = k + l
    rows = [[ZERO] * (d * d) for _ in range(d * d)]
    for i in range(1, d + 1):
        pi = _index_parity(i, k)
        for j in range(1, d + 1):
            pj = _index_parity(j, k)
            col = tensor_index((i, j), d)
            if i == j:
                rows[col][col] = _q_power_of_index(pi, 1) * _sign(pi)
            else:
                rows[tensor_index((j, i), d)][col] = LaurentInt.from_int(_sign(pi * pj))
                if i > j:
                    rows[col][col] = Q_MINUS_QINV
    return CoeffMatrix(rows)


def verify_hecke_quadratic(k, l) -> bool:
    """(Rcheck - q)(Rcheck + q^{-1}) = 0 as an exact matrix identity."""
    rc = rcheck_operator(k, l)
    ident = CoeffMatrix.identity(rc.nrows)
    return ((rc - ident.scale(Q)) @ (rc + ident.scale(QINV))).is_zero()


def verify_braid(k, l) -> bool:
    """Braid identity for the checked operator on the third tensor power."""
    rc = rcheck_operator(k, l)
    ident = CoeffMatrix.identity(k + l)
    r12 = rc.kron(ident)
    r23 = ident.kron(rc)
    return r12 @ r23 @ r12 == r23 @ r12 @ r23


def hecke_act(word, vec, k, l, r) -> CoeffVector:
    """Apply checked-R operators at the listed adjacent slots, first first.

    `word` is a sequence of slot numbers in 1..r-1; slot i couples tensor
    factors i and i+1 of V^{k|l} tensored r times.  `vec` holds LaurentInt
    coordinates over the lexicographic tensor basis.  Slot i acts as
    1 x rcheck_operator x 1, with identities on the d^(i-1) and d^(r-i-1)
    letters around it: kron orders its rows (i1, i2) lexicographically, as
    the tensor basis is.
    """
    _check_ranges("V", ("letters", (k, l)))
    if not _is_int(r) or r < 1:
        raise ValueError(f"tensor power must be an integer of at least 1, got {r!r}")
    vec = CoeffVector(vec)
    d = k + l
    if len(vec) != d**r:
        raise ValueError(f"expected {d**r} coordinates, got {len(vec)}")
    rc = rcheck_operator(k, l)
    for i in word:
        if not _is_int(i) or not 1 <= i <= r - 1:
            raise ValueError(f"slot index {i!r} is not an integer in 1..{r - 1}")
        op = CoeffMatrix.identity(d ** (i - 1)).kron(rc).kron(CoeffMatrix.identity(d ** (r - i - 1)))
        vec = op @ vec
    return vec


def sym_skew_bases(k, l):
    """Eigenbases of the checked operator on V x V.

    Returns (symmetric, antisymmetric): even diagonal vectors v_i x v_i and
    the combinations v_i x v_j + (-1)^{[i][j]} q v_j x v_i for i < j span the
    q eigenspace; odd diagonal vectors and v_i x v_j - (-1)^{[i][j]} q^{-1}
    v_j x v_i span the -q^{-1} eigenspace.
    """
    _check_ranges("V", ("letters", (k, l)))
    d = k + l

    def unit(i, j):
        v = [ZERO] * (d * d)
        v[tensor_index((i, j), d)] = ONE
        return v

    sym, skew = [], []
    for i in range(1, d + 1):
        if _index_parity(i, k) == 0:
            sym.append(CoeffVector(unit(i, i)))
        else:
            skew.append(CoeffVector(unit(i, i)))
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            sgn = _sign(_index_parity(i, k) * _index_parity(j, k))
            v = unit(i, j)
            v[tensor_index((j, i), d)] = Q * sgn
            sym.append(CoeffVector(v))
            w = unit(i, j)
            w[tensor_index((j, i), d)] = QINV * (-sgn)
            skew.append(CoeffVector(w))
    return sym, skew


def verify_frt(k, l) -> bool:
    """Entrywise check of R T1 T2 = T2 T1 R against the square presentation.

    Expanding the matrix identity in the superalgebra End(V) x End(V) x M
    gives, for each index quadruple (a,b,c,d), an equality of quadratic
    elements; the difference of its two sides is normalized once and must
    be exactly zero.  This is an independent consistency check between the
    R-matrix entries and the quadratic rule table of the presentation.
    """
    _check_ranges("V", ("letters", (k, l)))
    pres = presentation_M(k, l, k, l)
    rmat = r_matrix(k, l)
    d = k + l

    def par(x):
        return _index_parity(x, k)

    letters = range(1, d + 1)
    pos = {pair: tensor_index(pair, d) for pair in product(letters, repeat=2)}

    def rentry(a, b, c, dd):
        return rmat[pos[a, b], pos[c, dd]]

    for a, b, c, dd in product(letters, repeat=4):
        diff = []  # lhs - rhs
        for ap, bp in product(letters, repeat=2):
            coeff = rentry(a, b, ap, bp)
            if coeff:
                sign = _sign((par(ap) + par(c)) * (par(b) + par(dd)))
                word = (pres.gen_id("T", ap, c), pres.gen_id("T", bp, dd))
                diff.append((word, coeff * sign))
            coeff = rentry(ap, bp, c, dd)
            if coeff:
                sign = -_sign((par(ap) + par(c)) * (par(b) + par(bp)))
                word = (pres.gen_id("T", b, bp), pres.gen_id("T", a, ap))
                diff.append((word, coeff * sign))
        if normal_form(NCElement(diff), pres):
            return False
    return True


def hecke_check(k, l) -> dict:
    """The R-matrix report for V^{k|l}: the Hecke quadratic, the braid
    identity, the FRT cross-check, and both eigenbases of sym_skew_bases.
    An eigenbasis passes when the checked operator scales each vector by
    its eigenvalue (q, or -q^{-1}) and its size is the hook tableau count
    of its shape, (2) or (1,1)."""
    sym, skew = sym_skew_bases(k, l)
    sym_ok = all(
        hecke_act([1], v, k, l, 2) == CoeffVector([Q * e for e in v]) for v in sym
    )
    skew_ok = all(
        hecke_act([1], v, k, l, 2) == CoeffVector([-QINV * e for e in v]) for v in skew
    )
    checks = {
        "quadratic": verify_hecke_quadratic(k, l),
        "braid": verify_braid(k, l),
        "sym_eigenbasis": sym_ok and len(sym) == hook_tableaux_dim((2,), k, l),
        "skew_eigenbasis": skew_ok and len(skew) == hook_tableaux_dim((1, 1), k, l),
        "frt": verify_frt(k, l),
    }
    return {"k": k, "l": l, "checks": checks, "overall_pass": all(checks.values())}
