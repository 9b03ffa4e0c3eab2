"""Chevalley-generator action on the braided superalgebra P.

The quantum supergroup acts through its vector representation on the
shared column alphabet of size m+n.  Only Chevalley generators are
modelled: K_a^{±1} for every column a, and E_{b,b+1} / E_{b+1,b} for
adjacent column pairs.  Words of generators act by sequential
application, which is all invariance testing needs.

A letter is acted on by one closed-form rule, _letter_rule, on its column
alone: a T letter is a vector of the natural module and a Tb letter one of
its dual, each K_a scales it by q to +-_k_weight, the one place the weight
(-1)^[a] delta_ac is written, and an E moves it to an adjacent column.
act_on_generator is its public reader, act on the one-letter element.
_part gives what a generator does to a normal word of one family, a letter
or a half-word of P, as a part for _unroll, the one place the coproduct is
written out.  The parts live in one table per presentation, kept in its
private _letter_images slot and keyed by generator: _part builds each on
first use, and the table lives and dies with its presentation.  Every
action of one generator reads it: _act_word,
the one word-action helper of act and so of is_invariant, unrolls over
its letters' parts; _image, for the E-matrices of
_sector_columns and the operator matrices of verify_operator_relations,
unrolls a normal word u.v of a graded component over the parts of its two
halves, which those callers read through _part once per half-word and
generator.  _sector_columns is the one place the zero-weight words of a
graded component are paired by weight and grouped by row sector:
invariant_subspace returns the kernels of its E-matrices as sparse
NCElements, each on the zero-weight words of one row sector.  On the q = 1
degeneration of P an E is a super-derivation: _derivation_at_q1 gives its
integer image of a half-word, with no part, and the integer E-matrices that
_sector_columns joins from them bound the FFT's invariants from above.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .exactla import CoeffMatrix, _span_matrix, nullspace
from .laurent import ONE, Q_MINUS_QINV, LaurentInt, _add_term, _mul_into
from .qalgebra import (
    NCElement,
    _check_ranges,
    _half_bases,
    _index_parity,
    _sign,
    _validate_words,
    normal_form,
)

K, KINV, ERAISE, ELOWER = "K", "Kinv", "Eraise", "Elower"


class ChevalleyGen(NamedTuple):
    """A tuple, so that hashing and comparing it, once per part read from a
    presentation's table, run in C."""

    kind: str  # one of K, Kinv, Eraise, Elower
    index: int  # a for K_a^{±1}; b for E_{b,b+1} and E_{b+1,b}
    parity: int

    def __str__(self):
        return {
            K: f"K[{self.index}]",
            KINV: f"K^-1[{self.index}]",
            ERAISE: f"E[{self.index},{self.index + 1}]",
            ELOWER: f"E[{self.index + 1},{self.index}]",
        }[self.kind]


def _expected_parity(kind, index, m):
    if kind in (K, KINV):
        return 0
    # E_{b,b+1} and E_{b+1,b} are odd exactly when they straddle the
    # even/odd boundary of the column alphabet
    return 1 if index == m else 0


def _validate_gen(x, m, n):
    sz = m + n
    hi = sz if x.kind in (K, KINV) else sz - 1
    if not 1 <= x.index <= hi:
        raise ValueError(f"{x} out of range for column alphabet ({m},{n})")
    if x.parity != _expected_parity(x.kind, x.index, m):
        raise ValueError(f"{x} carries a parity inconsistent with ({m},{n})")


def chevalley_generators(m, n):
    """All generators, raising first, then lowering, then K, then K^-1.

    m and n are the even and odd column counts, integers summing to >= 1.
    """
    _check_ranges("U_q(gl(m|n))", ("cols", (m, n)))
    sz = m + n
    out = [ChevalleyGen(ERAISE, b, _expected_parity(ERAISE, b, m)) for b in range(1, sz)]
    out += [ChevalleyGen(ELOWER, b, _expected_parity(ELOWER, b, m)) for b in range(1, sz)]
    out += [ChevalleyGen(K, a, 0) for a in range(1, sz + 1)]
    out += [ChevalleyGen(KINV, a, 0) for a in range(1, sz + 1)]
    return out


def _k_weight(a, c, m):
    """(-1)^[a] delta_ac: the exponent of q by which K_a scales column c of
    the natural module, since K_a acts on it by q_a = q^((-1)^[a])."""
    return _sign(_index_parity(a, m)) if a == c else 0


def _require_P(pres):
    if pres.kind != "P":
        raise ValueError("the action is defined on P presentations only")
    return pres.params


def _letter_rule(x, g, m):
    """What x does to the letter g on its column alone, with q_j = q^((-1)^[j]):
    (the exponent of q by which x's K-part scales g, g's image under x as
    (column, coefficient), or None when x is a K or kills g).

    A T letter is a vector of the natural module.  K_a^{+-1} scales column
    c by q^(+-_k_weight(a, c)); E_{b,b+1} sends column b+1 to b and
    E_{b+1,b} column b to b+1, both with coefficient 1.  A Tb letter is one
    of its dual: the K exponents are negated, E_{b,b+1} sends column b to
    b+1 with -q_{b+1} and E_{b+1,b} column b+1 to b with
    -(-1)^[x] q_{b+1}^-1.  An E's K-part is K_b^s K_{b+1}^-s, s = +1 when
    it raises and -1 when it lowers, as its coproduct reads:
    Delta(E_{b,b+1}) = E (x) K_b K_{b+1}^-1 + 1 (x) E and
    Delta(E_{b+1,b}) = E (x) 1 + K_b^-1 K_{b+1} (x) E.
    """
    b, c, dual = x.index, g.col, g.family == "Tb"
    # s signs x's K exponents, t signs them on g's module: negated on the dual
    s = 1 if x.kind in (K, ERAISE) else -1
    t = -s if dual else s
    if x.kind in (K, KINV):
        return t * _k_weight(b, c, m), None
    exp = t * (_k_weight(b, c, m) - _k_weight(b + 1, c, m))
    src, dst = (b + 1, b) if t > 0 else (b, b + 1)
    if c != src:
        return exp, None
    if not dual:
        return exp, (dst, ONE)
    sign = -1 if s > 0 else -_sign(x.parity)
    return exp, (dst, LaurentInt.q_power(s * _sign(_index_parity(b + 1, m)), sign))


def act_on_generator(x, g, pres):
    """Action of a single Chevalley generator on one P generator g: act on
    the one-letter element.  g must be a letter of pres."""
    if g not in pres.generators:
        raise ValueError(f"{g} is not a generator of {pres.kind}{pres.params}")
    return act(x, NCElement.from_word((pres.generators.index(g),)), pres)


def _unroll(x, word, parts):
    """Raw image of word under x through the coproduct, not normalized: a
    fresh {word: {exponent: int}} dict.  word is cut into consecutive parts
    p_1 ... p_t, each given as (length, K-exponent, parity, raw image under
    x).  A K is grouplike and scales word by q^K(p_1 ... p_t); an E hits one
    part at a time,

        E(p_1 ... p_t) = sum_j (-1)^([E][p_1 ... p_{j-1}]) q^K_j p_1 ... E(p_j) ... p_t,

    with K_j the K-exponent of p_{j+1} ... p_t when E raises and of
    p_1 ... p_{j-1} when it lowers.
    """
    total = sum(part[1] for part in parts)
    if x.kind in (K, KINV):
        return {word: {total: 1}}
    raising = x.kind == ERAISE
    out = {}
    start = prefix_parity = prefix_exp = 0
    for length, exp, parity, img in parts:
        end = start + length
        if img:
            e = total - prefix_exp - exp if raising else prefix_exp
            scal = {e: _sign(x.parity * prefix_parity)}
            head, tail = word[:start], word[end:]
            for w1, c1 in img:
                key = head + w1 + tail
                if not _mul_into(out.setdefault(key, {}), c1, scal):
                    del out[key]
        prefix_parity += parity
        prefix_exp += exp
        start = end
    return out


def _part(x, h, pres):
    """What x does to h, a normal word of one family, as a part for
    _unroll: (length, q-exponent of its K-part, parity, image as (word,
    {exponent: int}) pairs).  A letter (gid,) reads _letter_rule; a longer
    word is unrolled over its letters' parts and normalized.  Each part is
    read from pres's table of x's parts, keyed by x, and built into it on
    first use; the table is dropped with pres."""
    try:
        return pres._letter_images[x][h]
    except KeyError:
        pass
    if len(h) == 1:
        g = pres.generators[h[0]]
        exp, image = _letter_rule(x, g, pres.params[4])
        img = ()
        if image is not None:
            img = (((pres.gen_id(g.family, g.row, image[0]),), image[1].terms),)
        part = 1, exp, g.parity, img
    else:
        letters = [_part(x, (gid,), pres) for gid in h]
        img = normal_form(_unroll(x, h, letters), pres).terms
        part = (len(h), sum(t[1] for t in letters), sum(t[2] for t in letters),
                tuple((w, c.terms) for w, c in img.items()))
    pres._letter_images.setdefault(x, {})[h] = part
    return part


def _image(x, u, v, parts):
    """x on the normal word u.v of P, a T-word u times a Tb-word v, as
    {word: LaurentInt}: _unroll over the parts of its halves, looked up in
    parts, the {half: part} map of x that the caller read through _part
    once per half-word.  It is normal as it stands: no rule rewrites a T
    before a Tb, and each family's rules stay in that family, so
    NF(E(u).v) = NF(E(u)).v and NF(u.E(v)) = u.NF(E(v)), the normal forms
    that a half's part holds."""
    img = _unroll(x, u + v, (parts[u], parts[v]))
    return {w: LaurentInt._raw(c) for w, c in img.items()}


def _derivation_at_q1(x, h, pres):
    """x on the normal word h at q = 1, for pres the q = 1 degeneration of
    P, as {normal word: int}.  Every K acts by 1 there, so an E acts as a
    super-derivation of the free supercommutative algebra,

        E(h) = sum_j (-1)^([E][h_1 ... h_{j-1}]) h_1 ... E(h_j) ... h_k,

    with E(h_j) the letter image of _letter_rule at q = 1, put back into
    sorted position by invariants._merge_product's rule, with no rewriting:
    -1 for each odd letter an odd one passes, and 0 if it is already in h."""
    odd, m = pres.parities, pres.params[4]
    out, prefix = {}, 0
    for j, gid in enumerate(h):
        g = pres.generators[gid]
        image = _letter_rule(x, g, m)[1]
        if image is not None:
            new = pres.gen_id(g.family, g.row, image[0])
            rest = h[:j] + h[j + 1:]
            i = bisect_left(rest, new)
            if not odd[new] or rest[i:i + 1] != (new,):
                passed = odd[new] and sum(odd[y] for y in rest[min(i, j):max(i, j)])
                c = _sign(x.parity * prefix + passed) * image[1].eval_q1()
                _add_term(out, rest[:i] + (new,) + rest[i:], c)
        prefix += odd[gid]
    return out


def _act_word(x, word, pres):
    """Raw action of x on one word, a fresh {word: {exponent: int}} dict,
    not normalized: _unroll over its letters' parts."""
    return _unroll(x, word, [_part(x, (gid,), pres) for gid in word])


def act(x, e, pres):
    """Action on an element, linear over words, result in canonical form.
    e's words are validated here; the sum of the word images goes to
    normal_form as a raw agenda."""
    _validate_words(e, pres)
    _validate_gen(x, *_require_P(pres)[4:])
    total = {}
    for word, coeff in e.terms.items():
        for w, c in _act_word(x, word, pres).items():
            if not _mul_into(total.setdefault(w, {}), c, coeff.terms):
                del total[w]
    return normal_form(total, pres)


def is_invariant(e, pres):
    k, l, r, s, m, n = _require_P(pres)
    e = normal_form(e, pres)
    for x in chevalley_generators(m, n):
        if x.kind == KINV:
            continue
        got = act(x, e, pres)
        want = e if x.kind == K else NCElement.zero()
        if got != want:
            return False
    return True


def _word_weight(word, pres, m, n):
    wt = [0] * (m + n)
    for gid in word:
        g = pres.generators[gid]
        wt[g.col - 1] += 1 if g.family == "T" else -1
    return tuple(wt)


def _row_sector(word, pres):
    trows = sorted(pres.generators[g].row for g in word if pres.generators[g].family == "T")
    brows = sorted(pres.generators[g].row for g in word if pres.generators[g].family == "Tb")
    return tuple(trows), tuple(brows)


def _sector_columns(pres, bidegree, at_q1=False):
    """The E-matrix of each row sector of the zero-weight words of one
    graded component of P, sectors in sorted order, as (domain, columns).

    K-invariance forces zero column weight.  A zero-weight word is a normal
    T-word u times a normal Tb-word v of opposite column weight, so the
    words come from pairing the T-words and the Tb-words of the bidegree by
    weight; an unbalanced bidegree pairs none.  The E's never change row
    indices or families, hence they preserve the (T rows, Tb rows) multiset
    pair, the rows of u and of v, read once per half-word like its weight:
    each sector's words, its domain of (u, v) pairs in graded_basis order,
    are mapped among themselves.  Column j stacks the images of domain[j]
    under each E, keyed (E index, word); only words hit by the action give
    rows, so a sector with none (no E's, or nothing hit) has columns with
    no entries.  Entries are the LaurentInts of `_image`, or with at_q1,
    for pres the q = 1 degeneration of P, the ints of the halves'
    `_derivation_at_q1` images, E(u.v) = E(u).v + (-1)^([E][u]) u.E(v).
    """
    k, l, r, s, m, n = _require_P(pres)
    egens = [x for x in chevalley_generators(m, n) if x.kind in (ERAISE, ELOWER)]
    twords, bwords = _half_bases(pres, bidegree)
    by_weight = {}
    for v in bwords:
        by_weight.setdefault(_word_weight(v, pres, m, n), []).append((v, _row_sector(v, pres)[1]))
    sectors = {}
    halves = set()
    for u in twords:
        urows = _row_sector(u, pres)[0]
        for v, vrows in by_weight.get(tuple(-c for c in _word_weight(u, pres, m, n)), ()):
            sectors.setdefault((urows, vrows), []).append((u, v))
            halves.update((u, v))
    if at_q1:
        images = [{h: _derivation_at_q1(x, h, pres) for h in halves} for x in egens]
        signs = {h: _sign(sum(pres.parities[g] for g in h)) for h in halves}
    else:
        parts = [{h: _part(x, h, pres) for h in halves} for x in egens]
    for key in sorted(sectors):
        domain = sectors[key]
        cols = []
        for u, v in domain:
            col = {}
            for e, x in enumerate(egens):
                if at_q1:
                    for w, c in images[e][u].items():
                        col[e, w + v] = c
                    sign = signs[u] if x.parity else 1
                    for w, c in images[e][v].items():
                        col[e, u + w] = sign * c
                else:
                    for w, c in _image(x, u, v, parts[e]).items():
                        col[e, w] = c
            cols.append(col)
        yield domain, cols


def invariant_subspace(pres, bidegree):
    """Basis of the invariants inside one graded component, as NCElements:
    the kernel of each row sector's E-matrix (`_sector_columns`), on the
    zero-weight words of that sector, in graded_basis order, sectors in
    sorted order."""
    return [
        NCElement._raw({u + v: e for (u, v), e in zip(domain, vec) if e})
        for domain, cols in _sector_columns(pres, bidegree)
        for vec in nullspace(_span_matrix(cols))
    ]


def _action_matrix(x, pres, bidegree):
    """x on the bidegree component of P, in graded_basis order: column u.v
    is its _image."""
    _validate_gen(x, *_require_P(pres)[4:])
    twords, bwords = _half_bases(pres, bidegree)
    parts = {h: _part(x, h, pres) for h in twords + bwords}
    images = [_image(x, u, v, parts) for u in twords for v in bwords]
    return CoeffMatrix.from_columns(images, [u + v for u in twords for v in bwords])


def verify_operator_relations(pres, bidegree):
    """Check the Cartan-sector defining relations as operator identities on
    the bidegree component of pres, whose column alphabet gives (m, n).

    R1: the K's are invertible and commute.  R2: conjugating an E by K_a
    rescales it by q to the pairing of the a-th and the E's root weight.
    R3: a raising and a lowering E supercommute to the printed Cartan
    element; both sides are multiplied by (q_a - q_a^{-1}) so the check
    stays in integer Laurent arithmetic.
    """
    m, n = _require_P(pres)[4:]
    sz = m + n
    gens = chevalley_generators(m, n)
    amat = {x: _action_matrix(x, pres, bidegree) for x in gens}
    kmat = {x.index: amat[x] for x in gens if x.kind == K}
    kinv = {x.index: amat[x] for x in gens if x.kind == KINV}
    raising, lowering = ([x for x in gens if x.kind == kind] for kind in (ERAISE, ELOWER))
    ident = CoeffMatrix.identity(kmat[1].nrows)
    r1, r2, r3 = [], [], []
    for a in range(1, sz + 1):
        if kmat[a] @ kinv[a] != ident:
            r1.append(f"R1: K[{a}] K^-1[{a}] != id")
        for b in range(a + 1, sz + 1):
            if kmat[a] @ kmat[b] != kmat[b] @ kmat[a]:
                r1.append(f"R1: K[{a}] and K[{b}] do not commute")
    for x in raising + lowering:
        b = x.index
        lo, hi = (b, b + 1) if x.kind == ERAISE else (b + 1, b)
        for a in range(1, sz + 1):
            e = _k_weight(a, lo, m) - _k_weight(a, hi, m)
            lhs = kmat[a] @ amat[x] @ kinv[a]
            rhs = amat[x].scale(LaurentInt.q_power(e))
            if lhs != rhs:
                r2.append(f"R2: K[{a}] {x} K^-1[{a}] != q^{e} {x}")
    for ea in raising:
        a = ea.index
        qa_minus = _sign(_index_parity(a, m)) * Q_MINUS_QINV
        for fb in lowering:
            sign = _sign(ea.parity * fb.parity)
            bracket = amat[ea] @ amat[fb] - (amat[fb] @ amat[ea]).scale(sign)
            lhs = bracket.scale(qa_minus)
            if a == fb.index:
                ok = lhs == kmat[a] @ kinv[a + 1] - kinv[a] @ kmat[a + 1]
            else:
                ok = lhs.is_zero()
            if not ok:
                r3.append(f"R3: [{ea}, {fb}] mismatch")
    failures = r1 + r2 + r3
    return {
        "m": m,
        "n": n,
        "bidegree": list(bidegree),
        "component_dim": ident.nrows,
        "checks": {"R1": not r1, "R2": not r2, "R3": not r3},
        "failures": failures,
        "pass": not failures,
    }
