"""Quadratic invariants, the substitution map psi, and exact degree-by-degree
verification of the two fundamental theorems of invariant theory for the
quantum supermatrix pair.

Every entry point takes the six sizes (k,l,r,s,m,n) as any sequence;
`_params` validates them into the plain 6-tuple that the rest of the layer
unpacks and that keys psi's context.

`build_X` produces the invariant elements X_ab inside the mixed presentation
P; `psi` substitutes X_ab for the generator t~_ab of the tilde presentation.
Each graded component is a finite free module over the Laurent ring, so the
surjectivity of psi onto the invariants (fft_check) and the size of its
kernel (sft_check, against the hook-shape prediction and, when every row
and column index is even, the quantum minor ideal) reduce to
integer ranks of explicit sparse matrices, with one row per word the
columns touch; kernel_psi_basis gives the kernel vectors themselves.  The
minor ideal is built degree by degree (ideal_dims) as the right ideal H A
of a set H that starts as the generators G and gains, in each degree, the
pivot columns among the left products x h of its elements one degree
lower.  Every x h then lies in H A, so x (h w) = (x h) w does too: H A is
closed under left multiplication, hence A G A = H A.
Everything is exact: a check passes only if the relevant normal form is
literally zero or the ranks literally agree.

sft_check settles a degree N from q = 1 when a two-sided sandwich closes:
lower <= dim_ker <= |M~_N| - rank_p phi(psi_N), with phi: q -> 1 and the
rank taken mod p = 2^61 - 1 (exactla._pivots_mod_p).  Specialization and
reduction mod p cannot raise a rank, so the right end is an upper bound.
The left end is the minor ideal at q = 1 mod p when psi kills the minors
and respects every tilde rule, the same H-set loop over the merge product
and the mod-p pivots, which is at most the generic ideal's dimension and
so at most dim_ker; otherwise it is 0.  The sandwich is tried once, and
only where the left end equals the prediction, since only there can it
prove a passing degree; closed, it makes both dim_ker and the ideal's
dimension exact.  Every other degree takes the generic rank, and the
generic minor ideal only reports its exact dimension.

fft_check settles a degree N from q = 1 the same way: rank_p phi(psi_N) <=
dim_img <= dim_inv <= sum_S (|S| - rank_p phi(E_S)), where E_S is the
stacked E-matrix of the zero-weight row sector S, built directly at q = 1,
each E a super-derivation there (`uqaction._sector_columns`).  The middle
inequality, psi landing in the invariants, is proven once per tuple and
structurally: the action respects every rule of P, and every X is
invariant.  Where the ends meet, dim_img = dim_inv exactly; elsewhere the
degree takes the exact invariant basis and ranks.

The classical q = 1 layer sits at the bottom: `classical_limit`,
`classical_presentation`, the signed place permutation action on tensor
words, and the symmetrizer polynomials of `sergeev_polynomial`.  A q = 1
element is a {normal word: int} dict (`_at_q1`).  The q = 1 psi is not
written again there: it is the same substitution map, `_Context`, from the
q = 1 degeneration of M~ to that of P, on the q = 1 limits of the X's
(`_Context.classical()`), whose product is a sorted merge of normal words
with a sign (`_merge_product`) instead of the rewriting engine, and
`classical_psi` sits next to `psi`, turning the ints into constants only
in its result; `classical_check` builds the `qmatalg classical` report on
it, and checks the q = 1 rules and their overlaps with the engine.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from .exactla import _pivots_mod_p, _span_matrix, nullspace, pivot_columns, rank
from .hookcomb import _hook_cell_ok, kernel_dim_prediction
from .laurent import Q_MINUS_QINV, LaurentInt, _add_scaled, _add_term
from .qalgebra import (
    AlgebraPresentation,
    NCElement,
    _add_word_products,
    _index_parity,
    _is_int,
    _map_coefficients,
    _nonnegative_int,
    _q_power_of_index,
    _sign,
    _unresolved_overlaps,
    _validate_words,
    format_element,
    graded_basis,
    multiply,
    normal_form,
    presentation_M,
    presentation_Mbar,
    presentation_Mtilde,
    presentation_P,
)
from .uqaction import (
    ELOWER,
    ERAISE,
    _sector_columns,
    _word_weight,
    act,
    chevalley_generators,
    invariant_subspace,
    is_invariant,
)


def _params(params) -> tuple:
    """Size data (k,l,r,s,m,n) of the three index alphabets, validated and
    returned as a plain 6-tuple.

    Rows of the first family live in I_{k|l}, rows of the second in I_{r|s},
    and the shared column alphabet is I_{m|n}.  Each size is a nonnegative
    integer (a bool is not one), and each pair must sum to at least one.
    """
    values = tuple(params)
    if len(values) != 6:
        raise ValueError(f"expected 6 parameters (k,l,r,s,m,n), got {len(values)}")
    for name, v in zip("klrsmn", values):
        _nonnegative_int(v, name)
    k, l, r, s, m, n = values
    if k + l < 1 or r + s < 1 or m + n < 1:
        raise ValueError("each of the pairs (k,l), (r,s), (m,n) must sum to >= 1")
    return values


def _x_elements(mt, p):
    """X_ab in P, normalized, for each tilde generator t~_ab of mt in order."""
    k, _, r, _, m, n = p.params
    out = []
    for g in mt.generators:
        pa = _index_parity(g.row, k)
        pb = _index_parity(g.col, r)
        terms = []
        for i in range(1, m + n + 1):
            sign = _sign(pa * (pb + _index_parity(i, m)))
            terms.append(((p.gen_id("T", g.row, i), p.gen_id("Tb", g.col, i)), sign))
        out.append(normal_form(NCElement(terms), p))
    return out


class _Context:
    """The substitution map psi: the tilde presentation mt (its domain),
    a presentation p of P (its codomain), the image in p of each tilde
    generator indexed by generator id, the product of p, and a prefix-keyed
    memo of normalized word images so that long products are never
    recomputed from scratch.  The memo starts with the empty word and the
    letters, whose images are the given elements themselves, which must
    therefore be in normal form in p.

    At generic q the images are the X elements, the product is `multiply`,
    and mt and p are the presentations that presentation_Mtilde and
    presentation_P return for the tuple, so a caller holding those holds
    the same objects; `classical()` gives the same map at q = 1, on
    {normal word: int} images whose unit, the image of the empty word, is
    `one`.
    """

    def __init__(self, mt, p, x_elements, product, one=NCElement.one()):
        self.mt = mt
        self.p = p
        self.x_elements = x_elements
        self.product = product
        self._images = {(): one}
        self._images.update(((i,), x) for i, x in enumerate(x_elements))
        self._classical = None

    def word_image(self, word):
        images = self._images
        got = images.get(word)
        if got is not None:
            return got
        j = len(word) - 1
        while j > 0 and word[:j] not in images:
            j -= 1
        acc = images[word[:j]]
        for p in range(j, len(word)):
            acc = self.product(acc, self.x_elements[word[p]], self.p)
            images[word[: p + 1]] = acc
        return acc

    def classical(self):
        """psi at q = 1: a `_Context` from the q = 1 degeneration of M~ to
        that of P, the two q = 1 presentations every q = 1 caller reads,
        with the q = 1 limits of the X elements as {normal word: int}
        dicts, whose product is the sorted merge `_merge_product`, built on
        first use."""
        if self._classical is None:
            self._classical = _Context(
                classical_presentation(self.mt),
                classical_presentation(self.p),
                [_at_q1(x) for x in self.x_elements],
                _merge_product,
                {(): 1},
            )
        return self._classical

    def element(self, word):
        """The image of a word as an NCElement; a q = 1 image's ints
        become constants."""
        image = self.word_image(word)
        return image if isinstance(image, NCElement) else NCElement(image)

    def image_of(self, e):
        _validate_words(e, self.mt)
        total = {}
        for word, coeff in e.terms.items():
            _add_scaled(total, self.element(word).terms, coeff)
        return NCElement._raw(total)


def _at_q1(e):
    """An element at q = 1 as a {word: int} dict, its vanishing terms dropped."""
    return {w: v for w, c in e.terms.items() if (v := c.eval_q1())}


def _merge_product(a, b, pres):
    """a*b for {normal word: int} elements of pres, whose rules must be free
    supercommutation (`_classical_rules_ok`), as at q = 1.

    Sorting u + v by adjacent swaps reorders exactly the pairs of a letter
    of u above a letter of v, and a swap of two odd letters gives -1, so
    u*v is the normal word sorted(u + v) times -1 to the number of odd such
    pairs; it is zero when an odd letter is in both (x x -> 0 for odd x).
    """
    odd = pres.parities
    right = [(v, [y for y in v if odd[y]], cv) for v, cv in b.items()]
    out = {}
    for u, cu in a.items():
        u_odd = [x for x in u if odd[x]]
        for v, v_odd, cv in right:
            c = cu * cv
            if u_odd and v_odd:
                if any(y in u_odd for y in v_odd):
                    continue
                if sum(x > y for x in u_odd for y in v_odd) % 2:
                    c = -c
            _add_term(out, tuple(sorted(u + v)), c)
    return out


@lru_cache(maxsize=1)
def _context(pt):
    """psi's context; callers use one tuple at a time, so only the latest is kept."""
    mt = presentation_Mtilde(*pt[:4])
    p = presentation_P(*pt)
    return _Context(mt, p, _x_elements(mt, p), multiply)


def build_X(a, b, params) -> NCElement:
    """The invariant X_ab = sum_i (-1)^{[a]([b]+[i])} T_ai T~_bi in P.

    Index a runs over the first row alphabet I_{k|l}, index b over the second
    row alphabet I_{r|s}; the parity of X_ab is [a] + [b].
    """
    p = _params(params)
    k, l, r, s = p[:4]
    if isinstance(a, bool) or not (isinstance(a, int) and 1 <= a <= k + l):
        raise ValueError(f"row index a={a!r} not in 1..{k + l}")
    if isinstance(b, bool) or not (isinstance(b, int) and 1 <= b <= r + s):
        raise ValueError(f"row index b={b!r} not in 1..{r + s}")
    ctx = _context(p)
    return ctx.x_elements[ctx.mt.gen_id("Tt", a, b)]


def psi(e: NCElement, params) -> NCElement:
    """Substitute X_ab for each tilde generator and normalize in P.

    The input must be an element of the tilde presentation for the same
    (k,l,r,s); a word mentioning a generator id outside that presentation is
    rejected.  That psi respects the defining relations is a verified fact
    (verify_X_relations), not an assumption of this routine.
    """
    ctx = _context(_params(params))
    return ctx.image_of(e)


def classical_psi(e: NCElement, params) -> NCElement:
    """psi at q = 1: substitute the q = 1 limit of X_ab for each tilde
    generator and normalize in the q = 1 degeneration of P.

    This is the classical `_Context` of the parameters, the same memoized
    substitution map as psi over the q = 1 presentation, whose products are
    sorted merges (`_merge_product`) of {normal word: int} images; the
    result scales them by e's coefficients as an NCElement.  Words are read
    with the tilde generator ids, which the presentations M and Mtilde of
    the same (k,l,r,s) share.  That the q = 1 rules are free
    supercommutation, which the merge needs, and that the map respects the
    q = 1 tilde rules are checked by `qmatalg classical`, not assumed here.
    """
    return _context(_params(params)).classical().image_of(e)


def _rules_hold(rules, image):
    """True when image(lhs) == sum c * image(w) for every rule lhs -> sum c w.

    `image` maps a word of the rules' presentation to its image element;
    the map it extends from the generators is well defined exactly when it
    respects every defining rule.
    """
    for lhs, rhs in rules.items():
        got = image(lhs)
        acc = {}
        for c, w in rhs:
            _add_scaled(acc, image(w).terms, c)
        if got.terms != acc:
            return False
    return True


def _classical_rules_ok(cp):
    """True when the q = 1 rules are exactly free supercommutation: x_i x_j
    -> (-1)^{p_i p_j} x_j x_i for i > j, and x_i x_i -> 0 for odd i."""
    par = cp.parities
    table = {
        (i, j): ((LaurentInt.from_int(_sign(par[i] * par[j])), (j, i)),)
        for i in range(len(par))
        for j in range(i)
    }
    table.update({(i, i): () for i, p in enumerate(par) if p})
    return cp.rules == table


def classical_check(params) -> dict:
    """The q = 1 report, every check exhaustive.

    The q = 1 degenerations of M, Mbar, Mtilde and P must be free
    supercommutation and resolve every overlap (associativity, with the
    overlap count); the q = 1 limits of the X's must supercommute in P;
    and classical_psi must respect every q = 1 tilde rule (homomorphism).
    """
    p = _params(params)
    k, l, r, s = p[:4]
    # classical psi's context holds the q = 1 degenerations of Mtilde and P
    cpsi = _context(p).classical()
    cmt, cp = cpsi.mt, cpsi.p
    classical = [classical_presentation(presentation_M(k, l, r, s)),
                 classical_presentation(presentation_Mbar(k, l, r, s)), cmt, cp]
    # the q = 1 limit of X_ab with its parity, indexed like the tilde generator t~_ab
    xs = [(cpsi.element((i,)), g.parity) for i, g in enumerate(cmt.generators)]
    resolved = [_unresolved_overlaps(c) for c in classical]
    checks = {
        "rules_supercommute_at_q1": all(_classical_rules_ok(c) for c in classical),
        "classical_X_supercommute": all(_supercommute(cp, x, y) for x in xs for y in xs),
        "associativity": not any(bad for _, bad in resolved),
        "homomorphism": _rules_hold(cmt.rules, cpsi.element),
    }
    return {
        "params": list(p),
        "overlaps": sum(count for count, _ in resolved),
        "tilde_rules": len(cmt.rules),
        "checks": checks,
        "overall_pass": all(checks.values()),
    }


def _supercommute(pres, x, y, q_power=None, tail=None):
    """True when x*y = (-1)^{|x||y|} q_power y*x + c*u*v in pres.

    x, y, u and v are (element, parity) pairs of homogeneous elements,
    q_power defaults to 1 and tail, if given, is (c, u, v).  The
    difference of the two sides is one agenda of products, which must
    normalize to zero.
    """
    (ex, px), (ey, py) = x, y
    sign = -_sign(px * py)
    c = LaurentInt.from_int(sign) if q_power is None else q_power * sign
    agenda = _add_word_products(_add_word_products({}, ex, ey), ey, ex, c)
    if tail is not None:
        c, (u, _), (v, _) = tail
        _add_word_products(agenda, u, v, -c)
    return not normal_form(agenda, pres)


def verify_X_relations(params) -> bool:
    """Check every quadratic relation satisfied by the X elements.

    Two batches, checked in P, where each relation's difference normalizes
    to zero:
      - the X's satisfy each defining relation of the tilde presentation
        (so psi is a well-defined superalgebra homomorphism);
      - the exchange relations between an X and a single letter T_ai or
        T~_bi, in two shapes on each side.  X_ac supercommutes with T_bi
        for b <= a, on its own row up to q_a^{-1}, and X_ab with T~_ci for
        c <= b, on its own row up to q_b.  A bracket with the letter of a
        higher row collapses onto (q - q^{-1}) times one letter*X product.
    Every sign in both shapes is the one super sign (-1)^{|x||y|} of the
    two factors, which `_supercommute` applies.  Returns True only if every
    instance over the full index ranges holds.
    """
    k, l, r, s, m, n = p = _params(params)
    ctx = _context(p)
    pres = ctx.p
    if not _rules_hold(ctx.mt.rules, ctx.word_image):
        return False

    def X(a, b):
        gid = ctx.mt.gen_id("Tt", a, b)
        return ctx.x_elements[gid], ctx.mt.generators[gid].parity

    def letter(family, row, i):
        gid = pres.gen_id(family, row, i)
        return NCElement.from_word((gid,)), pres.generators[gid].parity

    def pa(a):
        return _index_parity(a, k)

    def pb(b):
        return _index_parity(b, r)

    rows1 = range(1, k + l + 1)
    rows2 = range(1, r + s + 1)
    cols = range(1, m + n + 1)
    T = {(a, i): letter("T", a, i) for a in rows1 for i in cols}
    Tb = {(b, i): letter("Tb", b, i) for b in rows2 for i in cols}

    for a in rows1:
        for c in rows2:
            xac = X(a, c)
            for i in cols:
                if not _supercommute(pres, xac, T[a, i], _q_power_of_index(pa(a), -1)):
                    return False
                for b in range(1, a):
                    # the bracket of T_ai against X_bc collapses onto T_bi X_ac
                    tail = _sign(pb(c) * (pa(a) + pa(b)) + pa(a) * pa(b)) * Q_MINUS_QINV
                    if not (_supercommute(pres, xac, T[b, i])
                            and _supercommute(pres, T[a, i], X(b, c), tail=(tail, T[b, i], xac))):
                        return False

    for a in rows1:
        for b in rows2:
            xab = X(a, b)
            for i in cols:
                if not _supercommute(pres, xab, Tb[b, i], _q_power_of_index(pb(b), 1)):
                    return False
                pi = _index_parity(i, m)
                for c in range(1, b):
                    # the bracket of X_ac against T~_bi collapses onto T~_ci X_ab
                    tail = _sign(pi * (pa(a) + pb(c)) + pa(a) * pb(b)) * Q_MINUS_QINV
                    if not (_supercommute(pres, xab, Tb[c, i])
                            and _supercommute(pres, X(a, c), Tb[b, i], tail=(tail, Tb[c, i], xab))):
                        return False
    return True


def _span_dim(columns):
    """Rank of the sparse columns."""
    return rank(_span_matrix(columns))


def _psi_columns(ctx, N):
    """The degree-N matrix of psi as sparse columns: (dom, images).

    dom is the degree-N basis of the tilde presentation and images[j] the
    terms of psi(dom[j]), over the bidegree (N,N) words of P it touches.
    """
    dom = graded_basis(ctx.mt, N)
    return dom, [ctx.word_image(w).terms for w in dom]


def _degree_record(N, dim_ker, dim_pred, ok, dim_inv=None, dim_img=None, ideal_dim=None):
    """The report record of degree N, with the hook-shape prediction
    dim_pred for dim_ker; the degree passes when ok holds and dim_ker
    equals dim_pred."""
    return {"N": N, "dim_inv": dim_inv, "dim_img": dim_img, "dim_ker": dim_ker,
            "dim_pred": dim_pred, "ideal_dim": ideal_dim, "pass": ok and dim_ker == dim_pred}


def _psi_rank_at_q1(ctx, N):
    """(|M~_N|, rank_p phi(psi_N)), with phi: q -> 1: the size of the
    degree-N basis of the tilde presentation and the rank mod p of its
    q = 1 psi images, integer columns as the classical context builds them.
    Those are phi of the generic images, since normal forms commute with
    q -> 1 when the q = 1 rules are free supercommutation; specialization
    cannot raise a rank, and the rank mod p is at most the rank over Q, so
    this rank is at most that of psi_N."""
    dom = graded_basis(ctx.mt, N)
    return len(dom), len(_pivots_mod_p(map(ctx.classical().word_image, dom)))


def _invariant_dim_bound_at_q1(cp, N):
    """sum_S (|S| - rank_p phi(E_S)) over the row sectors S of the zero-weight
    words of bidegree (N,N), an upper bound on dim_inv: E_S is the stacked
    raising and lowering matrix of S that invariant_subspace takes the
    kernel of, and phi(E_S) is built directly at q = 1 on cp, the q = 1
    degeneration of P, whose rules must be free supercommutation, where
    each E is a super-derivation, E(u.v) = E(u).v + (-1)^([E][u]) u.E(v),
    on half-words u and v (`_sector_columns` with at_q1).  Its rank mod p
    is at most that of E_S, so each sector's term bounds its invariants."""
    return sum(len(domain) - len(_pivots_mod_p(cols))
               for domain, cols in _sector_columns(cp, (N, N), at_q1=True))


def _psi_lands_in_invariants(ctx):
    """True when every product of X's is invariant, by a structural check of
    the tuple that covers every degree at once.

    The action on words follows the coproduct, so it is a module-superalgebra
    action on the free algebra.  It descends to P when it maps the two sides
    of every rule to the same element: for the E's that is checked
    exhaustively, one `act` on lhs - rhs per rule and E; a K scales a word
    by q to its column weight, so it respects a rule whose words all have
    one weight.  When every X is invariant as well (`is_invariant`), an E on
    X_1 ... X_N is a sum of terms each with one factor E(X_j) = 0, and each
    K fixes the product, so psi maps into the invariants.
    """
    pres = ctx.p
    m, n = pres.params[4:]
    egens = [x for x in chevalley_generators(m, n) if x.kind in (ERAISE, ELOWER)]
    for lhs, rhs in pres.rules.items():
        weight = _word_weight(lhs, pres, m, n)
        if any(_word_weight(w, pres, m, n) != weight for _, w in rhs):
            return False
        difference = NCElement.from_word(lhs) - NCElement([(w, c) for c, w in rhs])
        if any(act(x, difference, pres) for x in egens):
            return False
    return all(is_invariant(x, pres) for x in ctx.x_elements)


def _fft_degree(ctx, N, q1):
    """(|M~_N|, dim_inv, dim_img, contained) of degree N.

    With q1, the premises of the q = 1 sandwich, it is tried first:

        rank_p phi(psi_N) <= dim_img <= dim_inv <= sum_S (|S| - rank_p phi(E_S)),

    where the middle inequality is the containment that q1 proves once for
    the tuple (`_psi_lands_in_invariants`).  When the ends meet, dim_img =
    dim_inv exactly.  Otherwise the degree takes the exact path: the
    invariant basis, the rank of the psi images and the rank of both
    together, which must equal dim_inv.
    """
    if q1:
        size, lower = _psi_rank_at_q1(ctx, N)
        if lower == _invariant_dim_bound_at_q1(ctx.classical().p, N):
            return size, lower, lower, True
    dom, images = _psi_columns(ctx, N)
    inv = [v.terms for v in invariant_subspace(ctx.p, (N, N))]
    return len(dom), len(inv), _span_dim(images), _span_dim(images + inv) == len(inv)


def fft_check(params, max_degree) -> dict:
    """Degree-by-degree surjectivity report for psi onto the invariants.

    For each N <= max_degree the report records, over the bidegree (N,N)
    component of P: the dimension of the invariant subspace, the rank of the
    span of {psi(w)} for w running over the degree-N basis words of the tilde
    presentation, the resulting kernel dimension, and the hook-shape
    prediction for it.  A degree passes when the image span lies inside the
    invariants with equal dimension and the kernel matches the prediction.

    Each degree is first tried at q = 1 (`_fft_degree`), where the mod-p
    rank of the q = 1 psi images and the q = 1 E-matrices of the
    zero-weight sectors bound dim_img from below and dim_inv from above;
    where the two meet, both are exact.  That needs the q = 1 rules of M~
    and P to be free supercommutation and psi to map into the invariants,
    which is proven once for the tuple, structurally: the action respects
    every rule of P and every X is invariant (`_psi_lands_in_invariants`).
    Without these premises, or where the ends differ, the degree takes the
    exact path over Z[q, q^-1], so the report is the same either way.

    Since every X has bidegree (1,1), invariants can only live in balanced
    bidegrees.  The report also lists the unbalanced components up to total
    degree max_degree + 1 with their invariant dimensions, which must be 0.
    These records restate the K-weight argument rather than test it:
    `invariant_subspace` pairs T-words only with Tb-words of opposite
    column weight, and in an unbalanced bidegree no such pair exists, so it
    has no candidate word to start from.
    """
    _nonnegative_int(max_degree, "max_degree")
    p = _params(params)
    ctx = _context(p)
    cctx = ctx.classical()
    q1 = (_classical_rules_ok(cctx.p) and _classical_rules_ok(cctx.mt)
          and _psi_lands_in_invariants(ctx))
    degrees = []
    for N in range(max_degree + 1):
        size, dim_inv, dim_img, contained = _fft_degree(ctx, N, q1)
        degrees.append(_degree_record(N, size - dim_img, kernel_dim_prediction(*p, N),
                                      contained and dim_img == dim_inv,
                                      dim_inv=dim_inv, dim_img=dim_img))
    unbalanced = []
    for total in range(1, max_degree + 2):
        for d1 in range(total + 1):
            d2 = total - d1
            if d1 == d2:
                continue
            dim = len(invariant_subspace(ctx.p, (d1, d2)))
            unbalanced.append(
                {"bidegree": [d1, d2], "dim_inv": dim, "pass": dim == 0}
            )
    overall = all(rec["pass"] for rec in degrees) and all(
        rec["pass"] for rec in unbalanced
    )
    return {
        "params": list(p),
        "degrees": degrees,
        "unbalanced": unbalanced,
        "overall_pass": overall,
    }


def kernel_psi_basis(params, degree) -> list:
    """Exact kernel basis of psi restricted to one degree.

    Columns of the matrix are the degree-N basis words of the tilde
    presentation, rows the bidegree (N,N) words of P that their images
    touch; entries are the coordinates of the word images.  Vectors come
    back in coordinates over graded_basis of the tilde presentation.
    """
    p = _params(params)
    _nonnegative_int(degree, "degree")
    _, images = _psi_columns(_context(p), degree)
    return nullspace(_span_matrix(images))


def _critical_minors(p):
    """All minors of size m+1 in the tilde presentation, on strictly
    increasing rows.  They generate the kernel of psi when rows and columns
    are all even (l = s = n = 0) and m < min(k, r); an odd row can repeat
    in a nonzero minor, and those minors are missing here."""
    k, l, r, s, m, _ = p
    return [
        quantum_minor(rows, tuple(reversed(cols)), "Mtilde", p)
        for rows in combinations(range(1, k + l + 1), m + 1)
        for cols in combinations(range(1, r + s + 1), m + 1)
    ]


def _kernel_at_q1(ctx, N, lower):
    """dim_ker of psi on degree N when the q = 1 sandwich closes on it,
    else None.

    lower must be a proven lower bound on dim_ker.  The upper end is
    |M~_N| - rank_p phi(psi_N) (`_psi_rank_at_q1`), since the rank is at
    most that of psi_N.  When the ends are equal, dim_ker is exact;
    otherwise the caller computes dim_ker generically.
    """
    size, rank_p = _psi_rank_at_q1(ctx, N)
    upper = size - rank_p
    return upper if upper == lower else None


def sft_check(params, max_degree, minor_ideal=False) -> dict:
    """Degree-by-degree kernel report for psi against the prediction.

    For each N <= max_degree the report records the kernel dimension of psi
    on the degree-N component (by rank-nullity, as in fft_check) and the
    hook-shape prediction for it.  With minor_ideal, which needs rows and
    columns all even (l = s = n = 0) and m < min(k, r), it also records the
    dimension of the degree-N piece of the ideal generated by the
    (m+1)-minors, which must equal the kernel dimension; and since that
    proves ideal = kernel only for an ideal inside the kernel, every degree
    also requires psi to send each minor to zero and to respect every tilde
    rule.

    A degree is settled at q = 1 by one rule.  Its lower end is the minor
    ideal at q = 1 mod p (`_ideal_dims_at_q1`) when psi kills every minor
    and respects every tilde rule, so that the minor ideal lies in the
    kernel, and 0 otherwise; both are proven lower bounds on dim_ker:
    ideal_{q=1,p}(phi(G))_N <= ideal(G)_N <= dim_ker(N).  Only where the
    lower end equals dim_pred is the two-sided sandwich tried, once
    (`_kernel_at_q1`), against the upper bound |M~_N| - rank_p phi(psi_N):
    a degree passes only if dim_ker equals dim_pred, and a closed sandwich
    gives dim_ker equal to the lower end, so elsewhere it could only prove
    a failing degree.  All of this needs the q = 1 rules of M~ and P to be
    free supercommutation.  A closed sandwich gives dim_ker and ideal_dim
    exactly; every other degree takes dim_ker from the generic rank, and
    its ideal_dim from the generic minor ideal (`ideal_dims`, run once for
    all degrees on first need, only to report), so the report is the same
    either way and never rests on a bound alone.
    """
    _nonnegative_int(max_degree, "max_degree")
    k, l, r, s, m, n = p = _params(params)
    if minor_ideal and not (l == s == n == 0 and m < min(k, r)):
        raise ValueError(
            "the minor-ideal check requires rows and columns all even "
            "(l = s = n = 0) and m < min(k, r)"
        )
    ctx = _context(p)
    cctx = ctx.classical()
    # the premise of every q = 1 bound: the merge product and the q = 1 psi
    # images are phi of the generic ones
    q1 = _classical_rules_ok(cctx.p) and _classical_rules_ok(cctx.mt)
    minors = ideal = q1_ideal = None
    ideal_in_kernel = False
    if minor_ideal:
        minors = _critical_minors(p)
        # psi kills the minors and is a homomorphism: their ideal is in its kernel
        ideal_in_kernel = (not any(ctx.image_of(g) for g in minors)
                           and _rules_hold(ctx.mt.rules, ctx.word_image))
        if q1 and ideal_in_kernel:
            q1_ideal = _ideal_dims_at_q1(minors, cctx.mt, max_degree)
    degrees = []
    for N in range(max_degree + 1):
        dim_pred = kernel_dim_prediction(*p, N)
        lower = 0 if q1_ideal is None else q1_ideal[N]
        dim_ker = _kernel_at_q1(ctx, N, lower) if q1 and lower == dim_pred else None
        ideal_dim = None
        if q1_ideal is not None and dim_ker is not None:
            ideal_dim = lower  # the closed sandwich makes the q = 1 ideal exact
        elif minor_ideal:
            if ideal is None:
                ideal = ideal_dims(minors, ctx.mt, max_degree)
            ideal_dim = ideal[N]
        if dim_ker is None:
            dom, images = _psi_columns(ctx, N)
            dim_ker = len(dom) - _span_dim(images)
        ok = not minor_ideal or (ideal_in_kernel and ideal_dim == dim_ker)
        degrees.append(_degree_record(N, dim_ker, dim_pred, ok, ideal_dim=ideal_dim))
    return {
        "params": list(p),
        "degrees": degrees,
        "overall_pass": all(rec["pass"] for rec in degrees),
    }


def quantum_minor(rows, cols, target, params) -> NCElement:
    """Quantum minor sum over permutations with coefficient (-q^{-1})^length.

    `target` selects the presentation: "M" wants both index sequences
    strictly increasing, "Mtilde" wants strictly increasing rows against
    strictly decreasing columns.  The result is normalized.
    """
    k, l, r, s = _params(params)[:4]
    rows = tuple(rows)
    cols = tuple(cols)
    if not all(map(_is_int, rows + cols)):
        raise ValueError(f"minor indices must be integers, got rows {rows!r} and cols {cols!r}")
    if target == "M":
        pres = presentation_M(k, l, r, s)
        tag = "T"
        cols_ok = all(x < y for x, y in zip(cols, cols[1:]))
        col_rule = "strictly increasing"
    elif target == "Mtilde":
        pres = presentation_Mtilde(k, l, r, s)
        tag = "Tt"
        cols_ok = all(x > y for x, y in zip(cols, cols[1:]))
        col_rule = "strictly decreasing"
    else:
        raise ValueError(f"unknown minor target {target!r}; use 'M' or 'Mtilde'")
    if not rows or len(rows) != len(cols):
        raise ValueError("rows and cols must be nonempty sequences of equal length")
    if not all(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError("row indices must be strictly increasing")
    if not cols_ok:
        raise ValueError(f"column indices must be {col_rule} for target {target}")
    try:
        gids = [[pres.gen_id(tag, a, c) for c in cols] for a in rows]
    except KeyError as exc:
        raise ValueError(f"minor index out of range: {exc}") from None
    size = len(rows)
    terms = []
    for sigma in permutations(range(size)):
        ell = _inversions(sigma)
        coeff = LaurentInt.q_power(-ell, coeff=_sign(ell))
        terms.append((tuple(gids[a][sigma[a]] for a in range(size)), coeff))
    return normal_form(NCElement(terms), pres)


def ideal_dims(generators, pres, max_degree) -> list[int]:
    """Dimensions of the graded pieces 0..max_degree of the two-sided ideal
    generated by the given elements.

    Degree N is spanned by h*w for each element h of a set H and each normal
    word w of degree N - deg h, and by x*h for each letter x and each h in H
    of degree N-1.  H starts as the generators; the pivot columns among the
    x*h join it in degree N, so every x*h lies in the right ideal H*A and
    the span is the whole two-sided ideal.  Each h*w extends the previous
    degree's h*w[:-1] by its last letter (a prefix of a normal word is
    normal).  Generators must be homogeneous (zero ones are skipped); only
    the single-family presentations carry the integer grading this uses.
    The loop is `_h_set_dims`, here with `multiply` and the exact
    `pivot_columns`; `_ideal_dims_at_q1` runs it at q = 1 mod p.
    """
    if pres.kind == "P":
        raise ValueError("ideal components are only computed in single-family presentations")
    _nonnegative_int(max_degree, "max_degree")
    spanning = []
    for g in generators:
        g = normal_form(g, pres)
        degrees = {len(w) for w in g.terms}
        if len(degrees) > 1:
            raise ValueError(f"generator {format_element(g, pres)} is not homogeneous")
        if degrees:
            spanning.append((degrees.pop(), g))
    letters = [NCElement.from_word((x,)) for x in range(pres.ngens)]
    return _h_set_dims(spanning, letters, pres, max_degree, multiply,
                      lambda cols: pivot_columns(_span_matrix([c.terms for c in cols])))


def _ideal_dims_at_q1(generators, cpres, max_degree):
    """ideal_dims at q = 1 with ranks mod p, for normalized homogeneous
    generators and the q = 1 degeneration cpres of their presentation,
    whose rules must be free supercommutation (`_classical_rules_ok`).

    The same H-set loop runs on the {normal word: int} limits of the
    generators, with `_merge_product` and the pivots mod p.  Each column is
    phi of an element of the generic ideal, since the merge product is phi
    of the generic one, so each dimension is at most ideal_dims' in the
    same degree; it can be smaller where a generator or a rank drops at
    q = 1 or mod p.
    """
    spanning = [(len(next(iter(g))), g) for g in map(_at_q1, generators) if g]
    letters = [{(x,): 1} for x in range(cpres.ngens)]
    return _h_set_dims(spanning, letters, cpres, max_degree, _merge_product, _pivots_mod_p)


def _h_set_dims(spanning, letters, pres, max_degree, product, pivots):
    """The H-set loop of the ideal dimensions 0..max_degree: spanning holds
    (degree, h) for the generators, the start of H, and grows as H does;
    letters[x] is the letter x as an element; product(a, b, pres) is a*b;
    pivots(columns) gives, ascending, the indices of independent columns
    among the given elements, which span them."""
    basis = lru_cache(maxsize=None)(lambda d: graded_basis(pres, d))
    right = {}
    dims = []
    for N in range(max_degree + 1):
        previous, right = right, {}
        for i, (d, h) in enumerate(spanning):
            if d == N:
                right[i, ()] = h
            elif d < N:
                for w in basis(N - d):
                    right[i, w] = product(previous[i, w[:-1]], letters[w[-1]], pres)
        # the left products follow the right multiples; a pivot among them
        # joins H, and its entry in right must not shift their offset
        offset = len(right)
        cols = list(right.values()) + [
            product(x, h, pres) for d, h in spanning if d == N - 1 for x in letters
        ]
        got = pivots(cols)
        for j in got:
            if j >= offset:
                right[len(spanning), ()] = cols[j]
                spanning.append((N, cols[j]))
        dims.append(len(got))
    return dims


def classical_limit(e: NCElement) -> NCElement:
    """Evaluate every coefficient at q = 1, dropping the terms that vanish."""
    return NCElement(_at_q1(e))


def classical_presentation(pres: AlgebraPresentation) -> AlgebraPresentation:
    """The q = 1 degeneration of a presentation: its rules with every
    coefficient evaluated at q = 1, a term that vanishes there dropped.

    Rule tails all carry a factor of q - q^{-1}, so the surviving rules are
    plain supercommutation swaps (and squares of odd generators still
    vanish); the rewriting engine applies unchanged.
    """
    rules = _map_coefficients(pres.rules, lambda c: LaurentInt.from_int(c.eval_q1()))
    return AlgebraPresentation(pres.kind, pres.params, pres.generators, rules)


def _inversions(seq):
    n = len(seq)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if seq[a] > seq[b]
    )


def symmetric_group_action(perm, seq, even_count):
    """Signed place permutation on a parity-graded sequence.

    Returns (sign, new_seq): the permutation moves the entry at position
    perm^{-1}(a) into position a, and every pair of odd letters (value >
    even_count) that it puts in the other order contributes a factor -1,
    as each adjacent swap of two odd letters does; the test suite checks
    the composition law directly.
    """
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(1, len(seq) + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{len(seq)}")
    _nonnegative_int(even_count, "even_count")
    out = list(seq)
    for a, x in zip(perm, seq):
        out[a - 1] = x
    return _sign(_inversions([perm[p] for p, x in enumerate(seq) if x > even_count])), tuple(out)


def _permutations_fixing_blocks(blocks, size):
    """One-line permutations of 1..size preserving each block setwise."""
    out = []
    for images in product(*[permutations(b) for b in blocks]):
        line = list(range(1, size + 1))
        for orig, img in zip(blocks, images):
            for o, v in zip(orig, img):
                line[o - 1] = v
        out.append(tuple(line))
    return out


def sergeev_polynomial(tableau, I, J, K, L) -> NCElement:
    """Classical symmetrizer polynomial attached to a numbered tableau.

    Sums over the row and column stabilizers of the tableau: each column
    permutation tau contributes (-1)^{inversions}, the combined permutation
    acts on the row sequence I through the signed place action, and the
    resulting monomial prod_a t_{i_a j_a} carries the straightening sign
    (-1)^{sum_{a>b} [i_a]([i_b]+[j_b])}.  The result is normalized in the
    q = 1 presentation with row and column alphabet I_{K|L}; both sequences
    must fill the tableau semistandardly.
    """
    rows = tuple(tuple(row) for row in tableau)
    if not rows or any(not row for row in rows):
        raise ValueError("tableau rows must be nonempty")
    if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
        raise ValueError("tableau shape must be a partition")
    numbers = [x for row in rows for x in row]
    size = len(numbers)
    if not all(map(_is_int, numbers)) or sorted(numbers) != list(range(1, size + 1)):
        raise ValueError("tableau must contain each of 1..N exactly once")
    I = tuple(I)
    J = tuple(J)
    if len(I) != size or len(J) != size:
        raise ValueError("sequences must match the tableau size")
    if any(not _is_int(x) or not 1 <= x <= K + L for x in I + J):
        raise ValueError(f"sequence entries must lie in 1..{K + L}")
    for name, seq in (("I", I), ("J", J)):
        filling = {(i, j): seq[x - 1] for i, row in enumerate(rows) for j, x in enumerate(row)}
        if not all(_hook_cell_ok(filling, i, j, v, K) for (i, j), v in filling.items()):
            raise ValueError(f"sequence {name} does not fill the tableau semistandardly")
    cols = []
    for c in range(len(rows[0])):
        cols.append(tuple(row[c] for row in rows if len(row) > c))
    pres = classical_presentation(presentation_M(K, L, K, L))
    terms = []
    for sig in _permutations_fixing_blocks(rows, size):
        for tau in _permutations_fixing_blocks(cols, size):
            ell = _inversions(tau)
            combined = tuple(sig[tau[x] - 1] for x in range(size))
            csign, gI = symmetric_group_action(combined, I, K)
            alpha = 0
            for a in range(size):
                for b in range(a):
                    alpha += _index_parity(gI[a], K) * (
                        _index_parity(gI[b], K) + _index_parity(J[b], K)
                    )
            word = tuple(pres.gen_id("T", gI[t], J[t]) for t in range(size))
            terms.append((word, _sign(ell) * csign * _sign(alpha)))
    return normal_form(NCElement(terms), pres)
