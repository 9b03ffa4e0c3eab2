"""Quadratic superalgebra presentations and PBW normal forms.

Four presentations are supported, each on doubly indexed generators with a
Z_2-grading read off the index parities:

  * M       t_{ab}:  q-deformed matrix coordinates,
  * Mbar    tb_{ab}: the dual-side deformation, the bar image of M
            (q -> q^-1 on every rule coefficient),
  * Mtilde  tt_{ab}: the variant whose plain/corrected swap cases trade
            places with those of M,
  * P       T_{ai} and Tb_{bj}: the braided product of an M on rows
            (k,l) with an Mbar on rows (r,s), over a shared column
            alphabet of size m+n.

Words are tuples of generator ids.  The canonical order lists generators
ascending by (col, row) within each family, with all T before all Tb in P.
A word is normal when its ids are non-decreasing and no odd generator is
repeated adjacently.  Every defining relation is oriented so that the
key-maximal two-letter word rewrites into strictly smaller words, which
makes leftmost reduction terminate.  Most rules are swaps with a single
coefficient +-q^e; normal_form_stats rewrites a word through a run of
such swaps in place, collecting the monomial as two ints, and goes back
to its agenda of pending words only for a rule with several terms (or
none) or when the rewritten word is already pending.  The rewriting
order, and so the step count, is that of plain leftmost reduction with
one agenda round per step.  Confluence is not assumed but proven by the
diamond lemma, through its two premises: _misoriented finds any rule that
does not rewrite into smaller words, and _unresolved_overlaps resolves
every overlap of two rules.  The tests run both over the small-parameter
grid, and `qmatalg classical` runs the overlap check on the q = 1
presentations of the requested tuple.

Each presentation constructor keeps its last result, so the callers that
sweep one parameter tuple at a time share one presentation object, and
with it the tables it holds for uqaction.

normal_form_stats is the one rewriting loop.  It takes an NCElement, which
it validates and copies, or a raw {word: {exponent: int}} agenda that an
in-package caller built and hands over, which it consumes unvalidated.  It
adds into the agenda's coefficient dicts in place and wraps each output
coefficient in a LaurentInt once.  Words from outside are validated where
they enter: normal_form, multiply (its two factors) and uqaction.act.
_add_word_products is the one product loop, which fills such an agenda.
This module imports only laurent; hookcomb checks its basis counts.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .laurent import (_MONOMIAL, ONE, Q_MINUS_QINV, LaurentInt, _add_into, _add_scaled,
                      _add_term, _mul_into, format_laurent, parse_laurent)


class GenIndex(NamedTuple):
    """A tuple, equal to the plain tuple of its fields, so that
    uqaction.act_on_generator accepts ("T", a, i, parity) for T[a,i]."""

    family: str  # text tag: "T", "Tb" or "Tt"
    row: int
    col: int
    parity: int

    def __str__(self):
        return f"{self.family}[{self.row},{self.col}]"


class NCElement:
    """Finite LaurentInt-linear combination of generator words."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            if not isinstance(coeff, LaurentInt):
                coeff = LaurentInt.from_int(coeff)
            _add_term(data, word, coeff)
        self.terms = data

    @classmethod
    def _raw(cls, terms):
        """Wrap a {word: LaurentInt} dict with no zero coefficients, uncopied."""
        obj = cls.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): ONE})

    @classmethod
    def from_word(cls, word, coeff=ONE):
        return cls({tuple(word): coeff})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return NCElement._raw(_add_scaled(dict(self.terms), other.terms, ONE))

    def __sub__(self, other):
        return NCElement._raw(_add_scaled(dict(self.terms), other.terms, -ONE))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        if not isinstance(c, LaurentInt):
            c = LaurentInt.from_int(c)
        return NCElement._raw(_add_scaled({}, self.terms, c))

    def __repr__(self):
        return f"NCElement({self.terms!r})"


def _index_parity(idx, even_count):
    return 0 if idx <= even_count else 1


def _q_power_of_index(parity, exponent_sign):
    # q_a = q^{(-1)^{[a]}}, raised to exponent_sign
    return LaurentInt.q_power(exponent_sign if parity == 0 else -exponent_sign)


def _is_int(v):  # a bool is an int to Python, but not a size or a degree
    return isinstance(v, int) and not isinstance(v, bool)


def _nonnegative_int(value, name):
    """Check that the size or degree argument `name` is a nonnegative integer."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _sign(exponent):
    return 1 if exponent % 2 == 0 else -1


class AlgebraPresentation:
    """Immutable generator table plus oriented rewrite rules.

    parities[i] is the parity of generator i, the one table that the
    basis enumeration and the q = 1 merge product read.  _letter_images belongs to uqaction: the parts of letters and half-words
    (what each Chevalley generator does to them), built on first use and
    kept as long as the presentation is.
    """

    __slots__ = ("kind", "params", "generators", "parities", "rules", "_grid", "_swaps",
                 "_by_index", "_letter_images")

    def __init__(self, kind, params, generators, rules):
        self.kind = kind
        self.params = params
        self.generators = tuple(generators)
        self.parities = tuple(g.parity for g in self.generators)
        self._by_index = {(g.family, g.row, g.col): i for i, g in enumerate(self.generators)}
        self.rules = rules
        n = len(self.generators)
        grid = [[None] * n for _ in range(n)]
        swaps = [[None] * n for _ in range(n)]
        for (i, j), rhs in rules.items():
            grid[i][j] = rhs
            # a +-q^e single-term rule, applied in place by normal_form_stats
            if len(rhs) == 1 and len(rhs[0][0].terms) == 1:
                ((exp, c),) = rhs[0][0].terms.items()
                if c == 1 or c == -1:
                    swaps[i][j] = (exp, c, rhs[0][1])
        self._grid = grid
        self._swaps = swaps
        self._letter_images = {}

    @property
    def ngens(self):
        return len(self.generators)

    def gen_id(self, family, row, col):
        gid = self._by_index.get((family, row, col))
        if gid is None:
            raise KeyError(f"no generator {family}[{row},{col}] in {self.kind}{self.params}")
        return gid

    def generator(self, family, row, col):
        return NCElement.from_word((self.gen_id(family, row, col),))


def _family_generators(tag, nrows, even_rows, ncols, even_cols):
    gens = []
    for col in range(1, ncols + 1):
        for row in range(1, nrows + 1):
            p = (_index_parity(row, even_rows) + _index_parity(col, even_cols)) % 2
            gens.append(GenIndex(tag, row, col, p))
    return gens


def _matrix_family_rules(gens, offset, even_rows, even_cols, kind):
    """Oriented rules among the generators of one matrix family.

    kind is "M" or "Mt".  The two differ in the same-row constant, q_a for
    M and q_a^-1 for Mtilde, and in which mixed-index case gets the
    (q - q^-1) correction: both row and column descending for M, row
    ascending and column descending for Mtilde.  Mbar's rules are the bar
    image of M's (_map_coefficients).
    """
    rules = {}
    index = {(g.row, g.col): offset + i for i, g in enumerate(gens)}
    for i, g in enumerate(gens):
        gi = offset + i
        if g.parity:
            rules[(gi, gi)] = ()
        for j in range(i):
            h = gens[j]
            hj = offset + j
            eps = _sign(g.parity * h.parity)
            rp = _index_parity(g.row, even_rows)
            hp = _index_parity(h.row, even_rows)
            cp = _index_parity(g.col, even_cols)
            swap = (hj, gi)
            if g.col == h.col:
                rhs = ((eps * _q_power_of_index(cp, 1), swap),)
            elif g.row == h.row:
                rhs = ((eps * _q_power_of_index(rp, 1 if kind == "M" else -1), swap),)
            elif kind == "M" and g.row > h.row:
                tail_sign = _sign(rp * h.parity + hp * _index_parity(h.col, even_cols))
                tail = (index[(h.row, g.col)], index[(g.row, h.col)])
                rhs = ((eps * ONE, swap), (tail_sign * Q_MINUS_QINV, tail))
            elif kind == "Mt" and g.row < h.row:
                tail_sign = _sign(hp * g.parity + rp * cp)
                tail = (index[(g.row, h.col)], index[(h.row, g.col)])
                rhs = ((eps * ONE, swap), (-(eps * tail_sign) * Q_MINUS_QINV, tail))
            else:
                rhs = ((eps * ONE, swap),)
            rules[(gi, hj)] = rhs
    return rules


def _map_coefficients(rules, f):
    """rules with f applied to every coefficient, keys and terms in the
    same order; a term that f sends to zero is dropped.  The bar image
    (f = LaurentInt.bar) gives Mbar's rules from M's, and the q = 1
    evaluation gives a presentation's classical degeneration."""
    out = {}
    for key, rhs in rules.items():
        terms = ((f(c), w) for c, w in rhs)
        out[key] = tuple((c, w) for c, w in terms if c)
    return out


def _check_ranges(kind, *pairs):
    for label, (even, odd) in pairs:
        if not (_is_int(even) and _is_int(odd)):
            raise ValueError(f"{kind}: index range {label} must be two integers, got ({even!r},{odd!r})")
        if even < 0 or odd < 0 or even + odd < 1:
            raise ValueError(f"{kind}: index range {label} must be nonempty, got ({even},{odd})")


@lru_cache(maxsize=1, typed=True)
def presentation_M(k, l, r, s):
    _check_ranges("M", ("rows", (k, l)), ("cols", (r, s)))
    gens = _family_generators("T", k + l, k, r + s, r)
    return AlgebraPresentation("M", (k, l, r, s), gens, _matrix_family_rules(gens, 0, k, r, "M"))


@lru_cache(maxsize=1, typed=True)
def presentation_Mbar(k, l, r, s):
    _check_ranges("Mbar", ("rows", (k, l)), ("cols", (r, s)))
    gens = _family_generators("Tb", k + l, k, r + s, r)
    rules = _map_coefficients(_matrix_family_rules(gens, 0, k, r, "M"), LaurentInt.bar)
    return AlgebraPresentation("Mbar", (k, l, r, s), gens, rules)


@lru_cache(maxsize=1, typed=True)
def presentation_Mtilde(k, l, r, s):
    _check_ranges("Mtilde", ("rows", (k, l)), ("cols", (r, s)))
    gens = _family_generators("Tt", k + l, k, r + s, r)
    return AlgebraPresentation("Mtilde", (k, l, r, s), gens, _matrix_family_rules(gens, 0, k, r, "Mt"))


@lru_cache(maxsize=1, typed=True)
def presentation_P(k, l, r, s, m, n):
    """T_{ai} over rows (k,l) and Tb_{bj} over rows (r,s), columns (m,n).

    Normal words keep every T factor before every Tb factor; a Tb passing
    a T either swaps with a sign (different columns) or picks up q_i^{-1}
    plus a correction sum over higher columns (equal columns).
    """
    _check_ranges("P", ("T rows", (k, l)), ("Tb rows", (r, s)), ("cols", (m, n)))
    tgens = _family_generators("T", k + l, k, m + n, m)
    bgens = _family_generators("Tb", r + s, r, m + n, m)
    gens = tgens + bgens
    nt = len(tgens)
    rules = _matrix_family_rules(tgens, 0, k, m, "M")
    rules.update(_map_coefficients(_matrix_family_rules(bgens, nt, r, m, "M"), LaurentInt.bar))
    t_index = {(g.row, g.col): i for i, g in enumerate(tgens)}
    b_index = {(g.row, g.col): nt + i for i, g in enumerate(bgens)}
    for bi, gb in enumerate(bgens):
        b, j = gb.row, gb.col
        bp = _index_parity(b, r)
        jp = _index_parity(j, m)
        for ti, gt in enumerate(tgens):
            a, i = gt.row, gt.col
            ap = _index_parity(a, k)
            ip = _index_parity(i, m)
            eps = _sign(gt.parity * gb.parity)
            if j != i:
                rhs = ((eps * ONE, (ti, nt + bi)),)
            else:
                lead = eps * _q_power_of_index(ip, -1)
                terms = [(lead, (ti, nt + bi))]
                for jj in range(i + 1, m + n + 1):
                    jjp = _index_parity(jj, m)
                    c = -_sign(bp * gt.parity + ap * jjp) * Q_MINUS_QINV
                    terms.append((c, (t_index[(a, jj)], b_index[(b, jj)])))
                rhs = tuple(terms)
            rules[(nt + bi, ti)] = rhs
    return AlgebraPresentation("P", (k, l, r, s, m, n), gens, rules)


_STEP_LIMIT = 10_000_000


def _validate_words(e, pres):
    n = pres.ngens
    for word in e.terms:
        for g in word:
            if not (0 <= g < n):
                raise ValueError(f"generator id {g} outside presentation {pres.kind}{pres.params}")


def normal_form_stats(e, pres):
    """Normal form plus the number of rewrite steps taken.

    e is an NCElement, validated and copied, or a raw agenda that the
    caller hands over: a {word: {exponent: int}} dict with no zero
    coefficients, which is consumed and not validated.  Its coefficient
    dicts must belong to no LaurentInt, since they are written in place.

    Words wait in the agenda and are popped last-in first-out.  A
    popped word is rewritten at its leftmost redex for as long as that
    redex is a +-q^e single-term rule: the word is rebuilt in place, the
    exponent and sign accumulate as ints, and the scan resumes one letter
    left of the rewritten pair, since nothing before it changed.  The run
    ends when the word is normal (it goes to the output), when the rule
    has several terms or none (they go to the agenda), or when the word
    is already in the agenda (it merges there); the collected monomial
    then scales the coefficient once.  These are exactly the points
    where an agenda round per step would leave the word, so the result
    and its term order match that loop, and `steps` still counts one
    step per rule application.
    """
    if isinstance(e, NCElement):
        _validate_words(e, pres)
        agenda = {word: dict(c.terms) for word, c in e.terms.items()}
    else:
        agenda = e
    grid = pres._grid
    swaps = pres._swaps
    out = {}
    steps = 0
    limit = _STEP_LIMIT
    while agenda:
        word, coeff = agenda.popitem()
        shift = 0
        sign = 1
        p = 0
        while True:
            last = len(word) - 1
            rhs = None
            while p < last:
                rhs = grid[word[p]][word[p + 1]]
                if rhs is not None:
                    break
                p += 1
            if rhs is None:
                break
            steps += 1
            if steps > limit:
                raise RuntimeError("rewriting step limit exceeded; non-terminating rule system?")
            swap = swaps[word[p]][word[p + 1]]
            if swap is None:
                break
            exp, c, w = swap
            shift += exp
            sign *= c
            word = word[:p] + w + word[p + 2:]
            if word in agenda:
                break
            if p:
                p -= 1
        if shift or sign != 1:
            # times sign * q^shift: a monomial factor shifts exponents and merges no terms
            coeff = {ex + shift: cf * sign for ex, cf in coeff.items()}
        if rhs is not None and swap is None:
            head = word[:p]
            tail = word[p + 2:]
            for rc, rw in rhs:
                key = head + rw + tail
                if not _mul_into(agenda.setdefault(key, {}), coeff, rc.terms):
                    del agenda[key]
        else:
            # a normal word goes to the output, a pending one merges in the agenda
            pending = out if rhs is None else agenda
            acc = pending.get(word)
            if acc is None:
                pending[word] = coeff
            elif not _add_into(acc, coeff):
                del pending[word]
    return NCElement._raw({word: LaurentInt._raw(c) for word, c in out.items()}), steps


def normal_form(e, pres):
    return normal_form_stats(e, pres)[0]


def _misoriented(rules):
    """(left word, right word) pairs whose right word is not below the left
    one in degree-lex order; none proves that leftmost reduction terminates."""
    return [(lhs, w) for lhs, rhs in rules.items() for _, w in rhs if (len(w), w) >= (2, lhs)]


def _unresolved_overlaps(pres):
    """Rewrite every ambiguity abc (a rule on ab and one on bc) at ab first
    and at bc first; returns the overlap count and the words whose two
    normal forms differ.  Zero unresolved proves confluence (diamond lemma)."""
    right_letters = {}
    for a, b in pres.rules:
        right_letters.setdefault(a, []).append(b)
    count = 0
    bad = []
    for (a, b), rhs_ab in pres.rules.items():
        for c in right_letters.get(b, ()):
            left = NCElement([(w + (c,), co) for co, w in rhs_ab])
            right = NCElement([((a,) + w, co) for co, w in pres.rules[(b, c)]])
            count += 1
            if normal_form(left - right, pres):
                bad.append((a, b, c))
    return count, bad


def _add_word_products(agenda, u, v, c=ONE):
    """agenda += c*u*v, word by word, with no rewriting; returns agenda.

    agenda is a raw {word: {exponent: int}} agenda that normal_form_stats
    consumes: its coefficient dicts are fresh, written in place, and a zero
    sum is dropped.  u and v are NCElements and c a LaurentInt, none of them
    written or validated.  The one product loop of the algebra: multiply
    normalizes one such agenda, and since normal_form is linear, a relation
    sum c_k*u_k*v_k = 0 holds exactly when the agenda of all its terms
    normalizes to zero.
    """
    c = c.terms
    unit = c == {0: 1}  # as in every multiply: u's coefficients go in unscaled
    for wu, cu in u.terms.items():
        cu = cu.terms if unit else _mul_into({}, cu.terms, c)
        for wv, cv in v.terms.items():
            w = wu + wv
            if not _mul_into(agenda.setdefault(w, {}), cu, cv.terms):
                del agenda[w]
    return agenda


def multiply(a, b, pres):
    _validate_words(a, pres)
    _validate_words(b, pres)
    return normal_form(_add_word_products({}, a, b), pres)


def _normal_words_in(ids, parities, degree):
    out = []
    for word in combinations_with_replacement(ids, degree):
        ok = True
        for p in range(len(word) - 1):
            if word[p] == word[p + 1] and parities[word[p]]:
                ok = False
                break
        if ok:
            out.append(word)
    return out


def _half_bases(pres, bidegree):
    """The normal T-words of degree d_T and the normal Tb-words of degree
    d_Tb of a P presentation, as two lists in graded_basis order."""
    if not (isinstance(bidegree, (tuple, list)) and len(bidegree) == 2
            and all(_is_int(d) and d >= 0 for d in bidegree)):
        raise ValueError(f"bidegree must be a pair of nonnegative integers, got {bidegree!r}")
    d1, d2 = bidegree
    nt = sum(1 for g in pres.generators if g.family == "T")
    return (
        _normal_words_in(range(nt), pres.parities, d1),
        _normal_words_in(range(nt, pres.ngens), pres.parities, d2),
    )


def graded_basis(pres, degree):
    """Normal words of the given degree; for P, degree is (d_T, d_Tb), and
    the words are each T-word of _half_bases followed by each Tb-word."""
    if pres.kind == "P":
        twords, bwords = _half_bases(pres, degree)
        return [tw + bw for tw in twords for bw in bwords]
    _nonnegative_int(degree, "degree")
    return _normal_words_in(range(pres.ngens), pres.parities, degree)


# ------------------------------------------------------------ text format


def format_element(e, pres):
    if not e.terms:
        return "0"
    pieces = []
    for word in sorted(e.terms, key=lambda w: (len(w), w)):
        coeff = e.terms[word]
        wtext = " ".join(str(pres.generators[g]) for g in word)
        if len(coeff.terms) > 1:
            sign = 1
            body = f"({format_laurent(coeff)})"
            if wtext:
                body += f" * {wtext}"
        else:
            (exp, c), = coeff.terms.items()
            sign = 1 if c > 0 else -1
            mag = format_laurent(LaurentInt.q_power(exp, abs(c)))
            if not wtext:
                body = mag
            elif mag == "1":
                body = wtext
            else:
                body = f"{mag} * {wtext}"
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(pieces)


# A generator Fam[row,col].  Its family name may not follow a letter, so
# ``qT[1,1]`` is not read as q times T[1,1].
_GEN_RE = re.compile(r"(?<![A-Za-z])([A-Za-z]+)\[(\d+),(\d+)\]")
_ELEMENT_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:\((?P<paren>[^()]*)\)|(?P<mono>{_MONOMIAL}))"
    rf"(?P<star>\s*\*)?(?P<word>(?:\s*{_GEN_RE.pattern})*)\s*"
)


def parse_element(text, pres):
    """Inverse of format_element: a sum of terms, each a sign (optional on
    the first term), an optional coefficient ``(Laurent)`` or Laurent
    monomial (see parse_laurent), an optional ``*`` that needs a coefficient
    before it and a word after it, and a word of generators ``Fam[row,col]``
    separated by optional spaces.  A term has a coefficient or a word or
    both.  Raises ValueError naming the position and text of a bad term."""
    text = text.strip()
    if not text:
        raise ValueError("empty element text")
    total = {}
    pos = 0
    while pos < len(text):
        m = _ELEMENT_TERM_RE.match(text, pos)
        coeff_text, word = m["mono"] or m["paren"], m["word"]  # coeff_text None: no coefficient
        has_coeff = coeff_text is not None
        if (not (has_coeff or word) or (pos and not m["sign"])
                or (m["star"] and not (has_coeff and word))):
            raise ValueError(f"bad term at position {pos}: {text[pos:]!r}")
        try:
            coeff = parse_laurent(coeff_text) if has_coeff else ONE
            ids = tuple(pres.gen_id(fam, int(row), int(col))
                        for fam, row, col in _GEN_RE.findall(word))
        except (ValueError, OverflowError, KeyError) as exc:
            raise ValueError(f"bad term at position {pos}: {m[0].strip()!r}: {exc.args[0]}") from None
        _add_term(total, ids, -coeff if m["sign"] == "-" else coeff)
        pos = m.end()
    return NCElement._raw(total)
