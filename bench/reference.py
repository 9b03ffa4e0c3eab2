"""A fixed reference loop that measures how fast this machine runs right now.

The benchmark shares a host whose speed swings by up to 1.7x from one
minute to the next, and the swing moves qmatalg and any other pure-Python
code together.  Each timed sample therefore runs this loop just before and
just after the workload, in the same interpreter.  bench/run.py reports
every end-to-end time at the reference speed:

    seconds measured * REFERENCE_S / seconds the reference loop took

summed over the run, so a run at half speed reports the same figure as a
run at full speed.  The loop uses only the standard library and the two
kinds of work qmatalg does: products of sparse dict polynomials with
growing int coefficients (as in exactla), and leftmost rewriting of tuple
words into a normal form (as in qalgebra).  No change to qmatalg moves it.
"""

import time

POLY_ROUNDS = 240
REWRITE_ROUNDS = 110
# the loop's median time on the machine of bench/BASELINE.md, in seconds;
# it only sets the scale of the reported figures
REFERENCE_S = 0.15

_FACTORS = [
    {e: (e * 7919) % 97 - 48 for e in range(-k, k + 1) if e % 3} for k in range(2, 9)
]
# a q-commutation rule for every inversion (a, b), a > b, over six letters:
# (a, b) -> q (b, a) + (q - q^-1) (b, b); each step makes the word smaller
_RULES = {
    (a, b): (({1: 1}, (b, a)), ({1: 1, -1: -1}, (b, b)))
    for a in range(6) for b in range(a)
}


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _normal_form(word):
    agenda = {word: {0: 1}}
    out = {}
    while agenda:
        w, c = agenda.popitem()
        for p in range(len(w) - 1):
            rhs = _RULES.get(w[p:p + 2])
            if rhs is not None:
                for rc, rw in rhs:
                    nw = w[:p] + rw + w[p + 2:]
                    nc = _poly_mul(c, rc)
                    prev = agenda.get(nw)
                    agenda[nw] = nc if prev is None else _poly_add(prev, nc)
                break
        else:
            prev = out.get(w)
            out[w] = c if prev is None else _poly_add(prev, c)
    return out


def _work():
    check = 0
    for r in range(POLY_ROUNDS):
        p = {0: 1}
        for f in _FACTORS:
            p = _poly_mul(p, f)
        check ^= len(p) + sum(c & 0xFFFF for c in p.values())
    for r in range(REWRITE_ROUNDS):
        word = tuple((r * 7 + i * 5) % 6 for i in range(4))
        check ^= len(_normal_form(word))
    return check


def timed():
    """Run the loop once; returns (wall seconds, CPU seconds)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0
