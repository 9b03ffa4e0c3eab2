"""Acceptance gate: one test per headline criterion, C01 through C12.

Every check is exact (integer Laurent arithmetic, zero tolerance).  Each
test prints a single PASS/FAIL scoreboard line and asserts the same
condition, so the -v listing doubles as the criterion report.  Wall-clock
ceilings are asserted for the checks that must stay interactive-fast.
"""

import time
from itertools import combinations

from qmatalg.exactla import CoeffVector
from qmatalg.hookcomb import kernel_dim_prediction, verify_presentation_flatness
from qmatalg.invariants import (
    build_X,
    classical_limit,
    classical_presentation,
    classical_psi,
    fft_check,
    ideal_dims,
    kernel_psi_basis,
    psi,
    quantum_minor,
    sergeev_polynomial,
    verify_X_relations,
)
from qmatalg.laurent import Q, QINV, ZERO, ONE
from qmatalg.qalgebra import (
    NCElement,
    _misoriented,
    _unresolved_overlaps,
    normal_form,
    presentation_M,
    presentation_Mbar,
    presentation_Mtilde,
    presentation_P,
)
from qmatalg.rmat_hecke import (
    hecke_act,
    sym_skew_bases,
    verify_braid,
    verify_frt,
    verify_hecke_quadratic,
)
from qmatalg.uqaction import is_invariant

NONZERO_PAIRS = [(a, b) for a in range(3) for b in range(3) if a + b >= 1]
PARAM_GRID = [
    (k, l, r, s, m, n)
    for (k, l) in NONZERO_PAIRS
    for (r, s) in NONZERO_PAIRS
    for (m, n) in NONZERO_PAIRS
]


def _criterion(cid, desc, ok, elapsed, budget=None):
    in_budget = budget is None or elapsed <= budget
    status = "PASS" if ok and in_budget else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if budget is None else f" ({elapsed:.1f}s / {budget}s)"
    print(f"{cid} {desc}: {status}{suffix}")
    assert ok, f"{cid} {desc}: exact checks failed"
    assert in_budget, f"{cid} {desc}: took {elapsed:.1f}s, ceiling {budget}s"


def test_c01_pbw_basis_counts_match_closed_forms():
    t0 = time.perf_counter()
    ok = all(
        verify_presentation_flatness(build(k, l, r, s), 4)["pass"]
        for k, l in NONZERO_PAIRS
        for r, s in NONZERO_PAIRS
        for build in (presentation_M, presentation_Mbar, presentation_Mtilde)
    )
    _criterion("C01", "PBW basis counts match closed forms", ok,
               time.perf_counter() - t0, budget=120)


def test_c02_rewriting_is_confluent_on_every_overlap():
    # the diamond lemma: every rule rewrites into smaller words, and every
    # overlap of two rules resolves; the counts show the check is not empty
    t0 = time.perf_counter()
    families = [
        (presentation_M(2, 1, 1, 2), 129),
        (presentation_Mbar(2, 1, 1, 2), 129),
        (presentation_Mtilde(2, 1, 1, 2), 129),
        (presentation_P(1, 1, 1, 1, 1, 1), 88),
    ]
    ok = True
    for pres, overlaps in families:
        count, bad = _unresolved_overlaps(pres)
        ok = ok and count == overlaps and bad == [] and _misoriented(pres.rules) == []
    _criterion("C02", "rewriting is confluent: every rule oriented, every overlap resolves",
               ok, time.perf_counter() - t0, budget=60)


def test_c03_every_X_generator_is_invariant():
    t0 = time.perf_counter()
    ok = True
    for params in PARAM_GRID:
        k, l, r, s, m, n = params
        pres = presentation_P(k, l, r, s, m, n)
        for a in range(1, k + l + 1):
            for b in range(1, r + s + 1):
                ok = ok and is_invariant(build_X(a, b, params), pres)
    _criterion("C03", "every X generator is invariant across the small-parameter grid",
               ok, time.perf_counter() - t0, budget=120)


def test_c04_exchange_relation_suite_vanishes():
    t0 = time.perf_counter()
    ok = all(verify_X_relations(params) for params in PARAM_GRID)
    _criterion("C04", "X/T exchange relation suite vanishes across the grid",
               ok, time.perf_counter() - t0, budget=120)


def test_c05_psi_preserves_every_defining_relation():
    t0 = time.perf_counter()
    ok = True
    for params in PARAM_GRID:
        k, l, r, s, m, n = params
        mt = presentation_Mtilde(k, l, r, s)
        for (i, j), rhs in mt.rules.items():
            left = psi(NCElement.from_word((i, j)), params)
            right = psi(NCElement((w, c) for c, w in rhs), params)
            ok = ok and left == right
    _criterion("C05", "psi image of every defining relation vanishes",
               ok, time.perf_counter() - t0)


def test_c06_psi_image_fills_the_invariants():
    t0 = time.perf_counter()
    ok = True
    for params in [(1, 1, 1, 1, 2, 2), (2, 0, 2, 0, 2, 0),
                   (1, 0, 1, 0, 1, 0), (1, 1, 1, 1, 1, 1)]:
        rep = fft_check(params, 3)
        ok = ok and rep["overall_pass"]
        for rec in rep["degrees"]:
            ok = ok and rec["pass"] and rec["dim_img"] == rec["dim_inv"]
        # off-balance bidegrees up to total weight 4 carry no invariants
        totals = {rec["bidegree"][0] + rec["bidegree"][1] for rec in rep["unbalanced"]}
        ok = ok and totals == {1, 2, 3, 4}
        ok = ok and all(rec["pass"] and rec["dim_inv"] == 0 for rec in rep["unbalanced"])
    _criterion("C06", "psi image equals the invariant subspace in balanced bidegrees",
               ok, time.perf_counter() - t0)


def test_c07_kernel_dimensions_match_the_prediction():
    t0 = time.perf_counter()
    ok = True
    for params, top in [((2, 0, 2, 0, 1, 0), 4), ((1, 1, 1, 1, 0, 1), 3)]:
        k, l, r, s, m, n = params
        for N in range(top + 1):
            got = len(kernel_psi_basis(params, N))
            ok = ok and got == kernel_dim_prediction(k, l, r, s, m, n, N)
    _criterion("C07", "kernel dimensions match the hook-shape prediction",
               ok, time.perf_counter() - t0)


def test_c08_kernel_vanishes_when_the_target_is_large():
    t0 = time.perf_counter()
    params = (2, 1, 1, 1, 1, 1)
    ok = all(len(kernel_psi_basis(params, N)) == 0 for N in range(4))
    _criterion("C08", "kernel vanishes when the middle space is large enough",
               ok, time.perf_counter() - t0)


def test_c09_minor_ideal_exhausts_the_kernel():
    t0 = time.perf_counter()
    params = (2, 0, 2, 0, 1, 0)
    k, l, r, s, m, n = params
    size = m + 1
    minors = [
        quantum_minor(rows, tuple(reversed(cols)), "Mtilde", params)
        for rows in combinations(range(1, k + l + 1), size)
        for cols in combinations(range(1, r + s + 1), size)
    ]
    ok = len(minors) > 0
    for g in minors:
        ok = ok and psi(g, params).is_zero()
    mt = presentation_Mtilde(k, l, r, s)
    dims = ideal_dims(minors, mt, 4)
    for N in range(5):
        ok = ok and dims[N] == len(kernel_psi_basis(params, N))
    _criterion("C09", "minor-generated ideal exhausts the kernel degree by degree",
               ok, time.perf_counter() - t0)


def test_c10_hecke_quadratic_braid_and_eigenbases():
    t0 = time.perf_counter()
    ok = True
    for k, l in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        d = k + l
        ok = ok and verify_hecke_quadratic(k, l)
        ok = ok and verify_braid(k, l)
        # far commutation on four tensor factors: slots 1 and 3 commute
        for pos in range(d ** 4):
            unit = [ZERO] * d ** 4
            unit[pos] = ONE
            ok = ok and hecke_act([1, 3], unit, k, l, 4) == hecke_act([3, 1], unit, k, l, 4)
        sym, skew = sym_skew_bases(k, l)
        ok = ok and len(sym) == k * (k + 1) // 2 + l * (l - 1) // 2 + k * l
        ok = ok and len(sym) + len(skew) == d * d
        for v in sym:
            ok = ok and hecke_act([1], v, k, l, 2) == CoeffVector([Q * e for e in v])
        for v in skew:
            ok = ok and hecke_act([1], v, k, l, 2) == CoeffVector([-QINV * e for e in v])
    _criterion("C10", "Hecke quadratic, braid, far commutation, exact eigenbases",
               ok, time.perf_counter() - t0, budget=60)


def test_c11_frt_exchange_identity():
    t0 = time.perf_counter()
    ok = verify_frt(2, 1)
    _criterion("C11", "R-matrix exchange identity holds entrywise", ok,
               time.perf_counter() - t0)


def test_c12_classical_limit_and_sergeev():
    t0 = time.perf_counter()
    ok = True

    # q = 1 turns every rule into a plain supercommutation swap
    for pres in [presentation_M(2, 1, 1, 2), presentation_Mbar(2, 1, 1, 2),
                 presentation_Mtilde(2, 1, 1, 2), presentation_P(1, 1, 1, 1, 1, 1),
                 presentation_P(2, 1, 1, 2, 1, 1)]:
        cp = classical_presentation(pres)
        for (i, j), rhs in cp.rules.items():
            if i == j:
                ok = ok and rhs == ()
                ok = ok and cp.generators[i].parity == 1
                continue
            ok = ok and len(rhs) == 1
            coeff, word = rhs[0]
            sign = -1 if cp.generators[i].parity and cp.generators[j].parity else 1
            ok = ok and word == (j, i) and coeff.terms == {0: sign}

    # the column-shape Sergeev polynomial is the classical 2x2 minor
    # (signs agree on the nose) and dies under the classical comodule map
    params = (2, 0, 2, 0, 1, 0)
    cm = classical_presentation(presentation_M(2, 0, 2, 0))
    serg = sergeev_polynomial([[1], [2]], (1, 2), (1, 2), 2, 0)
    minor = normal_form(classical_limit(quantum_minor((1, 2), (1, 2), "M", params)), cm)
    ok = ok and serg == minor
    ok = ok and classical_psi(serg, params).is_zero()

    _criterion("C12", "classical limit supercommutes and Sergeev matches the minor",
               ok, time.perf_counter() - t0)
