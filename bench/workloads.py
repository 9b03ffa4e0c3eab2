"""The benchmark's workloads: fixed theorem instances run through qmatalg.

Each workload is a function ``(seed, small) -> verdict``.  The verdict is a
JSON-serialisable value that the benchmark compares against a golden copy,
so a run counts as correct only if every exact check came out the same.
``small=True`` selects a reduced instance of the same shape, used by the
benchmark's own test.

qmatalg functions are reached through their module attributes at call time
(``invariants.fft_check``, never a name imported here), so the tracer's
wrappers on those attributes see every call the workload makes.
"""

import contextlib
import io
import random

from qmatalg import cli, invariants, qalgebra, uqaction

_NONZERO_PAIRS = [(a, b) for a in range(3) for b in range(3) if a + b >= 1]
PARAM_GRID = [
    (k, l, r, s, m, n)
    for (k, l) in _NONZERO_PAIRS
    for (r, s) in _NONZERO_PAIRS
    for (m, n) in _NONZERO_PAIRS
]
# every 7th tuple of the 512: 74 tuples that still cover every size pair in
# every position, and keep one sample near a second
GRID_STRIDE = 7
ASSOC_TRIALS = 200


def fft_kernel(seed, small):
    """FFT check of (1,1,1,1,2,1) up to N = 3: the invariant kernels."""
    params, max_degree = ((1, 1, 1, 1, 1, 1), 2) if small else ((1, 1, 1, 1, 2, 1), 3)
    return invariants.fft_check(params, max_degree)


def sft_ideal(seed, small):
    """`qmatalg sft -k 2 -r 2 -m 1 -N 7 --minor-ideal`: byte-exact stdout."""
    argv = ["sft", "-k", "2", "-r", "2", "-m", "1", "-N", "3" if small else "7", "--minor-ideal"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _degree3_words(pres):
    if pres.kind == "P":
        return [w for d in range(4) for w in qalgebra.graded_basis(pres, (d, 3 - d))]
    return qalgebra.graded_basis(pres, 3)


def _associativity_trials(rng, trials):
    ok = True
    count = 0
    for pres in (qalgebra.presentation_P(1, 1, 1, 1, 2, 2),
                 qalgebra.presentation_Mtilde(2, 1, 1, 2)):
        words = _degree3_words(pres)
        for _ in range(trials):
            a, b, c = (qalgebra.NCElement.from_word(rng.choice(words)) for _ in range(3))
            left = qalgebra.multiply(qalgebra.multiply(a, b, pres), c, pres)
            right = qalgebra.multiply(a, qalgebra.multiply(b, c, pres), pres)
            ok = ok and left == right
            count += 1
    return ok, count


def rewrite_grid(seed, small):
    """C03, C04 and C05 over part of the parameter grid, plus seeded
    associativity trials on degree-3 normal words; rewriting and the action
    only."""
    grid = PARAM_GRID[:6] if small else PARAM_GRID[::GRID_STRIDE]
    invariant = relations = psi_ok = True
    for params in grid:
        k, l, r, s, m, n = params
        pres = qalgebra.presentation_P(k, l, r, s, m, n)
        for a in range(1, k + l + 1):
            for b in range(1, r + s + 1):
                x = invariants.build_X(a, b, params)
                invariant = invariant and uqaction.is_invariant(x, pres)
        relations = relations and invariants.verify_X_relations(params)
        mt = qalgebra.presentation_Mtilde(k, l, r, s)
        for (i, j), rhs in mt.rules.items():
            left = invariants.psi(qalgebra.NCElement.from_word((i, j)), params)
            right = invariants.psi(qalgebra.NCElement((w, c) for c, w in rhs), params)
            psi_ok = psi_ok and left == right
    assoc_ok, trials = _associativity_trials(random.Random(seed), 3 if small else ASSOC_TRIALS)
    return {
        "grid_tuples": len(grid),
        "X_invariant": invariant,
        "X_relations": relations,
        "psi_relations": psi_ok,
        "associativity": assoc_ok,
        "associativity_trials": trials,
    }


WORKLOADS = {
    "fft_kernel": fft_kernel,
    "sft_ideal": sft_ideal,
    "rewrite_grid": rewrite_grid,
}
