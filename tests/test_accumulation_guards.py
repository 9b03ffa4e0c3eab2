"""Guards on sparse accumulation: no shared Laurent coefficient is written in
place, no element handed to the algebra is changed by it, no two returned
coefficients share one terms dict (nor one with an input), and the rewrite
order (step counts and the term order of normal forms) stays pinned."""

import copy
import hashlib
import sys

from qmatalg import invariants, laurent, qalgebra, uqaction
from qmatalg.cli import main
from qmatalg.invariants import (
    _context,
    _critical_minors,
    classical_presentation,
    fft_check,
    ideal_dims,
    sft_check,
    verify_X_relations,
)
from qmatalg.laurent import LaurentInt, format_laurent
from qmatalg.qalgebra import NCElement, multiply, presentation_Mtilde, presentation_P

CONSTANTS = ("ONE", "ZERO", "Q", "QINV", "Q_MINUS_QINV")
XRELATION_TUPLES = [(1, 0, 1, 0, 1, 0), (1, 1, 1, 1, 1, 1), (2, 1, 1, 0, 1, 1), (1, 2, 2, 1, 1, 1)]


def _snapshot(value):
    """A copy of an element's terms in word order, or of a coefficient's,
    with each coefficient's exponents sorted; a nonempty q = 1 element's
    {word: int} terms are copied as they are (an agenda, empty or of Laurent
    coefficients, is an output, not an input)."""
    if isinstance(value, NCElement):
        return [(w, sorted(c.terms.items())) for w, c in value.terms.items()]
    if isinstance(value, LaurentInt):
        return sorted(value.terms.items())
    if isinstance(value, dict) and value and all(type(c) is int for c in value.values()):
        return list(value.items())
    return value


def _rule_table(pres):
    return {
        lhs: [(sorted(c.terms.items()), w) for c, w in rhs] for lhs, rhs in pres.rules.items()
    }


def _patch_everywhere(monkeypatch, module, name, replacement):
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qmatalg") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _count_steps(monkeypatch, total):
    original = qalgebra.normal_form_stats

    def counted(e, pres):
        out = original(e, pres)
        total[0] += out[1]
        return out

    _patch_everywhere(monkeypatch, qalgebra, "normal_form_stats", counted)


RETURNS_WATCHED = ("multiply", "normal_form", "act", "_merge_product")


def _watch_inputs(monkeypatch, changed, returned):
    """Record in changed the name of each call that wrote an argument (the
    agenda that _add_word_products fills is its output, not an input), and
    in returned the (arguments, result) of each multiply, normal_form, act
    and q = 1 merge product."""
    def watch(fn, name):
        def watched(*args):
            before = [_snapshot(a) for a in args]
            out = fn(*args)
            if [_snapshot(a) for a in args] != before:
                changed.append(name)
            if name in RETURNS_WATCHED:
                returned.append((args, out))
            return out

        return watched

    for module, name in ((qalgebra, "multiply"), (qalgebra, "normal_form"),
                         (qalgebra, "_add_word_products"), (uqaction, "act"),
                         (uqaction, "is_invariant"), (uqaction, "invariant_subspace"),
                         (invariants, "_merge_product")):
        _patch_everywhere(monkeypatch, module, name, watch(getattr(module, name), name))
    monkeypatch.setattr(NCElement, "scaled", watch(NCElement.scaled, "scaled"))


def _coefficient_dicts(value):
    if isinstance(value, NCElement):
        return [id(c.terms) for c in value.terms.values()]
    return []


def _assert_no_shared_terms(returned):
    # every element stays alive in returned, so equal ids are the same dict;
    # multiply and act return normal_form's result, so elements repeat
    seen = set()
    for out in {id(out): out for _, out in returned}.values():
        for d in _coefficient_dicts(out):
            assert d not in seen
            seen.add(d)
    for args, out in returned:
        inputs = {d for a in args for d in _coefficient_dicts(a)}
        assert inputs.isdisjoint(_coefficient_dicts(out))


def _capture(contexts, t):
    """Append (t, the context that the call just before left in the cache)."""
    misses = _context.cache_info().misses
    contexts.append((t, _context(t)))
    assert _context.cache_info().misses == misses


def test_no_shared_coefficient_or_input_is_written(monkeypatch, capsys):
    # fresh word-image memos, so that the step count does not depend on earlier tests
    _context.cache_clear()
    constants = {name: sorted(getattr(laurent, name).terms.items()) for name in CONSTANTS}
    changed = []
    returned = []
    steps = [0]
    _watch_inputs(monkeypatch, changed, returned)
    _count_steps(monkeypatch, steps)

    phase_steps = []

    def phase_done():
        phase_steps.append(steps[0] - sum(phase_steps))

    # _context keeps one tuple, so each context is captured right after the
    # call that used it (a cache hit, which takes no steps)
    contexts = []
    assert fft_check((1, 1, 1, 1, 2, 1), 2)["overall_pass"] is True
    _capture(contexts, (1, 1, 1, 1, 2, 1))
    assert sft_check((2, 0, 2, 0, 1, 0), 4, minor_ideal=True)["overall_pass"] is True
    _capture(contexts, (2, 0, 2, 0, 1, 0))
    assert sft_check((2, 0, 3, 0, 1, 0), 4, minor_ideal=True)["overall_pass"] is True
    _capture(contexts, (2, 0, 3, 0, 1, 0))
    # sft_check settles these at q = 1, so the generic minor ideal runs here
    # directly, to keep its left products that join H watched
    p = (2, 0, 3, 0, 1, 0)
    assert ideal_dims(_critical_minors(p), presentation_Mtilde(*p[:4]), 4) == [0, 0, 3, 16, 51]
    phase_done()
    for t in XRELATION_TUPLES:
        assert verify_X_relations(t) is True
        _capture(contexts, t)
    phase_done()
    assert main(["classical", "-k", "1", "-l", "1", "-r", "1", "-s", "1", "-m", "1", "-n", "1"]) == 0
    capsys.readouterr()
    _capture(contexts, (1, 1, 1, 1, 1, 1))
    phase_done()

    assert changed == []
    assert len(returned) > 900
    _assert_no_shared_terms(returned)
    assert {name: sorted(getattr(laurent, name).terms.items()) for name in CONSTANTS} == constants
    # the constructors keep their last result, which is ctx.p or ctx.mt
    # itself, so each is compared with a newly built one
    for t, ctx in contexts:
        fresh_p = presentation_P.__wrapped__(*t)
        assert _rule_table(ctx.p) == _rule_table(fresh_p)
        assert _rule_table(ctx.mt) == _rule_table(presentation_Mtilde.__wrapped__(*t[:4]))
        if ctx._classical is not None:
            assert _rule_table(ctx.classical().p) == _rule_table(classical_presentation(fresh_p))
    # fft + sft: recorded when sft_check began settling a degree from q = 1
    # where the sandwich closes (1133 before), so that the generic psi
    # images of those degrees are no longer built, with the (2,0,3,0,1,0)
    # minor ideal in the phase so that left products which join H are
    # watched too; the X relations: recorded when each exchange relation
    # became one normal form of its difference; classical: recorded when
    # classical_psi began multiplying by sorted merges (678 before), so
    # that its homomorphism check no longer rewrites; fft + sft again when
    # the minor ideal at q = 1 became the sandwich's lower end, so that
    # sft_check no longer builds the generic minor ideals, and the
    # (2,0,3,0,1,0) one runs directly (452 before); fft + sft again when
    # fft_check began settling each degree at q = 1, so that its
    # containment premise (one act per rule of P and E) and the q = 1
    # half-word parts normalize, and the generic psi images and parts no
    # longer do (428 before); fft + sft again when the q = 1 E-columns
    # became the half-words' super-derivations, so that no q = 1 half-word
    # part normalizes (466 before)
    assert phase_steps == [434, 1794, 568]

    # every later action on a presentation reads its letter tables, so a
    # second round of act must leave them as the first left them
    t, ctx = contexts[0]
    gens = uqaction.chevalley_generators(*t[4:])

    def act_round():
        return [uqaction.act(x, e, ctx.p) for x in gens for e in ctx.x_elements]

    first = act_round()
    tables = copy.deepcopy(ctx.p._letter_images)
    assert len(tables) == len(gens)
    assert act_round() == first
    assert ctx.p._letter_images == tables
    assert changed == []
    _assert_no_shared_terms(returned)


def test_x_products_keep_their_steps_and_term_order(monkeypatch):
    steps = [0]
    _count_steps(monkeypatch, steps)
    ctx = _context((2, 1, 2, 1, 2, 1))
    digest = hashlib.sha256()
    for xa in ctx.x_elements:
        for xb in ctx.x_elements:
            prod = multiply(xa, xb, ctx.p)
            digest.update(repr([(w, format_laurent(c)) for w, c in prod.terms.items()]).encode())
    # recorded from the rewriting before sparse accumulation was fused
    assert steps[0] == 2025
    assert digest.hexdigest() == "f437e631aa995aae221f270a7ec49397ae616169113cb88629b4363d2b680129"
