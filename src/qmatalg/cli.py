"""Command line front end: every verification as a reproducible batch command.

Subcommands:
  dims       degree-by-degree dimension identities (monomial count vs the
             hook-partition sum)
  nf         normal form of one element, given a presentation spec like
             M:1,1,1,1 or P:1,1,1,1,2,2 and the element text
  fft        surjectivity report for psi onto the invariants
  sft        kernel dimensions of psi against the combinatorial prediction,
             optionally the minor-generated ideal (columns all even)
  hecke      R-matrix checks: quadratic, braid, eigenbases, FRT cross-check
  classical  q = 1 checks: supercommutation, seeded associativity and
             homomorphism trials

Reports are JSON with a top-level "schema": 1, printed to stdout (nf
prints its normal form as text instead) and optionally written to
--json <path>.  The randomized trials of classical draw from an explicit
--seed (fixed default; no other subcommand takes one), so every run is
reproducible; the exit status is 0 exactly when all asserted equalities
hold, 1 on a failed check, 2 on bad input.
"""

import argparse
import json
import random
import sys

from .hookcomb import emit_dimension_table, supermatrix_monomial_count
from .invariants import (
    InvariantParams,
    build_X,
    classical_limit,
    classical_presentation,
    fft_check,
    psi,
    sft_check,
)
from .laurent import Q, QINV
from .qalgebra import (
    NCElement,
    _check_ranges,
    _index_parity,
    _sign,
    format_element,
    multiply,
    normal_form,
    parse_element,
    presentation_M,
    presentation_Mbar,
    presentation_Mtilde,
    presentation_P,
)
from .rmat_hecke import (
    hecke_act,
    sym_skew_bases,
    verify_braid,
    verify_frt,
    verify_hecke_quadratic,
)
from .exactla import CoeffVector

SCHEMA = 1
DEFAULT_SEED = 0xCAFEBABE

_PRES_BUILDERS = {
    "M": (presentation_M, 4),
    "Mb": (presentation_Mbar, 4),
    "Mt": (presentation_Mtilde, 4),
    "P": (presentation_P, 6),
}


def parse_presentation_spec(text):
    """Build a presentation from a spec string like M:1,1,1,1 or P:2,0,2,0,1,0."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _PRES_BUILDERS:
        known = ", ".join(_PRES_BUILDERS)
        raise ValueError(f"bad presentation spec {text!r}; expected one of {known} "
                         "followed by ':' and comma-separated sizes")
    builder, arity = _PRES_BUILDERS[kind]
    fields = rest.split(",")
    if len(fields) != arity:
        raise ValueError(f"presentation {kind} needs {arity} sizes, got {len(fields)}")
    try:
        sizes = [int(x) for x in fields]
    except ValueError:
        raise ValueError(f"non-integer size in presentation spec {text!r}") from None
    return builder(*sizes)


def _write_report(report, args):
    """Write the report to --json PATH when one was given; return its text."""
    text = json.dumps(report, indent=2)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _emit(report, args):
    print(_write_report(report, args))
    return 0 if report["overall_pass"] else 1


def cmd_dims(args):
    k, l, r, s = args.params
    if not any(args.params):
        raise ValueError("dims needs at least one nonzero size among -k -l -r -s")
    _check_ranges("dims", ("rows -k -l", (k, l)), ("cols -r -s", (r, s)))
    sizes = []
    for size in range(args.max_degree + 1):
        table = emit_dimension_table(k, l, r, s, size)
        count = supermatrix_monomial_count(k, l, r, s, size)
        sizes.append(
            {
                "size": size,
                "monomial_count": count,
                "howe_sum": table["total"],
                "partitions": table["partitions"],
                "pass": count == table["total"],
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "dims",
        "params": [k, l, r, s],
        "sizes": sizes,
        "overall_pass": all(rec["pass"] for rec in sizes),
    }
    return _emit(report, args)


def cmd_nf(args):
    pres = parse_presentation_spec(args.pres)
    e = parse_element(args.element, pres)
    text = format_element(normal_form(e, pres), pres)
    report = {
        "schema": SCHEMA,
        "command": "nf",
        "presentation": args.pres,
        "input": args.element,
        "normal_form": text,
        "overall_pass": True,
    }
    _write_report(report, args)
    print(text)
    return 0


def cmd_fft(args):
    report = fft_check(args.params, args.max_degree)
    return _emit({"schema": SCHEMA, "command": "fft", **report}, args)


def cmd_sft(args):
    report = sft_check(args.params, args.max_degree, args.minor_ideal)
    return _emit({"schema": SCHEMA, "command": "sft", **report}, args)


def cmd_hecke(args):
    k, l = args.params
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
        "sym_eigenbasis": sym_ok and len(sym) == k * (k + 1) // 2 + l * (l - 1) // 2 + k * l,
        "skew_eigenbasis": skew_ok and len(sym) + len(skew) == (k + l) ** 2,
        "frt": verify_frt(k, l),
    }
    report = {
        "schema": SCHEMA,
        "command": "hecke",
        "k": k,
        "l": l,
        "checks": checks,
        "overall_pass": all(checks.values()),
    }
    return _emit(report, args)


def _classical_rules_ok(pres):
    cp = classical_presentation(pres)
    for rhs in cp.rules.values():
        if len(rhs) > 1:
            return False
        for c, _ in rhs:
            if c.terms not in ({0: 1}, {0: -1}):
                return False
    return True


def cmd_classical(args):
    params = InvariantParams(*args.params)
    k, l, r, s, m, n = params.astuple()
    rng = random.Random(args.seed)
    pres_p = presentation_P(*params.astuple())
    cp = classical_presentation(pres_p)
    mt = presentation_Mtilde(k, l, r, s)

    rules_ok = all(
        _classical_rules_ok(p)
        for p in (
            presentation_M(k, l, r, s),
            presentation_Mbar(k, l, r, s),
            mt,
            pres_p,
        )
    )

    xs = [
        (classical_limit(build_X(a, b, params)), _index_parity(a, k) + _index_parity(b, r))
        for a in range(1, k + l + 1)
        for b in range(1, r + s + 1)
    ]
    super_ok = True
    for x1, p1 in xs:
        for x2, p2 in xs:
            if multiply(x1, x2, cp) != multiply(x2, x1, cp).scaled(_sign(p1 * p2)):
                super_ok = False

    trials = 100
    assoc_ok = True
    for _ in range(trials):
        words = [
            NCElement.from_word(
                tuple(rng.randrange(cp.ngens) for _ in range(rng.randint(0, 3)))
            )
            for _ in range(3)
        ]
        a, b, c = (normal_form(w, cp) for w in words)
        if multiply(multiply(a, b, cp), c, cp) != multiply(a, multiply(b, c, cp), cp):
            assoc_ok = False

    hom_ok = True
    for _ in range(trials):
        u, v = (
            normal_form(
                NCElement.from_word(
                    tuple(rng.randrange(mt.ngens) for _ in range(rng.randint(0, 2)))
                ),
                mt,
            )
            for _ in range(2)
        )
        lhs = classical_limit(psi(multiply(u, v, mt), params))
        rhs = multiply(
            classical_limit(psi(u, params)), classical_limit(psi(v, params)), cp
        )
        if lhs != rhs:
            hom_ok = False

    checks = {
        "rules_supercommute_at_q1": rules_ok,
        "classical_X_supercommute": super_ok,
        "associativity_trials": assoc_ok,
        "homomorphism_trials": hom_ok,
    }
    report = {
        "schema": SCHEMA,
        "command": "classical",
        "params": list(params.astuple()),
        "seed": args.seed,
        "trials": trials,
        "checks": checks,
        "overall_pass": all(checks.values()),
    }
    return _emit(report, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmatalg",
        description="exact verification commands for the quantum supermatrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *, sizes="", degree_default=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, sizes=sizes)
        for flag in sizes:
            p.add_argument(f"-{flag}", type=int, default=0)
        if degree_default is not None:
            p.add_argument("-N", type=int, default=degree_default, dest="max_degree")
        p.add_argument("--json", dest="json_path", default=None, metavar="PATH")
        return p

    command("dims", cmd_dims, "dimension identities per degree", sizes="klrs", degree_default=4)

    p = command("nf", cmd_nf, "normal form of one element")
    p.add_argument("pres", help="presentation spec, e.g. M:1,1,1,1")
    p.add_argument("element", help="element text, e.g. 'T[2,1] T[1,1]'")

    command("fft", cmd_fft, "surjectivity onto the invariants", sizes="klrsmn", degree_default=2)

    p = command("sft", cmd_sft, "kernel dimensions against the prediction",
                sizes="klrsmn", degree_default=2)
    p.add_argument("--minor-ideal", action="store_true", dest="minor_ideal")

    command("hecke", cmd_hecke, "R-matrix and Hecke checks", sizes="kl")

    p = command("classical", cmd_classical, "q = 1 degeneration checks", sizes="klrsmn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.params = tuple(getattr(args, flag) for flag in args.sizes)
    try:
        max_degree = getattr(args, "max_degree", 0)
        if max_degree < 0:
            raise ValueError(f"-N must be nonnegative, got {max_degree}")
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
