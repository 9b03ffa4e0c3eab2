"""Command line front end: every verification as a reproducible batch command.

Subcommands:
  dims       degree-by-degree dimension identities (monomial count vs the
             hook-partition sum)
  nf         normal form of one element, given a presentation spec like
             M:1,1,1,1 or P:1,1,1,1,2,2 and the element text
  fft        surjectivity report for psi onto the invariants
  sft        kernel dimensions of psi against the combinatorial prediction,
             optionally the minor-generated ideal (rows and columns all
             even, with m < min(k, r))
  hecke      R-matrix checks: quadratic, braid, eigenbases, FRT cross-check
  classical  q = 1 checks: the rules are free supercommutation, the X's
             supercommute, every overlap of the four presentations
             resolves (associativity), and psi respects every tilde rule
             (homomorphism)

Reports are JSON with a top-level "schema": 1, printed to stdout (nf
prints its normal form as text instead) and optionally written to
--json <path>.  Every check is exhaustive, so output is byte-stable for
fixed flags; the exit status is 0 exactly when all asserted equalities
hold, 1 on a failed check, 2 on bad input.
"""

import argparse
import errno
import json
import os
import sys

from .hookcomb import emit_dimension_table, supermatrix_monomial_count
from .invariants import (
    InvariantParams,
    _context,
    _rules_hold,
    classical_presentation,
    fft_check,
    sft_check,
)
from .laurent import Q, QINV, LaurentInt
from .qalgebra import (
    _check_ranges,
    _sign,
    _unresolved_overlaps,
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


def _check_json_path(path):
    """Fail before the computation when --json PATH cannot be written;
    nothing is created or truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --json {path}: {os.strerror(code)}")


def _write_report(report, args):
    """Write the report to --json PATH when one was given; return its text."""
    text = json.dumps(report, indent=2)
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --json {args.json_path}: {exc.strerror}") from None
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


def _classical_rules_ok(cp):
    """True when the q = 1 rules are exactly free supercommutation: x_i x_j
    -> (-1)^{p_i p_j} x_j x_i for i > j, and x_i x_i -> 0 for odd i."""
    par = [g.parity for g in cp.generators]
    table = {
        (i, j): ((LaurentInt.from_int(_sign(par[i] * par[j])), (j, i)),)
        for i in range(len(par))
        for j in range(i)
    }
    table.update({(i, i): () for i, p in enumerate(par) if p})
    return cp.rules == table


def cmd_classical(args):
    params = InvariantParams(*args.params)
    k, l, r, s, m, n = params.astuple()
    classical = [
        classical_presentation(p)
        for p in (
            presentation_M(k, l, r, s),
            presentation_Mbar(k, l, r, s),
            presentation_Mtilde(k, l, r, s),
            presentation_P(k, l, r, s, m, n),
        )
    ]
    cmt, cp = classical[2], classical[3]
    cpsi = _context(params.astuple()).classical()
    # the q = 1 limit of X_ab, indexed like the tilde generator t~_ab
    xs = cpsi.x_elements

    super_ok = all(
        multiply(x1, x2, cp) == multiply(x2, x1, cp).scaled(_sign(g1.parity * g2.parity))
        for x1, g1 in zip(xs, cmt.generators)
        for x2, g2 in zip(xs, cmt.generators)
    )
    resolved = [_unresolved_overlaps(c) for c in classical]

    checks = {
        "rules_supercommute_at_q1": all(_classical_rules_ok(c) for c in classical),
        "classical_X_supercommute": super_ok,
        "associativity": not any(bad for _, bad in resolved),
        "homomorphism": _rules_hold(cmt.rules, cpsi.word_image),
    }
    report = {
        "schema": SCHEMA,
        "command": "classical",
        "params": list(params.astuple()),
        "overlaps": sum(count for count, _ in resolved),
        "tilde_rules": len(cmt.rules),
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

    command("classical", cmd_classical, "q = 1 degeneration checks", sizes="klrsmn")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.params = tuple(getattr(args, flag) for flag in args.sizes)
    try:
        max_degree = getattr(args, "max_degree", 0)
        if max_degree < 0:
            raise ValueError(f"-N must be nonnegative, got {max_degree}")
        if args.json_path:
            _check_json_path(args.json_path)
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
