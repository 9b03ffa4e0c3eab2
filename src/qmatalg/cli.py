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

Subcommands only parse flags and print: each report is built in the
module that owns its checks (dims_check in hookcomb; fft_check, sft_check
and classical_check in invariants; hecke_check in rmat_hecke), and
run_report adds "schema": 1 and "command", prints the JSON to stdout and
optionally writes it to --json <path>; nf prints its normal form as text
instead.  Every check is exhaustive, so output is byte-stable for
fixed flags; the exit status is 0 exactly when all asserted equalities
hold, 1 on a failed check, 2 on bad input.
"""

import argparse
import errno
import json
import os
import sys

from .hookcomb import dims_check
from .invariants import classical_check, fft_check, sft_check
from .qalgebra import (format_element, normal_form, parse_element, presentation_M,
                       presentation_Mbar, presentation_Mtilde, presentation_P)
from .rmat_hecke import hecke_check

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


def run_report(args):
    """Build the subcommand's report, print it and write it to --json PATH;
    exit status 0 exactly when it passes."""
    report = {"schema": SCHEMA, "command": args.command, **args.report(args)}
    print(_write_report(report, args))
    return 0 if report["overall_pass"] else 1


def cmd_nf(args):
    pres = parse_presentation_spec(args.pres)
    e = parse_element(args.element, pres)
    text = format_element(normal_form(e, pres), pres)
    _write_report({"schema": SCHEMA, "command": "nf", "presentation": args.pres,
                   "input": args.element, "normal_form": text, "overall_pass": True}, args)
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmatalg",
        description="exact verification commands for the quantum supermatrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, report=None, *, run=run_report, sizes="", degree_default=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, report=report, sizes=sizes)
        for flag in sizes:
            p.add_argument(f"-{flag}", type=int, default=0)
        if degree_default is not None:
            p.add_argument("-N", type=int, default=degree_default, dest="max_degree")
        p.add_argument("--json", dest="json_path", default=None, metavar="PATH")
        return p

    command("dims", "dimension identities per degree",
            lambda a: dims_check(*a.params, a.max_degree), sizes="klrs", degree_default=4)

    p = command("nf", "normal form of one element", run=cmd_nf)
    p.add_argument("pres", help="presentation spec, e.g. M:1,1,1,1")
    p.add_argument("element", help="element text, e.g. 'T[2,1] T[1,1]'")

    command("fft", "surjectivity onto the invariants",
            lambda a: fft_check(a.params, a.max_degree), sizes="klrsmn", degree_default=2)

    p = command("sft", "kernel dimensions against the prediction",
                lambda a: sft_check(a.params, a.max_degree, a.minor_ideal),
                sizes="klrsmn", degree_default=2)
    p.add_argument("--minor-ideal", action="store_true", dest="minor_ideal")

    command("hecke", "R-matrix and Hecke checks", lambda a: hecke_check(*a.params), sizes="kl")

    command("classical", "q = 1 degeneration checks",
            lambda a: classical_check(a.params), sizes="klrsmn")

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
