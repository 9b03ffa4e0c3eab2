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
--json <path>.  Randomized trials draw from an explicit --seed (fixed
default), so every run is reproducible; the exit status is 0 exactly when
all asserted equalities hold, 1 on a failed check, 2 on bad input.
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .hookcomb import emit_dimension_table, kernel_dim_prediction, supermatrix_monomial_count
from .invariants import (
    InvariantParams,
    build_X,
    classical_limit,
    classical_presentation,
    fft_check,
    ideal_degree_component,
    kernel_psi_basis,
    psi,
    quantum_minor,
)
from .laurent import Q, QINV
from .qalgebra import (
    NCElement,
    _check_ranges,
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: tuple
    max_degree: int
    json_path: str
    seed: int
    minor_ideal: bool


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


def _write_report(report, config):
    """Write the report to --json PATH when one was given; return its text."""
    text = json.dumps(report, indent=2)
    if config.json_path:
        with open(config.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _emit(report, config):
    print(_write_report(report, config))
    return 0 if report["overall_pass"] else 1


def cmd_dims(config):
    k, l, r, s = config.params
    if not any(config.params):
        raise ValueError("dims needs at least one nonzero size among -k -l -r -s")
    _check_ranges("dims", ("rows -k -l", (k, l)), ("cols -r -s", (r, s)))
    sizes = []
    for size in range(config.max_degree + 1):
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
    return _emit(report, config)


def cmd_nf(config, pres_spec, element_text):
    pres = parse_presentation_spec(pres_spec)
    e = parse_element(element_text, pres)
    text = format_element(normal_form(e, pres), pres)
    report = {
        "schema": SCHEMA,
        "command": "nf",
        "presentation": pres_spec,
        "input": element_text,
        "normal_form": text,
        "overall_pass": True,
    }
    _write_report(report, config)
    print(text)
    return 0


def cmd_fft(config):
    rep = fft_check(config.params, config.max_degree)
    report = {"schema": SCHEMA, "command": "fft"}
    report.update(rep)
    return _emit(report, config)


def _critical_minors(params):
    """All minors of size m+1 in the tilde presentation, the kernel
    generators when every column index is even."""
    k, l, r, s, m, n = params
    size = m + 1
    minors = []
    for rows in combinations(range(1, k + l + 1), size):
        for cols in combinations(range(1, r + s + 1), size):
            minors.append(
                quantum_minor(rows, tuple(reversed(cols)), "Mtilde", params)
            )
    return minors


def cmd_sft(config):
    params = InvariantParams(*config.params)
    k, l, r, s, m, n = params.astuple()
    minors = None
    if config.minor_ideal:
        if n != 0:
            raise ValueError("--minor-ideal requires n = 0 (all columns even)")
        minors = _critical_minors(params.astuple())
    mt = presentation_Mtilde(k, l, r, s)
    degrees = []
    for N in range(config.max_degree + 1):
        dim_ker = len(kernel_psi_basis(params, N))
        dim_pred = kernel_dim_prediction(k, l, r, s, m, n, N)
        ok = dim_ker == dim_pred
        ideal_dim = None
        if minors is not None:
            ideal_dim = ideal_degree_component(minors, mt, N)
            ok = ok and ideal_dim == dim_ker
        degrees.append(
            {
                "N": N,
                "dim_inv": None,
                "dim_img": None,
                "dim_ker": dim_ker,
                "dim_pred": dim_pred,
                "ideal_dim": ideal_dim,
                "pass": ok,
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "sft",
        "params": list(params.astuple()),
        "degrees": degrees,
        "overall_pass": all(rec["pass"] for rec in degrees),
    }
    return _emit(report, config)


def cmd_hecke(config):
    k, l = config.params
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
    return _emit(report, config)


def _classical_rules_ok(pres):
    cp = classical_presentation(pres)
    for rhs in cp.rules.values():
        if len(rhs) > 1:
            return False
        for c, _ in rhs:
            if c.terms not in ({0: 1}, {0: -1}):
                return False
    return True


def cmd_classical(config):
    params = InvariantParams(*config.params)
    k, l, r, s, m, n = params.astuple()
    rng = random.Random(config.seed)
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

    xs = {}
    for a in range(1, k + l + 1):
        for b in range(1, r + s + 1):
            xs[a, b] = classical_limit(build_X(a, b, params))
    super_ok = True
    for (a, b), x1 in xs.items():
        for (c, d), x2 in xs.items():
            sign = -1 if ((a > k) + (b > r)) * ((c > k) + (d > r)) % 2 else 1
            if multiply(x1, x2, cp) != multiply(x2, x1, cp).scaled(sign):
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
        "seed": config.seed,
        "trials": trials,
        "checks": checks,
        "overall_pass": all(checks.values()),
    }
    return _emit(report, config)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmatalg",
        description="exact verification commands for the quantum supermatrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, sizes, degree_default=None):
        for flag in sizes:
            p.add_argument(f"-{flag}", type=int, default=0)
        if degree_default is not None:
            p.add_argument("-N", type=int, default=degree_default, dest="max_degree")
        p.add_argument("--json", dest="json_path", default=None, metavar="PATH")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("dims", help="dimension identities per degree")
    common(p, sizes="klrs", degree_default=4)

    p = sub.add_parser("nf", help="normal form of one element")
    p.add_argument("pres", help="presentation spec, e.g. M:1,1,1,1")
    p.add_argument("element", help="element text, e.g. 'T[2,1] T[1,1]'")
    p.add_argument("--json", dest="json_path", default=None, metavar="PATH")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("fft", help="surjectivity onto the invariants")
    common(p, sizes="klrsmn", degree_default=2)

    p = sub.add_parser("sft", help="kernel dimensions against the prediction")
    common(p, sizes="klrsmn", degree_default=2)
    p.add_argument("--minor-ideal", action="store_true", dest="minor_ideal")

    p = sub.add_parser("hecke", help="R-matrix and Hecke checks")
    common(p, sizes="kl")

    p = sub.add_parser("classical", help="q = 1 degeneration checks")
    common(p, sizes="klrsmn")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    sizes = {
        "dims": "klrs",
        "fft": "klrsmn",
        "sft": "klrsmn",
        "hecke": "kl",
        "classical": "klrsmn",
    }.get(args.command, "")
    config = RunConfig(
        command=args.command,
        params=tuple(getattr(args, flag) for flag in sizes),
        max_degree=getattr(args, "max_degree", 0),
        json_path=args.json_path,
        seed=args.seed,
        minor_ideal=getattr(args, "minor_ideal", False),
    )
    try:
        if config.max_degree < 0:
            raise ValueError(f"-N must be nonnegative, got {config.max_degree}")
        if args.command == "dims":
            return cmd_dims(config)
        if args.command == "nf":
            return cmd_nf(config, args.pres, args.element)
        if args.command == "fft":
            return cmd_fft(config)
        if args.command == "sft":
            return cmd_sft(config)
        if args.command == "hecke":
            return cmd_hecke(config)
        return cmd_classical(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
