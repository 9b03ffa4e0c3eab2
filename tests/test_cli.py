"""CLI behavior: frozen outputs for the documented examples, exit codes,
JSON shape and byte-stability."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmatalg import cli, invariants
from qmatalg.cli import build_parser, main
from qmatalg.invariants import classical_presentation
from qmatalg.qalgebra import AlgebraPresentation, presentation_P


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf_frozen_examples(capsys):
    code, out, err = run(["nf", "M:1,1,1,1", "T[2,1] T[1,1]"], capsys)
    assert code == 0
    assert out == "q * T[1,1] T[2,1]\n"
    assert err == ""

    code, out, _ = run(["nf", "Mt:1,1,1,1", "Tt[1,2] Tt[1,2]"], capsys)
    assert code == 0
    assert out == "0\n"

    code, out, _ = run(["nf", "P:1,0,1,0,1,0", "Tb[1,1] T[1,1]"], capsys)
    assert code == 0
    assert out == "q^-1 * T[1,1] Tb[1,1]\n"


def test_python_dash_m_runs_the_cli():
    # `python -m qmatalg` from a plain checkout, with no console script installed
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run_m(element):
        return subprocess.run(
            [sys.executable, "-m", "qmatalg", "nf", "M:1,1,1,1", element],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = run_m("T[2,1] T[1,1]")
    assert (done.returncode, done.stdout, done.stderr) == (0, "q * T[1,1] T[2,1]\n", "")
    # the exit status of cli.main is the process's
    done = run_m("T[2,1] + junk")
    assert done.returncode == 2 and "junk" in done.stderr


def test_nf_error_paths(capsys):
    # malformed element: diagnostic names the offending fragment, exit 2
    code, out, err = run(["nf", "M:1,1,1,1", "T[2,1] + junk"], capsys)
    assert code == 2
    assert out == ""
    assert "junk" in err

    code, _, err = run(["nf", "Q:1,1,1,1", "T[1,1]"], capsys)
    assert code == 2
    assert "presentation spec" in err

    code, _, err = run(["nf", "M:1,1,1", "T[1,1]"], capsys)
    assert code == 2
    assert "4 sizes" in err

    code, out, err = run(["nf", "M:1,a,1,1", "T[1,1]"], capsys)
    assert (code, out) == (2, "")
    assert "non-integer size" in err

    # generator outside the declared grid
    code, _, err = run(["nf", "M:1,1,1,1", "T[5,1]"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "element, detail",
    [
        ("q^99999999999 * T[1,1]", "'q^99999999999 * T[1,1]': exponent 99999999999"),
        ("--T[1,1]", "'--T[1,1]'"),
    ],
    ids=["exponent-past-the-bound", "stacked-signs"],
)
def test_nf_rejects_a_bad_term_with_its_position(element, detail, capsys):
    code, out, err = run(["nf", "M:1,1,1,1", "--", element], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad term at position 0: {detail}")
    assert err.count("\n") == 1


def test_dims_report(capsys):
    code, out, _ = run(["dims", "-k", "1", "-l", "1", "-r", "1", "-s", "1", "-N", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["command"] == "dims"
    assert rep["params"] == [1, 1, 1, 1]
    by_size = {rec["size"]: rec for rec in rep["sizes"]}
    assert by_size[0]["monomial_count"] == by_size[0]["howe_sum"] == 1
    assert by_size[2]["monomial_count"] == by_size[2]["howe_sum"] == 8
    assert rep["overall_pass"] is True


def test_dims_larger_case(capsys):
    code, out, _ = run(["dims", "-k", "2", "-l", "0", "-r", "2", "-s", "0", "-N", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    rec = rep["sizes"][3]
    assert rec["monomial_count"] == rec["howe_sum"] == 20
    assert rep["overall_pass"] is True


def test_json_output_is_byte_stable(tmp_path, capsys):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    argv = ["fft", "-k", "1", "-l", "0", "-r", "1", "-s", "0",
            "-m", "1", "-n", "0", "-N", "2"]
    code1, out1, _ = run(argv + ["--json", str(path1)], capsys)
    code2, out2, _ = run(argv + ["--json", str(path2)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert path1.read_bytes() == path2.read_bytes()
    rep = json.loads(path1.read_text())
    assert rep["schema"] == 1
    assert rep["overall_pass"] is True
    assert [rec["dim_inv"] for rec in rep["degrees"]] == [1, 1, 1]


def test_sft_report_with_minor_ideal(capsys):
    argv = ["sft", "-k", "2", "-l", "0", "-r", "2", "-s", "0",
            "-m", "1", "-n", "0", "-N", "3", "--minor-ideal"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    assert [rec["dim_ker"] for rec in rep["degrees"]] == [0, 0, 1, 4]
    assert [rec["ideal_dim"] for rec in rep["degrees"]] == [0, 0, 1, 4]
    assert [rec["dim_pred"] for rec in rep["degrees"]] == [0, 0, 1, 4]
    assert rep["overall_pass"] is True


def test_sft_without_minor_ideal(capsys):
    argv = ["sft", "-k", "1", "-l", "1", "-r", "1", "-s", "1",
            "-m", "0", "-n", "1", "-N", "2"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    assert [rec["ideal_dim"] for rec in rep["degrees"]] == [None, None, None]
    assert [rec["dim_ker"] for rec in rep["degrees"]] == [0, 0, 4]


def test_sft_minor_ideal_needs_even_columns(capsys):
    argv = ["sft", "-k", "1", "-l", "1", "-r", "1", "-s", "1",
            "-m", "1", "-n", "1", "-N", "2", "--minor-ideal"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "minor-ideal" in err


def test_hecke_report(capsys):
    code, out, _ = run(["hecke", "-k", "1", "-l", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"] == {
        "quadratic": True,
        "braid": True,
        "sym_eigenbasis": True,
        "skew_eigenbasis": True,
        "frt": True,
    }
    assert rep["overall_pass"] is True


CLASSICAL_1S = ["classical", "-k", "1", "-l", "1", "-r", "1", "-s", "1", "-m", "1", "-n", "1"]


def test_classical_report_counts_what_it_checked(capsys):
    code, out, _ = run(CLASSICAL_1S, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"] == {
        "rules_supercommute_at_q1": True,
        "classical_X_supercommute": True,
        "associativity": True,
        "homomorphism": True,
    }
    assert rep["overlaps"] == 124
    assert rep["tilde_rules"] == 8
    assert rep["overall_pass"] is True


def _flip_classical_rule(kind, index, monkeypatch):
    """Make invariants.classical_presentation flip the sign of the index-th
    nonempty q = 1 rule of the `kind` presentation.

    The report's q = 1 Mtilde and P are the ones the memoized q = 1 psi
    runs between, so a flipped rule of either reaches the report only
    through a `_context` built under the flip; the flip of M or Mbar
    reaches only the presentations the report builds itself."""
    def flipped(pres):
        cp = classical_presentation(pres)
        if pres.kind != kind:
            return cp
        rules = dict(cp.rules)
        lhs = [lhs for lhs, rhs in rules.items() if rhs][index]
        (c, w), = rules[lhs]
        rules[lhs] = ((-c, w),)
        return AlgebraPresentation(cp.kind, cp.params, cp.generators, rules)

    monkeypatch.setattr(invariants, "classical_presentation", flipped)


def _cached_classical_P_is_unflipped():
    cached = invariants._context((1, 1, 1, 1, 1, 1)).classical().p
    return cached.rules == classical_presentation(presentation_P(1, 1, 1, 1, 1, 1)).rules


def test_a_flipped_classical_P_rule_is_not_supercommutation(monkeypatch, capsys):
    # the flipped context is dropped after the flip is undone, so the
    # `_context` cache that later tests share keeps the real rules
    invariants._context.cache_clear()
    try:
        with monkeypatch.context() as flip:
            _flip_classical_rule("P", 0, flip)
            code, out, _ = run(CLASSICAL_1S, capsys)
    finally:
        invariants._context.cache_clear()
    assert code == 1
    assert json.loads(out)["checks"]["rules_supercommute_at_q1"] is False
    assert _cached_classical_P_is_unflipped()


@pytest.mark.parametrize("index", range(6))
def test_a_flipped_classical_Mtilde_rule_breaks_the_homomorphism(index, monkeypatch, capsys):
    # Mtilde(1,1,1,1) has six rules with a nonempty right side; the report's
    # q = 1 Mtilde is classical psi's own, so the flip reaches it only
    # through a `_context` built under the flip, dropped again afterwards
    invariants._context.cache_clear()
    try:
        with monkeypatch.context() as flip:
            _flip_classical_rule("Mtilde", index, flip)
            code, out, _ = run(CLASSICAL_1S, capsys)
    finally:
        invariants._context.cache_clear()
    assert code == 1
    assert json.loads(out)["checks"]["homomorphism"] is False
    assert _cached_classical_P_is_unflipped()


@pytest.mark.parametrize(
    "argv, records, index, expected",
    [
        (["dims", "-k", "1", "-r", "1"], "sizes", "size", 4),
        (["fft", "-k", "1", "-r", "1", "-m", "1"], "degrees", "N", 2),
        (["sft", "-k", "1", "-r", "1", "-m", "1"], "degrees", "N", 2),
    ],
    ids=["dims", "fft", "sft"],
)
def test_default_degree_reaches_report(argv, records, index, expected, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    rep = json.loads(out)
    assert [rec[index] for rec in rep[records]] == list(range(expected + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "-k", "1", "-r", "1"],
        ["nf", "M:1,1,1,1", "T[1,1]"],
        ["fft", "-k", "1", "-r", "1", "-m", "1"],
        ["sft", "-k", "1", "-r", "1", "-m", "1"],
        ["hecke", "-k", "1"],
        CLASSICAL_1S,
    ],
    ids=["dims", "nf", "fft", "sft", "hecke", "classical"],
)
def test_no_subcommand_takes_a_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_invalid_params_exit_2(capsys):
    # one table over the invariants commands: each bad size tuple exits 2,
    # prints nothing on stdout and names the fault on stderr
    cases = [
        (["-k", "0", "-l", "0"], "each of the pairs (k,l), (r,s), (m,n) must sum to >= 1"),
        (["-k", "-1", "-l", "1"], "k must be a nonnegative integer, got -1"),
    ]
    for command in ("fft", "sft", "classical"):
        for sizes, message in cases:
            code, out, err = run([command, *sizes, "-r", "1", "-s", "1", "-m", "1"], capsys)
            assert (command, code, out, err) == (command, 2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dims", "-k", "1", "-l", "1", "-r", "1", "-s", "1", "-N", "-1"], "-N"),
        (["dims", "-N", "2"], "index range rows (k, l) must be nonempty"),
        (["fft", "-k", "1", "-l", "0", "-r", "1", "-s", "0",
          "-m", "1", "-n", "0", "-N", "-1"], "-N"),
        (["sft", "-k", "2", "-l", "0", "-r", "2", "-s", "0",
          "-m", "1", "-n", "0", "-N", "-3", "--minor-ideal"], "-N"),
        (["dims", "-k", "-1", "-r", "1", "-N", "1"], "index range rows (k, l)"),
        (["dims", "-k", "1", "-N", "2"], "index range cols (r, s)"),
        (["dims", "-r", "1", "-N", "1"], "index range rows (k, l)"),
        # odd rows: the increasing-row minors miss the kernel generators
        (["sft", "-k", "1", "-l", "1", "-r", "1", "-s", "1",
          "-m", "1", "-n", "0", "-N", "3", "--minor-ideal"], "minor-ideal"),
        # m + 1 > min(k, r): no minors, so the ideal check has no generators
        (["sft", "-k", "1", "-r", "1", "-m", "1", "-N", "3", "--minor-ideal"], "minor-ideal"),
    ],
    ids=["dims-negative-N", "dims-all-sizes-zero", "fft-negative-N", "sft-negative-N",
         "dims-negative-size", "dims-no-columns", "dims-no-rows",
         "sft-minor-ideal-odd-rows", "sft-minor-ideal-no-minors"],
)
def test_vacuous_request_exits_2(argv, message, capsys):
    # a check over zero degrees or an empty algebra must not report a pass
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["hecke", "-k", "1"], ()),
        (["nf", "M:1,1,1,1", "T[2,1] T[1,1]"], ("missing", "x.json")),
    ],
    ids=["directory", "missing-directory"],
)
def test_unwritable_json_path_exits_2(argv, target, tmp_path, capsys):
    path = tmp_path.joinpath(*target)
    code, out, err = run(argv + ["--json", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --json {path}: ")


FFT_ARGV = ["fft", "-k", "2", "-l", "1", "-r", "2", "-s", "1", "-m", "2", "-n", "1", "-N", "3"]


def _fft_check_must_not_run(monkeypatch, exc=AssertionError):
    def refused(*args):
        raise exc("fft_check ran")

    monkeypatch.setattr(cli, "fft_check", refused)


def test_unwritable_json_path_fails_before_the_computation(monkeypatch, tmp_path, capsys):
    _fft_check_must_not_run(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    for path in (tmp_path, tmp_path / "missing" / "x.json", blocker / "x.json"):
        code, out, err = run(FFT_ARGV + ["--json", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --json {path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "keep\n"


def test_read_only_json_path_fails_before_the_computation(monkeypatch, tmp_path, capsys):
    # os.access stands in for file modes, which do not bind a superuser
    _fft_check_must_not_run(monkeypatch)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    existing = tmp_path / "old.json"
    existing.write_text("keep\n")
    for path in (existing, tmp_path / "new.json"):
        code, out, err = run(FFT_ARGV + ["--json", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --json {path}: Permission denied\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert existing.read_text() == "keep\n"


def test_json_path_check_creates_and_truncates_nothing(monkeypatch, tmp_path, capsys):
    # the check passes and the run then fails: no file may have been opened
    _fft_check_must_not_run(monkeypatch, ValueError)
    existing = tmp_path / "old.json"
    existing.write_text("keep\n")
    for path in (existing, tmp_path / "new.json"):
        code, out, err = run(FFT_ARGV + ["--json", str(path)], capsys)
        assert (code, out, err) == (2, "", "error: fft_check ran\n")
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert existing.read_text() == "keep\n"


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])


def test_cli_imports_no_private_name_from_the_package():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level > 0 for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]
