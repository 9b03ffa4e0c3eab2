"""README CLI examples: every documented `qmatalg` line keeps the exit code,
stdout and --json file bytes frozen in tests/golden/readme_examples.json."""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from qmatalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_examples.json"


def readme_cli_lines():
    """The `qmatalg ...` lines of the README's CLI code block, comments cut."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        if line.startswith("qmatalg "):
            lines.append(line.split("#", 1)[0].rstrip())
    return lines


def run_example(line, json_path=None):
    """Run one `qmatalg ...` line through cli.main; return its exit code,
    stdout and the text of the --json file (None without json_path)."""
    argv = shlex.split(line)[1:]
    if json_path is not None:
        argv += ["--json", str(json_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    json_text = None if json_path is None else Path(json_path).read_text(encoding="utf-8")
    return {"line": line, "json": json_path is not None, "code": code,
            "stdout": out.getvalue(), "json_text": json_text}


GOLDEN_RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_readme_line():
    plain = [rec["line"] for rec in GOLDEN_RECORDS if not rec["json"]]
    assert plain == readme_cli_lines()
    readme = README.read_text(encoding="utf-8")
    for rec in GOLDEN_RECORDS:
        assert rec["line"] in readme


@pytest.mark.parametrize(
    "rec",
    GOLDEN_RECORDS,
    ids=[f"{i}-{rec['line'].split()[1]}{'-json' if rec['json'] else ''}"
         for i, rec in enumerate(GOLDEN_RECORDS)],
)
def test_readme_example_is_byte_stable(rec, tmp_path):
    json_path = tmp_path / "report.json" if rec["json"] else None
    assert run_example(rec["line"], json_path) == rec
