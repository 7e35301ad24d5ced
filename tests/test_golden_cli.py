"""Golden CLI output: `params`, `sweep`, `chsh` and `region` must print it byte for byte.

tests/golden_cli.json freezes, for each case below, the exit status, the
stdout and the table: the CSV text, or the JSON document without its meta
block (meta holds the numpy version), dumped again as the CLI dumps it.  It
pins every column, every float's printed form, the row order, the child
seeds, NaN and null for a setting without coincidences, and the exit codes.
A `params` case prints no table; it pins stdout and stderr instead.
Regenerate the file only when a change is meant to alter a table:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from singlet_lhv import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: name -> argv.  A case with --out writes the table to out.txt; the others print it.
CASES = {
    "sweep-csv": ["sweep", "--eta", "0.7", "--vis", "0.8", "--steps", "4", "--pairs", "20000",
                  "--seed", "4", "--out", "out.txt"],
    "sweep-json-workers-2": ["sweep", "--eta", "0.7", "--vis", "0.8", "--model", "line",
                             "--steps", "3", "--pairs", "150000", "--seed", "5",
                             "--workers", "2", "--format", "json", "--out", "out.txt"],
    "sweep-unsym-csv": ["sweep", "--eta", "0.7", "--vis", "1", "--model", "unsym",
                        "--steps", "3", "--pairs", "10000", "--out", "out.txt"],
    "sweep-empty-json": ["sweep", "--eta", "0.05", "--vis", "0.3", "--steps", "3",
                         "--pairs", "100", "--format", "json", "--out", "out.txt"],
    "chsh-csv": ["chsh", "--eta", "0.9", "--vis", "0.5", "--pairs", "20000"],
    "chsh-json-degrees": ["chsh", "--eta", "0.95", "--vis", "0.7", "--model", "line",
                          "--angles", "0,90,45,135", "--degrees", "--pairs", "20000",
                          "--seed", "9", "--format", "json"],
    "chsh-empty-json": ["chsh", "--eta", "0.001", "--vis", "0", "--pairs", "10",
                        "--format", "json"],
    "region-csv": ["region", "--eta-steps", "3", "--vis-steps", "4", "--out", "out.txt"],
    "region-json": ["region", "--eta-steps", "2", "--vis-steps", "3", "--format", "json",
                    "--out", "out.txt"],
    "params-sin": ["params", "--eta", "0.7", "--vis", "0.8"],
    "params-unsym": ["params", "--eta", "0.7", "--vis", "1", "--model", "unsym"],
    "params-infeasible": ["params", "--eta", "0.9", "--vis", "1.0"],
    "params-eta-zero": ["params", "--eta", "0", "--vis", "0.5", "--model", "line"],
    "params-eta-above-one": ["params", "--eta", "1.5", "--vis", "0.5"],
    "params-degenerate": ["params", "--eta", "1", "--vis", "1"],
}


def _table(text: str, is_json: bool):
    if not is_json:
        return text
    doc = json.loads(text)
    del doc["meta"]
    return json.dumps(doc, indent=2) + "\n"


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            path = Path(tmp, "out.txt")
            written = path.read_text(encoding="utf-8") if path.exists() else None
        finally:
            os.chdir(cwd)
    stdout = out.getvalue()
    if argv[0] == "params":
        return {"exit": status, "stdout": stdout, "stderr": err.getvalue()}
    is_json = "json" in argv
    if written is None:
        return {"exit": status, "table": _table(stdout, is_json)}
    return {"exit": status, "stdout": stdout, "table": _table(written, is_json)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_is_byte_identical(name):
    assert _run(CASES[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    golden = {name: _run(argv) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
