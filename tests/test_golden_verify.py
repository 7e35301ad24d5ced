"""Golden verify transcript: `singlet-lhv verify` must print it byte for byte.

tests/golden_verify.txt freezes the stdout of

    singlet-lhv verify --pairs 100000 --seed 42

so it pins each check's name, place in the order, threshold and deviation,
and the exit status 0. A renamed, dropped, reordered or loosened check fails
here. Regenerate the file only when a change is meant to alter it:

    PYTHONPATH=src python tests/test_golden_verify.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

from singlet_lhv import cli

GOLDEN = Path(__file__).with_name("golden_verify.txt")

ARGV = ["verify", "--pairs", "100000", "--seed", "42"]


def _transcript() -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(ARGV)
    return status, out.getvalue().encode("utf-8")


def test_transcript_is_byte_identical():
    status, text = _transcript()
    assert status == 0
    assert text == GOLDEN.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_verify.py --write")
    status, text = _transcript()
    if status != 0:
        sys.exit(f"verify exited {status}; not writing {GOLDEN.name}")
    GOLDEN.write_bytes(text)
