"""The hand-made mutant list stays applicable and its kill matrix stays in step.

mutants/mutants.json lists mutants as one-text replacements, and
mutants/kill_matrix.py records in mutants/kill_matrix.json which tier-1 tests
and verify checks kill each one.  A refactor that moves a mutated text, or a
mutant added or edited without rerunning the matrix, fails here.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text())["mutants"]
MUTATION = ("file", "old", "new")


def test_every_mutant_applies_once():
    for m in MUTANTS:
        path = ROOT / m["file"]
        assert path.is_file(), m["id"]
        assert path.read_text().count(m["old"]) == 1, m["id"]
        assert m["new"] != m["old"], m["id"]
        assert m["why"].strip(), m["id"]


def test_kill_matrix_names_every_mutant():
    ids = [m["id"] for m in MUTANTS]
    assert len(set(ids)) == len(ids)
    matrix = json.loads((ROOT / "mutants" / "kill_matrix.json").read_text())["mutants"]
    assert sorted(matrix) == sorted(ids)
    # A mutant edited without rerunning the matrix fails here too.
    for m in MUTANTS:
        entry = matrix[m["id"]]
        assert [entry.get(key) for key in MUTATION] == [m[key] for key in MUTATION], m["id"]
