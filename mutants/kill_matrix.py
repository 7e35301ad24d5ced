"""Build the mutant kill matrix: which gates fail on each hand-made mutant.

    python3 mutants/kill_matrix.py

Each mutant in mutants.json replaces one text that occurs exactly once in
one file.  For every mutant the tracked files (git ls-files) are copied to a
temporary directory, the mutant is applied, and two gates run there:

* tier-1, the full pytest suite without -x, so that every killing test is
  named;
* `python -m singlet_lhv.cli verify --pairs 100000 --seed 42`.

The unmutated copy must come out clean first.  The matrix records, per
mutant, the failing test ids and pytest's exit code, and verify's exit code,
FAIL check names and last stderr line.  A verify exit of 2 with an error:
line is a kill that names no check.  tests/test_mutants.py checks this list
and this matrix, so it is left out of every run: a mutant removes the text
that test looks for.  Two mutants run at a time; a pass over the list takes
about 25 minutes on a 2-core host.  The result goes to kill_matrix.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MUTANTS = HERE / "mutants.json"
MATRIX = HERE / "kill_matrix.json"

TIER1 = ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
VERIFY = ["-m", "singlet_lhv.cli", "verify", "--pairs", "100000", "--seed", "42"]
TIMEOUT_S = 1800
JOBS = 2


def load_mutants() -> list[dict]:
    return json.loads(MUTANTS.read_text())["mutants"]


def copy_tree(dest: Path) -> None:
    listing = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                             capture_output=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        sys.exit(f"{mutant['id']}: old text does not occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def _run(tree: Path, args: list[str]) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", f"timed out after {TIMEOUT_S} s"
    return done.returncode, done.stdout, done.stderr


def gates(tree: Path) -> dict:
    """Run tier-1 and verify in tree and say what failed."""
    code, out, _ = _run(tree, TIER1)
    tests = sorted(
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))
    )
    v_code, v_out, v_err = _run(tree, VERIFY)
    return {
        "tests": tests,
        "tier1_exit": code,
        "verify_fails": [line.split()[1] for line in v_out.splitlines()
                         if line.startswith("FAIL ")],
        "verify_exit": v_code,
        "verify_error": (v_err.strip().splitlines() or [""])[-1] if v_code else "",
    }


def killed(record: dict) -> tuple[bool, bool]:
    """(tier-1 kills it, verify kills it)."""
    return record["tier1_exit"] != 0, record["verify_exit"] != 0


def mutant_gates(mutant: dict, scratch: Path) -> dict:
    tree = scratch / mutant["id"]
    copy_tree(tree)
    apply(tree, mutant)
    try:
        return gates(tree)
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main() -> None:
    mutants = load_mutants()
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        scratch = Path(tmp)
        copy_tree(scratch / "clean")
        clean = gates(scratch / "clean")
        if any(killed(clean)):
            sys.exit(f"the unmutated tree is not clean: {clean}")
        matrix = {}
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = {m["id"]: pool.submit(mutant_gates, m, scratch) for m in mutants}
            for i, (name, future) in enumerate(futures.items(), 1):
                matrix[name] = future.result()
                t1, v = killed(matrix[name])
                print(f"[{i}/{len(mutants)}] {name}: tier-1 {'kills' if t1 else 'misses'}, "
                      f"verify {'kills' if v else 'misses'}", file=sys.stderr)
    doc = {"made_by": "mutants/kill_matrix.py", "tier1": " ".join(TIER1[2:]),
           "verify": " ".join(VERIFY[2:]), "mutants": matrix}
    MATRIX.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
