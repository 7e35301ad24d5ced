"""Golden tallies: run() must reproduce these counts bit for bit.

A tally is a pure function of (params, angles, n_pairs, seed, chunk_size);
the worker count never matters.  tests/golden_tallies.json freezes the
tallies of a small set of configurations covering every pattern kind, the
default and a small chunk size with a partial last chunk, a wraparound
setting pair, equal settings, zero efficiency, and one and two workers.
Any change to sampling, measurement or tallying that alters a single count
fails here.

The file is regenerated only when a change is meant to alter the sampled
numbers:

    PYTHONPATH=src python tests/test_golden_tallies.py --write
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from singlet_lhv import PatternKind, RunConfig, Tally, run, solve_params

GOLDEN = Path(__file__).with_name("golden_tallies.json")

TALLY_FIELDS = (
    "n_pp", "n_pm", "n_mp", "n_mm", "n_single_1", "n_single_2", "n_none", "n_total",
)

_T = math.pi / 3.0

# (name, kind, eta, v, angle_1, angle_2, n_pairs, seed, chunk_size, workers);
# chunk_size None means the default.
CASES = (
    ("sin-default-w1", "sin", 0.7, 0.8, 0.0, _T, 100_000, 42, None, 1),
    ("sin-default-w2", "sin", 0.7, 0.8, 0.0, _T, 100_000, 42, None, 2),
    ("line-default-w1", "line", 0.7, 0.8, 0.1, 2.1, 100_000, 7, None, 1),
    ("line-default-w2", "line", 0.7, 0.8, 0.1, 2.1, 100_000, 7, None, 2),
    ("unsym-default-w1", "unsym", 0.7, 1.0, 0.4, 0.4 + _T, 100_000, 11, None, 1),
    ("unsym-default-w2", "unsym", 0.7, 1.0, 0.4, 0.4 + _T, 100_000, 11, None, 2),
    ("sin-chunk4096-partial-w1", "sin", 0.75, 0.85, 0.2, 1.5, 50_001, 5, 4096, 1),
    ("sin-chunk4096-partial-w2", "sin", 0.75, 0.85, 0.2, 1.5, 50_001, 5, 4096, 2),
    ("line-chunk4096-partial-w2", "line", 0.9, 0.6, 0.0, 2.0, 30_000, 13, 4096, 2),
    ("unsym-chunk4096-partial-w2", "unsym", 0.5, 1.0, 0.0, 2.5, 20_000, 17, 4096, 2),
    ("line-wraparound-w1", "line", 0.7, 0.8, 2.0 * math.pi, _T + 4.0 * math.pi,
     100_000, 23, None, 1),
    ("sin-equal-angles-w2", "sin", 0.75, 1.0, 1.1, 1.1, 100_000, 29, None, 2),
    ("sin-eta-zero-w1", "sin", 0.0, 0.3, 0.0, 1.0, 10_000, 31, None, 1),
    ("sin-max-seed-w2", "sin", 1.0, 0.6, 0.0, 0.5 * math.pi, 70_000, (1 << 64) - 1,
     None, 2),
)


def _tally(case) -> Tally:
    _, model, eta, v, a1, a2, n_pairs, seed, chunk_size, workers = case
    params = solve_params(eta, v, PatternKind(model))
    extra = {} if chunk_size is None else {"chunk_size": chunk_size}
    cfg = RunConfig(
        params=params, angle_1=a1, angle_2=a2, n_pairs=n_pairs, seed=seed, **extra
    )
    return run(cfg, workers=workers)


def _load() -> dict:
    with GOLDEN.open(encoding="utf-8") as fh:
        return json.load(fh)


def test_tally_field_order():
    assert tuple(f.name for f in dataclasses.fields(Tally)) == TALLY_FIELDS
    assert tuple(_load()["fields"]) == TALLY_FIELDS


def test_golden_file_covers_every_case():
    assert list(_load()["tallies"]) == [case[0] for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_tally_is_bit_identical(case):
    want = _load()["tallies"][case[0]]
    assert list(dataclasses.astuple(_tally(case))) == want


def _write() -> None:
    # One tally per line keeps diffs of this file readable.
    lines = [f'  "fields": {json.dumps(list(TALLY_FIELDS))},', '  "tallies": {']
    rows = [
        f"    {json.dumps(case[0])}: {json.dumps(list(dataclasses.astuple(_tally(case))))}"
        for case in CASES
    ]
    lines.append(",\n".join(rows))
    GOLDEN.write_text("{\n" + "\n".join(lines) + "\n  }\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_tallies.py --write")
    _write()
