"""Golden quadrature tables: outcome_probabilities must reproduce them bit for bit.

outcome_probabilities is a pure function of (params, angles, knobs): each
phi node's r-segments come from the sorted pattern cuts, each segment is
labelled elementwise at its midpoint, and the segment lengths are summed by
label and then over the phi nodes in a fixed order.
tests/golden_quadrature.json freezes the 3x3 tables of a small set of cases
covering every pattern kind at the default knobs, a setting pair on the
pi/4 breakpoints, equal settings, a wraparound pair, zero efficiency, and a
coarse and an odd knob set.  Each cell is stored with float.hex, so any
change to the cuts, the segment sums or the summation order that moves a
single bit fails here.

The file is regenerated only when a change is meant to alter the tables:

    PYTHONPATH=src python tests/test_golden_quadrature.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from singlet_lhv import PatternKind, solve_params
from singlet_lhv.quadrature import outcome_probabilities

GOLDEN = Path(__file__).with_name("golden_quadrature.json")

_T = math.pi / 3.0
_Q = math.pi / 4.0

# (name, kind, eta, v, angle_1, angle_2, knobs); knobs {} means the defaults.
CASES = (
    ("sin-default", "sin", 0.7, 0.8, 0.3, 0.3 + _T, {}),
    ("line-default", "line", 0.7, 0.8, 0.1, 2.1, {}),
    ("unsym-default", "unsym", 0.7, 1.0, 0.0, _T, {}),
    ("sin-quarter-breakpoints", "sin", 0.75, 0.85, 3.0 * _Q, 7.0 * _Q, {}),
    ("line-quarter-breakpoints", "line", 0.9, 0.6, 0.0, _Q, {}),
    ("sin-equal-angles", "sin", 0.75, 1.0, 1.1, 1.1, {}),
    ("line-equal-angles", "line", 0.6, 0.7, 2.5, 2.5, {}),
    ("line-wraparound", "line", 0.7, 0.8, 0.4 - 2.0 * math.pi, 1.9 + 4.0 * math.pi, {}),
    ("unsym-wraparound", "unsym", 0.5, 1.0, 5.0 - 2.0 * math.pi, 0.2 + 4.0 * math.pi, {}),
    ("sin-eta-zero", "sin", 0.0, 0.3, 0.0, 1.0, {}),
    ("sin-coarse", "sin", 0.7, 0.8, 0.3, 1.3, {"r_probes": 64, "gl_order": 4}),
    ("line-odd-knobs", "line", 0.8, 0.5, 1.0, 2.7, {"r_probes": 1000, "gl_order": 7}),
)


def _table(case) -> list[list[str]]:
    _, kind, eta, v, a1, a2, knobs = case
    params = solve_params(eta, v, PatternKind(kind))
    table = outcome_probabilities(params, a1, a2, **knobs).table
    return [[float(x).hex() for x in row] for row in table]


def _load() -> dict:
    with GOLDEN.open(encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert list(_load()) == [case[0] for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_table_is_bit_identical(case):
    assert _table(case) == _load()[case[0]]


def _write() -> None:
    # One table per line keeps diffs of this file readable.
    rows = [f"  {json.dumps(case[0])}: {json.dumps(_table(case))}" for case in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_quadrature.py --write")
    _write()
